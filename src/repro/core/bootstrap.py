"""New-user bootstrapping (paper Section 5).

New users are assigned "a recent estimate of the average of the existing
user weight vectors", which corresponds to predicting the average score
over all users. :class:`UserWeightAverager` maintains that average
incrementally: each user's latest weight vector contributes once, and
re-writes replace the previous contribution, so the mean always reflects
current weights in O(d) per update.

Contributions are stored columnar, like a slab partition: one ``(n, d)``
matrix, a ``uid -> row`` index and a free list, so a bulk install into
an empty averager is one copy and one ``sum(axis=0)``.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError


class UserWeightAverager:
    """Exact running mean of every user's current weight vector."""

    def __init__(self, dimension: int):
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension
        self.reset()

    def __len__(self) -> int:
        return len(self._index)

    def update(self, uid: int, weights: np.ndarray) -> None:
        """Record ``uid``'s current weights (replacing any previous ones)."""
        arr = np.asarray(weights, dtype=float)
        if arr.shape != (self.dimension,):
            raise ValidationError(
                f"weights must have shape ({self.dimension},), got {arr.shape}"
            )
        row = self._index.get(uid)
        if row is None:
            row = self._allocate(uid)
        else:
            self._sum -= self._rows[row]
        self._rows[row] = arr
        self._sum += arr

    def update_many(self, uids, matrix) -> None:
        """Record many users' weights: row ``i`` of ``matrix`` is
        ``uids[i]``'s. Equal to a loop of :meth:`update`; into an empty
        averager with unique uids it is one copy and one column sum."""
        uids = np.asarray(uids).tolist()
        rows = np.array(matrix, dtype=float)
        if rows.shape != (len(uids), self.dimension):
            raise ValidationError(
                f"weights must have shape ({len(uids)}, {self.dimension}), "
                f"got {rows.shape}"
            )
        if not self._index:
            index = dict(zip(uids, range(len(uids))))
            if len(index) == len(uids):
                self._rows = rows
                self._index = index
                self._free = []
                self._high = len(uids)
                self._sum = rows.sum(axis=0)
                return
        for uid, row in zip(uids, rows):
            self.update(uid, row)

    def remove(self, uid: int) -> bool:
        """Forget a user; returns whether they were known."""
        row = self._index.pop(uid, None)
        if row is None:
            return False
        self._sum -= self._rows[row]
        self._free.append(row)
        return True

    def mean(self) -> np.ndarray:
        """The bootstrap weight vector w-bar for new users."""
        if not self._index:
            raise ValidationError("no user weights to average yet")
        return self._sum / len(self._index)

    def reset(self) -> None:
        """Forget every contribution."""
        self._sum = np.zeros(self.dimension)
        self._rows = np.zeros((0, self.dimension))
        self._index: dict[int, int] = {}
        self._free: list[int] = []
        self._high = 0  # rows ever allocated

    def _allocate(self, uid: int) -> int:
        if self._free:
            row = self._free.pop()
        else:
            if self._high == len(self._rows):
                grown = np.zeros((max(8, 2 * self._high), self.dimension))
                grown[: self._high] = self._rows[: self._high]
                self._rows = grown
            row = self._high
            self._high += 1
        self._index[uid] = row
        return row
