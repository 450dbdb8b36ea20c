"""New-user bootstrapping (paper Section 5).

New users are assigned "a recent estimate of the average of the existing
user weight vectors", which corresponds to predicting the average score
over all users. :class:`UserWeightAverager` holds that average as a
running sum and a count: the mean of the current weight vector of every
user in the model's table whose vector has the model's dimension.

It keeps no per-user rows. The caller that rewrites a user's weights
already holds the previous vector and swaps it out with :meth:`replace`;
a whole table is summed in place (``Table.weight_sum``) when the
averager is built at deployment, at each retrain swap, and at load.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError


class UserWeightAverager:
    """Exact running mean of every user's current weight vector."""

    def __init__(self, dimension: int, total=None, count: int = 0):
        """``total``/``count`` seed the sum of ``count`` users' vectors
        (copied, never aliased)."""
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        if count < 0:
            raise ValidationError(f"count must be >= 0, got {count}")
        self.dimension = dimension
        self._sum = (
            np.zeros(dimension) if total is None else self._checked(total).copy()
        )
        self._count = int(count)

    def __len__(self) -> int:
        return self._count

    def _checked(self, weights) -> np.ndarray:
        arr = np.asarray(weights, dtype=float)
        if arr.shape != (self.dimension,):
            raise ValidationError(
                f"weights must have shape ({self.dimension},), got {arr.shape}"
            )
        return arr

    def add(self, weights) -> None:
        """Count a new user's weights."""
        self._sum += self._checked(weights)
        self._count += 1

    def replace(self, old, new) -> None:
        """A counted user's weights changed from ``old`` to ``new``."""
        self._sum += self._checked(new) - self._checked(old)

    def remove(self, weights) -> None:
        """Forget a counted user whose current weights are ``weights``."""
        if not self._count:
            raise ValidationError("no user weights to remove")
        self._sum -= self._checked(weights)
        self._count -= 1

    def mean(self) -> np.ndarray:
        """The bootstrap weight vector w-bar for new users."""
        if not self._count:
            raise ValidationError("no user weights to average yet")
        return self._sum / self._count
