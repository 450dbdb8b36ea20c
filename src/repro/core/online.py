"""Online per-user learning (paper Section 4.2).

The online phase adapts each user's weight vector ``w_u`` as feedback
arrives, exploiting the independence of user weights and the linear
structure of ``prediction(u, x) = w_u^T f(x, θ)`` for conflict-free
per-user updates. Three updaters implement the same interface:

* :class:`NormalEquationsUpdater` — re-solves Eq. 2 from the user's full
  observation history on every update. Cubic in d (plus linear in the
  user's example count); this is exactly what the paper's Figure 3
  measures.
* :class:`ShermanMorrisonUpdater` — maintains ``A^{-1} = (F^T F + λI)^{-1}``
  incrementally via the Sherman–Morrison rank-one formula, giving O(d²)
  updates (the optimization the paper describes). Its covariance doubles
  as the uncertainty source for the LinUCB bandit policy.
* :class:`SgdUpdater` — a stochastic-gradient alternative.

All updaters support a non-zero ridge prior ``w0`` (regularizing toward
``w0`` instead of zero) so that models with structural intercept slots
keep their intercepts under regularization; ``w0 = 0`` recovers Eq. 2
verbatim.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.common.errors import ConfigError, ValidationError
from repro.metrics.streaming import StreamingMeanVar
from repro.store.slab import SlabPolicy


class UserModelState:
    """Mutable per-user learning state for one model.

    Holds the current weights plus whatever the updater needs to be
    incremental: the full (features, label) history for the normal-
    equations path, and the running ``A^{-1}``/``b`` for Sherman–Morrison.
    Also tracks the cross-validation statistics the manager reads
    (paper Section 4.3: "an additional cross-validation step during
    incremental user weight updates").
    """

    def __init__(
        self,
        dimension: int,
        regularization: float,
        prior_mean: np.ndarray | None = None,
    ):
        if dimension < 1:
            raise ValidationError(f"dimension must be >= 1, got {dimension}")
        if regularization < 0:
            raise ValidationError(
                f"regularization must be >= 0, got {regularization}"
            )
        self.dimension = dimension
        self.regularization = regularization
        self.prior_mean = (
            np.zeros(dimension) if prior_mean is None else np.asarray(prior_mean, float)
        )
        if self.prior_mean.shape != (dimension,):
            raise ValidationError(
                f"prior_mean must have shape ({dimension},), "
                f"got {self.prior_mean.shape}"
            )
        self.weights = self.prior_mean.copy()
        self.observation_count = 0
        # Normal-equations path: full per-user history.
        self.feature_history: list[np.ndarray] = []
        self.label_history: list[float] = []
        # Sherman-Morrison path: A^{-1} and the residual target vector b,
        # where w = w0 + A^{-1} b and A = F^T F + lambda I. A^{-1} is a
        # dense d x d matrix, so it is allocated lazily on first use —
        # serving-only users (reads, no updates) must not pay O(d^2)
        # memory per user.
        self._lam = max(regularization, 1e-12)
        self._a_inv: np.ndarray | None = None
        self.b = np.zeros(dimension)
        # Pre-update (progressive validation) error statistics.
        self.progressive_loss = StreamingMeanVar()
        # Bumped by the manager on every weight update; part of the
        # prediction-cache key so stale per-user entries never hit.
        self.weight_version = 0

    @property
    def a_inv(self) -> np.ndarray:
        """The d x d inverse Gram matrix, allocated on first access."""
        if self._a_inv is None:
            self._a_inv = np.eye(self.dimension) / self._lam
        return self._a_inv

    @a_inv.setter
    def a_inv(self, value: np.ndarray) -> None:
        """The inverse Gram matrix, allocated on first access."""
        self._a_inv = value

    def predict(self, features: np.ndarray) -> float:
        """The current weights' score for a feature vector."""
        return float(self.weights @ features)

    def uncertainty(self, features: np.ndarray) -> float:
        """LinUCB-style confidence width sqrt(f^T A^{-1} f).

        Meaningful when the Sherman–Morrison state is being maintained;
        for other updaters it still reflects the prior covariance. When
        no update has touched this state yet, A = lambda I, so the width
        is computed directly without materializing the matrix.
        """
        if self._a_inv is None:
            return float(np.sqrt(max(0.0, features @ features) / self._lam))
        return float(np.sqrt(max(0.0, features @ self._a_inv @ features)))

    def record_history(self, features: np.ndarray, label: float) -> None:
        """Append one observation to the retained history."""
        self.feature_history.append(features)
        self.label_history.append(label)
        self.observation_count += 1


class PristineServingState:
    """Shared read-only stand-in for slab-resident (pristine) user states.

    Every never-observed user of a model has byte-identical derived
    state — ``weight_version == 0`` and the closed-form prior
    uncertainty — so one shared shim serves fast reads for all of them
    without materializing a :class:`UserModelState` per lookup.
    """

    __slots__ = ("_lam",)

    #: Pristine states have never had a weight update.
    weight_version = 0

    def __init__(self, regularization: float):
        self._lam = max(regularization, 1e-12)

    def uncertainty(self, features: np.ndarray) -> float:
        """Prior confidence width: A = lambda I, no matrix needed."""
        return float(np.sqrt(max(0.0, features @ features) / self._lam))


class UserStateCodec:
    """Lossless slab codec for pristine :class:`UserModelState` values.

    A user state is slab-eligible exactly while nothing but its prior
    mean distinguishes it: no observations, no history, no allocated
    covariance, weights still equal to the prior. Such states round-trip
    through a bare ``(dimension,)`` float64 row — ``decode`` rebuilds an
    equal state from scratch. Anything observed stays an object.
    """

    kind = "user_state"

    def __init__(self, dimension: int, regularization: float):
        self.dimension = int(dimension)
        self.regularization = float(regularization)
        self._serving = PristineServingState(regularization)

    def encode(self, state: object) -> np.ndarray | None:
        """The state's weight row if it is pristine, else ``None``."""
        if type(state) is not UserModelState:
            return None
        if (
            state.dimension != self.dimension
            or state.regularization != self.regularization
            or state.weight_version != 0
            or state.observation_count != 0
            or state.feature_history
            or state.label_history
            or state._a_inv is not None
            or state.progressive_loss.count
        ):
            return None
        weights = state.weights
        if weights.dtype != np.float64 or weights.shape != (self.dimension,):
            return None
        if state.b.any() or not np.array_equal(weights, state.prior_mean):
            return None
        return weights

    def decode(self, vector: np.ndarray) -> UserModelState:
        """An equal pristine state (owns a copy of the row)."""
        return UserModelState(
            self.dimension,
            self.regularization,
            prior_mean=np.array(vector, dtype=float),
        )

    def weights_of(self, value: object) -> np.ndarray | None:
        """The weight row of a dict-resident value, for fast reads."""
        return getattr(value, "weights", None)

    def serving_state(self) -> PristineServingState:
        """The shared shim fast reads of slab rows return as state."""
        return self._serving

    def manifest_info(self) -> dict:
        """JSON-serializable self-description for checkpoint manifests."""
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "regularization": self.regularization,
        }


def user_state_policy(dimension: int, regularization: float) -> SlabPolicy:
    """The storage policy of every ``user_state:<model>`` table.

    Pristine (never-observed) user states live as contiguous slab rows
    through the lossless :class:`UserStateCodec`; observed states stay
    dict-resident objects until the next offline swap.
    """
    return SlabPolicy(dimension, codec=UserStateCodec(dimension, regularization))


class OnlineUpdater(ABC):
    """Updates a :class:`UserModelState` with one observation."""

    #: Whether this updater needs the full per-user history retained.
    keeps_history: bool = True

    @abstractmethod
    def update(self, state: UserModelState, features: np.ndarray, label: float) -> None:
        """Incorporate one (features, label) observation into ``state``."""

    def _validate(self, state: UserModelState, features: np.ndarray, label: float):
        arr = np.asarray(features, dtype=float)
        if arr.shape != (state.dimension,):
            raise ValidationError(
                f"features must have shape ({state.dimension},), got {arr.shape}"
            )
        if not np.all(np.isfinite(arr)) or not np.isfinite(label):
            raise ValidationError("features and label must be finite")
        return arr, float(label)


class NormalEquationsUpdater(OnlineUpdater):
    """Eq. 2 verbatim: re-solve the user's ridge regression from scratch.

    ``w_u <- w0 + (F^T F + λI)^{-1} F^T (Y - F w0)``

    With ``w0 = 0`` this is exactly the paper's update. The solve is
    O(n d² + d³), which is what Figure 3's latency curve measures.
    """

    keeps_history = True

    def update(self, state: UserModelState, features: np.ndarray, label: float) -> None:
        """Incorporate one (features, label) observation (see OnlineUpdater)."""
        arr, y = self._validate(state, features, label)
        # Progressive validation: score the observation before learning it.
        state.progressive_loss.update((y - state.predict(arr)) ** 2)
        state.record_history(arr, y)
        f_matrix = np.vstack(state.feature_history)
        labels = np.asarray(state.label_history, dtype=float)
        gram = f_matrix.T @ f_matrix + state.regularization * np.eye(state.dimension)
        residual = labels - f_matrix @ state.prior_mean
        rhs = f_matrix.T @ residual
        state.weights = state.prior_mean + np.linalg.solve(gram, rhs)
        # Keep the SM state consistent so uncertainty() stays meaningful
        # even if the deployment later switches updaters.
        outer = np.outer(arr, arr)
        denom = 1.0 + float(arr @ state.a_inv @ arr)
        state.a_inv -= (state.a_inv @ outer @ state.a_inv) / denom
        state.b += arr * (y - float(arr @ state.prior_mean))


class ShermanMorrisonUpdater(OnlineUpdater):
    """O(d²) incremental ridge via the Sherman–Morrison formula.

    Maintains ``A^{-1}`` where ``A = F^T F + λI`` and the residual vector
    ``b = F^T (Y - F w0)``; after each rank-one update,
    ``w = w0 + A^{-1} b`` — algebraically identical to the normal
    equations solution at every step.
    """

    keeps_history = False

    def update(self, state: UserModelState, features: np.ndarray, label: float) -> None:
        """Incorporate one (features, label) observation (see OnlineUpdater)."""
        arr, y = self._validate(state, features, label)
        state.progressive_loss.update((y - state.predict(arr)) ** 2)
        state.observation_count += 1
        a_inv_f = state.a_inv @ arr
        denom = 1.0 + float(arr @ a_inv_f)
        state.a_inv -= np.outer(a_inv_f, a_inv_f) / denom
        state.b += arr * (y - float(arr @ state.prior_mean))
        state.weights = state.prior_mean + state.a_inv @ state.b


class SgdUpdater(OnlineUpdater):
    """Stochastic gradient descent on the regularized squared error.

    One gradient step per observation with an inverse-decay learning
    rate. Cheapest (O(d)) but only approximates the ridge solution; the
    accuracy/latency trade-off shows up in the updater comparison tests.
    """

    keeps_history = False

    def __init__(self, learning_rate: float = 0.05, decay: float = 0.01):
        if learning_rate <= 0:
            raise ConfigError(f"learning_rate must be > 0, got {learning_rate}")
        if decay < 0:
            raise ConfigError(f"decay must be >= 0, got {decay}")
        self.learning_rate = learning_rate
        self.decay = decay

    def update(self, state: UserModelState, features: np.ndarray, label: float) -> None:
        """Incorporate one (features, label) observation (see OnlineUpdater)."""
        arr, y = self._validate(state, features, label)
        state.progressive_loss.update((y - state.predict(arr)) ** 2)
        state.observation_count += 1
        rate = self.learning_rate / (1.0 + self.decay * state.observation_count)
        error = state.predict(arr) - y
        gradient = error * arr + state.regularization * (
            state.weights - state.prior_mean
        ) / max(1, state.observation_count)
        state.weights = state.weights - rate * gradient


def leave_one_out_errors(state: UserModelState) -> np.ndarray:
    """Exact leave-one-out residuals of the user's ridge fit, in O(n d²).

    Implements the Section 4.3 "additional cross-validation step during
    incremental user weight updates": for ridge regression the LOO
    residual has the closed form

        e_i = (y_i - f_i . w) / (1 - h_i),   h_i = f_i^T A^{-1} f_i

    so generalization error is assessed without refitting n models.
    Requires the observation history (i.e. the normal-equations
    updater); raises otherwise.
    """
    if not state.feature_history:
        raise ValidationError(
            "leave-one-out needs the observation history; use the "
            "normal_equations updater (history-free updaters support "
            "progressive validation instead)"
        )
    f_matrix = np.vstack(state.feature_history)
    labels = np.asarray(state.label_history, dtype=float)
    residuals = labels - f_matrix @ state.weights
    # Leverage h_i from the maintained inverse Gram matrix.
    leverages = np.einsum("ij,jk,ik->i", f_matrix, state.a_inv, f_matrix)
    leverages = np.clip(leverages, 0.0, 1.0 - 1e-9)
    return residuals / (1.0 - leverages)


def cross_validation_score(state: UserModelState) -> float:
    """Mean squared leave-one-out error — the per-user generalization
    estimate the manager reads for quality evaluation."""
    errors = leave_one_out_errors(state)
    return float(np.mean(errors**2))


def sigmoid(z: np.ndarray | float):
    """Numerically stable logistic function."""
    return np.where(
        np.asarray(z) >= 0,
        1.0 / (1.0 + np.exp(-np.clip(z, -500, 500))),
        np.exp(np.clip(z, -500, 500)) / (1.0 + np.exp(np.clip(z, -500, 500))),
    )


class LogisticUpdater(OnlineUpdater):
    """Per-user online logistic regression for binary feedback.

    The paper notes the error function is "a configuration option" and
    restricts the prototype to squared error; this updater supplies the
    classification counterpart (clicks, skips, thumbs). Each observation
    triggers an L2-regularized IRLS (Newton) re-solve over the user's
    history — the logistic analogue of Eq. 2's exact re-solve — so the
    weights are the true penalized MLE after every update. Labels must
    be 0 or 1; ``state.predict`` then returns the log-odds and
    :meth:`predict_probability` the click probability.
    """

    keeps_history = True

    def __init__(self, newton_iterations: int = 8, tolerance: float = 1e-8):
        if newton_iterations < 1:
            raise ConfigError(
                f"newton_iterations must be >= 1, got {newton_iterations}"
            )
        if tolerance <= 0:
            raise ConfigError(f"tolerance must be > 0, got {tolerance}")
        self.newton_iterations = newton_iterations
        self.tolerance = tolerance

    @staticmethod
    def predict_probability(state: UserModelState, features: np.ndarray) -> float:
        """Sigmoid of the linear score: the click probability."""
        return float(sigmoid(state.predict(features)))

    def update(self, state: UserModelState, features: np.ndarray, label: float) -> None:
        """Incorporate one (features, label) observation (see OnlineUpdater)."""
        arr, y = self._validate(state, features, label)
        if y not in (0.0, 1.0):
            raise ValidationError(
                f"logistic updates need labels in {{0, 1}}, got {y}"
            )
        # Progressive validation in log-loss.
        probability = self.predict_probability(state, arr)
        probability = min(max(probability, 1e-12), 1 - 1e-12)
        log_loss = -(y * np.log(probability) + (1 - y) * np.log(1 - probability))
        state.progressive_loss.update(float(log_loss))
        state.record_history(arr, y)

        f_matrix = np.vstack(state.feature_history)
        labels = np.asarray(state.label_history, dtype=float)
        lam = max(state.regularization, 1e-12)
        weights = state.weights.copy()
        for __ in range(self.newton_iterations):
            logits = f_matrix @ weights
            probabilities = sigmoid(logits)
            gradient = f_matrix.T @ (probabilities - labels) + lam * (
                weights - state.prior_mean
            )
            hessian_weights = probabilities * (1.0 - probabilities)
            hessian = (f_matrix * hessian_weights[:, None]).T @ f_matrix + lam * np.eye(
                state.dimension
            )
            step = np.linalg.solve(hessian, gradient)
            weights = weights - step
            if float(np.max(np.abs(step))) < self.tolerance:
                break
        state.weights = weights
        # Keep the covariance consistent for bandit uncertainty: the
        # logistic posterior's Laplace approximation uses the final
        # Hessian inverse.
        state.a_inv = np.linalg.inv(hessian)


def make_updater(method: str, **kwargs) -> OnlineUpdater:
    """Factory keyed by :class:`~repro.common.VeloxConfig` method names."""
    if method == "normal_equations":
        return NormalEquationsUpdater()
    if method == "sherman_morrison":
        return ShermanMorrisonUpdater()
    if method == "sgd":
        return SgdUpdater(**kwargs)
    if method == "logistic":
        return LogisticUpdater(**kwargs)
    raise ConfigError(f"unknown online update method {method!r}")
