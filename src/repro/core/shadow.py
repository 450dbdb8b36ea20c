"""Shadow evaluation: score a candidate model on live traffic before
promoting it.

Section 4.3's lifecycle story — "maintains statistics about model
performance and version histories, enabling easier diagnostics of model
quality regression and simple rollbacks" — implies the operational
question this module answers: *is the retrained candidate actually
better than what is serving, on today's traffic?* A
:class:`ShadowEvaluator` rides along the observe stream: every labelled
observation is scored by both the serving model and a shadow candidate,
the paired losses accumulate, and a paired z-test decides promotion.

The candidate serves nothing while shadowed, so a bad retrain can never
hurt users — it just fails its evaluation and is discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.common.errors import ValidationError
from repro.metrics.streaming import StreamingMeanVar


@dataclass(frozen=True)
class ShadowReport:
    """Paired comparison of candidate vs serving model."""

    observations: int
    serving_mean_loss: float
    candidate_mean_loss: float
    mean_difference: float  # serving - candidate; positive favours candidate
    z_score: float
    significant: bool
    candidate_wins: bool


class ShadowEvaluator:
    """Paired loss comparison between the serving model and a candidate.

    Attach with :meth:`observe_pair` (typically from the same code path
    that calls ``velox.observe``). Read the verdict with :meth:`report`
    or let :meth:`should_promote` apply the decision rule: statistically
    significant improvement (|z| above ``z_threshold``) in the
    candidate's favour after at least ``min_observations`` pairs.
    """

    def __init__(
        self,
        velox,
        model_name: str,
        candidate,
        candidate_weights: dict | None = None,
        min_observations: int = 50,
        z_threshold: float = 1.96,
    ):
        if min_observations < 2:
            raise ValidationError(
                f"min_observations must be >= 2, got {min_observations}"
            )
        if z_threshold <= 0:
            raise ValidationError(f"z_threshold must be > 0, got {z_threshold}")
        if candidate.dimension != velox.model(model_name).dimension and (
            candidate_weights is None
        ):
            raise ValidationError(
                "candidate has a different weight dimension; supply "
                "candidate_weights"
            )
        self.velox = velox
        self.model_name = model_name
        self.candidate = candidate
        self.candidate_weights = candidate_weights or {}
        self.min_observations = min_observations
        self.z_threshold = z_threshold
        self._differences = StreamingMeanVar()
        self._serving_loss = StreamingMeanVar()
        self._candidate_loss = StreamingMeanVar()

    def _candidate_score(self, uid: int, x: object) -> float:
        features = self.candidate.validate_features(self.candidate.features(x))
        weights = self.candidate_weights.get(uid)
        if weights is None:
            table = self.velox.manager.user_state_table(self.model_name)
            state = table.get_or_default(uid)
            if state is not None and state.weights.shape == features.shape:
                weights = state.weights
            else:
                weights = self.candidate.initial_user_weights()
        return float(np.asarray(weights, float) @ features)

    def observe_pair(self, uid: int, x: object, y: float) -> None:
        """Score one labelled observation with both models.

        Uses the *pre-update* serving prediction so the comparison is
        honest (the serving model must not get credit for having just
        seen the label). Call this **instead of** scoring manually,
        alongside the normal ``velox.observe``.
        """
        serving_score = self.velox.predict_detailed(self.model_name, uid, x).score
        candidate_score = self._candidate_score(uid, x)
        model = self.velox.model(self.model_name)
        serving_loss = model.loss(y, serving_score, x, uid)
        candidate_loss = self.candidate.loss(y, candidate_score, x, uid)
        self._serving_loss.update(serving_loss)
        self._candidate_loss.update(candidate_loss)
        self._differences.update(serving_loss - candidate_loss)

    def report(self) -> ShadowReport:
        """The current paired-comparison verdict."""
        count = self._differences.count
        if count < 2:
            raise ValidationError(
                "need at least 2 paired observations for a shadow report"
            )
        mean_diff = self._differences.mean
        std = self._differences.std
        if std == 0.0:
            z_score = 0.0 if mean_diff == 0.0 else math.copysign(math.inf, mean_diff)
        else:
            z_score = mean_diff / (std / math.sqrt(count))
        significant = (
            count >= self.min_observations and abs(z_score) >= self.z_threshold
        )
        return ShadowReport(
            observations=count,
            serving_mean_loss=self._serving_loss.mean,
            candidate_mean_loss=self._candidate_loss.mean,
            mean_difference=mean_diff,
            z_score=z_score,
            significant=significant,
            candidate_wins=significant and mean_diff > 0,
        )

    def should_promote(self) -> bool:
        """True once the candidate is a statistically significant win."""
        if self._differences.count < self.min_observations:
            return False
        return self.report().candidate_wins

    def promote(self, note: str = "shadow evaluation win"):
        """Publish the candidate as the new serving version.

        Goes through the retrain swap: ``candidate_weights`` (when
        provided) become fresh user states, otherwise the live states
        are kept; raises if the evaluation has not been won.
        """
        if not self.should_promote():
            raise ValidationError(
                "candidate has not won its shadow evaluation; refusing to promote"
            )
        manager = self.velox.manager
        with manager._write_lock:
            manager._swap_retrained(
                self.model_name,
                manager._snapshot_for_retrain(self.model_name),
                self.candidate,
                self.candidate_weights or None,
                note,
            )
            return self.velox.model(self.model_name)
