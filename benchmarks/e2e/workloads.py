"""The four traffic mixes, their seeded inputs, and the answer checks.

Everything here is a pure function of ``--seed``: the deployment arrays
(item factors, user weights), the request stream, and the open-loop
arrival times. The launcher regenerates the deployment from the same
seed, so the server and the checker agree on the model without a file
passing between them.

This module imports nothing from the program under test at import time
(the launcher times ``import repro`` separately); the wire codec is
imported where frames are built.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass

import numpy as np

MODEL_NAME = "bench"
NUM_USERS = 100_000
NUM_ITEMS = 2_000
RANK = 32  # feature dimension 34 = rank + item-bias slot + intercept
GLOBAL_MEAN = 3.5
TOP_K = 10
TOP_K_CANDIDATES = 100
CONNECTIONS = 2
#: Predicts slower than this (or failed) count in loadgen.slo_miss_share.
SLO_MS = 10.0
SCORE_TOLERANCE = 1e-9

OP_PREDICT, OP_TOP_K, OP_OBSERVE = 0, 1, 2


@dataclass(frozen=True)
class Workload:
    """One traffic mix. ``loop`` is ``"open"`` (``rate`` requests/s on a
    Poisson schedule, latency timed from each request's due time) or
    ``"closed"`` (``depth`` requests in flight per connection for the
    whole window; ``pool_rps`` sizes the pre-encoded frame pool)."""

    name: str
    why: str
    loop: str
    op: int = OP_PREDICT
    rate: float = 0.0
    depth: int = 0
    pool_rps: float = 0.0
    observe_share: float = 0.0
    zipf: float = 0.0
    active_users: int = 0

    def parameters(self) -> dict:
        """The full workload parameters, for the result envelope."""
        return {
            **asdict(self),
            "num_users": NUM_USERS,
            "num_items": NUM_ITEMS,
            "rank": RANK,
            "connections": CONNECTIONS,
            "top_k": TOP_K,
            "top_k_candidates": TOP_K_CANDIDATES,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="predict_lowload",
            why="open loop 400 rps, uniform (uid, item): model compute is ~10% of p50, "
            "so batch linger, thread hand-offs, reactor and codec set latency",
            loop="open",
            rate=400.0,
        ),
        Workload(
            name="predict_saturation",
            why="closed loop 2x16 in flight, uniform predicts: queues never empty, "
            "so per-request CPU in codec, dispatch, hops and predict_batch sets capacity",
            loop="closed",
            depth=16,
            pool_rps=16_000.0,
        ),
        Workload(
            name="topk_compute",
            why="closed loop 2x4 in flight, top-10 of 100 uniform candidates: scoring, "
            "weight gathers and ranking dominate; a front-end change predicts no change",
            loop="closed",
            op=OP_TOP_K,
            depth=4,
            pool_rps=1_200.0,
        ),
        Workload(
            name="mixed_observe",
            why="open loop 1200 rps, 80% predict / 20% observe, Zipf(1.1) users and "
            "items: inline observes, online updates and cache invalidation share the reactor",
            loop="open",
            rate=1200.0,
            observe_share=0.2,
            zipf=1.1,
            active_users=2_000,
        ),
    )
}


@dataclass(frozen=True)
class Deployment:
    """The model every workload serves, as plain arrays."""

    item_factors: np.ndarray
    item_bias: np.ndarray
    user_ids: np.ndarray
    user_weights: np.ndarray

    @property
    def features(self) -> np.ndarray:
        """f(item) for every item, as MatrixFactorizationModel lays it
        out: latent factors, item bias, intercept."""
        return np.hstack(
            [
                self.item_factors,
                self.item_bias[:, None],
                np.ones((len(self.item_bias), 1)),
            ]
        )


def make_deployment(seed: int) -> Deployment:
    rng = np.random.default_rng([seed, 0])
    return Deployment(
        item_factors=rng.normal(0.0, 0.1, (NUM_ITEMS, RANK)),
        item_bias=rng.normal(0.0, 0.1, NUM_ITEMS),
        user_ids=np.arange(NUM_USERS, dtype=np.int64),
        user_weights=rng.normal(0.0, 0.1, (NUM_USERS, RANK + 2)),
    )


@dataclass
class Plan:
    """The request stream of one run, in send order; a request's index
    is its wire correlation id."""

    op: np.ndarray  # OP_* per request
    uid: np.ndarray
    item: np.ndarray  # predict/observe item; unused for top-k
    candidates: np.ndarray | None  # (n, TOP_K_CANDIDATES) for top-k
    due: np.ndarray | None  # open loop: seconds after the run starts
    frames: list[bytes]
    encode_us: float  # mean wire.encode_request_frame time per frame

    def __len__(self) -> int:
        return len(self.op)


def _zipf_choice(rng, population: int, exponent: float, size: int) -> np.ndarray:
    """Ranks 0..population-1 drawn with probability ~ 1/(rank+1)^exponent."""
    p = 1.0 / np.arange(1, population + 1) ** exponent
    return rng.choice(population, size=size, p=p / p.sum())


def _distinct_candidates(rng, rows: int) -> np.ndarray:
    """``rows`` candidate lists of TOP_K_CANDIDATES distinct items each."""
    out = np.empty((rows, TOP_K_CANDIDATES), dtype=np.int64)
    for begin in range(0, rows, 1024):
        keys = rng.random((min(1024, rows - begin), NUM_ITEMS))
        out[begin : begin + len(keys)] = np.argpartition(
            keys, TOP_K_CANDIDATES, axis=1
        )[:, :TOP_K_CANDIDATES]
    return out


def make_plan(workload: Workload, seed: int, duration: float) -> Plan:
    """Generate and pre-encode every request the run can send in
    ``duration`` seconds (warm-up included)."""
    from repro.frontend import wire
    from repro.frontend.api import (
        ObserveApiRequest,
        PredictApiRequest,
        TopKApiRequest,
    )

    rng = np.random.default_rng([seed, 1])
    due = None
    if workload.loop == "open":
        # Poisson arrivals: independent users. 6 sigma of slack on the
        # count, then cut at the duration.
        mean = workload.rate * duration
        gaps = rng.exponential(1.0 / workload.rate, int(mean + 6 * mean**0.5))
        due = np.cumsum(gaps)
        due = due[due < duration]
        n = len(due)
    else:
        n = int(workload.pool_rps * duration)

    op = np.full(n, workload.op, dtype=np.int8)
    if workload.observe_share:
        op[rng.random(n) < workload.observe_share] = OP_OBSERVE
    if workload.zipf:
        active = rng.permutation(NUM_USERS)[: workload.active_users]
        uid = active[_zipf_choice(rng, workload.active_users, workload.zipf, n)]
        item = rng.permutation(NUM_ITEMS)[
            _zipf_choice(rng, NUM_ITEMS, workload.zipf, n)
        ]
    else:
        uid = rng.integers(0, NUM_USERS, n)
        item = rng.integers(0, NUM_ITEMS, n)
    candidates = _distinct_candidates(rng, n) if workload.op == OP_TOP_K else None
    label = rng.normal(GLOBAL_MEAN, 1.0, n)

    uids, items, labels = uid.tolist(), item.tolist(), label.tolist()
    requests = []
    for i, kind in enumerate(op.tolist()):
        if kind == OP_PREDICT:
            requests.append(PredictApiRequest(uid=uids[i], item=items[i]))
        elif kind == OP_OBSERVE:
            requests.append(
                ObserveApiRequest(uid=uids[i], item=items[i], label=labels[i])
            )
        else:
            requests.append(
                TopKApiRequest(
                    uid=uids[i], items=tuple(candidates[i].tolist()), k=TOP_K
                )
            )
    started = time.perf_counter()
    frames = [wire.encode_request_frame(r, i) for i, r in enumerate(requests)]
    encode_us = (time.perf_counter() - started) / max(n, 1) * 1e6
    return Plan(op, uid, item, candidates, due, frames, encode_us)


@dataclass
class Verdict:
    """What the answer check found over one window of requests."""

    wrong: int  # answered, but not ok or not the right answer
    checked_scores: int  # answers compared against a numpy recomputation
    decode_us: float  # mean wire.decode_response_payload time per answer
    response_bytes: float  # mean response frame payload size


def verify(
    plan: Plan, deployment: Deployment, payloads: list, first: int, stop: int
) -> Verdict:
    """Decode and check every answered request in ``[first, stop)``.

    Predicts must equal ``w_u . f(item)`` recomputed here, for users the
    run never sends an observe for (an observe moves the user's weights,
    and replicating the online updater would test the checker, not the
    server). Top-k answers must be the true top-10 of their candidates,
    in order. Every answer must be ``ok``.
    """
    from repro.frontend import wire

    features = deployment.features
    weights = deployment.user_weights
    observed = np.zeros(NUM_USERS, dtype=bool)
    observed[plan.uid[plan.op == OP_OBSERVE]] = True

    answered = [i for i in range(first, stop) if payloads[i] is not None]
    started = time.perf_counter()
    responses = [wire.decode_response_payload(payloads[i]) for i in answered]
    decode_us = (time.perf_counter() - started) / max(len(answered), 1) * 1e6

    wrong = 0
    score_index, scores = [], []
    for i, response in zip(answered, responses):
        if not response.ok:
            wrong += 1
            continue
        kind = plan.op[i]
        if kind == OP_PREDICT:
            if response.payload.get("item") != plan.item[i]:
                wrong += 1
            elif not observed[plan.uid[i]]:
                score_index.append(i)
                scores.append(response.payload["score"])
        elif kind == OP_TOP_K:
            wrong += not _top_k_matches(
                response.payload["items"], plan.candidates[i],
                features, weights[plan.uid[i]],
            )
    if score_index:
        index = np.asarray(score_index)
        expected = np.einsum(
            "ij,ij->i", weights[plan.uid[index]], features[plan.item[index]]
        )
        wrong += int(
            (np.abs(np.asarray(scores) - expected) > SCORE_TOLERANCE).sum()
        )
    checked = len(score_index) + int((plan.op[answered] == OP_TOP_K).sum())
    sizes = [len(payloads[i]) for i in answered]
    return Verdict(
        wrong=wrong,
        checked_scores=checked,
        decode_us=decode_us,
        response_bytes=float(np.mean(sizes)) if sizes else 0.0,
    )


def _top_k_matches(items: list, candidates, features, user_weights) -> bool:
    scores = features[candidates] @ user_weights
    best = np.argsort(-scores, kind="stable")[:TOP_K]
    if [entry["item"] for entry in items] != candidates[best].tolist():
        return False
    got = np.asarray([entry["score"] for entry in items])
    return bool((np.abs(got - scores[best]) <= SCORE_TOLERANCE).all())
