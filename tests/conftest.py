"""Shared fixtures: a small SynthLens corpus, an ALS-trained model, and a
deployed Velox instance, all session-scoped where safe for speed."""

from __future__ import annotations

import socket
import threading

import numpy as np
import pytest

from repro import Velox, VeloxConfig
from repro.batch import BatchContext
from repro.core.models import MatrixFactorizationModel
from repro.core.offline import als_train
from repro.core.prediction import PREDICTION_CACHE_MIN_DIMENSION
from repro.data import SynthLensConfig, generate_synthlens, paper_protocol_split


SMALL_CONFIG = SynthLensConfig(
    num_users=60,
    num_items=120,
    rank=5,
    ratings_per_user_mean=25.0,
    min_ratings_per_user=18,
    seed=5,
)


@pytest.fixture(scope="session")
def small_lens():
    return generate_synthlens(SMALL_CONFIG)


@pytest.fixture(scope="session")
def small_split(small_lens):
    return paper_protocol_split(small_lens.ratings)


@pytest.fixture(scope="session")
def trained_als(small_split):
    ctx = BatchContext(default_parallelism=2)
    return als_train(
        ctx,
        [(r.uid, r.item_id, r.rating) for r in small_split.init],
        rank=SMALL_CONFIG.rank,
        num_items=SMALL_CONFIG.num_items,
        num_iterations=5,
    )


def make_mf_model(
    als_result, name: str = "songs", dimension: int | None = None
) -> MatrixFactorizationModel:
    """The trained model; a ``dimension`` wider than the trained one
    pads the factors with zeros, which leaves every score unchanged."""
    factors = als_result.item_factors
    if dimension is not None:
        factors = np.pad(factors, ((0, 0), (0, dimension - 2 - factors.shape[1])))
    return MatrixFactorizationModel(
        name,
        factors,
        als_result.item_bias,
        als_result.global_mean,
    )


def make_initial_weights(model: MatrixFactorizationModel, als_result) -> dict:
    return {
        uid: model.pack_user_weights(
            np.pad(factors, (0, model.rank - len(factors))),
            als_result.user_bias[uid],
        )
        for uid, factors in als_result.user_factors.items()
    }


def _deploy_trained(model: MatrixFactorizationModel, als_result) -> Velox:
    velox = Velox.deploy(VeloxConfig(num_nodes=2), auto_retrain=False)
    velox.add_model(model, initial_user_weights=make_initial_weights(model, als_result))
    return velox


@pytest.fixture
def deployed_velox(trained_als):
    """A fresh 2-node deployment with the trained MF model installed.
    At d = 7 it scores directly: its predictions are never cached."""
    return _deploy_trained(make_mf_model(trained_als), trained_als)


@pytest.fixture
def caching_velox(trained_als):
    """``deployed_velox`` with the model zero-padded to the width from
    which predictions are cached: the same scores, through the cache."""
    model = make_mf_model(trained_als, dimension=PREDICTION_CACHE_MIN_DIMENSION)
    return _deploy_trained(model, trained_als)


@pytest.fixture
def batch_ctx():
    return BatchContext(default_parallelism=3)


@pytest.fixture
def rng():
    return np.random.default_rng(123)


class SilentServer:
    """Accepts connections, echoes each hello, then swallows every frame
    without ever responding — a black hole for in-flight tests."""

    def __init__(self):
        self._listen = socket.create_server(("127.0.0.1", 0))
        self.host, self.port = self._listen.getsockname()
        self._conns: list[socket.socket] = []
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listen.accept()
            except OSError:
                return
            self._conns.append(conn)
            threading.Thread(
                target=self._swallow, args=(conn,), daemon=True
            ).start()

    def _swallow(self, conn: socket.socket) -> None:
        try:
            hello = b""
            while not hello.endswith(b"\n"):
                chunk = conn.recv(1)
                if not chunk:
                    return
                hello += chunk
            conn.sendall(hello)  # echo: negotiation succeeds
            while conn.recv(65536):
                pass
        except OSError:
            pass

    def close(self) -> None:
        for sock in (self._listen, *self._conns):
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "SilentServer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
