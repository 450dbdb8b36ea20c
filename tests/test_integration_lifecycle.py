"""End-to-end lifecycle integration tests.

These exercise the whole Figure 1 loop — train, serve, observe, detect
staleness, retrain, serve better — across all the subsystems at once.
"""

import numpy as np
import pytest

from repro import Velox, VeloxConfig
from repro.batch import BatchContext
from repro.cluster.router import RandomRouter
from repro.core.models import MatrixFactorizationModel, PersonalizedLinearModel
from repro.core.offline import als_train
from repro.data import SynthLensConfig, generate_synthlens, paper_protocol_split
from repro.metrics import rmse
from tests.conftest import make_initial_weights, make_mf_model


class TestFullLifecycle:
    def test_train_serve_observe_retrain_improves(self, trained_als, small_split):
        from repro.store import Observation

        model = make_mf_model(trained_als)
        velox = Velox.deploy(VeloxConfig(num_nodes=3), auto_retrain=False)
        velox.add_model(
            model,
            make_initial_weights(model, trained_als),
            seed_observations=[
                Observation(r.uid, r.item_id, r.rating, item_data=r.item_id)
                for r in small_split.init
            ],
        )

        holdout = small_split.holdout
        truth = [r.rating for r in holdout]

        def holdout_rmse():
            return rmse(
                truth, [velox.predict(None, r.uid, r.item_id)[1] for r in holdout]
            )

        baseline = holdout_rmse()
        for r in small_split.stream:
            velox.observe(uid=r.uid, x=r.item_id, y=r.rating)
        online = holdout_rmse()
        velox.retrain()
        retrained = holdout_rmse()

        assert online < baseline  # online updates helped
        assert retrained < baseline  # full retrain helped too
        assert velox.model().version == 1

    def test_observation_log_survives_node_failure(self, deployed_velox):
        for i in range(20):
            deployed_velox.observe(uid=i, x=i % 10, y=3.0)
        table = deployed_velox.manager.user_state_table("songs")
        weights_before = table.get(4).weights.copy()
        deployed_velox.cluster.fail_node(0)
        replayed = deployed_velox.cluster.restart_node(0)
        assert replayed > 0
        assert np.allclose(table.get(4).weights, weights_before)
        # serving works again for users on the recovered node
        __, score = deployed_velox.predict(None, 4, 2)
        assert np.isfinite(score)

    def test_two_models_coexist(self, deployed_velox, rng):
        linear = PersonalizedLinearModel("ads", input_dimension=4)
        deployed_velox.add_model(linear)
        x = rng.normal(size=4)
        for __ in range(5):
            deployed_velox.observe(uid=1, x=x, y=2.0, model_name="ads")
        __, ad_score = deployed_velox.predict("ads", 1, x)
        __, song_score = deployed_velox.predict("songs", 1, 3)
        assert np.isfinite(ad_score) and np.isfinite(song_score)
        # separate logs
        assert len(deployed_velox.manager.observation_log("ads")) == 5
        assert len(deployed_velox.manager.observation_log("songs")) == 0

    def test_random_routing_still_correct_just_slower(self, trained_als):
        """Correctness is routing-independent; only locality differs."""
        model = make_mf_model(trained_als)
        weights = make_initial_weights(model, trained_als)

        local = Velox.deploy(VeloxConfig(num_nodes=4), auto_retrain=False)
        local.add_model(model.with_version(0), dict(weights))
        remote = Velox.deploy(
            VeloxConfig(num_nodes=4),
            router_factory=lambda nodes: RandomRouter(nodes, rng=3),
            auto_retrain=False,
        )
        remote.add_model(model.with_version(0), dict(weights))

        for uid in range(0, 40, 2):
            a = local.predict(None, uid, uid % 20)[1]
            b = remote.predict(None, uid, uid % 20)[1]
            assert a == pytest.approx(b)
        assert local.cluster.network.stats.remote_accesses == 0 or (
            local.cluster.network.stats.remote_accesses
            < remote.cluster.network.stats.remote_accesses
        )

    def test_cold_start_user_warms_up(self, deployed_velox, small_lens):
        """A brand-new user starts at the bootstrap average and their
        predictions individualize as observations arrive."""
        uid = 99_999
        target_item = 5
        bootstrap_score = deployed_velox.predict(None, uid, target_item)[1]
        for __ in range(8):
            deployed_velox.observe(uid=uid, x=target_item, y=5.0)
        warmed_score = deployed_velox.predict(None, uid, target_item)[1]
        assert abs(warmed_score - 5.0) < abs(bootstrap_score - 5.0)

    def test_end_to_end_through_tcp_frontend(self, deployed_velox):
        from repro.frontend import (
            ObserveApiRequest,
            PipelinedClient,
            PredictApiRequest,
            VeloxServer,
        )

        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(server.host, server.port) as client:
                before = client.call(PredictApiRequest(uid=3, item=9))
                for __ in range(5):
                    assert client.call(
                        ObserveApiRequest(uid=3, item=9, label=5.0)
                    ).ok
                after = client.call(PredictApiRequest(uid=3, item=9))
        assert after.payload["score"] > before.payload["score"]


class TestScaleSmoke:
    def test_thousand_mixed_requests(self, deployed_velox, rng):
        """A realistic request mix runs clean end to end."""
        from repro.workloads import ZipfItemSampler, generate_request_stream
        from repro.workloads import ObserveRequest, PredictRequest

        sampler = ZipfItemSampler(100, 0.9, rng=rng)
        stream = generate_request_stream(
            1000,
            num_users=60,
            item_sampler=sampler,
            observe_fraction=0.2,
            rng=rng,
        )
        for request in stream:
            if isinstance(request, ObserveRequest):
                deployed_velox.observe(
                    uid=request.uid, x=request.item_id, y=request.label
                )
            else:
                __, score = deployed_velox.predict(None, request.uid, request.item_id)
                assert np.isfinite(score)
        stats = deployed_velox.service.cache_stats()
        assert stats["feature_hits"] > 0
        assert deployed_velox.health().observations > 100
