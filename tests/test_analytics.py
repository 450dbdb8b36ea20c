"""The MV-first analytics tier: query model, rollups, planner routing,
integrity replay, engine wiring, and the frontend round trip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analytics import (
    AnalyticsEngine,
    AnalyticsQuery,
    CostBasedPlanner,
    IntegrityChecker,
    ItemRollup,
    MVCatalog,
    ROUTE_SCAN,
    ROUTE_USER_INDEX,
    UserRollup,
    WindowRollup,
    execute_scan,
)
from repro.common.errors import ConfigError, StorageError, ValidationError
from repro.frontend import AnalyticsApiRequest, PipelinedClient, VeloxServer
from repro.frontend.client import VeloxClient
from repro.store import Observation, ObservationLog, VeloxStore


def obs(uid: int, item: int, label: float, ts: float | None = None) -> Observation:
    return Observation(
        uid=uid, item_id=item, label=label,
        timestamp=float(ts) if ts is not None else 0.0,
    )


def fill_log(log: ObservationLog, n: int, users: int = 5, items: int = 8,
             seed: int = 0) -> None:
    """Canonical stamping: timestamp == offset, labels deterministic."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        log.append(
            obs(int(rng.integers(users)), int(rng.integers(items)),
                float(rng.normal()), ts=len(log))
        )


class TestQueryModel:
    def test_rejects_unknown_aggregate(self):
        with pytest.raises(ValidationError):
            AnalyticsQuery(agg="median")

    def test_rejects_unknown_group_dimension(self):
        with pytest.raises(ValidationError):
            AnalyticsQuery(group_by="hour")

    def test_rejects_group_by_filtered_dimension(self):
        with pytest.raises(ValidationError):
            AnalyticsQuery(uid=1, group_by="uid")
        with pytest.raises(ValidationError):
            AnalyticsQuery(item_id=1, group_by="item")

    def test_rejects_inverted_time_range(self):
        with pytest.raises(ValidationError):
            AnalyticsQuery(time_start=10.0, time_end=5.0)

    def test_matches_is_half_open_on_time(self):
        query = AnalyticsQuery(time_start=1.0, time_end=3.0)
        assert not query.matches(obs(0, 0, 0.0, ts=0.9))
        assert query.matches(obs(0, 0, 0.0, ts=1.0))
        assert query.matches(obs(0, 0, 0.0, ts=2.9))
        assert not query.matches(obs(0, 0, 0.0, ts=3.0))

    def test_mean_of_empty_selection_is_none(self):
        log = ObservationLog()
        value, groups, _ = execute_scan(log, AnalyticsQuery(agg="mean"), 10)
        assert value is None and groups == {}


class TestRollups:
    def test_user_rollup_folds_and_advances_watermark(self):
        view = UserRollup()
        view.apply(0, obs(1, 0, 2.0))
        view.apply(1, obs(1, 1, 3.0))
        view.apply(2, obs(2, 0, 5.0))
        state, watermark = view.snapshot()
        assert watermark == 3
        assert state == {1: (2, 5.0), 2: (1, 5.0)}

    def test_exact_key_answer_and_cost(self):
        view = ItemRollup()
        for i in range(6):
            view.apply(i, obs(0, i % 2, 1.0))
        query = AnalyticsQuery(item_id=0, agg="count")
        assert view.covers(query)
        assert view.cost(query) == 1.0
        value, groups = view.answer(query)
        assert value == 3 and groups == {}

    def test_grouped_answer_and_cost(self):
        view = UserRollup()
        for i in range(4):
            view.apply(i, obs(i % 2, 0, float(i)))
        query = AnalyticsQuery(group_by="uid", agg="sum")
        assert view.cost(query) == 2.0
        _, groups = view.answer(query)
        assert groups == {0: 0.0 + 2.0, 1: 1.0 + 3.0}

    def test_keyed_view_does_not_cover_time_filters(self):
        view = UserRollup()
        assert not view.covers(AnalyticsQuery(uid=1, time_start=0.0))
        assert not view.covers(AnalyticsQuery(uid=1, item_id=2))

    def test_uncovered_answer_raises(self):
        with pytest.raises(ValidationError):
            UserRollup().answer(AnalyticsQuery(uid=1, time_start=0.0))

    def test_window_rollup_merges_closed_and_open(self):
        view = WindowRollup(width=3)
        # Canonical stamping: bucket 0 = offsets 0-2 (closes), bucket 1
        # = offset 3 (still open in the operator).
        for i in range(4):
            view.apply(i, obs(0, 0, 1.0, ts=i))
        state, watermark = view.snapshot()
        assert watermark == 4
        assert state == {0: (3, 3.0), 1: (1, 1.0)}

    def test_window_rollup_covers_only_aligned_ranges(self):
        view = WindowRollup(width=10)
        assert view.covers(AnalyticsQuery(time_start=10.0, time_end=30.0))
        assert not view.covers(AnalyticsQuery(time_start=5.0))
        assert not view.covers(AnalyticsQuery(time_end=33.0))
        assert not view.covers(AnalyticsQuery(uid=1))

    def test_window_rollup_range_select(self):
        view = WindowRollup(width=2)
        for i in range(8):
            view.apply(i, obs(0, 0, float(i), ts=i))
        _, groups = view.answer(
            AnalyticsQuery(time_start=2.0, time_end=6.0, group_by="window",
                           agg="count")
        )
        assert groups == {1: 2, 2: 2}

    def test_window_width_validation(self):
        with pytest.raises(ValidationError):
            WindowRollup(width=0)


class TestPlanner:
    def make_catalog(self, n: int = 200) -> MVCatalog:
        log = ObservationLog()
        fill_log(log, n)
        return MVCatalog("test", log, window_width=25)

    def test_uid_filter_routes_to_user_mv(self):
        planner = CostBasedPlanner(self.make_catalog())
        plan = planner.plan(AnalyticsQuery(uid=2, agg="mean"))
        assert plan.route == "mv:user"
        assert plan.estimated_cost == 1.0
        assert plan.materialized
        routes = {route for route, _ in plan.candidates}
        assert ROUTE_USER_INDEX in routes  # scan priced, not chosen

    def test_time_filtered_item_query_falls_back_to_scan(self):
        catalog = self.make_catalog()
        planner = CostBasedPlanner(catalog)
        plan = planner.plan(AnalyticsQuery(item_id=1, time_start=0.0))
        assert plan.route == ROUTE_SCAN
        assert plan.estimated_cost == float(len(catalog.log))

    def test_unaligned_window_query_falls_back_to_scan(self):
        planner = CostBasedPlanner(self.make_catalog())
        plan = planner.plan(
            AnalyticsQuery(time_start=13.0, group_by="window", agg="count")
        )
        assert plan.route == ROUTE_SCAN

    def test_aligned_window_query_routes_to_window_mv(self):
        planner = CostBasedPlanner(self.make_catalog())
        plan = planner.plan(
            AnalyticsQuery(time_start=25.0, time_end=100.0,
                           group_by="window", agg="sum")
        )
        assert plan.route == "mv:window"
        assert plan.estimated_cost == 3.0  # buckets 1, 2, 3

    def test_force_scan_prices_only_scans(self):
        planner = CostBasedPlanner(self.make_catalog())
        plan = planner.plan(AnalyticsQuery(uid=2), force_scan=True)
        assert plan.route == ROUTE_USER_INDEX
        assert all(not route.startswith("mv:") for route, _ in plan.candidates)

    def test_uid_scan_priced_by_user_index(self):
        catalog = self.make_catalog()
        planner = CostBasedPlanner(catalog)
        plan = planner.plan(AnalyticsQuery(uid=3), force_scan=True)
        assert plan.estimated_cost == float(
            catalog.log.user_record_count(3)
        )

    def test_plan_provenance_rides_the_result(self):
        planner = CostBasedPlanner(self.make_catalog())
        result = planner.execute(AnalyticsQuery(uid=1, agg="count"))
        payload = result.payload()
        assert payload["plan"]["route"] == "mv:user"
        assert payload["plan"]["staleness_records"] == 0
        assert len(payload["plan"]["candidates"]) >= 2

    def test_rejects_non_query(self):
        planner = CostBasedPlanner(self.make_catalog(10))
        with pytest.raises(ValidationError):
            planner.plan({"uid": 1})


#: Shapes whose routed answer is bit-identical to the scan: single-key
#: filters and grouped breakdowns touch each key's subtotal, which was
#: folded in the same record order the scan uses.
EXACT_QUERY_SHAPES = [
    AnalyticsQuery(uid=3, agg="count"),
    AnalyticsQuery(uid=1, agg="mean"),
    AnalyticsQuery(item_id=2, agg="sum"),
    AnalyticsQuery(group_by="uid", agg="mean"),
    AnalyticsQuery(group_by="item", agg="count"),
    AnalyticsQuery(group_by="window", agg="sum"),
    AnalyticsQuery(time_start=50.0, time_end=150.0, group_by="window",
                   agg="count"),
]


class TestRoutedAnswersMatchScans:
    def make_planner(self) -> CostBasedPlanner:
        log = ObservationLog()
        fill_log(log, 400, users=6, items=10, seed=7)
        return CostBasedPlanner(MVCatalog("eq", log, window_width=50))

    @pytest.mark.parametrize("query", EXACT_QUERY_SHAPES, ids=repr)
    def test_routed_equals_forced_scan_exactly(self, query):
        planner = self.make_planner()
        routed = planner.execute(query)
        scanned = planner.execute(query, force_scan=True)
        assert routed.value == scanned.value
        assert routed.groups == scanned.groups

    def test_global_scalar_matches_to_float_reassociation(self):
        """An unfiltered scalar sums per-key subtotals on the MV path
        but record-by-record on the scan path; the answers agree up to
        float addition order."""
        planner = self.make_planner()
        query = AnalyticsQuery(agg="sum")
        routed = planner.execute(query)
        scanned = planner.execute(query, force_scan=True)
        assert routed.plan.materialized and not scanned.plan.materialized
        assert routed.value == pytest.approx(scanned.value, rel=1e-9)


class TestIntegrity:
    def test_clean_catalog_passes_exact_check(self):
        log = ObservationLog()
        fill_log(log, 300)
        catalog = MVCatalog("ok", log, window_width=30)
        report = IntegrityChecker(catalog).check()
        assert report.ok
        assert {v.view for v in report.views} == {"user", "item", "window"}
        assert all(v.high_watermark == 300 for v in report.views)
        assert all(v.max_abs_drift == 0.0 for v in report.views)

    def test_injected_sum_drift_is_detected(self):
        log = ObservationLog()
        fill_log(log, 100)
        catalog = MVCatalog("drift", log)
        view = catalog.view("user")
        key = next(iter(view._acc))
        count, total = view._acc[key]
        view._acc[key] = (count, total + 0.5)
        report = IntegrityChecker(catalog).check()
        assert not report.ok
        verdict = {v.view: v for v in report.views}["user"]
        assert verdict.mismatched_keys == 1
        assert verdict.max_abs_drift == pytest.approx(0.5)

    def test_injected_extra_key_is_detected(self):
        log = ObservationLog()
        fill_log(log, 50)
        catalog = MVCatalog("extra", log)
        catalog.view("item")._acc[10_000] = (1, 1.0)
        report = IntegrityChecker(catalog).check()
        verdict = {v.view: v for v in report.views}["item"]
        assert verdict.extra_keys == 1 and not verdict.ok

    def test_injected_missing_key_is_detected(self):
        log = ObservationLog()
        fill_log(log, 50)
        catalog = MVCatalog("missing", log)
        view = catalog.view("user")
        del view._acc[next(iter(view._acc))]
        report = IntegrityChecker(catalog).check()
        verdict = {v.view: v for v in report.views}["user"]
        assert verdict.missing_keys == 1 and not verdict.ok

    def test_tolerance_forgives_bounded_drift(self):
        log = ObservationLog()
        fill_log(log, 40)
        catalog = MVCatalog("tol", log)
        view = catalog.view("user")
        key = next(iter(view._acc))
        count, total = view._acc[key]
        view._acc[key] = (count, total + 1e-12)
        assert not IntegrityChecker(catalog).check().ok
        assert IntegrityChecker(catalog).check(tolerance=1e-9).ok


class TestCatalog:
    def test_backfills_existing_log_on_registration(self):
        log = ObservationLog()
        fill_log(log, 120)
        catalog = MVCatalog("warm", log)
        for view in catalog.views.values():
            assert view.high_watermark == 120
        assert catalog.staleness_records() == 0

    def test_duplicate_view_name_rejected(self):
        catalog = MVCatalog("dup", ObservationLog())
        with pytest.raises(ValidationError):
            catalog.register(UserRollup())

    def test_unknown_view_lookup_raises(self):
        with pytest.raises(ValidationError):
            MVCatalog("x", ObservationLog()).view("nope")

    def test_describe_shape(self):
        log = ObservationLog()
        fill_log(log, 10)
        description = MVCatalog("d", log, window_width=5).describe()
        assert description["window_width"] == 5
        assert description["views"]["user"]["high_watermark"] == 10


class TestEngine:
    def test_attaches_catalogs_to_future_and_existing_logs(self):
        store = VeloxStore()
        store.create_log("before")
        engine = AnalyticsEngine(store, window_width=10)
        store.create_log("after")
        assert engine.catalog_names() == ["after", "before"]
        assert engine.catalog("before").window_width == 10

    def test_query_metering_by_route(self):
        store = VeloxStore()
        log = store.create_log("m")
        engine = AnalyticsEngine(store)
        fill_log(log, 60)
        engine.query("m", AnalyticsQuery(uid=1))          # mv hit
        engine.query("m", AnalyticsQuery(uid=1), force_scan=True)  # indexed
        engine.query("m", AnalyticsQuery(time_start=0.5))  # full scan
        snap = engine.metrics.snapshot()
        assert snap["queries_total"] == 3
        assert snap["mv_hits"] == 1
        assert snap["indexed_scans"] == 1
        assert snap["full_scans"] == 1
        assert snap["maintenance_applies"] == 60 * 3

    def test_unknown_log_raises_storage_error(self):
        engine = AnalyticsEngine(VeloxStore())
        with pytest.raises(StorageError):
            engine.query("ghost", AnalyticsQuery())

    def test_integrity_metering(self):
        store = VeloxStore()
        log = store.create_log("m")
        engine = AnalyticsEngine(store)
        fill_log(log, 30)
        assert engine.integrity("m").ok
        reports = engine.integrity_all()
        assert reports["m"].ok
        snap = engine.metrics.snapshot()
        assert snap["integrity_checks"] == 2
        assert snap["integrity_failures"] == 0


class TestVeloxIntegration:
    def observe_some(self, velox, n: int = 80) -> None:
        rng = np.random.default_rng(11)
        for _ in range(n):
            velox.observe(
                uid=int(rng.integers(10)), x=int(rng.integers(30)),
                y=float(rng.integers(1, 6)),
            )

    def test_routed_query_through_the_facade(self, deployed_velox):
        self.observe_some(deployed_velox)
        result = deployed_velox.analytics_query(AnalyticsQuery(uid=3, agg="count"))
        assert result.plan.route == "mv:user"
        forced = deployed_velox.analytics_query(
            AnalyticsQuery(uid=3, agg="count"), force_scan=True
        )
        assert forced.value == result.value

    def test_observe_timestamps_align_with_window_buckets(self, deployed_velox):
        """The manager stamps timestamp = log offset, so window buckets
        partition the log into exact width-sized runs."""
        self.observe_some(deployed_velox, n=50)
        width = deployed_velox.analytics.window_width
        result = deployed_velox.analytics_query(
            AnalyticsQuery(group_by="window", agg="count")
        )
        log = deployed_velox.manager.observation_log("songs")
        seeded = len(log) - 50  # fixture may seed initial observations
        assert sum(result.groups.values()) == len(log)
        assert all(count <= width for count in result.groups.values())
        assert seeded >= 0

    def test_integrity_through_the_facade(self, deployed_velox):
        self.observe_some(deployed_velox, n=40)
        assert deployed_velox.analytics_integrity().ok

    def test_disabled_analytics_raises_config_error(self):
        from repro import Velox, VeloxConfig

        velox = Velox.deploy(
            VeloxConfig(num_nodes=1, analytics=False), auto_retrain=False
        )
        assert velox.analytics is None
        with pytest.raises(ConfigError):
            velox.analytics_query(AnalyticsQuery())


class TestFrontend:
    def test_client_analytics_and_status_export(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        for i in range(20):
            client.observe(uid=i % 4, item=i % 9, label=float(i % 5))
        response = client.analytics(uid=1, agg="count")
        assert response.ok, response.error
        assert response.payload["plan"]["route"] == "mv:user"
        grouped = client.analytics(group_by="item", agg="mean")
        assert grouped.ok and grouped.payload["group_by"] == "item"
        status = client.status()
        analytics = status.payload["analytics"]
        assert analytics["metrics"]["queries_total"] == 2
        assert analytics["metrics"]["mv_hits"] >= 1
        assert "observations:songs" in analytics["catalogs"]

    def test_invalid_query_becomes_error_envelope(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        response = client.analytics(uid=1, group_by="uid")
        assert not response.ok
        assert "ValidationError" in response.error

    def test_dispatch_async_runs_off_thread(self, deployed_velox):
        import threading

        client = VeloxClient(deployed_velox)
        client.observe(uid=1, item=2, label=3.0)
        future = client.dispatch_async(AnalyticsApiRequest(uid=1, agg="count"))
        response = future.result(timeout=10)
        assert response.ok
        # The side pool exists and is not the caller's thread.
        assert client._side_pool is not None
        name = client._side_pool.submit(
            lambda: threading.current_thread().name
        ).result(5)
        assert name.startswith("velox-side")

    def test_analytics_over_the_socket(self, deployed_velox):
        client = VeloxClient(deployed_velox)
        for i in range(30):
            client.observe(uid=i % 5, item=i % 7, label=1.0)
        with VeloxServer(deployed_velox) as server:
            with PipelinedClient(server.host, server.port) as remote:
                response = remote.analytics(uid=2, agg="count")
                assert response.ok, response.error
                assert response.payload["plan"]["route"] == "mv:user"
                # the convenience method and a plain call agree
                again = remote.call(AnalyticsApiRequest(uid=2, agg="count"))
                assert again.ok
                assert again.payload == response.payload
