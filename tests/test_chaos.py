"""Chaos layer: schedule validation/serde, deterministic draws, the
injector's budgets and windows, the process-wide runtime, and the batch
tier's schedule-driven worker kills."""

from __future__ import annotations

import math
import threading

import pytest

from repro import chaos
from repro.batch.scheduler import FailureInjector
from repro.chaos import (
    ChaosInjector,
    FaultRule,
    FaultSchedule,
    scheduled_worker_kills,
)
from repro.common.clock import SimulatedClock
from repro.common.errors import ConfigError, TransportError
from repro.frontend import ApiResponse, wire


class TestFaultRuleValidation:
    def test_rejects_empty_point(self):
        with pytest.raises(ConfigError, match="point"):
            FaultRule("")

    def test_rejects_probability_out_of_range(self):
        with pytest.raises(ConfigError, match="probability"):
            FaultRule("wire.reset", probability=1.5)
        with pytest.raises(ConfigError, match="probability"):
            FaultRule("wire.reset", probability=-0.1)

    def test_rejects_negative_magnitude_and_jitter(self):
        with pytest.raises(ConfigError, match="magnitude"):
            FaultRule("wire.delay_response", magnitude=-1.0)
        with pytest.raises(ConfigError, match="jitter"):
            FaultRule("wire.delay_response", jitter=-0.5)

    def test_rejects_jitter_exceeding_magnitude(self):
        with pytest.raises(ConfigError, match="jitter"):
            FaultRule("wire.delay_response", magnitude=0.01, jitter=0.02)

    def test_rejects_inverted_window(self):
        with pytest.raises(ConfigError, match="window"):
            FaultRule("wire.reset", start=2.0, stop=1.0)
        with pytest.raises(ConfigError, match="window"):
            FaultRule("wire.reset", start=1.0, stop=1.0)

    def test_rejects_negative_budget(self):
        with pytest.raises(ConfigError, match="max_faults"):
            FaultRule("wire.reset", max_faults=-1)

    def test_schedule_rejects_non_rule(self):
        with pytest.raises(ConfigError, match="FaultRule"):
            FaultSchedule(["wire.reset"])


class TestScheduleSerde:
    def test_round_trip_preserves_everything(self):
        schedule = FaultSchedule(
            [
                FaultRule(
                    "wire.delay_response",
                    probability=0.25,
                    magnitude=0.02,
                    jitter=0.01,
                    max_faults=7,
                    start=1.0,
                    stop=3.0,
                ),
                FaultRule("replication.dead_node", probability=1.0),
            ],
            seed=1234,
        )
        restored = FaultSchedule.from_dict(schedule.to_dict())
        assert restored.seed == schedule.seed
        assert restored.rules == schedule.rules

    def test_infinite_stop_serializes_as_none(self):
        data = FaultRule("wire.reset").to_dict()
        assert data["stop"] is None
        assert FaultRule.from_dict(data).stop == math.inf

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            FaultRule.from_dict({"point": "wire.reset", "severity": 9})
        with pytest.raises(ConfigError, match="unknown"):
            FaultSchedule.from_dict({"seed": 1, "rules": [], "name": "x"})

    def test_round_trip_draws_identically(self):
        schedule = FaultSchedule(
            [FaultRule("wire.drop_response", probability=0.5)], seed=99
        )
        restored = FaultSchedule.from_dict(schedule.to_dict())
        for key in range(50):
            assert schedule.draw(0, key) == restored.draw(0, key)


class TestDeterministicDraws:
    def test_draw_is_pure_in_seed_rule_key(self):
        schedule = FaultSchedule(
            [FaultRule("wire.drop_response", probability=0.5)], seed=7
        )
        assert schedule.draw(0, 3) == schedule.draw(0, 3)
        assert schedule.draw(0, "node-1") == schedule.draw(0, "node-1")

    def test_different_seeds_differ(self):
        rule = FaultRule("wire.drop_response", probability=0.5)
        a = FaultSchedule([rule], seed=1)
        b = FaultSchedule([rule], seed=2)
        draws_a = [a.draw(0, k)[0] for k in range(32)]
        draws_b = [b.draw(0, k)[0] for k in range(32)]
        assert draws_a != draws_b

    def test_different_rule_indices_differ(self):
        schedule = FaultSchedule(
            [
                FaultRule("wire.drop_response", probability=0.5),
                FaultRule("wire.drop_response", probability=0.5),
            ],
            seed=7,
        )
        draws_0 = [schedule.draw(0, k)[0] for k in range(32)]
        draws_1 = [schedule.draw(1, k)[0] for k in range(32)]
        assert draws_0 != draws_1


class TestChaosInjector:
    def test_certain_rule_fires_and_records(self):
        injector = ChaosInjector(
            FaultSchedule([FaultRule("wire.reset", probability=1.0)])
        )
        assert injector.should("wire.reset")
        assert injector.event_count("wire.reset") == 1
        assert injector.events[0].point == "wire.reset"

    def test_impossible_rule_never_fires(self):
        injector = ChaosInjector(
            FaultSchedule([FaultRule("wire.reset", probability=0.0)])
        )
        assert not any(injector.should("wire.reset") for _ in range(100))
        assert injector.event_count() == 0

    def test_unmatched_point_is_silent(self):
        injector = ChaosInjector(
            FaultSchedule([FaultRule("wire.reset", probability=1.0)])
        )
        assert injector.fire("engine.slow_handler") is None

    def test_max_faults_budget_enforced(self):
        injector = ChaosInjector(
            FaultSchedule(
                [FaultRule("wire.drop_response", probability=1.0, max_faults=3)]
            )
        )
        fired = sum(injector.should("wire.drop_response") for _ in range(10))
        assert fired == 3

    def test_latency_magnitude_and_jitter_bounds(self):
        injector = ChaosInjector(
            FaultSchedule(
                [
                    FaultRule(
                        "wire.delay_response",
                        probability=1.0,
                        magnitude=0.02,
                        jitter=0.01,
                    )
                ]
            )
        )
        delays = [injector.latency("wire.delay_response") for _ in range(50)]
        assert all(0.01 <= d <= 0.03 for d in delays)
        assert len(set(delays)) > 1  # jitter actually varies

    def test_time_window_respected(self):
        clock = SimulatedClock()
        injector = ChaosInjector(
            FaultSchedule(
                [FaultRule("wire.reset", probability=1.0, start=1.0, stop=2.0)]
            ),
            clock=clock,
        )
        assert not injector.should("wire.reset")  # before the window
        clock.advance(1.5)
        assert injector.should("wire.reset")  # inside
        clock.advance(1.0)
        assert not injector.should("wire.reset")  # past stop (exclusive)

    def test_start_resets_epoch(self):
        clock = SimulatedClock()
        injector = ChaosInjector(
            FaultSchedule(
                [FaultRule("wire.reset", probability=1.0, stop=1.0)]
            ),
            clock=clock,
        )
        clock.advance(5.0)  # the window is long gone...
        assert not injector.should("wire.reset")
        injector.start()  # ...until the epoch is re-anchored
        assert injector.should("wire.reset")

    def test_first_matching_rule_wins(self):
        injector = ChaosInjector(
            FaultSchedule(
                [
                    FaultRule(
                        "wire.delay_response",
                        probability=1.0,
                        magnitude=0.5,
                        max_faults=1,
                    ),
                    FaultRule(
                        "wire.delay_response", probability=1.0, magnitude=0.1
                    ),
                ]
            )
        )
        first = injector.fire("wire.delay_response")
        second = injector.fire("wire.delay_response")
        assert first.rule_index == 0 and first.magnitude == 0.5
        assert second.rule_index == 1 and second.magnitude == 0.1

    def test_keyed_signature_is_interleaving_independent(self):
        schedule = FaultSchedule(
            [FaultRule("batch.worker_kill", probability=0.4)], seed=11
        )
        forward = ChaosInjector(schedule)
        backward = ChaosInjector(schedule)
        keys = list(range(64))
        for key in keys:
            forward.fire("batch.worker_kill", key=key)
        for key in reversed(keys):
            backward.fire("batch.worker_kill", key=key)
        assert forward.signature() == backward.signature()
        assert len(forward.signature()) > 0

    def test_two_runs_identical_signatures(self):
        schedule = FaultSchedule(
            [
                FaultRule("wire.drop_response", probability=0.1),
                FaultRule(
                    "wire.delay_response",
                    probability=0.2,
                    magnitude=0.005,
                    jitter=0.002,
                ),
            ],
            seed=42,
        )

        def run() -> tuple:
            injector = ChaosInjector(schedule)
            for _ in range(500):
                injector.fire("wire.drop_response")
                injector.fire("wire.delay_response")
            return injector.signature()

        first, second = run(), run()
        assert first == second
        assert len(first) > 0

    def test_threaded_keyed_consultations_deterministic(self):
        schedule = FaultSchedule(
            [FaultRule("replication.dead_node", probability=0.3)], seed=5
        )

        def run() -> tuple:
            injector = ChaosInjector(schedule)

            def worker(base: int) -> None:
                for key in range(base, base + 50):
                    injector.fire("replication.dead_node", key=key)

            threads = [
                threading.Thread(target=worker, args=(b,))
                for b in (0, 50, 100, 150)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            return injector.signature()

        assert run() == run()


class TestRuntime:
    def test_inactive_hooks_are_noops(self):
        chaos.uninstall()
        assert chaos.active() is None
        assert chaos.fire("wire.reset") is None
        assert not chaos.should("wire.reset")
        assert chaos.latency("wire.delay_response") == 0.0

    def test_installed_scopes_the_injector(self):
        injector = ChaosInjector(
            FaultSchedule([FaultRule("wire.reset", probability=1.0)])
        )
        with chaos.installed(injector) as active:
            assert chaos.active() is active is injector
            assert chaos.should("wire.reset")
        assert chaos.active() is None
        assert not chaos.should("wire.reset")

    def test_installed_uninstalls_on_error(self):
        injector = ChaosInjector(FaultSchedule([]))
        with pytest.raises(RuntimeError):
            with chaos.installed(injector):
                raise RuntimeError("boom")
        assert chaos.active() is None


class TestGarble:
    def test_garbled_response_fails_typed_decode(self):
        frame = wire.encode_response_frame(
            ApiResponse(ok=True, payload={"score": 1.5}), corr_id=9
        )
        garbled = chaos.garble(frame)
        assert garbled != frame
        decoder = wire.FrameDecoder()
        decoder.feed(garbled)
        opcode, corr_id, payload = decoder.next_frame()
        with pytest.raises(TransportError, match="tag"):
            wire.decode_response_payload(payload)

    def test_short_frame_truncated(self):
        assert chaos.garble(b"\x00\x01") == b"\x00"


class TestScheduledWorkerKills:
    def test_kill_set_is_deterministic(self):
        schedule = FaultSchedule(
            [FaultRule("batch.worker_kill", probability=0.5)], seed=3
        )
        first = scheduled_worker_kills(schedule, partitions=16)
        second = scheduled_worker_kills(schedule, partitions=16)
        assert first == second
        assert 0 < len(first) < 16  # p=0.5 over 16: neither empty nor full

    def test_budget_honoured_in_partition_order(self):
        schedule = FaultSchedule(
            [FaultRule("batch.worker_kill", probability=1.0, max_faults=2)],
            seed=3,
        )
        assert scheduled_worker_kills(schedule, partitions=8) == {0, 1}

    def test_injector_keeps_should_kill_worker_api(self):
        schedule = FaultSchedule(
            [FaultRule("batch.worker_kill", probability=1.0, max_faults=1)],
            seed=3,
        )
        injector = FailureInjector(
            worker_kills=scheduled_worker_kills(schedule, partitions=4)
        )
        assert injector.worker_kills == {0}
        assert injector.should_kill_worker(0)
        assert not injector.should_kill_worker(1)
        # The driver-side consumption API works on the resolved set.
        assert injector.consume_worker_kill(0)
        assert not injector.consume_worker_kill(0)

    def test_no_rules_means_no_kills(self):
        schedule = FaultSchedule([], seed=3)
        assert scheduled_worker_kills(schedule, partitions=8) == set()
        injector = FailureInjector(
            worker_kills=scheduled_worker_kills(schedule, partitions=8)
        )
        assert injector.worker_kills == set()

    def test_one_failure_injector(self):
        assert not hasattr(chaos, "ScheduledFailureInjector")
