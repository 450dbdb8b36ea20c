"""The micro-batch stream processor: sources, operators, sinks, pipeline."""

import pytest

from repro.common.errors import ValidationError
from repro.streaming import (
    CallbackSink,
    CollectSink,
    Filter,
    FlatMap,
    IterableSource,
    Map,
    PipelineMetrics,
    ReplaySource,
    StreamPipeline,
    TumblingWindowAggregate,
    VeloxObserveSink,
)


class TestSources:
    def test_iterable_source_chunks(self):
        source = IterableSource(range(10), batch_size=4)
        assert source.next_batch() == [0, 1, 2, 3]
        assert source.next_batch() == [4, 5, 6, 7]
        assert source.next_batch() == [8, 9]
        assert source.next_batch() is None
        assert source.next_batch() is None  # stays exhausted

    def test_iterable_source_exact_multiple(self):
        source = IterableSource(range(4), batch_size=2)
        assert source.next_batch() == [0, 1]
        assert source.next_batch() == [2, 3]
        assert source.next_batch() is None

    def test_empty_iterable(self):
        assert IterableSource([], batch_size=3).next_batch() is None

    def test_replay_source(self):
        source = ReplaySource([[1, 2], [3]])
        assert source.next_batch() == [1, 2]
        assert source.next_batch() == [3]
        assert source.next_batch() is None

    def test_validation(self):
        with pytest.raises(ValidationError):
            IterableSource([1], batch_size=0)
        with pytest.raises(ValidationError):
            ReplaySource([42])  # not a list of lists


class TestOperators:
    def test_map_filter_flatmap(self):
        batch = [1, 2, 3, 4]
        assert Map(lambda x: x * 10).process(batch) == [10, 20, 30, 40]
        assert Filter(lambda x: x % 2 == 0).process(batch) == [2, 4]
        assert FlatMap(lambda x: [x] * x).process([2, 1]) == [2, 2, 1]

    def test_tumbling_window_emits_on_full(self):
        window = TumblingWindowAggregate(
            key_fn=lambda r: r[0], zero=0.0, add=lambda acc, r: acc + r[1],
            window_size=2,
        )
        out = window.process([("a", 1.0), ("b", 5.0), ("a", 3.0)])
        assert out == [("a", 4.0)]  # a's window closed; b still open
        assert window.flush() == [("b", 5.0)]

    def test_window_state_spans_batches(self):
        window = TumblingWindowAggregate(
            key_fn=lambda r: r[0], zero=0, add=lambda acc, r: acc + 1,
            window_size=3,
        )
        assert window.process([("k", None)]) == []
        assert window.process([("k", None)]) == []
        assert window.process([("k", None)]) == [("k", 3)]

    def test_window_zero_not_shared_between_keys(self):
        window = TumblingWindowAggregate(
            key_fn=lambda r: r[0], zero=[], add=lambda acc, r: acc + [r[1]],
            window_size=2,
        )
        out = window.process([("a", 1), ("b", 2), ("a", 3), ("b", 4)])
        assert dict(out) == {"a": [1, 3], "b": [2, 4]}

    def test_mutable_zero_copied_once_per_opened_window(self):
        """An in-place ``add`` on a list zero: every window (two keys,
        and successive windows of one key) gets its own list, the zero
        itself is never written, and it is copied only when a window
        opens, not once per record."""

        class CountingZero(list):
            copies = 0

            def __deepcopy__(self, memo):
                CountingZero.copies += 1
                return []

        def append(acc, record):
            acc.append(record[1])
            return acc

        zero = CountingZero()
        window = TumblingWindowAggregate(
            key_fn=lambda r: r[0], zero=zero, add=append, window_size=3,
        )
        records = [("a", 1), ("b", 2), ("a", 3), ("a", 4), ("b", 5),
                   ("a", 6), ("a", 7), ("b", 8), ("a", 9), ("b", 10)]
        out = window.process(records[:4]) + window.process(records[4:])
        assert out == [("a", [1, 3, 4]), ("b", [2, 5, 8]), ("a", [6, 7, 9])]
        assert window.flush() == [("b", [10])]
        assert zero == []
        emitted = [agg for _key, agg in out]
        assert len({id(agg) for agg in emitted}) == len(emitted)
        assert CountingZero.copies == 4  # windows opened, not 10 records

    def test_window_validation(self):
        with pytest.raises(ValidationError):
            TumblingWindowAggregate(lambda r: r, 0, lambda a, b: a, 0)

    def test_window_spanning_end_of_stream_flushes_partial(self):
        """A window that never fills must still surface at flush with
        exactly the records it absorbed — the end-of-stream boundary."""
        window = TumblingWindowAggregate(
            key_fn=lambda r: r[0], zero=0.0, add=lambda acc, r: acc + r[1],
            window_size=3,
        )
        assert window.process([("k", 1.0), ("k", 2.0)]) == []
        assert window.flush() == [("k", 3.0)]
        # flush ends the window: state is gone, a second flush is empty.
        assert window.flush() == []
        assert window.open_windows() == {}

    def test_empty_batch_process_is_a_noop(self):
        window = TumblingWindowAggregate(
            key_fn=lambda r: r[0], zero=0, add=lambda acc, r: acc + 1,
            window_size=2,
        )
        assert window.process([]) == []
        window.process([("k", None)])
        # An empty batch between records must not close or corrupt the
        # open window.
        assert window.process([]) == []
        assert window.process([("k", None)]) == [("k", 2)]

    def test_open_windows_exposes_partial_state_without_ending_it(self):
        window = TumblingWindowAggregate(
            key_fn=lambda r: r[0], zero=0.0, add=lambda acc, r: acc + r[1],
            window_size=3,
        )
        window.process([("a", 1.0), ("a", 2.0), ("b", 7.0)])
        snapshot = window.open_windows()
        assert snapshot == {"a": (3.0, 2), "b": (7.0, 1)}
        # Reading open windows is non-destructive: the next record still
        # closes a's window with the full aggregate.
        assert window.process([("a", 4.0)]) == [("a", 7.0)]


class TestPipeline:
    def test_end_to_end_transformation(self):
        sink = CollectSink()
        pipeline = StreamPipeline(
            source=IterableSource(range(20), batch_size=6),
            operators=[Filter(lambda x: x % 2 == 0), Map(lambda x: x * x)],
            sinks=[sink],
        )
        metrics = pipeline.run()
        assert sink.records == [x * x for x in range(0, 20, 2)]
        assert metrics.batches == 4
        assert metrics.records_in == 20
        assert metrics.records_out == 10
        assert sink.closed

    def test_max_batches_pauses_and_resumes(self):
        sink = CollectSink()
        pipeline = StreamPipeline(
            source=IterableSource(range(10), batch_size=2), sinks=[sink]
        )
        pipeline.run(max_batches=2)
        assert len(sink.records) == 4
        assert not sink.closed  # stream not ended yet
        pipeline.run()
        assert len(sink.records) == 10
        assert sink.closed

    def test_flush_routes_through_downstream_operators(self):
        window = TumblingWindowAggregate(
            key_fn=lambda r: r % 3, zero=0, add=lambda acc, r: acc + r,
            window_size=100,  # never fills: everything flushes
        )
        sink = CollectSink()
        pipeline = StreamPipeline(
            source=IterableSource(range(6), batch_size=3),
            operators=[window, Map(lambda kv: kv[1])],
            sinks=[sink],
        )
        metrics = pipeline.run()
        assert sorted(sink.records) == sorted(
            [0 + 3, 1 + 4, 2 + 5]
        )
        assert metrics.flushed_records == 3

    def test_multiple_sinks_fan_out(self):
        seen = []
        sink_a = CollectSink()
        sink_b = CallbackSink(seen.append)
        StreamPipeline(
            source=IterableSource([1, 2, 3], batch_size=2),
            sinks=[sink_a, sink_b],
        ).run()
        assert sink_a.records == [1, 2, 3]
        assert seen == [1, 2, 3]

    def test_requires_a_sink(self):
        with pytest.raises(ValidationError):
            StreamPipeline(source=IterableSource([1]), sinks=[])


class TestVeloxIntegration:
    def test_clickstream_feeds_online_learning(self, deployed_velox):
        """Raw play events roll up per (user, song) session window and
        flow into observe — the Figure 1 loop through the stream layer."""
        events = [
            # (uid, song, seconds_listened); 3 plays per pair -> 1 label
            (1, 5, 200.0), (1, 5, 40.0), (1, 5, 240.0),
            (2, 7, 10.0), (2, 7, 20.0), (2, 7, 15.0),
        ]
        window = TumblingWindowAggregate(
            key_fn=lambda e: (e[0], e[1]),
            zero=(0.0, 0),
            add=lambda acc, e: (acc[0] + e[2], acc[1] + 1),
            window_size=3,
        )
        to_rating = Map(
            lambda kv: (kv[0][0], kv[0][1], min(5.0, kv[1][0] / kv[1][1] / 48.0))
        )
        sink = VeloxObserveSink(deployed_velox)
        StreamPipeline(
            source=IterableSource(events, batch_size=2),
            operators=[window, to_rating],
            sinks=[sink],
        ).run()
        assert sink.observations_written == 2
        log = deployed_velox.manager.observation_log("songs")
        assert len(log) == 2
        labels = {ob.uid: ob.label for ob in log.read_all()}
        assert labels[1] > labels[2]  # heavy listener -> higher rating

    def test_malformed_record_rejected(self, deployed_velox):
        sink = VeloxObserveSink(deployed_velox)
        with pytest.raises(ValidationError):
            sink.write([("not", "a", "triple", "at all")])
