"""End-to-end serving benchmark: out-of-process load, four workloads,
a per-layer account.

    bench.py --workload W --seed N --seconds S --trace 0|1
        one run; the last line of stdout is one JSON object (the form
        BENCHMARK.json's ``command`` is run in)
    bench.py run     [--workload W ...] [--runs R] [--seed N] [--out DIR] [--smoke]
        untraced runs of every workload: the end-to-end metrics
    bench.py traced  [--workload W ...] [--seed N] [--out DIR] [--smoke]
        one traced run per workload: the per-layer metrics and the budget
    bench.py compare A B
        two result directories against the bounds in BENCHMARK.json

See README.md beside this file for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench.py: no program to measure: {REPO_ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(REPO_ROOT / "src"))

import loadgen  # noqa: E402
import results  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import OP_OBSERVE  # noqa: E402

#: Server launches per run; setup_s is their median.
SETUP_REPS = 5
#: Traffic before the measured window, discarded, as a share of the window.
WARMUP_SHARE = 0.1
SMOKE_SECONDS = 3
#: An open-loop sub-window whose p99 send lateness reaches this is late.
LATE_MS = 5.0
SCRATCH_ROOT = REPO_ROOT / ".bench_out"


@dataclass
class Phase:
    """One stretch of traffic between two counter snapshots."""

    first: int  # requests [first, stop) were sent in it
    stop: int
    start: float  # monotonic seconds
    seconds: float
    before: dict
    after: dict
    generator_cpu_share: float


def _run_phase(server, generator, plan, workload, ref, first, offset, seconds):
    """Drive one phase; returns it. ``ref`` receives the time each
    request's latency is counted from: its due time in an open loop, its
    send time in a closed one. ``offset`` is where the phase starts in
    the open-loop schedule."""
    before = server.snapshot()
    cpu0, wall0 = time.process_time(), time.monotonic()
    if workload.loop == "open":
        first = int(np.searchsorted(plan.due, offset))
        stop = int(np.searchsorted(plan.due, offset + seconds))
        start = time.monotonic() + 0.01
        ref[first:stop] = start + (plan.due[first:stop] - offset)
        generator.open_loop(first, stop, ref)
    else:
        start = time.monotonic()
        stop = generator.closed_loop(first, seconds, workload.depth)
        ref[first:stop] = generator.sent[first:stop]
    cpu_share = (time.process_time() - cpu0) / (time.monotonic() - wall0)
    return Phase(first, stop, start, seconds, before, server.snapshot(), cpu_share)


def _delta(phase: Phase, *path: str) -> float:
    before, after = phase.before, phase.after
    for key in path:
        before, after = before[key], after[key]
    return after - before


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _window_stats(plan, generator, ref, phase: Phase) -> dict:
    """What the generator saw over one phase, and the server CPU it cost,
    each ``(value, unit, samples)``."""
    index = np.arange(phase.first, phase.stop)
    done = generator.done[index]
    answered = done > 0
    latency_ms = (done - ref[index]) * 1e3
    reads = plan.op[index] != OP_OBSERVE
    sub = phase.seconds / results.SUB_WINDOWS

    def timing(mask, statistic, quantile=results.QUIET_SHARE):
        value, samples, _parts = results.sub_window_quantile(
            latency_ms[mask], ref[index][mask], phase.start, phase.seconds,
            statistic, quantile,
        )
        return value, "ms", samples

    def p95(v):
        return np.percentile(v, 95)

    def p99(v):
        return np.percentile(v, 99)

    read_ok, write_ok = reads & answered, ~reads & answered
    answers = max(int(answered.sum()), 1)
    if plan.due is None:
        # Capacity: the rate of the sub-windows the host disturbed least.
        throughput, counted, _parts = results.sub_window_quantile(
            np.ones(int(answered.sum())), done[answered], phase.start, phase.seconds,
            lambda v: len(v) / sub, 1.0 - results.QUIET_SHARE,
        )
    else:
        # The rate is an input here; a quantile of Poisson counts would
        # read above what was offered.
        throughput, counted = answers / phase.seconds, answers
    # Server CPU charged to each sub-window's answers, from the launcher's
    # (time, process CPU) samples; the last one before the phase anchors it.
    clock, cpu = np.array(
        phase.before["cpu_samples"][-1:] + phase.after["cpu_samples"]
    ).T
    edges = phase.start + sub * np.arange(results.SUB_WINDOWS + 1)
    cpu_us = np.diff(np.interp(edges, clock, cpu)) * 1e6
    answers_in = np.histogram(done[answered], bins=edges)[0]
    cpu_us_per_req = (
        float(np.quantile(cpu_us[answers_in > 0] / answers_in[answers_in > 0],
                          results.QUIET_SHARE))
        if answers_in.any() else 0.0
    )
    stats = {
        "server_cpu_us_per_req": (cpu_us_per_req, "us", int(answers_in.sum())),
        "p50_ms": timing(read_ok, np.median),
        "p95_ms": timing(read_ok, p95),
        "observe_p50_ms": timing(write_ok, np.median),
        "observe_p95_ms": timing(write_ok, p95),
        "throughput_rps": (throughput, "1/s", counted),
        # The whole run's tail, stalls included: the median sub-window.
        "loadgen.p99_windowed_ms": timing(read_ok, p99, 0.5),
        "loadgen.cpu_share": (phase.generator_cpu_share, "share", 1),
    }
    slow = int((latency_ms[read_ok] > workloads.SLO_MS).sum())
    stats["loadgen.slo_miss_share"] = (
        _ratio(slow + int((reads & ~answered).sum()), int(reads.sum())),
        "share", int(reads.sum()),
    )
    if plan.due is not None:
        late_ms = (generator.sent[index] - ref[index]) * 1e3
        value, samples, parts = results.sub_window_quantile(
            late_ms, ref[index], phase.start, phase.seconds, p99, 0.5
        )
        stats["loadgen.late_p99_ms"] = (value, "ms", samples)
        stats["loadgen.late_windows"] = (
            sum(p >= LATE_MS for p in parts), "count", len(parts)
        )
    else:
        stats["loadgen.late_p99_ms"] = (0.0, "ms", 0)
        stats["loadgen.late_windows"] = (0, "count", 0)
    return stats


def _counter_stats(phase: Phase) -> dict:
    """Per-layer numbers from the counters the program exports."""
    after = phase.after
    hits = _delta(phase, "serving", "slo_hits")
    judged = hits + _delta(phase, "serving", "slo_misses")
    frames_in = _delta(phase, "frontend", "frames_in")
    frames_out = _delta(phase, "frontend", "frames_out")
    stats = {
        "serving.queue_wait_mean_us": (after["wait_mean_s"] * 1e6, "us", after["wait_count"]),
        "serving.queue_wait_p99_us": (after["wait_p99_s"] * 1e6, "us", after["wait_count"]),
        "serving.batch_service_mean_us": (
            after["service_mean_s"] * 1e6, "us", after["service_count"]
        ),
        "serving.batch_size_mean": (
            _ratio(_delta(phase, "batch_rows"), _delta(phase, "batch_count")),
            "rows", _delta(phase, "batch_count"),
        ),
        "serving.slo_attainment": (_ratio(hits, judged) if judged else 1.0, "share", judged),
        "frontend.wire.request_bytes": (
            _ratio(_delta(phase, "frontend", "bytes_in"), frames_in), "bytes", frames_in
        ),
        "frontend.wire.response_bytes": (
            _ratio(_delta(phase, "frontend", "bytes_out"), frames_out), "bytes", frames_out
        ),
        "store.user_table_mb": (after["user_table_bytes"] / 2**20, "MB", 1),
        "core.manager.observations_applied": (
            _delta(phase, "observations_applied"), "count", 1
        ),
    }
    for key in ("enqueued", "completed", "shed_total"):
        stats[f"serving.{key}"] = (_delta(phase, "serving", key), "count", 1)
    for key in ("frames_in", "frames_out", "pause_events", "protocol_errors"):
        stats[f"frontend.eventloop.{key}"] = (_delta(phase, "frontend", key), "count", 1)
    for cache in ("prediction", "feature"):
        cache_hits = _delta(phase, "cache", f"{cache}_hits")
        lookups = cache_hits + _delta(phase, "cache", f"{cache}_misses")
        stats[f"core.prediction.{cache}_cache_hit_rate"] = (
            _ratio(cache_hits, lookups), "share", lookups
        )
    return stats


def _span_stats(spans_path, phase: Phase) -> tuple[dict, dict]:
    """Per-layer self times from the spans of one traced phase, and each
    span name's share of all span self time (the printed account)."""
    span_id, code, _thread, start, end, parent, rows = np.load(spans_path).T
    own_us = tracing.self_times(span_id, start, end, parent) * 1e6
    whole_us = (end - start) * 1e6
    inside = (start >= phase.start) & (start < phase.start + phase.seconds)
    stats, totals = {}, {}
    for number, name in enumerate(tracing.SPAN_NAMES):
        mask = inside & (code == number)
        value, samples, _parts = results.sub_window_quantile(
            own_us[mask], start[mask], phase.start, phase.seconds, np.mean
        )
        stats[f"{name}_us"] = (value, "us", samples)
        if name != tracing.DISPATCH_TO_DONE:  # overlaps every other span
            totals[name] = float(own_us[mask].sum())
    batches = inside & (code == tracing.SPAN_NAMES.index(tracing.PREDICT_BATCH))
    batch_rows = int(rows[batches].sum())
    stats["core.prediction.predict_batch_rows"] = (
        _ratio(batch_rows, int(batches.sum())), "rows", int(batches.sum())
    )
    stats["core.prediction.row_us"] = (
        _ratio(float(whole_us[batches].sum()), batch_rows), "us", batch_rows
    )
    stats["trace.spans"] = (int(inside.sum()), "count", 1)
    total = sum(totals.values())
    return stats, {name: _ratio(own, total) for name, own in totals.items()}


#: p50 = loopback + these + residual: what a request waits for, in order.
#: Queue wait runs from the reactor's recv stamp to the start of the
#: batch, so it already contains decode_request and dispatch_async.
BLOCKING_PATH = (
    "socket.loopback_rtt_us",
    "serving.queue_wait_mean_us",
    "serving.batch_service_mean_us",
    "frontend.wire.encode_response_us",
)


def split_cpus() -> int | None:
    """Pin this process (the generator) to one CPU and return another for
    the server's threads; None when there is only one to share.

    Left to the scheduler, the server's reactor and workers land on one
    CPU in some runs and on two in others, and a hand-off that crosses
    CPUs costs a VM several times what one on the same CPU does: server
    CPU per request came out two-peaked (about 515 or 660 us on
    mixed_observe). The GIL lets one of those threads run at a time
    anyway, so one CPU is the deployment that repeats.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.sched_setaffinity(0, {cpus[0]})
    return cpus[-1]


def run_once(workload_name: str, seed: int, seconds: float, trace: bool,
             smoke: bool = False, scratch: pathlib.Path | None = None,
             server_cpu: int | None = None) -> dict:
    """One run of one workload. Returns ``metrics`` (name ->
    {value, unit, samples}: end-to-end plus counter metrics untraced,
    per-layer traced), the ``attempted``/``failed`` counts, ``correct``,
    and ``span_shares`` when traced."""
    workload = workloads.WORKLOADS[workload_name]
    warmup = seconds * WARMUP_SHARE
    deployment = workloads.make_deployment(seed)
    plan = workloads.make_plan(workload, seed, warmup + seconds)
    metrics: dict[str, tuple] = {}
    if trace:
        rtt_us, trips = loadgen.loopback_rtt_us(plan.frames[0])
        metrics["socket.loopback_rtt_us"] = (rtt_us, "us", trips)
    spans_path = (scratch / f"{workload.name}.spans.npy") if trace else None

    # Set-up is measured on every launch; the last server is kept.
    launches = []
    for _ in range(1 if smoke else SETUP_REPS):
        if launches:
            launches[-1].stop()
        launches.append(loadgen.ServerProcess(seed, spans_path, server_cpu))
    server = launches[-1]
    generator = None
    ref = np.zeros(len(plan))
    gc.collect()
    gc.freeze()
    gc.disable()  # no collector pause inside a timed loop
    try:
        generator = loadgen.Generator(server.address, plan.frames, workloads.CONNECTIONS)
        warm = _run_phase(server, generator, plan, workload, ref, 0, 0.0, warmup)
        reference = None
        if trace:
            # Same server, same warm caches: half the window untraced as
            # the base the traced half's overhead is measured against.
            reference = _run_phase(
                server, generator, plan, workload, ref, warm.stop, warmup, seconds / 2
            )
            server.trace()
            window = _run_phase(
                server, generator, plan, workload, ref, reference.stop,
                warmup + seconds / 2, seconds / 2,
            )
        else:
            window = _run_phase(
                server, generator, plan, workload, ref, warm.stop, warmup, seconds
            )
        server.stop()
    except BaseException:
        server.kill()
        raise
    finally:
        gc.enable()
        gc.unfreeze()
        if generator is not None:
            generator.close()

    verdict = workloads.verify(
        plan, deployment, generator.payloads, window.first, window.stop
    )
    index = np.arange(window.first, window.stop)
    answered = generator.done[index] > 0
    acked_observes = int((answered & (plan.op[index] == OP_OBSERVE)).sum())
    attempted = len(index)
    # Lost or wrong answers, then the exactly-once and frame accounting
    # invariants: each unit of disagreement is one failed operation.
    failed = int((~answered).sum()) + verdict.wrong
    failed += abs(_delta(window, "frontend", "frames_out") - int(answered.sum()))
    failed += abs(_delta(window, "observations_applied") - acked_observes)
    failed += abs(_delta(window, "observations_logged") - acked_observes)

    client = _window_stats(plan, generator, ref, window)
    metrics.update(client)
    metrics.update(_counter_stats(window))
    metrics.update({
        "setup_s": (statistics.median(s.setup_s for s in launches), "s", len(launches)),
        "server_rss_mb": (window.after["maxrss_kb"] / 1024, "MB", 1),
        "failed_share": (failed / attempted, "share", attempted),
        "frontend.wire.encode_request_us": (plan.encode_us, "us", len(plan)),
        "frontend.wire.decode_response_us": (verdict.decode_us, "us", int(answered.sum())),
        "loadgen.checked_answers": (verdict.checked_scores, "count", 1),
        "setup.process_start_s": (
            statistics.median(s.process_start_s for s in launches), "s", len(launches)
        ),
    })
    for name in ("import_s", "deploy_s", "add_model_s", "server_start_s", "cpu_s"):
        metrics[f"setup.{name}"] = (
            statistics.median(s.ready[name] for s in launches), "s", len(launches)
        )
    span_shares = None
    if trace:
        span_metrics, span_shares = _span_stats(spans_path, window)
        metrics.update(span_metrics)
        base = _window_stats(plan, generator, ref, reference)
        if workload.loop == "closed":
            kept = _ratio(client["throughput_rps"][0], base["throughput_rps"][0])
        else:
            # A fixed offered rate hides lost capacity; server CPU per
            # request is its reciprocal at saturation.
            kept = _ratio(
                base["server_cpu_us_per_req"][0], client["server_cpu_us_per_req"][0]
            )
        metrics["trace.overhead_share"] = (1.0 - kept, "share", 1)
        explained = sum(metrics[name][0] for name in BLOCKING_PATH)
        metrics["frontend.eventloop.residual_us"] = (
            metrics["p50_ms"][0] * 1e3 - explained, "us", metrics["p50_ms"][2]
        )
    return {
        "workload": workload.parameters(),
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "traced": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": int(samples)}
            for name, (value, unit, samples) in metrics.items()
        },
        "span_shares": span_shares,
    }


# -- output --------------------------------------------------------------------


def _declared(contract: dict, run: dict) -> dict:
    """The metrics BENCHMARK.json declares for this kind of run, as the
    driver reads them. A name missing from the run, or a unit that
    differs, is a bug in this file or in BENCHMARK.json: fail loudly."""
    out = {}
    for spec in contract["per_layer" if run["traced"] else "end_to_end"]:
        got = run["metrics"][spec["name"]]
        if got["unit"] != spec["unit"]:
            raise RuntimeError(
                f"{spec['name']}: measured in {got['unit']}, declared in {spec['unit']}"
            )
        out[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return out


def _print_run(run: dict, contract: dict) -> None:
    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    declared = [
        m["name"] for m in contract["per_layer" if run["traced"] else "end_to_end"]
    ]
    names = declared + sorted(set(run["metrics"]) - set(declared))
    print(
        f"\n== {run['workload']['name']}  seed {run['seed']}  "
        f"{run['seconds']} s {'traced' if run['traced'] else 'untraced'}  "
        f"attempted {run['attempted']}  failed {run['failed']}"
    )
    for name in names:
        metric = run["metrics"][name]
        bound = f"bound {bounds[name]:.2f}" if name in bounds and not run["traced"] else ""
        print(
            f"  {name:<44}{metric['value']:>14.4f} {metric['unit']:<6}"
            f" n={metric['samples']:<8} {bound}"
        )
    if run["span_shares"]:
        print("  share of server-side span self time:")
        for name, share in sorted(run["span_shares"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<42}{share:>8.1%}")
        _print_budget(run["metrics"])


def _print_budget(metrics: dict) -> None:
    """The budget line: p50 as the sum of what was attributed and what
    was not."""
    p50_us = metrics["p50_ms"]["value"] * 1e3
    parts = [(name, metrics[name]["value"]) for name in BLOCKING_PATH]
    parts.append(("frontend.eventloop.residual_us", metrics["frontend.eventloop.residual_us"]["value"]))
    print(f"  budget: p50_ms {p50_us / 1e3:.4f} ms (traced window) =")
    for name, value in parts:
        print(f"    {'+ ' + name:<46}{value:>10.1f} us {value / p50_us:>7.1%}")
    inside = ("frontend.wire.decode_request_us", "frontend.client.dispatch_async_us")
    for name in inside:
        value = metrics[name]["value"]
        print(f"      (inside queue wait: {name} {value:.1f} us {value / p50_us:.1%})")
    attributed = sum(value for _name, value in parts[:-1])
    print(
        f"    attributed {attributed / p50_us:.1%}, "
        f"unattributed {parts[-1][1] / p50_us:.1%}, "
        f"sum {sum(v for _n, v in parts) / 1e3:.4f} ms"
    )


def _scratch() -> pathlib.Path:
    """A fresh directory inside the checkout that git ignores."""
    SCRATCH_ROOT.mkdir(exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix="e2e-", dir=SCRATCH_ROOT))


# -- commands ------------------------------------------------------------------


def _contract_main(argv: list[str]) -> int:
    contract = results.load_contract()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    scratch = _scratch()
    try:
        run = run_once(args.workload, args.seed, args.seconds, bool(args.trace),
                       scratch=scratch, server_cpu=split_cpus())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": _declared(contract, run),
    }))
    return 0


def _runs_main(argv: list[str], trace: bool) -> int:
    contract = results.load_contract()
    parser = argparse.ArgumentParser(prog=f"bench.py {'traced' if trace else 'run'}")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                        help="repeatable; default: all four")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--runs", type=int, default=1, help="runs per workload")
    parser.add_argument("--out", type=pathlib.Path,
                        help="result directory (default: a fresh one under .bench_out/)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s window, one server launch")
    args = parser.parse_args(argv)
    out = args.out if args.out else _scratch()
    out.mkdir(parents=True, exist_ok=True)
    seconds = SMOKE_SECONDS if args.smoke else args.seconds
    host = results.host_facts()
    server_cpu = split_cpus()
    failed = 0
    for name in args.workload or [w["name"] for w in contract["workloads"]]:
        for _ in range(args.runs):
            run = run_once(name, args.seed, seconds, trace, smoke=args.smoke, scratch=out,
                           server_cpu=server_cpu)
            _declared(contract, run)  # every declared metric was measured
            _print_run(run, contract)
            results.write_result(out, results.envelope(run, host))
            failed += run["failed"]
    print(f"\nresults in {out}")
    return 1 if failed else 0


def _compare_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench.py compare")
    parser.add_argument("a", type=pathlib.Path, help="result directory of the base")
    parser.add_argument("b", type=pathlib.Path, help="result directory of the change")
    args = parser.parse_args(argv)
    regressions = results.compare(
        results.load_result_set(args.a), results.load_result_set(args.b)
    )
    print(f"{regressions} regressed")
    return 1 if regressions else 0


def main(argv: list[str]) -> int:
    if argv and argv[0] == "compare":
        return _compare_main(argv[1:])
    if argv and argv[0] in ("run", "traced"):
        return _runs_main(argv[1:], trace=argv[0] == "traced")
    return _contract_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
