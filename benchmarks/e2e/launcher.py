"""The server under test, in its own process.

Builds the deployment through the public API with every default —
``Velox.deploy`` -> ``add_model`` -> ``velox.serving_engine()`` ->
``EventLoopServer`` — so a later change to a default shows up in the
benchmark as a gain or a loss. The parent drives it over stdin/stdout,
one JSON object per line:

* on start it prints ``{"event": "ready", "port": ..., <set-up timers>}``;
* ``snapshot`` prints the counters the program exports, plus queue-wait
  and batch-service statistics and the process-CPU samples recorded since
  the previous snapshot;
* ``trace`` installs the timing shims (see ``tracing.py``);
* ``stop`` (or end of input) stops the server, writes the spans if any,
  and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import threading
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

_import_started = time.monotonic()
from repro import Velox  # noqa: E402
from repro.core import reporting  # noqa: E402
from repro.core.models import MatrixFactorizationModel  # noqa: E402
from repro.frontend import EventLoopServer  # noqa: E402
from repro.store import ArrayMapping  # noqa: E402

IMPORT_S = time.monotonic() - _import_started

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_kb() -> int:
    """This process's peak resident set. ``ru_maxrss`` will not do: across
    fork and exec Linux carries over the parent's high-water mark, so a
    generator holding a large frame pool would be reported as the server."""
    for line in pathlib.Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


class CpuSampler:
    """Records (monotonic seconds, process CPU seconds) every PERIOD from a
    thread of its own, so that the benchmark can charge server CPU to each
    sub-window of a phase and not only to the whole of it. A wake-up costs
    ~20 us, 0.1 % of one CPU."""

    PERIOD = 0.02

    def __init__(self):
        self._samples: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="cpu-sampler", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.PERIOD):
            self._take()

    def _take(self) -> None:
        with self._lock:
            self._samples.append((time.monotonic(), time.process_time()))

    def drain(self) -> list[tuple[float, float]]:
        """The samples since the last call, closed by one taken now."""
        self._take()
        with self._lock:
            samples, self._samples = self._samples, []
        return samples

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()


def emit(message: dict) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


class Deployed:
    """The running deployment and the counters read off it."""

    def __init__(self, deployment: workloads.Deployment):
        self.timers = {"import_s": IMPORT_S}
        self.started = mark = time.monotonic()
        self.velox = Velox.deploy(auto_retrain=False)
        mark = self._lap("deploy_s", mark)
        model = MatrixFactorizationModel(
            workloads.MODEL_NAME,
            item_factors=deployment.item_factors,
            item_bias=deployment.item_bias,
            global_mean=workloads.GLOBAL_MEAN,
        )
        self.velox.add_model(
            model,
            initial_user_weights=ArrayMapping(
                deployment.user_ids, deployment.user_weights
            ),
        )
        mark = self._lap("add_model_s", mark)
        self.engine = self.velox.serving_engine().start()
        self.server = EventLoopServer(self.velox, engine=self.engine).start()
        self._lap("server_start_s", mark)
        self.timers["cpu_s"] = time.process_time()
        self.table = self.velox.manager.user_state_table(workloads.MODEL_NAME)
        #: Recorder samples already reported, by recorder name.
        self._seen: dict[str, int] = {}
        self.cpu_sampler = CpuSampler()

    def _lap(self, name: str, since: float) -> float:
        now = time.monotonic()
        self.timers[name] = now - since
        return now

    def _new_samples(self, recorder) -> list[float]:
        samples = recorder.samples
        fresh = samples[self._seen.get(recorder.name, 0):]
        self._seen[recorder.name] = len(samples)
        return fresh

    def snapshot(self) -> dict:
        queues = self.engine.metrics_snapshot()
        serving = {
            key: sum(q[key] for q in queues.values())
            for key in ("enqueued", "completed", "shed_total", "slo_hits",
                        "slo_misses")
        }
        batches: dict[int, int] = {}
        for q in queues.values():
            for size, count in q["batch_size_counts"].items():
                batches[size] = batches.get(size, 0) + count
        wait, service = [], []
        for metrics in self.engine.queue_metrics().values():
            wait += self._new_samples(metrics.wait)
            service += self._new_samples(metrics.service)
        status = reporting.snapshot(self.velox)
        return {
            "event": "snapshot",
            "serving": serving,
            "batch_rows": sum(size * n for size, n in batches.items()),
            "batch_count": sum(batches.values()),
            "wait_count": len(wait),
            "wait_mean_s": float(np.mean(wait)) if wait else 0.0,
            "wait_p99_s": float(np.percentile(wait, 99)) if wait else 0.0,
            "service_count": len(service),
            "service_mean_s": float(np.mean(service)) if service else 0.0,
            "cache": self.velox.service.cache_stats(),
            "frontend": self.server.counters.snapshot(),
            "user_table_bytes": self.table.memory_bytes(),
            "observations_applied": status.observations_applied,
            "observations_logged": status.models[0].observations_logged,
            "cpu_s": time.process_time(),
            "cpu_samples": self.cpu_sampler.drain(),
            "maxrss_kb": peak_rss_kb(),
        }

    def stop(self) -> None:
        self.cpu_sampler.stop()
        self.server.stop()
        self.engine.stop()
        self.velox.shutdown()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spans", help="where `trace` spans are written on stop")
    parser.add_argument("--cpu", type=int, help="pin every server thread to this CPU")
    args = parser.parse_args()
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})

    # Inputs exist before any set-up timer starts.
    deployed = Deployed(workloads.make_deployment(args.seed))
    tracer = None
    try:
        emit({
            "event": "ready",
            "port": deployed.server.server_address[1],
            "deploy_started": deployed.started,
            **deployed.timers,
        })
        for line in sys.stdin:
            command = line.strip()
            if command == "snapshot":
                emit(deployed.snapshot())
            elif command == "trace":
                tracer = tracing.Tracer()
                tracer.install(
                    deployed.velox, deployed.server, workloads.MODEL_NAME
                )
                emit({"event": "tracing"})
            elif command == "stop":
                break
    finally:
        deployed.stop()
    if tracer is not None:
        tracer.save(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
