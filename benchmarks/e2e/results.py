"""Result files: the envelope every run is written in, the sub-window
quantile every timing is reported as, and ``compare``."""

from __future__ import annotations

import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
SCHEMA_VERSION = 1
SUB_WINDOWS = 40
#: Every timing is reported as the lowest decile over the sub-windows of
#: that sub-window's statistic (a rate as the highest decile): what the
#: program does in the tenth of the run the host disturbed least. What the
#: host adds to a timing is one-sided: a stalled or slowed vCPU only ever
#: lengthens it. Under stalls injected on purpose the median over ten
#: sub-windows spread 331 % from run to run on mixed_observe's p95, this
#: 6.8 %, and its median moved 13 % where the median over forty moved 28 %
#: (README.md has the tables).
QUIET_SHARE = 0.1


def load_contract() -> dict:
    """``BENCHMARK.json``: the metric names, units, directions, bounds."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())


def sub_window_quantile(
    values, times, start: float, seconds: float, statistic,
    quantile: float = QUIET_SHARE,
) -> tuple[float, int, list[float]]:
    """Cut ``[start, start + seconds)`` into SUB_WINDOWS equal parts, take
    ``statistic`` of the ``values`` whose ``times`` fall in each part, and
    return the ``quantile`` of those, with the sample count and the parts.

    A host stall lands in a few sub-windows and moves their statistic
    only; a quantile smaller than the share of sub-windows left alone does
    not see it. Empty sub-windows are left out.
    """
    values = np.asarray(values, dtype=float)
    part = np.floor((np.asarray(times) - start) / (seconds / SUB_WINDOWS))
    parts = [
        float(statistic(values[part == k]))
        for k in range(SUB_WINDOWS)
        if (part == k).any()
    ]
    inside = int(((part >= 0) & (part < SUB_WINDOWS)).sum())
    return (float(np.quantile(parts, quantile)) if parts else 0.0), inside, parts


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def host_facts() -> dict:
    """Where and on what a result was measured. ``git_sha`` is None in a
    checkout that is not a git repository."""
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
    }


def envelope(run: dict, host: dict) -> dict:
    """One run as it is written to disk. ``run`` comes from
    ``bench.run_once``; every metric gets its bound from the contract
    (None for per-layer metrics, which have none)."""
    bounds = {m["name"]: m["bound"] for m in load_contract()["end_to_end"]}
    return {
        "schema_version": SCHEMA_VERSION,
        **host,
        "smoke": run["smoke"],
        "traced": run["traced"],
        "seed": run["seed"],
        "seconds": run["seconds"],
        "workload": run["workload"],
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {**metric, "bound": bounds.get(name)}
            for name, metric in run["metrics"].items()
        },
    }


def write_result(out_dir: pathlib.Path, result: dict) -> pathlib.Path:
    """Write one envelope under a name no earlier run in ``out_dir`` has."""
    kind = "traced" if result["traced"] else "run"
    k = 0
    while True:
        path = out_dir / f"{result['workload']['name']}.{kind}{k}.json"
        if not path.exists():
            path.write_text(json.dumps(result, indent=1) + "\n")
            return path
        k += 1


def load_result_set(directory) -> dict[str, list[dict]]:
    """Untraced results in ``directory`` by workload name."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(pathlib.Path(directory).glob("*.run*.json")):
        result = json.loads(path.read_text())
        if result.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"{path}: unknown schema {result.get('schema_version')}")
        by_workload.setdefault(result["workload"]["name"], []).append(result)
    return by_workload


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / abs(middle) if middle else 0.0


def compare(set_a: dict, set_b: dict, out=sys.stdout) -> int:
    """Print one row per workload x end-to-end metric; return the number
    of regressions (a worse median past the bound, or more failures).

    ``unresolved``: the run-to-run spread is wider than the bound and the
    two sets' runs overlap, so neither "same" nor "worse" can be said.
    """
    contract = load_contract()
    regressions = 0
    header = (
        f"{'workload':<20}{'metric':<24}{'A median':>12}{'B median':>12}"
        f"{'B/A':>8}{'bound':>7}{'spread':>8}  verdict"
    )
    print(header, file=out)
    for spec in contract["workloads"]:
        name = spec["name"]
        runs_a, runs_b = set_a.get(name, []), set_b.get(name, [])
        if not runs_a or not runs_b:
            print(f"{name:<20}missing from {'A' if not runs_a else 'B'}", file=out)
            regressions += 1
            continue
        for metric in contract["end_to_end"]:
            key = metric["name"]
            a = [r["metrics"][key]["value"] for r in runs_a]
            b = [r["metrics"][key]["value"] for r in runs_b]
            mid_a, mid_b = statistics.median(a), statistics.median(b)
            if metric["better"] == "lower":
                worse = (mid_b - mid_a) / mid_a
            else:
                worse = (mid_a - mid_b) / mid_a
            wide = max(spread(a), spread(b))
            overlap = min(a) <= max(b) and min(b) <= max(a)
            if wide > metric["bound"] and overlap:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
                regressions += 1
            else:
                verdict = "ok"
            print(
                f"{name:<20}{key:<24}{mid_a:>12.4f}{mid_b:>12.4f}"
                f"{mid_b / mid_a:>8.3f}{metric['bound']:>7.2f}{wide:>8.3f}"
                f"  {verdict}   (base A = {mid_a:.4f} {metric['unit']},"
                f" {len(a)}+{len(b)} runs)",
                file=out,
            )
        share_a = sum(r["failed"] for r in runs_a) / sum(r["attempted"] for r in runs_a)
        share_b = sum(r["failed"] for r in runs_b) / sum(r["attempted"] for r in runs_b)
        more_failures = share_b > share_a
        regressions += more_failures
        print(
            f"{name:<20}{'failed_share':<24}{share_a:>12.6f}{share_b:>12.6f}"
            f"{'':>23}  {'regressed' if more_failures else 'ok'}",
            file=out,
        )
    return regressions
