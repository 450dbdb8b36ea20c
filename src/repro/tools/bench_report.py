"""Aggregate benchmark series files into one markdown report.

``python -m repro.tools.bench_report [results_dir]`` collects the
``benchmarks/results/*.txt`` series written by the benchmark harness and
prints them as one markdown document — the raw appendix behind
EXPERIMENTS.md. Useful after a fresh ``pytest benchmarks/
--benchmark-only`` run to eyeball every series in one place.

Benchmarks that need a machine-readable artifact (CI gates, the
``BENCH_*.json`` summaries at the repo root) emit it through
:func:`write_json_summary`.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.common.errors import ValidationError

#: Render order and human titles; files not listed here are appended
#: alphabetically under their stem.
KNOWN_EXPERIMENTS = [
    ("fig3_update_latency", "Figure 3 — online update latency vs dimension"),
    ("fig4_prediction_latency", "Figure 4 — topK latency vs itemset size"),
    ("sec42_accuracy", "Section 4.2 — online vs offline accuracy"),
    ("ablation_cache_skew", "Ablation — cache hit rate vs Zipf skew"),
    ("ablation_routing", "Ablation — routing locality"),
    ("ablation_load_balance", "Ablation — load balance"),
    ("ablation_bandits", "Ablation — bandits vs the feedback loop"),
    ("ablation_materialization", "Ablation — materialization strategies"),
    ("ablation_updaters", "Ablation — online updater choice"),
    ("ablation_topk_engines", "Ablation — efficient top-K engines"),
    ("ablation_model_selection", "Ablation — dynamic model selection"),
    ("ablation_sampled_retrain", "Ablation — sampled retraining"),
    ("ablation_batch", "Ablation — batch tier: fork executor + vectorized ALS"),
    (
        "ablation_replication",
        "Ablation — replication & failover: promotion latency, stale reads",
    ),
    (
        "ablation_scale",
        "Ablation — columnar slab user-weight store at 10k/100k/1M users",
    ),
    (
        "ablation_frontend",
        "Ablation — front end: event loop vs thread-per-connection, "
        "16 to 2048 clients",
    ),
    (
        "ablation_analytics",
        "Ablation — analytics tier: MV routing vs log scans, integrity, "
        "serving interference",
    ),
]


def write_json_summary(out_path: str | Path, experiment: str, data: dict) -> Path:
    """Write one benchmark's machine-readable summary as JSON.

    ``data`` must be JSON-serializable (convert numpy scalars first).
    Returns the written path. The file round-trips through ``json`` so
    CI jobs and the driver can assert on recorded numbers without
    parsing the human-oriented ``.txt`` series.
    """
    path = Path(out_path)
    payload = {"experiment": experiment, **data}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def build_report(results_dir: str | Path) -> str:
    """Render every series file in ``results_dir`` as markdown."""
    directory = Path(results_dir)
    if not directory.is_dir():
        raise ValidationError(f"no results directory at {directory}")
    files = {path.stem: path for path in sorted(directory.glob("*.txt"))}
    if not files:
        raise ValidationError(
            f"{directory} has no .txt series; run "
            "`pytest benchmarks/ --benchmark-only` first"
        )

    sections: list[str] = ["# Benchmark series report", ""]
    covered = set()
    for stem, title in KNOWN_EXPERIMENTS:
        path = files.get(stem)
        if path is None:
            continue
        covered.add(stem)
        sections.extend([f"## {title}", "", "```"])
        sections.append(path.read_text(encoding="utf-8").rstrip())
        sections.extend(["```", ""])
    for stem in sorted(set(files) - covered):
        sections.extend([f"## {stem}", "", "```"])
        sections.append(files[stem].read_text(encoding="utf-8").rstrip())
        sections.extend(["```", ""])
    missing = [t for s, t in KNOWN_EXPERIMENTS if s not in covered]
    if missing:
        sections.append("## Missing series (benchmarks not yet run)")
        sections.append("")
        for title in missing:
            sections.append(f"- {title}")
        sections.append("")
    return "\n".join(sections)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = argv if argv is not None else sys.argv[1:]
    default = Path(__file__).resolve().parents[3].parent / "benchmarks" / "results"
    directory = Path(args[0]) if args else Path("benchmarks/results")
    if not directory.is_dir() and default.is_dir():
        directory = default
    try:
        print(build_report(directory))
    except ValidationError as err:
        print(f"bench_report: {err}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # e.g. `| head` closed the pipe; not an error
        return 0
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
