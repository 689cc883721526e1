"""Benchmark harness for kickcool: one command runs a workload end to end.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Spawns fresh worker processes (bench/worker.py) with BLAS and OpenMP pinned
to one thread and the package imported from ``src/`` of this checkout.
SETUP_SAMPLES - 1 workers only set up; the last one also measures.  Prints
a report line (environment, percentile used, skipped cells, errors) and, as
the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
TAIL_PCT = 90  # with at least 100 ops, at least ten ops lie beyond p90
RUN_LIMIT_S = 170.0  # every run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
SPANNED = (
    "cli",
    "model.build_kick_map",
    "dynamics.build_generator",
    "dynamics.steady_state_analytic",
    "dynamics.steady_state_numeric",
    "dynamics.steady_state_longtime",
    "dynamics.evolve",
    "dynamics.evolve_stroboscopic",
    "dynamics.damping_propagator",
    "corrections.corrected_steady_state",
    "device.derive_protocol",
)
PER_LAYER = {f"{name}.{kind}": unit for name in SPANNED for kind, unit in (("calls", "count"), ("self_s", "s"))}
PER_LAYER.update({
    "cli.bytes_written": "bytes",
    "model.levels_tabulated": "count",
    "model.tabulation_reuse": "ratio",
    "dynamics.generator_bytes": "bytes",
    "dynamics.null_space.svd_calls": "count",
    "dynamics.null_space.lu_calls": "count",
    "dynamics.longtime.iterations": "count",
    "dynamics.evolve.nfev": "count",
    "dynamics.evolve.nlu": "count",
    "dynamics.evolve.implicit_share": "ratio",
    "dynamics.damping_propagator.expm_calls": "count",
    "trace.overhead_s": "s",
})


def nearest_rank(values: list[float], pct: float) -> float:
    """The pct-th percentile by nearest rank: at least pct % of values are <= it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100.0 * len(ordered)) - 1)]


def spawn(args: argparse.Namespace, work: Path, setup_only: bool, deadline: float) -> tuple[float, dict]:
    """Run one worker, killed at ``deadline``; returns its set-up time and its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update({name: "1" for name in THREAD_VARS})
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL, check=True, timeout=deadline - spawned)
    result = json.loads((work / ("setup.json" if setup_only else "result.json")).read_text())
    return result["ready"] - spawned, result


def main() -> int:
    parser = argparse.ArgumentParser(description="kickcool benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "kickcool" / "__init__.py").is_file():
        print(f"bench: no kickcool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups = [spawn(args, work, True, deadline)[0] for _ in range(SETUP_SAMPLES - 1)]
        setup, result = spawn(args, work, False, deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"bench: worker failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)

    op_ms = result["op_ms"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": len(op_ms),
        "batches": len(result["batch_walls"]) + len(result["traced_walls"]),
        "batch_cells": result["batch_cells"],
        "tail_percentile": TAIL_PCT,
        "ops_beyond_tail": sum(v > nearest_rank(op_ms, TAIL_PCT) for v in op_ms),
        "setup_samples_s": setups,
        "environment": result["environment"],
        "skipped": inputs.SKIPPED,
        "errors": result["errors"],
    }
    if args.trace:
        metrics = dict(result["layers"])
        metrics["trace.overhead_s"] = statistics.median(result["traced_walls"]) - statistics.median(result["batch_walls"])
        report["bad_nesting"] = result["bad_nesting"]
        report["spans_file"] = str((work / "spans.json").relative_to(ROOT))
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.fmean(result["batch_walls"]),
            "op_p50_ms": nearest_rank(op_ms, 50),
            "op_tail_ms": nearest_rank(op_ms, TAIL_PCT),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    correct = result["failed"] == 0 and report.get("bad_nesting", 0) == 0
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
