"""One benchmark worker: set up a workload, time its batches, check outputs.

Started by run.py in a fresh interpreter with single-threaded BLAS and
OpenMP.  Set-up is interpreter start, ``import kickcool.cli``, input
generation and one untimed warm-up call into each layer the workload uses;
the worker stamps ``time.monotonic()`` when it is ready.  With
``--setup-only`` it stops there.  Otherwise it runs seeded batches of ops
until ``--seconds`` have passed and at least MIN_OPS ops ran (or
LOOP_LIMIT_S passed), then checks the output of every op it ran, outside
the timed loop, and writes its result as JSON to ``<work>/result.json``.

With ``--trace 1`` every second batch runs with spans recorded around the
calls into each package module, by wrapping the functions as bound in the
importing module; the untraced batches between them give the overhead.
"""
from __future__ import annotations

import argparse
import csv
import importlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import kickcool.cli as cli
import numpy as np
import scipy
from kickcool import dynamics, model

import inputs

MIN_OPS = 100  # p90 then has at least ten ops beyond it
LOOP_LIMIT_S = 120.0  # stop here even short of MIN_OPS, so a run ends within 180 s
ROUTE_TOL = 1e-8  # acceptance criterion 2
SAWTOOTH_RTOL = 0.05  # acceptance criterion 5
SWEEP_RECHECKS = 3  # ideal rows re-solved per [protocol] sweep config
SWEEP_ROWS = 366

# (module, attribute, span name): each call through that binding is a span
SPANS = (
    ("kickcool.cli", "main", "cli"),
    ("kickcool.cli", "build_kick_map", "model.build_kick_map"),
    ("kickcool.corrections", "build_kick_map", "model.build_kick_map"),
    ("kickcool.model", "build_kick_map", "model.build_kick_map"),
    ("kickcool.cli", "build_generator", "dynamics.build_generator"),
    ("kickcool.dynamics", "build_generator", "dynamics.build_generator"),
    ("kickcool.cli", "steady_state_analytic", "dynamics.steady_state_analytic"),
    ("kickcool.dynamics", "steady_state_analytic", "dynamics.steady_state_analytic"),
    ("kickcool.dynamics", "steady_state_numeric", "dynamics.steady_state_numeric"),
    ("kickcool.dynamics", "steady_state_longtime", "dynamics.steady_state_longtime"),
    ("kickcool.cli", "corrected_steady_state", "corrections.corrected_steady_state"),
    ("kickcool.cli", "derive_protocol", "device.derive_protocol"),
    ("kickcool.cli", "evolve", "dynamics.evolve"),
    ("kickcool.cli", "evolve_stroboscopic", "dynamics.evolve_stroboscopic"),
    ("kickcool.dynamics", "damping_propagator", "dynamics.damping_propagator"),
)
# library calls inside kickcool.dynamics that are counted, not spanned
COUNTED = ("solve_ivp", "solve_banded", "svd", "splu", "expm")
IMPLICIT_METHODS = {"BDF", "Radau", "LSODA"}
SPAN_NAMES = sorted({name for _, _, name in SPANS})


class Tracer:
    """In-memory spans (name, start, end, parent, op) and work counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.levels_needed: dict[tuple[int, float], int] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        def wrapped(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            record = [name, time.perf_counter(), 0.0, parent, self.op]
            self.spans.append(record)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                record[2] = time.perf_counter()
            self._count(name, result)
            return result

        return wrapped

    def _count(self, name: str, result) -> None:
        if name == "model.build_kick_map":
            levels = result.ce2.size
            self.counts["model.levels_tabulated"] += levels
            key = (self.op, result.theta)
            self.levels_needed[key] = max(self.levels_needed.get(key, 0), levels)
        elif name == "dynamics.build_generator":
            size = result.n_max + 1
            self.counts["generator_bytes"] = max(self.counts["generator_bytes"], 8 * size * size)

    def _counter(self, name: str, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += 1
            if name == "solve_ivp":
                self.counts["nfev"] += int(result.nfev)
                self.counts["nlu"] += int(result.nlu)
                self.counts["implicit"] += kwargs.get("method") in IMPLICIT_METHODS
            return result

        return wrapped

    def install(self) -> None:
        targets = [(mod, attr, self._span(name, getattr(importlib.import_module(mod), attr)))
                   for mod, attr, name in SPANS]
        targets += [("kickcool.dynamics", attr, self._counter(attr, getattr(dynamics, attr)))
                    for attr in COUNTED]
        for mod, attr, wrapper in targets:
            module = importlib.import_module(mod)
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def batch_metrics(self, first_span: int) -> tuple[dict, int]:
        """Per-layer metrics of the spans recorded since ``first_span``.

        Also returns how many spans end outside their parent.  A span's self
        time is its duration minus the durations of its direct children.
        """
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        bad_nesting = 0
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                outer = self.spans[parent]
                child[parent - first_span] += end - start
                bad_nesting += not (outer[1] <= start and end <= outer[2])
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for (name, start, end, _, _), inner in zip(spans, child):
            self_s[name] += end - start - inner
            calls[name] += 1
        c = self.counts
        tabulated = c["model.levels_tabulated"]
        metrics = {f"{name}.self_s": self_s[name] for name in SPAN_NAMES}
        metrics.update({f"{name}.calls": float(calls[name]) for name in SPAN_NAMES})
        metrics.update({
            "model.levels_tabulated": float(tabulated),
            "model.tabulation_reuse": sum(self.levels_needed.values()) / tabulated if tabulated else 0.0,
            "dynamics.generator_bytes": float(c["generator_bytes"]),
            "dynamics.null_space.svd_calls": float(c["svd"]),
            "dynamics.null_space.lu_calls": float(c["splu"]),
            "dynamics.longtime.iterations": float(c["solve_banded"]),
            "dynamics.evolve.nfev": float(c["nfev"]),
            "dynamics.evolve.nlu": float(c["nlu"]),
            "dynamics.evolve.implicit_share": c["implicit"] / c["solve_ivp"] if c["solve_ivp"] else 0.0,
            "dynamics.damping_propagator.expm_calls": float(c["expm"]),
        })
        self.counts = Counter()
        self.levels_needed = {}
        return metrics, bad_nesting


# --- workloads ---------------------------------------------------------------


def _read_csv(path: Path) -> tuple[list[str], list[list[float]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    for row in rows:
        if len(row) != len(header) or not all(math.isfinite(v) for v in row):
            raise ValueError(f"{path.name}: malformed or non-finite row {row}")
    return header, rows


class Workload:
    """Seeded batches of ops, generated on first use; ``check`` covers every op run."""

    warm_up_cells: tuple[str, ...] = ()

    def __init__(self, name: str, seed: int, files: Path) -> None:
        self.name = name
        self.seed = seed
        self.files = files
        self.batches: dict[int, list[dict]] = {}

    def batch(self, index: int) -> list[dict]:
        if index not in self.batches:
            ops = inputs.make(self.name, self.seed, index)
            for op in ops:
                op["batch"] = index
                op["tag"] = f"b{index}-op{op['id']}"
                self.prepare(op)
            self.batches[index] = ops
        return self.batches[index]

    def prepare(self, op: dict) -> None:
        pass

    def output_bytes(self, ops: list[dict]) -> int:
        return 0

    def check(self) -> list[str]:
        """One message per op whose output fails its check; failed runs are already counted."""
        failures = []
        for ops in self.batches.values():
            for op in ops:
                if not op.get("ok"):
                    continue
                try:
                    problem = self.check_op(op)
                except (OSError, ValueError, StopIteration) as exc:
                    problem = f"unreadable output: {exc}"
                if problem:
                    failures.append(f"{op['tag']} ({op['cell']}): {problem}")
        return failures


class CliWorkload(Workload):
    """Ops that are one ``kickcool.cli.main`` call on a generated INI file."""

    def prepare(self, op: dict) -> None:
        op["config"] = self.files / f"{op['tag']}.ini"
        op["config"].write_text(op["ini"], encoding="utf-8")
        op["output"] = self.files / f"{op['tag']}.csv"
        op["argv"] = [op["mode"], "--config", str(op["config"]), "--output", str(op["output"])]
        if op["mode"] == "evolve":
            op["argv"] += ["--t-end-ra", str(inputs.EVOLVE_PERIODS), "--samples", str(inputs.EVOLVE_SAMPLES)]
        elif op["mode"] == "strobe":
            op["argv"] += ["--kicks", str(inputs.STROBE_KICKS)]

    def run(self, op: dict) -> None:
        code = cli.main(op["argv"])
        if code:
            raise RuntimeError(f"kickcool {op['mode']} exited with code {code}")

    def output_bytes(self, ops: list[dict]) -> int:
        return sum(op["output"].stat().st_size for op in ops)


class SweepWorkload(CliWorkload):
    warm_up_cells = ("protocol", "device")

    def check_op(self, op: dict) -> str | None:
        header, rows = _read_csv(op["output"])
        if header != ["n_th", "ra_over_kappa", "p", "mean_n_s", "delta_n", "p0_s"] or len(rows) != SWEEP_ROWS:
            return f"header {header} with {len(rows)} rows"
        if op["cell"] != "protocol":
            return None
        params = cli.load_config_file(str(op["config"]))["protocol"]
        ideal = [row for row in rows if row[2] == 0.0 and model.default_n_max(row[0]) <= 315]
        rng = np.random.default_rng([self.seed, op["batch"], op["id"]])
        for index in rng.choice(len(ideal), SWEEP_RECHECKS, replace=False):
            n_th, ra, _, mean_n, delta_n, p0 = ideal[index]
            point = replace(params, n_th=n_th, r_a=ra * params.kappa, p_e=0.0)
            n_max = model.default_n_max(n_th)
            gen = dynamics.build_generator(point, model.build_kick_map(point.g, point.tau, 0.0, n_max), n_max)
            for route in (dynamics.steady_state_numeric(gen), dynamics.steady_state_longtime(gen)):
                worst = max(abs(a - b) / max(1.0, abs(a)) for a, b in
                            ((mean_n, route.mean_n_s), (delta_n, route.delta_n), (p0, route.p0_s)))
                if worst > ROUTE_TOL:
                    return f"n_th={n_th} ra={ra}: {route.method} off by {worst:.2e}"
        return None


class TransientWorkload(CliWorkload):
    warm_up_cells = ("evolve-60", "strobe-60")

    def check_op(self, op: dict) -> str | None:
        header, rows = _read_csv(op["output"])
        expected = inputs.EVOLVE_SAMPLES if op["mode"] == "evolve" else 2 * inputs.STROBE_KICKS + 1
        times = [row[0] for row in rows]
        if header != ["t_ra", "mean_n", "p0"] or len(rows) != expected:
            return f"header {header} with {len(rows)} rows"
        if any(b <= a for a, b in zip(times, times[1:])):
            return "times do not increase"
        if not all(0.0 <= row[2] <= 1.0 for row in rows):
            return "p0 outside [0, 1]"
        if op["mode"] == "strobe":
            params = cli.load_config_file(str(op["config"]))["protocol"]
            n_max = model.default_n_max(params.n_th)
            kick = model.build_kick_map(params.g, params.tau, params.p_e, n_max)
            delta_n = dynamics.steady_state_analytic(params, kick, n_max).delta_n
            mean_n = [row[1] for row in rows]
            late = [pre - post for pre, post in zip(mean_n[1::2], mean_n[2::2])][-50:]
            sawtooth = sum(late) / len(late)
            if abs(sawtooth / delta_n - 1.0) > SAWTOOTH_RTOL:
                return f"sawtooth {sawtooth:.4e} vs delta_n {delta_n:.4e}"
        return None


class LadderWorkload(Workload):
    """Ops that solve one parameter draw by all three steady-state routes."""

    warm_up_cells = ("n60",)

    def run(self, op: dict) -> None:
        params = model.ProtocolParams(
            g=inputs.G, tau=op["theta"] / inputs.G, r_a=op["ra_over_kappa"] * inputs.KAPPA,
            kappa=inputs.KAPPA, n_th=op["n_th"], p_e=op["p_e"],
        )
        n_max = model.default_n_max(params.n_th)
        kick = model.build_kick_map(params.g, params.tau, params.p_e, n_max)
        gen = dynamics.build_generator(params, kick, n_max)
        op["results"] = (
            dynamics.steady_state_analytic(params, kick, n_max),
            dynamics.steady_state_numeric(gen),
            dynamics.steady_state_longtime(gen),
        )

    def check_op(self, op: dict) -> str | None:
        pops = [r.populations.populations for r in op["results"]]
        worst = max(np.abs(a - b).max() for i, a in enumerate(pops) for b in pops[i + 1:])
        return f"routes differ by {worst:.2e}" if worst > ROUTE_TOL else None


WORKLOAD_CLASSES = {"sweep": SweepWorkload, "ladder": LadderWorkload, "transient": TransientWorkload}


# --- measurement ---------------------------------------------------------------


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in threads},
        "machine": platform.machine(),
    }


def measure(workload: Workload, seconds: float, tracer: Tracer | None) -> dict:
    """Run batches until time is up; a batch's wall time is the sum of its op times.

    Untraced, every batch holds fresh seeded draws.  With a tracer, batch 0
    runs over and over, every second time traced, so traced and untraced
    batches do the same work and the per-layer counts repeat exactly.
    """
    walls: dict[bool, list[float]] = {False: [], True: []}
    op_ms: list[float] = []
    failed = 0
    errors: list[str] = []
    layer_batches: list[dict] = []
    bad_nesting = 0
    op_counter = 0
    deadline = time.perf_counter() + seconds
    hard_stop = time.perf_counter() + LOOP_LIMIT_S
    for index in itertools.count():
        ops = workload.batch(0 if tracer else index)
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        first_span = len(tracer.spans) if traced else 0
        if traced:
            tracer.install()
        wall = 0.0
        for op in ops:
            if traced:
                tracer.op = op_counter
            op_counter += 1
            t0 = time.perf_counter()
            ok = True
            try:
                workload.run(op)
            except Exception as exc:  # a failed op is counted, the run goes on
                ok = False
                errors.append(f"{op['tag']} ({op['cell']}): {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - t0
            op["ok"] = ok
            op_ms.append(elapsed * 1e3)
            wall += elapsed
            failed += not ok
        walls[traced].append(wall)
        if traced:
            tracer.uninstall()
            metrics, bad = tracer.batch_metrics(first_span)
            metrics["cli.bytes_written"] = float(workload.output_bytes(ops))
            layer_batches.append(metrics)
            bad_nesting += bad
        done = time.perf_counter() >= deadline and len(op_ms) >= MIN_OPS
        if (done or time.perf_counter() >= hard_stop) and (tracer is None or walls[True]):
            break
    result = {
        "attempted": len(op_ms),
        "failed": failed,
        "errors": errors[:20],
        "op_ms": op_ms,
        "batch_cells": [op["cell"] for op in workload.batch(0)],
        "batch_walls": walls[False],
        "traced_walls": walls[True],
    }
    if tracer is not None:
        result["layers"] = {k: statistics.median(b[k] for b in layer_batches) for k in layer_batches[0]}
        result["bad_nesting"] = bad_nesting
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    warnings.simplefilter("ignore")

    op_files = args.work / "ops"  # INI inputs and outputs, removed once checked
    op_files.mkdir(exist_ok=True)
    workload = WORKLOAD_CLASSES[args.workload](args.workload, args.seed, op_files)
    first = workload.batch(0)
    for cell in workload.warm_up_cells:
        workload.run(next(op for op in first if op["cell"] == cell))
    ready = time.monotonic()
    result: dict = {"ready": ready}
    if not args.setup_only:
        tracer = Tracer() if args.trace else None
        result.update(measure(workload, args.seconds, tracer))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures = workload.check()
        shutil.rmtree(op_files)
        result["failed"] += len(failures)
        result["errors"] += failures[:20]
        result["environment"] = _environment()
        if tracer is not None:
            with open(args.work / "spans.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}, fh)
    (args.work / ("setup.json" if args.setup_only else "result.json")).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
