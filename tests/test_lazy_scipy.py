"""scipy loads on a solver's first call, through bindings the benchmark can wrap."""
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

from kickcool import (
    build_generator,
    build_kick_map,
    default_n_max,
    dynamics,
    evolve,
    evolve_stroboscopic,
    steady_state_longtime,
    steady_state_numeric,
    thermal_distribution,
)
from kickcool.cli import PRESETS
from test_bench_bindings import load_worker

SRC = Path(__file__).resolve().parent.parent / "src"


def fig2_at(n_th):
    params = replace(PRESETS["fig2"]()["protocol"], n_th=n_th)
    n_max = default_n_max(n_th)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    return params, kick, build_generator(params, kick, n_max)


def run_evolve():
    params, _, gen = fig2_at(1.7)
    t_end = 3.0 / params.r_a
    evolve(thermal_distribution(params.n_th, gen.n_max), gen, t_end)


def run_strobe():
    params, kick, _ = fig2_at(1.7)
    evolve_stroboscopic(thermal_distribution(params.n_th, kick.n_max), params, kick, 2)


# the smallest run that reaches each counted scipy function; solve_ivp, expm,
# solve_banded and splu stay bound for the benchmark's counters, and the runs
# here must not reach them
UNCALLED = {
    "solve_ivp": "evolve",
    "expm": "strobe",
    "solve_banded": "the long-time route",
    "splu": "the pinned null space",
}
RUNS = {
    "solve_ivp": run_evolve,
    "solve_banded": lambda: steady_state_longtime(fig2_at(1.7)[2]),
    "svd": lambda: steady_state_numeric(fig2_at(1.7)[2]),  # 61 levels: dense SVD
    "splu": lambda: steady_state_numeric(fig2_at(30.0)[2]),  # 856 levels: pinned LU
    "expm": run_strobe,
}


def test_counted_bindings_see_every_call(monkeypatch):
    counted = load_worker(monkeypatch).COUNTED
    assert set(counted) <= set(RUNS), "a counted binding has no run here"
    counts = Counter()
    for name in counted:
        original = getattr(dynamics, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(dynamics, name, counting)
    for name in counted:
        counts.clear()
        RUNS[name]()
        if name in UNCALLED:
            assert counts[name] == 0, f"{UNCALLED[name]} called {name}"
        else:
            assert counts[name] > 0, f"{name} was called around its module binding"


COLD_START = """
import json, sys
import kickcool, kickcool.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out = sys.argv[1]
runs = [
    ["sweep", "--preset", "fig3"],
    ["sweep", "--preset", "fig3", "--with-fidelity"],
    ["device", "--preset", "device-paper"],
]
codes = [cli.main([*argv, "--output", f"{out}/{i}.csv"]) for i, argv in enumerate(runs)]
before = loaded()
codes.append(cli.main(["evolve", "--preset", "fig2", "--output", f"{out}/evolve.csv"]))
evolved = loaded()
codes.append(cli.main(["steady", "--preset", "fig2", "--output", f"{out}/steady.csv"]))
codes.append(cli.main(
    ["steady", "--preset", "fig2", "--n-max", "700", "--output", f"{out}/pinned.csv"]
))
print(json.dumps({"codes": codes, "before": before, "evolved": evolved, "after": loaded()}))
"""


def test_sweep_and_device_never_import_scipy(tmp_path):
    # a fresh interpreter: this one has imported scipy through other tests
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0, 0]
    assert report["before"] == []
    assert "scipy.linalg" in report["evolved"]
    # modules stay loaded, so "after" holds what any of the runs loaded
    assert "scipy.integrate" not in report["after"]
    assert "scipy.sparse" not in report["after"]
