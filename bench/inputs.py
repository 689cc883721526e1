"""Seeded inputs of the three benchmark workloads.

Generation is pure: it imports nothing from kickcool, so the same seed gives
identical INI texts and parameter values wherever it runs.  A workload is a
stream of batches; ``make`` returns the op list of one batch, and each batch
has the same composition with fresh draws.
"""
from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("sweep", "ladder", "transient")
HOLDOUT_SEED = 7919  # kept out of development runs; confirms later claims

G = 2.0 * math.pi * 1e7  # coupling, rad/s
KAPPA = math.pi * 1e3  # resonator decay, 1/s
MHZ = 1e6

# fig3-shaped grid: 61 occupations x 2 leverages x 3 reset errors = 366 points
SWEEP_SECTION = """[sweep]
n_th_min = 0.01
n_th_max = 1000
n_th_count = 61
ra_over_kappa = 100, 1000
p_excited = 0, 1e-4, 1e-5
with_fidelity = {with_fidelity}
"""
SWEEP_KINDS = ("protocol", "device", "protocol", "device", "protocol", "device", "protocol")

# n_th of each ladder rung; default_n_max gives n_max 60, 315 and 4118
LADDER_RUNGS = {"n60": 1.7, "n315": 10.0, "n4118": 100.0}
LADDER_DRAWS_PER_RUNG = 2

# transient cells: (name, mode, n_th, ra_over_kappa range, count per batch).
# The counts put the median inside the ~0.1 s cells (evolve-60, strobe-315)
# and p90 inside the evolve-315 cell; see README.md.
TRANSIENT_CELLS = (
    ("strobe-60", "strobe", 1.7, (150.0, 300.0), 5),
    ("evolve-60", "evolve", 1.7, (100.0, 300.0), 6),
    ("strobe-315", "strobe", 10.0, (150.0, 300.0), 6),
    ("evolve-315-stiff", "evolve", 10.0, (10.0, 25.0), 1),
    ("evolve-855", "evolve", 30.0, (100.0, 300.0), 1),
    ("evolve-315", "evolve", 10.0, (140.0, 240.0), 4),
    ("strobe-855", "strobe", 30.0, (150.0, 300.0), 1),
)
EVOLVE_PERIODS = 120
EVOLVE_SAMPLES = 481
STROBE_KICKS = 400

# Cells left out today, with the reason.  8*(n_max+1)**2 bytes per dense copy.
SKIPPED = (
    {"cell": "ladder n_max 12218 (n_th 300)", "reason": "dense generator needs 1.2 GB per copy"},
    {"cell": "ladder n_max 40568 (n_th 1000)", "reason": "dense generator needs 13.2 GB per copy"},
    {"cell": "transient strobe n_max 4118 (n_th 100)",
     "reason": "43.6 s and 1.29 GB per op in the dense expm"},
)


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def _protocol_ini(theta: float, ra_over_kappa: float, n_th: float) -> str:
    return (
        "[protocol]\n"
        f"g_mhz = {G / MHZ!r}\n"
        f"pulse_area_rad = {theta!r}\n"
        f"ra_mhz = {ra_over_kappa * KAPPA / MHZ!r}\n"
        f"kappa_mhz = {KAPPA / MHZ!r}\n"
        f"n_th = {n_th!r}\n"
        "p_e = 0.0\n"
    )


def _device_ini(theta: float, rng: np.random.Generator) -> str:
    return (
        "[device]\n"
        "e_j_uev = 82.7\n"
        "c_x_af = 20\n"
        "c_g_af = 20\n"
        "c_j_af = 210\n"
        "v_x_v = 0.25\n"
        f"r_ohm = {rng.uniform(25.0, 100.0)!r}\n"
        f"temperature_mk = {rng.uniform(5.0, 20.0)!r}\n"
        f"omega0_mhz = {2.0 * math.pi * 1e8 / MHZ!r}\n"
        f"q_factor = {rng.uniform(1e5, 4e5)!r}\n"
        f"g_mhz = {G / MHZ!r}\n"
        f"tau_ns = {theta / G * 1e9!r}\n"
        "ra_mhz = 3.0\n"
    )


def sweep_ops(rng: np.random.Generator) -> list[dict]:
    ops = []
    for kind in SWEEP_KINDS:
        theta = float(rng.uniform(0.3, 1.6))
        if kind == "protocol":
            ini = _protocol_ini(theta, 100.0, 1.0) + "\n" + SWEEP_SECTION.format(with_fidelity="false")
        else:
            ini = _device_ini(theta, rng) + "\n" + SWEEP_SECTION.format(with_fidelity="true")
        ops.append({"cell": kind, "mode": "sweep", "theta": theta, "ini": ini})
    return ops


def ladder_ops(rng: np.random.Generator) -> list[dict]:
    ops = []
    for _ in range(LADDER_DRAWS_PER_RUNG):
        for cell, n_th in LADDER_RUNGS.items():
            ops.append({
                "cell": cell,
                "n_th": n_th,
                "ra_over_kappa": _log_uniform(rng, 1.0, 1000.0),
                "theta": float(rng.uniform(0.2, 1.6)),
                "p_e": float(rng.uniform(0.0, 1e-3)),
            })
    return ops


def transient_ops(rng: np.random.Generator) -> list[dict]:
    ops = []
    for cell, mode, n_th, (lo, hi), count in TRANSIENT_CELLS:
        for _ in range(count):
            ra_over_kappa = _log_uniform(rng, lo, hi)
            theta = float(rng.uniform(0.3, 1.6))
            ops.append({
                "cell": cell,
                "mode": mode,
                "n_th": n_th,
                "ra_over_kappa": ra_over_kappa,
                "theta": theta,
                "ini": _protocol_ini(theta, ra_over_kappa, n_th),
            })
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def make(workload: str, seed: int, batch: int = 0) -> list[dict]:
    """Op list of batch ``batch`` of ``workload`` for ``seed``; ids are positions."""
    generators = {"sweep": sweep_ops, "ladder": ladder_ops, "transient": transient_ops}
    ops = generators[workload](np.random.default_rng([seed, WORKLOADS.index(workload), batch]))
    for index, op in enumerate(ops):
        op["id"] = index
    return ops
