"""Command-line front end: evolve, strobe, steady, sweep and device modes.

Configuration comes from an INI file with flat key-value sections
([protocol], [device], [sweep], [output]) or from a built-in preset.
Every numeric key carries its unit in its name; frequency-like quantities
use the rate convention value_mhz = rate / 1e6 with angular frequencies in
rad/s (so g at 2*pi*10 MHz is g_mhz = 62.83185...).  Output files are
byte-stable: fixed column order, 17-significant-digit floats, LF endings.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .constants import E_CHARGE, HBAR
# corrected_steady_state stays bound here, where bench/worker.py wraps it;
# sweeps run corrections.steady_state_sweep
from .corrections import QubitEnvironment, corrected_steady_state, steady_state_sweep
from .device import DeviceParams, derive_protocol, duty_cycle_schedule
from .dynamics import (
    build_generator,
    evolve,
    evolve_stroboscopic,
    steady_state_analytic,
    steady_state_numeric,
)
from .errors import ConvergenceError, DegenerateKernelError
from .model import ProtocolParams, build_kick_map, default_n_max, thermal_distribution
from . import corrections, dynamics

MODES = ("evolve", "strobe", "steady", "sweep", "device")
FORMATS = ("csv", "json")
MHZ = 1e6  # rates and angular frequencies are quoted in units of 1e6 / s
# most levels a run may use: the default truncation at n_th of about 2.5e4,
# where the O(n_max) paths hold tens of MB; beyond it a run fails to allocate
# (n_th = 1e15 asks for 4e16 levels)
MAX_LEVELS = 10**6
# most levels an evolve or strobe run may use: its banded stepper holds about
# 0.7 kB per level (fig2, n_max 1e5 / 3e5 peaked at 105 / 248 MB RSS in
# evolve and 104 / 243 MB in strobe), so a run at the limit peaks near 580 MB
# (evolve at n_max 749999: 578 MB), beside the 597 MB of a steady run at
# MAX_LEVELS; the presets' largest truncation, n_th 1000, peaks at 86 MB
MAX_STEPPED_LEVELS = 750_000
# most rows a run may write: evolve samples, strobe's 2 * kicks + 1 samples or
# sweep grid points.  A run holds its columns as arrays until it writes them
# (peak RSS per row as CSV: sweep 65, evolve 56, strobe 57 bytes); JSON first
# turns each column into a list of floats (evolve: 145 bytes a row), so a run
# at the limit holds at most about 290 MB of rows, beside the 597 MB of a
# steady run at MAX_LEVELS
MAX_ROWS = 2 * 10**6
# what a run reports as a numerical failure (exit 3)
NUMERICAL_ERRORS = (
    DegenerateKernelError,
    ConvergenceError,
    ValueError,
    FloatingPointError,
)


class ConfigError(Exception):
    """Invalid or incomplete run configuration."""


def _check_rows(mode: str, rows: int) -> None:
    """Raise ConfigError if a run would write more than MAX_ROWS rows."""
    if rows > MAX_ROWS:
        raise ConfigError(f"{mode} would write {rows} rows, above the row limit of {MAX_ROWS}")


@dataclass(frozen=True)
class SweepSpec:
    """Sweep grid: every n_th with every r_a/kappa and every excitation p."""

    n_th_grid: tuple[float, ...]
    ra_over_kappa: tuple[float, ...]
    p_values: tuple[float, ...]
    with_fidelity: bool = False

    def __post_init__(self) -> None:
        if not (self.n_th_grid and self.ra_over_kappa and self.p_values):
            raise ConfigError("sweep needs at least one n_th, ra_over_kappa and p value")
        if not all(n_th >= 0.0 for n_th in self.n_th_grid):
            raise ConfigError("n_th values must be non-negative")
        if not all(ra >= 0.0 for ra in self.ra_over_kappa):
            raise ConfigError("ra_over_kappa values must be non-negative")
        if not all(0.0 <= p <= 1.0 for p in self.p_values):
            raise ConfigError("p_excited values must lie in [0, 1]")


@dataclass
class RunConfig:
    """One resolved run: a [device] section has already become protocol and env.

    The checks here are the ones a mode needs before it starts; n_max None
    means the default truncation for each n_th.
    """

    mode: str
    output: str
    protocol: ProtocolParams
    fmt: str = "csv"
    env: QubitEnvironment | None = None
    device: DeviceParams | None = None
    sweep: SweepSpec | None = None
    n_max: int | None = None
    t_end_ra: float = 120.0
    samples: int = 481
    n_kicks: int = 400

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.fmt not in FORMATS:
            raise ConfigError(f"unknown format {self.fmt!r}")
        if self.samples < 2:
            raise ConfigError("samples must be at least 2")
        if self.n_max is not None and self.n_max < 1:
            raise ConfigError("n_max must be at least 1")
        if not 0.0 < self.t_end_ra < math.inf:
            raise ConfigError("t_end_ra must be positive and finite")
        if self.n_kicks < 0:
            raise ConfigError("kicks must be non-negative")
        if self.mode == "evolve":
            _check_rows(self.mode, self.samples)
        if self.mode == "strobe":
            _check_rows(self.mode, 2 * self.n_kicks + 1)
        if self.mode in ("evolve", "strobe", "device") and self.protocol.r_a <= 0:
            raise ConfigError(f"{self.mode} mode needs r_a > 0 to fix the kick period")
        if self.mode in ("steady", "sweep") and self.protocol.kappa <= 0:
            raise ConfigError(f"{self.mode} mode needs kappa > 0 for the product formula")
        if self.mode == "device" and self.device is None:
            raise ConfigError("device mode needs a [device] section or preset")
        if self.mode == "sweep":
            if self.sweep is None:
                raise ConfigError("sweep mode needs a [sweep] section or preset")
            if self.sweep.with_fidelity and self.env is None:
                raise ConfigError("with_fidelity sweeps need a qubit environment")
            spec = self.sweep
            _check_rows(
                self.mode, len(spec.n_th_grid) * len(spec.ra_over_kappa) * len(spec.p_values)
            )


# --- built-in presets --------------------------------------------------------

_G_STRONG = 2.0 * math.pi * 1e7          # coupling, rad/s
_KAPPA_HIGH_Q = math.pi * 1e3            # decay of a 2*pi*100 MHz mode at Q = 2e5
_OMEGA0 = 2.0 * math.pi * 1e8
_EJ_PARKED = 4.0 * math.pi * 1e10 * HBAR  # parked splitting, J


def _preset_fig2() -> dict:
    """Transient cooling run: n_th = 1.7, r_a/kappa = 133, pulse area pi/8."""
    params = ProtocolParams(
        g=_G_STRONG,
        tau=(math.pi / 8.0) / _G_STRONG,
        r_a=133.0 * _KAPPA_HIGH_Q,
        kappa=_KAPPA_HIGH_Q,
        n_th=1.7,
        p_e=0.0,
    )
    return {"protocol": params}


def _preset_fig3() -> dict:
    """Cooling-performance sweep: full-swap kicks over a thermal-occupation grid."""
    params = ProtocolParams(
        g=_G_STRONG,
        tau=(math.pi / 2.0) / _G_STRONG,
        r_a=100.0 * _KAPPA_HIGH_Q,
        kappa=_KAPPA_HIGH_Q,
        n_th=1.0,
        p_e=0.0,
    )
    env = QubitEnvironment(
        alpha_g=1e-4, temperature=0.01, e_j=_EJ_PARKED, omega0=_OMEGA0
    )
    sweep = SweepSpec(
        n_th_grid=tuple(np.logspace(-2.0, 3.0, 61)),
        ra_over_kappa=(1e2, 1e3),
        p_values=(0.0, 1e-4, 1e-5),
        with_fidelity=False,
    )
    return {"protocol": params, "env": env, "sweep": sweep}


def _preset_device_paper() -> dict:
    """Reference charge-qubit device: 2*pi*100 MHz mode at Q = 2e5, 10 mK."""
    dev = DeviceParams(
        e_j=_EJ_PARKED,
        c_x=20e-18,
        c_g=20e-18,
        c_j=210e-18,
        v_x=0.25,
        resistance=50.0,
        temperature=0.01,
        omega0=_OMEGA0,
        q_factor=2e5,
        g_override=_G_STRONG,
    )
    return {"device": dev, "device_tau": 25e-9, "device_ra": 3e6}


PRESETS = {
    "fig2": _preset_fig2,
    "fig3": _preset_fig3,
    "device-paper": _preset_device_paper,
}


# --- configuration file ------------------------------------------------------


def _get_float(section: configparser.SectionProxy, key: str) -> float:
    try:
        value = float(section[key])
    except KeyError:
        raise ConfigError(f"missing key {key!r} in [{section.name}]") from None
    except ValueError:
        raise ConfigError(f"key {key!r} in [{section.name}] is not a number") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r} in [{section.name}] is not finite")
    return value


def _get_float_opt(
    section: configparser.SectionProxy, key: str, default: float | None = None
) -> float | None:
    if key not in section:
        return default
    return _get_float(section, key)


def _float_list(section: configparser.SectionProxy, key: str) -> tuple[float, ...]:
    raw = section.get(key, "")
    items = [part.strip() for part in raw.split(",") if part.strip()]
    try:
        values = tuple(float(item) for item in items)
    except ValueError:
        raise ConfigError(f"key {key!r} in [{section.name}] is not a number list") from None
    if not all(math.isfinite(value) for value in values):
        raise ConfigError(f"key {key!r} in [{section.name}] has a non-finite entry")
    return values


def _protocol_from_section(section: configparser.SectionProxy) -> ProtocolParams:
    g = _get_float(section, "g_mhz") * MHZ
    pulse_area = _get_float_opt(section, "pulse_area_rad")
    if pulse_area is not None:
        tau = pulse_area / g
    else:
        tau = _get_float(section, "tau_ns") * 1e-9
    try:
        return ProtocolParams(
            g=g,
            tau=tau,
            r_a=_get_float(section, "ra_mhz") * MHZ,
            kappa=_get_float(section, "kappa_mhz") * MHZ,
            n_th=_get_float(section, "n_th"),
            p_e=_get_float_opt(section, "p_e", 0.0),
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [protocol]: {exc}") from exc


def _device_from_section(section: configparser.SectionProxy) -> DeviceParams:
    uev = 1e-6 * E_CHARGE
    e_c = _get_float_opt(section, "e_c_uev")
    mass = _get_float_opt(section, "mass_kg")
    distance_nm = _get_float_opt(section, "distance_nm")
    g_override = _get_float_opt(section, "g_mhz")
    try:
        return DeviceParams(
            e_j=_get_float(section, "e_j_uev") * uev,
            c_x=_get_float(section, "c_x_af") * 1e-18,
            c_g=_get_float(section, "c_g_af") * 1e-18,
            c_j=_get_float(section, "c_j_af") * 1e-18,
            v_x=_get_float(section, "v_x_v"),
            resistance=_get_float(section, "r_ohm"),
            temperature=_get_float(section, "temperature_mk") * 1e-3,
            omega0=_get_float(section, "omega0_mhz") * MHZ,
            q_factor=_get_float(section, "q_factor"),
            e_c=e_c * uev if e_c is not None else None,
            mass=mass,
            distance=distance_nm * 1e-9 if distance_nm is not None else None,
            g_override=g_override * MHZ if g_override is not None else None,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid [device]: {exc}") from exc


def _sweep_from_section(section: configparser.SectionProxy) -> SweepSpec:
    n_min = _get_float(section, "n_th_min")
    n_max_val = _get_float(section, "n_th_max")
    count_val = _get_float(section, "n_th_count")
    if not count_val.is_integer():
        raise ConfigError(f"n_th_count must be a whole number, got {count_val!r}")
    count = int(count_val)
    if count < 1 or not 0 < n_min <= n_max_val:
        raise ConfigError("sweep grid must be non-empty with 0 < n_th_min <= n_th_max")
    ra_over_kappa = _float_list(section, "ra_over_kappa")
    p_values = _float_list(section, "p_excited") or (0.0,)
    # before np.logspace allocates the n_th grid, whose count points a valid
    # grid writes at least once; an empty ra list fails in SweepSpec
    _check_rows("sweep", count * max(len(ra_over_kappa), 1) * len(p_values))
    if count == 1:
        grid: tuple[float, ...] = (n_min,)
    else:
        grid = tuple(np.logspace(math.log10(n_min), math.log10(n_max_val), count))
    return SweepSpec(
        n_th_grid=grid,
        ra_over_kappa=ra_over_kappa,
        p_values=p_values,
        with_fidelity=section.getboolean("with_fidelity", fallback=False),
    )


def load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read configuration file {path!r}")
    pieces: dict = {}
    if parser.has_section("protocol"):
        pieces["protocol"] = _protocol_from_section(parser["protocol"])
    if parser.has_section("device"):
        dev_section = parser["device"]
        pieces["device"] = _device_from_section(dev_section)
        pieces["device_tau"] = _get_float_opt(dev_section, "tau_ns")
        if pieces["device_tau"] is not None:
            pieces["device_tau"] *= 1e-9
        pieces["device_ra"] = _get_float_opt(dev_section, "ra_mhz")
        if pieces["device_ra"] is not None:
            pieces["device_ra"] *= MHZ
    if parser.has_section("sweep"):
        pieces["sweep"] = _sweep_from_section(parser["sweep"])
    if parser.has_section("output"):
        out = parser["output"]
        pieces["output"] = out.get("path", "")
        pieces["fmt"] = out.get("format", "csv")
    if "protocol" not in pieces and "device" not in pieces:
        raise ConfigError("configuration needs a [protocol] or [device] section")
    return pieces


# --- output ------------------------------------------------------------------


def _write_csv(path: str, table: dict) -> None:
    """Header and rows, each row formatted by one template.

    A column is typed by its first entry: a str prints as it is, and a
    number with 17 significant digits, which gives an int below 1e17 as str
    does.  Rows are formatted one at a time, straight from the columns.
    """
    first = next(zip(*table.values()), ())
    template = ",".join("%s" if isinstance(v, str) else "%.17g" for v in first) + "\n"
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        fh.write(",".join(table) + "\n")
        fh.writelines(template % row for row in zip(*table.values()))


def _write_json(path: str, metadata: dict, table: dict) -> None:
    data = {name: np.asarray(column).tolist() for name, column in table.items()}
    payload = {"metadata": metadata, "data": data}
    with open(path, "w", newline="\n", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit(config: RunConfig, metadata: dict, table: dict) -> None:
    """Write a runner's table (column name -> array, or list of str) in the run's format."""
    if config.fmt == "csv":
        _write_csv(config.output, table)
    else:
        _write_json(config.output, metadata, table)


def _params_metadata(params: ProtocolParams, n_max: int) -> dict:
    return {
        "g_rad_per_s": params.g,
        "tau_s": params.tau,
        "ra_per_s": params.r_a,
        "kappa_per_s": params.kappa,
        "n_th": params.n_th,
        "p_e": params.p_e,
        "pulse_area_rad": params.theta,
        "n_max": n_max,
    }


# --- mode runners -------------------------------------------------------------


def _n_max(config: RunConfig, n_th: float) -> int:
    if config.n_max is not None:
        n_max = config.n_max
    else:
        try:
            n_max = default_n_max(n_th)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    limit = MAX_STEPPED_LEVELS if config.mode in ("evolve", "strobe") else MAX_LEVELS
    if n_max >= limit:
        raise ConfigError(
            f"truncation n_max={n_max} needs {n_max + 1} levels, above the "
            f"{config.mode} limit of {limit} levels"
        )
    return n_max


@contextmanager
def _stage(label: str):
    """Re-raise a numerical failure with the label of the stage it came from."""
    try:
        yield
    except NUMERICAL_ERRORS as exc:
        raise type(exc)(f"{label}: {exc}") from exc


def _trace_output(
    params: ProtocolParams, n_max: int, trace: dynamics.EvolutionTrace
) -> tuple[dict, dict]:
    """Metadata and the t_ra, mean_n and p0 columns of an evolve or strobe trace."""
    table = {"t_ra": trace.times * params.r_a, "mean_n": trace.mean_n, "p0": trace.p0}
    return _params_metadata(params, n_max), table


def _run_evolve(config: RunConfig) -> tuple[dict, dict]:
    params = config.protocol
    n_max = _n_max(config, params.n_th)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    gen = build_generator(params, kick, n_max)
    initial = thermal_distribution(params.n_th, n_max)
    t_end = config.t_end_ra / params.r_a
    times = np.linspace(0.0, t_end, config.samples)
    with _stage("evolve (integration)"):
        trace = evolve(initial, gen, t_end, sample_times=times)
    return _trace_output(params, n_max, trace)


def _run_strobe(config: RunConfig) -> tuple[dict, dict]:
    params = config.protocol
    n_max = _n_max(config, params.n_th)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    initial = thermal_distribution(params.n_th, n_max)
    with _stage("strobe (damping and kicks)"):
        trace = evolve_stroboscopic(initial, params, kick, config.n_kicks)
    meta, table = _trace_output(params, n_max, trace)
    meta["n_kicks"] = config.n_kicks
    return meta, table


def _run_steady(config: RunConfig) -> tuple[dict, dict]:
    params = config.protocol
    n_max = _n_max(config, params.n_th)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    with _stage("steady (analytic route)"):
        analytic = steady_state_analytic(params, kick, n_max)
    with _stage("steady (null-space route)"):
        numeric = steady_state_numeric(build_generator(params, kick, n_max))
    table = {
        "n": np.arange(n_max + 1),
        "p_analytic": analytic.populations.populations,
        "p_numeric": numeric.populations.populations,
    }
    meta = _params_metadata(params, n_max)
    meta.update(
        {
            "mean_n_s_analytic": analytic.mean_n_s,
            "mean_n_s_numeric": numeric.mean_n_s,
            "delta_n": analytic.delta_n,
            "p0_s": analytic.p0_s,
        }
    )
    return meta, table


def _run_sweep(config: RunConfig) -> tuple[dict, dict]:
    """The grid through corrections.steady_state_sweep, rows sorted by (n_th, r_a/kappa, p)."""
    params, spec = config.protocol, config.sweep
    # hottest first: a bath too hot to size is reported before a cooler
    # point whose truncation is merely over the limit
    for n_th in sorted(spec.n_th_grid, reverse=True):
        _n_max(config, n_th)
    env = config.env if spec.with_fidelity else None
    table = steady_state_sweep(
        params, spec.n_th_grid, spec.ra_over_kappa, spec.p_values, config.n_max, env
    )
    order = np.lexsort((table["p"], table["ra_over_kappa"], table["n_th"]))  # stable
    for name, column in table.items():  # one column copy at a time
        table[name] = column[order]
    meta = {
        "g_rad_per_s": params.g,
        "tau_s": params.tau,
        "kappa_per_s": params.kappa,
        "pulse_area_rad": params.theta,
        "with_fidelity": spec.with_fidelity,
        "n_points": order.size,
    }
    return meta, table


def _run_device(config: RunConfig) -> tuple[dict, dict]:
    params, env, dev = config.protocol, config.env, config.device
    gamma_ej = corrections.relaxation_rate(env, env.e_j / HBAR)
    gamma0 = corrections.relaxation_rate(env, env.omega0)
    schedule = duty_cycle_schedule(
        params.g,
        gamma_ej,
        params.r_a,
        params.tau,
        gamma0=gamma0,
        kappa=params.kappa,
    )
    fidelity_0 = corrections.kick_fidelity(gamma0, params.g, params.tau, level=1)
    floor = corrections.cooling_floor(params, env)
    report = {
        "g_rad_per_s": params.g,
        "tau_s": params.tau,
        "ra_per_s": params.r_a,
        "kappa_per_s": params.kappa,
        "n_th": params.n_th,
        "n_x": dev.n_x,
        "e_c_j": dev.charging_energy,
        "alpha_g": env.alpha_g,
        "p_thermal_excitation": params.p_e,
        "gamma_ej_per_s": gamma_ej,
        "gamma_omega0_per_s": gamma0,
        "kick_fidelity_level1": fidelity_0,
        "heating_scale_per_nth": gamma0 * params.tau / 2.0,
        "cooling_floor": floor,
        "cycle_budget_s": schedule.cycle_budget,
        "kick_period_s": schedule.period,
        "budget_closes": float(schedule.closes),
        "max_kick_rate_per_s": schedule.max_kick_rate,
    }
    meta = {"flags": list(schedule.flags)}
    return meta, {"quantity": list(report), "value": np.array(list(report.values()))}


_RUNNERS = {
    "evolve": _run_evolve,
    "strobe": _run_strobe,
    "steady": _run_steady,
    "sweep": _run_sweep,
    "device": _run_device,
}


def run(config: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    try:
        metadata, table = _RUNNERS[config.mode](config)
        _emit(config, metadata, table)
    except ConfigError as exc:
        print(f"kickcool: configuration error: {exc}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as exc:
        print(f"kickcool: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"kickcool: cannot write output: {exc}", file=sys.stderr)
        return 2
    rows = len(next(iter(table.values())))
    print(f"kickcool {config.mode}: wrote {rows} rows to {config.output}")
    return 0


# --- argument parsing ----------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="kickcool",
        description="Simulate cooling of a damped bosonic mode by periodic qubit kicks",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", help="INI configuration file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="built-in parameter set")
        p.add_argument("--output", help="output file path")
        p.add_argument("--format", choices=FORMATS, default=None)
        if mode != "device":
            p.add_argument("--n-max", type=int, default=None, help="truncation override")
        if mode == "sweep":
            p.add_argument(
                "--with-fidelity",
                action="store_true",
                help="apply the kick-decay fidelity correction",
            )
        # run lengths default to the RunConfig field of the same name
        if mode == "evolve":
            p.add_argument("--t-end-ra", type=float, default=argparse.SUPPRESS)
            p.add_argument("--samples", type=int, default=argparse.SUPPRESS)
        if mode == "strobe":
            p.add_argument("--kicks", type=int, dest="n_kicks", default=argparse.SUPPRESS)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.config and args.preset:
        raise ConfigError("give either --config or --preset, not both")
    if args.config:
        pieces = load_config_file(args.config)
    elif args.preset:
        pieces = PRESETS[args.preset]()
    else:
        raise ConfigError("a --config file or --preset is required")

    protocol, env, device = pieces.get("protocol"), pieces.get("env"), pieces.get("device")
    if device is not None and (protocol is None or args.mode == "device"):
        tau, r_a = pieces.get("device_tau"), pieces.get("device_ra")
        if tau is None or r_a is None:
            raise ConfigError("device-based runs need tau_ns and ra_mhz")
        try:
            protocol, env = derive_protocol(device, tau=tau, r_a=r_a)
        except ValueError as exc:
            raise ConfigError(f"invalid [device]: {exc}") from exc
    fmt = args.format or pieces.get("fmt") or "csv"
    output = args.output or pieces.get("output") or f"kickcool_{args.mode}.{fmt}"
    sweep = pieces.get("sweep")
    if sweep is not None and getattr(args, "with_fidelity", False):
        sweep = replace(sweep, with_fidelity=True)
    run_lengths = {
        name: value
        for name, value in vars(args).items()
        if name in ("n_max", "t_end_ra", "samples", "n_kicks")
    }
    return RunConfig(
        mode=args.mode,
        output=output,
        protocol=protocol,
        fmt=fmt,
        env=env,
        device=device,
        sweep=sweep,
        **run_lengths,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        config = config_from_args(args)
    except ConfigError as exc:
        print(f"kickcool: configuration error: {exc}", file=sys.stderr)
        return 2
    return run(config)


def cli_entry() -> None:
    sys.exit(main())
