"""First-order qubit-imperfection corrections to the ideal kick protocol.

Two mechanisms degrade the cooling: gate-charge fluctuations relax the
qubit at a rate Gamma(omega) during the kick (captured by a per-level
fidelity factor), and imperfect thermal reset leaves the qubit excited
with probability p, turning a fraction of the kicks into phonon emitters.
Energies are taken in joules and converted with hbar explicitly.
"""
from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .constants import HBAR, K_B
from .errors import ValidityWarning
from .model import KickMap, ProtocolParams, _check_populations, build_kick_map, default_n_max
from .dynamics import (
    ANALYTIC_PRODUCT,
    SteadyStateResult,
    _check_excitation_bound,
    _product_populations,
    _result_from_populations,
    _row_summary,
)


@dataclass(frozen=True)
class QubitEnvironment:
    """Noise environment of the reset qubit.

    alpha_g     : dimensionless gate-charge fluctuation coupling
    temperature : bath temperature (K)
    e_j         : qubit level splitting when parked off duty (J)
    omega0      : resonator angular frequency (rad/s)
    """

    alpha_g: float
    temperature: float
    e_j: float
    omega0: float

    def __post_init__(self) -> None:
        if self.alpha_g < 0:
            raise ValueError("alpha_g must be non-negative")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.e_j <= 0:
            raise ValueError("e_j must be positive")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")


def relaxation_rate(env: QubitEnvironment, omega: float) -> float:
    """Charge-fluctuation relaxation rate at level splitting omega.

    Gamma(omega) = pi * alpha_g * omega * [coth(hbar*omega / 2 k_B T) + 1] / 2

    in 1/s.  coth -> 1 as T -> 0, leaving pi*alpha_g*omega.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    x = HBAR * omega / (2.0 * K_B * env.temperature)
    return 0.5 * math.pi * env.alpha_g * omega * (1.0 / math.tanh(x) + 1.0)


def thermal_excitation_probability(env: QubitEnvironment) -> float:
    """Excited-state occupation of the parked qubit, 1/(1 + exp(E_J/k_B T)).

    Lies in (0, 1/2]; returns exactly 0.0 once the exponent is beyond
    double-precision range.
    """
    x = env.e_j / (K_B * env.temperature)
    if x > 700.0:
        return math.exp(-x) if x < 745.0 else 0.0
    return 1.0 / (1.0 + math.exp(x))


def _fidelity_profile(
    gamma0: float, g: float, tau: float, levels: np.ndarray
) -> np.ndarray:
    """F_{l-1} = 1 - gamma0 * integral_0^tau sin^2(g*sqrt(l)*t) dt, closed form."""
    root = np.sqrt(levels)
    integral = tau / 2.0 - np.sin(2.0 * g * root * tau) / (4.0 * g * root)
    return 1.0 - gamma0 * integral


def kick_fidelity(gamma0: float, g: float, tau: float, level: int) -> float:
    """First-order survival factor of the swap feeding level `level - 1`.

    Uses integral_0^tau sin^2(g*sqrt(l)*t) dt = tau/2 - sin(2g*sqrt(l)*tau)/(4g*sqrt(l)).
    Warns when gamma0*tau is not small (first-order validity) and when the
    resulting fidelity drops below 0.9.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    if gamma0 < 0:
        raise ValueError("gamma0 must be non-negative")
    if g <= 0 or tau <= 0:
        raise ValueError("g and tau must be positive")
    if gamma0 * tau >= 1.0:
        warnings.warn(
            f"gamma0*tau = {gamma0 * tau:.3g} >= 1: first-order decay "
            "correction is outside its validity range",
            ValidityWarning,
            stacklevel=2,
        )
    f = float(_fidelity_profile(gamma0, g, tau, np.array([float(level)]))[0])
    if f < 0.9:
        warnings.warn(
            f"kick fidelity {f:.3g} < 0.9: the perturbative correction is "
            "no longer small",
            ValidityWarning,
            stacklevel=2,
        )
    return f


def corrected_steady_state(
    params: ProtocolParams, env: QubitEnvironment, n_max: int
) -> SteadyStateResult:
    """Steady state with reset-error and kick-decay corrections applied.

    The product formula is evaluated with the swap weight ce2[l-1] replaced
    by ce2[l-1]*F_{l-1} and with the excitation probability p mixed in:

        p_l / p_{l-1} = (n_th*l + p*ce2*F*R) / ((n_th+1)*l + (1-p)*ce2*F*R)

    p is params.p_e (derive_protocol sets it to the parked qubit's thermal
    excitation); the fidelity factors use Gamma(omega0) of env, which is
    zero for alpha_g = 0.  With p = 0 and alpha_g = 0 this reproduces the
    ideal steady state bitwise.
    """
    if params.kappa <= 0:
        raise ValueError("the product formula needs kappa > 0")
    _check_excitation_bound(params.n_th, params.p_e)
    gamma0 = relaxation_rate(env, env.omega0)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    coupling = _decayed_coupling(params, gamma0, kick)
    populations = _product_populations(
        params.n_th, params.ra_over_kappa, coupling, params.p_e
    )
    return _result_from_populations(populations, kick, ANALYTIC_PRODUCT)


def _decayed_coupling(
    params: ProtocolParams, gamma0: float, kick: KickMap
) -> np.ndarray:
    """ce2[l-1]*F_{l-1} for l = 1..kick.n_max: the swap weights after kick decay.

    Warns when Gamma(omega0)*tau is outside the first-order range; a sweep
    calls this once on its kick table, so the warning fires once per sweep.
    """
    if gamma0 * params.tau > 0.1:
        warnings.warn(
            f"Gamma(omega0)*tau = {gamma0 * params.tau:.3g} > 0.1: fidelity "
            "correction is outside its validity range",
            ValidityWarning,
            stacklevel=3,
        )
    levels = np.arange(1, kick.n_max + 1, dtype=float)
    return kick.ce2[:-1] * _fidelity_profile(gamma0, params.g, params.tau, levels)


def steady_state_sweep(
    params: ProtocolParams, n_th_grid: Sequence[float], ra_over_kappa: Sequence[float],
    p_values: Sequence[float], n_max: int | None = None, env: QubitEnvironment | None = None
) -> dict[str, np.ndarray]:
    """Product-formula steady states of params at every (n_th, r_a/kappa, p) point.

    A point truncates at n_max, or at default_n_max(n_th) for None; env
    applies the kick-decay fidelity of corrected_steady_state.  Returns the
    columns n_th, ra_over_kappa, p, mean_n_s, delta_n and p0_s, p fastest.
    The kick tables are built once at the largest n_max: each entry depends
    on its own level only, so a slice equals a point's own table bitwise.
    One product block per (n_th, r_a/kappa) holds a row per p; it is checked
    once, and each row summarised as steady_state_analytic does, so every
    entry is bitwise that point's library result.  A failure keeps its type
    and names the point: "sweep point n_th=..., r_a/kappa=...: ...".
    """
    if params.kappa <= 0:
        raise ValueError("the product formula needs kappa > 0")
    grid = [np.asarray(axis, dtype=float) for axis in (n_th_grid, ra_over_kappa, p_values)]
    n_maxes = [default_n_max(n_th) if n_max is None else n_max for n_th in grid[0]]
    table = build_kick_map(params.g, params.tau, 0.0, max(n_maxes, default=1))
    survival = 1.0 - table.ce2
    levels = np.arange(table.ce2.size, dtype=float)
    coupling = table.ce2 if env is None else _decayed_coupling(
        params, relaxation_rate(env, env.omega0), table
    )
    # a protocol's validity warnings depend on r_a and tau only
    ratios = [replace(params, r_a=ra * params.kappa).ra_over_kappa for ra in grid[1]]
    mean_n_s, delta_n, p0_s = (np.empty([axis.size for axis in grid]) for _ in range(3))
    for i, (n_th, size) in enumerate(zip(grid[0], n_maxes)):
        kicks = [KickMap(table.ce2[: size + 1], table.cg2[: size + 1], p_e, table.theta)
                 for p_e in grid[2]]
        for j, ratio in enumerate(ratios):
            try:
                # the bound does not depend on r_a: a failure names the first
                for p_e in grid[2]:
                    _check_excitation_bound(n_th, p_e)
                block = _product_populations(n_th, ratio, coupling[:size], grid[2][:, None])
                p0_s[i, j] = _check_populations(block)[:, 0]
            except ValueError as exc:
                raise type(exc)(f"sweep point n_th={n_th}, r_a/kappa={grid[1][j]}: {exc}") from exc
            for k, (kick, pops) in enumerate(zip(kicks, block)):
                mean_n_s[i, j, k], delta_n[i, j, k] = _row_summary(
                    pops, kick, levels[: size + 1], survival[: size + 1]
                )
    columns = (*np.meshgrid(*grid, indexing="ij"), mean_n_s, delta_n, p0_s)
    names = ("n_th", "ra_over_kappa", "p", "mean_n_s", "delta_n", "p0_s")
    return {name: column.ravel() for name, column in zip(names, columns)}


def cooling_floor(params: ProtocolParams, env: QubitEnvironment) -> float:
    """Lower limit of the reachable mean phonon number, p + n_th*Gamma(omega0)*tau/2."""
    p_e = thermal_excitation_probability(env)
    gamma0 = relaxation_rate(env, env.omega0)
    return p_e + params.n_th * gamma0 * params.tau / 2.0
