"""Coarse-grained kick-plus-damping dynamics on phonon populations.

The generator dP/dt = G P combines kicks at rate r_a with thermal damping
at rate kappa.  Both move population between neighbouring levels only, so
G is tridiagonal: a continuous-time birth-death chain with

    up(l)   = kappa*n_th*l     + r_a*p_e*ce2[l-1]        (l-1 -> l)
    down(l) = kappa*(n_th+1)*l + r_a*(1-p_e)*ce2[l-1]    (l -> l-1)

Steady states are computed three independent ways: the detailed-balance
product formula, a direct null-space solve, and long-time integration.
"""
from __future__ import annotations

import importlib
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateKernelError,
    NonNormalizableError,
    TruncationOverflowWarning,
)
from .model import (
    NEG_CLAMP,
    TAIL_TOL,
    KickMap,
    PhononDistribution,
    ProtocolParams,
    _check_populations,
    _kick_vector,
    _level_mean,
    thermal_distribution,
)

ANALYTIC_PRODUCT = "analytic-product"
NULL_SPACE = "null-space"
LONG_TIME = "long-time"


def _on_first_call(module: str, name: str):
    """Stand-in for ``module.name`` that imports ``module`` on its first call.

    Importing scipy costs several times the work of a sweep or device run,
    and neither calls it; solvers pay the import when they first need it.
    Call sites go through the module-level names bound below, so a wrapper
    set on one of those names sees every call.
    """
    target = None

    def call(*args, **kwargs):
        nonlocal target
        if target is None:
            target = getattr(importlib.import_module(module), name)
        return target(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


# uncalled: bench/worker.py counts calls through these four bindings
solve_ivp = _on_first_call("scipy.integrate", "solve_ivp")
expm = _on_first_call("scipy.linalg", "expm")
solve_banded = _on_first_call("scipy.linalg", "solve_banded")
splu = _on_first_call("scipy.sparse.linalg", "splu")
svd = _on_first_call("scipy.linalg", "svd")
get_lapack_funcs = _on_first_call("scipy.linalg.lapack", "get_lapack_funcs")


def _tridiagonal_lu(lower: np.ndarray, main: np.ndarray, upper: np.ndarray):
    """``solve(rhs)`` for the tridiagonal matrix with these bands: the package's one LU.

    LAPACK ``?gttrf`` with partial pivoting, real or complex as the bands
    are, then ``?gttrs`` per right-hand side.  Both work in place, so
    callers pass arrays they own: the bands become the factors, and rhs the
    solution.  An exactly zero pivot raises FloatingPointError.
    """
    gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (lower, main, upper))
    *factors, info = gttrf(
        lower, main, upper, overwrite_dl=True, overwrite_d=True, overwrite_du=True
    )
    if info:
        raise FloatingPointError(f"tridiagonal factorisation failed (info {info})")
    return lambda rhs: gttrs(*factors, rhs, overwrite_b=True)[0]


def _diagonal(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """Generator diagonal: the negative total rate out of each level."""
    outflow = np.zeros(up.size + 1)
    outflow[:-1] += up
    outflow[1:] += down
    return -outflow


def _apply(up: np.ndarray, diag: np.ndarray, down: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G @ x for the tridiagonal generator with these three bands."""
    out = diag * x
    out[:-1] += down * x[1:]
    out[1:] += up * x[:-1]
    return out


def _dense(up: np.ndarray, down: np.ndarray) -> np.ndarray:
    """The (n+1)x(n+1) generator with rates up below and down above the diagonal."""
    dense = np.diag(_diagonal(up, down))
    idx = np.arange(up.size)
    dense[idx + 1, idx] = up
    dense[idx, idx + 1] = down
    return dense


@dataclass(frozen=True)
class GeneratorMatrix:
    """Tridiagonal generator of the coarse-grained population dynamics.

    Stored as its two rate bands: up[l-1] is the rate l-1 -> l (the
    sub-diagonal), down[l-1] the rate l -> l-1 (the super-diagonal).  The
    diagonal is derived as the negative column outflow, so columns sum to
    zero.  ``apply`` multiplies in O(n_max).
    """

    up: np.ndarray
    down: np.ndarray
    params: ProtocolParams
    kick: KickMap
    diag: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        up = np.array(self.up, dtype=float)
        down = np.array(self.down, dtype=float)
        if up.ndim != 1 or up.shape != down.shape:
            raise ValueError("up and down rates must be 1-d vectors of equal length")
        if not (np.all(np.isfinite(up)) and np.all(np.isfinite(down))):
            raise ValueError("rates must be finite")
        if np.any(up < 0) or np.any(down < 0):
            raise ValueError("rates must be non-negative")
        diag = _diagonal(up, down)
        for name, arr in (("up", up), ("down", down), ("diag", diag)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_max(self) -> int:
        return self.up.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """G @ x for a population vector x."""
        return _apply(self.up, self.diag, self.down, x)


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled observables of a population evolution.

    times are in seconds and strictly increasing; mean_n and p0 are the
    mean phonon number and ground-level population at those times, and
    snapshots, when kept, hold the distribution at each of them.
    """

    times: np.ndarray
    mean_n: np.ndarray
    p0: np.ndarray
    snapshots: list[PhononDistribution] | None = None

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=float)
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("trace times must be strictly increasing")
        for name in ("times", "mean_n", "p0"):
            arr = np.array(getattr(self, name), dtype=float)
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.times.ndim != 1 or not (
            self.times.shape == self.mean_n.shape == self.p0.shape
        ):
            raise ValueError("times, mean_n and p0 must be 1-d of equal length")
        if self.snapshots is not None and len(self.snapshots) != self.times.size:
            raise ValueError(
                f"{len(self.snapshots)} snapshots for {self.times.size} times"
            )
        if np.any(self.p0 < -1e-12) or np.any(self.p0 > 1.0 + 1e-9):
            raise ValueError("p0 outside [0, 1]")


@dataclass(frozen=True)
class SteadyStateResult:
    """Steady state populations plus the headline cooling diagnostics.

    method names the route (ANALYTIC_PRODUCT, NULL_SPACE or LONG_TIME); the
    three diagnostics are finite, and p0_s is the ground-level population.
    """

    populations: PhononDistribution
    mean_n_s: float
    delta_n: float
    p0_s: float
    method: str

    def __post_init__(self) -> None:
        if self.method not in (ANALYTIC_PRODUCT, NULL_SPACE, LONG_TIME):
            raise ValueError(f"unknown steady-state method {self.method!r}")
        for name in ("mean_n_s", "delta_n", "p0_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")
        if self.p0_s != self.populations.p0:
            raise ValueError(
                f"p0_s {self.p0_s!r} differs from the ground-level population "
                f"{self.populations.p0!r}"
            )


def _check_kick(params: ProtocolParams, kick: KickMap, n_max: int, what: str) -> None:
    """Raise ValueError unless kick is the protocol's kick over levels 0..n_max.

    The protocol is the one source of p_e and the pulse area: a kick
    tabulated for other values would pair its weights with foreign rates.
    """
    if kick.n_max != n_max:
        raise ValueError(f"kick sized for n_max={kick.n_max}, {what} requested for {n_max}")
    if (kick.p_e, kick.theta) != (params.p_e, params.theta):
        raise ValueError(
            f"kick built for p_e={kick.p_e!r}, theta={kick.theta!r}; the protocol "
            f"has p_e={params.p_e!r}, theta={params.theta!r}"
        )


def _damping_bands(params: ProtocolParams, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Damping-only (up, down): kappa*n_th*l and kappa*(n_th+1)*l over l = 1..n_max."""
    levels = np.arange(1, n_max + 1, dtype=float)
    return params.kappa * params.n_th * levels, params.kappa * (params.n_th + 1.0) * levels


def build_generator(
    params: ProtocolParams, kick: KickMap, n_max: int
) -> GeneratorMatrix:
    """Assemble the tridiagonal generator for levels 0..n_max.

    Columns sum to zero by construction (the diagonal is the negative
    column outflow), and all off-diagonal entries are non-negative: the
    generator is a Markov generator on populations.  The upward thermal
    rate out of the top level is dropped, which keeps the truncated chain
    conservative (reflecting edge).
    """
    _check_kick(params, kick, n_max, "generator")
    ce2 = kick.ce2[:n_max]
    up, down = _damping_bands(params, n_max)
    up += params.r_a * params.p_e * ce2
    down += params.r_a * (1.0 - params.p_e) * ce2
    return GeneratorMatrix(up=up, down=down, params=params, kick=kick)


def _checked_samples(block: np.ndarray) -> np.ndarray:
    """Apply the distribution invariants to every row of a (samples, levels) block.

    The banded stepper undershoots zero by less than 1e-13, so an entry
    below the model-core clamp of -1e-12 means the step lost its accuracy:
    it raises ConvergenceError, a numerical failure rather than a bad input.
    Anything less is rounding noise, which _check_populations clamps.  Tail
    mass is checked once per run by the caller, not per sample.  Works in
    place and returns the block.
    """
    lowest = block.min()
    if lowest < NEG_CLAMP:
        raise ConvergenceError(
            f"stepped population went negative ({lowest:.3e}); the step did "
            "not meet its accuracy"
        )
    return _check_populations(block, check_tail=False)


def _step_groups(steps: np.ndarray, tol: float) -> list[int]:
    """A group label for each step: sorted neighbours within tol share one."""
    order = np.argsort(steps, kind="stable")
    labels = np.empty(steps.size, dtype=np.intp)
    labels[order] = np.cumsum(np.r_[True, np.diff(steps[order]) > tol])
    return labels.tolist()


def evolve(
    initial: PhononDistribution,
    gen: GeneratorMatrix,
    t_end: float,
    sample_times: np.ndarray | None = None,
    keep_snapshots: bool = False,
) -> EvolutionTrace:
    """Step dP/dt = G P from the initial distribution through the sample times.

    Each sample is the previous one (the initial distribution before the
    first) advanced by exp(dt*G) over the gap dt between them, on the
    banded stepper that ``damping_propagator`` also returns; a sample at
    t = 0 is the initial distribution itself.  Gaps that differ by at most
    four ulps of the last sample time, which is all rounding of the sample
    times can make them differ, are one step: every gap of an
    ``np.linspace`` grid reuses one factorisation, built for the first gap
    of its group, and a factorisation is dropped after its group's last
    step.  The samples are checked as one block by ``_checked_samples``,
    and a top level that grows past TAIL_TOL warns once.
    """
    if t_end <= 0:
        raise ValueError("t_end must be positive")
    if gen.n_max != initial.n_max:
        raise ValueError("generator and initial distribution sizes differ")
    if sample_times is None:
        sample_times = np.linspace(0.0, t_end, 201)
    times = np.asarray(sample_times, dtype=float)
    if times.size == 0:
        raise ValueError("sample_times must be non-empty")
    if times.min() < 0 or times.max() > t_end * (1 + 1e-12):
        raise ValueError("sample_times must lie within [0, t_end]")
    if np.any(np.diff(times) <= 0):
        raise ValueError("sample_times must be strictly increasing")

    steps = np.diff(times, prepend=0.0)
    labels = _step_groups(steps, 4.0 * np.spacing(times[-1]))
    last_step = {label: i for i, label in enumerate(labels)}
    steppers: dict[int, _BandStepper] = {}
    state = initial.populations
    block = np.empty((times.size, state.size))
    for i, label in enumerate(labels):
        if steps[i] > 0.0:
            if label not in steppers:
                steppers[label] = _BandStepper(gen.up, gen.down, steps[i])
            state = steppers[label] @ state
            if last_step[label] == i:
                del steppers[label]
        block[i] = state

    block = _checked_samples(block)
    mean_n = _level_mean(np.arange(block.shape[1], dtype=float), block)
    tail_seen = block[:, -1].max()
    if tail_seen > TAIL_TOL:
        warnings.warn(
            f"tail mass grew to {tail_seen:.3e} during the evolution",
            TruncationOverflowWarning,
            stacklevel=2,
        )
    snapshots = None
    if keep_snapshots:
        snapshots = [PhononDistribution(row, check_tail=False) for row in block]
    return EvolutionTrace(times=times, mean_n=mean_n, p0=block[:, 0], snapshots=snapshots)


# The (16, 16) Carathéodory-Fejér approximation of exp on (-inf, 0], from the
# algorithm of Trefethen, Weideman & Schmelzer (BIT 46, 653, 2006, fig. 4.1)
# run in 60-digit arithmetic: its eight poles in the upper half plane and
# minus their residues.  2 Re sum_k w_k / (z_k - x) is within 5e-16 of exp(x)
# for every x <= 0.
_CF_POLES = np.array([
    6.416177699099483 + 1.1941223933701346j,
    5.948152268951234 + 3.58745736201831j,
    4.993174737718069 + 5.996881713603921j,
    3.509103608415018 + 8.436198985884344j,
    1.4193758971858133 + 10.92536348449668j,
    -1.413928462488652 + 13.497725698892689j,
    -5.264971343442207 + 16.22022147316785j,
    -10.843917078695654 + 19.27744616718121j,
])
_CF_WEIGHTS = np.array([
    64.50087802554373 + 224.59440762653085j,
    -113.39775178484675 - 101.94721704216208j,
    62.518392463212315 + 11.19039109428232j,
    -15.059585270024606 + 5.7514052776432765j,
    1.479300711355903 - 1.7686588323786054j,
    -0.0410231368354073 + 0.15743466173459056j,
    -0.00021151742182520545 - 0.004389296964739718j,
    5.090152186615371e-07 + 2.4220017652877375e-05j,
])


class _BandStepper:
    """exp(dt*L) @ v for the tridiagonal generator L with these rate bands.

    ``damping_propagator`` builds it from the damping-only bands for one
    strobe period, ``evolve`` from the generator's bands for each gap
    between its samples.

    exp(x) is replaced by the rational approximation above, whose poles
    come in conjugate pairs, so for real v

        exp(h*L) v = 2 Re sum_k w_k (z_k - h*L)^-1 v

    over the eight poles z_k in the upper half plane.  Block k of one
    complex tridiagonal system holds (z_k - h*L) / w_k; the blocks are
    uncoupled, so one ``_tridiagonal_lu`` (``zgttrf``) serves the run and
    one solve (``zgttrs``) gives all eight terms.  L is far from normal on
    cold baths, where the approximation's error on the spectrum is
    amplified: a step dt is therefore taken in m = ceil(dt * max_l
    (down_l - up_l)^2 / (down_l + up_l)) sub-steps h = dt/m, and each
    sub-step restores the input's total mass.
    A 2-d input is stepped column by column, each exactly as a vector.
    """

    def __init__(self, up: np.ndarray, down: np.ndarray, dt: float) -> None:
        if dt < 0:
            raise ValueError("the step needs dt >= 0")
        spread = up + down
        moving = spread > 0.0
        peclet = ((down - up)[moving] ** 2 / spread[moving]).max(initial=0.0)
        self.substeps = max(1, math.ceil(dt * peclet))
        h = dt / self.substeps
        scale = 1.0 / _CF_WEIGHTS[:, None]
        main = (_CF_POLES[:, None] - h * _diagonal(up, down)) * scale
        lower = np.zeros_like(main)
        upper = np.zeros_like(main)
        # the last off-diagonal entry of a block would couple it to the next
        lower[:, :-1] = -h * up * scale
        upper[:, :-1] = -h * down * scale
        self._solve = _tridiagonal_lu(lower.ravel()[:-1], main.ravel(), upper.ravel()[:-1])
        self._shape = main.shape

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """exp(dt*L) @ v, one banded solve per sub-step."""
        v = np.asarray(v, dtype=float)
        if v.ndim == 2:
            return np.stack([self @ column for column in v.T], axis=1)
        mass = v.sum()
        rhs = np.empty(self._shape, dtype=complex)
        for _ in range(self.substeps):
            rhs[...] = v
            v = 2.0 * self._solve(rhs.ravel()).reshape(self._shape).sum(axis=0).real
            v *= mass / v.sum()
        return v


def damping_propagator(params: ProtocolParams, n_max: int, dt: float) -> _BandStepper:
    """exp(L*dt) of the damping-only generator, as a stepper: ``prop @ p``.

    The propagator is column-stochastic; apply it to ``np.eye(n_max + 1)``
    for its matrix.
    """
    return _BandStepper(*_damping_bands(params, n_max), dt)


def evolve_stroboscopic(
    initial: PhononDistribution,
    params: ProtocolParams,
    kick: KickMap,
    n_kicks: int,
    keep_snapshots: bool = False,
) -> EvolutionTrace:
    """Periodic-picture run: free damping for 1/r_a, then an instant kick.

    The mean phonon number is recorded immediately before and after every
    kick, so the steady-state sawtooth is visible.  Post-kick samples are
    timestamped min(tau, 0.5/r_a) after the kick instant to keep the trace
    times strictly increasing.  Samples alternate pre/post after the t=0
    entry: trace.mean_n[1::2] are pre-kick, [2::2] post-kick values.
    """
    if n_kicks < 0:
        raise ValueError("n_kicks must be non-negative")
    _check_kick(params, kick, initial.n_max, "stroboscopic run")
    if params.r_a <= 0:
        raise ValueError("stroboscopic evolution needs r_a > 0")
    period = 1.0 / params.r_a
    offset = min(params.tau, 0.5 * period)
    n = np.arange(initial.populations.size, dtype=float)

    prop = damping_propagator(params, initial.n_max, period)
    times: list[float] = []
    mean_n: list[float] = []
    p0: list[float] = []
    kept: list[np.ndarray] | None = [] if keep_snapshots else None

    def record(t: float, p: np.ndarray) -> None:
        times.append(t)
        mean_n.append(float(_level_mean(n, p)))
        p0.append(float(p[0]))
        if kept is not None:
            kept.append(p)

    state = initial.populations
    record(0.0, state)
    for k in range(1, n_kicks + 1):
        state = prop @ state
        record(k * period, state)
        state = _kick_vector(state, kick)
        record(k * period + offset, state)
    if state[-1] > TAIL_TOL:
        warnings.warn(
            f"tail mass reached {state[-1]:.3e} during the stroboscopic run",
            TruncationOverflowWarning,
            stacklevel=2,
        )
    snapshots = None
    if kept is not None:
        block = _checked_samples(np.array(kept))
        snapshots = [PhononDistribution(row, check_tail=False) for row in block]
    return EvolutionTrace(times=times, mean_n=mean_n, p0=p0, snapshots=snapshots)


def kick_fluctuation(dist: PhononDistribution, kick: KickMap) -> float:
    """Mean phonon number removed by one kick from this state."""
    p = dist.populations
    if kick.n_max != dist.n_max:
        raise ValueError("kick and distribution sizes differ")
    return _row_summary(p, kick, np.arange(p.size, dtype=float))[1]


def _row_summary(
    p: np.ndarray, kick: KickMap, levels: np.ndarray, survival: np.ndarray | None = None
) -> tuple[float, float]:
    """Mean phonon number of p and the mean one kick removes from it.

    levels is 0..n_max as floats.  One level mean serves both numbers: it
    equals mean_phonon bitwise, and the difference is kick_fluctuation.
    survival is 1 - kick.ce2 if tabulated.
    """
    mean = _level_mean(levels, p)
    return float(mean), float(mean - _level_mean(levels, _kick_vector(p, kick, survival)))


def _product_populations(
    n_th: float, ra_over_kappa: float, coupling: np.ndarray, p_e: float | np.ndarray
) -> np.ndarray:
    """Detailed-balance product solution of the kick-plus-damping chain.

    coupling[l-1] is the effective swap weight of the (l-1, l) pair (the
    bare ce2, optionally degraded by a fidelity factor).  Level ratios are

        p_l / p_{l-1} = (n_th*l + p_e*coupling*R) / ((n_th+1)*l + (1-p_e)*coupling*R)

    with R = r_a/kappa.  Accumulated in log space so strongly peaked or
    strongly decaying products neither overflow nor underflow.

    A scalar p_e gives one distribution over levels 0..n_max.  A column
    p_e of shape (k, 1) gives k of them as rows of a (k, n_max+1) array;
    every step is elementwise or runs along the last axis, so each row is
    bitwise the distribution its p_e gives as a scalar.
    """
    levels = np.arange(1, coupling.size + 1, dtype=float)
    num = np.multiply(p_e, coupling)
    num *= ra_over_kappa
    num += n_th * levels
    den = np.multiply(1.0 - p_e, coupling)
    den *= ra_over_kappa
    den += (n_th + 1.0) * levels
    growing = np.flatnonzero(num[..., -1] >= den[..., -1])
    if growing.size:
        raise NonNormalizableError(
            "population ratio has not fallen below 1 at the truncation for "
            f"p_e={np.ravel(p_e)[growing[0]]}; no normalizable steady state "
            "on this grid"
        )
    # in place, so that at most two blocks of the size of p are alive
    with np.errstate(divide="ignore"):
        np.log(num, out=num)
        np.log(den, out=den)
    num -= den
    del den
    p = np.zeros(num.shape[:-1] + (num.shape[-1] + 1,))
    np.cumsum(num, axis=-1, out=p[..., 1:])
    del num
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    return p


def _result_from_populations(
    p: np.ndarray, kick: KickMap, method: str
) -> SteadyStateResult:
    """Check p as a PhononDistribution and summarise it by _row_summary.

    Every steady-state route ends here; the sweep applies the same check and
    the same summary to its rows without building a result per row.
    """
    dist = PhononDistribution(p)
    levels = np.arange(dist.populations.size, dtype=float)
    mean_n_s, delta_n = _row_summary(dist.populations, kick, levels)
    return SteadyStateResult(
        populations=dist,
        mean_n_s=mean_n_s,
        delta_n=delta_n,
        p0_s=dist.p0,
        method=method,
    )


def _check_excitation_bound(n_th: float, p_e: float) -> None:
    bound = (n_th + 1.0) / (2.0 * n_th + 1.0)
    if p_e >= bound:
        raise NonNormalizableError(
            f"excited-state probability p_e={p_e} is not below the normalizability "
            f"bound {bound:.6g} at n_th={n_th}"
        )


def steady_state_analytic(
    params: ProtocolParams, kick: KickMap, n_max: int
) -> SteadyStateResult:
    """Steady state from the product formula.

    Requires kappa > 0 (the formula involves r_a/kappa) and an excitation
    probability below (n_th+1)/(2*n_th+1); r_a = 0 reduces to the thermal
    distribution.
    """
    if params.kappa <= 0:
        raise ValueError("the product formula needs kappa > 0")
    _check_kick(params, kick, n_max, "steady state")
    _check_excitation_bound(params.n_th, params.p_e)
    p = _product_populations(
        params.n_th, params.ra_over_kappa, kick.ce2[:n_max], params.p_e
    )
    return _result_from_populations(p, kick, ANALYTIC_PRODUCT)


def _connected_blocks(up: np.ndarray, down: np.ndarray, scale: float) -> np.ndarray:
    """Levels l where both rates across (l, l+1) vanish, in increasing order."""
    tol = 1e-15 * scale
    return np.flatnonzero((up <= tol) & (down <= tol))


def _pinned_kernel(
    up: np.ndarray, down: np.ndarray, diag: np.ndarray, pin: int
) -> np.ndarray:
    """Solve G p = 0 with row ``pin`` replaced by p[pin] = 1: one tridiagonal LU.

    Columns of G sum to zero, so the replaced row is minus the sum of the
    others, which still fix p up to scale; the pin fixes the scale.  The
    system is nonsingular when the kernel is one-dimensional and p[pin] != 0.
    """
    lower, main, upper = up.copy(), diag.copy(), down.copy()
    main[pin] = 1.0
    lower[pin - 1 : pin] = 0.0  # empty at pin 0
    upper[pin : pin + 1] = 0.0  # empty at the top level
    rhs = np.zeros(main.size)
    rhs[pin] = 1.0
    return _tridiagonal_lu(lower, main, upper)(rhs)


def steady_state_numeric(gen: GeneratorMatrix) -> SteadyStateResult:
    """Steady state from the kernel of the generator.

    Splits the chain where both neighbouring rates vanish and solves on the
    component containing the ground state (the unique closed class reached
    by cooling); a warning reports any removed degeneracy.  Both solvers see
    only that component's rate bands, whose diagonal drops the vanishing
    rates across the cut, so nothing they build grows with the levels above
    it.  Components of up to 600 levels are densified for an SVD with an
    explicit one-dimensional-kernel check at relative tolerance 1e-8.
    Larger ones stay on the bands: G p = 0 with one row replaced by
    p[pin] = 1 is a tridiagonal system, factorised by ``_tridiagonal_lu``.  The
    pin starts at level 0, or at the highest level that cannot descend (the
    levels below it drain upwards and hold no mass), and moves to the
    solution's most populated level if that is another one; the residual
    ||G p||_inf is verified against 1e-9 of the rate scale.
    """
    # every off-diagonal rate is a summand of its column's diagonal, so the
    # largest diagonal magnitude is the largest entry of the generator
    scale = np.abs(gen.diag).max()
    if scale == 0.0:
        raise DegenerateKernelError("generator is identically zero")
    cuts = _connected_blocks(gen.up, gen.down, scale)
    top = int(cuts[0]) if cuts.size else gen.n_max
    if cuts.size:
        warnings.warn(
            f"chain disconnects above level {top}; solving on the "
            "ground-state component and zeroing the rest",
            UserWarning,
            stacklevel=2,
        )
    up, down = gen.up[:top], gen.down[:top]

    if top < 600:
        _, s, vt = svd(_dense(up, down))
        kernel_dim = int(np.sum(s <= 1e-8 * s[0])) if s[0] > 0 else top + 1
        if kernel_dim != 1:
            raise DegenerateKernelError(
                f"kernel dimension {kernel_dim} != 1 at relative tolerance 1e-8"
            )
        vec = vt[-1]
    else:
        diag = _diagonal(up, down)
        # down[l] is the rate l+1 -> l: below a level that cannot descend
        # the chain drains upwards and holds no mass
        drains = np.flatnonzero(down <= 1e-15 * scale)
        pin = int(drains[-1]) + 1 if drains.size else 0
        try:
            vec = _pinned_kernel(up, down, diag, pin)
            peak = int(np.argmax(vec))
            if peak != pin:
                vec = _pinned_kernel(up, down, diag, peak)
        except FloatingPointError as exc:  # the pinned system is singular
            raise DegenerateKernelError(f"pinned solve failed: {exc}") from exc
        vec = vec / vec.sum()
        residual = np.abs(_apply(up, diag, down, vec)).max()
        if not residual <= 1e-9 * scale:  # a NaN residual fails too
            raise DegenerateKernelError(
                f"kernel residual {residual:.3e} exceeds 1e-9 of the rate scale"
            )

    if vec.sum() < 0:
        vec = -vec
    floor = -1e-9 * np.abs(vec).max()
    if vec.min() < floor:
        raise ConvergenceError(
            f"kernel vector has a significantly negative entry ({vec.min():.3e})"
        )
    vec = np.maximum(vec, 0.0)
    vec /= vec.sum()
    full = np.zeros(gen.n_max + 1)
    full[: top + 1] = vec
    return _result_from_populations(full, gen.kick, NULL_SPACE)


def steady_state_longtime(gen: GeneratorMatrix) -> SteadyStateResult:
    """Steady state by marching the dynamics until dP/dt vanishes.

    Starts from the bath's thermal distribution and takes up to 400
    unconditionally stable implicit-Euler macro-steps (I - dt*G) P' = P,
    each one solve on a single ``_tridiagonal_lu`` of I - dt*G; their fixed
    point satisfies G P = 0 exactly.  Iteration stops once the
    gap-normalized residual ||G P||_inf / gap_rate is at 1e-12 or has
    stopped improving at the floating-point floor.
    """
    scale = np.abs(gen.diag).max()
    if scale == 0.0:
        raise DegenerateKernelError("generator is identically zero")
    if gen.params.kappa > 0:
        gap = gen.params.kappa
    else:
        positive = gen.down[gen.down > 1e-15 * scale]
        if positive.size == 0:
            raise DegenerateKernelError("no relaxation channel: gap estimate is zero")
        gap = positive.min()
    dt = 20.0 / gap
    solve = _tridiagonal_lu(-dt * gen.up, 1.0 - dt * gen.diag, -dt * gen.down)

    state = thermal_distribution(gen.params.n_th, gen.n_max).populations.copy()
    best_res, stall = np.inf, 0
    for _ in range(400):
        state = solve(state)  # in place: best keeps its own copy
        np.maximum(state, 0.0, out=state)
        state /= state.sum()
        res = np.abs(gen.apply(state)).max() / gap
        if res < best_res:
            best, best_res, stall = state.copy(), res, 0
        else:
            stall += 1
        if best_res <= 1e-12 or stall >= 6:
            break
    if best_res > 1e-9:
        raise ConvergenceError(
            f"stationarity residual stalled at {best_res:.3e} (target 1e-12)"
        )
    return _result_from_populations(best, gen.kick, LONG_TIME)
