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

import functools
import importlib
import importlib.machinery
import importlib.util
import math
import sys
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

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
    _kick_vector,
    _level_mean,
    thermal_distribution,
)

ANALYTIC_PRODUCT = "analytic-product"
NULL_SPACE = "null-space"
LONG_TIME = "long-time"


def _on_first_call(module: str, name: str):
    """Stand-in for ``module.name`` that imports ``module`` on its first call.

    It serves the null space's dense SVD and the uncalled bindings below,
    which the benchmark counts through; the tridiagonal LU loads LAPACK
    through ``_flapack`` instead.  Importing scipy costs several times the
    work of a sweep or device run, and neither calls it.  Call sites go
    through the module-level names bound below, so a wrapper set on one of
    those names sees every call.
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


def _flapack():
    """scipy's LAPACK extension module, ``scipy.linalg._flapack``.

    Importing it by name runs ``scipy/linalg/__init__.py``, which loads all
    of ``scipy.linalg`` for the four routines the LU calls and costs about
    half a cold ``evolve`` run.  So unless the module is loaded already, the
    extension file is loaded from beside that ``__init__`` and registered
    under its own name; a later ``import scipy.linalg`` then finds it and
    uses the same routine objects.  A scipy without that file gets the
    ordinary import.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    folder = Path(scipy.__file__).parent / "linalg"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_flapack{suffix}"
        if path.is_file():
            loader = importlib.machinery.ExtensionFileLoader(name, str(path))
            spec = importlib.util.spec_from_file_location(name, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            sys.modules[name] = module
            return module
    return importlib.import_module(name)


def _tridiagonal_lu(lower: np.ndarray, main: np.ndarray, upper: np.ndarray):
    """``solve(rhs)`` for the tridiagonal matrix with these bands: the package's one LU.

    LAPACK ``?gttrf`` with partial pivoting, ``z`` for complex bands and
    ``d`` otherwise, then ``?gttrs`` per right-hand side.  Both work in
    place, so callers pass arrays they own: the bands become the factors,
    and rhs the solution.  An exactly zero pivot raises FloatingPointError.
    scipy's wrappers need three unknowns, so a smaller system gains
    decoupled identity rows, which change no pivot of its own rows.
    """
    pad = 3 - main.size
    if pad > 0:
        lower, upper = np.pad(lower, (0, pad)), np.pad(upper, (0, pad))
        solve = _tridiagonal_lu(lower, np.pad(main, (0, pad), constant_values=1), upper)
        return lambda rhs: solve(np.pad(rhs, (0, pad)))[:-pad]
    lapack = _flapack()
    prefix = "z" if np.iscomplexobj(main) else "d"
    gttrf, gttrs = getattr(lapack, prefix + "gttrf"), getattr(lapack, prefix + "gttrs")
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
    mean phonon number and ground-level population at those times.
    """

    times: np.ndarray
    mean_n: np.ndarray
    p0: np.ndarray

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


def _warn_tail(top: float, run: str) -> None:
    """Warn once, at the public caller, if a run's top level exceeded TAIL_TOL."""
    if top > TAIL_TOL:
        msg = f"tail mass reached {top:.3e} during the {run}"
        warnings.warn(msg, TruncationOverflowWarning, stacklevel=3)


def _record(state: np.ndarray, moves: Iterable, size: int) -> tuple[np.ndarray, ...]:
    """Mean phonon number, ground level and top level of each state ``moves`` make.

    Each of the ``size`` moves maps the current state to the next (a
    stepper's ``@`` or a kick), or is None to record the current state as it
    is (a sample at t = 0).  Only the three returned arrays grow with the
    number of moves; each mean is ``_level_mean`` of its state alone.
    """
    levels = np.arange(state.size, dtype=float)
    mean_n, p0, top = np.empty(size), np.empty(size), np.empty(size)
    for i, move in enumerate(moves):
        if move is not None:
            state = move(state)
        mean_n[i] = _level_mean(levels, state)
        p0[i], top[i] = state[0], state[-1]
    return mean_n, p0, top


def evolve(
    initial: PhononDistribution,
    gen: GeneratorMatrix,
    t_end: float,
    sample_times: np.ndarray | None = None,
) -> EvolutionTrace:
    """Step dP/dt = G P from the initial distribution through the sample times.

    Each sample is the previous one (the initial distribution before the
    first) advanced by exp(dt*G) over the gap dt between them, on the
    banded stepper that ``damping_propagator`` also returns, which checks
    every state it makes; a sample at t = 0 is the initial distribution
    itself.  One stepper is kept, and rebuilt only for a gap that differs
    from its own by more than four ulps of the last sample time (all that
    rounding of the times can make), so an ``np.linspace`` grid costs one
    factorisation.  A top level that grows past TAIL_TOL warns once.
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

    def gaps():
        tol = 4.0 * np.spacing(times[-1])
        stepper, built_for = None, math.nan
        for step in np.diff(times, prepend=0.0):
            if step > 0.0 and not abs(step - built_for) <= tol:
                stepper, built_for = _BandStepper(gen.up, gen.down, step), step
            yield stepper.__matmul__ if step > 0.0 else None

    mean_n, p0, top = _record(initial.populations, gaps(), times.size)
    _warn_tail(top.max(), "evolution")
    return EvolutionTrace(times=times, mean_n=mean_n, p0=p0)


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
    strobe period, ``evolve`` from the generator's bands for the gaps
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
    (down_l - up_l)^2 / (down_l + up_l)) sub-steps h = dt/m.

    Each sub-step holds the one clamp rule of stepped populations: an entry
    below NEG_CLAMP or a NaN raises ConvergenceError (the stepper undershoots
    zero by less than 1e-13), a smaller undershoot is clamped to zero, and
    the input's total mass is restored.  A 2-d input is stepped column by
    column, each exactly as a vector; no returned array is reused.
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
        self._rhs = np.empty(main.size, dtype=complex)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        """exp(dt*L) @ v, one banded solve per sub-step."""
        v = np.asarray(v, dtype=float)
        if v.ndim == 2:
            return np.stack([self @ column for column in v.T], axis=1)
        mass = v.sum()
        blocks = self._rhs.reshape(self._shape)
        for _ in range(self.substeps):
            blocks[...] = v
            # half the stepped state: the factor 2 cancels in the mass step
            v = self._solve(self._rhs).real.reshape(self._shape).sum(axis=0)
            lowest = v.min()
            if not lowest >= 0.5 * NEG_CLAMP:  # a NaN fails too
                raise ConvergenceError(
                    f"stepped population went negative ({2.0 * lowest:.3e}); the "
                    "step did not meet its accuracy"
                )
            if lowest < 0.0:
                np.maximum(v, 0.0, out=v)
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
) -> EvolutionTrace:
    """Periodic-picture run: free damping for 1/r_a, then an instant kick.

    The mean phonon number is recorded immediately before and after every
    kick, so the steady-state sawtooth is visible.  Post-kick samples are
    timestamped min(tau, 0.5/r_a) after the kick instant to keep the trace
    times strictly increasing.  Samples alternate pre/post after the t=0
    entry: trace.mean_n[1::2] are pre-kick, [2::2] post-kick values.  The
    damping stepper checks every pre-kick state; a kick's weights are
    non-negative.  A top level above TAIL_TOL in any recorded state warns.
    """
    if n_kicks < 0:
        raise ValueError("n_kicks must be non-negative")
    _check_kick(params, kick, initial.n_max, "stroboscopic run")
    if params.r_a <= 0:
        raise ValueError("stroboscopic evolution needs r_a > 0")
    period = 1.0 / params.r_a
    prop = damping_propagator(params, initial.n_max, period)
    kicked = functools.partial(_kick_vector, kick=kick)

    def moves():
        yield None
        for _ in range(n_kicks):
            yield prop.__matmul__
            yield kicked

    # sample i follows kick (i + 1) // 2: pre-kick at odd i, post-kick at even
    times = (np.arange(2 * n_kicks + 1) + 1) // 2 * period
    times[2::2] += min(params.tau, 0.5 * period)
    mean_n, p0, top = _record(initial.populations, moves(), times.size)
    _warn_tail(top.max(), "stroboscopic run")
    return EvolutionTrace(times=times, mean_n=mean_n, p0=p0)


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


def _ground_component(gen: GeneratorMatrix) -> tuple[float, int, np.ndarray, np.ndarray]:
    """The rate scale, the top level and the up and down bands of gen's ground component.

    The component ends below the first cut (both rates across it vanish), a
    cut that a UserWarning reports to the route's caller; the chain's
    largest diagonal magnitude is the rate scale, and a zero scale raises
    DegenerateKernelError.
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
            stacklevel=3,
        )
    return scale, top, gen.up[:top], gen.down[:top]


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
    scale, top, up, down = _ground_component(gen)
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

    Solves on the ground-state component, as ``steady_state_numeric`` does,
    with the same warning for a cut and zeros above it; a cut at level 0
    gives the vacuum.  Starts from the bath's thermal distribution, cut to
    the component and renormalised, and takes up to 400 unconditionally
    stable implicit-Euler macro-steps (I - dt*G) P' = P, each one solve on a
    single ``_tridiagonal_lu`` of I - dt*G; their fixed point satisfies
    G P = 0 exactly.  Iteration stops once the gap-normalized residual
    ||G P||_inf / gap_rate is at 1e-12 or has stopped improving at the
    floating-point floor.
    """
    scale, top, up, down = _ground_component(gen)
    full = np.zeros(gen.n_max + 1)
    if top == 0:
        full[0] = 1.0
        return _result_from_populations(full, gen.kick, LONG_TIME)
    if gen.params.kappa > 0:
        gap = gen.params.kappa
    else:
        positive = down[down > 1e-15 * scale]
        if positive.size == 0:
            raise DegenerateKernelError("no relaxation channel: gap estimate is zero")
        gap = positive.min()
    dt = 20.0 / gap
    diag = _diagonal(up, down)
    solve = _tridiagonal_lu(-dt * up, 1.0 - dt * diag, -dt * down)

    state = thermal_distribution(gen.params.n_th, gen.n_max).populations[: top + 1]
    state = state / state.sum()
    best_res, stall = np.inf, 0
    for _ in range(400):
        state = solve(state)  # in place: best keeps its own copy
        np.maximum(state, 0.0, out=state)
        state /= state.sum()
        res = np.abs(_apply(up, diag, down, state)).max() / gap
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
    full[: top + 1] = best
    return _result_from_populations(full, gen.kick, LONG_TIME)
