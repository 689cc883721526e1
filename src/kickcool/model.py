"""Phonon populations and the resonant qubit-kick map acting on them.

The resonator state is a probability vector over number states 0..n_max.
A kick couples the mode to a freshly reset two-level system for a time tau
at resonance; tracing the qubit out moves population between neighbouring
levels only, with weights set by the pulse area theta = g*tau.  Both the
kick and thermal damping preserve diagonality, so populations are the
complete state.

All rates and angular frequencies are in SI units (1/s, rad/s).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass

import numpy as np

from .errors import TruncationOverflowWarning, ValidityWarning

TAIL_TOL = 1e-12
NEG_CLAMP = -1e-12
SUM_TOL = 1e-9


def _check_populations(
    p: np.ndarray, check_tail: bool = True, stacklevel: int = 2
) -> np.ndarray:
    """Apply the population invariants to every vector along the last axis of p.

    Entries in (-1e-12, 0) are rounding noise: a vector holding one is
    clamped to zero and renormalised, in place.  A non-finite entry, an
    entry more negative than that, or a vector that does not sum to 1
    within 1e-9 (such as one of rounding noise alone) raises ValueError.
    With check_tail, every vector whose top level holds more than TAIL_TOL
    warns once.  Every reduction runs along the last axis, so a vector of a
    block passes or fails, and comes out, exactly as it would on its own.
    Returns p.
    """
    if not np.isfinite(p).all():
        raise ValueError("populations contain non-finite entries")
    lowest = p.min(axis=-1)
    worst = lowest.min()
    if worst < NEG_CLAMP:
        raise ValueError(
            f"population entry {worst:.3e} is below the clamp threshold "
            f"{NEG_CLAMP:.0e}; this signals a bug, not rounding"
        )
    if worst < 0.0:
        noisy = lowest < 0.0
        clamped = np.maximum(p[noisy], 0.0)
        with np.errstate(invalid="ignore"):  # a vector of noise alone sums to 0
            clamped /= clamped.sum(axis=-1, keepdims=True)
        p[noisy] = clamped
    total = p.sum(axis=-1)
    off = ~(abs(total - 1.0) <= SUM_TOL)  # a NaN sum is off too
    if off.any():
        first = np.ravel(total)[np.argmax(off)]
        raise ValueError(f"populations sum to {first!r}, not 1 within {SUM_TOL:.0e}")
    if check_tail:
        for top in np.ravel(p[..., -1]):
            if top > TAIL_TOL:
                warnings.warn(
                    f"top-level population {top:.3e} exceeds tail tolerance "
                    f"{TAIL_TOL:.0e}; increase n_max",
                    TruncationOverflowWarning,
                    stacklevel=stacklevel + 1,
                )
    return p


@dataclass(frozen=True)
class PhononDistribution:
    """Probability distribution over phonon number states 0..n_max.

    The vector is copied and checked by _check_populations, the rules the
    sweep applies to a whole block of rows at once: entries in (-1e-12, 0)
    are treated as rounding noise, clamped to zero and the vector
    renormalized; anything more negative raises, since that signals a bug
    rather than floating-point dust.  A tail entry at the top level above
    TAIL_TOL triggers a truncation warning unless the producing operation
    already reported it.
    """

    populations: np.ndarray
    check_tail: InitVar[bool] = True

    def __post_init__(self, check_tail: bool) -> None:
        p = np.array(self.populations, dtype=float)
        if p.ndim != 1 or p.size < 2:
            raise ValueError("populations must be a 1-d vector of length >= 2")
        _check_populations(p, check_tail, stacklevel=3)
        p.setflags(write=False)
        object.__setattr__(self, "populations", p)

    @property
    def n_max(self) -> int:
        return self.populations.size - 1

    @property
    def p0(self) -> float:
        return float(self.populations[0])


@dataclass(frozen=True)
class KickMap:
    """Per-level transfer weights of one qubit kick with pulse area theta.

    ce2[n] = sin^2(theta*sqrt(n+1)) is the swap weight of the (n, n+1) pair;
    cg2[n] = cos^2(theta*sqrt(n)) is the survival weight of level n under a
    ground-state qubit.  p_e is the probability that the qubit enters the
    kick excited, which runs the same swap upward (phonon emission).

    The weights are stored read-only: a writable input is copied, while a
    read-only float array, such as a slice of another map's table, is kept.
    """

    ce2: np.ndarray
    cg2: np.ndarray
    p_e: float
    theta: float

    def __post_init__(self) -> None:
        for name in ("ce2", "cg2"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.flags.writeable:
                arr = arr.copy()
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.ce2.shape != self.cg2.shape:
            raise ValueError("ce2 and cg2 must have equal length")

    @property
    def n_max(self) -> int:
        return self.ce2.size - 1


@dataclass(frozen=True)
class ProtocolParams:
    """Model-level protocol parameters.

    g      : qubit-resonator coupling (rad/s)
    tau    : kick duration (s)
    r_a    : kick repetition rate (1/s)
    kappa  : resonator energy decay rate (1/s)
    n_th   : mean thermal phonon number of the environment
    p_e    : probability the qubit enters a kick in its excited state

    Zero r_a or kappa is accepted so that pure-damping and damping-free
    limits can be exercised.  Warns when the coarse-graining assumptions
    r_a*tau <= 0.5 and kappa*tau <= 0.01 are violated.
    """

    g: float
    tau: float
    r_a: float
    kappa: float
    n_th: float
    p_e: float = 0.0

    def __post_init__(self) -> None:
        if self.g <= 0 or self.tau <= 0:
            raise ValueError("g and tau must be positive")
        if self.r_a < 0 or self.kappa < 0:
            raise ValueError("r_a and kappa must be non-negative")
        if self.n_th < 0:
            raise ValueError("n_th must be non-negative")
        if not 0.0 <= self.p_e <= 1.0:
            raise ValueError("p_e must lie in [0, 1]")
        if self.r_a * self.tau > 0.5:
            warnings.warn(
                f"r_a*tau = {self.r_a * self.tau:.3g} > 0.5: kick duty cycle is "
                "not short against the repetition period",
                ValidityWarning,
                stacklevel=3,
            )
        if self.kappa * self.tau > 0.01:
            warnings.warn(
                f"kappa*tau = {self.kappa * self.tau:.3g} > 0.01: damping during "
                "the kick is not negligible",
                ValidityWarning,
                stacklevel=3,
            )

    @property
    def theta(self) -> float:
        """Pulse area g*tau."""
        return self.g * self.tau

    @property
    def ra_over_kappa(self) -> float:
        return self.r_a / self.kappa if self.kappa > 0 else math.inf


def build_kick_map(g: float, tau: float, p_e: float, n_max: int) -> KickMap:
    """Tabulate the kick transfer weights for levels 0..n_max."""
    if g <= 0 or tau <= 0:
        raise ValueError("g and tau must be positive")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must lie in [0, 1]")
    theta = g * tau
    n = np.arange(n_max + 1)
    ce2 = np.sin(theta * np.sqrt(n + 1.0)) ** 2
    cg2 = np.cos(theta * np.sqrt(n.astype(float))) ** 2
    return KickMap(ce2=ce2, cg2=cg2, p_e=float(p_e), theta=theta)


def _kick_vector(
    p: np.ndarray, kick: KickMap, survival: np.ndarray | None = None
) -> np.ndarray:
    """Apply one kick to a raw population vector (no validation).

    survival is 1 - kick.ce2 when the caller has it tabulated already; it is
    computed here otherwise.
    """
    down = kick.cg2 * p
    down[:-1] += kick.ce2[:-1] * p[1:]
    if kick.p_e == 0.0:
        return down
    # excited branch: survival cos^2(theta*sqrt(n+1)) = 1 - ce2[n]; the top
    # level has no partner above and is left untouched (reflecting edge).
    up = (1.0 - kick.ce2 if survival is None else survival) * p
    up[-1] = p[-1]
    up[1:] += kick.ce2[:-1] * p[:-1]
    # in place, the same floats as (1 - p_e) * down + p_e * up
    down *= 1.0 - kick.p_e
    up *= kick.p_e
    down += up
    return down


def apply_kick(dist: PhononDistribution, kick: KickMap) -> PhononDistribution:
    """One kick on a population vector.

    p'_n = (1-p_e) [cg2[n] p_n + ce2[n] p_{n+1}]
         +    p_e  [(1-ce2[n]) p_n + ce2[n-1] p_{n-1}]

    Probability is conserved exactly up to rounding; the result is
    renormalized only if the drift exceeds 1e-12, in which case the drift
    is reported.  With p_e > 0 the upward branch can push mass into the top
    level, which is reported as truncation overflow.
    """
    p = dist.populations
    if kick.n_max != dist.n_max:
        raise ValueError(
            f"kick sized for n_max={kick.n_max} applied to distribution with "
            f"n_max={dist.n_max}"
        )
    out = _kick_vector(p, kick)
    if kick.p_e > 0.0:
        inflow_top = kick.p_e * kick.ce2[-2] * p[-2]
        if inflow_top > TAIL_TOL:
            warnings.warn(
                f"excited-qubit branch moved {inflow_top:.3e} into the top level; "
                "truncation is too tight for this kick",
                TruncationOverflowWarning,
                stacklevel=2,
            )
    drift = out.sum() - p.sum()
    if abs(drift) > 1e-12:
        warnings.warn(
            f"kick changed total probability by {drift:.3e}; renormalizing",
            ValidityWarning,
            stacklevel=2,
        )
        out /= out.sum()
    return PhononDistribution(out, check_tail=False)


def mean_phonon(dist: PhononDistribution) -> float:
    """Mean phonon number sum_n n*p_n."""
    p = dist.populations
    return float(np.arange(p.size) @ p)


def thermal_distribution(n_th: float, n_max: int) -> PhononDistribution:
    """Thermal (geometric) distribution p_n ~ [n_th/(n_th+1)]^n on 0..n_max."""
    if n_th < 0:
        raise ValueError("n_th must be non-negative")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    q = n_th / (n_th + 1.0)
    if q > 0 and q**n_max > TAIL_TOL:
        warnings.warn(
            f"thermal tail ratio {q**n_max:.3e} at n_max={n_max} exceeds "
            f"{TAIL_TOL:.0e}; increase n_max",
            TruncationOverflowWarning,
            stacklevel=2,
        )
    p = q ** np.arange(n_max + 1, dtype=float)
    p /= p.sum()
    return PhononDistribution(p, check_tail=False)


def number_state(n: int, n_max: int) -> PhononDistribution:
    """All population in a single number state n."""
    if not 0 <= n <= n_max:
        raise ValueError("need 0 <= n <= n_max")
    p = np.zeros(n_max + 1)
    p[n] = 1.0
    return PhononDistribution(p, check_tail=(n != n_max))


def default_n_max(n_th: float) -> int:
    """Truncation size keeping the thermal tail ratio below TAIL_TOL.

    Starts at max(60, ceil(20 + 12*n_th)) and grows by 50% until the
    thermal weight ratio [n_th/(n_th+1)]**n_max is below TAIL_TOL, the
    same condition thermal_distribution warns on.  Raises ValueError when
    n_th is so large (about 1e16 and above) that the ratio rounds to 1, so
    that no truncation meets the condition.
    """
    if n_th < 0:
        raise ValueError("n_th must be non-negative")
    n = max(60, math.ceil(20.0 + 12.0 * n_th))
    q = n_th / (n_th + 1.0)
    if q == 0.0:
        return n
    if q == 1.0:
        raise ValueError(
            f"n_th = {n_th!r} is too large to size a truncation: the thermal "
            "ratio n_th/(n_th+1) rounds to 1"
        )
    while q**n > TAIL_TOL:
        n = math.ceil(1.5 * n)
    return n
