"""Exact finite-dimensional reference for the kick map.

Builds the full resonator (x) qubit unitary for one resonant interaction
window, conjugates an embedded diagonal state, and traces the qubit out.
This is the brute-force check that the populations-only kick is exact on
diagonal states, not an approximation.  It is intentionally slow and
explicit; production code never calls it.
"""
from __future__ import annotations

import warnings

import numpy as np

from .errors import DiagonalClosureError, TruncationOverflowWarning
from .model import TAIL_TOL, PhononDistribution

# basis ordering: |n, q> -> 2n + q with q = 0 (ground), 1 (excited)


def jc_unitary(g: float, tau: float, n_max: int) -> np.ndarray:
    """Resonant-interaction unitary on the (n_max+1) x 2 product space.

    |g,0> is invariant; each pair {|g,n+1>, |e,n>} rotates by the block
    [[cos(t_n), -i sin(t_n)], [-i sin(t_n), cos(t_n)]] with
    t_n = g*tau*sqrt(n+1).  The pair that would reach past n_max is dropped
    to the identity, so |e,n_max> is left untouched (hard truncation).
    """
    if g <= 0:
        raise ValueError("g must be positive")
    if tau < 0:
        raise ValueError("tau must be non-negative")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    dim = 2 * (n_max + 1)
    u = np.eye(dim, dtype=complex)
    for n in range(n_max):
        theta_n = g * tau * np.sqrt(n + 1.0)
        i_g = 2 * (n + 1)      # |g, n+1>
        i_e = 2 * n + 1        # |e, n>
        c, s = np.cos(theta_n), np.sin(theta_n)
        u[i_g, i_g] = c
        u[i_e, i_e] = c
        u[i_g, i_e] = -1j * s
        u[i_e, i_g] = -1j * s
    return u


def embed_bipartite(dist: PhononDistribution, p_e: float) -> np.ndarray:
    """Diagonal resonator state tensored with the qubit reset mixture."""
    if not 0.0 <= p_e <= 1.0:
        raise ValueError("p_e must lie in [0, 1]")
    qubit = np.array([[1.0 - p_e, 0.0], [0.0, p_e]])
    return np.kron(np.diag(dist.populations), qubit).astype(complex)


def kick_oracle(
    dist: PhononDistribution, g: float, tau: float, p_e: float
) -> PhononDistribution:
    """One kick computed on the full bipartite space.

    Embeds the populations as a diagonal density matrix, conjugates by the
    interaction unitary, traces out the qubit and extracts the diagonal.
    Raises if the traced state develops off-diagonal resonator elements
    beyond 1e-12, which would mean the populations-only model is wrong.
    """
    p = dist.populations
    n_max = dist.n_max
    if p[-1] > TAIL_TOL or p[-2] > TAIL_TOL:
        warnings.warn(
            "input has non-negligible mass at the top two levels; the "
            "truncated interaction block distorts the result there",
            TruncationOverflowWarning,
            stacklevel=2,
        )
    rho = embed_bipartite(dist, p_e)
    u = jc_unitary(g, tau, n_max)
    sigma = u @ rho @ u.conj().T
    # partial trace over the qubit: rho'[m, n] = sigma[2m, 2n] + sigma[2m+1, 2n+1]
    reduced = sigma[0::2, 0::2] + sigma[1::2, 1::2]
    off = reduced - np.diag(np.diag(reduced))
    worst = np.abs(off).max()
    if worst > 1e-12:
        raise DiagonalClosureError(
            f"traced state has off-diagonal element {worst:.3e} > 1e-12"
        )
    diag = np.real(np.diag(reduced)).copy()
    return PhononDistribution(diag, check_tail=False)
