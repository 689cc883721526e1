"""Dense reference forms of the kick, the generator and the damping
propagator, to check the banded code against."""
import numpy as np
from scipy.linalg import expm

from kickcool import GeneratorMatrix, KickMap, ProtocolParams


def kick_matrix(kick: KickMap) -> np.ndarray:
    """Dense column-stochastic matrix M of the kick acting on populations."""
    size = kick.n_max + 1
    idx = np.arange(size - 1)
    m = np.zeros((size, size))
    m[np.arange(size), np.arange(size)] = (1.0 - kick.p_e) * kick.cg2
    m[-1, -1] += kick.p_e  # reflecting top level in the excited branch
    m[np.arange(size - 1), np.arange(size - 1)] += kick.p_e * (1.0 - kick.ce2[:-1])
    m[idx, idx + 1] += (1.0 - kick.p_e) * kick.ce2[:-1]
    m[idx + 1, idx] += kick.p_e * kick.ce2[:-1]
    return m


def generator_matrix(gen: GeneratorMatrix) -> np.ndarray:
    """Dense (n_max+1)x(n_max+1) form of the generator's three stored bands."""
    size = gen.n_max + 1
    idx = np.arange(size - 1)
    m = np.zeros((size, size))
    m[np.arange(size), np.arange(size)] = gen.diag
    m[idx + 1, idx] = gen.up  # l -> l+1 below the diagonal
    m[idx, idx + 1] = gen.down  # l+1 -> l above it
    return m


def damping_matrix(params: ProtocolParams, n_max: int, dt: float) -> np.ndarray:
    """Dense exp(L dt) of the damping-only generator, by scipy's expm."""
    size = n_max + 1
    levels = np.arange(1, size, dtype=float)
    up = params.kappa * params.n_th * levels
    down = params.kappa * (params.n_th + 1.0) * levels
    idx = np.arange(size - 1)
    m = np.zeros((size, size))
    m[idx + 1, idx] = up
    m[idx, idx + 1] = down
    m[np.arange(size), np.arange(size)] = -m.sum(axis=0)
    return expm(m * dt)
