"""Model invariants checked on generated protocol parameters."""
import math
from dataclasses import replace

import numpy as np
from hypothesis import assume, given
from hypothesis import strategies as st

from kickcool import (
    NonNormalizableError,
    PhononDistribution,
    ProtocolParams,
    apply_kick,
    build_generator,
    build_kick_map,
    default_n_max,
    kick_oracle,
    steady_state_analytic,
    steady_state_longtime,
    steady_state_numeric,
)
from kickcool.corrections import _decayed_coupling, _fidelity_profile

G = 2 * math.pi * 1e7
KAPPA = math.pi * 1e3

thetas = st.floats(
    0.0, 2 * math.pi, exclude_min=True, exclude_max=True, allow_subnormal=False
)


@st.composite
def protocols(draw):
    """n_th in 1e-2..10 (n_max <= 315), r_a/kappa in 1e-1..1e3, p_e below
    the normalizability bound (n_th+1)/(2 n_th+1)."""
    n_th = 10.0 ** draw(st.floats(-2.0, 1.0))
    ra_over_kappa = 10.0 ** draw(st.floats(-1.0, 3.0))
    bound = (n_th + 1.0) / (2.0 * n_th + 1.0)
    p_e = bound * draw(st.floats(0.0, 1.0, exclude_max=True))
    return ProtocolParams(
        g=G,
        tau=draw(thetas) / G,
        r_a=ra_over_kappa * KAPPA,
        kappa=KAPPA,
        n_th=n_th,
        p_e=p_e,
    )


@given(protocols())
def test_steady_state_routes_agree(params):
    n_max = default_n_max(params.n_th)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    try:
        analytic = steady_state_analytic(params, kick, n_max)
    except NonNormalizableError:
        assume(False)
    gen = build_generator(params, kick, n_max)
    routes = [
        result.populations.populations
        for result in (analytic, steady_state_numeric(gen), steady_state_longtime(gen))
    ]
    worst = max(np.abs(a - b).max() for i, a in enumerate(routes) for b in routes[i + 1:])
    assert worst <= 1e-8


@given(
    st.integers(2, 20).flatmap(
        lambda n_max: st.lists(st.floats(0.0, 1.0), min_size=n_max - 1, max_size=n_max - 1)
    ),
    thetas,
    st.floats(0.0, 1.0),
)
def test_kick_conserves_probability_and_matches_oracle(body, theta, p_e):
    # the top two levels stay empty, clear of the oracle's truncated block
    assume(sum(body) > 0.0)
    populations = np.zeros(len(body) + 2)
    populations[: len(body)] = np.array(body) / sum(body)
    dist = PhononDistribution(populations)
    kicked = apply_kick(dist, build_kick_map(theta, 1.0, p_e, dist.n_max))
    assert abs(kicked.populations.sum() - populations.sum()) <= 1e-12
    oracle = kick_oracle(dist, g=theta, tau=1.0, p_e=p_e)
    assert np.abs(kicked.populations - oracle.populations).max() <= 1e-12


@given(
    protocols(),
    st.integers(1, 400),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1e3),
)
def test_generator_is_a_markov_generator(params, n_max, p_e, n_th):
    # p_e and n_th beyond the normalizability bound still give a valid generator
    point = replace(params, n_th=n_th, p_e=p_e)
    dense = build_generator(point, build_kick_map(point.g, point.tau, p_e, n_max), n_max).to_dense()
    scale = np.abs(np.diag(dense)).max()
    assert np.abs(dense.sum(axis=0)).max() <= 1e-14 * scale
    off_diagonal = dense - np.diag(np.diag(dense))
    assert off_diagonal.min() >= 0.0


@given(
    thetas,
    st.integers(2, 5000).flatmap(lambda top: st.tuples(st.integers(1, top - 1), st.just(top))),
    st.floats(0.0, 1e7),
)
def test_sliced_tabulation_equals_fresh_tabulation_bitwise(theta, sizes, gamma0):
    # the sweep tabulates once at the largest n_max and slices per point
    n_max, top = sizes
    params = ProtocolParams(g=G, tau=theta / G, r_a=0.0, kappa=KAPPA, n_th=0.0)
    table = build_kick_map(params.g, params.tau, 0.0, top)
    fresh = build_kick_map(params.g, params.tau, 0.0, n_max)
    assert table.ce2[: n_max + 1].tobytes() == fresh.ce2.tobytes()
    assert table.cg2[: n_max + 1].tobytes() == fresh.cg2.tobytes()
    levels = np.arange(1, top + 1, dtype=float)
    profile = _fidelity_profile(gamma0, params.g, params.tau, levels)
    fresh_levels = np.arange(1, n_max + 1, dtype=float)
    fresh_profile = _fidelity_profile(gamma0, params.g, params.tau, fresh_levels)
    assert profile[:n_max].tobytes() == fresh_profile.tobytes()
    coupling = _decayed_coupling(params, gamma0, table)
    assert coupling[:n_max].tobytes() == _decayed_coupling(params, gamma0, fresh).tobytes()
