import functools
import itertools
import time
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from kickcool import (
    ConvergenceError,
    DegenerateKernelError,
    EvolutionTrace,
    GeneratorMatrix,
    NonNormalizableError,
    ProtocolParams,
    TAIL_TOL,
    TruncationOverflowWarning,
    build_generator,
    build_kick_map,
    damping_propagator,
    default_n_max,
    dynamics,
    evolve,
    evolve_stroboscopic,
    kick_fluctuation,
    mean_phonon,
    model,
    number_state,
    steady_state_analytic,
    steady_state_longtime,
    steady_state_numeric,
    thermal_distribution,
)

from kick_reference import damping_matrix, generator_matrix, kick_matrix

G_REF = 2 * np.pi * 1e7
KAPPA_REF = np.pi * 1e3


def make_params(n_th, ra_over_kappa, theta, p_e=0.0, kappa=KAPPA_REF):
    return ProtocolParams(
        g=G_REF,
        tau=theta / G_REF,
        r_a=ra_over_kappa * kappa,
        kappa=kappa,
        n_th=n_th,
        p_e=p_e,
    )


def demo_setup(n_max=60):
    """Slow transient-demo point: n_th = 1.7, r_a/kappa = 133, theta = pi/8."""
    params = make_params(1.7, 133.0, np.pi / 8.0)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    return params, kick, build_generator(params, kick, n_max)


def count_lu(monkeypatch):
    """Count the factorisations of ``dynamics._tridiagonal_lu`` and their solves."""
    counts = Counter()
    lu = dynamics._tridiagonal_lu

    def counting(*bands):
        counts["factorisations"] += 1
        solve = lu(*bands)

        def counted_solve(rhs):
            counts["solves"] += 1
            return solve(rhs)

        return counted_solve

    monkeypatch.setattr(dynamics, "_tridiagonal_lu", counting)
    return counts


def stepped_states(state, moves):
    """``state``, then the state after each move in turn.

    The test-side loop behind ``evolve`` and ``evolve_stroboscopic``: a move
    is a ``dynamics._BandStepper``'s ``@`` or a kick, applied directly.
    """
    yield state
    for move in moves:
        state = move(state)
        yield state


def strobe_moves(params, kick, n_kicks):
    """A strobe run's moves: one damping period, then one kick, n_kicks times."""
    prop = damping_propagator(params, kick.n_max, 1.0 / params.r_a)
    return [prop.__matmul__, functools.partial(model._kick_vector, kick=kick)] * n_kicks


def observables(states):
    """mean_n and p0 of each state, reduced as a recorded trace reduces them."""
    states = list(states)
    levels = np.arange(states[0].size, dtype=float)
    return (
        np.array([model._level_mean(levels, state) for state in states]),
        np.array([state[0] for state in states]),
    )


def evolve_cell(n_th, ra_over_kappa, theta):
    """The benchmark's evolve grid, 120 periods in 481 samples, and its states.

    The states are stepped by the test-side loop with one stepper for the
    grid's first gap, which ``evolve`` keeps for every gap of the grid.
    """
    params = make_params(n_th, ra_over_kappa, theta)
    n_max = default_n_max(n_th)
    kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
    gen = build_generator(params, kick, n_max)
    initial = thermal_distribution(n_th, n_max)
    times = np.linspace(0.0, 120.0 / params.r_a, 481)
    stepper = dynamics._BandStepper(gen.up, gen.down, times[1])
    states = stepped_states(initial.populations, [stepper.__matmul__] * (times.size - 1))
    return gen, initial, times, states


EVOLVE_CELLS = pytest.mark.parametrize(
    "n_th, ra_over_kappa, theta",
    [
        (1.7, 200.0, 1.0),
        (10.0, 190.0, 1.0),
        (10.0, 12.0, 1.0),
        (30.0, 200.0, 1.0),
        (5.0, 1000.0, np.pi / 2.0),
    ],
    ids=["evolve-60", "evolve-315", "evolve-315-stiff", "evolve-855", "trapping-node"],
)


class TestGenerator:
    def test_columns_sum_to_zero(self):
        _, _, gen = demo_setup()
        dense = generator_matrix(gen)
        scale = np.abs(dense).max()
        assert np.abs(dense.sum(axis=0)).max() < 1e-12 * scale

    def test_offdiagonal_rates_nonnegative(self):
        _, _, gen = demo_setup()
        dense = generator_matrix(gen)
        off = dense - np.diag(np.diag(dense))
        assert off.min() >= 0.0

    def test_matches_kick_plus_damping_assembly(self):
        params, kick, gen = demo_setup(40)
        size = 41
        levels = np.arange(1, size, dtype=float)
        up = params.kappa * params.n_th * levels
        down = params.kappa * (params.n_th + 1.0) * levels
        damping = np.zeros((size, size))
        idx = np.arange(size - 1)
        damping[idx + 1, idx] = up
        damping[idx, idx + 1] = down
        damping[np.arange(size), np.arange(size)] = -np.concatenate(
            (up, [0.0])
        ) - np.concatenate(([0.0], down))
        direct = params.r_a * (kick_matrix(kick) - np.eye(size)) + damping
        dense = generator_matrix(gen)
        scale = np.abs(dense).max()
        np.testing.assert_allclose(dense, direct, atol=1e-12 * scale)

    # n_max 30 runs the dense SVD, 700 the pinned tridiagonal LU
    @pytest.mark.parametrize("n_max", [30, 700])
    def test_pure_decay_relaxes_to_vacuum(self, n_max):
        params = ProtocolParams(
            g=G_REF, tau=1e-8, r_a=0.0, kappa=KAPPA_REF, n_th=0.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, n_max)
        gen = build_generator(params, kick, n_max)
        result = steady_state_numeric(gen)
        assert result.populations.populations[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_max", [30, 700])
    def test_undamped_full_swap_empties_into_vacuum(self, n_max):
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 2) / G_REF, r_a=1e6, kappa=0.0, n_th=0.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, n_max)
        gen = build_generator(params, kick, n_max)
        with pytest.warns(UserWarning):  # chain disconnects at the swap nodes
            result = steady_state_numeric(gen)
        assert result.populations.populations[0] == pytest.approx(1.0, abs=1e-12)

    def test_size_mismatch(self):
        params, kick, _ = demo_setup(20)
        with pytest.raises(ValueError):
            build_generator(params, kick, 30)

    def test_apply_matches_dense_product(self):
        _, _, gen = demo_setup()
        x = np.random.default_rng(5).random(gen.n_max + 1)
        dense = generator_matrix(gen)
        scale = np.abs(dense).max() * np.abs(x).max()
        np.testing.assert_allclose(gen.apply(x), dense @ x, rtol=0, atol=1e-14 * scale)

    def test_bands_are_read_only(self):
        _, _, gen = demo_setup()
        with pytest.raises(ValueError):
            gen.up[0] = 1.0

    @pytest.mark.parametrize(
        "up, down",
        [
            (np.ones(4), np.ones(5)),
            (np.ones((2, 2)), np.ones((2, 2))),
            (np.array([1.0, -1e-3, 1.0]), np.ones(3)),
            (np.ones(3), np.array([1.0, np.nan, 1.0])),
            (np.ones(3), np.array([1.0, np.inf, 1.0])),
        ],
    )
    def test_malformed_bands_rejected(self, up, down):
        params, kick, _ = demo_setup(3)
        with pytest.raises(ValueError):
            GeneratorMatrix(up=up, down=down, params=params, kick=kick)

    def test_banded_routes_stay_small_at_n_th_100(self):
        # the dense generator alone would be 8*(n_max+1)^2 = 136 MB here
        params = make_params(100.0, 100.0, np.pi / 2.0)
        n_max = default_n_max(params.n_th)
        assert n_max == 4118
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        t_end = 2.0 / params.r_a
        tracemalloc.start()
        try:
            gen = build_generator(params, kick, n_max)
            steady_state_longtime(gen)
            evolve(
                thermal_distribution(params.n_th, n_max),
                gen,
                t_end,
                sample_times=np.linspace(0.0, t_end, 3),
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20e6


def random_bands(rng, n, dtype):
    def draw(size):
        x = rng.standard_normal(size)
        return x + 1j * rng.standard_normal(size) if dtype is complex else x

    return draw(n - 1), draw(n), draw(n - 1), draw(n)


class TestTridiagonalLU:
    """``dynamics._tridiagonal_lu`` against a dense solve of the same matrix."""

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("diagonal", ["dominant", "small", "zero"])
    # scipy's wrappers take three unknowns or more: 1 and 2 are padded
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 301])
    def test_matches_dense_solve(self, n, diagonal, dtype):
        rng = np.random.default_rng(n)
        lower, main, upper, rhs = random_bands(rng, n, dtype)
        # a small diagonal, or a zero one but for its last entry (nonsingular
        # at any size), needs a row swap at every step
        if diagonal == "dominant":
            main += 4.0
        elif diagonal == "small":
            main *= 1e-9
        else:
            main[:-1] = 0.0
        dense = np.diag(main) + np.diag(lower, -1) + np.diag(upper, 1)
        solve = dynamics._tridiagonal_lu(lower.copy(), main.copy(), upper.copy())
        # the factors serve every later right-hand side
        for b in (rhs, rng.standard_normal(n).astype(dtype)):
            expected = np.linalg.solve(dense, b)
            got = solve(b.copy())
            assert got.dtype == np.dtype(dtype)
            bound = 1e-14 * np.linalg.cond(dense) * np.abs(expected).max()
            np.testing.assert_allclose(got, expected, rtol=0, atol=bound)

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize(
        "lower, main, upper",
        [
            ([1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 0.0]),
            ([0.0, 1.0], [0.0, 2.0, 2.0], [1.0, 1.0]),
            ([], [0.0], []),
            ([1.0], [1.0, 1.0], [1.0]),
        ],
        ids=["equal-rows", "zero-column", "one-zero-unknown", "two-equal-rows"],
    )
    def test_exactly_zero_pivot_raises(self, lower, main, upper, dtype):
        bands = (np.array(band, dtype=dtype) for band in (lower, main, upper))
        with pytest.raises(FloatingPointError, match="factorisation failed"):
            dynamics._tridiagonal_lu(*bands)

    @pytest.mark.parametrize("dtype, prefix", [(np.float64, "d"), (np.complex128, "z")])
    def test_band_dtype_picks_the_routines(self, monkeypatch, dtype, prefix):
        lapack = dynamics._flapack()
        used = []

        class Recording:
            def __getattr__(self, name):
                used.append(name)
                return getattr(lapack, name)

        monkeypatch.setattr(dynamics, "_flapack", Recording)
        off, main = np.ones(2, dtype=dtype), np.full(3, 4.0, dtype=dtype)
        x = dynamics._tridiagonal_lu(off.copy(), main, off)(np.ones(3, dtype=dtype))
        assert used == [prefix + "gttrf", prefix + "gttrs"]
        assert x.dtype == dtype


class TestEvolve:
    def test_steady_state_is_fixed_point(self):
        params, kick, gen = demo_setup()
        steady = steady_state_analytic(params, kick, 60)
        t_end = 20.0 / params.r_a
        trace = evolve(steady.populations, gen, t_end)
        assert np.abs(trace.mean_n - steady.mean_n_s).max() < 1e-8

    def test_thermal_relaxation_closed_form(self):
        # pure damping lifts the vacuum as n_th (1 - exp(-kappa t))
        params = ProtocolParams(
            g=G_REF, tau=1e-8, r_a=0.0, kappa=KAPPA_REF, n_th=1.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 60)
        gen = build_generator(params, kick, 60)
        t_end = 5.0 / params.kappa
        times = np.linspace(0.0, t_end, 101)
        trace = evolve(number_state(0, 60), gen, t_end, sample_times=times)
        exact = params.n_th * (1.0 - np.exp(-params.kappa * times))
        rel = np.abs(trace.mean_n[1:] - exact[1:]) / exact[1:]
        assert rel.max() < 1e-6

    def test_transient_reaches_steady_by_sixty_periods(self):
        params, kick, gen = demo_setup()
        steady = steady_state_analytic(params, kick, 60)
        t_end = 90.0 / params.r_a
        times = np.linspace(0.0, t_end, 361)
        trace = evolve(thermal_distribution(1.7, 60), gen, t_end, sample_times=times)
        at_sixty = np.searchsorted(times * params.r_a, 60.0)
        assert abs(trace.mean_n[at_sixty] - steady.mean_n_s) < 0.01 * steady.mean_n_s

    def test_sample_validation(self):
        params, kick, gen = demo_setup()
        with pytest.raises(ValueError):
            evolve(thermal_distribution(1.7, 60), gen, -1.0)
        with pytest.raises(ValueError):
            evolve(
                thermal_distribution(1.7, 60),
                gen,
                1.0,
                sample_times=np.array([0.0, 2.0]),
            )

    @pytest.mark.parametrize(
        "fields",
        [
            {"times": [0.0, 1.0], "mean_n": [1.0], "p0": [0.5, 0.5]},
            {"times": [0.0, 1.0], "mean_n": [1.0, 1.0], "p0": [0.5, 0.5, 0.5]},
        ],
    )
    def test_trace_rejects_mismatched_lengths(self, fields):
        with pytest.raises(ValueError):
            EvolutionTrace(**fields)

    @pytest.mark.parametrize(
        "n_th, ra_over_kappa, theta",
        [(1.7, 133.0, np.pi / 8.0), (10.0, 147.0, 1.0)],
        ids=["fig2-n_max-60", "n_max-315"],
    )
    def test_matches_stepped_expm(self, n_th, ra_over_kappa, theta):
        # reference: one exp(G dt) applied sample to sample, which agrees with
        # exp(G t) at every sample time to a few 1e-13
        params = make_params(n_th, ra_over_kappa, theta)
        n_max = default_n_max(n_th)
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        gen = build_generator(params, kick, n_max)
        initial = thermal_distribution(n_th, n_max)
        t_end = 120.0 / params.r_a
        times = np.linspace(0.0, t_end, 481)
        trace = evolve(initial, gen, t_end, sample_times=times)

        step = expm(generator_matrix(gen) * (times[1] - times[0]))
        levels = np.arange(n_max + 1, dtype=float)
        state = initial.populations.copy()
        ref_mean, ref_p0 = [levels @ state], [state[0]]
        for _ in times[1:]:
            state = step @ state
            ref_mean.append(levels @ state)
            ref_p0.append(state[0])
        assert np.abs(trace.mean_n - ref_mean).max() < 1e-8
        assert np.abs(trace.p0 - ref_p0).max() < 1e-8

    @EVOLVE_CELLS
    def test_every_population_matches_expm(self, n_th, ra_over_kappa, theta):
        # every 60th state of the benchmark's evolve grid against exp(G t) p0,
        # computed as one dense expm(G t_60) applied k times: within 2.5e-13
        # of expm(G t) itself on these points, at one expm per case.  Longer
        # windows fail the reference, not the stepper: at the trapping node
        # and kappa t = 8, expm(G t) and its stepped form differ by 1.5e-12
        gen, initial, times, states = evolve_cell(n_th, ra_over_kappa, theta)
        step = expm(generator_matrix(gen) * times[60])
        reference = initial.populations
        for state in itertools.islice(states, 0, None, 60):
            assert np.abs(state - reference).max() <= 1e-12
            reference = step @ reference

    @EVOLVE_CELLS
    def test_samples_are_the_stepped_states(self, n_th, ra_over_kappa, theta):
        # with the test above, this checks every population evolve records
        gen, initial, times, states = evolve_cell(n_th, ra_over_kappa, theta)
        trace = evolve(initial, gen, times[-1], sample_times=times)
        mean_n, p0 = observables(states)
        assert trace.mean_n.tobytes() == mean_n.tobytes()
        assert trace.p0.tobytes() == p0.tobytes()

    def test_linspace_grid_costs_one_factorisation(self, monkeypatch):
        params, _, gen = demo_setup()
        counts = count_lu(monkeypatch)
        t_end = 120.0 / params.r_a
        times = np.linspace(0.0, t_end, 481)
        assert np.unique(np.diff(times)).size > 1  # the gaps differ in their last bits
        evolve(thermal_distribution(1.7, 60), gen, t_end, sample_times=times)
        assert counts["factorisations"] == 1

    def test_alternating_gaps_match_fresh_steppers(self, monkeypatch):
        # one stepper at a time: each change of gap builds a new one, and
        # every sample is bitwise what a fresh stepper for its gap gives
        params, _, gen = demo_setup()
        gaps = np.tile([0.5, 0.75], 4) / params.r_a
        times = np.cumsum(np.r_[0.0, gaps])
        initial = thermal_distribution(1.7, 60)
        counts = count_lu(monkeypatch)
        trace = evolve(initial, gen, times[-1], sample_times=times)
        assert counts["factorisations"] == gaps.size
        monkeypatch.undo()
        fresh = [dynamics._BandStepper(gen.up, gen.down, gap).__matmul__ for gap in np.diff(times)]
        mean_n, p0 = observables(stepped_states(initial.populations, fresh))
        assert trace.mean_n.tobytes() == mean_n.tobytes()
        assert trace.p0.tobytes() == p0.tobytes()

    @pytest.mark.parametrize("mode", ["evolve", "strobe"])
    def test_memory_grows_with_levels_plus_rows(self, mode):
        # 20001 levels and 481 samples (or 401 strobe samples): a block of
        # every sampled state would hold 77 MB, and evolve peaked at 168 MB
        # when it kept one.  The stepper holds about 0.7 kB per level, and a
        # row is a few floats, so the bound stays below 20 MB here
        params = make_params(100.0, 133.0, np.pi / 8.0)
        n_max = 20000
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        initial = thermal_distribution(params.n_th, n_max)
        gen = build_generator(params, kick, n_max)
        times = np.linspace(0.0, 5.0 / params.r_a, 481)
        tracemalloc.start()
        try:
            if mode == "evolve":
                trace = evolve(initial, gen, times[-1], sample_times=times)
            else:
                trace = evolve_stroboscopic(initial, params, kick, 200)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        bound = 800 * (n_max + 1) + 200 * trace.times.size
        assert bound < 20e6
        assert peak < bound

    @pytest.mark.parametrize("mode", ["evolve", "strobe"])
    def test_tail_warning_points_at_the_caller(self, mode):
        # the top level of number state 10 holds all the mass at t = 0
        params = make_params(0.0, 133.0, np.pi / 8.0)
        kick = build_kick_map(params.g, params.tau, params.p_e, 10)
        initial = number_state(10, 10)
        with pytest.warns(TruncationOverflowWarning) as caught:
            if mode == "evolve":
                evolve(initial, build_generator(params, kick, 10), 5.0 / params.r_a)
            else:
                evolve_stroboscopic(initial, params, kick, 5)
        assert [warning.filename for warning in caught] == [__file__]


class TestIntegratorNoise:
    """Every stepped state: undershoot down to -1e-12 is noise, below it a failure."""

    @staticmethod
    def populations():
        rng = np.random.default_rng(5)
        p = rng.random(12)
        return p / p.sum()

    @staticmethod
    def identity():
        # dt = 0: one sub-step of the rational exponential at 0, exp(0) = 1
        return dynamics._BandStepper(np.ones(11), 2.0 * np.ones(11), 0.0)

    def test_zero_step_returns_its_input(self):
        p = self.populations()
        out = self.identity() @ p
        assert out is not p
        assert np.abs(out - p).max() <= 4e-16

    def test_undershoot_row_is_clamped_and_renormalised(self):
        p = self.populations()
        # the vector still sums to 1; clamping the dip adds 5e-13 of mass
        p[6] += p[5] + 5e-13
        p[5] = -5e-13
        out = self.identity() @ p
        assert out[5] == 0.0
        assert out.min() >= 0.0
        assert out.sum() == pytest.approx(p.sum(), abs=2e-16)
        clamped = np.maximum(p, 0.0)
        assert np.abs(out - clamped * (p.sum() / clamped.sum())).max() <= 4e-16

    def test_undershoot_beyond_tolerance_raises(self):
        p = self.populations()
        p[6] += p[5] + 2e-12
        p[5] = -2e-12
        with pytest.raises(ConvergenceError, match="went negative"):
            self.identity() @ p

    def test_nan_raises(self):
        p = self.populations()
        p[3] = np.nan
        with pytest.raises(ConvergenceError, match="went negative"):
            self.identity() @ p

    def test_returned_states_are_never_reused(self):
        params, _, gen = demo_setup()
        stepper = dynamics._BandStepper(gen.up, gen.down, 1.0 / params.r_a)
        first = stepper @ thermal_distribution(1.7, 60).populations
        kept = first.copy()
        second = stepper @ first
        assert second is not first
        assert first.tobytes() == kept.tobytes()


class TestStroboscopic:
    def test_single_swap_then_inert(self):
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 2) / G_REF, r_a=1e6, kappa=0.0, n_th=0.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 10)
        trace = evolve_stroboscopic(number_state(1, 10), params, kick, 4)
        post = trace.mean_n[2::2]
        np.testing.assert_allclose(post, 0.0, atol=1e-12)

    def test_snapshots_follow_every_sample(self):
        # every sample is bitwise the state that period or kick made
        params, kick, _ = demo_setup()
        initial = thermal_distribution(1.7, 60)
        trace = evolve_stroboscopic(initial, params, kick, 5)
        assert trace.times.size == 11
        mean_n, p0 = observables(stepped_states(initial.populations, strobe_moves(params, kick, 5)))
        assert trace.mean_n.tobytes() == mean_n.tobytes()
        assert trace.p0.tobytes() == p0.tobytes()

    def test_zero_kicks_returns_initial(self):
        params, kick, _ = demo_setup()
        initial = thermal_distribution(1.7, 60)
        trace = evolve_stroboscopic(initial, params, kick, 0)
        assert trace.times.size == 1
        assert trace.mean_n[0] == pytest.approx(mean_phonon(initial))

    def test_times_strictly_increasing(self):
        params, kick, _ = demo_setup()
        trace = evolve_stroboscopic(thermal_distribution(1.7, 60), params, kick, 20)
        assert np.all(np.diff(trace.times) > 0)

    def test_per_kick_drop_matches_steady_fluctuation(self):
        params, kick, _ = demo_setup()
        steady = steady_state_analytic(params, kick, 60)
        trace = evolve_stroboscopic(thermal_distribution(1.7, 60), params, kick, 300)
        pre, post = trace.mean_n[1::2], trace.mean_n[2::2]
        drop = (pre[-40:] - post[-40:]).mean()
        assert drop == pytest.approx(steady.delta_n, rel=0.05)

    def test_cycle_average_matches_coarse_grained_mean(self):
        params, kick, _ = demo_setup()
        steady = steady_state_analytic(params, kick, 60)
        trace = evolve_stroboscopic(thermal_distribution(1.7, 60), params, kick, 300)
        pre, post = trace.mean_n[1::2], trace.mean_n[2::2]
        averaged = 0.5 * (pre[-40:] + post[-40:]).mean()
        allowance = steady.delta_n / 2.0 + 0.02 * steady.mean_n_s
        assert abs(averaged - steady.mean_n_s) < allowance

    def test_strobe_855_holds_no_square_array(self):
        # the benchmark's strobe-855 cell: 856 levels, 5.9 MB per dense copy
        params = make_params(30.0, 200.0, 1.0)
        n_max = default_n_max(params.n_th)
        assert n_max == 855
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        initial = thermal_distribution(params.n_th, n_max)
        tracemalloc.start()
        try:
            evolve_stroboscopic(initial, params, kick, 20)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (n_max + 1) ** 2

    def test_hot_bath_runs_400_kicks_in_seconds(self):
        # n_th 100, 4119 levels: a dense propagator holds 136 MB per copy
        params = make_params(100.0, 133.0, np.pi / 8.0)
        n_max = default_n_max(params.n_th)
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        initial = thermal_distribution(params.n_th, n_max)
        start = time.perf_counter()
        trace = evolve_stroboscopic(initial, params, kick, 400)
        assert time.perf_counter() - start < 3.0
        assert trace.mean_n[-1] < trace.mean_n[0]

    def test_undershooting_propagator_raises(self, undershooting_solve):
        # a pre-kick state below -1e-12 used to pass into the trace unchecked
        params, kick, _ = demo_setup()
        with pytest.raises(ConvergenceError, match="went negative"):
            evolve_stroboscopic(thermal_distribution(1.7, 60), params, kick, 5)

    def test_tail_warning_reads_every_recorded_state(self):
        # the top level of a cold chain drains within a few kicks: it holds
        # more than TAIL_TOL in the early states only
        params = make_params(0.0, 133.0, np.pi / 8.0)
        kick = build_kick_map(params.g, params.tau, params.p_e, 10)
        initial = number_state(10, 10)
        with pytest.warns(TruncationOverflowWarning, match="during the stroboscopic run"):
            evolve_stroboscopic(initial, params, kick, 40)
        *_, last = stepped_states(initial.populations, strobe_moves(params, kick, 40))
        assert last[-1] <= TAIL_TOL

    def test_damping_propagator_is_stochastic(self):
        params, _, _ = demo_setup()
        prop = damping_propagator(params, 40, 1.0 / params.r_a) @ np.eye(41)
        np.testing.assert_allclose(prop.sum(axis=0), 1.0, atol=1e-12)
        assert prop.min() >= -1e-15


class TestDampingStepper:
    """One damping period on the bands against the dense expm reference.

    Cold baths make the generator far from normal: without its sub-steps
    the stepper misses by 1.9e-4, with entries of -1.2e-5, at n_th 0, n_max
    60, kappa*dt 1; without its mass step the column sums drift by up to
    2.2e-11 (n_th 100, n_max 60, kappa*dt 10).
    """

    @staticmethod
    def check(n_th, n_max, kappa_dt, stride=1):
        # a stride samples every stride-th column (and the last) of the
        # larger propagators, whose sub-steps on all columns take seconds
        params = make_params(n_th, 133.0, np.pi / 8.0)
        dt = kappa_dt / params.kappa
        columns = np.unique(np.r_[0 : n_max + 1 : stride, n_max])
        got = damping_propagator(params, n_max, dt) @ np.eye(n_max + 1)[:, columns]
        ref = damping_matrix(params, n_max, dt)[:, columns]
        assert np.abs(got - ref).max() <= 1e-12
        assert got.min() >= -1e-13
        assert np.abs(got.sum(axis=0) - 1.0).max() <= 1e-13

    @pytest.mark.parametrize("n_th", [0.0, 1e-3, 0.5, 1.7, 10.0, 100.0])
    def test_matches_expm_up_to_60_levels(self, n_th):
        for n_max in (2, 18, 60):
            for kappa_dt in (1e-3, 1e-2, 1e-1, 1.0, 10.0):
                self.check(n_th, n_max, kappa_dt)

    @pytest.mark.parametrize("n_th", [0.0, 1e-3, 0.5, 1.7, 10.0, 100.0])
    def test_matches_expm_at_315_levels(self, n_th):
        for kappa_dt in (1e-3, 1e-2, 1e-1, 1.0):
            self.check(n_th, 315, kappa_dt, stride=8)

    @pytest.mark.parametrize("ra_over_kappa", [150.0, 300.0])
    def test_matches_expm_on_strobe_855_cells(self, ra_over_kappa):
        # the benchmark's strobe-855 cell: n_th 30, r_a/kappa in 150..300
        self.check(30.0, 855, 1.0 / ra_over_kappa, stride=8)


class TestSteadyStateAnalytic:
    def test_first_level_ratio_full_swap(self):
        params = make_params(1.0, 100.0, np.pi / 2.0)
        kick = build_kick_map(params.g, params.tau, 0.0, 60)
        result = steady_state_analytic(params, kick, 60)
        p = result.populations.populations
        assert p[1] / p[0] == pytest.approx(1.0 / 102.0, rel=1e-9)

    def test_no_kicks_gives_thermal(self):
        params = ProtocolParams(
            g=G_REF, tau=1e-8, r_a=0.0, kappa=KAPPA_REF, n_th=2.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 120)
        result = steady_state_analytic(params, kick, 120)
        expected = thermal_distribution(2.0, 120)
        np.testing.assert_allclose(
            result.populations.populations, expected.populations, atol=1e-14
        )

    def test_strong_cooling_limit(self):
        # n_th << r_a/kappa at full swap: mean approaches n_th*kappa/r_a
        params = make_params(0.5, 1000.0, np.pi / 2.0)
        kick = build_kick_map(params.g, params.tau, 0.0, 60)
        result = steady_state_analytic(params, kick, 60)
        assert result.mean_n_s == pytest.approx(0.5 / 1000.0, rel=0.10)

    def test_excitation_bound_enforced(self):
        params = make_params(1.0, 100.0, np.pi / 2.0, p_e=0.9)
        kick = build_kick_map(params.g, params.tau, 0.9, 60)
        with pytest.raises(NonNormalizableError):
            steady_state_analytic(params, kick, 60)

    def test_hot_limit_is_geometric(self):
        params = make_params(100.0, 1.0, np.pi / 2.0)
        n_max = default_n_max(100.0)
        kick = build_kick_map(params.g, params.tau, 0.0, n_max)
        result = steady_state_analytic(params, kick, n_max)
        p = result.populations.populations
        ratios = p[1:21] / p[0:20]
        np.testing.assert_allclose(ratios, 100.0 / 101.0, rtol=0.01)

    def test_needs_damping(self):
        params = ProtocolParams(g=G_REF, tau=1e-8, r_a=1e6, kappa=0.0, n_th=1.0)
        kick = build_kick_map(params.g, params.tau, 0.0, 30)
        with pytest.raises(ValueError):
            steady_state_analytic(params, kick, 30)

    @pytest.mark.parametrize("kick_n_max", [40, 100])
    def test_kick_size_must_match_truncation(self, kick_n_max):
        params = make_params(1.0, 100.0, np.pi / 2.0)
        kick = build_kick_map(params.g, params.tau, 0.0, kick_n_max)
        with pytest.raises(ValueError, match=f"kick sized for n_max={kick_n_max}"):
            steady_state_analytic(params, kick, 60)


class TestKickMatchesProtocol:
    """p_e and the pulse area have one source: the protocol."""

    # a kick built for another p_e, then one built for another pulse area
    @pytest.mark.parametrize("kick_p_e, kick_theta", [(0.0, 1.0), (0.2, 0.9)])
    @pytest.mark.parametrize("route", ["generator", "analytic", "stroboscopic"])
    def test_foreign_kick_rejected(self, route, kick_p_e, kick_theta):
        params = make_params(1.0, 100.0, 1.0, p_e=0.2)
        kick = build_kick_map(params.g, kick_theta / params.g, kick_p_e, 60)
        calls = {
            "generator": lambda: build_generator(params, kick, 60),
            "analytic": lambda: steady_state_analytic(params, kick, 60),
            "stroboscopic": lambda: evolve_stroboscopic(
                thermal_distribution(1.0, 60), params, kick, 1
            ),
        }
        with pytest.raises(ValueError, match="kick built for"):
            calls[route]()


class TestSteadyStateResult:
    @staticmethod
    def result():
        params = make_params(1.0, 100.0, np.pi / 2.0)
        return steady_state_analytic(params, build_kick_map(params.g, params.tau, 0.0, 60), 60)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown steady-state method"):
            replace(self.result(), method="guess")

    @pytest.mark.parametrize("name", ["mean_n_s", "delta_n", "p0_s"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_diagnostic_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} is not finite"):
            replace(self.result(), **{name: value})

    def test_p0_must_be_the_ground_population(self):
        result = self.result()
        with pytest.raises(ValueError, match="ground-level population"):
            replace(result, p0_s=np.nextafter(result.p0_s, 1.0))


class TestSteadyStateNumeric:
    def test_no_kicks_gives_thermal(self):
        params = ProtocolParams(
            g=G_REF, tau=1e-8, r_a=0.0, kappa=KAPPA_REF, n_th=2.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 120)
        gen = build_generator(params, kick, 120)
        result = steady_state_numeric(gen)
        expected = thermal_distribution(2.0, 120)
        np.testing.assert_allclose(
            result.populations.populations, expected.populations, atol=1e-12
        )

    def test_matches_analytic_at_demo_point(self):
        params, kick, gen = demo_setup()
        analytic = steady_state_analytic(params, kick, 60)
        numeric = steady_state_numeric(gen)
        np.testing.assert_allclose(
            numeric.populations.populations,
            analytic.populations.populations,
            atol=1e-9,
        )


class TestPinnedNullSpace:
    """The null-space route above 600 levels: one pinned tridiagonal LU."""

    def test_cut_above_six_hundred_levels(self):
        # theta = pi/26 closes the (675, 676) swap: a 676-level ground block
        params = ProtocolParams(
            g=G_REF, tau=(np.pi / 26) / G_REF, r_a=1e6, kappa=0.0, n_th=0.0
        )
        kick = build_kick_map(params.g, params.tau, 0.0, 700)
        with pytest.warns(UserWarning, match="above level 675"):
            result = steady_state_numeric(build_generator(params, kick, 700))
        assert result.populations.populations[0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n_max", [30, 700])
    def test_upward_draining_chain_ends_at_the_top_level(self, n_max):
        # no damping and an excited qubit: every kick moves population up, so
        # level 0 holds no mass and cannot carry the pin
        params = ProtocolParams(
            g=G_REF, tau=1.0 / G_REF, r_a=1e6, kappa=0.0, n_th=0.0, p_e=1.0
        )
        kick = build_kick_map(params.g, params.tau, 1.0, n_max)
        with pytest.warns(TruncationOverflowWarning):
            result = steady_state_numeric(build_generator(params, kick, n_max))
        assert result.populations.populations[-1] == pytest.approx(1.0, abs=1e-12)

    def test_repins_at_the_most_populated_level(self, monkeypatch):
        # p_e between 1/2 and (n_th+1)/(2 n_th+1): the kicks heat the lowest
        # levels, so the distribution peaks above level 0
        params = make_params(50.0, 1000.0, 1.2, p_e=0.504)
        n_max = default_n_max(params.n_th)
        assert n_max > 600
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        analytic = steady_state_analytic(params, kick, n_max).populations.populations
        assert analytic.argmax() != 0
        counts = count_lu(monkeypatch)
        numeric = steady_state_numeric(build_generator(params, kick, n_max))
        assert counts["factorisations"] == 2
        assert np.abs(numeric.populations.populations - analytic).max() < 1e-13

    def test_singular_pinned_system_is_degenerate(self):
        # level 300 cannot climb and level 500 cannot descend: 0..300 and
        # 501..700 both keep their mass, so the kernel is two-dimensional;
        # with unit rates the LU meets an exactly zero pivot
        params, kick, _ = demo_setup(700)
        up, down = np.ones(700), np.ones(700)
        up[300] = 0.0
        down[500] = 0.0
        gen = GeneratorMatrix(up=up, down=down, params=params, kick=kick)
        with pytest.raises(DegenerateKernelError):
            steady_state_numeric(gen)

    @pytest.mark.parametrize(
        "n_th, limit", [(100.0, 4e6), (1000.0, 100e6)], ids=["n_max-4118", "n_max-40568"]
    )
    def test_memory_stays_linear(self, n_th, limit):
        # one dense generator copy would be 136 MB at n_max 4118, 13.2 GB at 40568
        params = make_params(n_th, 100.0, 1.2)
        n_max = default_n_max(n_th)
        kick = build_kick_map(params.g, params.tau, params.p_e, n_max)
        gen = build_generator(params, kick, n_max)
        tracemalloc.start()
        try:
            result = steady_state_numeric(gen)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < limit
        analytic = steady_state_analytic(params, kick, n_max)
        assert np.abs(
            result.populations.populations - analytic.populations.populations
        ).max() < 1e-12


class TestSteadyStateLongtime:
    @pytest.mark.parametrize("n_max", [60, 4118])
    def test_factorises_once_per_call(self, monkeypatch, n_max):
        # every implicit-Euler step solves the same system I - dt*G
        _, _, gen = demo_setup(n_max)
        counts = count_lu(monkeypatch)
        steady_state_longtime(gen)
        assert counts["factorisations"] == 1
        assert counts["solves"] > 1

    @pytest.mark.filterwarnings("ignore::kickcool.TruncationOverflowWarning")
    def test_matches_null_space_at_two_levels(self):
        # n_max 1: the implicit-Euler system has two unknowns
        params = make_params(0.5, 133.0, np.pi / 8.0, p_e=0.1)
        kick = build_kick_map(params.g, params.tau, params.p_e, 1)
        gen = build_generator(params, kick, 1)
        marched = steady_state_longtime(gen).populations.populations
        kernel = steady_state_numeric(gen).populations.populations
        assert np.abs(marched - kernel).max() < 1e-12


class TestSolverAgreement:
    @pytest.mark.parametrize("n_th", [0.5, 5.0])
    @pytest.mark.parametrize("ra_over_kappa", [10.0, 200.0])
    @pytest.mark.parametrize("p_e", [0.0, 0.2])
    def test_three_routes_agree(self, n_th, ra_over_kappa, p_e):
        params = make_params(n_th, ra_over_kappa, 1.2, p_e=p_e)
        n_max = default_n_max(n_th)
        kick = build_kick_map(params.g, params.tau, p_e, n_max)
        gen = build_generator(params, kick, n_max)
        a = steady_state_analytic(params, kick, n_max).populations.populations
        n = steady_state_numeric(gen).populations.populations
        t = steady_state_longtime(gen).populations.populations
        assert np.abs(a - n).max() < 1e-8
        assert np.abs(a - t).max() < 1e-8
        assert np.abs(n - t).max() < 1e-8


class TestTrappingNodes:
    def test_full_swap_bottleneck_above_level_four(self):
        # at theta = pi/2 the (3,4) swap closes (sin^2(pi) = 0), so mass
        # above level 4 drains only through damping; convergence is then a
        # kappa-scale process even when r_a/kappa is large
        params = make_params(5.0, 1000.0, np.pi / 2.0)
        n_max = default_n_max(5.0)
        kick = build_kick_map(params.g, params.tau, 0.0, n_max)
        assert kick.ce2[3] < 1e-30
        gen = build_generator(params, kick, n_max)
        steady = steady_state_analytic(params, kick, n_max)
        initial = thermal_distribution(5.0, n_max)
        t_early = 150.0 / params.r_a
        early = evolve(initial, gen, t_early, sample_times=np.array([t_early]))
        stepper = dynamics._BandStepper(gen.up, gen.down, t_early)
        _, state = stepped_states(initial.populations, [stepper.__matmul__])
        assert early.mean_n.tobytes() == observables([state])[0].tobytes()
        assert state[4] > 10.0 * steady.populations.populations[4]
        late = evolve(
            thermal_distribution(5.0, n_max),
            gen,
            8.0 / params.kappa,
            sample_times=np.array([8.0 / params.kappa]),
        )
        assert late.mean_n[-1] == pytest.approx(steady.mean_n_s, rel=1e-9)


class TestKickFluctuation:
    def test_vacuum_zero(self):
        kick = build_kick_map(1.0, 1.0, 0.0, 10)
        assert kick_fluctuation(number_state(0, 10), kick) == 0.0

    def test_full_swap_removes_one(self):
        kick = build_kick_map(1.0, np.pi / 2.0, 0.0, 10)
        assert kick_fluctuation(number_state(1, 10), kick) == pytest.approx(1.0)

    def test_steady_state_balance_identity(self):
        # stationarity of the mean: mean_n_s = n_th - (r_a/kappa) * delta_n
        params, kick, gen = demo_setup()
        numeric = steady_state_numeric(gen)
        reconstructed = params.n_th - params.ra_over_kappa * numeric.delta_n
        assert abs(reconstructed - numeric.mean_n_s) < 1e-6

    def test_always_cooling_in_steady_state(self):
        params, kick, gen = demo_setup()
        result = steady_state_numeric(gen)
        assert result.delta_n >= 0.0
        assert result.mean_n_s < params.n_th
