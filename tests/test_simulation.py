"""Monte Carlo cost machinery: paths, realized costs, moment and utility checks."""

import math
import tracemalloc

import numpy as np
import pytest

from impact_game import (
    BachelierVariance,
    CostBatch,
    ExponentialKernel,
    GameParams,
    ParameterError,
    PricePath,
    TabulatedVariance,
    TimeGrid,
    build_matrices,
    impacted_path,
    mv_cost,
    nash_equilibrium,
    optimality_gap,
    realized_costs,
    simulate_paths,
    simulation,
    validate_cara,
    validate_moments,
)


def make_params(
    n=2,
    steps=10,
    gamma=0.5,
    theta=0.1,
    rho=1.0,
    sigma=1.0,
    s0=0.0,
    variance=None,
):
    return GameParams(
        n=n,
        gamma=gamma,
        theta=theta,
        kernel=ExponentialKernel(rho),
        variance=BachelierVariance(sigma) if variance is None else variance,
        grid=TimeGrid.equidistant(steps),
        s0=s0,
    )


def block_normals(seed, block, shape):
    """The standard normals that simulate_paths draws for one block of rows."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,))).standard_normal(shape)


def zero_variance(horizon=1.0):
    return TabulatedVariance(np.array([0.0, horizon]), np.array([0.0, 0.0]))


class TestImpactedPath:
    def test_matches_direct_double_loop(self):
        rng = np.random.default_rng(5)
        params = make_params(n=3, steps=7)
        trades = rng.normal(size=(8, 3))
        unaffected = rng.normal(size=8)
        path = impacted_path(params, list(trades.T), unaffected)

        times = params.grid.times
        tot = trades.sum(axis=1)
        for k in range(8):
            impact = sum(
                np.exp(-(times[k] - times[l])) * tot[l] for l in range(k)
            )
            assert path.impacted[k] == pytest.approx(unaffected[k] - impact, rel=1e-13, abs=1e-13)

    def test_zero_aggregate_trading_leaves_path_unchanged(self):
        rng = np.random.default_rng(6)
        params = make_params(n=2, steps=9)
        xi = rng.normal(size=10)
        unaffected = rng.normal(size=10)
        path = impacted_path(params, [xi, -xi], unaffected)
        np.testing.assert_array_equal(path.impacted, path.unaffected)

    def test_fields_readonly_and_validated(self):
        path = PricePath(unaffected=[1.0, 2.0], impacted=[0.5, 1.5])
        with pytest.raises(ValueError):
            path.impacted[0] = 0.0
        with pytest.raises(ParameterError):
            PricePath(unaffected=[1.0, 2.0], impacted=[1.0])
        with pytest.raises(ParameterError):
            PricePath(unaffected=[np.nan], impacted=[1.0])

    def test_input_validation(self):
        params = make_params(n=2, steps=3)
        good = np.ones(4)
        with pytest.raises(ParameterError):
            impacted_path(params, [good], np.zeros(4))  # one strategy missing
        with pytest.raises(ParameterError):
            impacted_path(params, [good, np.ones(3)], np.zeros(4))
        with pytest.raises(ParameterError):
            impacted_path(params, [good, good], np.zeros(5))
        with pytest.raises(ParameterError):
            impacted_path(params, [good, good], np.full(4, np.nan))


class TestRealizedCosts:
    def test_zero_strategies_cost_nothing(self):
        rng = np.random.default_rng(7)
        params = make_params(n=2, steps=6)
        zeros = np.zeros(7)
        costs = realized_costs(params, [zeros, zeros], rng.normal(size=7))
        np.testing.assert_array_equal(costs, np.zeros(2))

    def test_single_instant_trade_pays_half_spread(self):
        grid = TimeGrid(np.array([0.0]))
        params = GameParams(
            n=1, gamma=2.0, theta=0.0,
            kernel=ExponentialKernel(1.0), variance=BachelierVariance(1.0), grid=grid,
        )
        costs = realized_costs(params, [np.array([1.5])], np.array([0.0]))
        assert costs[0] == 0.5 * 1.5**2

    def test_transaction_cost_term_adds_quadratic(self):
        grid = TimeGrid(np.array([0.0]))
        params = GameParams(
            n=1, gamma=0.0, theta=0.7,
            kernel=ExponentialKernel(1.0), variance=BachelierVariance(1.0), grid=grid,
        )
        costs = realized_costs(params, [np.array([1.5])], np.array([0.0]))
        assert costs[0] == pytest.approx((0.5 + 0.7) * 1.5**2, rel=1e-15)

    def test_affine_in_the_unaffected_path(self):
        rng = np.random.default_rng(8)
        params = make_params(n=3, steps=5)
        trades = rng.normal(size=(6, 3))
        strategies = list(trades.T)
        path = rng.normal(size=6)
        base = realized_costs(params, strategies, np.zeros(6))
        shifted = realized_costs(params, strategies, path)
        np.testing.assert_allclose(shifted, base - trades.T @ path, atol=1e-12)

    def test_antithetic_paths_cancel_the_path_term(self):
        rng = np.random.default_rng(9)
        params = make_params(n=2, steps=5)
        trades = rng.normal(size=(6, 2))
        strategies = list(trades.T)
        path = rng.normal(size=6)
        plus = realized_costs(params, strategies, path)
        minus = realized_costs(params, strategies, -path)
        base = realized_costs(params, strategies, np.zeros(6))
        np.testing.assert_allclose(plus + minus, 2.0 * base, atol=1e-12)


class TestSimulatePaths:
    def test_deterministic_given_seed(self):
        params = make_params()
        eq = nash_equilibrium(params, [1.0, 0.5])
        first = simulate_paths(params, eq.strategies, 25, 42)
        second = simulate_paths(params, eq.strategies, 25, 42)
        assert first.costs.shape == second.costs.shape == (25, 2)
        assert first.seed == second.seed == 42
        np.testing.assert_array_equal(first.costs, second.costs)

    def test_zero_variance_collapses_to_deterministic_costs(self):
        params = make_params(variance=zero_variance())
        rng = np.random.default_rng(10)
        trades = rng.normal(size=(11, 2))
        strategies = list(trades.T)
        fixed = realized_costs(params, strategies, np.zeros(11))
        batch = simulate_paths(params, strategies, 7, 3)
        assert batch.costs.shape == (7, 2)
        np.testing.assert_array_equal(batch.costs, np.broadcast_to(fixed, (7, 2)))

    def test_accelerated_batch_matches_direct_pricing(self):
        # the batch prices every path with one matrix product; rebuild the
        # seeded paths (4 paths fit in block 0) and price each one by the
        # direct per-time sum
        params = make_params(n=2, steps=5, theta=0.3, s0=2.0)
        trades = np.random.default_rng(11).normal(size=(6, 2))
        strategies = list(trades.T)
        batch = simulate_paths(params, strategies, 4, 12)
        stds = np.sqrt(np.diff(params.phi_at_grid(), prepend=0.0))
        increments = block_normals(12, 0, (4, 6)) * stds
        paths = params.s0 + np.cumsum(increments, axis=1)
        direct = np.array([realized_costs(params, strategies, path) for path in paths])
        np.testing.assert_allclose(batch.costs, direct, rtol=1e-12, atol=1e-12)

    def test_chunk_boundaries_continue_one_stream(self, monkeypatch):
        # 6 grid values per path and 18 per block: 10 paths span 4 blocks of
        # 3, 3, 3, 1 rows, and block b continues no stream but starts its own
        params = make_params(n=2, steps=5, theta=0.3, s0=-1.5)
        trades = np.random.default_rng(13).normal(size=(6, 2))
        strategies = list(trades.T)
        monkeypatch.setattr(simulation, "_BLOCK_VALUES", 18)
        count, seed, rows = 10, 14, 3

        blocks = [
            block_normals(seed, b, (min(rows, count - s), 6))
            for b, s in enumerate(range(0, count, rows))
        ]
        assert len(blocks) == 4
        whole = np.concatenate(blocks)
        assert whole.shape == (count, 6)

        batch = simulate_paths(params, strategies, count, seed)
        stds = np.sqrt(np.diff(params.phi_at_grid(), prepend=0.0))
        paths = params.s0 + np.cumsum(whole * stds, axis=1)
        edges = [2, 3, 5, 6, 8, 9]
        direct = np.array([realized_costs(params, strategies, paths[p]) for p in edges])
        np.testing.assert_allclose(batch.costs[edges], direct, rtol=1e-12, atol=0.0)

    def test_sample_memory_does_not_grow_with_count_times_steps(self):
        # the parent drew and summed the whole (count, N + 1) path matrix: about 80 MB here
        params = make_params(n=2, steps=100)
        eq = nash_equilibrium(params, [1.0, 0.5])
        tracemalloc.start()
        try:
            validate_moments(params, eq.strategies, 50_000, 15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_batch_memory_is_one_cost_matrix(self):
        # 1e5 paths of 2 agents: a 1.6 MB cost matrix plus one 8 MB chunk of draws
        params = make_params(n=2, steps=10)
        eq = nash_equilibrium(params, [1.0, 0.5])
        tracemalloc.start()
        try:
            batch = simulate_paths(params, eq.strategies, 100_000, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert batch.costs.shape == (100_000, 2)
        assert peak < 16 * 2**20

    def test_oversized_sample_is_rejected(self, monkeypatch):
        params = make_params()
        eq = nash_equilibrium(params, [1.0, 0.5])
        monkeypatch.setattr(simulation, "_MAX_SAMPLE_COSTS", 20)
        assert simulate_paths(params, eq.strategies, 10, 1).costs.shape == (10, 2)
        with pytest.raises(ParameterError, match="limit of 20"):
            simulate_paths(params, eq.strategies, 11, 1)

    def test_cost_batch_readonly_and_finite(self):
        params = make_params()
        eq = nash_equilibrium(params, [1.0, 0.5])
        batch = simulate_paths(params, eq.strategies, 5, 2)
        assert isinstance(batch, CostBatch)
        assert np.isfinite(batch.costs).all()
        with pytest.raises(ValueError):
            batch.costs[0, 0] = 3.0
        with pytest.raises(ParameterError):
            CostBatch(costs=[[1.0, np.nan]], seed=0)
        with pytest.raises(ParameterError):
            CostBatch(costs=[1.0, 2.0], seed=0)  # one path, not a batch

    def test_count_and_seed_validation(self):
        params = make_params()
        eq = nash_equilibrium(params, [1.0, 0.5])
        for count, seed in [(0, 1), (1.5, 1), (True, 1), (10, -1), (10, 0.5)]:
            with pytest.raises(ParameterError):
                simulate_paths(params, eq.strategies, count, seed)


    @pytest.mark.parametrize("block_values", [18, None], ids=["34 blocks", "2 blocks"])
    def test_costs_do_not_depend_on_the_thread_count(self, monkeypatch, block_values):
        # 6 grid values per path: 100 paths in blocks of 3 rows, or 1e5 paths in
        # the default blocks of 87381 rows; never more than two blocks at once
        count = 100 if block_values else 100_000
        if block_values:
            monkeypatch.setattr(simulation, "_BLOCK_VALUES", block_values)
        params = make_params(n=2, steps=5, theta=0.3)
        strategies = list(np.random.default_rng(17).normal(size=(6, 2)).T)
        workers = []
        ordered_map = simulation.ordered_map

        def recording(fn, jobs, count):
            workers.append(count)
            return ordered_map(fn, jobs, count)

        monkeypatch.setattr(simulation, "ordered_map", recording)
        batches = []
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("IMPACT_GAME_THREADS", threads)
            batches.append(simulate_paths(params, strategies, count, 21).costs)
        assert workers == [1, 2, 2]
        for batch in batches[1:]:
            assert np.array_equal(batch, batches[0])


class TestReductions:
    def test_nonnegative_sums_match_fsum(self):
        # the criterion-8 sample: squared and fourth-power cost deviations and
        # the squared utility deviations, pairwise against compensated sums
        params = make_params(n=2, steps=10, gamma=0.5, theta=0.1)
        eq = nash_equilibrium(params, [1.0, 0.5])
        costs = simulate_paths(params, eq.strategies, 100_000, 20250814).costs
        for c in costs.T:
            utilities = (1.0 - np.exp(0.5 * c)) / 0.5
            for values, power in ((c, 2), (c, 4), (utilities, 2)):
                centered = values - math.fsum(values.tolist()) / values.size
                exact = math.fsum(x**power for x in centered.tolist()) / values.size
                operand = centered if power == 2 else np.square(centered)
                assert simulation._mean_square(operand) == pytest.approx(exact, rel=1e-14, abs=0.0)


class TestValidateMoments:
    def test_equilibrium_cost_moments_within_monte_carlo_error(self):
        params = make_params(n=2, steps=10, gamma=0.5, theta=0.1)
        eq = nash_equilibrium(params, [1.0, 0.5])
        reports = [r for r in validate_moments(params, eq.strategies, 20000, 11)]
        assert [r.agent for r in reports] == [0, 1]
        for report in reports:
            assert report.count == 20000
            assert abs(report.z_mean) <= 4.0
            assert abs(report.z_variance) <= 4.0
            assert report.se_mean > 0.0

    def test_targets_ignore_risk_aversion(self):
        trades = np.outer(np.linspace(1.0, 0.2, 11), [1.0, -0.4])
        strategies = list(trades.T)
        neutral = validate_moments(make_params(gamma=0.0), strategies, 10, 1)
        averse = validate_moments(make_params(gamma=5.0), strategies, 10, 1)
        for a, b in zip(neutral, averse):
            assert a.target_mean == b.target_mean
            assert a.target_variance == b.target_variance

    def test_target_mean_is_the_risk_neutral_cost(self):
        params = make_params(gamma=0.0, theta=0.2)
        eq = nash_equilibrium(params, [1.0, -0.3])
        reports = validate_moments(params, eq.strategies, 2, 1)
        for i, report in enumerate(reports):
            others = [s for j, s in enumerate(eq.strategies) if j != i]
            expected = mv_cost(eq.strategies[i], others, params)
            assert report.target_mean == pytest.approx(expected, rel=1e-12)

    def test_target_variance_is_the_risk_term(self):
        neutral = make_params(gamma=0.0, theta=0.2)
        averse = make_params(gamma=2.0, theta=0.2)
        eq = nash_equilibrium(neutral, [1.0, -0.3])
        reports = validate_moments(neutral, eq.strategies, 2, 1)
        for i, report in enumerate(reports):
            others = [s for j, s in enumerate(eq.strategies) if j != i]
            risk_term = mv_cost(eq.strategies[i], others, averse) - mv_cost(
                eq.strategies[i], others, neutral
            )
            assert report.target_variance == pytest.approx(risk_term, rel=1e-12)

    def test_degenerate_zero_cost_gives_exact_zero_scores(self):
        params = make_params(variance=zero_variance())
        zeros = np.zeros(11)
        for report in validate_moments(params, [zeros, zeros], 50, 2):
            assert report.sample_mean == report.target_mean == 0.0
            assert report.z_mean == 0.0
            assert report.z_variance == 0.0


class TestValidateCara:
    def test_linear_mode_matches_negated_mean_cost(self):
        params = make_params(gamma=0.0)
        eq = nash_equilibrium(params, [1.0, 0.5])
        moments = validate_moments(params, eq.strategies, 500, 4)
        for report, moment in zip(validate_cara(params, eq.strategies, 500, 4), moments):
            assert report.mode == "linear"
            assert report.sample == -moment.sample_mean

    def test_direct_mode_within_monte_carlo_error(self):
        params = make_params(gamma=0.5)
        eq = nash_equilibrium(params, [1.0, 0.5])
        for report in validate_cara(params, eq.strategies, 20000, 12):
            assert report.mode == "direct"
            assert abs(report.z) <= 4.0

    def test_log_mode_engages_for_huge_exponents(self):
        params = GameParams(
            n=1, gamma=1.0, theta=0.1,
            kernel=ExponentialKernel(1.0), variance=BachelierVariance(0.001),
            grid=TimeGrid.equidistant(5),
        )
        eq = nash_equilibrium(params, [45.0])
        reports = validate_cara(params, eq.strategies, 20000, 13)
        assert reports[0].mode == "log"
        assert reports[0].target > 500.0
        assert abs(reports[0].z) <= 4.0

    def test_zero_strategies_have_exactly_zero_utility(self):
        params = make_params(gamma=1.0)
        zeros = np.zeros(11)
        for report in validate_cara(params, [zeros, zeros], 100, 5):
            assert report.mode == "direct"
            assert report.sample == 0.0
            assert report.target == 0.0
            assert report.z == 0.0

    def test_requires_gaussian_price_model(self):
        params = make_params(variance=zero_variance())
        with pytest.raises(ParameterError):
            validate_cara(params, [np.zeros(11), np.zeros(11)], 10, 1)


class TestEquilibriumOptimalityInSample:
    def test_perturbed_strategy_costs_more_on_average(self):
        params = make_params(n=2, steps=8, gamma=0.0, theta=0.3)
        eq = nash_equilibrium(params, [1.0, 1.0])
        matrices = build_matrices(params)

        xi = eq.strategies[0].trades
        delta = np.zeros(9)
        delta[0], delta[-1] = 0.2, -0.2  # zero-sum: same inventory
        perturbed = xi + delta

        count, seed = 40000, 3
        base = simulate_paths(params, eq.strategies, count, seed).costs
        moved = simulate_paths(params, [perturbed, eq.strategies[1]], count, seed).costs
        paired = moved[:, 0] - base[:, 0]
        gap = optimality_gap(perturbed, eq.strategies[0], eq.multipliers[0], matrices)

        assert gap > 0.0
        se = paired.std(ddof=1) / np.sqrt(count)
        assert paired.mean() > 0.0
        assert abs(paired.mean() - gap) <= 5.0 * se + 1e-12
