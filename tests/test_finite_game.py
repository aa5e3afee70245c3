"""Finite-horizon equilibrium: matrices, base vectors, costs, optimality."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import impact_game
from impact_game import (
    BachelierVariance,
    ExponentialKernel,
    GameParams,
    IllConditionedWarning,
    KernelMatrices,
    NumericalError,
    ParameterError,
    PowerLawKernel,
    Strategy,
    TimeGrid,
    best_response,
    build_matrices,
    compute_v,
    compute_w,
    mv_cost,
    nash_equilibrium,
    optimality_gap,
    w_closed_form,
)


def make_params(**overrides):
    base = dict(
        n=2,
        gamma=0.5,
        theta=0.1,
        kernel=ExponentialKernel(1.0),
        variance=BachelierVariance(1.0),
        grid=TimeGrid.equidistant(10),
    )
    base.update(overrides)
    return GameParams(**base)


def random_params(rng, n_max=6, steps_max=60):
    n = int(rng.integers(1, n_max + 1))
    steps = int(rng.integers(1, steps_max + 1))
    gamma = float(rng.uniform(0.0, 5.0))
    theta = float(rng.uniform(0.0, 1.0))
    if rng.random() < 0.5:
        kernel = ExponentialKernel(float(rng.uniform(0.2, 4.0)))
    else:
        kernel = PowerLawKernel(float(rng.uniform(0.3, 3.0)))
    sigma = float(rng.uniform(0.5, 2.0))
    return GameParams(
        n=n,
        gamma=gamma,
        theta=theta,
        kernel=kernel,
        variance=BachelierVariance(sigma),
        grid=TimeGrid.equidistant(steps),
    )


@st.composite
def row_ranges(draw):
    """Parameters on an equidistant or unit grid, and a nonempty row range."""
    steps = draw(st.integers(0, 60))
    if draw(st.booleans()):
        grid = TimeGrid.equidistant(steps, draw(st.floats(0.5, 3.0)))
    else:
        grid = TimeGrid(np.arange(steps + 1, dtype=float))
    if draw(st.booleans()):
        kernel = ExponentialKernel(draw(st.floats(0.05, 5.0)))
    else:
        kernel = PowerLawKernel(draw(st.floats(0.3, 3.0)))
    params = GameParams(
        n=1,
        gamma=draw(st.floats(0.0, 5.0)),
        theta=draw(st.floats(0.0, 1.0)),
        kernel=kernel,
        variance=BachelierVariance(draw(st.floats(0.5, 2.0))),
        grid=grid,
    )
    start = draw(st.integers(0, steps))
    return params, start, draw(st.integers(start + 1, steps + 1))


class TestBuildMatrices:
    @settings(max_examples=80, deadline=None)
    @given(row_ranges())
    def test_row_assembly_equals_the_full_build(self, case):
        params, start, stop = case
        mats = build_matrices(params)
        full, tilde = impact_game.finite_game._assemble_rows(params, start, stop)
        assert np.array_equal(full, mats.full[start:stop])
        assert np.array_equal(tilde, mats.tilde[start:stop])

    def test_two_point_grid_by_hand(self):
        params = GameParams(
            n=2,
            gamma=2.0,
            theta=0.25,
            kernel=ExponentialKernel(1.0),
            variance=BachelierVariance(1.0),
            grid=TimeGrid(np.array([0.0, 1.0])),
        )
        mats = build_matrices(params)
        e = math.exp(-1.0)
        # diag: G(0) + gamma phi(t) + 2 theta; off-diag: G(1) + gamma phi(0)
        np.testing.assert_array_equal(mats.full, np.array([[1.5, e], [e, 3.5]]))
        np.testing.assert_array_equal(mats.tilde, np.array([[0.5, 0.0], [e, 0.5]]))

    def test_exponential_entries(self):
        params = make_params(
            kernel=ExponentialKernel(1.3), gamma=0.0, theta=0.0, grid=TimeGrid(np.array([0.0, 0.5, 2.0]))
        )
        mats = build_matrices(params)
        np.testing.assert_array_equal(np.diag(mats.full), np.ones(3))
        assert mats.full[0, 1] == pytest.approx(math.exp(-1.3 * 0.5), rel=1e-15)
        assert mats.full[2, 0] == pytest.approx(math.exp(-1.3 * 2.0), rel=1e-15)
        np.testing.assert_array_equal(mats.full, mats.full.T)

    def test_power_law_entries(self):
        params = make_params(
            kernel=PowerLawKernel(2.0), gamma=0.0, theta=0.0, grid=TimeGrid(np.array([0.0, 1.0, 3.0]))
        )
        mats = build_matrices(params)
        assert mats.full[0, 1] == 0.25
        assert mats.full[0, 2] == 1.0 / 16.0
        assert mats.full[1, 2] == 1.0 / 9.0
        np.testing.assert_array_equal(np.diag(mats.full), np.ones(3))

    def test_plain_matrix_splits_into_tilde_plus_transpose(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            times = np.sort(rng.uniform(0.0, 3.0, size=rng.integers(2, 30)))
            times[0] = abs(times[0])
            kernel = (
                ExponentialKernel(float(rng.uniform(0.2, 4.0)))
                if rng.random() < 0.5
                else PowerLawKernel(float(rng.uniform(0.3, 3.0)))
            )
            params = GameParams(
                n=3,
                gamma=0.0,
                theta=0.0,
                kernel=kernel,
                variance=BachelierVariance(1.0),
                grid=TimeGrid(times),
            )
            mats = build_matrices(params)
            np.testing.assert_array_equal(mats.full, mats.tilde + mats.tilde.T)

    def test_theta_shifts_diagonal_only(self):
        base = build_matrices(make_params(theta=0.0))
        shifted = build_matrices(make_params(theta=0.3))
        diff = shifted.full - base.full
        off_diagonal = diff[~np.eye(len(diff), dtype=bool)]
        np.testing.assert_array_equal(off_diagonal, 0.0)
        np.testing.assert_allclose(np.diag(diff), 0.6, rtol=0.0, atol=1e-15)
        np.testing.assert_array_equal(shifted.tilde, base.tilde)

    def test_game_matrices_are_positive(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            params = random_params(rng, steps_max=25)
            mats = build_matrices(params)
            n = params.n
            quartet = [
                mats.full,
                mats.tilde,
                mats.full - mats.tilde,
                mats.full + (n - 1) * mats.tilde,
            ]
            for _ in range(10):
                x = rng.standard_normal(len(params.grid))
                if not np.any(x):
                    continue
                for matrix in quartet:
                    assert x @ matrix @ x > 0.0

    def test_built_once_read_only(self):
        params = make_params(grid=TimeGrid.equidistant(1000))
        build_matrices(params)  # first call pays one-time allocations
        tracemalloc.start()
        try:
            mats = build_matrices(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * (mats.full.nbytes + mats.tilde.nbytes)
        for arr in (mats.full, mats.tilde):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0, 0] = 1.0

    def test_oversized_grid_rejected_before_allocation(self, monkeypatch):
        monkeypatch.setattr(impact_game.finite_game, "_MAX_DENSE_SIDE", 11)
        build_matrices(make_params(grid=TimeGrid.equidistant(10)))
        params = make_params(grid=TimeGrid.equidistant(2000))
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="side 2001, above the limit of 11"):
                build_matrices(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_user_built_matrices_are_copied(self):
        full = np.eye(3) * 2.0
        tilde = np.tril(np.ones((3, 3)))
        mats = KernelMatrices(full=full, tilde=tilde)
        full[0, 0] = 7.0
        tilde[1, 0] = 7.0
        assert mats.full[0, 0] == 2.0
        assert mats.tilde[1, 0] == 1.0
        assert not np.shares_memory(mats.full, full)
        assert not mats.full.flags.writeable

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_user_built_matrices_must_be_finite(self, bad):
        broken = np.eye(3)
        broken[2, 0] = bad
        with pytest.raises(ParameterError, match="full must be finite"):
            KernelMatrices(full=broken, tilde=np.eye(3))
        with pytest.raises(ParameterError, match="tilde must be finite"):
            KernelMatrices(full=np.eye(3), tilde=broken)

    @pytest.mark.parametrize(
        "overrides",
        [{"gamma": 1e308, "variance": BachelierVariance(10.0)}, {"theta": 1e308}],
        ids=["gamma-phi", "theta"],
    )
    def test_overflowing_entries_rejected_before_allocation(self, overrides):
        params = make_params(grid=TimeGrid.equidistant(2000), **overrides)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="overflow"):
                build_matrices(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestBaseVectors:
    def test_unit_normalization(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            params = random_params(rng, steps_max=40)
            mats = build_matrices(params)
            assert abs(compute_v(mats, params.n).sum() - 1.0) <= 1e-12
            assert abs(compute_w(mats).sum() - 1.0) <= 1e-12

    def test_w_has_no_agent_count_dependence(self):
        grid = TimeGrid.equidistant(20)
        results = []
        for n in (1, 2, 5):
            params = make_params(n=n, grid=grid)
            results.append(compute_w(build_matrices(params)))
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_single_agent_v_closed_form(self):
        # For one agent without risk aversion or transaction costs on the
        # equidistant grid, the kernel matrix is Toeplitz with entries
        # r^|i-j|, whose inverse is tridiagonal; solving against ones gives
        # v = (1, 1-r, ..., 1-r, 1) / (2 + (N-1)(1-r)).
        for steps in (1, 5, 50):
            for rho in (0.5, 2.0):
                params = GameParams(
                    n=1,
                    gamma=0.0,
                    theta=0.0,
                    kernel=ExponentialKernel(rho),
                    variance=BachelierVariance(1.0),
                    grid=TimeGrid.equidistant(steps),
                )
                v = compute_v(build_matrices(params), 1)
                r = math.exp(-rho / steps)
                expected = np.full(steps + 1, 1.0 - r)
                expected[0] = expected[-1] = 1.0
                expected /= 2.0 + (steps - 1) * (1.0 - r)
                np.testing.assert_allclose(v, expected, rtol=0.0, atol=1e-12)

    def test_oscillation_appears_below_critical_cost(self):
        params = make_params(n=2, gamma=0.0, theta=0.0, grid=TimeGrid.equidistant(100))
        v = compute_v(build_matrices(params), 2)
        assert v.min() < 0.0


class TestWClosedForm:
    def test_frozen_values(self):
        np.testing.assert_allclose(
            w_closed_form(2, 1.0),
            [0.22019185356758578, 0.22019185356758578, 0.5596162928648285],
            rtol=0.0,
            atol=1e-16,
        )
        np.testing.assert_allclose(
            w_closed_form(1, 2.0),
            [0.4637105582521231, 0.536289441747877],
            rtol=0.0,
            atol=1e-16,
        )

    def test_matches_linear_solve(self):
        for steps in (1, 2, 3, 7, 20, 45):
            for rho in (0.5, 1.0, 2.0, 5.0):
                params = GameParams(
                    n=2,
                    gamma=0.0,
                    theta=0.25,
                    kernel=ExponentialKernel(rho),
                    variance=BachelierVariance(1.0),
                    grid=TimeGrid.equidistant(steps),
                )
                w = compute_w(build_matrices(params))
                np.testing.assert_allclose(w, w_closed_form(steps, rho), rtol=0.0, atol=1e-10)

    def test_validation(self):
        with pytest.raises(ParameterError):
            w_closed_form(0, 1.0)
        with pytest.raises(ParameterError):
            w_closed_form(5, 0.0)
        for steps in (3.9, 2.0, False):
            with pytest.raises(ParameterError, match="integer"):
                w_closed_form(steps, 1.0)


class TestStrategy:
    def test_sum_must_match_inventory(self):
        with pytest.raises(ParameterError):
            Strategy(trades=np.array([0.5, 0.5]), inventory=2.0)
        s = Strategy(trades=np.array([0.5, 0.5]), inventory=1.0)
        assert len(s) == 2

    def test_from_trades_infers_inventory(self):
        s = Strategy.from_trades([0.25, -0.1, 0.6])
        assert s.inventory == pytest.approx(0.75, abs=1e-15)

    def test_trades_readonly_and_validated(self):
        s = Strategy.from_trades([1.0, 2.0])
        with pytest.raises(ValueError):
            s.trades[0] = 0.0
        with pytest.raises(ParameterError):
            Strategy(trades=np.array([np.nan]), inventory=0.0)
        with pytest.raises(ParameterError):
            Strategy(trades=np.array([]), inventory=0.0)


class TestNashEquilibrium:
    def test_equal_inventories_follow_v(self):
        params = make_params()
        sol = nash_equilibrium(params, [1.0, 1.0])
        np.testing.assert_array_equal(sol.strategies[0].trades, sol.v)
        np.testing.assert_array_equal(sol.strategies[1].trades, sol.v)

    def test_zero_sum_inventories_follow_w(self):
        params = make_params()
        sol = nash_equilibrium(params, [1.0, -1.0])
        np.testing.assert_array_equal(sol.strategies[0].trades, sol.w)
        np.testing.assert_array_equal(sol.strategies[1].trades, -sol.w)

    def test_first_order_conditions_hold(self):
        rng = np.random.default_rng(19)
        for _ in range(15):
            params = random_params(rng)
            inventories = rng.uniform(-3.0, 3.0, params.n)
            sol = nash_equilibrium(params, inventories)
            assert sol.foc_residual <= 1e-8

    def test_linearity_in_inventories(self):
        params = make_params(n=3, grid=TimeGrid.equidistant(12))
        base = nash_equilibrium(params, [1.0, 0.5, -0.25])
        scaled = nash_equilibrium(params, [3.0, 1.5, -0.75])
        for s_base, s_scaled in zip(base.strategies, scaled.strategies):
            np.testing.assert_allclose(
                s_scaled.trades, 3.0 * s_base.trades, rtol=1e-12, atol=1e-12
            )

    def test_initial_price_only_shifts_costs(self):
        inventories = [2.0, -0.5]
        sol0 = nash_equilibrium(make_params(s0=0.0), inventories)
        sol5 = nash_equilibrium(make_params(s0=5.0), inventories)
        np.testing.assert_array_equal(sol0.v, sol5.v)
        np.testing.assert_array_equal(sol0.w, sol5.w)
        for s0_strat, s5_strat in zip(sol0.strategies, sol5.strategies):
            np.testing.assert_array_equal(s0_strat.trades, s5_strat.trades)
        np.testing.assert_allclose(
            sol5.mv_costs - sol0.mv_costs,
            [-5.0 * x for x in inventories],
            rtol=1e-12,
            atol=1e-12,
        )

    def test_inventory_validation(self):
        with pytest.raises(ParameterError):
            nash_equilibrium(make_params(), [1.0])
        with pytest.raises(ParameterError):
            nash_equilibrium(make_params(), [1.0, np.nan])


class TestMvCost:
    def test_hand_formula_small_instance(self):
        params = make_params(grid=TimeGrid(np.array([0.0, 1.0])), s0=1.5)
        mats = build_matrices(params)
        xi = np.array([0.6, 0.4])
        other = np.array([0.2, -0.2])
        expected = -1.0 * 1.5 + 0.5 * xi @ mats.full @ xi + xi @ mats.tilde @ other
        got = mv_cost(Strategy.from_trades(xi), [Strategy.from_trades(other)], params)
        assert got == pytest.approx(expected, rel=1e-15)

    def test_risk_aversion_adds_half_gamma_variance(self):
        grid = TimeGrid.equidistant(8)
        xi = np.linspace(0.3, -0.1, 9)
        other = np.linspace(-0.2, 0.25, 9)
        phi = BachelierVariance(1.3)
        cost0 = mv_cost(xi, [other], make_params(gamma=0.0, grid=grid, variance=phi))
        cost3 = mv_cost(xi, [other], make_params(gamma=3.0, grid=grid, variance=phi))
        phi_grid = phi.eval(grid.times)
        variance = xi @ np.minimum.outer(phi_grid, phi_grid) @ xi
        assert cost3 - cost0 == pytest.approx(1.5 * variance, rel=1e-12)

    def test_opponent_count_and_length_validation(self):
        params = make_params()
        xi = np.ones(11) / 11.0
        with pytest.raises(ParameterError):
            mv_cost(xi, [], params)  # needs exactly one opponent
        with pytest.raises(ParameterError):
            mv_cost(np.ones(4) / 4.0, [xi], params)


class TestBestResponse:
    def test_single_agent_recovers_v_direction(self):
        params = make_params(n=1)
        mats = build_matrices(params)
        v = compute_v(mats, 1)
        response = best_response([], 2.5, params)
        np.testing.assert_allclose(response.trades, 2.5 * v, rtol=0.0, atol=1e-13)

    def test_equilibrium_is_a_fixed_point(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            params = random_params(rng, steps_max=30)
            inventories = rng.uniform(-3.0, 3.0, params.n)
            sol = nash_equilibrium(params, inventories)
            for i in range(params.n):
                others = [sol.strategies[j] for j in range(params.n) if j != i]
                response = best_response(others, inventories[i], params)
                dev = np.abs(response.trades - sol.strategies[i].trades).max()
                assert dev <= 1e-8

    def test_zero_inventory_zero_opponents_is_zero(self):
        params = make_params()
        response = best_response([Strategy.from_trades(np.zeros(11))], 0.0, params)
        np.testing.assert_array_equal(response.trades, np.zeros(11))

    def test_beats_every_alternative(self):
        params = make_params(gamma=1.0, theta=0.2)
        rng = np.random.default_rng(5)
        other = Strategy.from_trades(rng.uniform(-0.5, 0.5, 11))
        response = best_response([other], 1.0, params)
        best_cost = mv_cost(response, [other], params)
        for _ in range(20):
            d = rng.standard_normal(11)
            d -= d.mean()  # keep the inventory fixed
            alt = Strategy(trades=response.trades + 0.1 * d, inventory=1.0)
            assert mv_cost(alt, [other], params) >= best_cost


class TestOptimalityGap:
    def test_zero_at_equilibrium_and_positive_nearby(self):
        params = make_params()
        mats = build_matrices(params)
        sol = nash_equilibrium(params, [1.0, 0.5])
        eq = sol.strategies[0]
        assert optimality_gap(eq, eq, sol.multipliers[0], mats) == 0.0
        rng = np.random.default_rng(2)
        for _ in range(20):
            d = rng.standard_normal(len(eq))
            d -= d.mean()
            candidate = Strategy(trades=eq.trades + d, inventory=eq.inventory)
            assert optimality_gap(candidate, eq, sol.multipliers[0], mats) > 0.0

    def test_matches_direct_cost_difference(self):
        rng = np.random.default_rng(29)
        for _ in range(5):
            params = random_params(rng, n_max=4, steps_max=20)
            inventories = rng.uniform(-2.0, 2.0, params.n)
            sol = nash_equilibrium(params, inventories)
            mats = build_matrices(params)
            eq = sol.strategies[0]
            others = list(sol.strategies[1:])
            eq_cost = mv_cost(eq, others, params)
            for _ in range(20):
                d = rng.standard_normal(len(eq))
                d -= d.mean()
                candidate = Strategy(trades=eq.trades + d, inventory=eq.inventory)
                gap = optimality_gap(candidate, eq, sol.multipliers[0], mats)
                diff = mv_cost(candidate, others, params) - eq_cost
                assert gap > 0.0
                assert abs(gap - diff) <= 1e-9

    def test_inventory_mismatch_rejected(self):
        mats = build_matrices(make_params(grid=TimeGrid.equidistant(3)))
        with pytest.raises(ParameterError):
            optimality_gap(
                Strategy.from_trades([1.0, 0.0, 0.0, 0.0]),
                Strategy.from_trades([0.5, 0.0, 0.0, 0.0]),
                0.1,
                mats,
            )


class TestNumericalGuards:
    def test_exactly_singular_matrix_raises(self):
        # a decay rate below machine resolution makes every kernel entry 1.0
        params = GameParams(
            n=1,
            gamma=0.0,
            theta=0.0,
            kernel=ExponentialKernel(1e-16),
            variance=BachelierVariance(1.0),
            grid=TimeGrid.equidistant(30),
        )
        with pytest.raises(NumericalError):
            compute_v(build_matrices(params), 1)

    def test_near_singular_matrix_warns(self):
        params = GameParams(
            n=1,
            gamma=0.0,
            theta=0.0,
            kernel=ExponentialKernel(1.0),
            variance=BachelierVariance(1.0),
            grid=TimeGrid(np.array([0.0, 5e-15, 1.0])),
        )
        mats = build_matrices(params)
        with pytest.warns(IllConditionedWarning):
            compute_v(mats, 1)

    def test_ill_conditioned_flag_on_solution(self):
        # extreme risk aversion makes the variance part dominate; its min
        # matrix is singular at t_0 = 0, so the condition number scales with
        # gamma sigma^2
        params = GameParams(
            n=2,
            gamma=1e14,
            theta=0.0,
            kernel=ExponentialKernel(1.0),
            variance=BachelierVariance(1.0),
            grid=TimeGrid.equidistant(20),
        )
        with pytest.warns(IllConditionedWarning):
            sol = nash_equilibrium(params, [1.0, 1.0])
        assert sol.ill_conditioned
        assert max(sol.condition_v, sol.condition_w) > 1e12


def test_import_leaves_numba_and_sparse_unloaded():
    # the condition estimate runs LAPACK dgecon on the LU, so neither the
    # numba jit nor scipy.sparse is loaded by the package
    code = (
        "import sys, impact_game; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'numba' or m.startswith('scipy.sparse')))"
    )
    src = os.path.dirname(os.path.dirname(impact_game.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs over a second of import time and nothing here needs it
    code = "import sys, impact_game; print('scipy.signal' in sys.modules)"
    src = os.path.dirname(os.path.dirname(impact_game.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "False"
