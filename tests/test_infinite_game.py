"""Stationary (unbounded-grid) equilibrium: roots, sequences, identities."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_game import (
    BachelierVariance,
    ExponentialKernel,
    GameParams,
    ParameterError,
    TimeGrid,
    alpha_closed_form_n1,
    alpha_residual,
    beta_residual,
    build_matrices,
    compute_w,
    critical_theta_infinite,
    infinite_nash,
    infinite_v,
    infinite_w,
    solve_alpha,
    solve_beta,
    solve_stationary,
    v_identity_deviation,
    w_identity_deviation,
)
from impact_game import finite_game, infinite_game
from impact_game.infinite_game import TruncatedSequence

# one-agent decay rate at rho = gamma = sigma = 1, correctly rounded;
# agreed upon by the closed form and an independent high-precision evaluation
ALPHA_N1_UNIT = 0.561952002379033


def bracketing_ulp_neighbours(residual, root, lower, upper):
    """The residual must change sign within one ulp of the returned root."""
    below = residual(np.nextafter(root, lower))
    above = residual(np.nextafter(root, upper))
    return below <= 0.0 <= above


class TestAlphaResidual:
    def test_signs_at_interval_ends(self):
        assert alpha_residual(1e-6, 1, 1.0, 1.0, 1.0) < -1e10
        assert alpha_residual(1.0 - 1e-6, 1, 1.0, 1.0, 1.0) > 1e5

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            alpha_residual(0.0, 1, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            alpha_residual(-0.5, 1, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            alpha_residual(1.0, 1, 1.0, 1.0, 1.0)  # pole at alpha = rho
        with pytest.raises(ParameterError):
            alpha_residual(0.5, 0, 1.0, 1.0, 1.0)

    def test_strictly_increasing_on_interval(self):
        rho = 2.0
        grid = np.linspace(0.05 * rho, 0.95 * rho, 60)
        values = [alpha_residual(a, 3, rho, 0.7, 1.4) for a in grid]
        assert np.all(np.diff(values) > 0.0)

    def test_minus_infinity_where_the_risk_term_overflows(self):
        # (1 - e^{-alpha})^2 underflows to 0 below alpha ~ 1e-162
        assert alpha_residual(1e-200, 2, 1.0, 1.0, 1.0) == -math.inf
        assert alpha_residual(1e-200, 2, 1.0, 0.0, 1.0) > 0.0  # no risk term at gamma = 0


class TestSolveAlpha:
    def test_frozen_unit_parameters(self):
        alpha = solve_alpha(1, 1.0, 1.0, 1.0)
        assert abs(alpha - ALPHA_N1_UNIT) <= 2.3e-16

    def test_matches_closed_form_single_agent(self):
        assert abs(alpha_closed_form_n1(1.0, 1.0, 1.0) - ALPHA_N1_UNIT) <= 2.3e-16
        for rho in (0.5, 1.0, 2.0):
            for gamma in (0.5, 1.0, 2.0):
                for sigma in (0.5, 1.0, 2.0):
                    solved = solve_alpha(1, rho, gamma, sigma)
                    closed = alpha_closed_form_n1(rho, gamma, sigma)
                    assert abs(solved - closed) <= 1e-12

    def test_residual_small_on_moderate_parameters(self):
        for rho in (0.5, 1.0, 2.0):
            for gamma in (0.5, 1.0, 2.0):
                for sigma in (0.5, 1.0, 2.0):
                    for n in (1, 2, 4):
                        alpha = solve_alpha(n, rho, gamma, sigma)
                        assert abs(alpha_residual(alpha, n, rho, gamma, sigma)) <= 1e-12

    def test_root_bracketed_within_one_ulp_across_wide_box(self):
        # Where the root is pinned against the pole at rho, the smallest
        # representable |residual| can exceed any fixed tolerance, so the
        # faithful contract is a sign change within one ulp of the output.
        rng = np.random.default_rng(123)
        for _ in range(25):
            rho, gamma, sigma = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3))
            n = int(rng.integers(1, 9))
            alpha = solve_alpha(n, rho, gamma, sigma)
            assert 0.0 < alpha < rho
            assert bracketing_ulp_neighbours(
                lambda a: alpha_residual(a, n, rho, gamma, sigma), alpha, 0.0, rho
            )

    def test_monotone_in_risk_aversion(self):
        alphas = [solve_alpha(2, 1.0, gamma, 1.0) for gamma in (0.25, 0.5, 1.0, 2.0, 4.0)]
        assert np.all(np.diff(alphas) > 0.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            solve_alpha(1, 1.0, 0.0, 1.0)  # needs positive risk aversion
        with pytest.raises(ParameterError):
            solve_alpha(1, -1.0, 1.0, 1.0)

    @settings(max_examples=40, deadline=None)
    @given(
        rho=st.floats(0.1, 5.0),
        gamma=st.floats(0.1, 5.0),
        sigma=st.floats(0.2, 3.0),
        n=st.integers(1, 6),
    )
    def test_root_always_interior(self, rho, gamma, sigma, n):
        alpha = solve_alpha(n, rho, gamma, sigma)
        assert 0.0 < alpha < rho


class TestBetaResidual:
    def test_limits(self):
        assert beta_residual(1e-8, 0.25, 1.0, 1.0, 1.0) < -1e10
        for theta in (0.0, 0.25, 1.0):
            limit = 2.0 * theta + 0.5
            assert abs(beta_residual(50.0, theta, 1.0, 1.0, 1.0) - limit) <= 1e-12
        assert beta_residual(1e-200, 0.25, 1.0, 1.0, 1.0) == -math.inf

    def test_risk_term_keeps_precision_where_its_square_is_subnormal(self):
        # (1 - e^{-beta})^2 ~ 1e-320 keeps about 11 bits; gamma sigma^2 / beta^2 = 1e20
        assert beta_residual(1e-160, 0.0, 1.0, 1e-300, 1.0) == pytest.approx(-1e20, rel=1e-12)

    def test_single_sign_change_on_scan(self):
        for theta in (0.25, 1.0):
            grid = np.linspace(1e-3, 20.0, 4001)
            signs = np.sign([beta_residual(b, theta, 1.0, 1.0, 1.0) for b in grid])
            flips = np.count_nonzero(np.diff(signs))
            assert flips == 1

    def test_domain_errors(self):
        with pytest.raises(ParameterError):
            beta_residual(0.0, 0.25, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            beta_residual(-1.0, 0.25, 1.0, 1.0, 1.0)
        with pytest.raises(ParameterError):
            beta_residual(1.0, -0.25, 1.0, 1.0, 1.0)


class TestSolveBeta:
    def test_residual_small_across_box(self):
        rng = np.random.default_rng(321)
        for _ in range(25):
            rho, gamma, sigma = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 3))
            theta = float(rng.uniform(0.0, 3.0))
            beta = solve_beta(theta, rho, gamma, sigma)
            assert beta > 0.0
            assert abs(beta_residual(beta, theta, rho, gamma, sigma)) <= 1e-12
            assert bracketing_ulp_neighbours(
                lambda b: beta_residual(b, theta, rho, gamma, sigma), beta, 0.0, np.inf
            )

    def test_monotone_in_transaction_cost(self):
        betas = [solve_beta(theta, 1.0, 1.0, 1.0) for theta in (0.0, 0.25, 1.0, 3.0)]
        assert np.all(np.diff(betas) < 0.0)

    def test_validation(self):
        with pytest.raises(ParameterError):
            solve_beta(0.25, 1.0, 0.0, 1.0)
        with pytest.raises(ParameterError):
            solve_beta(-0.1, 1.0, 1.0, 1.0)


class TestInfiniteSequences:
    def test_v_leading_entry_closed_form(self):
        alpha = solve_alpha(2, 1.0, 1.0, 1.0)
        v = infinite_v(alpha, 1.0)
        expected = math.expm1(alpha) / (math.exp(alpha) - math.exp(alpha - 1.0))
        assert v.values[0] == pytest.approx(expected, rel=1e-14)

    def test_v_geometric_tail_and_mass(self):
        alpha = 0.4
        eps = 1e-12
        v = infinite_v(alpha, 1.0, eps)
        assert v.truncation_len == math.ceil(math.log(1.0 / eps) / alpha) + 1
        assert np.all(v.values > 0.0)
        ratios = v.values[2:] / v.values[1:-1]
        np.testing.assert_allclose(ratios, math.exp(-alpha), rtol=1e-13)
        partial = np.cumsum(v.values)
        assert np.all(partial <= 1.0 + 1e-12)
        assert 1.0 - partial[-1] <= v.tail_mass * (1.0 + 1e-9) + 1e-15
        assert 0.0 < v.tail_mass <= eps

    def test_v_domain_errors(self):
        with pytest.raises(ParameterError):
            infinite_v(0.0, 1.0)
        with pytest.raises(ParameterError):
            infinite_v(1.0, 1.0)  # alpha must stay below rho
        with pytest.raises(ParameterError):
            infinite_v(0.5, 1.0, eps=1.5)

    def test_w_first_entry_and_decay(self):
        beta = solve_beta(0.25, 1.0, 1.0, 1.0)
        w = infinite_w(beta)
        assert w.values[0] == -math.expm1(-beta)  # 1 - e^{-beta}
        ratios = w.values[1:] / w.values[:-1]
        np.testing.assert_allclose(ratios, math.exp(-beta), rtol=1e-13)
        partial = np.cumsum(w.values)
        assert np.all(partial <= 1.0 + 1e-12)
        assert 1.0 - partial[-1] <= w.tail_mass * (1.0 + 1e-9) + 1e-15
        assert w.tail_mass <= 1e-12

    def test_w_large_decay_rate_concentrates_first_entry(self):
        w = infinite_w(50.0)
        assert w.values[0] == pytest.approx(1.0, abs=1e-20)
        assert np.all(w.values[1:] <= 1e-20)

    def test_w_domain_errors(self):
        with pytest.raises(ParameterError):
            infinite_w(0.0)
        with pytest.raises(ParameterError):
            infinite_w(1.0, eps=0.0)

    def test_sequence_values_readonly(self):
        seq = TruncatedSequence(values=np.array([0.5, 0.25]), tail_mass=0.25)
        assert len(seq) == 2
        with pytest.raises(ValueError):
            seq.values[0] = 1.0


class TestTruncatedIdentities:
    CASES = [
        (1, 1.0, 1.0, 1.0),
        (2, 1.0, 1.0, 1.0),
        (4, 0.5, 2.0, 0.7),
        (3, 2.0, 0.3, 1.5),
        (6, 0.8, 3.0, 2.0),
    ]

    @pytest.mark.parametrize("n,rho,gamma,sigma", CASES)
    def test_v_rows_constant(self, n, rho, gamma, sigma):
        alpha = solve_alpha(n, rho, gamma, sigma)
        assert v_identity_deviation(alpha, n, rho, gamma, sigma) <= 1e-11

    @pytest.mark.parametrize("n,rho,gamma,sigma", CASES)
    def test_w_rows_constant(self, n, rho, gamma, sigma):
        theta = 0.3 * n
        beta = solve_beta(theta, rho, gamma, sigma)
        assert w_identity_deviation(beta, theta, rho, gamma, sigma) <= 1e-11

    @pytest.mark.parametrize("block_entries", [1, 1000, infinite_game._BLOCK_ENTRIES])
    @pytest.mark.parametrize("which", ["v", "w"])
    @pytest.mark.parametrize("n,rho,gamma,sigma", CASES)
    def test_blocked_rows_match_dense_product(self, monkeypatch, n, rho, gamma, sigma, which, block_entries):
        blocks, products = [], []
        assemble, identity_rows = infinite_game._assemble_rows, infinite_game._identity_rows

        def recording_assemble(params, start, stop):
            blocks.append((start, stop))
            return assemble(params, start, stop)

        def recording_rows(params, weight, x, count):
            rows = identity_rows(params, weight, x, count)
            products.append((params, weight, x, count, rows))
            return rows

        monkeypatch.setattr(infinite_game, "_BLOCK_ENTRIES", block_entries)
        monkeypatch.setattr(infinite_game, "_assemble_rows", recording_assemble)
        monkeypatch.setattr(infinite_game, "_identity_rows", recording_rows)
        if which == "v":
            v_identity_deviation(solve_alpha(n, rho, gamma, sigma), n, rho, gamma, sigma)
        else:
            theta = 0.3 * n
            w_identity_deviation(solve_beta(theta, rho, gamma, sigma), theta, rho, gamma, sigma)
        [(params, weight, x, count, rows)] = products
        dense = finite_game._combined(build_matrices(params), weight) @ x
        np.testing.assert_allclose(rows, dense[:count], rtol=1e-14, atol=0.0)
        # the blocks tile rows 0 .. count - 1, each within the entry budget
        assert [start for start, _ in blocks] == [0] + [stop for _, stop in blocks[:-1]]
        assert blocks[-1][1] == count
        step = max(1, block_entries // x.size)
        assert all(stop - start <= step for start, stop in blocks)
        if block_entries < x.size * count:
            assert len(blocks) > 1


class TestSizeLimits:
    def test_long_truncation_rejected_before_allocation(self):
        # rho = 1e-6 needs 27.6M entries per sequence
        with pytest.raises(ParameterError, match="27631050 entries"):
            solve_stationary(1, 1e-6, 1.0, 1.0, 0.0)
        with pytest.raises(ParameterError, match="limit of"):
            infinite_v(1e-7, 1.0)
        with pytest.raises(ParameterError, match="limit of"):
            infinite_w(1e-320)  # log(1/eps)/beta overflows to inf

    def test_truncation_limit_is_exact(self, monkeypatch):
        # ceil(log(1e12)) = 28 at rate 1: v_0 .. v_28 is 29 entries
        assert len(infinite_w(1.0)) == 29
        monkeypatch.setattr(infinite_game, "_MAX_TRUNCATION_LEN", 29)
        assert len(infinite_w(1.0)) == 29
        monkeypatch.setattr(infinite_game, "_MAX_TRUNCATION_LEN", 28)
        with pytest.raises(ParameterError, match="limit of 28"):
            infinite_w(1.0)

    def test_large_identity_check_rejected_before_allocation(self, monkeypatch):
        # gamma = 1e-6 would need an extended grid of 49110 points
        def no_build(params, start, stop):
            raise AssertionError("rows assembled past the limit")

        monkeypatch.setattr(infinite_game, "_assemble_rows", no_build)
        alpha = solve_alpha(1, 1.0, 1e-6, 1.0)
        with pytest.raises(ParameterError, match="side 49110"):
            v_identity_deviation(alpha, 1, 1.0, 1e-6, 1.0)
        beta = solve_beta(0.0, 1.0, 1e-6, 1.0)
        with pytest.raises(ParameterError, match="limit of"):
            w_identity_deviation(beta, 0.0, 1.0, 1e-6, 1.0)

    def test_identity_limit_admits_the_stationary_corner(self):
        # n = 6, rho = 0.3, gamma = 1e-3 needs M = 4486 and M_build = 5820
        alpha = solve_alpha(6, 0.3, 1e-3, 1.0)
        m = infinite_game._truncation_index(alpha, 1e-12)
        m_build = infinite_game._extended_grid_length(alpha, m, 1e-3, 1.0, 0.3, 1e-12)
        assert (m, m_build) == (4486, 5820)
        assert m_build + 1 <= finite_game._MAX_DENSE_SIDE

    def test_stationary_corner_checks_stay_small(self):
        # the asserted rows of two 5821^2 matrices, assembled in 4 MB blocks
        n, rho, gamma = 6, 0.3, 1e-3
        theta = critical_theta_infinite(n)
        alpha = solve_alpha(n, rho, gamma, 1.0)
        beta = solve_beta(theta, rho, gamma, 1.0)
        tracemalloc.start()
        try:
            dev_v = v_identity_deviation(alpha, n, rho, gamma, 1.0)
            dev_w = w_identity_deviation(beta, theta, rho, gamma, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert max(dev_v, dev_w) <= 1e-11

    def test_identity_limit_is_exact(self, monkeypatch):
        n, rho, gamma, sigma = 2, 1.0, 1.0, 1.0
        alpha = solve_alpha(n, rho, gamma, sigma)
        m = infinite_game._truncation_index(alpha, 1e-12)
        side = infinite_game._extended_grid_length(alpha, m, gamma, sigma, rho, 1e-12) + 1
        monkeypatch.setattr(finite_game, "_MAX_DENSE_SIDE", side)
        assert v_identity_deviation(alpha, n, rho, gamma, sigma) <= 1e-11
        monkeypatch.setattr(finite_game, "_MAX_DENSE_SIDE", side - 1)
        with pytest.raises(ParameterError, match=f"side {side}"):
            v_identity_deviation(alpha, n, rho, gamma, sigma)


class TestFiniteInfiniteConsistency:
    def test_finite_w_converges_to_geometric(self):
        beta = solve_beta(0.25, 1.0, 1.0, 1.0)
        m = 200
        params = GameParams(
            n=2,
            gamma=1.0,
            theta=0.25,
            kernel=ExponentialKernel(1.0),
            variance=BachelierVariance(1.0),
            grid=TimeGrid(np.arange(m + 1, dtype=float)),
        )
        w_finite = compute_w(build_matrices(params))
        w_geometric = -math.expm1(-beta) * np.exp(-beta * np.arange(m + 1))
        assert np.abs(w_finite - w_geometric).max() <= 1e-6


class TestStationarySolution:
    def test_sequences_share_truncation_length(self):
        sol = solve_stationary(2, 1.0, 1.0, 1.0, 0.25)
        assert len(sol.v) == len(sol.w) == sol.truncation_len
        assert sol.theta == 0.25
        assert abs(alpha_residual(sol.alpha, 2, 1.0, 1.0, 1.0) - sol.residual_alpha) == 0.0
        assert abs(sol.residual_alpha) <= 1e-12
        assert abs(sol.residual_beta) <= 1e-12
        assert 0.0 < sol.tail_mass <= 1e-12

    def test_critical_cost_levels(self):
        assert critical_theta_infinite(1) == 0.0
        assert critical_theta_infinite(2) == 0.25
        assert critical_theta_infinite(5) == 1.0


class TestInfiniteNash:
    def test_equal_inventories_follow_v(self):
        sol = solve_stationary(3, 1.0, 1.0, 1.0, 0.5)
        strategies = infinite_nash(3, 1.0, 1.0, 1.0, 0.5, [1.0, 1.0, 1.0])
        for xi in strategies:
            np.testing.assert_array_equal(xi, sol.v)

    def test_zero_sum_inventories_follow_w_any_theta(self):
        sol = solve_stationary(2, 1.0, 1.0, 1.0, 0.7)
        strategies = infinite_nash(2, 1.0, 1.0, 1.0, 0.7, [1.0, -1.0])
        np.testing.assert_array_equal(strategies[0], sol.w)
        np.testing.assert_array_equal(strategies[1], -sol.w)

    def test_zero_inventories_give_zero_strategies(self):
        strategies = infinite_nash(2, 1.0, 1.0, 1.0, 1.3, [0.0, 0.0])
        for xi in strategies:
            assert not np.any(xi)

    def test_strategies_sum_to_inventories_within_tail(self):
        inventories = [2.0, 1.0, 0.0]
        theta = critical_theta_infinite(3)
        sol = solve_stationary(3, 1.0, 1.0, 1.0, theta)
        strategies = infinite_nash(3, 1.0, 1.0, 1.0, theta, inventories)
        xbar = np.mean(inventories)
        for xi, inventory in zip(strategies, inventories):
            budget = (abs(xbar) + abs(inventory - xbar)) * sol.tail_mass
            assert abs(xi.sum() - inventory) <= budget * (1.0 + 1e-9) + 1e-12

    def test_nonzero_mean_requires_critical_theta(self):
        with pytest.raises(ParameterError):
            infinite_nash(2, 1.0, 1.0, 1.0, 0.3, [1.0, 1.0])
        # and the matching critical level is accepted
        infinite_nash(2, 1.0, 1.0, 1.0, 0.25, [1.0, 1.0])

    def test_inventory_validation(self):
        with pytest.raises(ParameterError):
            infinite_nash(2, 1.0, 1.0, 1.0, 0.25, [1.0])
        with pytest.raises(ParameterError):
            infinite_nash(2, 1.0, 1.0, 1.0, 0.25, [1.0, np.nan])
