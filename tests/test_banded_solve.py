"""Banded solve for the exponential kernel on equidistant grids, against the dense LU oracle.

The dense path (`compute_v`, `compute_w`, and every solve with the banded
path switched off) is the reference.  Tolerances scale with the condition
estimate kappa and the double precision eps; the factor 16 leaves about ten
times the largest ratio seen over 300 seeded instances from the same ranges.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_game import (
    BachelierVariance,
    ExponentialKernel,
    GameParams,
    NumericalError,
    PowerLawKernel,
    TabulatedVariance,
    TimeGrid,
    best_response,
    build_matrices,
    compute_v,
    compute_w,
    mv_cost,
    nash_equilibrium,
)
from impact_game import finite_game

EPS = np.finfo(float).eps
ROUNDING = 16.0


def dense_only():
    """Every solve inside this context takes the dense LU path."""
    return mock.patch.object(finite_game, "_banded_ratio", lambda params: None)


def tabulated(draw):
    times = draw(st.lists(st.floats(0.0, 2.0), min_size=2, max_size=5, unique=True))
    values = draw(st.lists(st.floats(0.0, 3.0), min_size=len(times), max_size=len(times)))
    return TabulatedVariance(np.sort(times), np.sort(values))


@st.composite
def games(draw):
    if draw(st.booleans()):
        variance = BachelierVariance(draw(st.floats(0.5, 2.0)))
    else:
        variance = tabulated(draw)
    n = draw(st.integers(1, 8))
    params = GameParams(
        n=n,
        gamma=draw(st.floats(0.0, 5.0)),
        theta=draw(st.floats(0.0, 1.0)),
        kernel=ExponentialKernel(draw(st.floats(0.05, 10.0))),
        variance=variance,
        grid=TimeGrid.equidistant(draw(st.integers(1, 400)), draw(st.floats(0.5, 3.0))),
    )
    inventories = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    return params, inventories


def normalized_tolerance(cond: float, vector: np.ndarray) -> float:
    # kappa eps relative error of the solve, amplified by the unit-sum normalization
    return ROUNDING * cond * EPS * np.abs(vector).max() * np.abs(vector).sum()


@settings(max_examples=40, deadline=None)
@given(games())
def test_banded_matches_dense_oracle(game):
    params, inventories = game
    matrices = build_matrices(params)
    eq = nash_equilibrium(params, inventories)
    with dense_only():
        dense = nash_equilibrium(params, inventories)
    assert eq.solver == "banded" and dense.solver == "lu"

    v, w = compute_v(matrices, params.n), compute_w(matrices)
    np.testing.assert_array_equal(dense.v, v)
    assert np.abs(eq.v - v).max() <= normalized_tolerance(eq.condition_v, v)
    assert np.abs(eq.w - w).max() <= normalized_tolerance(eq.condition_w, w)

    # the FOC residual may exceed the dense one by the rounding of one gradient evaluation
    trades = np.column_stack([s.trades for s in eq.strategies])
    others = trades.sum(axis=1, keepdims=True) - trades
    gradient_size = (
        np.abs(matrices.full).sum(axis=1).max() * np.abs(trades).max(axis=0)
        + np.abs(matrices.tilde).sum(axis=1).max() * np.abs(others).max(axis=0)
    )
    scale = (gradient_size / np.maximum(1.0, np.abs(eq.multipliers))).max()
    assert eq.foc_residual <= dense.foc_residual + ROUNDING * EPS * scale

    # costs: the rounding of the quadratic forms, |xi_i|' (|Gamma| |xi_i| + |Gtilde| |others|),
    # plus the smallest normal double for costs that underflow
    cost_size = np.abs(trades).sum(axis=0) * gradient_size
    for i, strategy in enumerate(eq.strategies):
        rivals = eq.strategies[:i] + eq.strategies[i + 1 :]
        cost = mv_cost(strategy, rivals, params)
        assert abs(eq.mv_costs[i] - cost) <= ROUNDING * EPS * cost_size[i] + np.finfo(float).tiny

    if params.n > 1:
        response = best_response(eq.strategies[1:], inventories[0], params)
        with dense_only():
            reference = best_response(eq.strategies[1:], inventories[0], params)
        ratio = finite_game._banded_ratio(params)
        _, cond, solver = finite_game._solve(matrices.full, "best response", ratio)
        assert solver == "banded"
        size = max(np.abs(reference.trades).max(), 1.0) * max(np.abs(reference.trades).sum(), 1.0)
        assert np.abs(response.trades - reference.trades).max() <= ROUNDING * cond * EPS * size


@settings(max_examples=30, deadline=None)
@given(games())
def test_banded_solve_and_condition_against_dense(game):
    params, _ = game
    matrices = build_matrices(params)
    ratio = finite_game._banded_ratio(params)
    for weight in (params.n - 1, -1, 0):
        matrix = finite_game._combined(matrices, weight)
        x, cond, solver = finite_game._solve(matrix, "x", ratio)
        reference, _, dense_solver = finite_game._solve(matrix, "x", None)
        assert (solver, dense_solver) == ("banded", "lu")
        assert np.abs(x - reference).max() <= ROUNDING * cond * EPS * np.abs(reference).max()
        # Hager-Higham gives a lower bound of the exact kappa_1
        assert cond <= np.linalg.cond(matrix, 1) * (1.0 + 1e-8)
        system = finite_game._BandedSystem(matrix, ratio)
        ones = np.ones(matrix.shape[0])
        backward = np.abs(ones - matrix @ x[:, 0]).max() / (system.norm_inf * np.abs(x).max() + 1.0)
        assert backward <= finite_game._BACKWARD_ERROR_LIMIT


def test_condition_estimate_close_to_exact():
    rng = np.random.default_rng(8)
    for _ in range(10):
        params = GameParams(
            n=int(rng.integers(1, 9)),
            gamma=float(rng.uniform(0.0, 5.0)),
            theta=float(rng.uniform(0.0, 1.0)),
            kernel=ExponentialKernel(float(rng.uniform(0.05, 10.0))),
            variance=BachelierVariance(1.0),
            grid=TimeGrid.equidistant(int(rng.integers(2, 300))),
        )
        eq = nash_equilibrium(params, np.ones(params.n))
        matrices = build_matrices(params)
        exact_v = np.linalg.cond(finite_game._combined(matrices, params.n - 1), 1)
        exact_w = np.linalg.cond(finite_game._combined(matrices, -1), 1)
        assert exact_v / 3.0 <= eq.condition_v <= exact_v * (1.0 + 1e-8)
        assert exact_w / 3.0 <= eq.condition_w <= exact_w * (1.0 + 1e-8)


def exponential_params(grid, kernel=None):
    return GameParams(
        n=3, gamma=0.7, theta=0.05, kernel=kernel or ExponentialKernel(1.3),
        variance=BachelierVariance(1.0), grid=grid,
    )


@pytest.mark.parametrize(
    "grid",
    [TimeGrid.equidistant(40), TimeGrid.equidistant(0), TimeGrid(np.arange(7.0)),
     TimeGrid(np.linspace(0.5, 2.0, 31))],
    ids=["unit-horizon", "single-point", "unit-spaced", "offset"],
)
def test_equidistant_exponential_takes_banded(grid):
    assert nash_equilibrium(exponential_params(grid), [1.0, 2.0, -1.0]).solver == "banded"


@pytest.mark.parametrize(
    "params",
    [
        exponential_params(TimeGrid.equidistant(40), kernel=PowerLawKernel(0.8)),
        exponential_params(TimeGrid(np.array([0.0, 0.1, 0.3, 0.35, 1.0]))),
    ],
    ids=["power-law", "non-equidistant"],
)
def test_other_kernels_and_grids_take_lu(params):
    eq = nash_equilibrium(params, [1.0, 2.0, -1.0])
    assert eq.solver == "lu"
    matrices = build_matrices(params)
    np.testing.assert_array_equal(eq.v, compute_v(matrices, 3))
    np.testing.assert_array_equal(eq.w, compute_w(matrices))


def test_non_contracting_refinement_falls_back_to_lu(monkeypatch):
    # factoring 3 M makes each refinement step keep 2/3 of the residual
    factor = finite_game.dgbtrf
    monkeypatch.setattr(finite_game, "dgbtrf", lambda ab, kl, ku, **kw: factor(3.0 * ab, kl, ku))
    params = exponential_params(TimeGrid.equidistant(60))
    eq = nash_equilibrium(params, [1.0, 2.0, -1.0])
    response = best_response(eq.strategies[1:], 1.0, params)
    assert eq.solver == "lu"
    matrices = build_matrices(params)
    np.testing.assert_array_equal(eq.v, compute_v(matrices, 3))
    np.testing.assert_array_equal(eq.w, compute_w(matrices))
    with dense_only():
        np.testing.assert_array_equal(
            response.trades, best_response(eq.strategies[1:], 1.0, params).trades
        )


def test_singular_banded_system_raises_through_lu():
    # every kernel entry rounds to 1.0: B A B' is singular, and so is A
    params = GameParams(
        n=1, gamma=0.0, theta=0.0, kernel=ExponentialKernel(1e-16),
        variance=BachelierVariance(1.0), grid=TimeGrid.equidistant(30),
    )
    with pytest.raises(NumericalError):
        nash_equilibrium(params, [1.0])
