"""The two vectorised steps: the decay matrix and the batch path-cost product."""

import numpy as np
import pytest

from impact_game import (
    BachelierVariance,
    GameParams,
    PowerLawKernel,
    TimeGrid,
    build_matrices,
    realized_costs,
    simulate_paths,
)


class TestDecayMatrix:
    def test_power_entries(self):
        # with gamma = theta = 0 the full matrix is the decay matrix G(|t_k - t_l|)
        # and Gtilde is its strict lower triangle plus half its diagonal
        params = GameParams(
            n=1,
            gamma=0.0,
            theta=0.0,
            kernel=PowerLawKernel(2.0),
            variance=BachelierVariance(1.0),
            grid=TimeGrid(np.array([0.0, 1.0, 3.0])),
        )
        mats = build_matrices(params)
        assert mats.full[1, 0] == pytest.approx(0.25, rel=1e-15)
        assert mats.full[2, 0] == pytest.approx(1.0 / 16.0, rel=1e-15)
        expected_tilde = np.array(
            [[0.5, 0.0, 0.0], [0.25, 0.5, 0.0], [1.0 / 16.0, 1.0 / 9.0, 0.5]]
        )
        np.testing.assert_allclose(mats.tilde, expected_tilde, rtol=1e-15, atol=0.0)


class TestPathCosts:
    def test_formula(self):
        # batch cost = cost on the zero path minus the path dotted with the trades
        params = GameParams(
            n=2,
            gamma=0.5,
            theta=0.2,
            kernel=PowerLawKernel(0.8),
            variance=BachelierVariance(1.0),
            grid=TimeGrid.equidistant(3),
            s0=1.5,
        )
        trades = np.array([[1.0, 0.5], [2.0, -1.0], [0.0, 0.5], [-3.0, 0.0]])
        strategies = list(trades.T)
        fixed = realized_costs(params, strategies, np.zeros(4))
        stds = np.sqrt(np.diff(params.phi_at_grid(), prepend=0.0))
        # 3 paths fit in block 0, which draws from the seed's block-0 stream
        normals = np.random.default_rng(np.random.SeedSequence(5, spawn_key=(0,))).standard_normal((3, 4))
        paths = params.s0 + np.cumsum(normals * stds, axis=1)
        costs = simulate_paths(params, strategies, 3, 5).costs
        np.testing.assert_allclose(costs, fixed[None, :] - paths @ trades, rtol=1e-14, atol=1e-14)
