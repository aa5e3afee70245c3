"""Grid, kernel, and variance-function contracts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from impact_game import (
    BachelierVariance,
    ExponentialKernel,
    GameParams,
    ParameterError,
    PowerLawKernel,
    TabulatedVariance,
    TimeGrid,
    kernel_eval,
    variance_eval,
)


def make_params(**overrides):
    base = dict(
        n=2,
        gamma=0.5,
        theta=0.1,
        kernel=ExponentialKernel(1.0),
        variance=BachelierVariance(1.0),
        grid=TimeGrid.equidistant(4),
    )
    base.update(overrides)
    return GameParams(**base)


class TestTimeGrid:
    def test_equidistant_places_k_over_n(self):
        for steps, horizon in [(1, 1.0), (4, 1.0), (5, 2.0), (7, 0.3)]:
            grid = TimeGrid.equidistant(steps, horizon)
            expected = np.arange(steps + 1) * (horizon / steps)
            np.testing.assert_allclose(grid.times, expected, rtol=0.0, atol=1e-12)
            assert grid.times[0] == 0.0
            assert grid.times[-1] == horizon
            assert grid.steps == steps
            assert len(grid) == steps + 1

    def test_zero_steps_is_single_time(self):
        grid = TimeGrid.equidistant(0)
        assert list(grid.times) == [0.0]
        assert grid.steps == 0

    @pytest.mark.parametrize("horizon", [-5.0, 0.0, float("nan"), float("inf")])
    def test_zero_steps_still_validates_horizon(self, horizon):
        with pytest.raises(ParameterError, match="horizon"):
            TimeGrid.equidistant(0, horizon)

    def test_rejects_bad_times(self):
        with pytest.raises(ParameterError):
            TimeGrid(np.array([0.0, 0.5, 0.5]))
        with pytest.raises(ParameterError):
            TimeGrid(np.array([0.3, 0.1]))
        with pytest.raises(ParameterError):
            TimeGrid(np.array([-0.1, 0.5]))
        with pytest.raises(ParameterError):
            TimeGrid(np.array([]))
        with pytest.raises(ParameterError):
            TimeGrid(np.array([0.0, np.inf]))
        for steps in (-1, 2.5, True, 3.0):
            with pytest.raises(ParameterError, match="integer"):
                TimeGrid.equidistant(steps)
        assert TimeGrid.equidistant(np.int64(3)).steps == 3

    def test_single_positive_time_allowed(self):
        assert TimeGrid(np.array([0.25])).steps == 0

    def test_times_are_readonly(self):
        grid = TimeGrid.equidistant(3)
        with pytest.raises(ValueError):
            grid.times[0] = 1.0


class TestKernels:
    @pytest.mark.parametrize(
        "kernel",
        [ExponentialKernel(1.3), PowerLawKernel(0.7), PowerLawKernel(0.5), PowerLawKernel(1.0),
         PowerLawKernel(2.0)],
    )
    def test_in_place_evaluation_is_bit_identical(self, kernel):
        times = np.sort(np.random.default_rng(3).uniform(0.0, 4.0, 40))
        lag = np.abs(np.subtract.outer(times, times))
        expected = kernel.eval(lag)
        result = kernel._eval_in_place(lag)
        assert np.shares_memory(result, lag)
        np.testing.assert_array_equal(result, expected)

    def test_exponential_values(self):
        kernel = ExponentialKernel(2.0)
        assert kernel_eval(kernel, 0.0) == 1.0
        assert kernel_eval(kernel, 0.5) == pytest.approx(np.exp(-1.0), rel=1e-15)

    def test_power_law_values(self):
        kernel = PowerLawKernel(2.0)
        assert kernel_eval(kernel, 0.0) == 1.0
        assert kernel_eval(kernel, 1.0) == pytest.approx(0.25, rel=1e-15)
        assert kernel_eval(kernel, 3.0) == pytest.approx(1.0 / 16.0, rel=1e-15)

    def test_parameter_validation(self):
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ParameterError):
                ExponentialKernel(bad)
            with pytest.raises(ParameterError):
                PowerLawKernel(bad)

    def test_eval_rejects_bad_lags(self):
        kernel = ExponentialKernel(1.0)
        with pytest.raises(ParameterError):
            kernel_eval(kernel, -0.1)
        with pytest.raises(ParameterError):
            kernel_eval(kernel, np.nan)
        with pytest.raises(ParameterError):
            kernel_eval(kernel, np.array([0.0, -1.0]))

    def test_eval_shapes(self):
        kernel = PowerLawKernel(1.5)
        out = kernel_eval(kernel, np.array([[0.0, 1.0], [2.0, 3.0]]))
        assert out.shape == (2, 2)
        assert isinstance(kernel_eval(kernel, 1.0), float)

    @pytest.mark.parametrize(
        "kernel",
        [ExponentialKernel(0.3), ExponentialKernel(4.0), PowerLawKernel(0.5), PowerLawKernel(3.0)],
    )
    def test_nonincreasing_and_convex(self, kernel):
        lags = np.linspace(0.0, 10.0, 401)
        values = kernel_eval(kernel, lags)
        assert np.all(values > 0.0)
        assert np.all(np.diff(values) < 0.0)
        assert np.all(np.diff(values, 2) > -1e-15)

    @given(
        rho=st.floats(0.01, 50.0),
        lags=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=20),
    )
    def test_exponential_range_property(self, rho, lags):
        lags = np.array(lags)
        values = kernel_eval(ExponentialKernel(rho), lags)
        assert np.all(values >= 0.0)
        assert np.all(values <= 1.0)
        # strictly positive wherever the exponent cannot underflow
        assert np.all(values[rho * lags < 700.0] > 0.0)


class TestVarianceFunctions:
    def test_bachelier_is_linear_in_time(self):
        phi = BachelierVariance(2.0)
        assert variance_eval(phi, 0.0) == 0.0
        assert variance_eval(phi, 0.75) == pytest.approx(4.0 * 0.75, rel=1e-15)
        np.testing.assert_allclose(
            variance_eval(phi, np.array([0.0, 1.0, 2.5])), [0.0, 4.0, 10.0], rtol=1e-15
        )

    def test_bachelier_validation(self):
        for bad in (0.0, -1.0, np.nan, 1e200):  # 1e200 squared overflows
            with pytest.raises(ParameterError):
                BachelierVariance(bad)

    def test_tabulated_interpolates_and_clamps(self):
        phi = TabulatedVariance(np.array([0.0, 1.0, 2.0]), np.array([0.0, 2.0, 3.0]))
        assert variance_eval(phi, 0.5) == pytest.approx(1.0, rel=1e-15)
        assert variance_eval(phi, 1.5) == pytest.approx(2.5, rel=1e-15)
        assert variance_eval(phi, 10.0) == 3.0  # constant beyond the last knot
        assert variance_eval(phi, 0.0) == 0.0

    def test_tabulated_allows_constant_zero(self):
        phi = TabulatedVariance(np.array([0.0, 1.0]), np.array([0.0, 0.0]))
        assert variance_eval(phi, 0.7) == 0.0

    def test_tabulated_validation(self):
        with pytest.raises(ParameterError):
            TabulatedVariance(np.array([0.0, 1.0]), np.array([1.0, 0.5]))  # decreasing
        with pytest.raises(ParameterError):
            TabulatedVariance(np.array([1.0, 0.5]), np.array([0.0, 1.0]))  # times not increasing
        with pytest.raises(ParameterError):
            TabulatedVariance(np.array([0.0, 1.0]), np.array([0.0]))  # length mismatch
        with pytest.raises(ParameterError):
            TabulatedVariance(np.array([0.0, 1.0]), np.array([-1.0, 0.0]))  # negative

    def test_eval_rejects_negative_times(self):
        with pytest.raises(ParameterError):
            variance_eval(BachelierVariance(1.0), -0.5)


class TestGameParams:
    def test_accepts_valid_parameters(self):
        params = make_params()
        assert params.n == 2
        assert params.s0 == 0.0

    def test_rejects_bad_agent_counts(self):
        for bad in (0, -1, 1.5, True):
            with pytest.raises(ParameterError):
                make_params(n=bad)

    def test_rejects_bad_scalars(self):
        with pytest.raises(ParameterError):
            make_params(gamma=-0.1)
        with pytest.raises(ParameterError):
            make_params(theta=-1.0)
        with pytest.raises(ParameterError):
            make_params(gamma=np.nan)
        with pytest.raises(ParameterError):
            make_params(s0=np.inf)

    def test_rejects_wrong_component_types(self):
        with pytest.raises(ParameterError):
            make_params(kernel="exp")
        with pytest.raises(ParameterError):
            make_params(variance=1.0)
        with pytest.raises(ParameterError):
            make_params(grid=np.array([0.0, 1.0]))

    def test_gamma_zero_and_theta_zero_allowed(self):
        params = make_params(gamma=0.0, theta=0.0)
        assert params.gamma == 0.0

    def test_phi_at_grid_matches_variance(self):
        params = make_params(variance=BachelierVariance(3.0))
        np.testing.assert_array_equal(params.phi_at_grid(), 9.0 * params.grid.times)
