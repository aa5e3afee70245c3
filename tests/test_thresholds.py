"""Oscillation detection and critical transaction cost search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impact_game import (
    BachelierVariance,
    ExponentialKernel,
    NumericalError,
    ParameterError,
    PowerLawKernel,
    TimeGrid,
    critical_theta_infinite,
    critical_theta_v,
    critical_theta_w,
    oscillation_report,
    sweep,
)
from impact_game import finite_game, thresholds
from impact_game.thresholds import _BaseVectorProbe, _search


class TestOscillationReport:
    def test_positive_vector_is_not_oscillating(self):
        report = oscillation_report(np.array([0.5, 0.5]))
        assert not report.oscillating
        assert report.negative_mass == 0.0
        assert report.min_component == 0.5

    def test_signed_vector_counts_negative_mass(self):
        report = oscillation_report(np.array([1.2, -0.3, 0.1]))
        assert report.oscillating
        assert report.negative_mass == pytest.approx(0.3, abs=1e-15)
        assert report.min_component == -0.3

    def test_rounding_noise_is_ignored(self):
        # entries at the solver noise floor should not flag oscillation
        report = oscillation_report(np.array([1.0, -1e-15]))
        assert not report.oscillating
        assert report.negative_mass == 0.0

    def test_validation(self):
        with pytest.raises(ParameterError):
            oscillation_report(np.array([]))
        with pytest.raises(ParameterError):
            oscillation_report(np.array([1.0, np.nan]))
        with pytest.raises(ParameterError):
            oscillation_report(np.array([[1.0], [2.0]]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=12,
        )
    )
    def test_oscillating_iff_negative_mass(self, entries):
        report = oscillation_report(np.array(entries))
        assert report.oscillating == (report.negative_mass > 0.0)


class TestCriticalThetaV:
    def test_single_agent_never_oscillates(self):
        result = critical_theta_v(1, 50, 0.0)
        assert result.theta_star == 0.0
        assert result.bracket == (0.0, 0.0)

    def test_two_agents_close_to_quarter(self):
        result = critical_theta_v(2, 100, 0.0)
        assert result.theta_star == pytest.approx(0.25, abs=0.02)
        assert result.which == "v"
        assert result.n == 2
        assert result.bracket[1] - result.bracket[0] <= 1e-4  # default resolution

    def test_bracket_is_a_witness_pair(self):
        result = critical_theta_v(2, 80, 0.0)
        assert result.theta_star > 0.0
        probe = _BaseVectorProbe(
            "v", 2, TimeGrid.equidistant(80), 0.0, ExponentialKernel(1.0), BachelierVariance(1.0)
        )
        lo, hi = result.bracket
        assert oscillation_report(probe.vector_at(lo)).oscillating
        assert not oscillation_report(probe.vector_at(hi)).oscillating

    def test_deterministic(self):
        first = critical_theta_v(3, 60, gamma=1.0)
        second = critical_theta_v(3, 60, gamma=1.0)
        assert first.theta_star == second.theta_star
        assert first.bracket == second.bracket
        assert first.evaluations == second.evaluations

    def test_power_law_kernel_supported(self):
        result = critical_theta_v(2, 200, 0.0, kernel=PowerLawKernel(2.0))
        assert abs(result.theta_star - 0.25) <= 0.1 * 0.25

    def test_grows_with_agent_count(self):
        thresholds = [critical_theta_v(n, 120, 0.0).theta_star for n in (2, 3, 4)]
        assert np.all(np.diff(thresholds) > 0.0)
        for n, theta_star in zip((2, 3, 4), thresholds):
            assert theta_star == pytest.approx(critical_theta_infinite(n), rel=0.08)

    def test_validation(self):
        with pytest.raises(ParameterError):
            critical_theta_v(0, 50, 0.0)
        with pytest.raises(ParameterError):
            critical_theta_v(2, -1, 0.0)
        with pytest.raises(ParameterError):
            critical_theta_v(2, 50, -0.5)
        with pytest.raises(ParameterError):
            critical_theta_v(2, 50, 0.0, resolution=0.0)


class TestCriticalThetaW:
    def test_close_to_quarter_without_risk_aversion(self):
        result = critical_theta_w(100, 0.0)
        assert result.theta_star == pytest.approx(0.25, abs=0.005)
        assert result.which == "w"
        assert result.n is None

    def test_risk_aversion_shrinks_threshold(self):
        relaxed = critical_theta_w(100, 0.0).theta_star
        averse = critical_theta_w(100, 10.0).theta_star
        assert averse < relaxed
        assert averse <= 0.25 + 1e-4

    def test_power_law_kernel_supported(self):
        result = critical_theta_w(200, 0.0, kernel=PowerLawKernel(2.0))
        assert abs(result.theta_star - 0.25) <= 0.1 * 0.25

    def test_convergence_flag_tracks_coarse_grid(self):
        # the flag records agreement with a half-steps rerun within twice the
        # resolution, so tightening the resolution can honestly flip it off
        tight = critical_theta_w(100, 0.0, resolution=1e-4)
        assert tight.converged == (
            abs(tight.theta_star - tight.theta_star_coarse) <= 2e-4
        )
        loose = critical_theta_w(100, 0.0, resolution=5e-3)
        assert loose.converged
        assert abs(loose.theta_star - loose.theta_star_coarse) <= 1e-2

    def test_sub_ulp_resolution_ends_at_adjacent_doubles(self):
        # no bracket is narrower than two adjacent doubles, so the bisection
        # must stop there instead of looping on a midpoint that equals an end
        result = critical_theta_w(5, 0.0, resolution=1e-300)
        lo, hi = result.bracket
        assert 0.0 < lo < hi
        assert np.nextafter(lo, np.inf) == hi
        probe = _BaseVectorProbe(
            "w", 1, TimeGrid.equidistant(5), 0.0, ExponentialKernel(1.0), BachelierVariance(1.0)
        )
        assert oscillation_report(probe.vector_at(lo)).oscillating
        assert not oscillation_report(probe.vector_at(hi)).oscillating


class TestSweep:
    def test_single_point_matches_direct_call(self):
        direct = critical_theta_v(2, 60, gamma=1.0)
        swept = sweep([{"n": 2, "steps": 60, "gamma": 1.0}], which="v")
        assert len(swept) == 1
        assert swept[0].theta_star == direct.theta_star
        assert swept[0].bracket == direct.bracket

    def test_order_preserved_and_parallel_matches_serial(self):
        points = [
            {"n": 2, "steps": 40, "gamma": 0.0},
            {"n": 3, "steps": 40, "gamma": 0.0},
            {"n": 2, "steps": 40, "gamma": 2.0},
        ]
        serial = sweep(points, which="v", max_workers=1)
        parallel = sweep(points, which="v", max_workers=3)
        assert [r.theta_star for r in serial] == [r.theta_star for r in parallel]
        assert [r.n for r in serial] == [2, 3, 2]
        assert [r.gamma for r in serial] == [0.0, 0.0, 2.0]

    def test_w_sweep_ignores_agent_count(self):
        results = sweep([{"steps": 60, "gamma": 0.0}], which="w")
        assert results[0].n is None
        assert results[0].theta_star == critical_theta_w(60, 0.0).theta_star

    def test_bad_point_reports_error_without_stopping(self):
        points = [
            {"steps": 40, "gamma": 0.0},  # missing n for a v search
            {"n": 2, "steps": 40, "gamma": 0.0},
        ]
        results = sweep(points, which="v")
        assert results[0].error is not None
        assert np.isnan(results[0].theta_star)
        assert results[1].error is None
        assert results[1].theta_star > 0.0

    def test_empty_grid_gives_empty_table(self):
        assert sweep([], which="v") == []

    def test_validation(self):
        with pytest.raises(ParameterError):
            sweep([{"n": 2, "steps": 40, "gamma": 0.0}], which="x")


class _StepProbe:
    """Stand-in probe that turns monotone exactly at `boundary`."""

    def __init__(self, boundary):
        self.boundary = boundary
        self.evaluations = 0
        self.probed = []

    def monotone_at(self, theta):
        self.evaluations += 1
        self.probed.append(theta)
        return theta >= self.boundary


def _outcome(probe, upper, resolution, guess=None):
    try:
        return _search(probe, upper, resolution, guess)
    except NumericalError as exc:
        return str(exc)


class TestWarmSearch:
    """A guess changes how many probes the search spends, never what it returns."""

    @pytest.mark.parametrize("resolution", [1e-4, 5e-3])
    @pytest.mark.parametrize("which", ["v", "w"])
    @pytest.mark.parametrize(
        "kernel", [ExponentialKernel(1.0), PowerLawKernel(1.5)], ids=["exp", "power"]
    )
    def test_matches_cold_search(self, kernel, which, resolution):
        n = 3 if which == "v" else 1
        upper = float(n)

        def probe(steps):
            grid = TimeGrid.equidistant(steps)
            return _BaseVectorProbe(which, n, grid, 0.5, kernel, BachelierVariance(1.0))

        cold = _search(probe(80), upper, resolution)
        theta = cold[0]
        half = _search(probe(40), upper, resolution)[0]
        quarter = _search(probe(20), upper, resolution)[0]
        richardson = half + 0.5 * (half - quarter)
        guesses = [
            richardson, 0.5 * theta, 3.0 * theta,
            theta + 7 * resolution, theta - 7 * resolution,
            1.5 * upper,  # beyond the doubling interval [0, upper] the cold search ends in
        ]
        for guess in guesses:
            assert _search(probe(80), upper, resolution, guess) == cold, guess

    @settings(max_examples=300, deadline=None)
    @given(
        boundary=st.floats(0.0, 20.0),
        guess=st.floats(1e-6, 16.0),
        resolution=st.sampled_from([1e-12, 1e-4, 5e-3, 0.3, 3.0]),
        upper=st.sampled_from([1.0, 2.0, 3.0, 7.0]),
    )
    def test_matches_cold_search_on_every_doubling_interval(
        self, boundary, guess, resolution, upper
    ):
        # a step classification places the boundary in any doubling interval,
        # or past the cap where both searches must fail alike
        cold = _outcome(_StepProbe(boundary * upper), upper, resolution)
        warm = _outcome(_StepProbe(boundary * upper), upper, resolution, guess * upper)
        assert warm == cold

    @pytest.mark.parametrize(
        "upper, resolution",
        [(1.0, 1e-300), (2.5, 1e-4)],
        ids=["sub-ulp-resolution", "non-integer-upper"],
    )
    def test_guess_on_the_bracket_spends_three_probes(self, upper, resolution):
        # theta = 0 and the two ends of the bracket, also where they are
        # adjacent doubles
        probe = _BaseVectorProbe(
            "w", 1, TimeGrid.equidistant(40), 0.0, ExponentialKernel(1.0), BachelierVariance(1.0)
        )
        cold = _search(probe, upper, resolution)
        cold_probes = probe.evaluations
        for guess in (cold[1][0], cold[0], cold[1][1]):
            probe.evaluations = 0
            assert _search(probe, upper, resolution, guess) == cold, guess
            assert probe.evaluations <= (3 if guess == cold[1][0] else cold_probes + 8), guess

    def test_distant_guess_costs_at_most_eight_probes_more(self):
        probe = _BaseVectorProbe(
            "w", 1, TimeGrid.equidistant(40), 0.0, ExponentialKernel(1.0), BachelierVariance(1.0)
        )
        cold = _search(probe, 1.0, 1e-12)
        cold_probes = probe.evaluations
        for guess in (cold[0] - 1e-3, cold[0] + 1e-3):
            probe.evaluations = 0
            assert _search(probe, 1.0, 1e-12, guess) == cold, guess
            assert probe.evaluations <= cold_probes + 8, guess

    def test_oscillating_replayed_end_spares_the_theta_zero_probe(self):
        cold_probe, warm_probe = _StepProbe(0.3), _StepProbe(0.3)
        cold = _search(cold_probe, 1.0, 1e-4)
        assert cold_probe.probed[0] == 0.0
        assert _search(warm_probe, 1.0, 1e-4, 0.3) == cold
        assert 0.0 not in warm_probe.probed
        assert warm_probe.evaluations == 2

    def test_power_law_search_spends_few_full_grid_probes(self, monkeypatch):
        sizes = []
        vector_at = _BaseVectorProbe.vector_at

        def counted(self, theta):
            sizes.append(self.base.shape[0])
            return vector_at(self, theta)

        monkeypatch.setattr(thresholds._BaseVectorProbe, "vector_at", counted)
        result = critical_theta_v(3, 400, 0.5, kernel=PowerLawKernel(1.0))
        assert result.evaluations == len(sizes)
        # the chain is 400, 200, 100, 50 steps; the N/2 grid is warm-started too
        assert sorted(set(sizes)) == [51, 101, 201, 401]
        assert sizes.count(401) <= 6
        assert sizes.count(201) <= 8

    def test_full_grid_error_takes_precedence(self, monkeypatch):
        def fail(self, theta):
            raise NumericalError(f"no solve on {len(self.base)} points")

        monkeypatch.setattr(thresholds._BaseVectorProbe, "monotone_at", fail)
        with pytest.raises(NumericalError, match="on 41 points"):
            critical_theta_w(40, 0.0)


def _shifted(probe, theta):
    """The probe's matrix at theta as the dense C-ordered array finite_game solves."""
    matrix = np.ascontiguousarray(probe.base)
    matrix.flat[:: matrix.shape[0] + 1] += 2.0 * theta
    return matrix


class TestProbe:
    """The in-place probe solve is the dense LU solve of finite_game, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        kernel=st.sampled_from([ExponentialKernel(1.3), PowerLawKernel(0.7)]),
        which=st.sampled_from(["v", "w"]),
        n=st.integers(1, 6),
        steps=st.integers(1, 200),
        gamma=st.floats(0.0, 3.0),
        thetas=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=3),
    )
    def test_vector_equals_the_dense_solve(self, kernel, which, n, steps, gamma, thetas):
        grid = TimeGrid.equidistant(steps)
        probe = _BaseVectorProbe(which, n, grid, gamma, kernel, BachelierVariance(1.0))
        for theta in thetas:  # one work buffer serves every theta
            expected, _, solver = finite_game._solve_base_vector(_shifted(probe, theta), "x")
            assert solver == "lu"
            assert np.array_equal(probe.vector_at(theta), expected)

    def test_condition_matches_the_dense_estimate(self, monkeypatch):
        conditions = []
        lu_solve = thresholds._lu_solve

        def recorded(*args):
            x, cond = lu_solve(*args)
            conditions.append(cond)
            return x, cond

        monkeypatch.setattr(thresholds, "_lu_solve", recorded)
        for kernel in (ExponentialKernel(0.4), PowerLawKernel(1.5)):
            grid = TimeGrid.equidistant(150)
            probe = _BaseVectorProbe("v", 3, grid, 0.8, kernel, BachelierVariance(1.0))
            for theta in (0.0, 0.05, 1.7):
                probe.vector_at(theta)
                _, expected, _ = finite_game._solve(_shifted(probe, theta), "x")
                assert conditions[-1] == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_exactly_singular_probe_raises(self):
        # every kernel entry rounds to 1.0, so the single-agent matrix is singular at theta = 0
        grid = TimeGrid.equidistant(30)
        probe = _BaseVectorProbe("v", 1, grid, 0.0, ExponentialKernel(1e-16), BachelierVariance(1.0))
        with pytest.raises(NumericalError, match="singular"):
            probe.vector_at(0.0)


# parent-commit outputs of the cold quarter/half/full search, pinned to the bit:
# (which, n, steps, gamma, kernel, parameter, resolution,
#  theta_star, bracket, converged, theta_star_coarse)
PINNED = [
    ("v", 5, 427, 0.1, "exp", 1.6, 1e-4, 0.9924697875976562,
     (0.992431640625, 0.9925079345703125), False, 0.9849166870117188),
    ("w", 1, 410, 2.31, "exp", 1.5, 1e-4, 0.245330810546875,
     (0.24530029296875, 0.245361328125), False, 0.240692138671875),
    ("v", 3, 42, 2.91, "power", 1.8, 1e-4, 0.4709930419921875,
     (0.470947265625, 0.471038818359375), False, 0.4404144287109375),
    ("w", 1, 286, 0.47, "power", 0.87, 1e-4, 0.247650146484375,
     (0.24761962890625, 0.2476806640625), False, 0.245330810546875),
    ("v", 3, 55, 2.29, "exp", 0.76, 5e-3, 0.49365234375,
     (0.4921875, 0.4951171875), True, 0.48486328125),
    ("w", 1, 43, 2.45, "exp", 0.7, 5e-3, 0.212890625,
     (0.2109375, 0.21484375), False, 0.173828125),
    ("v", 4, 48, 0.43, "power", 1.11, 5e-3, 0.712890625,
     (0.7109375, 0.71484375), False, 0.677734375),
    ("w", 1, 399, 1.46, "power", 1.76, 5e-3, 0.244140625,
     (0.2421875, 0.24609375), True, 0.240234375),
    ("v", 4, 78, 2.12, "exp", 0.58, 1e-4, 0.743011474609375,
     (0.74298095703125, 0.7430419921875), False, 0.735748291015625),
    ("w", 1, 151, 1.65, "exp", 1.42, 1e-4, 0.239837646484375,
     (0.23980712890625, 0.2398681640625), False, 0.229644775390625),
    ("v", 3, 237, 2.59, "power", 1.27, 1e-4, 0.4964447021484375,
     (0.49639892578125, 0.496490478515625), False, 0.4927825927734375),
    ("w", 1, 315, 0.33, "power", 0.59, 1e-4, 0.248565673828125,
     (0.24853515625, 0.24859619140625), False, 0.247100830078125),
    ("v", 2, 600, 1.0, "power", 1.0, 1e-4, 0.249298095703125,
     (0.249267578125, 0.24932861328125), False, 0.248565673828125),
    ("w", 1, 600, 0.0, "exp", 1.0, 5e-3, 0.248046875, (0.24609375, 0.25), True, 0.248046875),
]


@pytest.mark.parametrize("case", PINNED, ids=lambda case: f"{case[0]}-{case[4]}-N{case[2]}")
def test_chain_search_matches_pinned_cold_results(case):
    which, n, steps, gamma, kind, parameter, resolution, *expected = case
    kernel = ExponentialKernel(parameter) if kind == "exp" else PowerLawKernel(parameter)
    if which == "v":
        result = critical_theta_v(n, steps, gamma, kernel, resolution=resolution)
    else:
        result = critical_theta_w(steps, gamma, kernel, resolution=resolution)
    got = [result.theta_star, result.bracket, result.converged, result.theta_star_coarse]
    assert got == expected
