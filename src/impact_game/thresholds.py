"""Critical transaction-cost search.

Below a critical cost level the equilibrium base strategies oscillate
(some components turn negative, so every agent alternates buys and sells);
above it they are monotone liquidation profiles.  This module locates that
level by bisection on theta, for either base vector:

  * ``critical_theta_v``: the symmetric vector v, whose threshold grows
    roughly like (n - 1)/4 with the number of agents.
  * ``critical_theta_w``: the deviation vector w, whose threshold stays
    near 1/4 regardless of n.

Each search runs on a chain of grids N, N/2, N/4, ..., coarse to fine.  The
chain halves the steps while the halved grid keeps at least _CHAIN_FLOOR
(32) steps and always holds the N/2 and N/4 grids.  The coarsest grid is
searched by a cold bisection, and each finer grid from the Richardson
guess theta_fine + (theta_fine - theta_coarse) / 2 of the two coarser
thresholds.  A warm search replays the cold bisection on answers predicted
from the guess, probes the two ends of the bracket it reaches, and then
runs the cold bisection on real answers, which the probes already made
supply wherever they bracket theta (theta = 0 included, once a probe above
it oscillated).  Its result is the cold one; a good guess only saves
probes, and costs 2 full-grid probes.  ``evaluations`` counts the probes on
every grid of the chain.  Each probe is one dense LU solve, factored in
place, with the singularity error and the condition audit of
``finite_game``, so an ill-conditioned probe warns with
IllConditionedWarning.

``sweep`` runs a batch of searches across parameter points, optionally in
threads (the inner linear algebra releases the GIL).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from ._workers import ordered_map, worker_count
from .errors import NumericalError, ParameterError
from .finite_game import (
    _audited,
    _check_dense_steps,
    _combined,
    _lu_solve,
    _unit_sum,
    build_matrices,
)
from .market_model import (
    BachelierVariance,
    DecayKernel,
    ExponentialKernel,
    GameParams,
    TimeGrid,
    VarianceFunction,
    _integer_at_least,
    _nonnegative_scalar,
    _positive_scalar,
)

__all__ = [
    "OscillationReport",
    "ThresholdResult",
    "oscillation_report",
    "critical_theta_v",
    "critical_theta_w",
    "sweep",
]

#: components are called negative only below -OSCILLATION_RTOL * max|component|
OSCILLATION_RTOL = 1e-12

# the coarse-grid chain halves the steps while the halved grid keeps at least this many
_CHAIN_FLOOR = 32


@dataclass(frozen=True)
class OscillationReport:
    """Sign diagnostics for a base vector."""

    min_component: float
    negative_mass: float
    oscillating: bool


def oscillation_report(vector) -> OscillationReport:
    """Classify a base vector as oscillating or monotone-sign.

    A component counts as negative only if it lies below a relative cutoff
    (-1e-12 times the largest magnitude), so round-off in an exactly
    nonnegative vector never registers; negative_mass sums |components|
    below that same cutoff.
    """
    vector = np.asarray(vector, dtype=float)
    if vector.ndim != 1 or vector.size == 0:
        raise ParameterError("expected a nonempty one-dimensional vector")
    if not np.all(np.isfinite(vector)):
        raise ParameterError("vector has non-finite entries")
    cutoff = OSCILLATION_RTOL * np.abs(vector).max()
    negative = vector < -cutoff
    return OscillationReport(
        min_component=float(vector.min()),
        negative_mass=float(np.abs(vector[negative]).sum()),
        oscillating=bool(negative.any()),
    )


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of one critical-theta search.

    theta_star is the midpoint of the final bisection bracket; bracket is the
    witness pair (last oscillating theta, first non-oscillating theta).  The
    converged flag compares against the half-steps search (theta_star_coarse):
    True when the two agree within twice the resolution.  evaluations counts
    the probe solves on all grids searched.  A failed point in a sweep
    carries the message in ``error`` and NaNs elsewhere.
    """

    theta_star: float
    bracket: tuple[float, float]
    evaluations: int
    steps: int
    gamma: float
    which: Literal["v", "w"]
    converged: bool
    theta_star_coarse: float
    n: int | None = None
    error: str | None = None


class _BaseVectorProbe:
    """Evaluate a base vector across theta values, reusing the theta-free part.

    The kernel matrix enters theta only on the diagonal (a 2 theta shift), so
    the combination to invert is assembled once at theta = 0, in Fortran
    order, and each evaluation copies it, shifts the copy's diagonal and
    factors the copy in place.  ||A||_1 comes in O(N) from the cached
    off-diagonal column sums and the shifted diagonal.  The solve is the
    dense LU of finite_game with its singularity error, finiteness check and
    condition audit, bit for bit.
    """

    def __init__(
        self,
        which: str,
        n: int,
        grid: TimeGrid,
        gamma: float,
        kernel: DecayKernel,
        variance: VarianceFunction,
    ):
        if which not in ("v", "w"):
            raise ParameterError(f"which must be 'v' or 'w', got {which!r}")
        params = GameParams(
            n=n, gamma=gamma, theta=0.0, kernel=kernel, variance=variance, grid=grid
        )
        self.base = _combined(build_matrices(params), n - 1 if which == "v" else -1, "F")
        self._diagonal = self.base.diagonal().copy()
        magnitudes = np.abs(self.base)
        np.fill_diagonal(magnitudes, 0.0)
        self._off_diagonal = magnitudes.sum(axis=0)
        self.evaluations = 0

    def vector_at(self, theta: float) -> np.ndarray:
        self.evaluations += 1
        diagonal = self._diagonal + 2.0 * theta
        work = self.base.copy(order="F")
        np.fill_diagonal(work, diagonal)
        norm_one = (self._off_diagonal + np.abs(diagonal)).max()
        x, cond = _lu_solve(work, np.ones(diagonal.size), norm_one)
        _audited(x, cond, "the base vector at theta = {}", theta)
        return _unit_sum(x, "the base vector at theta = {}", theta)

    def monotone_at(self, theta: float) -> bool:
        return not oscillation_report(self.vector_at(theta)).oscillating


def _bisect(answer, upper_start: float, resolution: float) -> tuple[float, float]:
    """The cold search as a pure function of its answers; returns its final bracket.

    answer(theta) says whether the vector is monotone at theta.  The search
    doubles an upper end from upper_start until it is monotone, then bisects
    until the bracket is no wider than the resolution or its ends are
    adjacent doubles.
    """
    lo, hi = 0.0, upper_start
    cap = 16.0 * upper_start
    while not answer(hi):
        lo, hi = hi, 2.0 * hi
        if hi > cap:
            raise NumericalError(f"no monotone base vector found for theta up to {cap}")
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # lo and hi are adjacent doubles: no finer bracket exists
        if answer(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _search(
    probe: _BaseVectorProbe, upper_start: float, resolution: float, guess: float | None = None
):
    """Bisect the oscillating/monotone boundary; returns (theta*, bracket).

    The result is always the cold search's on real answers: (0, (0, 0)) when
    the vector is monotone at theta = 0, else ``_bisect``.  A real answer is
    a probe solve, or the answer that the probes made so far imply (theta at
    or below an oscillating probe, or at or above a monotone one).  Wherever
    the classification is monotone in theta, implied answers are real ones,
    so a guess changes only which probes are spent.  With a guess, the cold
    search is first replayed on predicted answers (theta > guess) and both
    ends of its bracket are probed, the end in the direction of travel
    first (the lower end on the first replay).  When both hold, every answer
    of the replay is implied and the real search costs no further probe, not
    even at theta = 0 when the lower end oscillates.  When one fails, the
    guess gallops past it by the bracket width, then by 2, 4 and 8 times
    that; galloping stops early when the direction flips or the replay ends
    on adjacent doubles.
    """
    seen = [-math.inf, math.inf]  # largest oscillating and smallest monotone theta probed

    def answer(theta: float, predict: bool) -> bool:
        if seen[0] < theta < seen[1]:
            if predict:
                return theta > guess
            seen[probe.monotone_at(theta)] = theta
        return theta >= seen[1]

    direction = 0
    for gallop in range(5 if guess is not None else 0):
        try:
            lo, hi = _bisect(lambda theta: answer(theta, True), upper_start, resolution)
        except NumericalError:
            break  # the guess lies past the cap: only the real search can tell
        # the first replay ends with lo <= guess < hi: a guess on an end puts lo in doubt
        ends = (hi, lo) if direction > 0 else (lo, hi)
        failed = next((end for end in ends if answer(end, False) != (end == hi)), None)
        turn = 0 if failed is None else 1 if failed == hi else -1
        if turn in (0, -direction) or hi - lo > resolution:
            break  # certified, turned back, or at adjacent doubles where no step is finer
        guess, direction = failed + turn * 2.0**gallop * (hi - lo), turn
    if answer(0.0, False):
        return 0.0, (0.0, 0.0)
    lo, hi = _bisect(lambda theta: answer(theta, False), upper_start, resolution)
    return 0.5 * (lo + hi), (lo, hi)


def _richardson(thresholds: list[float]) -> float | None:
    """theta + (theta - theta_coarse) / 2 from the last two thresholds, coarse to fine.

    theta* drifts linearly in the step size, so this extrapolates to the
    grid with half the steps.  None, for a cold search, with fewer than two
    thresholds or a 0 among them (a monotone or failed coarse search).
    """
    if len(thresholds) < 2 or 0.0 in thresholds[-2:]:
        return None
    coarse, fine = thresholds[-2:]
    return fine + 0.5 * (fine - coarse)


def _critical_theta(
    which: str,
    n: int,
    steps: int,
    gamma: float,
    kernel: DecayKernel | None,
    variance: VarianceFunction | None,
    resolution: float,
) -> ThresholdResult:
    """Searches on a chain of grids N, N/2, N/4, ..., coarse to fine, for either base vector.

    The chain halves the steps while the halved grid keeps at least
    _CHAIN_FLOOR steps, and it always holds the N/2 and N/4 grids.  The time
    grids are built fine to coarse, after the full grid's size is checked,
    and each grid's matrix only when its search starts.  The coarsest grid
    is searched cold and each finer one from the Richardson guess of the two
    coarser thresholds; a coarse grid below N/2 whose search fails, or whose
    size equals that of the next finer grid, gives no guess.  evaluations
    counts the probes on every grid.
    """
    n = _integer_at_least(n, 1, "n")
    steps = _integer_at_least(steps, 1, "steps")
    gamma = _nonnegative_scalar(gamma, "gamma")
    resolution = _positive_scalar(resolution, "resolution")
    kernel = ExponentialKernel(1.0) if kernel is None else kernel
    variance = BachelierVariance(1.0) if variance is None else variance
    upper = max(1.0, float(n))

    _check_dense_steps(steps)
    sizes = [steps, max(1, steps // 2)]
    while len(sizes) < 3 or sizes[-1] // 2 >= _CHAIN_FLOOR:
        sizes.append(max(1, sizes[-1] // 2))
    grids = [TimeGrid.equidistant(size) for size in sizes]
    spent = []  # probes of each search

    def search(depth: int, guess: float | None = None):
        # a grid's matrix lives only for its search: freed memory is reused by
        # the next, larger grid instead of piling up in worker-thread heaps
        probe = _BaseVectorProbe(which, n, grids[depth], gamma, kernel, variance)
        try:
            return _search(probe, upper, resolution, guess)
        finally:
            spent.append(probe.evaluations)

    thresholds = []  # coarse to fine
    for depth in range(len(grids) - 1, 0, -1):
        if depth > 1 and sizes[depth] == sizes[depth - 1]:
            continue
        try:
            thresholds.append(search(depth, _richardson(thresholds))[0])
        except NumericalError:
            if depth == 1:
                search(0)  # the full grid's own failure takes precedence
                raise
            thresholds.append(0.0)  # no guess from this grid
    theta_coarse = thresholds[-1]
    theta_star, bracket = search(0, _richardson(thresholds))
    return ThresholdResult(
        theta_star=theta_star,
        bracket=bracket,
        evaluations=sum(spent),
        steps=steps,
        gamma=gamma,
        which=which,  # type: ignore[arg-type]
        converged=abs(theta_star - theta_coarse) <= 2.0 * resolution,
        theta_star_coarse=theta_coarse,
        n=n if which == "v" else None,
    )


def critical_theta_v(
    n: int,
    steps: int,
    gamma: float,
    kernel: DecayKernel | None = None,
    variance: VarianceFunction | None = None,
    resolution: float = 1e-4,
) -> ThresholdResult:
    """Critical theta above which the symmetric base vector stops oscillating.

    Runs on the equidistant grid with the given number of trading steps,
    warm-started from searches with half, a quarter, ... of the steps; the result
    is flagged converged when the full- and half-steps thresholds agree
    within twice the resolution.
    """
    return _critical_theta("v", n, steps, gamma, kernel, variance, resolution)


def critical_theta_w(
    steps: int,
    gamma: float,
    kernel: DecayKernel | None = None,
    variance: VarianceFunction | None = None,
    resolution: float = 1e-4,
) -> ThresholdResult:
    """Critical theta above which the deviation base vector stops oscillating.

    The deviation vector does not depend on the number of agents, so none is
    taken; the search and its convergence check run as for
    ``critical_theta_v``.
    """
    return _critical_theta("w", 1, steps, gamma, kernel, variance, resolution)


def _failed_point(point: dict, which: str, message: str) -> ThresholdResult:
    return ThresholdResult(
        theta_star=float("nan"),
        bracket=(float("nan"), float("nan")),
        evaluations=0,
        steps=int(point.get("steps", 0) or 0),
        gamma=float(point.get("gamma", float("nan"))),
        which=which,  # type: ignore[arg-type]
        converged=False,
        theta_star_coarse=float("nan"),
        n=point.get("n"),
        error=message,
    )


def _run_point(
    point: dict,
    which: str,
    kernel: DecayKernel | None,
    variance: VarianceFunction | None,
    resolution: float,
) -> ThresholdResult:
    try:
        if which == "v":
            return critical_theta_v(
                point["n"], point["steps"], point["gamma"], kernel, variance, resolution
            )
        return critical_theta_w(point["steps"], point["gamma"], kernel, variance, resolution)
    except KeyError as exc:
        return _failed_point(point, which, f"missing field {exc.args[0]!r}")
    except (ParameterError, NumericalError) as exc:
        return _failed_point(point, which, str(exc))


def sweep(
    points,
    which: Literal["v", "w"],
    kernel: DecayKernel | None = None,
    variance: VarianceFunction | None = None,
    resolution: float = 1e-4,
    max_workers: int | None = None,
) -> list[ThresholdResult]:
    """Run a threshold search per parameter point, preserving input order.

    Each point is a mapping with keys ``steps`` and ``gamma`` (plus ``n`` for
    the symmetric vector).  A point that fails validation or numerics yields
    a result row with the message in ``error`` instead of aborting the batch.
    Worker threads default to IMPACT_GAME_THREADS, then the CPU count.
    """
    if which not in ("v", "w"):
        raise ParameterError(f"which must be 'v' or 'w', got {which!r}")
    points = list(points)
    if not points:
        return []
    return ordered_map(
        lambda point: _run_point(point, which, kernel, variance, resolution),
        points,
        worker_count(max_workers, len(points)),
    )
