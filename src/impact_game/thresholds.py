"""Critical transaction-cost search.

Below a critical cost level the equilibrium base strategies oscillate
(some components turn negative, so every agent alternates buys and sells);
above it they are monotone liquidation profiles.  This module locates that
level by bisection on theta, for either base vector:

  * ``critical_theta_v``: the symmetric vector v, whose threshold grows
    roughly like (n - 1)/4 with the number of agents.
  * ``critical_theta_w``: the deviation vector w, whose threshold stays
    near 1/4 regardless of n.

``sweep`` runs a batch of searches across parameter points, optionally in
threads (the inner linear algebra releases the GIL).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.linalg as sla

from .errors import NumericalError, ParameterError
from .finite_game import build_matrices
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
    converged flag compares against a coarser-grid rerun (theta_star_coarse):
    True when the two agree within twice the resolution.  A failed point in a
    sweep carries the message in ``error`` and NaNs elsewhere.
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
    the combination to invert is assembled once at theta = 0 and shifted per
    evaluation.
    """

    def __init__(
        self,
        which: str,
        n: int,
        steps: int,
        gamma: float,
        kernel: DecayKernel,
        variance: VarianceFunction,
    ):
        if which not in ("v", "w"):
            raise ParameterError(f"which must be 'v' or 'w', got {which!r}")
        grid = TimeGrid.equidistant(steps)
        params = GameParams(
            n=n, gamma=gamma, theta=0.0, kernel=kernel, variance=variance, grid=grid
        )
        matrices = build_matrices(params)
        if which == "v":
            self.base = matrices.full + (n - 1) * matrices.tilde
        else:
            self.base = matrices.full - matrices.tilde
        self.evaluations = 0

    def vector_at(self, theta: float) -> np.ndarray:
        self.evaluations += 1
        matrix = self.base.copy()
        idx = np.arange(matrix.shape[0])
        matrix[idx, idx] += 2.0 * theta
        ones = np.ones(matrix.shape[0])
        try:
            solution = sla.solve(matrix, ones)
        except sla.LinAlgError as exc:
            raise NumericalError(f"base-vector solve failed at theta = {theta}: {exc}") from exc
        total = solution.sum()
        if total == 0.0 or not np.isfinite(total):
            raise NumericalError(f"base-vector normalization failed at theta = {theta}")
        return solution / total

    def monotone_at(self, theta: float) -> bool:
        return not oscillation_report(self.vector_at(theta)).oscillating


def _search(probe: _BaseVectorProbe, upper_start: float, resolution: float):
    """Bisect the oscillating/monotone boundary; returns (theta*, bracket)."""
    if probe.monotone_at(0.0):
        return 0.0, (0.0, 0.0)
    lo = 0.0
    hi = upper_start
    cap = 16.0 * upper_start
    while not probe.monotone_at(hi):
        lo = hi
        hi *= 2.0
        if hi > cap:
            raise NumericalError(
                f"no monotone base vector found for theta up to {cap}"
            )
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # lo and hi are adjacent doubles: no finer bracket exists
        if probe.monotone_at(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi), (lo, hi)


def _critical_theta(
    which: str,
    n: int,
    steps: int,
    gamma: float,
    kernel: DecayKernel | None,
    variance: VarianceFunction | None,
    resolution: float,
) -> ThresholdResult:
    """Bisection on the given grid plus its half-steps rerun, for either base vector."""
    n = _integer_at_least(n, 1, "n")
    steps = _integer_at_least(steps, 1, "steps")
    gamma = _nonnegative_scalar(gamma, "gamma")
    resolution = _positive_scalar(resolution, "resolution")
    kernel = ExponentialKernel(1.0) if kernel is None else kernel
    variance = BachelierVariance(1.0) if variance is None else variance
    upper = max(1.0, float(n))

    probe = _BaseVectorProbe(which, n, steps, gamma, kernel, variance)
    theta_star, bracket = _search(probe, upper, resolution)
    coarse_probe = _BaseVectorProbe(which, n, max(1, steps // 2), gamma, kernel, variance)
    theta_coarse, _ = _search(coarse_probe, upper, resolution)
    return ThresholdResult(
        theta_star=theta_star,
        bracket=bracket,
        evaluations=probe.evaluations + coarse_probe.evaluations,
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

    Runs on the equidistant grid with the given number of trading steps and
    repeats on a grid with half the steps; the result is flagged converged
    when the two thresholds agree within twice the resolution.
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
    taken; convergence is checked against a half-steps rerun as for
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


def _worker_count(requested: int | None, jobs: int) -> int:
    if requested is None:
        env = os.environ.get("IMPACT_GAME_THREADS", "").strip()
        if env:
            try:
                requested = int(env)
            except ValueError:
                raise ParameterError(
                    f"IMPACT_GAME_THREADS must be an integer, got {env!r}"
                ) from None
        else:
            requested = os.cpu_count() or 1
    if requested < 1:
        raise ParameterError(f"worker count must be >= 1, got {requested}")
    return min(requested, max(jobs, 1))


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
    workers = _worker_count(max_workers, len(points))
    if workers == 1:
        return [_run_point(p, which, kernel, variance, resolution) for p in points]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(_run_point, p, which, kernel, variance, resolution) for p in points
        ]
        return [f.result() for f in futures]
