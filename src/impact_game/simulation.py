"""Monte Carlo checks of the cost statistics behind the equilibrium formulas.

The realized execution cost of agent i along one unaffected price path is

    cost_i = sum_k [ G(0)/2 xi_{i,k}^2 - S_impacted_k xi_{i,k}
                     + G(0)/2 xi_{i,k} (tot_k - xi_{i,k}) + theta xi_{i,k}^2 ]

with S_impacted_k = S_unaffected_k - sum_{l<k} G(t_k - t_l) tot_l and
tot = sum_j xi_j.  This is affine in the path, cost_i = A_i - xi_i . S0,
where A_i is obtained by pricing a zero path.

A path is S0_k = s0 + sum_{j<=k} sd_j Z_j with independent standard
normals Z and increment deviations sd, so summing by parts

    xi_i . S0 = s0 sum_k xi_{i,k} + Z . W_i,   W_{j,i} = sd_j sum_{k>=j} xi_{i,k},

and a batch of paths is priced by one product Z @ W without forming the
paths.  One call draws its sample once, in blocks of max(1, _BLOCK_VALUES
// (N + 1)) paths.  Block b draws from its own generator, seeded by
SeedSequence(seed, spawn_key=(b,)) (parallel streams keyed by block:
L'Ecuyer et al., Random numbers for parallel computers, Math. Comput.
Simul. 135, 2017), and prices its rows into its slice of the cost matrix.
Blocks run on worker threads, at most _BLOCKS_IN_FLIGHT at once, so the
sample depends on (seed, count, N) alone, not on the thread count.  Only
the (count, n) cost matrix grows with count, and it is capped at
_MAX_SAMPLE_COSTS entries.

Closed-form targets for the mean come from the gamma = 0 kernel matrices;
the variance target is xi' Phi xi with Phi_{kl} = phi(t_k ^ t_l), which
tests the model identity rather than the sampler.  Sample means use
compensated summation (math.fsum), so they do not depend on accumulation
order; sums of nonnegative terms (squared and fourth-power deviations)
cannot cancel and use numpy's pairwise sum.

Contents
--------
PricePath          unaffected and impacted prices at the grid times
CostBatch          read-only (count, n) realized costs of a seeded batch
impacted_path      price after the aggregate transient impact
realized_costs     per-agent costs of one path by the direct sum
simulate_paths     batch simulation, one CostBatch row per path
validate_moments   sample mean/variance vs closed-form targets, z-scored
validate_cara      sample exponential utility vs its Gaussian closed form
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

from ._workers import ordered_map, worker_count
from .errors import ParameterError
from .finite_game import _strategy_like, build_matrices
from .market_model import (
    BachelierVariance,
    GameParams,
    _finite_vector,
    _integer_at_least,
    kernel_eval,
)

__all__ = [
    "PricePath",
    "CostBatch",
    "MomentReport",
    "CaraReport",
    "impacted_path",
    "realized_costs",
    "simulate_paths",
    "validate_moments",
    "validate_cara",
]

# exponents beyond this switch the utility comparison to log space
_EXP_GUARD = 500.0

# normals drawn per block (4 MB of float64); block b's stream depends on (seed, b) only
_BLOCK_VALUES = 2**19

# blocks drawn at once whatever the thread count, so draw memory stays at
# 8 MB and grows with neither count, N nor the machine
_BLOCKS_IN_FLIGHT = 2

# largest count * n cost matrix one sample may hold (0.8 GB of float64)
_MAX_SAMPLE_COSTS = 10**8


@dataclass(frozen=True)
class PricePath:
    """Unaffected and impacted prices at the grid times.

    The impacted price at t_k subtracts the decayed impact of all trades
    strictly before t_k; same-time trades affect execution prices through
    the half-spread term in the cost, not through the path.
    """

    unaffected: np.ndarray
    impacted: np.ndarray

    def __post_init__(self):
        for name in ("unaffected", "impacted"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            if arr.ndim != 1 or not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} must be a finite 1-d array")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.unaffected.shape != self.impacted.shape:
            raise ParameterError("unaffected and impacted paths differ in length")


@dataclass(frozen=True)
class CostBatch:
    """Per-agent realized costs of a batch of simulated paths.

    costs[p, i] is agent i's cost on path p.  seed is the batch seed, so
    (seed, p) pins one path down exactly.  The costs array is made
    read-only in place, not copied.
    """

    costs: np.ndarray
    seed: int

    def __post_init__(self):
        costs = np.asarray(self.costs, dtype=float)
        if costs.ndim != 2 or not np.isfinite(costs).all():
            raise ParameterError("costs must be a finite (count, n) array")
        costs.setflags(write=False)
        object.__setattr__(self, "costs", costs)


def _trades_matrix(params: GameParams, strategies: Sequence) -> np.ndarray:
    """Stack n validated strategies into a (grid length, n) matrix."""
    strategies = [_strategy_like(s) for s in strategies]
    if len(strategies) != params.n:
        raise ParameterError(f"expected {params.n} strategies, got {len(strategies)}")
    m = len(params.grid)
    for s in strategies:
        if len(s) != m:
            raise ParameterError("strategy length does not match the grid")
    return np.column_stack([s.trades for s in strategies])


def _impacted(params: GameParams, strategies: Sequence, unaffected) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Validated (trades, unaffected path) and the impacted price at every grid time."""
    trades = _trades_matrix(params, strategies)
    times = params.grid.times
    unaffected = _finite_vector(unaffected, times.size, "unaffected path")
    lag = np.abs(times[:, None] - times[None, :])
    decay_strict = np.tril(kernel_eval(params.kernel, lag), -1)
    return trades, unaffected, unaffected - decay_strict @ trades.sum(axis=1)


def impacted_path(params: GameParams, strategies: Sequence, unaffected) -> PricePath:
    """Price path after the aggregate transient impact of all agents.

    impacted_k = unaffected_k - sum over t_l < t_k of G(t_k - t_l) tot_l.
    With zero aggregate trading the two paths coincide exactly.
    """
    _, unaffected, impacted = _impacted(params, strategies, unaffected)
    return PricePath(unaffected=unaffected, impacted=impacted)


def realized_costs(params: GameParams, strategies: Sequence, unaffected) -> np.ndarray:
    """Per-agent realized costs of one path, by the direct per-time sum.

    This is the reference evaluation: quadratic in the grid length and
    independent of the kernel-matrix machinery used for the closed-form
    targets.
    """
    trades, _, impacted = _impacted(params, strategies, unaffected)
    g0 = kernel_eval(params.kernel, 0.0)
    tot = trades.sum(axis=1)
    costs = np.empty(params.n)
    for i in range(params.n):
        xi = trades[:, i]
        costs[i] = math.fsum(
            0.5 * g0 * xi[k] ** 2
            - impacted[k] * xi[k]
            + 0.5 * g0 * xi[k] * (tot[k] - xi[k])
            + params.theta * xi[k] ** 2
            for k in range(xi.size)
        )
    return costs


def _increment_stds(params: GameParams) -> np.ndarray:
    """Standard deviations of the price increments between grid times.

    The first increment runs from time zero, so its variance is phi(t_0);
    the covariance of the resulting path values is phi(t_k ^ t_l).
    """
    phi = params.phi_at_grid()
    dphi = np.diff(phi, prepend=0.0)
    if np.any(dphi < 0.0):
        raise ParameterError("variance function must be nondecreasing along the grid")
    return np.sqrt(dphi)


def simulate_paths(params: GameParams, strategies: Sequence, count: int, seed: int) -> CostBatch:
    """Simulate `count` unaffected paths and realize every agent's costs on each.

    Row p of the batch is path p.  Gaussian increments come from one
    seeded generator per block of rows, so the batch is reproducible bit
    for bit given (seed, count, grid length), whatever the thread count.
    """
    count = _integer_at_least(count, 1, "count")
    seed = _integer_at_least(seed, 0, "seed")
    if count * params.n > _MAX_SAMPLE_COSTS:
        raise ParameterError(
            f"count * n = {count * params.n} costs exceeds the sample limit of {_MAX_SAMPLE_COSTS}"
        )
    trades = _trades_matrix(params, strategies)
    m, n = trades.shape
    fixed = realized_costs(params, list(trades.T), np.zeros(m))
    # cost[p] = base - Z[p] @ weights, the summation by parts of the module docstring
    weights = _increment_stds(params)[:, None] * np.cumsum(trades[::-1], axis=0)[::-1]
    base = fixed - params.s0 * trades.sum(axis=0)
    costs = np.empty((count, n))
    rows = max(1, _BLOCK_VALUES // m)

    def price_block(block: int) -> None:
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        chunk = costs[block * rows:(block + 1) * rows]
        np.matmul(rng.standard_normal((chunk.shape[0], m)), weights, out=chunk)
        np.subtract(base, chunk, out=chunk)

    blocks = -(-count // rows)
    ordered_map(price_block, range(blocks), min(worker_count(None, blocks), _BLOCKS_IN_FLIGHT))
    return CostBatch(costs=costs, seed=seed)


@dataclass(frozen=True)
class MomentReport:
    """Sample mean and variance of one agent's cost against closed-form targets."""

    agent: int
    count: int
    sample_mean: float
    target_mean: float
    se_mean: float
    z_mean: float
    sample_variance: float
    target_variance: float
    se_variance: float
    z_variance: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CaraReport:
    """Sample exponential utility of one agent's cost against its Gaussian value.

    mode records how the comparison was computed: "linear" for gamma = 0
    (plain expected cost), "direct" when exponents stay small enough for
    plain averaging, "log" when the comparison moved to log space (sample
    and target are then log moment-generating-function values).
    """

    agent: int
    count: int
    mode: str
    sample: float
    target: float
    se: float
    z: float

    def to_dict(self) -> dict:
        return asdict(self)


def _moment_targets(params: GameParams, strategies: Sequence) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form mean and variance of each agent's cost."""
    trades = _trades_matrix(params, strategies)
    matrices = build_matrices(replace(params, gamma=0.0))
    phi = params.phi_at_grid()
    cov = np.minimum.outer(phi, phi)
    tot = trades.sum(axis=1)
    means = np.empty(params.n)
    variances = np.empty(params.n)
    for i in range(params.n):
        xi = trades[:, i]
        means[i] = (
            -xi.sum() * params.s0
            + 0.5 * xi @ matrices.full @ xi
            + xi @ matrices.tilde @ (tot - xi)
        )
        variances[i] = xi @ cov @ xi
    return means, variances


def _z_score(difference: float, se: float) -> float:
    if se > 0.0:
        return difference / se
    return 0.0 if difference == 0.0 else math.copysign(math.inf, difference)


def _mean(values: np.ndarray) -> float:
    return math.fsum(values.tolist()) / values.size


def _mean_square(values: np.ndarray) -> float:
    """Mean of values**2 by numpy's pairwise sum: nonnegative terms do not cancel."""
    return float(np.square(values).sum()) / values.size


def _sample(params: GameParams, strategies: Sequence, count, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One drawn sample: the (count, n) costs and their closed-form means and variances."""
    costs = simulate_paths(params, strategies, count, seed).costs
    return (costs, *_moment_targets(params, strategies))


def _moment_reports(
    costs: np.ndarray, target_means: np.ndarray, target_variances: np.ndarray
) -> list[MomentReport]:
    """Moment reports of one drawn sample, one per agent (column of costs)."""
    count = costs.shape[0]
    reports = []
    for i in range(costs.shape[1]):
        c = costs[:, i]
        mean = _mean(c)
        squared = np.square(c - mean)
        m2 = float(squared.sum()) / count
        m4 = _mean_square(squared)
        sample_var = m2 * count / (count - 1) if count > 1 else 0.0
        se_mean = math.sqrt(m2 / count)
        se_var = math.sqrt(max(m4 - m2 * m2, 0.0) / count)
        reports.append(
            MomentReport(
                agent=i,
                count=count,
                sample_mean=mean,
                target_mean=float(target_means[i]),
                se_mean=se_mean,
                z_mean=_z_score(mean - target_means[i], se_mean),
                sample_variance=sample_var,
                target_variance=float(target_variances[i]),
                se_variance=se_var,
                z_variance=_z_score(sample_var - target_variances[i], se_var),
            )
        )
    return reports


def validate_moments(params: GameParams, strategies: Sequence, count: int, seed: int) -> list[MomentReport]:
    """Compare sample cost moments against their closed forms, one report per agent.

    z-scores are (sample - target) / standard error; the variance check uses
    the asymptotic standard error sqrt((m4 - m2^2) / count) built from the
    sample's central moments.
    """
    return _moment_reports(*_sample(params, strategies, count, seed))


def _cara_report(agent: int, gamma: float, c: np.ndarray, mean: float, var: float) -> CaraReport:
    count = c.size
    if gamma == 0.0:
        # risk-neutral limit of the utility: u(x) = x, applied to wealth -cost
        sample = -_mean(c)
        centered = c + sample
        se = math.sqrt(_mean_square(centered) / count)
        return CaraReport(
            agent=agent, count=count, mode="linear",
            sample=sample, target=-mean, se=se, z=_z_score(sample + mean, se),
        )
    exponents = gamma * c
    log_target = gamma * mean + 0.5 * gamma * gamma * var
    if max(exponents.max(), log_target) <= _EXP_GUARD:
        utilities = (1.0 - np.exp(exponents)) / gamma
        sample = _mean(utilities)
        target = (1.0 - math.exp(log_target)) / gamma
        centered = utilities - sample
        se = math.sqrt(_mean_square(centered) / count)
        return CaraReport(
            agent=agent, count=count, mode="direct",
            sample=sample, target=target, se=se, z=_z_score(sample - target, se),
        )
    # log space: compare log E[e^{gamma cost}] against its Gaussian value
    shift = exponents.max()
    scaled = np.exp(exponents - shift)
    scaled_mean = _mean(scaled)
    sample = shift + math.log(scaled_mean)
    centered = scaled - scaled_mean
    # delta method: se(log m) = se(m) / m
    se = math.sqrt(_mean_square(centered) / count) / scaled_mean
    return CaraReport(
        agent=agent, count=count, mode="log",
        sample=sample, target=log_target, se=se, z=_z_score(sample - log_target, se),
    )


def _cara_reports(
    gamma: float, costs: np.ndarray, target_means: np.ndarray, target_variances: np.ndarray
) -> list[CaraReport]:
    """Utility reports of one drawn sample, one per agent (column of costs)."""
    return [
        _cara_report(i, gamma, costs[:, i], float(target_means[i]), float(target_variances[i]))
        for i in range(costs.shape[1])
    ]


def validate_cara(params: GameParams, strategies: Sequence, count: int, seed: int) -> list[CaraReport]:
    """Compare sample exponential utility of -cost against its Gaussian closed form.

    Costs are Gaussian in this model, so E[u(-cost)] has the closed form
    (1 - exp(gamma mean + gamma^2 var / 2)) / gamma; gamma = 0 degenerates
    to the plain mean comparison.  Only the Bachelier variance function is
    accepted because the equivalence needs Gaussian costs.
    """
    if not isinstance(params.variance, BachelierVariance):
        raise ParameterError("the utility comparison requires a Bachelier variance function")
    return _cara_reports(params.gamma, *_sample(params, strategies, count, seed))
