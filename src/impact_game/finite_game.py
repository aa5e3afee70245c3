"""Finite-horizon equilibrium machinery.

The mean-variance cost of agent i trading xi against opponents xi_j is

    MV(xi) = -X_i S0 + 0.5 xi' Gamma xi + xi' Gtilde sum_{j != i} xi_j

where Gamma_{kl} = G(|t_k - t_l|) + gamma phi(t_k ^ t_l) + 2 theta delta_{kl}
and Gtilde is the one-sided (lower-triangular) half of the gamma = theta = 0
matrix.  The unique Nash equilibrium decomposes into two base vectors: v
(normalized solve of [Gamma + (n-1) Gtilde] x = 1) carries the average
inventory and w (normalized solve of [Gamma - Gtilde] x = 1) carries each
agent's deviation from the average.

Contents
--------
KernelMatrices        Gamma and Gtilde on a grid
build_matrices        assemble both matrices from GameParams
compute_v, compute_w  normalized base vectors
w_closed_form         geometric closed form for w at theta = 1/4, gamma = 0
Strategy              one agent's trade schedule
nash_equilibrium      full equilibrium with multipliers and diagnostics
mv_cost               mean-variance cost of a strategy profile entry
best_response         constrained minimizer against fixed opponents
optimality_gap        exact cost increase of a deviation from equilibrium
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg.lapack import dgecon

from .errors import IllConditionedWarning, NumericalError, ParameterError
from .market_model import GameParams, _finite_vector, _integer_at_least, _positive_scalar

__all__ = [
    "CONDITION_WARN_THRESHOLD",
    "KernelMatrices",
    "Strategy",
    "EquilibriumSolution",
    "build_matrices",
    "compute_v",
    "compute_w",
    "w_closed_form",
    "nash_equilibrium",
    "mv_cost",
    "best_response",
    "optimality_gap",
]

# Condition estimates above this mark results with IllConditionedWarning.
CONDITION_WARN_THRESHOLD = 1e12


@dataclass(frozen=True)
class KernelMatrices:
    """Cost kernel matrices on one grid.

    full   Gamma^{gamma,theta}: decay kernel + gamma * phi(min time) + 2 theta I
    tilde  one-sided half of Gamma^{0,0}: strict lower triangle plus half diagonal
    """

    full: np.ndarray
    tilde: np.ndarray

    def __post_init__(self):
        for name in ("full", "tilde"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
                raise ParameterError(f"{name} must be a square matrix")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.full.shape != self.tilde.shape:
            raise ParameterError("full and tilde must have matching shapes")

    @classmethod
    def _adopt(cls, full: np.ndarray, tilde: np.ndarray) -> "KernelMatrices":
        """Wrap freshly built square float arrays without copying; they turn read-only."""
        matrices = object.__new__(cls)
        for name, arr in (("full", full), ("tilde", tilde)):
            arr.setflags(write=False)
            object.__setattr__(matrices, name, arr)
        return matrices


def build_matrices(params: GameParams) -> KernelMatrices:
    """Assemble Gamma^{gamma,theta} and Gtilde for one game instance.

    Each matrix is built in its own buffer and handed over read-only, so the
    peak stays near the three (N+1)^2 arrays decay, full and tilde.
    """
    # TimeGrid guarantees finite, nonnegative lags, so the kernel is evaluated directly
    times = params.grid.times
    decay = np.asarray(params.kernel.eval(np.abs(times[:, None] - times[None, :])), dtype=float)
    phi = params.phi_at_grid()
    full = np.minimum.outer(phi, phi)
    full *= params.gamma
    full += decay
    np.fill_diagonal(full, full.diagonal() + 2.0 * params.theta)
    tilde = np.tril(decay)
    np.fill_diagonal(tilde, 0.5 * tilde.diagonal())
    return KernelMatrices._adopt(full, tilde)


def _condition_estimate(matrix: np.ndarray, lu) -> float:
    """One-norm condition estimate kappa_1(A) from an existing LU factorization.

    LAPACK dgecon runs the Hager-Higham estimator of ||A^{-1}||_1 on the LU
    factors (Higham, Accuracy and Stability of Numerical Algorithms, ch. 15).
    """
    rcond, _ = dgecon(lu[0], np.abs(matrix).sum(axis=0).max(), norm="1")
    return 1.0 / rcond if rcond > 0.0 else math.inf


def _lu_factor(matrix: np.ndarray):
    """Pivoted LU with exact-singularity converted to NumericalError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", sla.LinAlgWarning)
        try:
            return sla.lu_factor(matrix)
        except (sla.LinAlgWarning, np.linalg.LinAlgError) as exc:
            raise NumericalError(f"kernel system is singular: {exc}") from exc


def _check_solution(x: np.ndarray, matrix: np.ndarray, lu, label: str) -> float:
    """Finiteness and conditioning audit shared by every solve."""
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"linear solve for {label} produced non-finite entries")
    cond = _condition_estimate(matrix, lu)
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"condition estimate {cond:.3e} for {label} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; results may be inaccurate",
            IllConditionedWarning,
            stacklevel=3,
        )
    return cond


def _solve_base_vector(matrix: np.ndarray, label: str) -> tuple[np.ndarray, float]:
    """Solve A x = 1 and normalize x to unit sum; returns (vector, condition)."""
    lu = _lu_factor(matrix)
    x = sla.lu_solve(lu, np.ones(matrix.shape[0]))
    cond = _check_solution(x, matrix, lu, label)
    total = x.sum()
    if total == 0.0 or not np.isfinite(total):
        raise NumericalError(f"normalization of {label} degenerate: entries sum to {total}")
    return x / total, cond


def compute_v(matrices: KernelMatrices, n: int) -> np.ndarray:
    """Base vector carrying the average inventory: [Gamma + (n-1) Gtilde]^{-1} 1, unit sum."""
    n = _integer_at_least(n, 1, "n")
    vec, _ = _solve_base_vector(matrices.full + (n - 1) * matrices.tilde, "v")
    return vec


def compute_w(matrices: KernelMatrices) -> np.ndarray:
    """Base vector carrying inventory deviations: [Gamma - Gtilde]^{-1} 1, unit sum.

    Does not depend on the number of agents.
    """
    vec, _ = _solve_base_vector(matrices.full - matrices.tilde, "w")
    return vec


def w_closed_form(steps: int, rho: float) -> np.ndarray:
    """w for theta = 1/4, gamma = 0, G = exp(-rho t), equidistant grid on [0, 1].

    All entries before the final time equal (1 - e^{-rho/N}) / (N (1 - e^{-rho/N}) + 1)
    and the final entry equals 1 / (N (1 - e^{-rho/N}) + 1).
    """
    steps = _integer_at_least(steps, 1, "steps")
    rho = _positive_scalar(rho, "rho")
    r = -math.expm1(-rho / steps)  # 1 - e^{-rho/N}
    denom = steps * r + 1.0
    w = np.full(steps + 1, r / denom)
    w[-1] = 1.0 / denom
    return w


def _misses_inventory(total: float, inventory: float) -> bool:
    """True when `total` differs from `inventory` by more than 1e-9 relative (absolute below 1)."""
    return abs(total - inventory) > 1e-9 * max(1.0, abs(inventory))


@dataclass(frozen=True)
class Strategy:
    """One agent's trade schedule on the grid; entries must sum to the inventory."""

    trades: np.ndarray
    inventory: float

    def __post_init__(self):
        trades = np.array(self.trades, dtype=float, copy=True)
        if trades.ndim != 1 or trades.size == 0 or not np.all(np.isfinite(trades)):
            raise ParameterError("trades must be a nonempty finite 1-d array")
        inventory = float(self.inventory)
        if not np.isfinite(inventory):
            raise ParameterError("inventory must be finite")
        if _misses_inventory(trades.sum(), inventory):
            raise ParameterError(
                f"trades sum to {trades.sum()!r}, not the declared inventory {inventory!r}"
            )
        trades.setflags(write=False)
        object.__setattr__(self, "trades", trades)
        object.__setattr__(self, "inventory", inventory)

    @classmethod
    def from_trades(cls, trades) -> "Strategy":
        """Build a Strategy whose inventory is the sum of its trades."""
        arr = np.asarray(trades, dtype=float)
        return cls(trades=arr, inventory=float(arr.sum()))

    def __len__(self) -> int:
        return self.trades.size


@dataclass(frozen=True)
class EquilibriumSolution:
    """Nash equilibrium of one game instance plus solve diagnostics.

    foc_residual is the largest deviation of Gamma xi_i + Gtilde sum_{j!=i} xi_j
    from its mean (the Lagrange multiplier), relative to max(1, |multiplier|).
    """

    v: np.ndarray
    w: np.ndarray
    strategies: tuple[Strategy, ...]
    multipliers: np.ndarray
    mv_costs: np.ndarray
    foc_residual: float
    condition_v: float
    condition_w: float

    @property
    def ill_conditioned(self) -> bool:
        return max(self.condition_v, self.condition_w) > CONDITION_WARN_THRESHOLD


def _mv_cost_raw(
    matrices: KernelMatrices, s0: float, trades: np.ndarray, others_sum: np.ndarray, inventory: float
) -> float:
    return float(
        -inventory * s0
        + 0.5 * trades @ matrices.full @ trades
        + trades @ matrices.tilde @ others_sum
    )


def nash_equilibrium(params: GameParams, inventories) -> EquilibriumSolution:
    """Unique Nash equilibrium for the given inventories.

    Agent i trades mean(X) * v + (X_i - mean(X)) * w.  The returned solution
    carries the per-agent Lagrange multipliers, mean-variance costs, the
    first-order-condition residual, and condition estimates for both solves.
    """
    inventories = _finite_vector(inventories, params.n, "inventories")
    matrices = build_matrices(params)
    v, cond_v = _solve_base_vector(matrices.full + (params.n - 1) * matrices.tilde, "v")
    w, cond_w = _solve_base_vector(matrices.full - matrices.tilde, "w")

    xbar = inventories.mean()
    trades = xbar * v[:, None] + (inventories - xbar)[None, :] * w[:, None]
    total = trades.sum(axis=1)

    multipliers = np.empty(params.n)
    mv_costs = np.empty(params.n)
    foc = 0.0
    for i in range(params.n):
        xi = trades[:, i]
        others = total - xi
        gradient = matrices.full @ xi + matrices.tilde @ others
        alpha = gradient.mean()
        multipliers[i] = alpha
        foc = max(foc, np.abs(gradient - alpha).max() / max(1.0, abs(alpha)))
        mv_costs[i] = _mv_cost_raw(matrices, params.s0, xi, others, inventories[i])

    strategies = tuple(
        Strategy(trades=trades[:, i], inventory=float(inventories[i])) for i in range(params.n)
    )
    return EquilibriumSolution(
        v=v,
        w=w,
        strategies=strategies,
        multipliers=multipliers,
        mv_costs=mv_costs,
        foc_residual=float(foc),
        condition_v=cond_v,
        condition_w=cond_w,
    )


def _strategy_like(strategy) -> Strategy:
    if isinstance(strategy, Strategy):
        return strategy
    return Strategy.from_trades(np.asarray(strategy, dtype=float))


def _others_sum(others: Sequence, params: GameParams, grid_len: int) -> np.ndarray:
    others = [_strategy_like(s) for s in others]
    if len(others) != params.n - 1:
        raise ParameterError(f"expected {params.n - 1} opponent strategies, got {len(others)}")
    for s in others:
        if len(s) != grid_len:
            raise ParameterError("opponent strategy length does not match the grid")
    if others:
        return np.sum([s.trades for s in others], axis=0)
    return np.zeros(grid_len)


def mv_cost(strategy, others: Sequence, params: GameParams) -> float:
    """Mean-variance execution cost of `strategy` against fixed opponents."""
    strategy = _strategy_like(strategy)
    grid_len = len(params.grid)
    if len(strategy) != grid_len:
        raise ParameterError("strategy length does not match the grid")
    others_sum = _others_sum(others, params, grid_len)
    matrices = build_matrices(params)
    return _mv_cost_raw(matrices, params.s0, strategy.trades, others_sum, strategy.inventory)


def best_response(others: Sequence, inventory: float, params: GameParams) -> Strategy:
    """Minimizer of the mean-variance cost over schedules summing to `inventory`."""
    inventory = float(inventory)
    if not np.isfinite(inventory):
        raise ParameterError("inventory must be finite")
    grid_len = len(params.grid)
    others_sum = _others_sum(others, params, grid_len)
    matrices = build_matrices(params)

    lu = _lu_factor(matrices.full)
    y = sla.lu_solve(lu, np.ones(grid_len))
    z = sla.lu_solve(lu, -(matrices.tilde @ others_sum))
    _check_solution(y, matrices.full, lu, "best response")
    if not np.all(np.isfinite(z)):
        raise NumericalError("linear solve for best response produced non-finite entries")
    denom = y.sum()
    if denom == 0.0 or not np.isfinite(denom):
        raise NumericalError(f"best-response multiplier degenerate: 1'y = {denom}")
    lam = (inventory - z.sum()) / denom
    return Strategy(trades=z + lam * y, inventory=inventory)


def optimality_gap(
    candidate, equilibrium, multiplier: float, matrices: KernelMatrices
) -> float:
    """Exact mean-variance cost increase of `candidate` over the equilibrium strategy.

    Both schedules must hold the same inventory.  The gap is

        multiplier * 1'(eta - xi) + 0.5 (eta - xi)' Gamma (eta - xi)

    which is nonnegative and zero only at the equilibrium strategy itself.
    """
    candidate = _strategy_like(candidate)
    equilibrium = _strategy_like(equilibrium)
    if len(candidate) != len(equilibrium):
        raise ParameterError("candidate and equilibrium strategies differ in length")
    if _misses_inventory(candidate.inventory, equilibrium.inventory):
        raise ParameterError(
            f"candidate inventory {candidate.inventory!r} does not match "
            f"equilibrium inventory {equilibrium.inventory!r}"
        )
    d = candidate.trades - equilibrium.trades
    return float(multiplier * d.sum() + 0.5 * d @ matrices.full @ d)
