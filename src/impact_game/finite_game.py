"""Finite-horizon equilibrium machinery.

The mean-variance cost of agent i trading xi against opponents xi_j is

    MV(xi) = -X_i S0 + 0.5 xi' Gamma xi + xi' Gtilde sum_{j != i} xi_j

where Gamma_{kl} = G(|t_k - t_l|) + gamma phi(t_k ^ t_l) + 2 theta delta_{kl}
and Gtilde is the one-sided (lower-triangular) half of the gamma = theta = 0
matrix.  The unique Nash equilibrium decomposes into two base vectors: v
(normalized solve of [Gamma + (n-1) Gtilde] x = 1) carries the average
inventory and w (normalized solve of [Gamma - Gtilde] x = 1) carries each
agent's deviation from the average.

Solver paths
------------
Every solve of A x = b (A = Gamma + c Gtilde with c = n - 1 for v, c = -1
for w, c = 0 for a best response) takes one of two paths:

* banded: for the exponential kernel on an equidistant grid, with
  B = (I - S)(I - a S), S the down-shift and a = e^{-rho h}, the product
  B A B' is pentadiagonal for every c and every variance function.  (I - aS)
  turns the decay matrix a^{|k-l|} diagonal and its one-sided half
  bidiagonal, and (I - S) turns phi(t_{min(k,l)}) diagonal.  Its five
  central diagonals are read from nine diagonals of the dense A, factored
  by LAPACK dgbtrf, and x = B' (B A B')^{-1} B b.  The result is refined
  against the dense A (Higham, Accuracy and Stability of Numerical
  Algorithms, ch. 12) while the residual at least halves, up to
  _REFINEMENT_STEPS steps, and accepted only when its normwise backward
  error ||b - A x|| / (||A|| ||x|| + ||b||) (infinity norms) is at most
  _BACKWARD_ERROR_LIMIT.  kappa_1 comes from ||A||_1 and the Hager-Higham
  estimate of ||A^{-1}||_1 on banded solves with A and A'.
* lu: dense pivoted LU by LAPACK dgetrf and dgetrs, with dgecon for
  kappa_1, in one helper (_lu_solve) that factors a Fortran-ordered buffer
  in place.  It takes over a banded solve that is singular, does not
  contract or is not accepted, and it serves every other kernel and grid,
  compute_v, compute_w and the threshold probes; it is the reference the
  banded path is tested against.

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

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import IllConditionedWarning, NumericalError, ParameterError
from .market_model import (
    ExponentialKernel,
    GameParams,
    _finite_vector,
    _integer_at_least,
    _positive_scalar,
)

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

# largest side of the dense (N+1)^2 kernel matrices (0.29 GB of float64 each)
_MAX_DENSE_SIDE = 6000

# a refined banded solve is accepted at this normwise backward error
_BACKWARD_ERROR_LIMIT = 8.0 * np.finfo(float).eps

# most refinement steps of a banded solve
_REFINEMENT_STEPS = 3

# LAPACK routines bound as module globals by the first solve: scipy.linalg is
# most of the package's import time, and `infinite` and `--help` never solve
_LAPACK_ROUTINES = ("dgbtrf", "dgbtrs", "dgecon", "dgetrf", "dgetrs")


@functools.cache
def _load_lapack() -> None:
    """Bind the LAPACK routines once; a routine bound already (patched) is kept."""
    from scipy.linalg import lapack

    namespace = globals()
    for name in _LAPACK_ROUTINES:
        namespace.setdefault(name, getattr(lapack, name))


def __getattr__(name: str):
    # reading finite_game.dgbtrf before any solve loads LAPACK as well
    if name in _LAPACK_ROUTINES:
        _load_lapack()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
            if not np.all(np.isfinite(arr)):
                raise ParameterError(f"{name} must be finite")
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


def _check_dense_side(side: int, purpose: str) -> None:
    """Raise ParameterError, before anything is allocated, past _MAX_DENSE_SIDE."""
    if side > _MAX_DENSE_SIDE:
        raise ParameterError(
            f"{purpose} needs dense matrices of side {side}, above the limit of {_MAX_DENSE_SIDE}"
        )


def _check_dense_steps(steps: int) -> None:
    """_check_dense_side for an equidistant grid of `steps` steps, before it is built."""
    side = _integer_at_least(steps, 0, "steps") + 1
    _check_dense_side(side, f"a grid of {side} points")


def build_matrices(params: GameParams) -> KernelMatrices:
    """Assemble Gamma^{gamma,theta} and Gtilde for one game instance.

    Each matrix is built in its own buffer and handed over read-only, so the
    peak stays near the three (N+1)^2 arrays decay, full and tilde.  A grid
    of more than _MAX_DENSE_SIDE points, or entries that may overflow (the
    bound gamma max phi + G(0) + 2 theta is not finite), raise ParameterError
    before anything of size N^2 is allocated.
    """
    times = params.grid.times
    _check_dense_side(times.size, f"a grid of {times.size} points")
    phi = params.phi_at_grid()
    bound = params.gamma * float(phi.max()) + float(params.kernel.eval(0.0)) + 2.0 * params.theta
    if not math.isfinite(bound):
        raise ParameterError(
            f"kernel matrix entries overflow: gamma * max phi + G(0) + 2 theta = {bound}"
        )
    return KernelMatrices._adopt(*_assemble_rows(params, 0, times.size))


def _assemble_rows(params: GameParams, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows start .. stop - 1 of Gamma and Gtilde, as two fresh writable arrays.

    Every entry is computed by the same operations in the same order as in
    the full build, so the rows equal build_matrices' rows bit for bit.  No
    size or overflow check is made here; build_matrices makes both.
    """
    times = params.grid.times
    phi = params.phi_at_grid()
    # TimeGrid guarantees finite, nonnegative lags; the kernel overwrites them in place
    decay = np.subtract.outer(times[start:stop], times)
    np.abs(decay, out=decay)
    in_place = getattr(params.kernel, "_eval_in_place", None)
    if in_place is not None:
        decay = in_place(decay)
    else:
        decay = np.asarray(params.kernel.eval(decay), dtype=float)
    full = np.minimum.outer(phi[start:stop], phi)
    full *= params.gamma
    full += decay
    # entry (k, start + k) of the block is the matrix diagonal
    diagonal = (np.arange(stop - start), np.arange(start, stop))
    full[diagonal] += 2.0 * params.theta
    tilde = np.tril(decay, start)
    tilde[diagonal] *= 0.5
    return full, tilde


def _combined(matrices: KernelMatrices, weight: float, order: str = "C") -> np.ndarray:
    """Gamma + weight * Gtilde in one fresh buffer of the given memory order."""
    matrix = np.multiply(weight, matrices.tilde, order=order)
    matrix += matrices.full
    return matrix


def _lu_solve(work: np.ndarray, rhs: np.ndarray, norm_one: float) -> tuple[np.ndarray, float]:
    """Solve A x = rhs by pivoted LU; returns (x, kappa_1 estimate).

    `work` holds A in Fortran order and LAPACK dgetrf overwrites it with the
    factors, so no copy and no finiteness pass is made: build_matrices and
    KernelMatrices keep non-finite entries out, and the caller audits x.
    norm_one is ||A||_1, and dgecon runs the Hager-Higham estimator of
    ||A^{-1}||_1 on the factors (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 15).  Exact singularity raises NumericalError.
    """
    _load_lapack()
    lu, pivots, info = dgetrf(work, overwrite_a=1)
    if info > 0:
        raise NumericalError(
            f"kernel system is singular: Diagonal number {info} is exactly zero. Singular matrix."
        )
    x, _ = dgetrs(lu, pivots, rhs)
    rcond, _ = dgecon(lu, norm_one, norm="1")
    return x, 1.0 / rcond if rcond > 0.0 else math.inf


def _banded_ratio(params: GameParams) -> float | None:
    """a = e^{-rho h} where the banded path applies, else None.

    It applies to the exponential kernel on an equidistant grid, recognised
    as times == linspace(t_0, t_N, N + 1).
    """
    times = params.grid.times
    if not isinstance(params.kernel, ExponentialKernel):
        return None
    if not np.array_equal(times, np.linspace(times[0], times[-1], times.size)):
        return None
    step = (times[-1] - times[0]) / max(times.size - 1, 1)
    return math.exp(-params.kernel.rho * step)


@functools.lru_cache(maxsize=4)
def _band_layout(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather plan for nine central diagonals, and dlacn2's alternating vector.

    Entry [s + 4, c + 2] of the (9, size + 2) gather is A[c - s, c]: `index`
    holds its flat position in A and `inside` is 0.0 where that lies off the
    matrix.  The arrays are read-only, so every caller can share them.
    """
    column = np.arange(-2, size)
    row = column - np.arange(-4, 5)[:, None]
    inside = (column >= 0) & (row >= 0) & (row < size)
    index = np.where(inside, row * size + column, 0).ravel()
    inside = inside.astype(float).ravel()
    alternating = 1.0 + np.arange(size) / max(size - 1, 1)
    alternating[1::2] *= -1.0
    for arr in (index, inside, alternating):
        arr.setflags(write=False)
    return index, inside, alternating


class _BandedSystem:
    """A^{-1} as B' M^{-1} B with M = B A B' pentadiagonal, B = (I - S)(I - a S).

    `factor` is None when dgbtrf finds M exactly singular.
    """

    def __init__(self, matrix: np.ndarray, ratio: float):
        _load_lapack()
        size = matrix.shape[0]
        width = size + 2
        self.matrix = matrix
        self.taps = np.array([1.0, -(1.0 + ratio), ratio])
        self.reversed_taps = self.taps[::-1].copy()
        magnitudes = np.abs(matrix)
        ones = np.ones(size)
        self.norm_inf = (magnitudes @ ones).max()
        self.norm_one = (ones @ magnitudes).max()
        del magnitudes
        index, inside, self.alternating = _band_layout(size)
        # flat[(s + 4) * width + c + 2] = A[c - s, c] for |s| <= 4, zero off the
        # matrix; two spare zeros at the end let the band come out as (5, width)
        flat = np.zeros(9 * width + 2)
        np.multiply(matrix.take(index), inside, out=flat[:-2])
        _, b1, b2 = self.taps
        # A B' first and B (A B') second: differencing in two stages keeps the
        # cancellation error far below that of one nine-term sum per entry.
        # A step of one row and one column is width + 1 along `flat`, so
        # right[k * width + j] = (A B')[j - k + 2, j] for k = 0..6
        right = flat[2 * width + 2 :] + b1 * flat[width + 1 : -width - 1]
        right += b2 * flat[: -2 * width - 2]
        # one row is width along `right`, so band row d + 2 holds M[j - d, j]
        # for d = -2..2, which dgbtrf wants in storage row 4 - d
        band = right[: -2 * width] + b1 * right[width:-width]
        band += b2 * right[2 * width :]
        storage = np.zeros((7, size))
        storage[6:1:-1] = band.reshape(5, width)[:, :size]
        lu, pivots, info = dgbtrf(storage, 2, 2, overwrite_ab=1)
        self.factor = (lu, pivots) if info == 0 else None

    def apply(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        """A^{-1} x, or A'^{-1} x with trans=1, for one vector x."""
        lu, pivots = self.factor
        y = np.correlate(x, self.reversed_taps, "full")[: x.size]
        y, _ = dgbtrs(lu, 2, 2, y, pivots, trans=trans, overwrite_b=1)
        return np.correlate(y, self.taps, "full")[2:]

    def refine(self, rhs: np.ndarray) -> np.ndarray | None:
        """Refined solution of A x = rhs, or None when it is not accepted.

        The banded solution is always refined once; refinement goes on while
        the residual at least halves.
        """
        rhs_norm = np.abs(rhs).max()
        x = self.apply(rhs)
        residual = rhs - self.matrix @ x
        previous = np.abs(residual).max()
        for _ in range(_REFINEMENT_STEPS):
            x += self.apply(residual)
            residual = rhs - self.matrix @ x
            size = np.abs(residual).max()
            if size <= _BACKWARD_ERROR_LIMIT * (self.norm_inf * np.abs(x).max() + rhs_norm):
                return x
            if not size <= 0.5 * previous:
                return None
            previous = size
        return None

    def condition(self, first: np.ndarray) -> float:
        """kappa_1(A) as ||A||_1 times the Hager-Higham estimate of ||A^{-1}||_1.

        `first` is A^{-1} 1, the solve LAPACK dlacn2 starts from after scaling
        by 1/size.  The iteration is dlacn2's (Higham, Accuracy and Stability
        of Numerical Algorithms, ch. 15) on banded solves with A and A',
        keeping the larger of its last two estimates.
        """
        size = first.size
        estimate = np.abs(first).sum() / size
        if size == 1:
            return self.norm_one * estimate
        signs = np.copysign(1.0, first)
        z = np.abs(self.apply(signs, trans=1))
        j = z.argmax()
        for _ in range(4):
            unit = np.zeros(size)
            unit[j] = 1.0
            y = self.apply(unit)
            previous, estimate = estimate, np.abs(y).sum()
            new_signs = np.copysign(1.0, y)
            if estimate <= previous or (new_signs == signs).all():
                estimate = max(estimate, previous)
                break
            signs = new_signs
            z = np.abs(self.apply(signs, trans=1))
            last, j = j, z.argmax()
            if z[last] == z[j]:
                break
        alternate = 2.0 * np.abs(self.apply(self.alternating)).sum() / (3 * size)
        return self.norm_one * max(estimate, alternate)


def _audited(x: np.ndarray, cond: float, label: str, *args) -> float:
    """Finiteness and conditioning audit shared by every solve; returns cond.

    The solve is named by label.format(*args), formatted only when the audit
    raises or warns.
    """
    if not np.all(np.isfinite(x)):
        raise NumericalError(f"linear solve for {label.format(*args)} produced non-finite entries")
    if cond > CONDITION_WARN_THRESHOLD:
        warnings.warn(
            f"condition estimate {cond:.3e} for {label.format(*args)} exceeds "
            f"{CONDITION_WARN_THRESHOLD:.0e}; results may be inaccurate",
            IllConditionedWarning,
            stacklevel=4,
        )
    return cond


def _solve(
    matrix: np.ndarray, label: str, ratio: float | None = None, other: np.ndarray | None = None
) -> tuple[np.ndarray, float, str]:
    """Solve A x = 1, and A z = other when given; returns ([x z], kappa_1 estimate, solver).

    With a decay ratio the banded path is tried first; the dense LU takes
    over when it is singular or not accepted (see the module docstring).
    """
    ones = np.ones(matrix.shape[0])
    rhs = (ones,) if other is None else (ones, other)
    if ratio is not None:
        system = _BandedSystem(matrix, ratio)
        if system.factor is not None:
            columns = [system.refine(column) for column in rhs]
            if all(column is not None for column in columns):
                x = np.column_stack(columns)
                return x, _audited(x, system.condition(columns[0]), label), "banded"
    x, cond = _lu_solve(
        np.array(matrix, order="F"), np.column_stack(rhs), np.abs(matrix).sum(axis=0).max()
    )
    return x, _audited(x, cond, label), "lu"


def _unit_sum(x: np.ndarray, label: str, *args) -> np.ndarray:
    """x / sum(x), or NumericalError naming label.format(*args) when the sum is 0 or not finite."""
    total = x.sum()
    if total == 0.0 or not np.isfinite(total):
        raise NumericalError(
            f"normalization of {label.format(*args)} degenerate: entries sum to {total}"
        )
    return x / total


def _solve_base_vector(
    matrix: np.ndarray, label: str, ratio: float | None = None
) -> tuple[np.ndarray, float, str]:
    """Solve A x = 1 and normalize x to unit sum; returns (vector, condition, solver)."""
    x, cond, solver = _solve(matrix, label, ratio)
    return _unit_sum(x[:, 0], label), cond, solver


def compute_v(matrices: KernelMatrices, n: int) -> np.ndarray:
    """Base vector carrying the average inventory: [Gamma + (n-1) Gtilde]^{-1} 1, unit sum."""
    n = _integer_at_least(n, 1, "n")
    vec, _, _ = _solve_base_vector(_combined(matrices, n - 1), "v")
    return vec


def compute_w(matrices: KernelMatrices) -> np.ndarray:
    """Base vector carrying inventory deviations: [Gamma - Gtilde]^{-1} 1, unit sum.

    Does not depend on the number of agents.
    """
    vec, _, _ = _solve_base_vector(_combined(matrices, -1), "w")
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
    solver is "banded" when both base vectors took the banded path and "lu"
    when either took the dense LU (see the module docstring).
    """

    v: np.ndarray
    w: np.ndarray
    strategies: tuple[Strategy, ...]
    multipliers: np.ndarray
    mv_costs: np.ndarray
    foc_residual: float
    condition_v: float
    condition_w: float
    solver: str

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
    first-order-condition residual, condition estimates for both solves and
    the solver path they took.
    """
    inventories = _finite_vector(inventories, params.n, "inventories")
    matrices = build_matrices(params)
    ratio = _banded_ratio(params)
    v, cond_v, solver_v = _solve_base_vector(_combined(matrices, params.n - 1), "v", ratio)
    w, cond_w, solver_w = _solve_base_vector(_combined(matrices, -1), "w", ratio)

    xbar = inventories.mean()
    trades = xbar * v[:, None] + (inventories - xbar)[None, :] * w[:, None]
    others = trades.sum(axis=1, keepdims=True) - trades
    # column i: Gamma xi_i and Gtilde sum_{j != i} xi_j
    own = matrices.full @ trades
    cross = matrices.tilde @ others
    gradient = own + cross
    multipliers = gradient.mean(axis=0)
    foc = np.abs(gradient - multipliers).max(axis=0) / np.maximum(1.0, np.abs(multipliers))
    mv_costs = (
        -inventories * params.s0 + 0.5 * (trades * own).sum(axis=0) + (trades * cross).sum(axis=0)
    )

    strategies = tuple(
        Strategy(trades=trades[:, i], inventory=float(inventories[i])) for i in range(params.n)
    )
    return EquilibriumSolution(
        v=v,
        w=w,
        strategies=strategies,
        multipliers=multipliers,
        mv_costs=mv_costs,
        foc_residual=float(foc.max()),
        condition_v=cond_v,
        condition_w=cond_w,
        solver="banded" if solver_v == solver_w == "banded" else "lu",
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
    x, _, _ = _solve(
        matrices.full, "best response", _banded_ratio(params), -(matrices.tilde @ others_sum)
    )
    y, z = x.T
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
