"""Stationary equilibrium on the unbounded unit-spaced grid 0, 1, 2, ...

With an exponential kernel exp(-rho t), Bachelier variance sigma^2 t, and
strictly positive risk aversion, the two base sequences decay geometrically.
Their rates alpha and beta solve scalar root equations:

    0 = 1/(e^{a+rho} - 1) - n/(e^{a-rho} - 1) - gamma sigma^2 e^{-a}/(1 - e^{-a})^2
    0 = 2 theta + 1/2 + 1/(e^{b+rho} - 1) - gamma sigma^2 e^{-b}/(1 - e^{-b})^2

The alpha equation has a unique root in (0, rho); the beta equation a unique
root in (0, inf).  A nonzero average inventory is only supportable at the
critical transaction-cost level theta = (n - 1)/4; zero-sum inventory
profiles work for every theta >= 0.

Sequences are truncated once the discarded normalized mass drops below a
caller-chosen bound eps (default 1e-12).  The identity checks assemble only
the rows they assert, in blocks of at most _BLOCK_ENTRIES matrix entries.  A
truncation longer than _MAX_TRUNCATION_LEN entries, or an identity check on
an extended grid of more than finite_game._MAX_DENSE_SIDE points (a cap on
its work, not its memory), raises ParameterError before anything is
allocated.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ParameterError
from .finite_game import _assemble_rows, _check_dense_side
from .market_model import (
    BachelierVariance,
    ExponentialKernel,
    GameParams,
    TimeGrid,
    _finite_vector,
    _integer_at_least,
    _nonnegative_scalar,
    _positive_scalar,
)

__all__ = [
    "TruncatedSequence",
    "InfiniteHorizonSolution",
    "alpha_residual",
    "solve_alpha",
    "alpha_closed_form_n1",
    "beta_residual",
    "solve_beta",
    "infinite_v",
    "infinite_w",
    "solve_stationary",
    "infinite_nash",
    "critical_theta_infinite",
    "v_identity_deviation",
    "w_identity_deviation",
]


# longest truncated sequence (8 MB of float64)
_MAX_TRUNCATION_LEN = 10**6

# most matrix entries an identity check assembles at once (4 MB of float64 per matrix)
_BLOCK_ENTRIES = 2**19


def _check_eps(eps) -> float:
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise ParameterError(f"truncation bound eps must lie in (0, 1), got {eps}")
    return eps


def _market_inputs(rho, gamma, sigma, gamma_positive: bool = True) -> tuple[float, float, float]:
    """Validated rho > 0, sigma > 0 and gamma > 0 (gamma >= 0 unless gamma_positive)."""
    check_gamma = _positive_scalar if gamma_positive else _nonnegative_scalar
    return _positive_scalar(rho, "rho"), check_gamma(gamma, "gamma"), _positive_scalar(sigma, "sigma")


def _risk_term(rate: float, gamma: float, sigma: float) -> float:
    """gamma sigma^2 e^{-rate}/(1 - e^{-rate})^2, the variance term of both root equations.

    Below rate ~ 1e-154 the square (1 - e^{-rate})^2 is subnormal or 0, so the
    term divides twice instead; it then overflows to +inf (0 at gamma = 0),
    the limit that sends both residuals to -inf.
    """
    em = math.expm1(-rate)  # e^{-rate} - 1
    square = em * em
    if square < sys.float_info.min:
        return gamma * sigma * sigma * math.exp(-rate) / em / em
    return gamma * sigma * sigma * math.exp(-rate) / square


def alpha_residual(alpha: float, n: int, rho: float, gamma: float, sigma: float) -> float:
    """Residual of the symmetric-part root equation at a trial decay rate alpha.

    Tends to -inf as alpha -> 0+, is strictly increasing, and crosses zero
    once in (0, rho).  Undefined at alpha = rho (pole).
    """
    n = _integer_at_least(n, 1, "n")
    rho, gamma, sigma = _market_inputs(rho, gamma, sigma, gamma_positive=False)
    alpha = _positive_scalar(alpha, "alpha")
    if alpha == rho:
        raise ParameterError("alpha_residual has a pole at alpha = rho")
    return (
        1.0 / math.expm1(alpha + rho)
        - n / math.expm1(alpha - rho)
        - _risk_term(alpha, gamma, sigma)
    )


def beta_residual(beta: float, theta: float, rho: float, gamma: float, sigma: float) -> float:
    """Residual of the deviation-part root equation at a trial decay rate beta.

    Tends to -inf as beta -> 0+ and to 2 theta + 1/2 as beta -> inf; strictly
    increasing, so it crosses zero exactly once.
    """
    theta = _nonnegative_scalar(theta, "theta")
    rho, gamma, sigma = _market_inputs(rho, gamma, sigma, gamma_positive=False)
    beta = _positive_scalar(beta, "beta")
    return (
        2.0 * theta
        + 0.5
        + 1.0 / math.expm1(beta + rho)
        - _risk_term(beta, gamma, sigma)
    )


def _bisect_to_ulp(f, lo: float, hi: float, f_lo: float) -> float:
    """Bisect a sign change down to floating-point resolution.

    Returns the bracket endpoint with the smaller |f|; exact zeros win
    immediately.
    """
    f_hi = f(hi)
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


def solve_alpha(n: int, rho: float, gamma: float, sigma: float) -> float:
    """Root of the alpha equation in (0, rho), located by bisection.

    The initial bracket (eps, rho - eps) shrinks eps by factors of ten until
    the residual changes sign; bisection then runs to floating-point
    resolution.  The returned double and one of its neighbours carry
    float-evaluated residuals of opposite sign, and the returned one has the
    smaller |residual| of the two; where the float residual is monotone over
    the neighbours, it changes sign across them.  Where the root is pinned
    against the pole at rho, one ulp can move the residual by more than any
    fixed tolerance, so |residual| at the returned root can exceed it.
    """
    n = _integer_at_least(n, 1, "n")
    rho, gamma, sigma = _market_inputs(rho, gamma, sigma)

    def f(a):
        return alpha_residual(a, n, rho, gamma, sigma)

    eps = 0.25 * rho
    while True:
        f_lo = f(eps)
        f_hi = f(rho - eps)
        if f_lo < 0.0 < f_hi:
            break
        eps *= 0.1
        if eps < 1e-14:
            raise NumericalError(
                f"failed to bracket the alpha root in (0, {rho}) down to eps = 1e-14"
            )
    root = _bisect_to_ulp(f, eps, rho - eps, f_lo)
    if not (0.0 < root < rho):
        raise NumericalError(f"alpha root {root} escaped (0, {rho})")
    return root


def alpha_closed_form_n1(rho: float, gamma: float, sigma: float) -> float:
    """Single-agent alpha in closed form.

    Equals arccosh of (gamma sigma^2 cosh(rho) + 2 sinh(rho)) divided by
    (gamma sigma^2 + 2 sinh(rho)), evaluated here in a cancellation-free
    arrangement: with x - 1 = d, arccosh(x) = log1p(d + sqrt(d (2 + d))).
    """
    rho, gamma, sigma = _market_inputs(rho, gamma, sigma)
    gs2 = gamma * sigma * sigma
    d = gs2 * (math.cosh(rho) - 1.0) / (gs2 + 2.0 * math.sinh(rho))
    return math.log1p(d + math.sqrt(d * (2.0 + d)))


def solve_beta(theta: float, rho: float, gamma: float, sigma: float) -> float:
    """Unique root of the beta equation, located by bracketing and bisection.

    The lower end starts at 1e-12 (where the residual diverges to -inf); the
    upper end doubles from 1 until the residual turns positive.
    """
    theta = _nonnegative_scalar(theta, "theta")
    rho, gamma, sigma = _market_inputs(rho, gamma, sigma)

    def g(b):
        return beta_residual(b, theta, rho, gamma, sigma)

    lo = 1e-12
    f_lo = g(lo)
    if f_lo >= 0.0:
        raise NumericalError("beta residual unexpectedly nonnegative at the lower bracket 1e-12")
    hi = 1.0
    doublings = 0
    while g(hi) <= 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > 64:
            raise NumericalError("failed to bracket the beta root by doubling the upper end")
    return _bisect_to_ulp(g, lo, hi, f_lo)


@dataclass(frozen=True)
class TruncatedSequence:
    """A geometric base sequence cut off once its normalized tail is below eps."""

    values: np.ndarray
    tail_mass: float

    def __post_init__(self):
        values = np.array(self.values, dtype=float, copy=True)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail_mass", float(self.tail_mass))

    @property
    def truncation_len(self) -> int:
        return self.values.size

    def __len__(self) -> int:
        return self.values.size


def _truncation_index(rate: float, eps: float) -> int:
    """Last retained index M = ceil(log(1/eps)/rate); the sequence has M + 1 entries."""
    reach = math.log(1.0 / eps) / rate
    if not reach <= _MAX_TRUNCATION_LEN - 1:
        raise ParameterError(
            f"truncation at rate {rate:.6g}, eps {eps:g} needs about {reach + 1:.0f} entries, "
            f"above the limit of {_MAX_TRUNCATION_LEN}"
        )
    return math.ceil(reach)


def _v_values(alpha: float, rho: float, m: int) -> tuple[np.ndarray, float]:
    """Normalized v_0, ..., v_m and the normalized mass beyond v_m."""
    nu0 = 1.0 / (-math.expm1(alpha - rho))  # 1/(1 - e^{alpha-rho})
    total = 1.0 / math.expm1(alpha) + nu0  # sum of the unnormalized sequence
    values = np.exp(-alpha * np.arange(m + 1)) / total
    values[0] = nu0 / total
    tail = math.exp(-alpha * (m + 1)) / ((-math.expm1(-alpha)) * total)
    return values, tail


def _w_values(beta: float, m: int) -> tuple[np.ndarray, float]:
    """Normalized w_0, ..., w_m and the normalized mass beyond w_m."""
    values = (-math.expm1(-beta)) * np.exp(-beta * np.arange(m + 1))  # (1 - e^{-beta}) e^{-beta i}
    tail = math.exp(-beta * (m + 1))  # exact normalized geometric remainder
    return values, tail


def infinite_v(alpha: float, rho: float, eps: float = 1e-12) -> TruncatedSequence:
    """Normalized symmetric base sequence v_0, ..., v_M, M = ceil(log(1/eps)/alpha).

    v_i is proportional to e^{-alpha i} for i >= 1 with a deviating first
    entry 1/(1 - e^{alpha - rho}); tail_mass bounds the discarded normalized
    mass and is itself bounded by eps.
    """
    rho = _positive_scalar(rho, "rho")
    alpha = float(alpha)
    if not (0.0 < alpha < rho):
        raise ParameterError(f"alpha must lie in (0, rho) = (0, {rho}), got {alpha}")
    values, tail = _v_values(alpha, rho, _truncation_index(alpha, _check_eps(eps)))
    return TruncatedSequence(values=values, tail_mass=tail)


def infinite_w(beta: float, eps: float = 1e-12) -> TruncatedSequence:
    """Normalized deviation base sequence w_i = (1 - e^{-beta}) e^{-beta i}, truncated."""
    beta = _positive_scalar(beta, "beta")
    values, tail = _w_values(beta, _truncation_index(beta, _check_eps(eps)))
    return TruncatedSequence(values=values, tail_mass=tail)


def critical_theta_infinite(n: int) -> float:
    """Transaction-cost level (n - 1)/4 required for a nonzero average inventory."""
    return (_integer_at_least(n, 1, "n") - 1) / 4.0


@dataclass(frozen=True)
class InfiniteHorizonSolution:
    """Both stationary decay rates with their sequences on a common truncation.

    residual_alpha / residual_beta are the root-equation residuals at the
    returned rates; truncation_len counts the retained grid points and
    tail_mass bounds the larger of the two discarded normalized masses.
    """

    alpha: float
    beta: float
    v: np.ndarray
    w: np.ndarray
    truncation_len: int
    tail_mass: float
    residual_alpha: float
    residual_beta: float
    theta: float


def solve_stationary(
    n: int, rho: float, gamma: float, sigma: float, theta: float, eps: float = 1e-12
) -> InfiniteHorizonSolution:
    """Solve both root equations and assemble the base sequences.

    The sequences are extended to a common truncation length (the longer of
    the two individual truncations) so they can be combined entrywise.
    """
    n = _integer_at_least(n, 1, "n")
    theta = _nonnegative_scalar(theta, "theta")
    eps = _check_eps(eps)
    alpha = solve_alpha(n, rho, gamma, sigma)
    beta = solve_beta(theta, rho, gamma, sigma)
    m = max(_truncation_index(alpha, eps), _truncation_index(beta, eps))
    v_vals, tail_v = _v_values(alpha, rho, m)
    w_vals, tail_w = _w_values(beta, m)
    return InfiniteHorizonSolution(
        alpha=alpha,
        beta=beta,
        v=v_vals,
        w=w_vals,
        truncation_len=m + 1,
        tail_mass=max(tail_v, tail_w),
        residual_alpha=alpha_residual(alpha, n, rho, gamma, sigma),
        residual_beta=beta_residual(beta, theta, rho, gamma, sigma),
        theta=theta,
    )


def infinite_nash(
    n: int,
    rho: float,
    gamma: float,
    sigma: float,
    theta: float,
    inventories,
    eps: float = 1e-12,
) -> list[np.ndarray]:
    """Stationary equilibrium schedules xi_i = mean(X) v + (X_i - mean(X)) w.

    A nonzero average inventory requires theta = (n - 1)/4 exactly (up to
    relative round-off); zero-sum profiles are accepted for any theta >= 0.
    """
    return _infinite_nash(n, rho, gamma, sigma, theta, inventories, eps)[1]


def _infinite_nash(n, rho, gamma, sigma, theta, inventories, eps):
    """infinite_nash together with the stationary solution its schedules come from."""
    n = _integer_at_least(n, 1, "n")
    inventories = _finite_vector(inventories, n, "inventories")
    xbar = inventories.mean()
    scale = max(1.0, np.abs(inventories).max())
    if abs(xbar) <= 1e-12 * scale:
        xbar = 0.0
    theta_star = critical_theta_infinite(n)
    if xbar != 0.0 and abs(float(theta) - theta_star) > 1e-12 * max(1.0, theta_star):
        raise ParameterError(
            "a nonzero average inventory admits a stationary equilibrium only at "
            f"theta = (n - 1)/4 = {theta_star}; got theta = {theta}"
        )
    solution = solve_stationary(n, rho, gamma, sigma, theta, eps=eps)
    return solution, [xbar * solution.v + (x - xbar) * solution.w for x in inventories]


# ---------------------------------------------------------------------------
# truncated matrix identities
#
# The stationary sequences satisfy infinite-dimensional linear systems whose
# rows can be checked with finite matrices.  Truncating the grid at the
# sequence length M injects an error that grows linearly in the row index
# (through the gamma sigma^2 min(i, j) term), so the matrices are rebuilt on
# an extended grid sized to keep that error below eps/10 on the asserted
# rows; the assertion region stays the first half of the sequence's range.
# Only those rows are assembled, in blocks of at most _BLOCK_ENTRIES entries,
# so a check holds a few MB whatever the grid; the dense-side cap on the
# extended grid bounds its work.
# ---------------------------------------------------------------------------


def _extended_grid_length(rate: float, m: int, gamma: float, sigma: float, rho: float, eps: float) -> int:
    gs2 = gamma * sigma * sigma
    prefactor = 1.0 / (-math.expm1(-(rate + rho))) + gs2 * (0.5 * m + 1.0) / (-math.expm1(-rate))
    needed = math.ceil(math.log(10.0 * max(prefactor, 1.0) / eps) / rate)
    return max(m, needed)


def _identity_rows(params: GameParams, weight: int, x: np.ndarray, count: int) -> np.ndarray:
    """Rows 0 .. count - 1 of [Gamma + weight Gtilde] x, assembled in row blocks.

    A block holds at most _BLOCK_ENTRIES entries per matrix (at least one
    row); weight Gtilde + Gamma is formed in the Gtilde block's buffer.
    """
    rows = np.empty(count)
    step = max(1, _BLOCK_ENTRIES // x.size)
    for start in range(0, count, step):
        stop = min(start + step, count)
        full, tilde = _assemble_rows(params, start, stop)
        tilde *= weight
        tilde += full
        np.matmul(tilde, x, out=rows[start:stop])
        del full, tilde  # freed before the next block is assembled
    return rows


def _identity_deviation(
    rate: float, head: float, n: int, theta: float, weight: int,
    rho: float, gamma: float, sigma: float, eps: float,
) -> float:
    """Max deviation of rows 0 .. M/2 of [Gamma + weight Gtilde] x from their constant value.

    x_i = e^{-rate i} except x_0 = head; Gamma carries n agents and theta,
    and M = ceil(log(1/eps)/rate).  Every row of the infinite product equals
    gamma sigma^2 e^{-rate}/(1 - e^{-rate})^2.  Only the asserted rows of the
    extended-grid matrices are assembled, _BLOCK_ENTRIES entries at a time;
    the extended grid is still held to finite_game._MAX_DENSE_SIDE points.
    """
    m = _truncation_index(rate, eps)
    m_build = _extended_grid_length(rate, m, gamma, sigma, rho, eps)
    _check_dense_side(m_build + 1, f"identity check at rate {rate:.6g}")
    grid = TimeGrid(np.arange(m_build + 1, dtype=float))
    params = GameParams(
        n=n,
        gamma=gamma,
        theta=theta,
        kernel=ExponentialKernel(rho),
        variance=BachelierVariance(sigma),
        grid=grid,
    )
    x = np.exp(-rate * grid.times)
    x[0] = head
    rows = _identity_rows(params, weight, x, m // 2 + 1)
    return float(np.abs(rows - _risk_term(rate, gamma, sigma)).max())


def v_identity_deviation(
    alpha: float, n: int, rho: float, gamma: float, sigma: float, eps: float = 1e-12
) -> float:
    """Max row deviation of [Gamma + (n-1) Gtilde] nu from its constant value.

    nu is the unnormalized symmetric sequence (nu_0 = 1/(1 - e^{alpha-rho}),
    nu_i = e^{-alpha i}); at theta = (n-1)/4 every row of the infinite product
    equals gamma sigma^2 e^{-alpha}/(1 - e^{-alpha})^2.  The check runs on
    rows 0 .. M/2 with M = ceil(log(1/eps)/alpha).
    """
    n = _integer_at_least(n, 1, "n")
    rho, gamma, sigma = _market_inputs(rho, gamma, sigma)
    eps = _check_eps(eps)
    if not (0.0 < alpha < rho):
        raise ParameterError(f"alpha must lie in (0, rho), got {alpha}")
    head = 1.0 / (-math.expm1(alpha - rho))
    return _identity_deviation(
        alpha, head, n, critical_theta_infinite(n), n - 1, rho, gamma, sigma, eps
    )


def w_identity_deviation(
    beta: float, theta: float, rho: float, gamma: float, sigma: float, eps: float = 1e-12
) -> float:
    """Max row deviation of (Gamma - Gtilde) omega from its constant value.

    omega_i = e^{-beta i}; at the beta root for this theta every row of the
    infinite product equals gamma sigma^2 e^{-beta}/(1 - e^{-beta})^2.  The
    check runs on rows 0 .. M/2 with M = ceil(log(1/eps)/beta).
    """
    beta = _positive_scalar(beta, "beta")
    theta = _nonnegative_scalar(theta, "theta")
    rho, gamma, sigma = _market_inputs(rho, gamma, sigma)
    eps = _check_eps(eps)
    return _identity_deviation(beta, 1.0, 1, theta, -1, rho, gamma, sigma, eps)
