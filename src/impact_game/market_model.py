"""Model primitives: trading grids, decay kernels, variance functions, parameters.

The price consists of an unaffected martingale component plus transient
impact: every past trade moves the price in proportion to a nonincreasing
decay kernel G evaluated at the elapsed time, and the martingale component
has variance function phi(t) = Var(S0_t).  A game instance is pinned down by
the number of agents, the risk-aversion and transaction-cost levels, the
kernel, the variance function, and the trading grid.

Contents
--------
TimeGrid            strictly increasing trading times
ExponentialKernel   G(t) = exp(-rho t)
PowerLawKernel      G(t) = (1 + t)^(-p)
BachelierVariance   phi(t) = sigma^2 t
TabulatedVariance   piecewise-linear nondecreasing phi
GameParams          one validated game instance
kernel_eval         evaluate a kernel at nonnegative lags
variance_eval       evaluate a variance function at nonnegative times
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ParameterError

__all__ = [
    "TimeGrid",
    "ExponentialKernel",
    "PowerLawKernel",
    "DecayKernel",
    "BachelierVariance",
    "TabulatedVariance",
    "VarianceFunction",
    "GameParams",
    "kernel_eval",
    "variance_eval",
]


# Parameter validators, shared by every module of the package.  Each raises
# ParameterError with a message that names the offending parameter.


def _readonly_vector(values, name: str) -> np.ndarray:
    """Copy `values` into a read-only 1-d float array, or raise ParameterError."""
    arr = np.array(values, dtype=float, copy=True)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be a nonempty 1-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite")
    arr.setflags(write=False)
    return arr


def _positive_scalar(value, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise ParameterError(f"{name} must be a finite positive number, got {value}")
    return value


def _nonnegative_scalar(value, name: str) -> float:
    value = float(value)
    if not np.isfinite(value) or value < 0.0:
        raise ParameterError(f"{name} must be a finite nonnegative number, got {value}")
    return value


def _integer_at_least(value, lower: int, name: str) -> int:
    """`value` as an int, or raise ParameterError unless it is an integer >= lower."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < lower:
        raise ParameterError(f"{name} must be an integer >= {lower}, got {value!r}")
    return int(value)


def _finite_vector(values, size: int, name: str) -> np.ndarray:
    """`values` as a finite 1-d float array of length `size`, or raise ParameterError."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size != size:
        raise ParameterError(f"{name} must be a length-{size} vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError(f"{name} must be finite")
    return arr


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing trading times t_0 < t_1 < ... < t_N with t_0 >= 0."""

    times: np.ndarray

    def __post_init__(self):
        times = _readonly_vector(self.times, "times")
        if times[0] < 0.0:
            raise ParameterError("trading times must be nonnegative")
        if times.size > 1 and not np.all(np.diff(times) > 0.0):
            raise ParameterError("trading times must be strictly increasing")
        object.__setattr__(self, "times", times)

    @classmethod
    def equidistant(cls, steps: int, horizon: float = 1.0) -> "TimeGrid":
        """N + 1 evenly spaced times covering [0, horizon]; steps = 0 gives {0}."""
        steps = _integer_at_least(steps, 0, "steps")
        horizon = _positive_scalar(horizon, "horizon")
        if steps == 0:
            return cls(np.zeros(1))
        return cls(np.linspace(0.0, horizon, steps + 1))

    @property
    def steps(self) -> int:
        """Number of steps N (one less than the number of grid points)."""
        return self.times.size - 1

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class ExponentialKernel:
    """Exponential decay G(t) = exp(-rho t); G(0) = 1."""

    rho: float

    def __post_init__(self):
        object.__setattr__(self, "rho", _positive_scalar(self.rho, "rho"))

    def eval(self, lag):
        return np.exp(-self.rho * np.asarray(lag, dtype=float))

    def _eval_in_place(self, lag: np.ndarray) -> np.ndarray:
        """eval on a float array, overwriting it: the same operations in the same order."""
        lag *= -self.rho
        return np.exp(lag, out=lag)


@dataclass(frozen=True)
class PowerLawKernel:
    """Power-law decay G(t) = (1 + t)^(-p); G(0) = 1."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _positive_scalar(self.p, "p"))

    def eval(self, lag):
        return (1.0 + np.asarray(lag, dtype=float)) ** (-self.p)

    def _eval_in_place(self, lag: np.ndarray) -> np.ndarray:
        """eval on a float array, overwriting it: the same operations in the same order."""
        lag += 1.0
        lag **= -self.p
        return lag


DecayKernel = Union[ExponentialKernel, PowerLawKernel]


@dataclass(frozen=True)
class BachelierVariance:
    """Variance of a scaled Brownian unaffected price: phi(t) = sigma^2 t."""

    sigma: float

    def __post_init__(self):
        sigma = _positive_scalar(self.sigma, "sigma")
        if not np.isfinite(sigma * sigma):
            raise ParameterError(f"sigma^2 overflows, got sigma = {sigma}")
        object.__setattr__(self, "sigma", sigma)

    def eval(self, t):
        return self.sigma**2 * np.asarray(t, dtype=float)


@dataclass(frozen=True)
class TabulatedVariance:
    """Nondecreasing piecewise-linear variance function given by knots.

    Between knots the value is linearly interpolated; beyond the last knot
    (and before the first) it is held constant.
    """

    knot_times: np.ndarray
    knot_values: np.ndarray

    def __post_init__(self):
        times = _readonly_vector(self.knot_times, "knot_times")
        values = _readonly_vector(self.knot_values, "knot_values")
        if times.size != values.size:
            raise ParameterError("knot_times and knot_values must have equal length")
        if times[0] < 0.0 or (times.size > 1 and not np.all(np.diff(times) > 0.0)):
            raise ParameterError("knot_times must be nonnegative and strictly increasing")
        if values[0] < 0.0 or (values.size > 1 and np.any(np.diff(values) < 0.0)):
            raise ParameterError("knot_values must be nonnegative and nondecreasing")
        object.__setattr__(self, "knot_times", times)
        object.__setattr__(self, "knot_values", values)

    def eval(self, t):
        return np.interp(np.asarray(t, dtype=float), self.knot_times, self.knot_values)


VarianceFunction = Union[BachelierVariance, TabulatedVariance]


@dataclass(frozen=True)
class GameParams:
    """Everything that pins down one finite-horizon game instance.

    n       number of agents (>= 1)
    gamma   risk-aversion weight on the cost variance (>= 0)
    theta   quadratic transaction-cost level (>= 0)
    kernel  transient-impact decay kernel
    variance variance function of the unaffected price
    grid    trading times
    s0      initial unaffected price (book-value shift of the cost only)
    """

    n: int
    gamma: float
    theta: float
    kernel: DecayKernel
    variance: VarianceFunction
    grid: TimeGrid
    s0: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", _integer_at_least(self.n, 1, "n"))
        object.__setattr__(self, "gamma", _nonnegative_scalar(self.gamma, "gamma"))
        object.__setattr__(self, "theta", _nonnegative_scalar(self.theta, "theta"))
        s0 = float(self.s0)
        if not np.isfinite(s0):
            raise ParameterError("s0 must be finite")
        object.__setattr__(self, "s0", s0)
        if not hasattr(self.kernel, "eval"):
            raise ParameterError("kernel must provide an eval(lag) method")
        if not hasattr(self.variance, "eval"):
            raise ParameterError("variance must provide an eval(t) method")
        if not isinstance(self.grid, TimeGrid):
            raise ParameterError("grid must be a TimeGrid")

    def phi_at_grid(self) -> np.ndarray:
        """Variance function evaluated on the trading grid."""
        return variance_eval(self.variance, self.grid.times)


def kernel_eval(kernel: DecayKernel, lag):
    """Evaluate the decay kernel at nonnegative lags (scalar in, scalar out)."""
    arr = np.asarray(lag, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ParameterError("kernel lag must be finite and nonnegative")
    out = kernel.eval(arr)
    return float(out) if arr.ndim == 0 else np.asarray(out, dtype=float)


def variance_eval(variance: VarianceFunction, t):
    """Evaluate the variance function at nonnegative times (scalar in, scalar out)."""
    arr = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ParameterError("time must be finite and nonnegative")
    out = variance.eval(arr)
    return float(out) if arr.ndim == 0 else np.asarray(out, dtype=float)
