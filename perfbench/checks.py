"""Independent output checks, written against the model, not the package.

Every function here rebuilds what it needs from the model definition with
plain numpy: the cost kernel Gamma_{kl} = G(|t_k - t_l|) + gamma phi(t_k ^ t_l)
+ 2 theta delta_{kl}, its one-sided half Gtilde (strict lower triangle of G
plus half its diagonal), and the Bachelier variance phi(t) = sigma^2 t.  No
impact_game code is called, so a defect shared by the package's own
diagnostics and its results cannot pass unnoticed.  Checks run outside the
timed region; each raises CheckFailed with a message naming the violated
bound.
"""

from __future__ import annotations

import json
import math

import numpy as np

#: criterion-1 tolerance: first-order conditions and best-response gap
FOC_RTOL = 1e-8
BR_GAP_TOL = 1e-8
#: criterion-7 tolerance: truncated stationary identities
IDENTITY_TOL = 1e-11
#: Monte Carlo z-scores beyond this are treated as a wrong closed form
MAX_ABS_Z = 5.0
#: relative cutoff below which a base-vector component counts as negative
OSCILLATION_RTOL = 1e-12
#: matrix entries per block when assembling kernel rows, to keep check memory small
BLOCK_ENTRIES = 2**19
#: truncation bound of the stationary sequences: rows 0 .. M/2 are asserted,
#: M = ceil(log(1/eps)/rate)
SEQUENCE_EPS = 1e-12
#: largest change the columns cut off the stationary identity grid may make to an asserted row
CUTOFF_ERROR = 1e-14


class CheckFailed(Exception):
    """An output violated the benchmark's independent check."""


def equidistant(steps: int, horizon: float = 1.0) -> np.ndarray:
    return np.linspace(0.0, horizon, steps + 1)


def decay(kernel: str, param: float, lag: np.ndarray) -> np.ndarray:
    if kernel == "exp":
        return np.exp(-param * lag)
    return (1.0 + lag) ** (-param)


def row_blocks(rows: int, cols: int):
    """Slices covering rows 0 .. rows-1, at most BLOCK_ENTRIES entries per block."""
    step = max(1, BLOCK_ENTRIES // cols)
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def kernel_rows(times, rows: slice, kernel: str, param: float, gamma: float, sigma: float, theta: float):
    """Rows `rows` of Gamma and Gtilde as two dense blocks."""
    row_t = times[rows, None]
    lag = np.abs(row_t - times[None, :])
    g = decay(kernel, param, lag)
    full = g + gamma * sigma * sigma * np.minimum(row_t, times[None, :])
    row_idx = np.arange(rows.start, rows.stop)[:, None]
    col_idx = np.arange(times.size)[None, :]
    full[col_idx == row_idx] += 2.0 * theta
    tilde = np.where(col_idx < row_idx, g, 0.0) + np.where(col_idx == row_idx, 0.5 * g, 0.0)
    return full, tilde


def foc_residual(times, kernel: str, param: float, gamma: float, sigma: float, theta: float, trades) -> float:
    """Largest relative spread of Gamma xi_i + Gtilde sum_{j != i} xi_j over the grid.

    trades has one column per agent.  At an equilibrium every agent's
    gradient is constant (the Lagrange multiplier); the spread is taken
    relative to max(1, |multiplier|).
    """
    trades = np.asarray(trades, dtype=float)
    others = trades.sum(axis=1, keepdims=True) - trades
    gradient = np.empty_like(trades)
    for rows in row_blocks(times.size, times.size):
        full, tilde = kernel_rows(times, rows, kernel, param, gamma, sigma, theta)
        gradient[rows] = full @ trades + tilde @ others
    multiplier = gradient.mean(axis=0)
    spread = np.abs(gradient - multiplier).max(axis=0) / np.maximum(1.0, np.abs(multiplier))
    return float(spread.max())


def base_vector(which: str, n: int, steps: int, gamma: float, theta: float, kernel: str, param: float, sigma: float = 1.0):
    """Normalized solve of [Gamma + (n-1) Gtilde] x = 1 (v) or [Gamma - Gtilde] x = 1 (w)."""
    times = equidistant(steps)
    full, tilde = kernel_rows(times, slice(0, times.size), kernel, param, gamma, sigma, theta)
    matrix = full + (n - 1) * tilde if which == "v" else full - tilde
    x = np.linalg.solve(matrix, np.ones(times.size))
    return x / x.sum()


def oscillating(vector) -> bool:
    vector = np.asarray(vector)
    return bool((vector < -OSCILLATION_RTOL * np.abs(vector).max()).any())


def check_equilibrium(op: dict, trades, best_response) -> tuple[float, float]:
    """Criterion-1 checks on one equilibrium; returns (foc residual, best-response gap)."""
    trades = np.asarray(trades, dtype=float)
    if not np.all(np.isfinite(trades)):
        raise CheckFailed("equilibrium trades are not finite")
    inventories = np.asarray(op["inventories"])
    if np.abs(trades.sum(axis=0) - inventories).max() > 1e-9 * max(1.0, np.abs(inventories).max()):
        raise CheckFailed("equilibrium trades do not sum to the inventories")
    times = equidistant(op["N"])
    foc = foc_residual(times, "exp", op["rho"], op["gamma"], 1.0, op["theta"], trades)
    if not foc <= FOC_RTOL:
        raise CheckFailed(f"FOC gradient spread {foc:.3e} > {FOC_RTOL}")
    gap = float(np.abs(np.asarray(best_response) - trades[:, 0]).max())
    if not gap <= BR_GAP_TOL:
        raise CheckFailed(f"best-response gap {gap:.3e} > {BR_GAP_TOL}")
    return foc, gap


def check_thresholds(op: dict, csv_text: str) -> None:
    """Re-solve each CSV row at its bracket ends: oscillating below, monotone above."""
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    if len(rows) != len(op["N"]):
        raise CheckFailed(f"expected {len(op['N'])} CSV rows, got {len(rows)}")
    n = op["n"] if op["which"] == "v" else 1
    for row, steps in zip(rows, op["N"]):
        if int(row["N"]) != steps or row["which"] != op["which"]:
            raise CheckFailed(f"CSV row {row} does not match the requested point")
        lo, hi = float(row["bracket_lo"]), float(row["bracket_hi"])
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi):
            raise CheckFailed(f"invalid bracket ({row['bracket_lo']}, {row['bracket_hi']}) at N={steps}")
        if hi - lo > op["resolution"]:
            raise CheckFailed(f"bracket width {hi - lo:.3e} exceeds the resolution at N={steps}")

        def vector(theta):
            return base_vector(op["which"], n, steps, op["gamma"], theta, "power", op["p"])

        if hi > 0.0 and not oscillating(vector(lo)):
            raise CheckFailed(f"base vector monotone at bracket_lo={lo!r} (N={steps})")
        if oscillating(vector(hi)):
            raise CheckFailed(f"base vector oscillates at bracket_hi={hi!r} (N={steps})")


def check_montecarlo(op: dict, json_text: str) -> float:
    """Parse the report and bound its largest |z|; returns max |z|."""
    report = json.loads(json_text)
    if report["count"] != op["count"] or report["seed"] != op["seed"] or report["N"] != op["N"]:
        raise CheckFailed("report does not echo the requested count/seed/N")
    zs = [r["z_mean"] for r in report["moments"]] + [r["z_variance"] for r in report["moments"]]
    zs += [r["z"] for r in report["cara"]]
    if len(report["moments"]) != op["n"] or len(report["cara"]) != op["n"]:
        raise CheckFailed("report does not cover every agent")
    max_z = max(abs(z) for z in zs)
    if not (math.isfinite(max_z) and max_z == report["max_abs_z"]):
        raise CheckFailed(f"max_abs_z {report['max_abs_z']} disagrees with the per-agent z-scores")
    if not max_z <= MAX_ABS_Z:
        raise CheckFailed(f"max |z| {max_z:.3f} > {MAX_ABS_Z}")
    return max_z


def identity_deviation(rate: float, first: float, tilde_weight: float, theta: float,
                       rho: float, gamma: float, sigma: float = 1.0) -> float:
    """Largest deviation of rows 0 .. M/2 of [Gamma + tilde_weight Gtilde] x from its constant.

    x_0 = first and x_i = e^{-rate i} on the unit grid 0, 1, 2, ...; at a
    stationary root every row of the infinite product equals
    gamma sigma^2 e^{-rate}/(1 - e^{-rate})^2.  For a row i the columns
    j > L add at most (1 + gamma sigma^2 i) e^{-rate (L+1)}/(1 - e^{-rate}),
    so the grid is cut at the first L that keeps this below CUTOFF_ERROR.
    """
    rows = asserted_rows(rate)
    decay_sum = -math.expm1(-rate)  # 1 - e^{-rate}
    last = math.ceil(math.log((1.0 + gamma * sigma * sigma * rows) / (decay_sum * CUTOFF_ERROR)) / rate)
    times = np.arange(last + 1, dtype=float)
    x = np.exp(-rate * times)
    x[0] = first
    product = np.empty(rows)
    for block in row_blocks(rows, times.size):
        full, tilde = kernel_rows(times, block, "exp", rho, gamma, sigma, theta)
        product[block] = full @ x + tilde_weight * (tilde @ x)
    constant = gamma * sigma * sigma * math.exp(-rate) / (decay_sum * decay_sum)
    return float(np.abs(product - constant).max())


def check_stationary(op: dict, alpha: float, beta: float) -> tuple[float, float]:
    """Criterion-7 bound on both stationary identities, recomputed from alpha and beta.

    The v identity is [Gamma + (n-1) Gtilde] nu with nu_0 = 1/(1 - e^{alpha-rho});
    the w identity is (Gamma - Gtilde) omega with omega_0 = 1.  Both use
    theta = (n-1)/4.  Returns the two deviations.
    """
    n, rho, gamma = op["n"], op["rho"], op["gamma"]
    if not (0.0 < alpha < rho) or not beta > 0.0:
        raise CheckFailed(f"decay rates alpha={alpha!r} beta={beta!r} outside their domains")
    theta = (n - 1) / 4.0
    dev_v = identity_deviation(alpha, 1.0 / -math.expm1(alpha - rho), n - 1.0, theta, rho, gamma)
    dev_w = identity_deviation(beta, 1.0, -1.0, theta, rho, gamma)
    for label, dev in (("v", dev_v), ("w", dev_w)):
        if not dev <= IDENTITY_TOL:
            raise CheckFailed(f"{label} identity deviation {dev:.3e} > {IDENTITY_TOL}")
    return dev_v, dev_w


def asserted_rows(rate: float) -> int:
    """Rows 0 .. M/2 asserted by a stationary identity, M = ceil(log(1/eps)/rate)."""
    return math.ceil(math.log(1.0 / SEQUENCE_EPS) / rate) // 2 + 1
