"""The four benchmark workloads: seeded inputs, one timed call, one check.

Each workload is a single closed-loop caller: the next operation starts
only after the previous one returned and was checked.  Inputs come from
the workload seed alone.  Every value is drawn from its continuous range
(log-uniform for sizes), so no percentile sits on a size-bucket boundary.
Operations are cheap or dear over orders of magnitude, so a run of a few
dozen iid draws would measure the luck of the draw as much as the code.
The draws are therefore stratified on a cost proxy computed from the
inputs alone (`Workload.cost`), in passes of PASS operations: PASS x POOL
candidates are taken from a randomly shifted low-discrepancy sequence
(`_sequence`), sorted by proxy cost and cut into PASS equal groups, and one
random candidate per group is kept.  Each candidate is uniform on the input
ranges and kept with probability 1/POOL, so a pass is an unbiased sample
of the input distribution whose cost quantiles barely move between seeds;
the pass runs in bit-reversed group order, so every prefix a run reaches
covers the cost range evenly.

The warm-up operation, untimed but in the same process, sits at the costly
corner of the ranges, so peak memory is that of the largest input the
workload admits rather than of whichever large draw a seed happened to make.

The harness calls the package only through public names looked up at call
time (``ig.nash_equilibrium``, ``ig.cli.main``, ...), so a traced run that
rebinds those names sees every call.
"""

from __future__ import annotations

import itertools
import math
import os
import time
import warnings

import numpy as np

import checks

#: operations per pass, a power of two so that bit-reversed order balances prefixes
PASS = 64
#: candidates drawn per kept operation
POOL = 16


def _sequence(rng: np.random.Generator, dims: list[str]):
    """Endless randomly shifted R_d (Kronecker) sequence of unit-interval draws.

    Point j is frac(shift + j * alpha) with alpha_k = phi_d^-k, phi_d the
    root of x^(d+1) = x + 1 (Roberts' generalised golden ratio).  Each point
    is uniform on the unit cube and every prefix has low discrepancy.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (len(dims) + 1))
    alpha = phi ** -np.arange(1.0, len(dims) + 1.0)
    shift = rng.random(len(dims))
    for j in itertools.count(1):
        yield dict(zip(dims, ((shift + j * alpha) % 1.0).tolist()))


def _bit_reversed(size: int) -> list[int]:
    bits = size.bit_length() - 1
    return [int(format(j, f"0{bits}b")[::-1], 2) for j in range(size)]


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _uniform(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _integer(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


class Workload:
    """One workload: `ops` yields inputs, `run` is timed, `check` is not."""

    name: str
    #: percentile reported as op_tail_s, fixed per workload so that two code
    #: versions compare the same quantile (see README)
    tail_pct: float
    #: input dimensions, each drawn on the unit interval and mapped by make_op
    dims: list[str]
    #: unit-interval position of the costliest corner, for the warm-up
    corner: dict[str, float]

    def __init__(self, ig, tmpdir: str):
        self.ig = ig
        self.tmpdir = tmpdir

    def ops(self, seed: int):
        """Endless seeded operation sequence, stratified on `cost` pass by pass."""
        rng = np.random.default_rng([seed, 1])
        points = _sequence(rng, self.dims)
        order = _bit_reversed(PASS)
        while True:
            pool = [self.make_op(next(points), rng) for _ in range(PASS * POOL)]
            pool.sort(key=self.cost)
            picks = rng.integers(POOL, size=PASS)
            for group in order:
                yield pool[group * POOL + picks[group]]

    def warmup_op(self, seed: int) -> dict:
        """Untimed operation at the costly corner; also loads lazy code paths."""
        rng = np.random.default_rng([seed, 2])
        return self.make_op({**{d: 0.5 for d in self.dims}, **self.corner}, rng)

    def _read(self, path: str) -> str:
        with open(path, encoding="utf-8") as handle:
            return handle.read()


class Equilibrium(Workload):
    """nash_equilibrium, then best_response for agent 0 (exponential kernel)."""

    name = "equilibrium"
    tail_pct = 85.0
    dims = ["N", "n", "gamma", "theta", "rho"]
    corner = {"N": 1.0, "n": 1.0}

    def make_op(self, u, rng):
        n = _integer(u["n"], 2, 8)
        return {
            "N": round(_log_uniform(u["N"], 200, 2000)),
            "n": n,
            "gamma": _uniform(u["gamma"], 0.0, 5.0),
            "theta": _uniform(u["theta"], 0.0, 1.0),
            "rho": _log_uniform(u["rho"], 0.3, 3.0),
            "inventories": [float(x) for x in rng.uniform(-3.0, 3.0, n)],
        }

    @staticmethod
    def cost(op):
        # three O(N^3) factorisations plus O(N^2) assembly, condition
        # estimates and per-agent FOC products; weights fitted at this commit
        m = op["N"] + 1
        return m**3 + (1150.0 + 40.0 * op["n"]) * m**2

    def run(self, op):
        ig = self.ig
        params = ig.GameParams(
            n=op["n"], gamma=op["gamma"], theta=op["theta"],
            kernel=ig.ExponentialKernel(op["rho"]), variance=ig.BachelierVariance(1.0),
            grid=ig.TimeGrid.equidistant(op["N"]),
        )
        eq = ig.nash_equilibrium(params, op["inventories"])
        br = ig.best_response(eq.strategies[1:], op["inventories"][0], params)
        return eq, br

    def check(self, op, out):
        eq, br = out
        trades = np.column_stack([s.trades for s in eq.strategies])
        foc, gap = checks.check_equilibrium(op, trades, br.trades)
        return {"foc_residual": foc, "br_gap": gap}


class Thresholds(Workload):
    """`impact-game thresholds` in-process: two points per call, power-law kernel."""

    name = "thresholds"
    tail_pct = 85.0
    dims = ["N1", "N2", "n", "gamma", "p"]
    corner = {"N1": 1.0, "N2": 1.0}
    resolution = 1e-4

    def make_op(self, u, rng):
        return {
            "which": "v",
            "N": [round(_log_uniform(u["N1"], 200, 600)), round(_log_uniform(u["N2"], 200, 600))],
            "n": _integer(u["n"], 2, 6),
            "gamma": _uniform(u["gamma"], 0.0, 3.0),
            "p": _uniform(u["p"], 0.5, 2.0),
            "resolution": self.resolution,
        }

    def ops(self, seed: int):
        """The base sequence with `which` alternating v, w, v, ..."""
        for k, op in enumerate(super().ops(seed)):
            yield {**op, "which": "v" if k % 2 == 0 else "w"}

    @staticmethod
    def cost(op):
        # the two searches run side by side; the larger grid finishes last
        return max(op["N"]) ** 3

    def run(self, op):
        out = os.path.join(self.tmpdir, "thresholds.csv")
        argv = [
            "thresholds", "--which", op["which"], "--N", ",".join(str(s) for s in op["N"]),
            "--gamma", repr(op["gamma"]), "--kernel", "power", "--p", repr(op["p"]),
            "--resolution", repr(op["resolution"]), "--out", out,
        ]
        if op["which"] == "v":
            argv += ["--n", str(op["n"])]
        return self.ig.cli.main(argv), out

    def check(self, op, out):
        code, path = out
        if code != 0:
            raise checks.CheckFailed(f"CLI exit code {code}")
        checks.check_thresholds(op, self._read(path))
        return {}


class MonteCarlo(Workload):
    """`impact-game montecarlo` in-process with a fresh sampling seed per call."""

    name = "montecarlo"
    tail_pct = 55.0
    dims = ["count", "N", "n"]
    corner = {"count": 1.0, "N": 1.0, "n": 1.0}

    def make_op(self, u, rng):
        return {
            "n": _integer(u["n"], 2, 5),
            "N": round(_log_uniform(u["N"], 50, 400)),
            "count": round(_log_uniform(u["count"], 2e4, 1e5)),
            "seed": int(rng.integers(0, 2**31 - 1)),
        }

    @staticmethod
    def cost(op):
        # drawing and pricing count paths of N + 1 steps
        return op["count"] * (op["N"] + 1)

    def run(self, op):
        out = os.path.join(self.tmpdir, "montecarlo.json")
        argv = [
            "montecarlo", "--n", str(op["n"]), "--N", str(op["N"]),
            "--count", str(op["count"]), "--seed", str(op["seed"]), "--out", out,
        ]
        return self.ig.cli.main(argv), out

    def check(self, op, out):
        code, path = out
        if code != 0:
            raise checks.CheckFailed(f"CLI exit code {code}")
        return {"max_abs_z": checks.check_montecarlo(op, self._read(path))}


class Stationary(Workload):
    """solve_stationary at theta = (n-1)/4, then both identity deviations."""

    name = "stationary"
    tail_pct = 90.0
    dims = ["n", "rho", "gamma"]
    corner = {"n": 1.0, "rho": 0.0, "gamma": 0.0}

    def make_op(self, u, rng):
        return {
            "n": _integer(u["n"], 1, 6),
            "rho": _log_uniform(u["rho"], 0.3, 3.0),
            "gamma": _log_uniform(u["gamma"], 1e-3, 1e-1),
        }

    @staticmethod
    def cost(op):
        # identity matrices of side ~ 1/rate, rate^2 ~ gamma / (kernel sums)
        n, rho = op["n"], op["rho"]
        v_sum = 1.0 / math.expm1(rho) + n / -math.expm1(-rho)
        w_sum = 1.0 / math.expm1(rho) + n / 2.0
        return (v_sum + w_sum) / op["gamma"]

    def run(self, op):
        ig = self.ig
        n, rho, gamma = op["n"], op["rho"], op["gamma"]
        theta = (n - 1) / 4.0
        solution = ig.solve_stationary(n, rho, gamma, 1.0, theta)
        dev_v = ig.v_identity_deviation(solution.alpha, n, rho, gamma, 1.0)
        dev_w = ig.w_identity_deviation(solution.beta, theta, rho, gamma, 1.0)
        return solution, dev_v, dev_w

    def check(self, op, out):
        solution, dev_v, dev_w = out
        checks.check_stationary(op, solution.alpha, solution.beta)
        return {
            "residual_alpha": abs(float(solution.residual_alpha)),
            "identity_deviation": max(dev_v, dev_w),
            "truncation_len": int(solution.truncation_len),
            "asserted_rows": checks.asserted_rows(solution.alpha) + checks.asserted_rows(solution.beta),
        }


WORKLOADS = {w.name: w for w in (Equilibrium, Thresholds, MonteCarlo, Stationary)}


def run_op(workload: Workload, op: dict, warning_category):
    """Time one operation.

    Returns (latency seconds, output or None, error message or None, number
    of warnings of `warning_category` raised during the call).
    """
    out = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:  # a raising operation counts as failed, the run goes on
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - start
    return latency, out, error, sum(issubclass(w.category, warning_category) for w in caught)
