"""Command-line front end.

Four subcommands cover the library surface:

  equilibrium   finite-horizon equilibrium as CSV (t, v, w, xi_1..xi_n)
  thresholds    critical transaction-cost sweep as CSV
  infinite      stationary decay rates as JSON plus sequences as CSV
  montecarlo    sampled cost moments and utilities vs closed forms, JSON

Exit codes: 0 on success, 2 for invalid flags or parameter-domain errors,
3 for numerical failures.  Output is byte-stable: floats are printed with
repr-exact precision, newlines are always "\\n", and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from contextlib import nullcontext

import numpy as np

from .errors import NumericalError, ParameterError
from .finite_game import _check_dense_steps, nash_equilibrium
from .infinite_game import _infinite_nash, critical_theta_infinite, solve_stationary
from .market_model import (
    BachelierVariance,
    ExponentialKernel,
    GameParams,
    PowerLawKernel,
    TimeGrid,
)
from .simulation import _cara_reports, _moment_reports, _sample
from .thresholds import sweep

__all__ = ["main", "cmd_equilibrium", "cmd_thresholds", "cmd_infinite", "cmd_montecarlo"]

#: most values one grid specification may expand to
MAX_SPEC_VALUES = 10_000


def _fmt(value) -> str:
    """Stable text form for CSV cells: shortest round-trip decimal for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_rows(path: str | None, header: list[str], rows) -> None:
    target = nullcontext(sys.stdout) if path is None else open(path, "w", encoding="utf-8", newline="")
    with target as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _parse_values(text: str, cast, name: str) -> list:
    """Grid specification: 'a,b,c', 'lo:hi' (unit step), or 'lo:hi:step'.

    Every part must be finite, and a specification expands to at most
    MAX_SPEC_VALUES values.
    """
    text = text.strip()
    if not text:
        raise ParameterError(f"{name} specification is empty")
    if ":" in text:
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ParameterError(f"{name} range must be lo:hi or lo:hi:step, got {text!r}")
        try:
            lo = float(parts[0])
            hi = float(parts[1])
            step = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise ParameterError(f"{name} range {text!r} has non-numeric parts") from None
        if not all(math.isfinite(x) for x in (lo, hi, step)):
            raise ParameterError(f"{name} range {text!r} has non-finite parts")
        if step <= 0.0:
            raise ParameterError(f"{name} range step must be positive, got {step}")
        if hi < lo:
            raise ParameterError(f"{name} range is empty: {text!r}")
        values = []
        k = 0
        while True:
            value = lo + k * step
            if value > hi + 1e-9 * step:
                break
            if k == MAX_SPEC_VALUES:
                raise ParameterError(
                    f"{name} range {text!r} expands to more than {MAX_SPEC_VALUES} values"
                )
            values.append(value)
            k += 1
    else:
        try:
            values = [float(part) for part in text.split(",")]
        except ValueError:
            raise ParameterError(f"{name} list {text!r} has non-numeric parts") from None
        if not all(math.isfinite(x) for x in values):
            raise ParameterError(f"{name} list {text!r} has non-finite parts")
        if len(values) > MAX_SPEC_VALUES:
            raise ParameterError(f"{name} list has more than {MAX_SPEC_VALUES} values")
    if cast is int:
        out = []
        for value in values:
            if value != int(value):
                raise ParameterError(f"{name} values must be integers, got {value}")
            out.append(int(value))
        return out
    return values


def _parse_inventories(text: str | None, n: int) -> np.ndarray:
    if text is None:
        return np.ones(n)
    values = _parse_values(text, float, "inventories")
    if len(values) != n:
        raise ParameterError(f"expected {n} inventories, got {len(values)}")
    return np.asarray(values, dtype=float)


def _kernel_from_args(args) -> ExponentialKernel | PowerLawKernel:
    if args.kernel == "exp":
        return ExponentialKernel(args.rho)
    return PowerLawKernel(args.p)


def _params_from_args(args) -> GameParams:
    _check_dense_steps(args.N)
    return GameParams(
        n=args.n,
        gamma=args.gamma,
        theta=args.theta,
        kernel=_kernel_from_args(args),
        variance=BachelierVariance(args.sigma),
        grid=TimeGrid.equidistant(args.N, args.horizon),
        s0=args.s0,
    )


def cmd_equilibrium(args) -> int:
    """Finite-horizon equilibrium: one CSV row per grid time."""
    params = _params_from_args(args)
    inventories = _parse_inventories(args.inventories, params.n)
    solution = nash_equilibrium(params, inventories)
    print(
        f"foc_residual {solution.foc_residual:.3e} solver {solution.solver} "
        f"condition_v {solution.condition_v:.3e} condition_w {solution.condition_w:.3e}",
        file=sys.stderr,
    )

    header = ["t", "v", "w"] + [f"xi_{i + 1}" for i in range(params.n)]
    rows = []
    for k, t in enumerate(params.grid.times):
        row = [_fmt(float(t)), _fmt(float(solution.v[k])), _fmt(float(solution.w[k]))]
        row += [_fmt(float(s.trades[k])) for s in solution.strategies]
        rows.append(row)
    _write_rows(args.out, header, rows)
    return 0


def cmd_thresholds(args) -> int:
    """Critical transaction-cost levels over a parameter grid, as CSV."""
    steps_values = _parse_values(args.N, int, "N")
    gamma_values = _parse_values(args.gamma, float, "gamma")
    if args.which == "v":
        n_values = _parse_values(args.n, int, "n")
        points = [
            {"n": n, "steps": steps, "gamma": gamma}
            for n, steps, gamma in itertools.product(n_values, steps_values, gamma_values)
        ]
    else:
        points = [
            {"steps": steps, "gamma": gamma}
            for steps, gamma in itertools.product(steps_values, gamma_values)
        ]
    kernel = _kernel_from_args(args)
    variance = BachelierVariance(args.sigma)
    results = sweep(points, args.which, kernel, variance, args.resolution)

    header = [
        "n", "N", "gamma", "which", "theta_star",
        "bracket_lo", "bracket_hi", "evaluations", "converged",
        "theta_star_coarse", "error",
    ]
    rows = []
    for r in results:
        if r.error is not None:
            print(
                f"point n={r.n} N={r.steps} gamma={r.gamma} failed: {r.error}",
                file=sys.stderr,
            )
        rows.append(
            [
                _fmt(r.n), _fmt(r.steps), _fmt(r.gamma), r.which, _fmt(r.theta_star),
                _fmt(r.bracket[0]), _fmt(r.bracket[1]), _fmt(r.evaluations),
                _fmt(r.converged), _fmt(r.theta_star_coarse), _fmt(r.error),
            ]
        )
    _write_rows(args.out, header, rows)
    return 0


def cmd_infinite(args) -> int:
    """Stationary solution: scalars as JSON on stdout, sequences as CSV.

    A positive risk aversion is required; theta defaults to the critical
    level (n - 1)/4 when omitted.
    """
    if args.gamma <= 0.0:
        raise ParameterError(
            "the stationary problem needs strictly positive risk aversion (gamma > 0)"
        )
    theta_auto = args.theta is None
    theta = critical_theta_infinite(args.n) if theta_auto else args.theta
    if args.kernel != "exp":
        raise ParameterError("the stationary problem is defined for the exponential kernel only")

    strategies = None
    if args.inventories is not None:
        inventories = _parse_inventories(args.inventories, args.n)
        solution, strategies = _infinite_nash(
            args.n, args.rho, args.gamma, args.sigma, theta, inventories, args.eps
        )
    else:
        solution = solve_stationary(args.n, args.rho, args.gamma, args.sigma, theta, eps=args.eps)

    report = {
        "n": args.n,
        "rho": args.rho,
        "gamma": args.gamma,
        "sigma": args.sigma,
        "theta": theta,
        "theta_auto": theta_auto,
        "eps": args.eps,
        "alpha": solution.alpha,
        "beta": solution.beta,
        "residual_alpha": solution.residual_alpha,
        "residual_beta": solution.residual_beta,
        "truncation_len": solution.truncation_len,
        "tail_mass": solution.tail_mass,
    }
    print(json.dumps(report, indent=2, sort_keys=True))

    if args.out is not None:
        header = ["i", "v", "w"]
        if strategies is not None:
            header += [f"xi_{i + 1}" for i in range(args.n)]
        rows = []
        for k in range(solution.truncation_len):
            row = [_fmt(k), _fmt(float(solution.v[k])), _fmt(float(solution.w[k]))]
            if strategies is not None:
                row += [_fmt(float(s[k])) for s in strategies]
            rows.append(row)
        _write_rows(args.out, header, rows)
    return 0


def cmd_montecarlo(args) -> int:
    """Monte Carlo validation of equilibrium cost statistics, as JSON."""
    params = _params_from_args(args)
    inventories = _parse_inventories(args.inventories, params.n)
    solution = nash_equilibrium(params, inventories)
    strategies = list(solution.strategies)
    # one sample feeds both checks; the CLI's variance is always Bachelier
    sample = _sample(params, strategies, args.count, args.seed)
    moments = _moment_reports(*sample)
    cara = _cara_reports(params.gamma, *sample)
    report = {
        "n": params.n,
        "N": params.grid.steps,
        "gamma": params.gamma,
        "theta": params.theta,
        "sigma": args.sigma,
        "s0": params.s0,
        "kernel": args.kernel,
        "count": args.count,
        "seed": args.seed,
        "inventories": [float(x) for x in inventories],
        "moments": [r.to_dict() for r in moments],
        "cara": [r.to_dict() for r in cara],
        "max_abs_z": max(
            [abs(r.z_mean) for r in moments]
            + [abs(r.z_variance) for r in moments]
            + [abs(r.z) for r in cara]
        ),
    }
    out = json.dumps(report, indent=2, sort_keys=True)
    if args.out is None:
        print(out)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(out + "\n")
    return 0


def _add_market_flags(parser, n_default=2, gamma_default=0.0, theta_default=0.0):
    parser.add_argument("--n", type=int, default=n_default, help="number of agents")
    parser.add_argument("--gamma", type=float, default=gamma_default, help="risk aversion")
    parser.add_argument("--theta", type=float, default=theta_default, help="transaction-cost level")
    parser.add_argument("--kernel", choices=("exp", "power"), default="exp", help="decay kernel")
    parser.add_argument("--rho", type=float, default=1.0, help="exponential kernel rate")
    parser.add_argument("--p", type=float, default=1.0, help="power-law kernel exponent")
    parser.add_argument("--sigma", type=float, default=1.0, help="Bachelier volatility")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impact-game",
        description="Nash equilibria of the transient-impact market game",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eq = sub.add_parser(
        "equilibrium", help="finite-horizon equilibrium as CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_market_flags(p_eq)
    p_eq.add_argument("--N", type=int, default=100, help="number of trading steps")
    p_eq.add_argument("--horizon", type=float, default=1.0, help="trading horizon")
    p_eq.add_argument("--s0", type=float, default=0.0, help="initial unaffected price")
    p_eq.add_argument("--inventories", default=None, help="comma list, default all ones")
    p_eq.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_eq.set_defaults(func=cmd_equilibrium)

    p_th = sub.add_parser(
        "thresholds", help="critical transaction-cost sweep as CSV",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_th.add_argument("--which", choices=("v", "w"), required=True, help="base vector to probe")
    p_th.add_argument("--n", default="2", help="agent counts: list or lo:hi[:step] (which=v)")
    p_th.add_argument("--N", default="100", help="step counts: list or lo:hi[:step]")
    p_th.add_argument("--gamma", default="0", help="risk aversions: list or lo:hi[:step]")
    p_th.add_argument("--kernel", choices=("exp", "power"), default="exp", help="decay kernel")
    p_th.add_argument("--rho", type=float, default=1.0, help="exponential kernel rate")
    p_th.add_argument("--p", type=float, default=1.0, help="power-law kernel exponent")
    p_th.add_argument("--sigma", type=float, default=1.0, help="Bachelier volatility")
    p_th.add_argument("--resolution", type=float, default=1e-4, help="bisection bracket width")
    p_th.add_argument("--out", default=None, help="CSV path (stdout when omitted)")
    p_th.set_defaults(func=cmd_thresholds)

    p_inf = sub.add_parser(
        "infinite", help="stationary decay rates and sequences",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    p_inf.add_argument("--n", type=int, default=1, help="number of agents")
    p_inf.add_argument("--gamma", type=float, required=True, help="risk aversion (> 0)")
    p_inf.add_argument("--sigma", type=float, default=1.0, help="Bachelier volatility")
    p_inf.add_argument("--rho", type=float, default=1.0, help="exponential kernel rate")
    p_inf.add_argument("--kernel", choices=("exp",), default="exp", help="decay kernel")
    p_inf.add_argument(
        "--theta", type=float, default=None,
        help="transaction-cost level, default (n - 1)/4",
    )
    p_inf.add_argument("--inventories", default=None, help="comma list (optional)")
    p_inf.add_argument("--eps", type=float, default=1e-12, help="truncation tail bound")
    p_inf.add_argument("--out", default=None, help="sequence CSV path (skipped when omitted)")
    p_inf.set_defaults(func=cmd_infinite)

    p_mc = sub.add_parser(
        "montecarlo", help="sampled cost statistics vs closed forms",
        formatter_class=argparse.ArgumentDefaultsHelpFormatter,
    )
    _add_market_flags(p_mc, gamma_default=0.5, theta_default=0.1)
    p_mc.add_argument("--N", type=int, default=10, help="number of trading steps")
    p_mc.add_argument("--horizon", type=float, default=1.0, help="trading horizon")
    p_mc.add_argument("--s0", type=float, default=0.0, help="initial unaffected price")
    p_mc.add_argument("--inventories", default=None, help="comma list, default all ones")
    p_mc.add_argument("--count", type=int, default=100000, help="number of simulated paths")
    p_mc.add_argument("--seed", type=int, default=1, help="random seed")
    p_mc.add_argument("--out", default=None, help="JSON path (stdout when omitted)")
    p_mc.set_defaults(func=cmd_montecarlo)

    return parser


# parsing leaves the parser unchanged, so one instance serves every main() call
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
