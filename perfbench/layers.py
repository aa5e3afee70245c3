"""Per-layer metrics of a traced run, named after impact_game's modules.

Everything is derived from the spans and counts of `spans.Tracer` plus the
benchmark's own per-operation check records.  Timings labelled "per op"
are summed over one operation; "per call" values are means over calls.  A
layer the workload does not reach reports 0.  FLOP and byte figures are
computed from matrix sizes, not measured.
"""

from __future__ import annotations

from collections import defaultdict

from spans import max_concurrency, self_times

#: name, unit, better, meaning
PER_LAYER = [
    ("market_model.game_params_us", "us", "lower", "GameParams + TimeGrid construction, per op"),
    ("market_model.kernel_eval_ms", "ms", "lower", "lag-matrix kernel evaluation (impacted_path), per op"),
    ("finite_game.build_matrices_ms", "ms", "lower", "build_matrices, per call"),
    ("finite_game.build_matrices_calls_per_op", "count", "lower", "build_matrices calls per op"),
    ("finite_game.nash_equilibrium_self_ms", "ms", "lower", "nash_equilibrium self time, per call"),
    ("finite_game.best_response_self_ms", "ms", "lower", "best_response self time, per call"),
    ("finite_game.lu_gflops", "GFLOP/s", "higher", "computed 2/3 (N+1)^3 per LU over equilibrium + best-response self time"),
    ("finite_game.foc_residual_max", "1", "lower", "largest FOC residual the package reports"),
    ("finite_game.br_gap_max", "1", "lower", "largest best-response gap (benchmark check)"),
    ("finite_game.condition_max", "1", "lower", "largest condition estimate the package reports"),
    ("finite_game.ill_conditioned_warnings", "count", "lower", "IllConditionedWarning count"),
    ("thresholds.evaluations_per_search", "count", "lower", "probe solves per critical-theta search"),
    ("thresholds.coarse_probe_share", "ratio", "lower", "share of probes on the N/2 convergence grid"),
    ("thresholds.probe_ms", "ms", "lower", "critical_theta self time per probe"),
    ("thresholds.sweep_efficiency", "ratio", "higher", "search time / (sweep time x concurrent searches)"),
    ("thresholds.converged_share", "ratio", "higher", "share of searches flagged converged"),
    ("simulation.draws_per_op", "count", "lower", "realized_costs calls (one per sample draw) per op"),
    ("simulation.paths_per_s", "1/s", "higher", "requested paths per second of validate_* time"),
    ("simulation.validate_moments_self_ms", "ms", "lower", "validate_moments self time, per call"),
    ("simulation.validate_cara_self_ms", "ms", "lower", "validate_cara self time, per call"),
    ("simulation.path_matrix_mb", "MB", "lower", "computed 2 x count x (N+1) x 8 B, largest op"),
    ("simulation.max_abs_z", "1", "lower", "largest Monte Carlo |z| (benchmark check)"),
    ("infinite_game.solve_alpha_ms", "ms", "lower", "solve_alpha, per call"),
    ("infinite_game.solve_beta_ms", "ms", "lower", "solve_beta, per call"),
    ("infinite_game.alpha_residual_calls", "count", "lower", "alpha_residual calls per op"),
    ("infinite_game.beta_residual_calls", "count", "lower", "beta_residual calls per op"),
    ("infinite_game.identity_self_ms", "ms", "lower", "v/w identity-deviation self time, per op"),
    ("infinite_game.identity_matrix_mb_max", "MB", "lower", "computed 2 x M^2 x 8 B of the identity matrices, largest"),
    ("infinite_game.identity_rows_used_share", "ratio", "higher", "asserted rows / built rows of the identity matrices"),
    ("infinite_game.alpha_residual_max", "1", "lower", "largest |alpha residual| the package reports"),
    ("infinite_game.identity_deviation_max", "1", "lower", "largest identity deviation the package reports"),
    ("infinite_game.truncation_len_max", "count", "lower", "longest stationary truncation"),
    ("cli.main_self_ms", "ms", "lower", "cli.main self time (parse, format, write), per call"),
    ("cli.equilibrium.cold_s", "s", "lower", "README equilibrium example as a cold subprocess"),
    ("cli.thresholds.cold_s", "s", "lower", "README thresholds example as a cold subprocess"),
    ("cli.infinite.cold_s", "s", "lower", "README infinite example as a cold subprocess"),
    ("cli.montecarlo.cold_s", "s", "lower", "README montecarlo example as a cold subprocess"),
    ("import.impact_game_ms", "ms", "lower", "cumulative import time, python -X importtime"),
    ("import.numpy_ms", "ms", "lower", "cumulative import time"),
    ("import.scipy.linalg_ms", "ms", "lower", "cumulative import time"),
    ("import.scipy.sparse.linalg_ms", "ms", "lower", "cumulative import time"),
    ("import.impact_game.errors_ms", "ms", "lower", "cumulative import time"),
    ("import.impact_game.market_model_ms", "ms", "lower", "cumulative import time"),
    ("import.impact_game.finite_game_ms", "ms", "lower", "cumulative import time"),
    ("import.impact_game.infinite_game_ms", "ms", "lower", "cumulative import time"),
    ("import.impact_game.thresholds_ms", "ms", "lower", "cumulative import time"),
    ("import.impact_game.simulation_ms", "ms", "lower", "cumulative import time"),
    ("trace.overhead_pct", "%", "lower", "traced / untraced op time of the same ops, minus 1"),
]

SEARCHES = ("thresholds.critical_theta_v", "thresholds.critical_theta_w")
IDENTITIES = ("infinite_game.v_identity_deviation", "infinite_game.w_identity_deviation")


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _max(values) -> float:
    return max(values, default=0.0)


def derive(spans: list[dict], counts: list[dict], records: list[dict], ops: list[dict]) -> dict:
    """Per-layer metrics (without the cold-start and import ones) of one traced phase."""
    n_ops = max(len(records), 1)
    own = self_times(spans)
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
        children[s["parent"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def total(*names):
        return sum(dur(s) for name in names for s in by_name[name])

    def mean_dur(name):
        return _mean(dur(s) for s in by_name[name])

    def mean_self(name):
        return _mean(own[s["id"]] for s in by_name[name])

    info = [r["info"] for r in records if r.get("info")]
    m = {}
    m["market_model.game_params_us"] = total("market_model.GameParams", "market_model.TimeGrid") / n_ops * 1e6
    m["market_model.kernel_eval_ms"] = total("market_model.kernel_eval") / n_ops * 1e3

    builds = by_name["finite_game.build_matrices"]
    m["finite_game.build_matrices_ms"] = mean_dur("finite_game.build_matrices") * 1e3
    m["finite_game.build_matrices_calls_per_op"] = len(builds) / n_ops
    m["finite_game.nash_equilibrium_self_ms"] = mean_self("finite_game.nash_equilibrium") * 1e3
    m["finite_game.best_response_self_ms"] = mean_self("finite_game.best_response") * 1e3
    flops = seconds = 0.0
    for name, factorisations in (("finite_game.nash_equilibrium", 2), ("finite_game.best_response", 1)):
        for s in by_name[name]:
            if "size" in s:
                flops += factorisations * (2.0 / 3.0) * s["size"] ** 3
                seconds += own[s["id"]]
    m["finite_game.lu_gflops"] = flops / seconds / 1e9 if seconds > 0 else 0.0
    m["finite_game.foc_residual_max"] = _max(s.get("foc_residual", 0.0) for s in by_name["finite_game.nash_equilibrium"])
    m["finite_game.br_gap_max"] = _max(i.get("br_gap", 0.0) for i in info)
    m["finite_game.condition_max"] = _max(s.get("condition", 0.0) for s in by_name["finite_game.nash_equilibrium"])
    m["finite_game.ill_conditioned_warnings"] = sum(r["warnings"] for r in records)

    searches = [s for name in SEARCHES for s in by_name[name]]
    evaluations = sum(s.get("evaluations", 0) for s in searches)
    m["thresholds.evaluations_per_search"] = _mean(s.get("evaluations", 0) for s in searches)
    steps_of = {s["id"]: s.get("steps") for s in searches}
    probes = [c for c in counts if c["name"] == "thresholds.oscillation_report" and c["parent"] in steps_of]
    coarse = [
        c for c in probes
        if steps_of[c["parent"]] and c["size"] == steps_of[c["parent"]] // 2 + 1 != steps_of[c["parent"]] + 1
    ]
    m["thresholds.coarse_probe_share"] = len(coarse) / len(probes) if probes else 0.0
    search_self = sum(own[s["id"]] for s in searches)
    m["thresholds.probe_ms"] = search_self / evaluations * 1e3 if evaluations else 0.0
    busy = capacity = 0.0
    for sweep in by_name["thresholds.sweep"]:
        inner = [(c["start"], c["end"]) for c in children[sweep["id"]] if c["name"] in SEARCHES]
        busy += sum(b - a for a, b in inner)
        capacity += dur(sweep) * max(max_concurrency(inner), 1)
    m["thresholds.sweep_efficiency"] = busy / capacity if capacity > 0 else 0.0
    m["thresholds.converged_share"] = _mean(1.0 if s.get("converged") else 0.0 for s in searches)

    m["simulation.draws_per_op"] = len(by_name["simulation.realized_costs"]) / n_ops
    validate_time = total("simulation.validate_moments", "simulation.validate_cara")
    paths = sum(op.get("count", 0) for op in ops)
    m["simulation.paths_per_s"] = paths / validate_time if validate_time > 0 else 0.0
    m["simulation.validate_moments_self_ms"] = mean_self("simulation.validate_moments") * 1e3
    m["simulation.validate_cara_self_ms"] = mean_self("simulation.validate_cara") * 1e3
    m["simulation.path_matrix_mb"] = _max(
        2 * op["count"] * (op["N"] + 1) * 8 / 1e6 for op in ops if "count" in op
    )
    m["simulation.max_abs_z"] = _max(i.get("max_abs_z", 0.0) for i in info)

    m["infinite_game.solve_alpha_ms"] = mean_dur("infinite_game.solve_alpha") * 1e3
    m["infinite_game.solve_beta_ms"] = mean_dur("infinite_game.solve_beta") * 1e3
    for name in ("alpha_residual", "beta_residual"):
        calls = sum(1 for c in counts if c["name"] == f"infinite_game.{name}")
        m[f"infinite_game.{name}_calls"] = calls / n_ops
    identities = [s for name in IDENTITIES for s in by_name[name]]
    m["infinite_game.identity_self_ms"] = sum(own[s["id"]] for s in identities) / n_ops * 1e3
    identity_ids = {s["id"] for s in identities}
    identity_sizes = [s["size"] for s in builds if s["parent"] in identity_ids and "size" in s]
    m["infinite_game.identity_matrix_mb_max"] = _max(2 * size * size * 8 / 1e6 for size in identity_sizes)
    built_rows = sum(identity_sizes)
    asserted = sum(i.get("asserted_rows", 0) for i in info)
    m["infinite_game.identity_rows_used_share"] = asserted / built_rows if built_rows else 0.0
    m["infinite_game.alpha_residual_max"] = _max(i.get("residual_alpha", 0.0) for i in info)
    m["infinite_game.identity_deviation_max"] = _max(i.get("identity_deviation", 0.0) for i in info)
    m["infinite_game.truncation_len_max"] = _max(i.get("truncation_len", 0) for i in info)

    m["cli.main_self_ms"] = mean_self("cli.main") * 1e3
    return m
