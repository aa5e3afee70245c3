"""impact_game benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload equilibrium --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
./src, never from an installed copy.  Workloads: equilibrium, thresholds,
montecarlo, stationary (see perfbench/README.md).

--trace 0  measures the end-to-end metrics from one fresh worker process:
           ops_per_s, op_p50_s, op_tail_s, peak_rss_mb and setup_s (median
           of the cold `import impact_game` starts spread over the run).
           Times are scaled for the machine's speed during the run, as
           measured by a reference probe between operations (speed_factor).
--trace 1  measures the per-layer metrics instead: a traced worker run,
           the README CLI examples as cold subprocesses, and
           `python -X importtime` for the import layers.

Every output is checked by the benchmark's own code (perfbench/checks.py).
The last stdout line is {"correct", "attempted", "failed", "metrics"}; the
full record, with the machine and provenance block, the tail percentile and
any failing inputs, goes to .bench_out/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

#: BLAS threads per process, for the workers, the cold starts and the dgemm
#: reference alike.  On a 2-vCPU shared VM, two-thread OpenBLAS made one
#: operation's latency differ by up to 9x between identical runs (a thread
#: waiting on a descheduled sibling); one thread per process keeps runs
#: comparable, and thresholds' two sweep workers still fill two cores.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

sys.path.insert(0, HERE)
from layers import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: README examples, run as cold subprocesses in traced runs
README_EXAMPLES = {
    "equilibrium": ["equilibrium", "--n", "2", "--N", "100", "--gamma", "1", "--theta", "0"],
    "thresholds": ["thresholds", "--which", "v", "--n", "2:5", "--N", "500", "--gamma", "0"],
    "infinite": ["infinite", "--n", "2", "--gamma", "1", "--out", "{tmp}/sequences.csv"],
    "montecarlo": [
        "montecarlo", "--n", "2", "--N", "10", "--gamma", "0.5", "--theta", "0.1", "--count", "100000",
    ],
}
CLI_ENTRY = "import sys; from impact_game.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_LAYERS = [
    "impact_game", "numpy", "scipy.linalg", "scipy.sparse.linalg",
    "impact_game.errors", "impact_game.market_model", "impact_game.finite_game",
    "impact_game.infinite_game", "impact_game.thresholds", "impact_game.simulation",
]
#: sweep() runs this many points per thresholds call
SWEEP_POINTS = 2
#: subprocess time limit; a worker run also stops starting operations at --seconds
WORKER_TIMEOUT_S = 150
#: about the reference probe's mean time on the machine the baseline was measured on.
#: Every time metric of a run is scaled by this over the mean time of the
#: probes taken between that run's operations (worker.reference_probe), so
#: that it reads as seconds at that machine's typical speed, however fast the
#: shared machine happens to run during the run.
REFERENCE_PROBE_S = 2.0e-3
#: end-to-end metric -> unit, in BENCHMARK.json order
END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _timed(argv: list[str], timeout: float, **kwargs) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), timeout=timeout, **kwargs)
    return time.perf_counter() - start, proc


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    path = os.path.join(OUT, f"worker-{os.getpid()}.json")
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace), "--result", path,
    ]
    try:
        _, proc = _timed(argv, WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(path, encoding="utf-8") as handle:
        result = json.load(handle)
    os.remove(path)
    return result


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile q: a Beta-weighted mean of all order statistics.

    Unlike a single interpolated order statistic it does not jump when one
    operation near the quantile happens to be slow, which keeps runs with a
    wide spread of operation sizes comparable.
    """
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    cdf = betainc((n + 1) * q, (n + 1) * (1.0 - q), [i / n for i in range(n + 1)])
    return float(sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered)))


def cold_cli_layers() -> tuple[dict, list[str]]:
    """cli.<cmd>.cold_s for the README examples, plus import.<module>_ms."""
    metrics, failures = {}, []
    tmp = os.path.join(OUT, f"cold-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        for cmd, example in README_EXAMPLES.items():
            argv = [a.replace("{tmp}", tmp) for a in example]
            seconds, proc = _timed(
                [sys.executable, "-c", CLI_ENTRY, *argv], 120,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            )
            metrics[f"cli.{cmd}.cold_s"] = seconds
            if proc.returncode != 0:
                failures.append(f"cold CLI {cmd}: exit {proc.returncode}")
    finally:
        shutil.rmtree(tmp)

    _, proc = _timed([sys.executable, "-X", "importtime", "-c", "import impact_game"], 60, capture_output=True)
    cumulative = {}
    for line in proc.stderr.decode(errors="replace").splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            cumulative[parts[2].strip()] = int(parts[1]) / 1e3
    for module in IMPORT_LAYERS:
        metrics[f"import.{module}_ms"] = cumulative.get(module, 0.0)
    if proc.returncode != 0:
        failures.append("python -X importtime -c 'import impact_game' failed")
    return metrics, failures


def _blas_threads() -> dict:
    """Thread count of each bundled OpenBLAS, queried through its C API."""
    import numpy
    import scipy

    out = {}
    for package in (numpy, scipy):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), f"{package.__name__}.libs")
        for lib_path in glob.glob(os.path.join(libs, "*openblas*.so*")):
            lib = ctypes.CDLL(lib_path)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(lib, symbol):
                    getter = getattr(lib, symbol)
                    getter.restype = ctypes.c_int
                    out[package.__name__] = {"library": os.path.basename(lib_path), "threads": getter()}
                    break
    return out


def machine_block() -> dict:
    """Machine and provenance block: CPU, cores, BLAS, versions, source digest, dgemm rate.

    Everything is read afresh by every run except the dgemm reference rate,
    which takes over a second to measure: it is kept in .bench_out/dgemm.json
    under the host name and the CPU, core, BLAS and version fields, and
    measured again whenever any of them differs.
    """
    import numpy
    import scipy

    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env_threads = os.environ.get("IMPACT_GAME_THREADS", "").strip()
    sweep_workers = min(int(env_threads) if env_threads else (os.cpu_count() or 1), SWEEP_POINTS)

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "impact_game", "*.py"))):
        with open(path, "rb") as handle:
            digest.update(os.path.basename(path).encode() + handle.read())
    block = {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                         if k in os.environ}},
        "sweep_workers": sweep_workers,
        "oversubscription_note": (
            f"thresholds runs {sweep_workers} sweep worker threads, each calling LAPACK with the "
            f"BLAS thread pool above, on {os.cpu_count()} cores"
        ),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "dgemm_note": "measured: best of 3 numpy matmuls of two 2000 x 2000 float64 matrices, once "
                      "per host and the fields above; the reference rate for finite_game.lu_gflops, "
                      "which is computed",
    }
    block["dgemm_gflops_n2000"] = _dgemm_gflops(json.dumps([platform.node(), block], sort_keys=True))
    block["source_sha256"] = digest.hexdigest()
    return block


def _dgemm_gflops(machine_key: str) -> float:
    """Best of 3 numpy matmuls of two 2000 x 2000 float64 matrices, cached per machine_key."""
    import numpy

    path = os.path.join(OUT, "dgemm.json")
    cache = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            cache = json.load(handle)
    if machine_key not in cache:
        n = 2000
        rng = numpy.random.default_rng(0)
        a, b = rng.standard_normal((n, n)), rng.standard_normal((n, n))
        a @ b
        best = min(_wall_time(lambda: a @ b) for _ in range(3))
        cache[machine_key] = 2.0 * n**3 / best / 1e9
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(cache, handle, indent=1)
    return cache[machine_key]


def _wall_time(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def speed_factor(result: dict) -> float:
    """REFERENCE_PROBE_S over the mean of every reference probe the run took."""
    probes = [r["probe"] for r in result["records"]] + [s["probe"] for s in result["setup_samples"]]
    return REFERENCE_PROBE_S / statistics.fmean(probes)


def end_to_end(result: dict, tail_pct: float, factor: float) -> dict:
    """The end-to-end metrics, each measured time scaled by factor."""
    latencies = [r["latency"] * factor for r in result["records"]]
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_s": hd_quantile(latencies, 0.5),
        "op_tail_s": hd_quantile(latencies, tail_pct / 100.0),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(s["seconds"] * factor for s in result["setup_samples"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="impact_game benchmark (one workload, one seed)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "impact_game", "__init__.py")):
        print(f"error: no package source at {SRC}/impact_game; run from a source checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]
    units = {name: unit for name, unit, _, _ in PER_LAYER}
    try:
        result = run_worker(args.workload, args.seed, args.seconds, args.trace)
        failures = [
            {"op": op, "error": r["error"]}
            for records in (result["records"], result.get("traced_records", []))
            for op, r in zip(result["ops"], records) if r["error"] is not None
        ]
        if result["warmup_error"] is not None:
            failures.append({"op": "warm-up", "error": result["warmup_error"]})
        attempted = len(result["records"]) + len(result.get("traced_records", [])) + 1
        if args.trace:
            cold, cold_failures = cold_cli_layers()
            failures += [{"op": "cold CLI", "error": e} for e in cold_failures]
            attempted += len(README_EXAMPLES) + 1
            metrics = {**result["layers"], **cold}
            printed = {name: {"value": metrics[name], "unit": units[name]} for name, _, _, _ in PER_LAYER}
        else:
            factor = speed_factor(result)
            metrics = end_to_end(result, workload.tail_pct, factor)
            printed = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
        machine = machine_block()
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    samples = len(result["records"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "metrics": printed,
        "samples": samples,
        "tail_percentile": workload.tail_pct,
        "samples_beyond_tail": sum(1 for r in result["records"]
                                   if r["latency"] * factor > metrics["op_tail_s"]) if not args.trace else None,
        "speed_factor": factor if not args.trace else None,
        "unadjusted_metrics": end_to_end(result, workload.tail_pct, 1.0) if not args.trace else None,
        "latencies_s": [r["latency"] for r in result["records"]],
        "probes_s": [r.get("probe") for r in result["records"]],
        "setup_samples": result["setup_samples"],
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "machine": machine,
    }
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    for name, entry in printed.items():
        print(f"{name:45s} {entry['value']:.6g} {entry['unit']}")
    print(f"{'fail_ratio':45s} {record['fail_ratio']:.6g} ({len(failures)}/{attempted})")
    if not args.trace:
        print(f"op_tail_s is p{workload.tail_pct:g} of {samples} operations")
        unadjusted = ", ".join(f"{k} {v:.6g}" for k, v in record["unadjusted_metrics"].items())
        print(f"times scaled by {factor:.4f} for machine speed; unscaled: {unadjusted}")
    for failure in failures[:5]:
        print(f"FAILED {failure['error']} :: {json.dumps(failure['op'])}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": printed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
