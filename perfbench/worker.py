"""One workload in one fresh process; writes its raw measurements as JSON.

    python3 perfbench/worker.py --workload equilibrium --seed 1 \
        --seconds 20 --trace 0 --result out.json

The package is imported from src/ of the checkout that holds this file and
nowhere else.  After one untimed warm-up operation the worker runs the
workload's seeded operation sequence until the summed operation time
reaches --seconds, checking each output outside the timed region.

With --trace 0 it also times SETUP_SAMPLES cold `import impact_game` starts,
one each time another 1/SETUP_SAMPLES of the run has passed, so that they
see the machine over the whole run rather than in one burst; the worker
waits on each, so nothing runs beside them.  Every timed operation and cold
start is preceded by the reference probe (`reference_probe`); run.py scales
the run's times by the probes' mean, to correct for the machine's speed
during the run.

With --trace 1 every operation runs twice, once untraced and once with the
tracer installed: the traced runs give the per-layer metrics, and the ratio
of the two sides' summed operation time gives the tracing overhead.  The traced run's spans and
counts are written to <result dir>/<workload>-seed<seed>-spans.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

from checks import CheckFailed
from layers import derive
from spans import Tracer
from workloads import WORKLOADS, run_op

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: cold `import impact_game` starts per timing run; setup_s is their median
SETUP_SAMPLES = 9
#: fixed inputs of the reference probe
_PROBE_RNG = np.random.default_rng(0)
PROBE_MATRIX = _PROBE_RNG.standard_normal((150, 150)) + 150.0 * np.eye(150)
PROBE_RHS = np.ones(150)
PROBE_VALUES = _PROBE_RNG.random(20_000)


def reference_probe() -> float:
    """Seconds taken by a fixed computation (about 2 ms) that calls no impact_game code.

    The shared machine the benchmark was built on changes speed by up to
    1.5x in phases of seconds to minutes.  Timed back to back for ten
    minutes, a fixed operation of each workload had 20 s window medians that
    spread by 0.15-0.17 (quartile distance over median); divided by this
    probe's mean time over the same windows they spread by 0.05-0.06.  The
    probe mixes interpreter work, small LAPACK solves and a sort, the kinds
    of work the workloads do.  run.py scales a run's times by the mean of
    its probes.
    """
    start = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(4):
        np.linalg.solve(PROBE_MATRIX, PROBE_RHS)
    np.sort(PROBE_VALUES)
    return time.perf_counter() - start


def cold_import() -> float:
    """Wall time from a fresh interpreter to `import impact_game` done (PYTHONPATH from run.py)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import impact_game"], cwd=ROOT, capture_output=True, timeout=60)
    seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"cold import failed: {proc.stderr.decode(errors='replace').strip()}")
    return seconds



def run_one(workload, op, ig) -> dict:
    """Time one operation, then check its output outside the timed region."""
    latency, out, error, warned = run_op(workload, op, ig.IllConditionedWarning)
    record = {"latency": latency, "warnings": warned, "error": error, "info": None}
    if error is None:
        try:
            record["info"] = workload.check(op, out)
        except CheckFailed as exc:
            record["error"] = f"check failed: {exc}"
    return record


def run_traced(tracer, workload, op, ig) -> dict:
    tracer.install()
    try:
        return run_one(workload, op, ig)
    finally:
        tracer.uninstall()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import impact_game as ig
    import impact_game.cli  # noqa: F401  (the CLI workloads call ig.cli.main)

    if os.path.dirname(os.path.dirname(os.path.abspath(ig.__file__))) != SRC:
        print(f"impact_game imported from {ig.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    out_dir = os.path.dirname(os.path.abspath(args.result))
    tmpdir = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(tmpdir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](ig, tmpdir)
        result = {"warmup_error": run_one(workload, workload.warmup_op(args.seed), ig)["error"]}
        reference_probe()
        tracer = Tracer()
        plain, traced, ops, setup = [], [], [], []
        elapsed = 0.0
        for k, op in enumerate(workload.ops(args.seed)):
            while not args.trace and len(setup) < SETUP_SAMPLES and elapsed >= len(setup) * args.seconds / SETUP_SAMPLES:
                probe = reference_probe()
                setup.append({"seconds": cold_import(), "probe": probe})
            if elapsed >= args.seconds:
                break
            ops.append(op)
            if not args.trace:
                probe = reference_probe()
                plain.append({**run_one(workload, op, ig), "probe": probe})
                elapsed += plain[-1]["latency"]
                continue
            # each operation runs untraced and traced, alternating which goes
            # first, so warm caches favour neither side of the overhead ratio
            tracer.op = k
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if with_trace:
                    traced.append(run_traced(tracer, workload, op, ig))
                    elapsed += traced[-1]["latency"]
                else:
                    plain.append(run_one(workload, op, ig))
                    elapsed += plain[-1]["latency"]
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result.update(records=plain, ops=ops, peak_rss_mb=peak_mb, setup_samples=setup)
        if args.trace:
            metrics = derive(tracer.spans, tracer.counts, traced, ops)
            plain_s = sum(r["latency"] for r in plain)
            traced_s = sum(r["latency"] for r in traced)
            metrics["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0 if plain_s > 0 else 0.0
            result.update(traced_records=traced, layers=metrics)
            spans_path = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-spans.json")
            with open(spans_path, "w", encoding="utf-8") as handle:
                json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    finally:
        shutil.rmtree(tmpdir)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
