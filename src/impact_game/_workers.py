"""Worker threads shared by the threshold sweep and the Monte Carlo draw.

The thread count is the caller's request, else IMPACT_GAME_THREADS, else
the CPU count, and never more than there are jobs.  Jobs run in numpy and
LAPACK code that releases the interpreter lock, so threads overlap them.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ParameterError


def worker_count(requested: int | None, jobs: int) -> int:
    if requested is None:
        env = os.environ.get("IMPACT_GAME_THREADS", "").strip()
        if env:
            try:
                requested = int(env)
            except ValueError:
                raise ParameterError(
                    f"IMPACT_GAME_THREADS must be an integer, got {env!r}"
                ) from None
        else:
            requested = os.cpu_count() or 1
    if requested < 1:
        raise ParameterError(f"worker count must be >= 1, got {requested}")
    return min(requested, max(jobs, 1))


def ordered_map(fn, jobs, workers: int) -> list:
    """[fn(job) for job in jobs] on `workers` threads; the first exception propagates."""
    if workers == 1:
        return [fn(job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs))
