"""Host-environment controls and the environment block of a result file."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
#: glibc reads this at process start, so ``run.py`` sets it for each child.
#: With one malloc arena per thread, the peak RSS of one identical fleet call
#: ranged 62.0-67.4 MB depending on which rank thread allocated where; with
#: a single arena, 58.5-58.8 MB.
CHILD_ENV = {"MALLOC_ARENA_MAX": "1"}


def pin() -> None:
    """Pin BLAS to one thread and this process to one CPU.

    Call before NumPy is imported. Both pins remove host-time noise that is
    not the program's: unpinned BLAS made the world-8 step median wander
    490-745 ms between identical runs, and rank threads spread over two
    cores hand the GIL across cores, which made one identical fleet call
    take 4.0-7.0 s (2.8-3.5 s on one core).
    """
    for var in BLAS_PINS:
        os.environ[var] = "1"
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _git_sha() -> str | None:
    # Only ask git when this checkout is itself a repository; otherwise git
    # would walk up and report some enclosing repository's commit.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def describe(seed: int, quick: bool) -> dict:
    """The environment block written into every result file."""
    import numpy

    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_thread_pins": {var: "1" for var in BLAS_PINS},
        "child_env": CHILD_ENV,
        "cpu_affinity": "one CPU per workload process",
        "load_average_1min": os.getloadavg()[0],
        "seed": seed,
        "quick": quick,
        "argv": sys.argv[1:],
    }
