"""Shared plumbing: locating the checkout's sources, model lists, statistics.

Every benchmark module imports this first.  It puts the checkout's ``src``
directory on ``sys.path`` so the benchmark always measures the code next to
it, never an installed copy, and it refuses to run when that directory is
missing.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFS = BENCH_DIR / "refs"

#: Exit code when the checkout holds no program to measure.
EXIT_NO_PROGRAM = 3
#: Exit code when a verdict disagrees with its reference.
EXIT_MISMATCH = 4
#: Exit code when traced span times do not add up to the traced wall.
EXIT_UNRECONCILED = 5


class MissingProgram(RuntimeError):
    """The checkout has no ``src/repro`` package to benchmark."""


def bootstrap() -> None:
    """Make ``import repro`` resolve to ``<checkout>/src/repro`` or raise."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise MissingProgram(f"no repro package under {SRC}")
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)


def stop_resource_tracker() -> None:
    """Stop this process's multiprocessing resource tracker and wait for it.

    The engine's shared-memory arena starts the tracker as a child process
    that only exits after its parent has, so nothing would reap it.  Call
    this once every worker pool is closed: the tracker then sees end of file
    at once, and the process leaves no helper behind.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def scratch_dir(tag: str) -> Path:
    """A fresh per-process directory under ``<checkout>/.perfbench``."""
    import os

    path = ROOT / ".perfbench" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def spec_models() -> tuple[str, ...]:
    """The spec-backed models, in registry order (the kernel's models)."""
    from repro.checking.models import MODELS, model_names

    return tuple(n for n in model_names() if MODELS[n].spec is not None)


def all_models() -> tuple[str, ...]:
    """Every registered model, in registry order."""
    from repro.checking.models import model_names

    return tuple(model_names())


def digest(text: str) -> str:
    """Short content digest of a history's one-line text."""
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def bits(verdicts: dict[str, bool], models: tuple[str, ...]) -> str:
    """Verdicts as a ``0``/``1`` string in ``models`` order."""
    return "".join("1" if verdicts[m] else "0" for m in models)


# -- statistics ----------------------------------------------------------------


def tail_level(n: int, beyond: int = 10) -> float | None:
    """The highest whole percentile with at least ``beyond`` samples above it.

    With ``n`` samples, percentile ``p`` leaves ``n * (100 - p) / 100``
    samples beyond it; the answer is the largest whole ``p`` below 100 for
    which that count is at least ``beyond``.  ``None`` when even the
    median leaves fewer (fewer than ``2 * beyond`` samples): there is then
    no tail worth naming.
    """
    if n < 2 * beyond:
        return None
    return float(min(99, math.floor(100 - 100 * beyond / n)))


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0-100] of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def latency_summary(values: list[float]) -> dict:
    """Median, tail percentile and sample count of a latency sample.

    The tail is the highest whole percentile with at least ten samples
    beyond it; with fewer than twenty samples it falls back to the
    maximum and says so with ``tail_level = 100``.
    """
    if not values:
        raise ValueError("no samples")
    level = tail_level(len(values))
    return {
        "p50": statistics.median(values),
        "tail": percentile(values, level) if level is not None else max(values),
        "tail_level": level if level is not None else 100.0,
        "n": len(values),
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest waited child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# -- host speed ------------------------------------------------------------------

#: Seconds :func:`calibration_work` takes at the reference host speed.  A
#: fixed scale, near its median on the 2-CPU host the bounds were set on:
#: figures at the reference speed read as that host would measure them.
CALIBRATION_REFERENCE_S = 0.006


def calibration_work() -> int:
    """Fixed interpreter work that touches no ``repro`` code: the dict, set,
    tuple and sort operations the checker spends its time on."""
    counts: dict[int, int] = {}
    for i in range(20000):
        k = (i * 2654435761) & 1023
        counts[k] = counts.get(k, 0) + (i ^ 7)
    return len(sorted({(v & 255, v >> 8) for v in counts.values()}))


def calibrate(samples: list[float], runs: int = 1) -> None:
    """Append the seconds of ``runs`` runs of :func:`calibration_work`."""
    for _ in range(runs):
        t0 = time.perf_counter()
        calibration_work()
        samples.append(time.perf_counter() - t0)


def host_slowdown(samples: list[float]) -> float:
    """How much slower than the reference the host ran (above 1: slower)."""
    return statistics.median(samples) / CALIBRATION_REFERENCE_S


#: Calibration runs on each side of a unit that :func:`local_slowdown` uses.
LOCAL_CALIBRATIONS = 4


def local_slowdown(samples: list[float], at: int) -> float:
    """The host slowdown around a unit timed after ``at`` calibration runs:
    the median of the :data:`LOCAL_CALIBRATIONS` runs before it and as many
    after it."""
    k = LOCAL_CALIBRATIONS
    return host_slowdown(samples[max(0, at - k): at + k])
