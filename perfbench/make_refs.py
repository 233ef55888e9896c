"""Regenerate the stored reference verdicts under ``refs/``.

Usage (from the repository root)::

    python3 perfbench/make_refs.py sweep     # catalog, 82 batches, sessions (~2 min)
    python3 perfbench/make_refs.py serve     # 3x3 checks, 3x6 sessions (~3 min)
    python3 perfbench/make_refs.py heavy     # 4x5 and 3x8 corpora (~20 min)

Every verdict comes from ``reference.py``: catalog expectations, the frozen
legacy solver, and the store-buffer search.  The heavy corpus keeps a drawn
history only when the kernel decides it within its default budget (the
benchmark's workloads must not fail) and within ``KERNEL_CAP_S``, and the
legacy solver finishes within ``LEGACY_CAP_S`` (its verdicts must be
known).  Left-out draws are listed in the file with the reason.
"""

from __future__ import annotations

import argparse
import signal
import sys
import time

import common

common.bootstrap()

import inputs  # noqa: E402
from reference import catalog_verdicts, compute_verdicts, write_json  # noqa: E402


#: A draw whose legacy reference takes longer than this is left out.
LEGACY_CAP_S = 45.0
#: A heavy draw the kernel needs longer than this for, over all nineteen
#: models, is left out: a run checks the corpus three times.
KERNEL_CAP_S = 5.0
#: Heavy histories kept per stratum, out of at most this many draws.
HEAVY_PER_STRATUM = 40
HEAVY_DRAWS = 200


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def _capped(seconds: float, fn, *args):
    """``fn(*args)``, or ``None`` when it runs longer than ``seconds``."""
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    except _Timeout:
        return None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def build_sweep() -> dict:
    from repro.engine import SweepSpec
    from repro.litmus import format_history

    models = common.all_models()
    catalog = catalog_verdicts(models)
    batches = []
    total = inputs.SWEEP_BATCHES + inputs.SWEEP_WARMUP_BATCHES
    for j in range(total):
        seed = inputs.SWEEP_SEED_BASE + j
        spec = SweepSpec(
            source="random",
            count=inputs.SWEEP_BATCH,
            seed=seed,
            **inputs.SWEEP_SHAPE,
        )
        texts, rows = [], []
        for job in spec.jobs():
            texts.append(format_history(job.history, oneline=True))
            rows.append(common.bits(compute_verdicts(job.history, models), models))
        batches.append(
            {"seed": seed, "digest": common.digest("\n".join(texts)), "bits": rows}
        )
        print(f"sweep batch {j + 1}/{total}", flush=True)
    sessions = [
        [text, _prefix_bits(text)]
        for text, _ in _distinct_draws(
            inputs.SWEEP_SHAPE, inputs.SWEEP_SESSION_SEED, inputs.SWEEP_SESSIONS
        )
    ]
    return {
        "models": list(models),
        "session_models": list(common.spec_models()),
        "catalog": {n: common.bits(v, models) for n, v in catalog.items()},
        "batches": batches,
        "sessions": sessions,
    }


def _prefix_bits(text: str) -> list[str]:
    """Reference bits of every session prefix of ``text``, in append order."""
    from repro.litmus import parse_history

    specs = common.spec_models()
    lines = inputs.session_lines(text)
    return [
        common.bits(
            compute_verdicts(parse_history(inputs.prefix_text(lines[: i + 1])), specs),
            specs,
        )
        for i in range(len(lines))
    ]


def _distinct_draws(shape: dict, seed: int, count: int) -> list:
    import numpy as np

    from repro.analysis.random_histories import random_history
    from repro.litmus import format_history

    rng = np.random.default_rng(seed)
    seen: set[str] = set()
    out = []
    while len(out) < count:
        history = random_history(rng, **shape)
        text = format_history(history, oneline=True)
        if text not in seen:
            seen.add(text)
            out.append((text, history))
    return out


def build_serve() -> dict:
    models = common.all_models()
    specs = common.spec_models()
    fresh_rows = [
        [text, common.bits(compute_verdicts(h, models), models)]
        for text, h in _distinct_draws(
            inputs.SERVE_FRESH_SHAPE, inputs.SERVE_FRESH_SEED, inputs.SERVE_FRESH
        )
    ]
    print(f"serve fresh: {len(fresh_rows)}", flush=True)

    session_rows, left_out = [], []
    wanted = inputs.SERVE_SESSIONS
    candidates = _distinct_draws(
        inputs.SERVE_SESSION_SHAPE, inputs.SERVE_SESSION_SEED, 4 * wanted
    )
    for text, _ in candidates:
        if len(session_rows) == wanted:
            break
        rows = _capped(LEGACY_CAP_S, _prefix_bits, text)
        if rows is None:
            left_out.append([text, f"legacy over {LEGACY_CAP_S:g}s"])
        else:
            session_rows.append([text, rows])
        print(f"serve sessions: {len(session_rows)}/{wanted}", flush=True)
    return {
        "models": list(models),
        "session_models": list(specs),
        "fresh": fresh_rows,
        "sessions": session_rows,
        "left_out": left_out,
    }


def build_heavy() -> dict:
    import numpy as np

    from repro.analysis.random_histories import random_history
    from repro.checking.models import MODELS
    from repro.core.errors import CheckerError
    from repro.kernel.search import check_with_spec
    from repro.litmus import format_history

    specs = common.spec_models()
    strata: dict[str, list] = {}
    left_out: dict[str, list] = {}
    for name, (procs, ops) in inputs.HEAVY_STRATA.items():
        rng = np.random.default_rng([inputs.HEAVY_SEED, procs, ops])
        kept, dropped = [], []
        for _ in range(HEAVY_DRAWS):
            if len(kept) == HEAVY_PER_STRATUM:
                break
            history = random_history(
                rng, procs=procs, ops_per_proc=ops, locations=inputs.HEAVY_LOCATIONS
            )
            text = format_history(history, oneline=True)
            t0 = time.perf_counter()
            try:
                for m in specs:
                    check_with_spec(MODELS[m].spec, history, prepass=True)
            except CheckerError as exc:
                dropped.append([text, f"kernel: {exc}"])
                continue
            kernel_s = time.perf_counter() - t0
            if kernel_s > KERNEL_CAP_S:
                dropped.append([text, f"kernel over {KERNEL_CAP_S:g}s"])
                continue
            verdicts = _capped(LEGACY_CAP_S, compute_verdicts, history, specs)
            if verdicts is None:
                dropped.append([text, f"legacy over {LEGACY_CAP_S:g}s"])
            else:
                kept.append([text, common.bits(verdicts, specs), round(kernel_s, 4)])
            print(f"heavy {name}: kept {len(kept)}, left out {len(dropped)}",
                  flush=True)
        strata[name] = kept
        left_out[name] = dropped
    return {
        "models": list(specs),
        "legacy_cap_s": LEGACY_CAP_S,
        "kernel_cap_s": KERNEL_CAP_S,
        "strata": strata,
        "left_out": left_out,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pool", choices=("sweep", "serve", "heavy"))
    args = parser.parse_args(argv)
    build = {"sweep": build_sweep, "serve": build_serve, "heavy": build_heavy}
    common.REFS.mkdir(exist_ok=True)
    write_json(common.REFS / f"{args.pool}.json", build[args.pool]())
    return 0


if __name__ == "__main__":
    sys.exit(main())
