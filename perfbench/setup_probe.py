"""Set up one workload's entry point in a fresh process, then say ``ready``.

Usage: ``python3 perfbench/setup_probe.py sweep|heavy``.  The parent times
the span from spawning this process to reading its ``ready`` line: imports,
the model registry, pre-pass compilation and, for ``sweep``, the persistent
worker pool with its model warm-up.
"""

from __future__ import annotations

import sys

import common
import inputs

common.bootstrap()


def main(workload: str) -> int:
    from repro.checking.models import MODELS
    from repro.staticcheck.prepass import compile_prepass

    specs = [MODELS[m].spec for m in common.spec_models()]
    for spec in specs:
        compile_prepass(spec)
    if workload == "sweep":
        from repro.engine import CheckEngine, SweepSpec

        with CheckEngine(jobs=inputs.JOBS, persistent=True) as engine:
            # The pool starts, and each worker runs its model warm-up, on
            # the first run; two tiny histories are the smallest such run.
            engine.run(SweepSpec(source="random", count=2, procs=2, ops_per_proc=2))
            print("ready", flush=True)
        return 0
    from repro.kernel.search import check_with_spec
    from repro.litmus import parse_history

    tiny = parse_history("p: w(x)1 | q: r(x)1")
    for spec in specs:
        check_with_spec(spec, tiny, prepass=True)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    try:
        status = main(sys.argv[1])
    finally:
        common.stop_resource_tracker()
    sys.exit(status)
