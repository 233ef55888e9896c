"""The repository's end-to-end benchmark: ``sweep``, ``heavy`` and ``serve``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented,
from each timed unit's best of three rounds (``inputs.py`` says why), and
reports them at a reference host speed (:func:`run_untraced`).
``--trace 1`` measures one round untraced and one with the span recorder of
``spans.py`` installed, and reports per-layer metrics plus the tracing
overhead.  Every verdict is compared to a reference the code under test
did not produce (``reference.py``); a mismatch exits with status 4.
On ``heavy`` the traced run also checks that the span self times and the
unwrapped remainder add up to the traced wall (``spans.reconcile``); when
they do not, the result is marked incorrect and the exit status is 5.
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import common

#: The stored reference files each workload draws its inputs from.
POOLS = {"sweep": ("sweep",), "heavy": ("heavy", "serve"), "serve": ("serve",)}

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Host-speed calibration runs before and after each set-up.
SETUP_CALIBRATION_RUNS = 10

END_TO_END = (
    ("setup_s", "s"),
    ("checks_per_s", "1/s"),
    ("check_p50_ms", "ms"),
    ("check_tail_ms", "ms"),
    ("append_p50_ms", "ms"),
    ("append_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def environment() -> str:
    import numpy

    from repro.kernel.backend import active_backend

    return (
        f"environment: {os.cpu_count()} CPUs, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, mask backend {active_backend().name}"
    )


def setup_seconds(workload: str) -> float:
    """Seconds from spawning a fresh process until the workload could start."""
    if workload == "serve":
        import shutil

        from serve_load import Server

        workdir = common.scratch_dir("setup")
        server = Server(workdir)
        try:
            return server.wait_ready()
        finally:
            server.stop()
            shutil.rmtree(workdir, ignore_errors=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(common.BENCH_DIR / "setup_probe.py"), workload],
        stdout=subprocess.PIPE,
        text=True,
        cwd=str(common.ROOT),
    )
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    proc.stdout.read()
    if proc.wait(timeout=120) != 0 or line.strip() != "ready":
        raise RuntimeError(f"setup probe for {workload} failed")
    return ready


def measure(workload: str, seed: int, seconds: float, rounds: int, traced_spans=None):
    """``rounds`` identical rounds of one workload, combined unit by unit."""
    import workloads

    if workload == "serve":
        from serve_load import measure_serve

        return measure_serve(seed, seconds, rounds, traced_spans)
    if workload == "sweep":
        return workloads.combine(
            [workloads.sweep_round(seed) for _ in range(rounds)], best=("check",)
        )
    return workloads.combine([workloads.heavy_round(seed) for _ in range(rounds)])


def run_untraced(args) -> tuple[object, dict]:
    """The end-to-end metrics, at the reference host speed.

    The host's speed changes from one second to the next and by up to 2x
    over minutes, so a run also times a fixed calibration work
    (``common.calibrate``) between its timed units and around its set-ups.
    Each unit's time is divided by the host slowdown around it
    (``workloads.combine``), and each set-up by the slowdown of the
    calibration runs just before and after it; the figures as measured are
    printed too.
    """
    import inputs

    host: list[float] = []
    timed = []
    for _ in range(SETUP_REPEATS):
        common.calibrate(host, SETUP_CALIBRATION_RUNS)
        timed.append((setup_seconds(args.workload), len(host)))
    common.calibrate(host, SETUP_CALIBRATION_RUNS)
    slowdowns = [common.local_slowdown(host, at) for _, at in timed]
    setups = [s / x for (s, _), x in zip(timed, slowdowns)]
    out = measure(args.workload, args.seed, args.seconds, inputs.ROUNDS)
    values = {"setup_s": statistics.median(setups), **{
        k: v for k, (v, _) in out.metrics.items()
    }}
    values["peak_rss_mb"] = common.peak_rss_mb()
    out.notes.insert(0, "setup_s: " + ", ".join(f"{s:.4f}" for s, _ in timed)
                     + f" s over {SETUP_REPEATS} fresh processes, divided by the "
                     "host slowdowns " + ", ".join(f"{x:.4f}" for x in slowdowns)
                     + " around them (median reported)")
    return out, {name: (values[name], unit) for name, unit in END_TO_END}


def run_traced(args) -> tuple[object, dict]:
    import layers
    import spans

    base = measure(args.workload, args.seed, args.seconds, 1)
    spans_dir = common.ROOT / ".perfbench" / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    spans_file = spans_dir / f"{args.workload}.json"
    if args.workload == "serve":
        out = measure(args.workload, args.seed, args.seconds, 1, spans_file)
        tracks = json.loads(spans_file.read_text())["tracks"]
    else:
        recorder = spans.Recorder()
        recorder.install()
        try:
            out = measure(args.workload, args.seed, args.seconds, 1)
        finally:
            recorder.uninstall()
        tracks = recorder.export()
        recorder.dump(spans_file)
    roll = spans.rollup(tracks)
    overhead = (
        out.seconds_per_check / common.host_slowdown(out.host)
        / (base.seconds_per_check / common.host_slowdown(base.host))
    ) - 1
    values = layers.layer_metrics(roll, out, overhead)
    out.attempted += base.attempted
    out.failed += base.failed
    out.verifier.compared += base.verifier.compared
    out.verifier.mismatches += base.verifier.mismatches
    if args.workload == "heavy":
        rec = spans.reconcile(tracks, out.window)
        out.notes.append(
            f"reconciliation over the traced check phase: per-layer self times "
            f"{rec['self_s']:.4f} s + unwrapped remainder {rec['remainder']:.4f} s "
            f"(wall minus the {rec['root_s']:.4f} s root spans cover) "
            f"= traced wall {rec['wall']:.4f} s"
        )
        out.unreconciled = rec["problems"]
    out.notes.append(
        "per-layer self time (s): " + ", ".join(
            f"{n}={s:.4f}" for n, s in roll["self_s"].items() if s
        )
    )
    return out, {n: (values[n], layers.unit_of(n)) for n in layers.names()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="repro end-to-end benchmark")
    parser.add_argument(
        "--workload", required=True, choices=("sweep", "heavy", "serve")
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return run(args)
    finally:
        common.stop_resource_tracker()


def run(args) -> int:
    try:
        common.bootstrap()
        import reference

        for pool in POOLS[args.workload]:
            reference.load(pool)
    except (common.MissingProgram, FileNotFoundError) as exc:
        print(f"perfbench: cannot run here: {exc}", file=sys.stderr)
        return common.EXIT_NO_PROGRAM
    print(environment(), flush=True)
    if args.workload == "serve":
        from serve_load import pin_to_one_cpu

        print(f"serve: benchmark and servers pinned to CPU {pin_to_one_cpu()}")
    out, metrics = (run_traced if args.trace else run_untraced)(args)
    for note in out.notes:
        print(note)
    share = out.failed / out.attempted if out.attempted else 0.0
    print(f"failed_share: {share:.6f} ({out.failed} of {out.attempted} attempted)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    correct = not out.verifier.mismatches and not out.unreconciled
    print(f"verdicts compared to the reference: {out.verifier.compared}, "
          f"mismatches: {len(out.verifier.mismatches)}")
    for line in out.verifier.mismatches[:10]:
        print(f"  mismatch: {line}")
    for line in out.unreconciled[:10]:
        print(f"  span times do not add up: {line}")
    print(json.dumps({
        "correct": correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    if out.verifier.mismatches:
        return common.EXIT_MISMATCH
    return common.EXIT_UNRECONCILED if out.unreconciled else 0


if __name__ == "__main__":
    sys.exit(main())
