"""The in-process workloads, ``sweep`` and ``heavy``, and their shared parts.

A run repeats its timed region in ``inputs.ROUNDS`` identical rounds, each
from a fresh engine or freshly parsed histories so that no round inherits
another's caches.  Each ``*_round`` function measures one round and returns
an :class:`Outcome` holding every timed unit (one check, one engine run,
one append) by key and the host-speed calibration times taken between
them.  :func:`combine` puts each round's times at the reference host speed,
keeps each unit's median (or best) time over the rounds and derives the
end-to-end figures from those; ``inputs.py`` says why.  Reference verdicts are
compared after the timed region.

Both workloads also have a session phase, before and after each round's
check phase: histories replayed op by op through
:class:`repro.engine.session.EngineSession` under a stats sink, the way
``python -m repro check --stream`` runs them.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import common
import inputs
from reference import Verifier, compute_verdicts, load

@dataclass
class Outcome:
    """What one measured round (or a combined run) produced."""

    #: End-to-end metric name -> (value, unit); set by :func:`combine`.
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: Timed units: ``"check"`` and ``"append"`` -> unit key -> seconds.
    units: dict[str, dict] = field(default_factory=lambda: {"check": {}, "append": {}})
    #: Units timed between calibration runs, in order: (kind, key, seconds,
    #: how many calibration runs came before it); see :meth:`record`.
    timed: list[tuple] = field(default_factory=list)
    #: Verdicts the throughput phase delivered, and, when the phase's units
    #: overlap in time (``serve``'s closed loop), the phase's batches as
    #: (seconds, calibration runs made before the batch ended).
    verdicts: int = 0
    rate_parts: list[tuple[float, int]] = field(default_factory=list)
    #: Human-readable lines printed before the result.
    notes: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    verifier: Verifier = field(default_factory=Verifier)
    #: Timed wall of the throughput phase, on the perf clock.
    window: tuple[float, float] = (0.0, 0.0)
    #: Raw per-layer inputs: engine reports, sink counters, /stats.
    layer: dict = field(default_factory=dict)
    #: Why the traced span times do not add up (``spans.reconcile``).
    unreconciled: list[str] = field(default_factory=list)
    #: Seconds of each ``common.calibration_work`` run made between timed
    #: units, which tell how fast the host ran.
    host: list[float] = field(default_factory=list)

    def record(self, kind: str, key, seconds: float, at: int | None = None) -> None:
        """Time one unit, made after ``at`` calibration runs (by default,
        all so far); :func:`combine` puts it at the reference host speed
        by the calibration runs made around it."""
        self.timed.append((kind, key, seconds, len(self.host) if at is None else at))

    @property
    def seconds_per_check(self) -> float:
        """Wall seconds per verdict in the throughput phase."""
        return (self.window[1] - self.window[0]) / max(self.verdicts, 1)


def combine(rounds: list[Outcome], per_round: tuple[str, ...] = (),
            best: tuple[str, ...] = ()) -> Outcome:
    """One outcome from identical rounds.

    Every time a round measured is first put at the reference host speed
    (``common.host_slowdown``); the figures as measured are printed too.  A
    unit timed with :meth:`Outcome.record`, and each batch of a closed loop
    (``Outcome.rate_parts``), is divided by the slowdown of the calibration
    runs made around it (``common.local_slowdown``): the host's speed
    changes from one second to the next, and a round-wide figure leaves
    that in the times.  Other units are divided by the round's slowdown,
    the median of all its calibration runs over their reference.

    A unit timed more than once (in several rounds, or twice in a round)
    keeps the median of its times, or, for the unit kinds in ``best``, its
    best time: the kinds whose noise only ever adds time (``sweep``'s engine
    runs, whose two workers stall on the scheduler, and ``serve``'s appends,
    a few milliseconds of which are the idle host waking up).  Medians and
    tails are taken over the kept unit times.  For the unit kinds in
    ``per_round`` each round's median and tail are taken over its own units
    and the median over the rounds is reported (``serve``'s checks: their
    tail is there to show queueing and stalls, which a per-unit figure
    would hide, and the median over rounds keeps one round's rare stall
    from setting the figure).  ``checks_per_s`` is the verdicts over the
    summed unit times, or, where units overlap in time, the best round's
    rate.
    """
    out = Outcome(layer=rounds[-1].layer, window=rounds[-1].window,
                  verdicts=rounds[-1].verdicts)
    for r in rounds:
        out.host += r.host
        out.notes += [n for n in r.notes if n not in out.notes]
        out.attempted += r.attempted
        out.failed += r.failed
        out.verifier.compared += r.verifier.compared
        out.verifier.mismatches += r.verifier.mismatches
    slowdowns = [common.host_slowdown(r.host) if r.host else 1.0 for r in rounds]
    measured, _, _ = _figures(rounds, per_round, best, None)
    out.metrics, out.units, notes = _figures(rounds, per_round, best, slowdowns)
    out.notes.append(
        "host slowdown per round: " + ", ".join(f"{x:.4f}" for x in slowdowns)
        + f" (median calibration run over the {common.CALIBRATION_REFERENCE_S * 1e3:g}"
        " ms reference); the figures below are at the reference speed"
    )
    out.notes += notes
    out.notes.append("as measured: " + ", ".join(
        f"{n}={v:.6g}" for n, (v, _) in measured.items()
    ))
    return out


def _scaled(r: Outcome, slowdown: float | None) -> dict:
    """One round's unit times at the reference speed (as measured when
    ``slowdown`` is ``None``): kind -> unit key -> list of seconds."""
    units: dict[str, dict] = {kind: {} for kind in r.units}
    if not r.timed:
        x = slowdown or 1.0
        for kind, times in r.units.items():
            units[kind] = {k: [v / x] for k, v in times.items()}
        return units
    for kind, key, seconds, at in r.timed:
        if slowdown is not None and r.host:
            seconds /= common.local_slowdown(r.host, at)
        units[kind].setdefault(key, []).append(seconds)
    return units


def _figures(rounds: list[Outcome], per_round: tuple[str, ...],
             best: tuple[str, ...], slowdowns: list[float] | None
             ) -> tuple[dict, dict, list[str]]:
    """The end-to-end figures of :func:`combine` at the reference speed (as
    measured when ``slowdowns`` is ``None``): metrics, the kept unit times,
    and printed lines."""
    slowdowns = slowdowns or [None] * len(rounds)
    scaled = [_scaled(r, x) for r, x in zip(rounds, slowdowns)]
    units = {}
    for kind in ("check", "append"):
        keep = min if kind in best else statistics.median
        pooled: dict = {}
        for u in scaled:
            for k, v in u[kind].items():
                pooled.setdefault(k, []).extend(v)
        units[kind] = {k: keep(v) for k, v in pooled.items()}
    if not rounds[0].rate_parts:
        seconds = sum(units["check"].values())
        how = f"summed unit times over {len(rounds)} rounds"
    else:
        seconds = min(
            sum(t / (common.local_slowdown(r.host, at)
                     if x is not None and r.host else 1.0) for t, at in r.rate_parts)
            for r, x in zip(rounds, slowdowns)
        )
        how = f"best of {len(rounds)} rounds"
    verdicts = rounds[-1].verdicts
    metrics = {"checks_per_s": (verdicts / seconds, "1/s")}
    notes = [f"checks_per_s: {verdicts} verdicts in {seconds:.4f} s ({how})"]
    for kind in ("check", "append"):
        keep = min if kind in best else statistics.median
        if kind in per_round:
            samples = [[keep(v) for v in u[kind].values()] for u in scaled]
        else:
            samples = [list(units[kind].values())]
        summaries = [common.latency_summary(v) for v in samples]
        p50 = statistics.median(s["p50"] for s in summaries) * 1e3
        tail = statistics.median(s["tail"] for s in summaries) * 1e3
        metrics[f"{kind}_p50_ms"] = (p50, "ms")
        metrics[f"{kind}_tail_ms"] = (tail, "ms")
        level = min(s["tail_level"] for s in summaries)
        n = "/".join(str(s["n"]) for s in summaries)
        if len(summaries) == 1:
            how = f"over {n} units' {'best' if kind in best else 'median'} times"
        else:
            how = (f"medians over {len(summaries)} rounds of {n} samples; round "
                   "tails " + ", ".join(f"{s['tail'] * 1e3:.3f}" for s in summaries))
        notes.append(f"{kind}: p50 {p50:.3f} ms, p{level:g} {tail:.3f} ms ({how})")
    return metrics, units, notes


def replay_sessions(out: Outcome, sessions: list, models: tuple[str, ...]) -> None:
    """Replay ``[text, prefix_bits]`` sessions op by op, each from a fresh
    session; time every append, keeping its best time over calls, and run
    the host-speed calibration after each session.

    A round calls this twice, before and after its check phase: the host's
    speed changes from one moment to the next, and a run's best time of an
    append is steadiest when its six replays come from six moments rather
    than from back-to-back repeats.
    """
    from repro.core.errors import CheckerError
    from repro.engine.session import EngineSession
    from repro.obs import SessionStatsSink, tracing

    sink = SessionStatsSink()
    with tracing(sink):
        for text, prefix_bits in sessions:
            session = EngineSession(models)
            for i, line in enumerate(inputs.session_lines(text)):
                out.attempted += 1
                t0 = time.perf_counter()
                try:
                    appended = session.append_line(line)
                except CheckerError:
                    out.failed += 1
                    break
                out.record("append", (text, i), time.perf_counter() - t0)
                verdicts = {m: r.allowed for m, r in appended[-1][1].items()}
                out.verifier.expect(
                    f"session {text!r} op {i}", verdicts, prefix_bits[i], models
                )
            common.calibrate(out.host)
    totals = out.layer.setdefault("sessions", {})
    for key, n in sink.session_counters().items():
        totals[key] = totals.get(key, 0) + n


# -- sweep -----------------------------------------------------------------------


def _sweep_spec(seed: int | None):
    from repro.engine import SweepSpec

    if seed is None:
        return SweepSpec(source="catalog")
    return SweepSpec(
        source="random", count=inputs.SWEEP_BATCH, seed=seed, **inputs.SWEEP_SHAPE
    )


def _verify_sweep(out: Outcome, refs: dict, seed: int | None, report) -> None:
    from repro.litmus import format_history

    models = tuple(refs["models"])
    if seed is None:
        for record in report.results:
            name = record["key"].split(":", 1)[1]
            out.verifier.expect(
                f"catalog {name}", record["models"], refs["catalog"][name], models
            )
        return
    jobs = list(_sweep_spec(seed).jobs())
    texts = [format_history(j.history, oneline=True) for j in jobs]
    stored = {b["seed"]: b for b in refs["batches"]}.get(seed)
    if stored is not None and stored["digest"] == common.digest("\n".join(texts)):
        want = stored["bits"]
    else:
        # The program's random generator no longer draws the stored batch,
        # so the figures are not comparable with runs that used it.
        out.notes.append(
            f"corpus drift: sweep batch {seed} differs from refs/sweep.json; "
            f"its references were recomputed by the legacy solver"
        )
        want = [common.bits(compute_verdicts(j.history, models), models) for j in jobs]
    for record, text, bits in zip(report.results, texts, want):
        out.verifier.expect(f"sweep {text!r}", record["models"], bits, models)


def _run_batch(engine, out: Outcome, batch: int | None, models: int):
    """One ``engine.run`` of a batch (``None``: the catalog), or ``None``
    when a ``CheckerError`` ends it: then its (history, model) pairs count
    as attempted and failed."""
    from repro.core.errors import CheckerError

    spec = _sweep_spec(batch)
    try:
        return engine.run(spec)
    except CheckerError:
        pairs = sum(1 for _ in spec.jobs()) * models
        out.attempted += pairs
        out.failed += pairs
        return None


def sweep_round(seed: int) -> Outcome:
    """Engine sweeps of the catalog and every batch, then the session replays.

    A timed unit is one ``engine.run`` call: the catalog, or one batch.
    """
    from repro.engine import CheckEngine

    refs = load("sweep")
    models = len(refs["models"])
    warmup, timed = inputs.sweep_plan(seed)
    sessions = inputs.shuffled(refs["sessions"], "sweep-sessions", seed)
    out = Outcome()
    reports = []
    with CheckEngine(jobs=inputs.JOBS, persistent=True) as engine:
        for batch in warmup:
            report = _run_batch(engine, out, batch, models)
            if report is not None:
                _verify_sweep(out, refs, batch, report)
        replay_sessions(out, sessions, tuple(refs["session_models"]))
        start = time.perf_counter()
        for batch in [None, *timed]:
            t0 = time.perf_counter()
            report = _run_batch(engine, out, batch, models)
            if report is None:
                continue
            out.record("check", batch, time.perf_counter() - t0)
            common.calibrate(out.host)
            out.verdicts += report.metrics.checks
            out.attempted += report.metrics.checks
            reports.append((batch, report))
        out.window = (start, time.perf_counter())
    replay_sessions(out, sessions, tuple(refs["session_models"]))
    for batch, report in reports:
        _verify_sweep(out, refs, batch, report)
    out.layer["engine"] = [r.metrics.to_dict() for _, r in reports]
    return out


# -- heavy -----------------------------------------------------------------------


def heavy_round(seed: int, check=None) -> Outcome:
    """Closed-loop ``check_with_spec(prepass=True)`` over the heavy corpus.

    A timed unit is one call.  ``check`` overrides the entry point (tests
    inject failures through it).
    """
    from repro.checking.models import MODELS
    from repro.core.errors import CheckerError
    from repro.kernel import search
    from repro.kernel.constraints import plane_cache_stats
    from repro.litmus import CATALOG, parse_history

    refs = load("heavy")
    serve_refs = load("serve")
    models = tuple(refs["models"])
    specs = [MODELS[m].spec for m in models]
    timed = inputs.heavy_plan(seed, refs["strata"])
    sessions = inputs.shuffled(
        serve_refs["sessions"][: inputs.HEAVY_SESSIONS], "heavy-sessions", seed
    )
    out = Outcome()
    # Warm-up on catalog histories, which the timed region never checks.
    for test in list(CATALOG.values())[:3]:
        for spec in specs:
            search.check_with_spec(spec, test.history, prepass=True)
    replay_sessions(out, sessions, tuple(serve_refs["session_models"]))

    plane0 = plane_cache_stats()
    histories = [parse_history(text) for text, _, _ in timed]
    start = time.perf_counter()
    for (text, want, _), history in zip(timed, histories):
        verdicts = {}
        for name, spec in zip(models, specs):
            out.attempted += 1
            t0 = time.perf_counter()
            try:
                result = (check or search.check_with_spec)(spec, history, prepass=True)
            except CheckerError:
                out.failed += 1
                continue
            out.record("check", (text, name), time.perf_counter() - t0)
            verdicts[name] = result.allowed
        common.calibrate(out.host)
        done = tuple(m for m in models if m in verdicts)
        out.verifier.expect(
            f"heavy {text!r}",
            verdicts,
            "".join(b for m, b in zip(models, want) if m in verdicts),
            done,
        )
    out.window = (start, time.perf_counter())
    out.verdicts = sum(1 for kind, *_ in out.timed if kind == "check")
    plane1 = plane_cache_stats()
    out.layer["plane"] = {k: plane1[k] - plane0[k] for k in ("hits", "misses")}
    replay_sessions(out, sessions, tuple(serve_refs["session_models"]))
    return out
