"""Tests of the benchmark's own pieces.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import pytest

import common

common.bootstrap()

import inputs  # noqa: E402
import spans  # noqa: E402
from reference import Verifier, store_buffer_allows  # noqa: E402


# -- the percentile rule -----------------------------------------------------------


@pytest.mark.parametrize("n, level", [(20, 50.0), (40, 75.0), (100, 90.0),
                                      (250, 96.0), (1000, 99.0), (5000, 99.0)])
def test_tail_level_leaves_at_least_ten_samples_beyond(n, level):
    assert common.tail_level(n) == level
    values = [float(i) for i in range(1, n + 1)]
    tail = common.percentile(values, level)
    assert sum(1 for v in values if v > tail) >= 10


def test_tail_level_is_the_highest_such_percentile():
    for n in range(20, 400):
        level = common.tail_level(n)
        if level < 99:
            values = list(range(n))
            above = common.percentile(values, level + 1)
            assert sum(1 for v in values if v > above) < 10


def test_too_few_samples_have_no_tail():
    assert common.tail_level(19) is None
    s = common.latency_summary([3.0, 1.0, 2.0])
    assert s == {"p50": 2.0, "tail": 3.0, "tail_level": 100.0, "n": 3}


def test_latency_summary_reports_median_tail_and_count():
    s = common.latency_summary([float(i) for i in range(1, 101)])
    assert s["p50"] == 50.5 and s["tail"] == 90.0 and s["tail_level"] == 90.0
    assert s["n"] == 100


# -- self time on nested spans -------------------------------------------------------


def _track(rows):
    """Rows of (name, start, end, parent index) as an exported track."""
    return {
        "key": "t",
        "name": [spans.NAMES.index(r[0]) for r in rows],
        "start": [r[1] for r in rows],
        "end": [r[2] for r in rows],
        "parent": [r[3] for r in rows],
        "counts": {},
    }


def test_self_time_subtracts_children_and_sums_to_the_root():
    track = _track([
        ("search.check", 0.0, 10.0, -1),
        ("prepass.check", 1.0, 4.0, 0),
        ("constraints.plane", 2.0, 3.0, 1),
        ("rf.attributions", 5.0, 9.0, 0),
    ])
    roll = spans.rollup([track])
    assert roll["self_s"]["search.check"] == pytest.approx(3.0)
    assert roll["self_s"]["prepass.check"] == pytest.approx(2.0)
    assert roll["self_s"]["constraints.plane"] == pytest.approx(1.0)
    assert roll["self_s"]["rf.attributions"] == pytest.approx(4.0)
    assert sum(roll["self_s"].values()) == pytest.approx(roll["root_s"]) == 10.0
    assert roll["total_s"]["prepass.check"] == pytest.approx(3.0)


def test_window_keeps_spans_that_start_inside_it():
    track = _track([
        ("search.check", 0.0, 1.0, -1),
        ("search.check", 2.0, 5.0, -1),
        ("prepass.check", 2.5, 3.0, 1),
    ])
    roll = spans.rollup([track], window=(1.5, 6.0))
    assert roll["calls"]["search.check"] == 1
    assert roll["self_s"]["search.check"] == pytest.approx(2.5)


def test_reconcile_splits_the_wall_into_self_times_and_remainder():
    track = _track([
        ("search.check", 1.0, 4.0, -1),
        ("prepass.check", 1.5, 2.5, 0),
        ("search.check", 5.0, 9.0, -1),
        ("rf.attributions", 6.0, 8.0, 2),
    ])
    rec = spans.reconcile([track], (0.5, 10.0))
    assert rec["problems"] == []
    assert rec["root_s"] == pytest.approx(7.0)
    assert rec["remainder"] == pytest.approx(2.5)
    assert rec["self_s"] + rec["remainder"] == pytest.approx(rec["wall"]) == 9.5


@pytest.mark.parametrize("rows", [
    # a nested span recorded twice: its parent's children exceed the parent
    [("search.check", 0.0, 4.0, -1), ("prepass.check", 1.0, 3.0, 0),
     ("prepass.check", 1.0, 3.0, 0), ("rf.attributions", 3.0, 3.5, 0)],
    # a root recorded twice: the roots overlap and cover more than the wall
    [("search.check", 0.0, 4.0, -1), ("search.check", 0.0, 4.0, -1)],
    # a child that outlasts its parent
    [("search.check", 0.0, 2.0, -1), ("prepass.check", 1.0, 3.0, 0)],
    # a child whose parent started before the window
    [("search.check", -1.0, 1.0, -1), ("prepass.check", 0.5, 0.8, 0)],
])
def test_reconcile_trips_on_spans_counted_twice(rows):
    rec = spans.reconcile([_track(rows)], (0.0, 5.0))
    assert rec["problems"]


def test_recorder_nests_calls_and_times_each_next():
    rec = spans.Recorder()

    def gen(n):
        yield from range(n)

    attributions = rec._gen(gen, "rf.attributions")

    def check():
        return sum(attributions(3))

    traced = rec._call(check, "search.check")
    assert traced() == 3
    assert traced() == 3
    (track,) = rec.export()
    assert track["root"] == [0, 0, 0, 0, 0, 5, 5, 5, 5, 5]
    roll = spans.rollup([track])
    assert roll["calls"]["search.check"] == 2
    # three yields plus the next() that ends the generator, per check
    assert roll["calls"]["rf.attributions"] == 8
    assert roll["counts"]["rf.attributions"] == 6
    assert sum(roll["self_s"].values()) == pytest.approx(roll["root_s"])


# -- seeded workloads ------------------------------------------------------------------


def _fake_corpus():
    return {
        "4x5": [[f"a{i}", "1", i / 10] for i in range(12)],
        "3x8": [[f"b{i}", "0", i / 10] for i in range(8)],
    }


def test_plans_repeat_for_a_seed_and_differ_across_seeds():
    assert inputs.sweep_plan(3) == inputs.sweep_plan(3)
    assert inputs.sweep_plan(3) != inputs.sweep_plan(4)
    corpus = _fake_corpus()
    assert inputs.heavy_plan(3, corpus) == inputs.heavy_plan(3, corpus)
    assert inputs.heavy_plan(3, corpus) != inputs.heavy_plan(4, corpus)


def test_every_seed_runs_the_same_corpus():
    warm3, timed3 = inputs.sweep_plan(3)
    warm4, timed4 = inputs.sweep_plan(4)
    assert warm3 == warm4 and sorted(timed3) == sorted(timed4)
    assert not set(warm3) & set(timed3)
    assert len(set(timed3)) == len(timed3) == inputs.SWEEP_BATCHES
    corpus = _fake_corpus()
    assert sorted(inputs.heavy_plan(3, corpus)) == sorted(
        e for entries in corpus.values() for e in entries
    )


def test_combine_keeps_each_units_best_time_for_best_kinds_and_all_counts():
    from workloads import Outcome, combine

    a = Outcome(units={"check": {"h1": 0.010, "h2": 0.030}, "append": {}},
                verdicts=2, attempted=2, failed=1)
    b = Outcome(units={"check": {"h1": 0.020, "h2": 0.020}, "append": {}},
                verdicts=2, attempted=2)
    for r in (a, b):
        r.units["append"] = {i: 0.001 * (i + 1) for i in range(20)}
    out = combine([a, b], best=("check",))
    assert out.units["check"] == {"h1": 0.010, "h2": 0.020}
    assert out.metrics["checks_per_s"][0] == pytest.approx(2 / 0.030)
    assert out.metrics["check_p50_ms"][0] == pytest.approx(15.0)
    assert (out.attempted, out.failed) == (4, 1)


def test_combine_keeps_each_units_median_time_by_default():
    from workloads import Outcome, combine

    rounds = []
    for h1 in (0.010, 0.050, 0.020):
        r = Outcome(verdicts=1, units={"check": {"h1": h1}, "append": {}})
        r.units["append"] = {i: 0.001 for i in range(20)}
        rounds.append(r)
    out = combine(rounds)
    assert out.units["check"] == {"h1": 0.020}
    assert out.metrics["checks_per_s"][0] == pytest.approx(50.0)


def test_recorded_units_are_divided_by_the_slowdown_around_them():
    from workloads import Outcome, combine

    ref = common.CALIBRATION_REFERENCE_S
    k = common.LOCAL_CALIBRATIONS
    r = Outcome(verdicts=2)
    r.host = [ref] * k
    r.record("check", "h1", 0.010)  # between runs at 1x
    r.host += [ref] * k + [3 * ref] * k
    r.record("check", "h2", 0.030)  # between runs at 3x
    r.host += [3 * ref] * k
    for i in range(20):
        r.record("append", i, 0.001)  # between runs at 3x and at 1x
        r.record("append", i, 0.002)  # twice in a round: the median is kept
    r.host += [ref] * k
    out = combine([r])
    assert out.units["check"] == {"h1": pytest.approx(0.010), "h2": pytest.approx(0.010)}
    assert out.units["append"][0] == pytest.approx(0.0015 / 2)
    measured = next(n for n in out.notes if n.startswith("as measured: "))
    assert "checks_per_s=50," in measured


def test_combine_takes_the_best_rate_where_units_overlap():
    from workloads import Outcome, combine

    rounds = []
    for seconds in (2.0, 1.0, 4.0):
        r = Outcome(verdicts=100, rate_parts=[(seconds / 2, 0), (seconds / 2, 0)])
        r.units = {"check": {1: seconds}, "append": {1: seconds}}
        rounds.append(r)
    assert combine(rounds).metrics["checks_per_s"][0] == pytest.approx(100.0)


def test_combine_per_round_takes_the_median_of_each_rounds_figures():
    from workloads import Outcome, combine

    rounds = []
    for seconds in (0.010, 0.030, 0.020):
        r = Outcome(verdicts=1, rate_parts=[(1.0, 0)])
        r.units = {
            "check": {i: seconds * (1 + i / 100) for i in range(20)},
            "append": {i: seconds for i in range(20)},
        }
        rounds.append(r)
    # round 2 alone stalls: its tail would set a pooled tail
    rounds[1].units["check"].update({i: 1.0 for i in range(15, 20)})
    out = combine(rounds, per_round=("check",), best=("append",))
    assert out.metrics["check_p50_ms"][0] == pytest.approx(20.0 * 1.095)
    assert out.metrics["check_tail_ms"][0] == pytest.approx(20.0 * 1.09)
    # appends are not in per_round, and in best: each keeps its best time
    assert out.metrics["append_tail_ms"][0] == pytest.approx(10.0)


def _schedule(seed):
    from serve_load import schedule

    fresh = [[f"p: w(x){i}", "1"] for i in range(100)]
    sessions = [[f"p: w(x){i} w(x){i + 1} | q: r(x)0 r(x){i}", ["1"] * 4]
                for i in range(1, 40, 2)]
    return schedule(30.0, 3.0, fresh, sessions, fresh[:5], seed)


def test_serve_schedule_is_seeded_over_a_fixed_input_set():
    reqs3, opened3, used3 = _schedule(3)
    reqs4, opened4, used4 = _schedule(4)
    assert [(r.kind, r.due, r.text, r.line) for r in reqs3] == [
        (r.kind, r.due, r.text, r.line) for r in _schedule(3)[0]
    ]
    assert [r.text for r in reqs3] != [r.text for r in reqs4]
    fresh3 = sorted(r.text for r in reqs3 if r.kind == "check")
    assert fresh3 == sorted(r.text for r in reqs4 if r.kind == "check")
    assert len(set(fresh3)) == len(fresh3) == used3 == used4
    assert sorted(map(str, opened3)) == sorted(map(str, opened4))


def test_serve_schedule_keeps_each_session_in_order_on_one_connection():
    reqs, opened, _ = _schedule(5)
    for sid, (text, _) in enumerate(opened):
        mine = [r for r in reqs if r.kind == "append" and r.session == sid]
        assert len({r.conn for r in mine}) == 1
        assert [r.line for r in mine] == inputs.session_lines(text)
        assert [r.due for r in mine] == sorted(r.due for r in mine)


def test_session_lines_replay_round_robin_and_rebuild_the_history():
    text = "p0: w(x)1 r(y)0 | p1: w(y)2 | p2: r(x)1 r(x)0 w(y)3"
    lines = inputs.session_lines(text)
    assert lines[:3] == ["p0: w(x)1", "p1: w(y)2", "p2: r(x)1"]
    assert inputs.prefix_text(lines) == text


# -- failures and references ---------------------------------------------------


def test_checker_error_counts_as_failed_not_a_crash(monkeypatch):
    from repro.core.errors import CheckerError
    from repro.kernel.search import check_with_spec
    import workloads

    plan = inputs.heavy_plan
    monkeypatch.setattr(
        workloads.inputs, "heavy_plan", lambda *args: plan(*args)[:3]
    )

    def flaky(spec, history, prepass):
        if spec.name == "TSO":
            raise CheckerError("TSO: search budget exceeded")
        return check_with_spec(spec, history, prepass=prepass)

    out = workloads.heavy_round(0, check=flaky)
    assert out.failed > 0
    assert out.attempted > out.failed
    assert not out.verifier.mismatches
    share = out.failed / out.attempted
    assert 0 < share < 1


def test_sweep_checker_error_counts_the_batch_as_failed_not_a_crash():
    from repro.core.errors import CheckerError
    import workloads

    class Engine:
        def run(self, spec):
            raise CheckerError("search budget exceeded")

    out = workloads.Outcome()
    assert workloads._run_batch(Engine(), out, inputs.SWEEP_SEED_BASE, 20) is None
    assert out.attempted == out.failed == inputs.SWEEP_BATCH * 20


def test_sweep_corpus_drift_is_noted_and_referenced_on_demand():
    from types import SimpleNamespace

    from repro.checking import check
    import workloads

    batch = inputs.SWEEP_SEED_BASE
    spec = workloads._sweep_spec(batch)
    records = [{"models": {"SC": check(j.history, "SC").allowed}} for j in spec.jobs()]
    refs = {"models": ["SC"], "batches": [{"seed": batch, "digest": "0", "bits": []}]}
    out = workloads.Outcome()
    workloads._verify_sweep(out, refs, batch, SimpleNamespace(results=records))
    assert any(n.startswith("corpus drift: sweep batch") for n in out.notes)
    assert out.verifier.compared == len(records) and not out.verifier.mismatches


def test_failed_reply_counts_against_attempted():
    from serve_load import Req, _check_reply
    from workloads import Outcome

    out = Outcome()
    _check_reply(out, Req("check", 0.0, 0, status=None), ("SC",), ("SC",))
    _check_reply(out, Req("check", 0.0, 0, status=503), ("SC",), ("SC",))
    ok = Req("check", 0.0, 0, text="p: w(x)1", want="1", status=200,
             payload={"models": {"SC": True}})
    _check_reply(out, ok, ("SC",), ("SC",))
    assert (out.attempted, out.failed) == (3, 2)
    assert not out.verifier.mismatches


def test_open_loop_calibrates_only_in_idle_gaps():
    import time

    from serve_load import IDLE_GAP_S, Req, run_open_loop

    class Slow:
        """A connection whose every request takes 10 ms."""

        def request(self, method, path, body=None):
            time.sleep(0.010)
            return 200, {}

    # Connection 0 every 60 ms; connection 1 twice in quick succession,
    # leaving no idle gap around its first request.
    reqs = [Req("check", 0.060 * i, 0) for i in range(5)]
    reqs += [Req("check", 0.070, 1), Req("check", 0.085, 1)]
    marks = run_open_loop([Slow(), Slow()], reqs, {}, time.perf_counter(),
                          calibrate=True)
    assert marks and marks == sorted(marks)
    for start, seconds in marks:
        assert seconds > 0
        assert not any(r.sent <= start < r.done for r in reqs)
        assert all(r.due_at - start > IDLE_GAP_S for r in reqs if r.due_at > start)
    assert run_open_loop([Slow()], [Req("check", 0.0, 0)], {},
                         time.perf_counter()) == []


def test_verifier_reports_the_disagreeing_models():
    v = Verifier()
    v.expect("h", {"SC": True, "TSO": False}, "11", ("SC", "TSO"))
    assert v.mismatches == ["h: TSO"] and v.compared == 2


def test_store_buffer_reference_matches_the_catalog():
    from repro.litmus import CATALOG

    for test in CATALOG.values():
        expected = test.expected.get("TSO-axiomatic")
        if expected is not None:
            assert store_buffer_allows(test.history) == expected, test.name
    from repro.litmus import parse_history

    assert store_buffer_allows(parse_history("p: w(x)1 r(y)0 | q: w(y)1 r(x)0"))
    assert not store_buffer_allows(parse_history("p: w(x)1 | q: r(x)1 r(x)0"))


def test_combine_divides_each_rounds_times_by_its_host_slowdown():
    from workloads import Outcome, combine

    ref = common.CALIBRATION_REFERENCE_S
    fast = Outcome(verdicts=1, host=[ref], units={"check": {1: 0.010}, "append": {}})
    slow = Outcome(verdicts=1, host=[2 * ref], units={"check": {1: 0.016},
                                                      "append": {}})
    for r in (fast, slow):
        r.units["append"] = {i: 0.001 for i in range(20)}
    out = combine([fast, slow], best=("check",))
    assert out.units["check"] == {1: pytest.approx(0.008)}
    assert out.metrics["checks_per_s"][0] == pytest.approx(125.0)
    measured = next(n for n in out.notes if n.startswith("as measured: "))
    assert "checks_per_s=100," in measured
    samples = []
    common.calibrate(samples, 3)
    assert len(samples) == 3 and all(s > 0 for s in samples)
    assert common.host_slowdown([ref * 1.5]) == pytest.approx(1.5)


def test_metric_names_and_units_match_benchmark_json():
    import json

    import layers
    import run

    bench = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (n, layers.unit_of(n)) for n in layers.names()
    ]


# -- helper processes --------------------------------------------------------------


def test_stop_resource_tracker_reaps_the_tracker():
    import os
    from multiprocessing import resource_tracker, shared_memory

    segment = shared_memory.SharedMemory(create=True, size=64)
    segment.close()
    segment.unlink()
    pid = resource_tracker._resource_tracker._pid
    assert pid is not None
    common.stop_resource_tracker()
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)
    common.stop_resource_tracker()  # a second call is a no-op
