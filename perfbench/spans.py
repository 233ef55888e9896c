"""Span recorder for the traced run, installed from outside the program.

:func:`install` replaces each layer's public entry point, at the names its
callers import, with a wrapper that records a span: name, start, end, the
enclosing span on the same thread, and the outermost one, which the spans of
one check share.  Generators are timed per
``next()``.  Spans live in compact per-thread arrays until the run ends;
then :func:`rollup` turns them into per-span-name counts, durations and
self times (a span's duration minus the time its child spans cover).

The untimed runs never import this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import threading
import time
from array import array
from pathlib import Path

#: Span names, each ``<layer>.<what>``; the index is the stored name id.
NAMES = (
    "prepass.check",
    "constraints.plane",
    "constraints.compile",
    "constraints.attribution",
    "rf.attributions",
    "serializations.candidates",
    "serializations.extras",
    "backend.gate",
    "search.check",
    "checking.check",
    "engine.run",
    "engine.wait",
    "engine.chunk",
    "session.append",
    "serve.service",
    "sqlstore.append",
    "serialization.encode",
)
_ID = {name: i for i, name in enumerate(NAMES)}

#: (module, attribute, span name, kind) for every wrapped entry point.  A
#: function is wrapped in every module that imports it by name, because a
#: caller looks the name up in its own module.
_CHECK_WITH_SPEC_USERS = (
    "repro.kernel.search",
    "repro.kernel.incremental",
    "repro.checking",
    "repro.checking.solver",
    "repro.checking.models",
    "repro.checking.pc",
    "repro.checking.causal",
    "repro.checking.rc",
    "repro.checking.coherence",
    "repro.checking.tso",
    "repro.serve.service",
)
TARGETS = (
    ("repro.staticcheck.prepass", "prepass_check", "prepass.check", "call"),
    ("repro.kernel.constraints", "history_plane", "constraints.plane", "call"),
    ("repro.kernel.search", "history_plane", "constraints.plane", "call"),
    ("repro.kernel.incremental", "history_plane", "constraints.plane", "call"),
    ("repro.engine.arena", "history_plane", "constraints.plane", "call"),
    ("repro.kernel.search", "compile_constraints", "constraints.compile", "call"),
    (
        "repro.kernel.constraints.CompiledConstraints",
        "plane",
        "constraints.attribution",
        "call",
    ),
    ("repro.kernel.search", "iter_attributions", "rf.attributions", "gen"),
    (
        "repro.kernel.search",
        "iter_mutual_candidates",
        "serializations.candidates",
        "gen",
    ),
    ("repro.kernel.search", "iter_labeled_extras", "serializations.extras", "gen"),
    *((m, "check_with_spec", "search.check", "call") for m in _CHECK_WITH_SPEC_USERS),
    ("repro.engine.pool", "check", "checking.check", "call"),
    ("repro.engine.pool.CheckEngine", "run", "engine.run", "call"),
    ("repro.engine.pool.CheckEngine", "_execute", "engine.wait", "gen"),
    ("repro.engine.pool", "_run_chunk_impl", "engine.chunk", "chunk"),
    ("repro.engine.session.EngineSession", "append", "session.append", "call"),
    ("repro.serve.service.CheckService", "_run_check", "serve.service", "call"),
    (
        "repro.engine.sqlstore.SqliteResultStore",
        "append_result",
        "sqlstore.append",
        "call",
    ),
    ("repro.serve.service", "check_result_to_dict", "serialization.encode", "call"),
)


class _Track:
    """One thread's spans: parallel arrays plus the open-span stack."""

    def __init__(self, key: str) -> None:
        self.key = key
        self.pid = os.getpid()
        self.name = array("b")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        #: The outermost span each span runs under: the spans of one check
        #: (or one engine chunk, or one request) share it.
        self.root = array("i")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        parent = self.stack[-1] if self.stack else -1
        self.parent.append(parent)
        self.root.append(self.root[parent] if parent >= 0 else idx)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def export(self) -> dict:
        return {
            "key": self.key,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "root": self.root.tolist(),
            "counts": dict(self.counts),
        }

    def clear(self) -> None:
        self.__init__(self.key)


class Recorder:
    """Holds every thread's span track and the installed wrappers."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.tracks: list[_Track] = []
        self.imported: list[dict] = []
        self._undo: list[tuple[object, str, object]] = []

    def track(self) -> _Track:
        tr = getattr(self._local, "track", None)
        # A forked engine worker inherits its parent's track, open spans
        # and all; it records into a fresh one of its own.
        if tr is None or tr.pid != os.getpid():
            tr = _Track(f"{os.getpid()}:{threading.get_ident()}")
            self._local.track = tr
            with self._lock:
                self.tracks.append(tr)
        return tr

    # -- wrappers --------------------------------------------------------------

    def _call(self, fn, name: str):
        name_id = _ID[name]
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr = self.track()
            idx = tr.open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if count is not None:
                count(tr, args, result)
            return result

        return wrapper

    def _gen(self, fn, name: str):
        name_id = _ID[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedIterator(self, name_id, name, fn(*args, **kwargs))

        return wrapper

    def _chunk(self, fn, name: str):
        """The engine worker's chunk body: spans ride home in its output."""
        call = self._call(fn, name)

        @functools.wraps(fn)
        def wrapper(chunk, state):
            from repro.kernel.constraints import plane_cache_stats

            before = plane_cache_stats()
            out = call(chunk, state)
            after = plane_cache_stats()
            tr = self.track()
            tr.count("plane_hits", after["hits"] - before["hits"])
            tr.count("plane_misses", after["misses"] - before["misses"])
            if os.getpid() != self.pid:
                out["__spans__"] = tr.export()
                tr.clear()
            return out

        return wrapper

    def install(self) -> None:
        """Wrap every entry point in :data:`TARGETS`."""
        self.pid = os.getpid()
        originals: dict[int, object] = {}
        for module_name, attr, name, kind in TARGETS:
            owner = _resolve(module_name)
            fn = getattr(owner, attr)
            make = {"call": self._call, "gen": self._gen, "chunk": self._chunk}[kind]
            wrapped = originals.get(id(fn))
            if wrapped is None or kind == "chunk":
                wrapped = make(fn, name)
                originals[id(fn)] = wrapped
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapped)
        backend_cls = _active_backend_class()
        own = backend_cls.__dict__.get("gate_batch")
        self._undo.append((backend_cls, "gate_batch", own))
        backend_cls.gate_batch = self._call(backend_cls.gate_batch, "backend.gate")
        _patch_execute_unpack(self)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            if fn is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, fn)
        self._undo.clear()

    # -- output ----------------------------------------------------------------

    def export(self) -> list[dict]:
        """Every track recorded in this process plus those shipped in."""
        return [tr.export() for tr in self.tracks] + self.imported

    def dump(self, path: Path) -> None:
        """Write every span (one JSON object per track) to ``path``."""
        with path.open("w") as fh:
            json.dump({"names": list(NAMES), "tracks": self.export()}, fh)


class _TimedIterator:
    """A generator proxy that records one span per ``next()``."""

    __slots__ = ("_recorder", "_id", "_name", "_it")

    def __init__(self, recorder: Recorder, name_id: int, name: str, it) -> None:
        self._recorder = recorder
        self._id = name_id
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tr = self._recorder.track()
        idx = tr.open(self._id)
        try:
            item = next(self._it)
        finally:
            tr.close(idx)
        tr.count(self._name)
        return item


def _resolve(dotted: str):
    """A module, or a class inside one, by dotted name."""
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        module_name, _, cls = dotted.rpartition(".")
        return getattr(importlib.import_module(module_name), cls)


def _active_backend_class():
    from repro.kernel.backend import active_backend

    return type(active_backend())


def _patch_execute_unpack(recorder: Recorder) -> None:
    """Collect worker spans from chunk outputs before the engine reads them."""
    from repro.engine.pool import CheckEngine

    wait = CheckEngine._execute

    @functools.wraps(wait)
    def execute(self, *args, **kwargs):
        for out in wait(self, *args, **kwargs):
            if isinstance(out, dict):
                shipped = out.pop("__spans__", None)
                if shipped is not None:
                    recorder.imported.append(shipped)
            yield out

    recorder._undo.append((CheckEngine, "_execute", wait))
    CheckEngine._execute = execute


def _count_explored(tr: _Track, args, result) -> None:
    tr.count("explored", getattr(result, "explored", 0))


def _count_decided(tr: _Track, args, verdict) -> None:
    if getattr(verdict, "decided", False):
        tr.count("prepass_decided")


def _count_gate(tr: _Track, args, gated) -> None:
    # gate_batch(self, batch, n): one plane per batch row; None = rejected.
    tr.count("gate_planes", len(args[1]))
    tr.count("gate_passed", sum(1 for g in gated if g is not None))


#: Counters read at a span's end from the call's arguments and result.
_COUNTERS = {
    "search.check": _count_explored,
    "prepass.check": _count_decided,
    "backend.gate": _count_gate,
}


# -- roll-up ---------------------------------------------------------------------


def rollup(tracks: list[dict], window: tuple[float, float] | None = None) -> dict:
    """Per span name: calls, total duration and self time, plus counters.

    Self time is a span's duration minus the summed durations of its
    direct children; children on one thread nest inside their parent and
    never overlap, so the self times of a tree add up to its root's
    duration and nothing is counted twice.  ``window`` keeps only spans
    that start inside ``(t0, t1)``.  Also returns ``root_s``, the summed
    duration of parentless spans, for reconciling against wall time.
    """
    calls = [0] * len(NAMES)
    total = [0.0] * len(NAMES)
    self_s = [0.0] * len(NAMES)
    counts: dict[str, int] = {}
    root_s = 0.0
    spans = 0
    for tr in tracks:
        names, start, end, parent = tr["name"], tr["start"], tr["end"], tr["parent"]
        child = [0.0] * len(names)
        keep = [
            window is None or window[0] <= start[i] < window[1]
            for i in range(len(names))
        ]
        for i in range(len(names)):
            if keep[i] and parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        for i in range(len(names)):
            if not keep[i]:
                continue
            dur = end[i] - start[i]
            calls[names[i]] += 1
            total[names[i]] += dur
            self_s[names[i]] += dur - child[i]
            if parent[i] < 0:
                root_s += dur
            spans += 1
        for key, n in tr["counts"].items():
            counts[key] = counts.get(key, 0) + n
    return {
        "calls": dict(zip(NAMES, calls)),
        "total_s": dict(zip(NAMES, total)),
        "self_s": dict(zip(NAMES, self_s)),
        "counts": counts,
        "root_s": root_s,
        "spans": spans,
    }


def reconcile(tracks: list[dict], window: tuple[float, float],
              eps: float = 1e-6) -> dict:
    """Check that the self times of one thread's spans in ``window`` count
    the traced wall once, and split the wall into self times and remainder.

    The summed self times must equal the time the root spans cover, and
    that must fit in the window's wall; the rest of the wall is the
    unwrapped remainder (time spent outside any span).  Because the
    subtraction in :func:`rollup` makes the first equality hold whenever
    every child's parent is kept, the span structure is checked too: each
    child lies inside its parent and its parent starts in the window, a
    parent's children cover no more than its own duration (a span counted
    twice makes its parent's self time negative), and root spans on one
    thread do not overlap.  ``problems`` lists every violation; it is
    empty when the figures add up.
    """
    roll = rollup(tracks, window)
    wall = window[1] - window[0]
    problems = []
    for tr in tracks:
        names, start, end, parent = tr["name"], tr["start"], tr["end"], tr["parent"]
        keep = [window[0] <= s < window[1] for s in start]
        child = [0.0] * len(names)
        roots = []
        for i in (i for i in range(len(names)) if keep[i]):
            p = parent[i]
            if p < 0:
                roots.append(i)
                continue
            child[p] += end[i] - start[i]
            if not keep[p]:
                problems.append(f"{NAMES[names[i]]} span {i}: its parent starts "
                                f"outside the window")
            elif start[i] < start[p] - eps or end[i] > end[p] + eps:
                problems.append(f"{NAMES[names[i]]} span {i}: not inside its "
                                f"parent span {p}")
        for i in (i for i in range(len(names)) if keep[i]):
            if child[i] > end[i] - start[i] + eps:
                problems.append(
                    f"{NAMES[names[i]]} span {i}: children cover {child[i]:.6f} s "
                    f"of its {end[i] - start[i]:.6f} s"
                )
        roots.sort(key=lambda i: start[i])
        for a, b in zip(roots, roots[1:]):
            if start[b] < end[a] - eps:
                problems.append(f"root spans {a} and {b} overlap")
    covered = sum(roll["self_s"].values())
    if abs(covered - roll["root_s"]) > eps:
        problems.append(f"self times {covered:.6f} s differ from the root spans' "
                        f"{roll['root_s']:.6f} s")
    if roll["root_s"] > wall + eps:
        problems.append(f"root spans cover {roll['root_s']:.6f} s of a "
                        f"{wall:.6f} s wall")
    return {
        "self_s": covered,
        "root_s": roll["root_s"],
        "wall": wall,
        "remainder": wall - roll["root_s"],
        "problems": problems,
    }
