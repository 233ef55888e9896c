"""Per-layer metrics of the traced run, and which end-to-end figure each moves.

:data:`LAYERS` is the layer-to-metric map: for each layer (a module of the
program), the per-layer metrics it reports, the end-to-end metric a change
to that layer should move, and the workload on which it should move it.
:func:`layer_metrics` computes every per-layer metric from a span roll-up
and the public return values the workloads collected; a layer a workload
never reaches reports zero.
"""

from __future__ import annotations

import statistics

import inputs

LAYERS = (
    ("repro.staticcheck.prepass",
     ("prepass.calls", "prepass.self_s", "prepass.decided_ratio"),
     ("checks_per_s", "check_p50_ms"), ("sweep", "serve")),
    ("repro.kernel.constraints",
     ("constraints.plane_s", "constraints.compile_s",
      "constraints.plane_cache_hit_ratio"),
     ("checks_per_s",), ("sweep",)),
    ("repro.kernel.rf", ("rf.attributions",), ("checks_per_s",), ("heavy",)),
    ("repro.kernel.serializations",
     ("serializations.candidates", "serializations.self_s"),
     ("checks_per_s", "check_tail_ms"), ("heavy",)),
    ("repro.kernel.backend",
     ("backend.gate_calls", "backend.gate_s", "backend.gate_pass_ratio"),
     ("checks_per_s",), ("heavy",)),
    ("repro.kernel.search", ("search.explored", "search.self_s"),
     ("check_tail_ms",), ("heavy",)),
    ("repro.checking (fast paths)", ("checking.calls", "checking.self_s"),
     ("checks_per_s",), ("sweep",)),
    ("repro.engine (pool, arena)",
     ("engine.busy_share", "engine.dispatch_s", "engine.relation_cache_hit_ratio"),
     ("checks_per_s", "setup_s"), ("sweep",)),
    ("repro.engine.session / repro.kernel.incremental",
     ("session.append_self_s", "session.prefix_reuse_ratio"),
     ("append_tail_ms",), ("serve",)),
    ("repro.serve",
     ("serve.service_ms", "serve.http_overhead_ms",
      "serve.response_cache_hit_ratio", "serve.generator_late_ms"),
     ("check_tail_ms",), ("serve",)),
    ("repro.engine.sqlstore / repro.core.serialization",
     ("sqlstore.append_s", "serialization.encode_s"),
     ("check_p50_ms",), ("serve",)),
    ("repro.obs (this benchmark's tracing)",
     ("obs.tracing_overhead_share", "obs.trace_events"),
     ("check_p50_ms",), ("serve",)),
)

UNITS = {
    "calls": "count", "attributions": "count", "candidates": "count",
    "gate_calls": "count", "explored": "count", "trace_events": "count",
}


def unit_of(name: str) -> str:
    tail = name.split(".", 1)[1]
    if tail in UNITS:
        return UNITS[tail]
    if tail.endswith("_ratio") or tail.endswith("_share"):
        return "ratio"
    if tail.endswith("_ms"):
        return "ms"
    return "s"


def names() -> list[str]:
    return [m for _, metrics, _, _ in LAYERS for m in metrics]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(roll: dict, out, overhead: float) -> dict[str, float]:
    """Every per-layer metric, from a roll-up and a traced ``Outcome``."""
    calls, total, self_s, counts = (
        roll["calls"], roll["total_s"], roll["self_s"], roll["counts"]
    )
    layer = out.layer
    engine = layer.get("engine", [])
    rel_hits = sum(e["cache_hits"] for e in engine)
    rel_lookups = rel_hits + sum(e["cache_misses"] for e in engine)
    stats = layer.get("stats", {})
    plane = stats.get("plane_cache") or layer.get("plane") or {
        "hits": counts.get("plane_hits", 0), "misses": counts.get("plane_misses", 0)
    }
    sessions = stats.get("sessions") or layer.get("sessions") or {}
    service_ms = _ratio(total["serve.service"], calls["serve.service"]) * 1e3
    client = layer.get("client_check_ms", [])
    checks_sent = layer.get("checks_sent", 0)
    m = {
        "prepass.calls": calls["prepass.check"],
        "prepass.self_s": self_s["prepass.check"],
        "prepass.decided_ratio": _ratio(
            counts.get("prepass_decided", 0), calls["prepass.check"]
        ),
        "constraints.plane_s": self_s["constraints.plane"],
        "constraints.compile_s": self_s["constraints.compile"]
        + self_s["constraints.attribution"],
        "constraints.plane_cache_hit_ratio": _ratio(
            plane["hits"], plane["hits"] + plane["misses"]
        ),
        # One attribution plane per reads-from attribution the search tries,
        # whether enumerated by repro.kernel.rf or the history's unique one.
        "rf.attributions": calls["constraints.attribution"],
        "serializations.candidates": counts.get("serializations.candidates", 0),
        "serializations.self_s": self_s["serializations.candidates"]
        + self_s["serializations.extras"],
        "backend.gate_calls": calls["backend.gate"],
        "backend.gate_s": total["backend.gate"],
        "backend.gate_pass_ratio": _ratio(
            counts.get("gate_passed", 0), counts.get("gate_planes", 0)
        ),
        "search.explored": counts.get("explored", 0),
        "search.self_s": self_s["search.check"],
        "checking.calls": calls["checking.check"],
        "checking.self_s": self_s["checking.check"],
        "engine.busy_share": _ratio(
            total["engine.chunk"], total["engine.run"] * inputs.JOBS
        ),
        "engine.dispatch_s": self_s["engine.run"],
        "engine.relation_cache_hit_ratio": _ratio(rel_hits, rel_lookups),
        "session.append_self_s": self_s["session.append"],
        "session.prefix_reuse_ratio": _ratio(
            sessions.get("reuse_hits", 0),
            sessions.get("reuse_hits", 0) + sessions.get("reuse_misses", 0),
        ),
        "serve.service_ms": service_ms,
        "serve.http_overhead_ms": (
            statistics.mean(client) - service_ms if client and service_ms else 0.0
        ),
        "serve.response_cache_hit_ratio": _ratio(
            stats.get("counters", {}).get("cache_hits", 0), checks_sent
        ),
        "serve.generator_late_ms": layer.get("generator_late_ms", 0.0),
        "sqlstore.append_s": total["sqlstore.append"],
        "serialization.encode_s": total["serialization.encode"],
        "obs.tracing_overhead_share": overhead,
        "obs.trace_events": roll["spans"],
    }
    return m
