"""Reference verdicts that the code under test did not produce.

Three independent sources, in order of authority:

* the catalog's hand-written ``expected`` entries;
* the frozen pre-kernel solver, ``repro.checking._legacy_solver``, for every
  spec-backed model;
* for ``TSO-axiomatic`` (which has no framework spec), an exhaustive search
  of the SPARC store-buffer machine written here: processors issue in
  program order, writes enter a per-processor FIFO buffer, buffers drain to
  memory one store at a time, and a read returns its own youngest buffered
  store to the location or else memory.  That machine and the axiomatic
  specification define the same histories.

The legacy solver has no pre-pass, so it is orders of magnitude slower than
the kernel it checks (about 0.16 s per 3x4 history against about 1 ms per
check).  The verdicts of every corpus input are therefore computed ahead of
time by ``make_refs.py`` and stored under ``refs/``; a sweep batch whose
histories no longer match the stored digest is referenced on demand.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path

from common import REFS, bits


def store_buffer_allows(history) -> bool:
    """Whether some run of the SPARC store-buffer machine yields ``history``."""
    from repro.core.operation import INITIAL_VALUE

    programs = [tuple(history[p]) for p in history.procs]
    locations = sorted({op.location for op in history.operations})
    slot = {loc: i for i, loc in enumerate(locations)}
    start = (
        (0,) * len(programs),
        ((),) * len(programs),
        (INITIAL_VALUE,) * len(locations),
    )
    seen = set()
    stack = [start]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        pcs, buffers, memory = state
        if all(pc == len(prog) for pc, prog in zip(pcs, programs)):
            return True
        for i, prog in enumerate(programs):
            buffer = buffers[i]
            if buffer:
                loc, value = buffer[0]
                mem = list(memory)
                mem[slot[loc]] = value
                bufs = list(buffers)
                bufs[i] = buffer[1:]
                stack.append((pcs, tuple(bufs), tuple(mem)))
            if pcs[i] == len(prog):
                continue
            op = prog[pcs[i]]
            advanced = pcs[:i] + (pcs[i] + 1,) + pcs[i + 1 :]
            if op.is_pure_write:
                bufs = list(buffers)
                bufs[i] = buffer + ((op.location, op.value),)
                stack.append((advanced, tuple(bufs), memory))
            elif op.is_pure_read:
                seen_value = memory[slot[op.location]]
                for loc, value in buffer:
                    if loc == op.location:
                        seen_value = value
                if seen_value == op.value:
                    stack.append((advanced, buffers, memory))
            else:
                raise ValueError(f"store-buffer reference: unsupported {op}")
    return False


def compute_verdicts(history, models: tuple[str, ...]) -> dict[str, bool]:
    """Reference verdicts of ``history`` under ``models``, computed now."""
    from repro.checking._legacy_solver import legacy_check_with_spec
    from repro.checking.models import MODELS

    out: dict[str, bool] = {}
    for name in models:
        spec = MODELS[name].spec
        if spec is not None:
            out[name] = legacy_check_with_spec(spec, history).allowed
        elif name == "TSO-axiomatic":
            out[name] = store_buffer_allows(history)
        else:
            raise ValueError(f"no reference for model {name!r}")
    return out


def catalog_verdicts(models: tuple[str, ...]) -> dict[str, dict[str, bool]]:
    """Per catalog entry: hand-written expectations, the rest computed."""
    from repro.litmus import CATALOG

    out = {}
    for name, test in CATALOG.items():
        history = test.history
        missing = tuple(m for m in models if test.expected.get(m) is None)
        verdicts = compute_verdicts(history, missing)
        verdicts.update(
            {m: v for m, v in test.expected.items() if v is not None and m in models}
        )
        out[name] = verdicts
    return out


@cache
def load(pool: str) -> dict:
    """One stored reference file, ``refs/<pool>.json``."""
    return json.loads((REFS / f"{pool}.json").read_text())


class Verifier:
    """Compares verdicts to references and counts what it compared."""

    def __init__(self) -> None:
        self.compared = 0
        self.mismatches: list[str] = []

    def expect(
        self, label: str, got: dict[str, bool], want: str, models: tuple[str, ...]
    ) -> None:
        """Check ``got`` against the ``bits`` string ``want`` over ``models``."""
        self.compared += len(models)
        have = bits(got, models)
        if have != want:
            wrong = [m for m, a, b in zip(models, have, want) if a != b]
            self.mismatches.append(f"{label}: {', '.join(wrong)}")


def write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
