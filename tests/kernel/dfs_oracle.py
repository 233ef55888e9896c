"""A frozen copy of the view search before its dead-state prunes.

``oracle_dfs_find`` is the body ``repro.kernel.search._dfs_find`` had
when its failure memo keyed on every location's value and it placed any
write whose location value matched.  The pruned search must return the
same order (or ``None``) on every input; ``test_dfs_prunes`` holds it to
that.  Do not edit this file to follow the kernel: it is the reference.
"""

from __future__ import annotations

from typing import Sequence


def oracle_dfs_find(
    n: int,
    pred: Sequence[int],
    op_loc: Sequence[int],
    read_vals: Sequence[int | None],
    write_vals: Sequence[int | None],
    n_locs: int,
    initial: int,
    memoize: bool,
) -> list[int] | None:
    """One legal extension as local indices, or ``None``.

    Deterministic: operations are tried in index order, so given equal
    inputs the same witness is returned.
    """
    full = (1 << n) - 1
    failed: set[tuple[int, tuple[int, ...]]] = set()
    order: list[int] = []

    def dfs(placed: int, values: tuple[int, ...]) -> bool:
        if placed == full:
            return True
        key = (placed, values)
        if memoize and key in failed:
            return False
        for i in range(n):
            bit = 1 << i
            if placed & bit or (pred[i] & ~placed):
                continue
            li = op_loc[i]
            rv = read_vals[i]
            if rv is not None and values[li] != rv:
                continue
            wv = write_vals[i]
            new_values = values
            if wv is not None and values[li] != wv:
                new_values = values[:li] + (wv,) + values[li + 1:]
            order.append(i)
            if dfs(placed | bit, new_values):
                return True
            order.pop()
        if memoize:
            failed.add(key)
        return False

    if dfs(0, tuple([initial] * n_locs)):
        return order
    return None
