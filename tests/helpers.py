"""Shared test helpers: history builders and independent reference checks."""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations
from pathlib import Path

from limon import AttributedValue, Event, History, Interval, Operation, Verdict
from limon.history import _FRESH_BASE, POP, POP_EMPTY, PUSH
from limon.oracle import sequential_check
from limon.stacks import _prepare


def limon_env(**overrides: str) -> dict:
    """The environment for a child interpreter that imports limon from this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **overrides)


def value_history(adt: str, rows) -> History:
    """Build a history from (value, push_call, push_ret, pop_call, pop_ret) rows;
    a None pop_call marks an unmatched push."""
    ops = []
    op_id = 0
    for value, pc, pr, qc, qr in rows:
        ops.append(Operation(op_id, Event("push", value), pc, pr))
        op_id += 1
        if qc is not None:
            ops.append(Operation(op_id, Event("pop", value), qc, qr))
            op_id += 1
    return History(adt, tuple(ops))


def nested_stack(n: int) -> History:
    """Push value v over [2v, 2v+1] for v = 1..n, then pop them in reverse:
    the recursion peels exactly one extreme value per round."""
    ops = [Operation(v - 1, Event("push", v), 2 * v, 2 * v + 1) for v in range(1, n + 1)]
    t = 2 * n + 2
    for v in range(n, 0, -1):
        ops.append(Operation(len(ops), Event("pop", v), t, t + 1))
        t += 2
    return History("stack", tuple(ops))


def fold_values(h: History, pool: int) -> History:
    """Rename every value v to v % pool, so values repeat (gen_random always
    draws fresh stack values)."""
    return History(h.adt, tuple(
        Operation(op.id, Event(op.event.kind, op.event.value % pool), op.call, op.ret)
        if op.event.value is not None else op for op in h.ops))


# Staggered walkthrough history (values 2..8): four P-segments, no extreme
# value, first internal D-segment [12,15].  Exercises every branch of the
# stack recursion: merge, partition, and batch extreme removal.
STAGGERED_ROWS = [
    (2, 3, 6, 9, 19),
    (3, 5, 8, 12, 14),
    (4, 7, 15, 20, 24),
    (5, 10, 16, 21, 25),
    (6, 11, 17, 22, 26),
    (7, 18, 23, 27, 28),
    (8, 13, 29, 31, 35),
]

# Queue walkthrough histories: (value, enq_call, enq_ret, deq_call, deq_ret).
# The first is linearizable; the second sandwiches value 5's total window
# inside value 3's certainty window, the critical pair (3, 5).
QUEUE_OK_ROWS = [
    (1, 3, 5, 10, 12),
    (2, 4, 8, 13, 16),
    (3, 6, 14, 25, 27),
    (4, 9, 15, 19, 21),
    (5, 7, 17, 18, 22),
    (6, 11, 20, 23, 26),
    (7, 24, 28, 29, 31),
]
QUEUE_BAD_ROWS = [
    (1, 3, 5, 10, 12),
    (2, 4, 8, 13, 16),
    (3, 6, 11, 25, 27),
    (4, 9, 15, 19, 21),
    (5, 14, 17, 18, 22),
    (6, 7, 20, 23, 26),
    (7, 24, 28, 29, 31),
]


def naive_linearizable(h: History) -> bool:
    """All-permutations enumerator; exact but factorial, keep inputs tiny."""
    ops = list(h.ops)
    for perm in permutations(ops):
        ordered = True
        for i in range(len(perm)):
            for j in range(i + 1, len(perm)):
                if perm[j].ret < perm[i].call:
                    ordered = False
                    break
            if not ordered:
                break
        if ordered and sequential_check([op.event for op in perm], h.adt):
            return True
    return False


@dataclass(frozen=True, slots=True)
class CriticalPair:
    """Two values a (inner) and v (outer) with T(a) contained in I(v)."""

    inner: int
    outer: int


def find_critical_pair_naive(vals) -> CriticalPair | None:
    """Quadratic reference scan over all ordered pairs testing T(a) in I(v)."""
    if isinstance(vals, dict):
        vals = vals.values()
    vs = sorted(vals, key=lambda v: v.value)
    for a in vs:
        t = a.t_segment
        for v in vs:
            if v.value == a.value:
                continue
            iseg = v.i_segment
            if iseg is not None and iseg.contains(t):
                return CriticalPair(inner=a.value, outer=v.value)
    return None


def matched(h: History) -> bool:
    """True when every pushed value has exactly as many pops as pushes."""
    counts: dict[int, int] = {}
    for op in h.ops:
        if op.event.kind == PUSH:
            counts[op.event.value] = counts.get(op.event.value, 0) + 1
        elif op.event.kind == POP:
            counts[op.event.value] = counts.get(op.event.value, 0) - 1
    return all(n == 0 for n in counts.values())


def check_pop_empty(h: History, d_segs: list[Interval]) -> History | Verdict:
    """Remove pop-empty operations that can linearize inside a D-segment.

    A pop-empty is placeable iff its interval intersects some D-segment;
    an unplaceable one makes the whole history unlinearizable, returned as
    a Verdict carrying the failing interval.
    """
    kept = []
    for op in h.ops:
        if op.event.kind != POP_EMPTY:
            kept.append(op)
            continue
        iv = op.interval
        if not any(iv.intersects(d) for d in d_segs):
            return Verdict(False, {"kind": "pop-empty", "interval": iv.as_pair()})
    return History(h.adt, tuple(kept))


def scan_container(entries: list[tuple[Interval, int]], q: Interval) -> set[int]:
    """Linear-scan reference for interval containment queries."""
    return {v for iv, v in entries if iv.contains(q)}


def reference_stack_linearizable(h: History, observer=None) -> Verdict:
    """The stack recursion as first written: every round re-sweeps the whole
    group for its P- and D-segments and its extreme values (quadratic).
    Preprocessing is shared with the monitor; only the round loop differs."""
    prepared = _prepare(h, None)
    if isinstance(prepared, Verdict):
        return prepared
    t, rows = prepared
    vals = [AttributedValue(_FRESH_BASE + x, t.push_call[x], t.push_ret[x],
                            t.pop_call[x], t.pop_ret[x]) for x in rows]
    pending = [vals]
    while pending:
        vs = pending.pop()
        if not vs:
            continue
        p = []
        for v in vs:  # sorted by push-return
            if p and v.push_ret <= p[-1][1]:
                p[-1] = (p[-1][0], max(p[-1][1], v.pop_call))
            else:
                p.append((v.push_ret, v.pop_call))
        ends = [a for a, _ in p] + [max(v.pop_ret for v in vs)]
        d = list(zip([min(v.push_call for v in vs)] + [b for _, b in p], ends))
        (f0, f1), (l0, l1) = d[0], d[-1]
        ex = {v.value for v in vs if v.push_call <= f1 and f0 <= v.push_ret
              and v.pop_call <= l1 and l0 <= v.pop_ret}
        if observer is not None:
            observer(tuple(vs), [Interval(a, b) for a, b in p],
                     [Interval(a, b) for a, b in d], set(ex))
        if ex:
            pending.append([v for v in vs if v.value not in ex])
        elif len(d) <= 2:
            return Verdict(False, {"kind": "no-separation", "values":
                                   sorted(t.value[v.value - _FRESH_BASE] for v in vs)})
        else:
            cut = d[1][0]
            pending.append([v for v in vs if v.push_ret <= cut])
            pending.append([v for v in vs if v.push_ret > cut])
    return Verdict(True)


class StackTally:
    """Observer counting rounds, extreme values peeled and splits."""

    def __init__(self) -> None:
        self.rounds = self.extremes = self.splits = 0

    def __call__(self, vals, p, d, extremes) -> None:
        self.rounds += 1
        self.extremes += len(extremes)
        self.splits += not extremes and len(d) > 2

    def as_tuple(self) -> tuple[int, int, int]:
        return self.rounds, self.extremes, self.splits
