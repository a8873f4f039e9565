"""Shared test helpers: history builders and independent reference checks."""

from __future__ import annotations

import os
from collections import deque, namedtuple
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import permutations, product
from pathlib import Path

from limon import ContainmentIndex, Event, History, HistoryError, Operation, Verdict
from limon.history import POP, POP_EMPTY, PUSH, _in_order, _max_timestamp
from limon.oracle import sequential_check
from limon.stacks import _prepare, _sweep_p

# The reference steps name row x of the monitor's value table _FRESH_BASE + x,
# and differentiate numbers its fresh values from _FRESH_BASE.
_FRESH_BASE = 10


def refuse_records(monkeypatch) -> None:
    """Make building an Operation or an Event raise AssertionError."""
    def refuse(*args, **kwargs):
        raise AssertionError("record built")

    for cls in (Operation, Event):
        monkeypatch.setattr(cls, "__new__", refuse)
        monkeypatch.setattr(cls, "_make", classmethod(refuse))


def _gaps_d(lo: int, hi: int, p: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The D-segments of the span [lo, hi] around the sorted P-segments p:
    the gaps between them and the two ends."""
    if not p:
        return [(lo, hi)]
    return [(lo, p[0][0])] + [(a[1], b[0]) for a, b in zip(p, p[1:])] + [(p[-1][1], hi)]


class Interval(namedtuple("Interval", "left right")):
    """Closed interval [left, right]; zero-length intervals are legal."""

    __slots__ = ()

    def __new__(cls, left: int, right: int):
        if left > right:
            raise HistoryError(f"interval [{left},{right}] has left > right")
        return tuple.__new__(cls, (left, right))

    def intersects(self, other: Interval) -> bool:
        # Closed endpoints: [a,b] meets [c,d] iff a <= d and c <= b.
        return self.left <= other.right and other.left <= self.right

    def contains(self, other: Interval) -> bool:
        return self.left <= other.left and other.right <= self.right

    def as_pair(self) -> tuple[int, int]:
        return (self.left, self.right)


class AttributedValue(namedtuple("AttributedValue",
                                 "value push_call push_ret pop_call pop_ret")):
    """A value together with the four timestamps of its push and pop."""

    __slots__ = ()

    @property
    def i_segment(self) -> Interval | None:
        """[push-return, pop-call]: the window the value is certainly inside.

        None when push and pop overlap (no certainty window exists).
        """
        if self.push_ret > self.pop_call:
            return None
        return Interval(self.push_ret, self.pop_call)

    @property
    def t_segment(self) -> Interval:
        """[push-call, pop-return]: the total window of both operations."""
        return Interval(self.push_call, self.pop_ret)


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


def split_chain(k: int) -> History:
    """The family S_k = push e_k, S_{k-1}, push t_k, pop t_k, pop e_k, every
    operation sequential (e_v = 2v - 1, t_v = 2v): each round peels e_k and
    splits the one-value tail t_k off the 4(k - 1) operations of S_{k-1}."""
    seq = [(PUSH, 2 * v - 1) for v in range(k, 0, -1)]
    for v in range(1, k + 1):
        seq += [(PUSH, 2 * v), (POP, 2 * v), (POP, 2 * v - 1)]
    return History("stack", tuple(Operation(n, Event(kind, value), 2 * n, 2 * n + 1)
                                  for n, (kind, value) in enumerate(seq)))


def buried_peels(k: int) -> History:
    """Values 1..k are pushed under value 0, whose push returns first, and
    popped before it; their pops return one by one among k sequential tail
    values k+1..2k.  Each round splits off the last tail value and then
    peels the lowest of 1..k, so a sweep from the front steps over every
    value peeled so far unless peeled entries are dropped."""
    t = 40 * k
    rows = [(0, 0, 10 * k + 5, 30 * k, 30 * k + 1)]
    for r in range(1, k + 1):
        rows.append((r, r, 10 * k + 5 + r, 20 * k + r, t + 8 * (k - r) + 12))
        rows.append((k + r, t + 8 * r, t + 8 * r + 1, t + 8 * r + 2, t + 8 * r + 3))
    return value_history("stack", rows)


def pop_empty_triples(n: int) -> History:
    """n sequential triples push v, pop v, popempty: n + 1 D-segments, and
    each pop-empty meets only the one after its own value's pop."""
    seq = [ev for v in range(n) for ev in (Event(PUSH, v), Event(POP, v), Event(POP_EMPTY))]
    return History("stack", tuple(Operation(i, ev, 2 * i, 2 * i + 1)
                                  for i, ev in enumerate(seq)))


def fold_values(h: History, pool: int) -> History:
    """Rename every value v to v % pool, so values repeat (gen_random always
    draws fresh stack values)."""
    return History(h.adt, tuple(
        Operation(op.id, Event(op.event.kind, op.event.value % pool), op.call, op.ret)
        if op.event.value is not None else op for op in h.ops))


def endpoint_orders(k: int) -> Iterator[list[tuple[int, int]]]:
    """Every order of the 2k call and return endpoints of k operations in
    which the calls come in operation order, as the (call, return)
    timestamps 0..2k-1 of each operation: (2k-1)!! orders."""
    calls, rets = [0] * k, [0] * k

    def place(t: int, called: int, pending: tuple[int, ...]):
        if t == 2 * k:
            yield list(zip(calls, rets))
            return
        if called < k:
            calls[called] = t
            yield from place(t + 1, called + 1, pending + (called,))
        for op in pending:
            rets[op] = t
            yield from place(t + 1, called, tuple(o for o in pending if o != op))

    return place(0, 0, ())


def small_histories(adt: str, labels: list[Event], max_k: int) -> Iterator[History]:
    """Every history of 1..max_k operations: each endpoint order (see
    endpoint_orders) with each labelling of its operations from labels."""
    for k in range(1, max_k + 1):
        for order in endpoint_orders(k):
            for events in product(labels, repeat=k):
                yield History(adt, [Operation(i, ev, call, ret)
                                    for i, (ev, (call, ret)) in enumerate(zip(events, order))])


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


def unmatched_pops(h: History) -> list[int]:
    """The values popped more often than pushed, sorted."""
    balance: dict[int, int] = {}
    for op in h.ops:
        if op.event.kind == PUSH:
            balance[op.event.value] = balance.get(op.event.value, 0) + 1
        elif op.event.kind == POP:
            balance[op.event.value] = balance.get(op.event.value, 0) - 1
    return sorted(v for v, n in balance.items() if n < 0)


def matched(h: History) -> bool:
    """True when every pushed value has exactly as many pops as pushes."""
    return not unmatched_pops(h) and complete_history(h) is h


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
        iv = Interval(op.call, op.ret)
        if not any(iv.intersects(d) for d in d_segs):
            return Verdict(False, {"kind": "pop-empty", "interval": iv.as_pair()})
    return History(h.adt, tuple(kept))


def scan_container(entries: list[tuple[Interval, int]], q: Interval) -> set[int]:
    """Linear-scan reference for interval containment queries."""
    return {v for iv, v in entries if iv.contains(q)}


def indexed_container(h: History, left: int, right: int):
    """The value whose I-segment a ContainmentIndex over the I-segments of
    h's values reports as containing [left, right], or None."""
    values = [a for a in op_to_val(h).values() if a.i_segment is not None]
    index = ContainmentIndex([a.push_ret for a in values], [a.pop_call for a in values],
                             range(len(values)))
    row = index.container(left, right)
    return None if row is None else values[row].value


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
        p = p_segments(vs)
        d = [Interval(a, b) for a, b in _gaps_d(min(v.push_call for v in vs),
                                                max(v.pop_ret for v in vs),
                                                [s.as_pair() for s in p])]
        ex = extreme_values(vs, d)
        if observer is not None:
            observer(tuple(vs), p, d, ex)
        if ex:
            pending.append([v for v in vs if v.value not in ex])
        elif len(d) <= 2:
            return Verdict(False, {"kind": "no-separation", "values":
                                   _in_order([t.value[v.value - _FRESH_BASE] for v in vs])})
        else:
            cut = d[1].left
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


# Preprocessing, step by step: the reference for history.value_table.

# Sentinel for the empty-stack value in projections: project(h, {EMPTY, ...})
# keeps pop-empty operations.
EMPTY = None


def complete_history(h: History) -> History:
    """Append pairwise-concurrent pops at the end for every unmatched push.

    With M the maximum timestamp and k unmatched values, the i-th appended
    pop (1-based, in push-call order) spans [M+i, M+k+i], so all appended
    pops overlap each other and follow every existing operation.
    """
    if h.adt not in ("stack", "queue"):
        raise HistoryError("completion is defined for stack and queue histories")
    counts: dict[int, int] = {}
    order: list[int] = []
    for op in h.ops:
        v = op.event.value
        if op.event.kind == PUSH:
            if v not in counts:
                order.append(v)
                counts[v] = 0
            counts[v] += 1
        elif op.event.kind == POP:
            # Unmatched pops go negative here; value_table flags them.
            counts[v] = counts.get(v, 0) - 1
    missing = [v for v in order for _ in range(max(counts.get(v, 0), 0))]
    if not missing:
        return h
    m = _max_timestamp(h)
    k = len(missing)
    next_id = max((op.id for op in h.ops), default=-1) + 1
    new_ops = list(h.ops)
    for i, v in enumerate(missing, start=1):
        new_ops.append(Operation(next_id, Event(POP, v), m + i, m + k + i))
        next_id += 1
    return History(h.adt, tuple(new_ops))


def remove_overlapping_pairs(h: History) -> tuple[History, tuple[int, ...]]:
    """Drop values whose push and pop intervals intersect.

    Such a pair linearizes adjacently at any point of the overlap, so it
    never constrains the rest of the history.  Returns the reduced history
    together with the values whose pop strictly precedes its push; any such
    value makes the history immediately unlinearizable.
    """
    push_ops: dict[int, Operation] = {}
    pop_ops: dict[int, Operation] = {}
    for op in h.ops:
        if op.event.kind == PUSH:
            push_ops[op.event.value] = op
        elif op.event.kind == POP:
            pop_ops[op.event.value] = op
    drop: set[int] = set()
    popped_first: list[int] = []
    for v, pop_op in pop_ops.items():
        push_op = push_ops.get(v)
        if push_op is None:
            continue
        if pop_op.ret < push_op.call:
            popped_first.append(v)
        elif Interval(push_op.call, push_op.ret).intersects(Interval(pop_op.call, pop_op.ret)):
            drop.add(v)
    if drop:
        kept = tuple(op for op in h.ops
                     if op.event.kind == POP_EMPTY or op.event.value not in drop)
        h = History(h.adt, kept)
    return h, tuple(sorted(popped_first))


def differentiate(h: History) -> tuple[History, dict[int, int]]:
    """Rewrite reused values to fresh ones, pairing pushes and pops by rank.

    The j-th pop of a value (in call order) is paired with its j-th push.
    Fresh values are consecutive integers from a fixed base; the returned
    map sends each fresh value back to the original one, so diagnostics can
    be reported in the caller's vocabulary.
    """
    if h.adt not in ("stack", "queue"):
        raise HistoryError("differentiation applies to stack and queue histories")
    fresh_to_orig: dict[int, int] = {}
    push_fresh: dict[int, list[int]] = {}  # value -> fresh ids, push-call order
    next_fresh = _FRESH_BASE
    assigned: dict[int, int] = {}  # op id -> fresh value
    for op in h.ops:  # already sorted by call timestamp
        if op.event.kind == PUSH:
            fresh = next_fresh
            next_fresh += 1
            fresh_to_orig[fresh] = op.event.value
            push_fresh.setdefault(op.event.value, []).append(fresh)
            assigned[op.id] = fresh
    ranks: dict[int, int] = {}
    for op in h.ops:
        if op.event.kind == POP:
            v = op.event.value
            j = ranks.get(v, 0)
            ranks[v] = j + 1
            if j >= len(push_fresh.get(v, ())):
                raise HistoryError(f"more pops than pushes of value {v}")
            assigned[op.id] = push_fresh[v][j]
    new_ops = []
    for op in h.ops:
        if op.id in assigned:
            new_ops.append(Operation(op.id, Event(op.event.kind, assigned[op.id]),
                                     op.call, op.ret))
        else:
            new_ops.append(op)
    return History(h.adt, tuple(new_ops)), fresh_to_orig


def project(h: History, values: set) -> History:
    """Keep the operations whose value lies in the given set.

    Pop-empty operations are kept iff the EMPTY sentinel is a member.
    """
    kept = []
    for op in h.ops:
        if op.event.kind == POP_EMPTY:
            if EMPTY in values:
                kept.append(op)
        elif op.event.value in values:
            kept.append(op)
    return History(h.adt, tuple(kept))


def op_to_val(h: History) -> dict[int, AttributedValue]:
    """Extract the value-centric view: one attributed value per value.

    Requires a differentiated, matched history with no same-value overlap
    (the monitor's preprocessing guarantees this).
    """
    push_ops: dict[int, tuple[int, int]] = {}
    pop_ops: dict[int, tuple[int, int]] = {}
    for op in h.ops:
        if op.event.kind == PUSH:
            if op.event.value in push_ops:
                raise HistoryError(f"value {op.event.value} pushed twice")
            push_ops[op.event.value] = (op.call, op.ret)
        elif op.event.kind == POP:
            if op.event.value in pop_ops:
                raise HistoryError(f"value {op.event.value} popped twice")
            pop_ops[op.event.value] = (op.call, op.ret)
    if set(push_ops) != set(pop_ops):
        odd = (set(push_ops) ^ set(pop_ops)).pop()
        raise HistoryError(f"value {odd} is missing its push or pop")
    return {
        v: AttributedValue(v, pc, pr, pop_ops[v][0], pop_ops[v][1])
        for v, (pc, pr) in push_ops.items()
    }


# The stack recursion's steps, over the monitor's own sweeps.

def _as_vals(vals: Iterable[AttributedValue] | dict[int, AttributedValue]) -> list[AttributedValue]:
    if isinstance(vals, dict):
        return list(vals.values())
    return list(vals)


def p_segments(vals: Iterable[AttributedValue] | dict[int, AttributedValue]) -> list[Interval]:
    """Compute the P-segments of a set of attributed values.

    Values are swept in push-return order; a value joins the segment under
    construction iff its push returns no later than the segment's right
    end, extending the segment to its pop-call when that reaches further.
    """
    vs = sorted(_as_vals(vals), key=lambda v: v.push_ret)
    if not vs:
        raise HistoryError("p_segments needs at least one value")
    p = _sweep_p(range(len(vs)), [v.push_ret for v in vs], [v.pop_call for v in vs], None)
    return [Interval(a, b) for a, b in p]


def d_segments(h: History, p_segs: list[Interval]) -> list[Interval]:
    """Compute the D-segments: the complement of the P-segments.

    The span runs from the start to the end of the whole history, which
    for a completed overlap-free history is the earliest push-call and the
    latest pop-return; pop-empty operations extend it when they stick out.
    Always returns len(p_segs) + 1 intervals, the first and last possibly
    zero-length.
    """
    if not h.ops:
        raise HistoryError("empty history has no span")
    lo, hi = min(op.call for op in h.ops), max(op.ret for op in h.ops)
    p = [seg.as_pair() for seg in sorted(p_segs, key=lambda s: s.left)]
    return [Interval(a, b) for a, b in _gaps_d(lo, hi, p)]


def extreme_values(vals: Iterable[AttributedValue] | dict[int, AttributedValue],
                   d_segs: list[Interval]) -> set[int]:
    """Values whose push meets the first D-segment and pop meets the last.

    Equivalently (for the histories reached by the monitor): values with a
    minimal push and a maximal pop, removable without affecting the
    verdict.
    """
    if not d_segs:
        raise HistoryError("extreme_values needs at least one D-segment")
    (f0, f1), (l0, l1) = d_segs[0].as_pair(), d_segs[-1].as_pair()
    return {v.value for v in _as_vals(vals)
            if v.push_call <= f1 and f0 <= v.push_ret
            and v.pop_call <= l1 and l0 <= v.pop_ret}


def partition(h: History, alpha: Interval) -> tuple[History, History]:
    """Split a history around an internal D-segment.

    The left part holds the values whose push returns at or before the
    left end of alpha; the right part holds the rest.  Deciding both parts
    independently is equivalent to deciding the whole history.
    """
    left_values = set()
    for op in h.ops:
        if op.event.kind == POP_EMPTY:
            raise HistoryError("partition expects a pop-empty-free history")
        if op.event.kind == PUSH and op.ret <= alpha.left:
            left_values.add(op.event.value)
    left_ops = tuple(op for op in h.ops if op.event.value in left_values)
    right_ops = tuple(op for op in h.ops if op.event.value not in left_values)
    return History(h.adt, left_ops), History(h.adt, right_ops)


# Order saturation: an unproven baseline, compared with the oracle only.

def saturation_baseline(h: History) -> Verdict:
    """Experimental order-saturation check for stack/queue histories.

    Starting from the real-time precedence order, repeatedly applies
    (stack)  push(a) < push(b) and pop(a) < pop(b)  =>  pop(a) < push(b)
    (queue)  enq(a) < enq(b)  <=>  deq(a) < deq(b)
    together with transitivity, and reports unlinearizable iff the order
    becomes cyclic.  The approach is known to lack a soundness proof;
    disagreements with the oracle are expected to be possible and must be
    logged, never asserted.
    """
    if h.adt not in ("stack", "queue"):
        raise HistoryError("saturation baseline covers stack and queue histories")
    dh, _ = differentiate(h)
    dh = complete_history(dh)
    ops = dh.ops
    n = len(ops)
    succ = [set() for _ in range(n)]
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if a.ret < b.call:
                succ[i].add(j)

    push_of: dict[int, int] = {}
    pop_of: dict[int, int] = {}
    for i, op in enumerate(ops):
        if op.event.kind == PUSH:
            push_of[op.event.value] = i
        elif op.event.kind == POP:
            pop_of[op.event.value] = i
    values = [v for v in push_of if v in pop_of]

    def close() -> None:
        queue = deque(range(n))
        while queue:
            i = queue.popleft()
            added = False
            for j in list(succ[i]):
                extra = succ[j] - succ[i]
                if extra:
                    succ[i] |= extra
                    added = True
            if added:
                queue.append(i)

    changed = True
    while changed:
        close()
        changed = False
        for a in values:
            for b in values:
                if a == b:
                    continue
                pa, pb = push_of[a], push_of[b]
                qa, qb = pop_of[a], pop_of[b]
                if h.adt == "stack":
                    if pb in succ[pa] and qb in succ[qa] and pb not in succ[qa]:
                        succ[qa].add(pb)
                        changed = True
                else:
                    if pb in succ[pa] and qb not in succ[qa]:
                        succ[qa].add(qb)
                        changed = True
                    if qb in succ[qa] and pb not in succ[pa]:
                        succ[pa].add(pb)
                        changed = True
    close()
    for i in range(n):
        if i in succ[i]:
            return Verdict(False, {"kind": "saturation-cycle", "operation": ops[i].id})
    return Verdict(True)


def reference_history_events(h: History) -> list:
    """The call/return events of a set or multiset history as one list,
    sorted stably by timestamp."""
    out = []
    for call, ret, kind, value, outcome, op_id in zip(*h.columns):
        out.append((call, True, kind, value, outcome, op_id, call))
        out.append((ret, False, kind, value, outcome, op_id, call))
    out.sort(key=lambda event: event[0])
    return out
