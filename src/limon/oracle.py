"""Ground-truth checkers: exhaustive interleaving search and a saturation baseline.

The brute-force oracle enumerates linearizations directly (memoized over
completed-operation sets and abstract states), so it is exact for any of
the four data types but exponential; it is the arbiter for differential
tests at small operation counts.  The saturation baseline reimplements
the order-saturation approach used by earlier violation checkers; its
soundness has no accepted proof, so it is provided for experiments only
and never used as an oracle.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from .history import (
    ADD,
    CONTAINS,
    POP,
    POP_EMPTY,
    PUSH,
    REMOVE,
    BoundExceeded,  # defined with the other errors, so the CLI need not load this module
    Event,
    History,
    HistoryError,
    Verdict,
    complete_history,
    differentiate,
)


_ILLEGAL = object()


def _fire(state, ev: Event, adt: str):
    """Apply one event to a canonical sequential state; _ILLEGAL if not allowed."""
    if adt == "stack":
        if ev.kind == PUSH:
            return state + (ev.value,)
        if ev.kind == POP:
            if state and state[-1] == ev.value:
                return state[:-1]
            return _ILLEGAL
        if ev.kind == POP_EMPTY:
            return state if not state else _ILLEGAL
    elif adt == "queue":
        if ev.kind == PUSH:
            return state + (ev.value,)
        if ev.kind == POP:
            if state and state[0] == ev.value:
                return state[1:]
            return _ILLEGAL
    elif adt == "set":
        present = ev.value in state
        ok = True if ev.outcome is None else ev.outcome
        if ev.kind == ADD:
            if ok:
                return state | {ev.value} if not present else _ILLEGAL
            return state if present else _ILLEGAL
        if ev.kind == REMOVE:
            if ok:
                return state - {ev.value} if present else _ILLEGAL
            return state if not present else _ILLEGAL
        if ev.kind == CONTAINS:
            return state if present == ev.outcome else _ILLEGAL
    elif adt == "multiset":
        if ev.kind == ADD:
            return _bump(state, ev.value, 1)
        if ev.kind == REMOVE:
            if dict(state).get(ev.value, 0) >= 1:
                return _bump(state, ev.value, -1)
            return _ILLEGAL
    return _ILLEGAL


def _bump(state: frozenset, value: int, delta: int) -> frozenset:
    counts = dict(state)
    counts[value] = counts.get(value, 0) + delta
    if counts[value] == 0:
        del counts[value]
    return frozenset(counts.items())


def _initial_state(adt: str):
    if adt in ("stack", "queue"):
        return ()
    if adt == "set":
        return frozenset()
    return frozenset()  # multiset: frozen (value, count) pairs


def sequential_check(trace: Sequence[Event], adt: str) -> bool:
    """Is the trace a legal sequential behavior of the data type?"""
    state = _initial_state(adt)
    for ev in trace:
        state = _fire(state, ev, adt)
        if state is _ILLEGAL:
            return False
    return True


def brute_force_linearizable(h: History, max_ops: int = 10) -> Verdict:
    """Exact linearizability by memoized search over all interleavings.

    An operation may fire once every operation that precedes it in real
    time has fired; firing must be legal for the sequential data type.
    The memo key is (set of completed operations, canonical state), which
    keeps histories of a dozen operations tractable.
    """
    n = len(h.ops)
    if n > max_ops:
        raise BoundExceeded(f"{n} operations exceed the oracle bound {max_ops}")
    ops = h.ops
    preds = [0] * n
    for i, a in enumerate(ops):
        for j, b in enumerate(ops):
            if b.ret < a.call:
                preds[i] |= 1 << j
    full = (1 << n) - 1
    dead: set = set()

    def search(done: int, state) -> bool:
        if done == full:
            return True
        key = (done, state)
        if key in dead:
            return False
        for i in range(n):
            bit = 1 << i
            if done & bit or (preds[i] & ~done):
                continue
            nxt = _fire(state, ops[i].event, h.adt)
            if nxt is _ILLEGAL:
                continue
            if search(done | bit, nxt):
                return True
        dead.add(key)
        return False

    return Verdict(search(0, _initial_state(h.adt)))


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
