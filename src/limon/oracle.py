"""Ground truth: exhaustive interleaving search.

The brute-force oracle enumerates linearizations directly (memoized over
completed-operation sets and abstract states), so it is exact for any of
the four data types but exponential; it is the arbiter for differential
tests at small operation counts.
"""

from __future__ import annotations

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
    Verdict,
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
    """An empty stack or queue (a tuple), set or multiset (a frozenset, of
    (value, count) pairs for a multiset)."""
    return () if adt in ("stack", "queue") else frozenset()


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
    keeps histories of a dozen operations tractable.  It reads the columns,
    so it refuses with HistoryError what the monitors refuse.
    """
    n = len(h)
    if n > max_ops:
        raise BoundExceeded(f"{n} operations exceed the oracle bound {max_ops}")
    cols = h.columns
    events = list(map(Event, cols.kind, cols.value, cols.outcome))
    preds = [0] * n
    for i, call in enumerate(cols.call):
        for j, ret in enumerate(cols.ret):
            if ret < call:
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
            nxt = _fire(state, events[i], h.adt)
            if nxt is _ILLEGAL:
                continue
            if search(done | bit, nxt):
                return True
        dead.add(key)
        return False

    return Verdict(search(0, _initial_state(h.adt)))
