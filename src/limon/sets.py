"""Set and multiset linearizability monitors.

Both checkers are online: they consume the call/return events of a
history in timestamp order and decide in a single pass.  An event is a
flat tuple, `history.StreamEvent`, as `parse_event_stream` yields it from
a stream and `history_events` from a history's columns, by merging the
calls, in call order, with the returns, sorted once: neither builds a
record per event, nor the whole list of events.  For multisets
(add/remove only) the whole criterion is a per-value count: a prefix in
which returned removes outnumber called adds is exactly a violation.

The set checker keeps, per value, its membership (the set starts empty),
the time of its last change, and credits: calls bank "active" adds and
removes; a return that needs the other state first linearizes one banked
credit of the other kind (ensure_state), and failing that, the history is
unlinearizable.  A returning add or remove stands in for a linearized one
of its kind only if it was called before that credit was consumed;
otherwise it linearizes at its return.  A membership query is checked at
its return alone: it linearizes where its answer holds, which is anywhere
in its window if the value's state changed after its call, and otherwise
only where the state has been since its call.  A failing add is the query
that the value is present, a failing remove that it is absent.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterable, Iterator

from .history import (
    ADD,
    CONTAINS,
    REMOVE,
    History,
    HistoryError,
    StreamEvent,
    Verdict,
    WorkCounter,
)


class _OpCounters:
    """Operations of one kind on one value that have been called but have
    not returned, and the times at which some of them were linearized."""

    __slots__ = ("active", "credits")

    def __init__(self) -> None:
        self.active = 0
        self.credits: list[int] = []  # ascending

    def claim(self, call: int) -> bool:
        """Let an operation called at `call` return as the one linearized at
        the earliest credit it was active for; False if there is none."""
        i = bisect_left(self.credits, call)
        if i == len(self.credits):
            return False
        del self.credits[i]
        return True


class SetValueState:
    """Per-value checker state: membership, the time it last changed, and
    the add/remove credits."""

    __slots__ = ("state", "flipped", "adds", "removes")

    def __init__(self) -> None:
        self.state = False  # the set starts empty
        self.flipped = float("-inf")  # below every timestamp, negative ones too
        self.adds = _OpCounters()
        self.removes = _OpCounters()


_NO_CALL = (float("inf"), None, None, None, None)  # after the last call: later than any return


def history_events(h: History) -> Iterator[StreamEvent]:
    """The call/return events of a history in timestamp order, lazily: the
    calls, in row order, merged with the returns, whose rows are sorted
    once and kept as machine integers.  Both events of an operation carry
    its outcome.  The first event raises HistoryError as `History.columns` does."""
    call, ret, kind, value, outcome, op_id = h.columns
    by_ret = array("l", sorted(range(len(call)), key=ret.__getitem__))
    calls = zip(call, kind, value, outcome, op_id)
    c, k, v, o, i = next(calls, _NO_CALL)
    for r in by_ret:
        ts = ret[r]
        while c < ts:
            yield c, True, k, v, o, i, c
            c, k, v, o, i = next(calls, _NO_CALL)
        yield ts, False, kind[r], value[r], outcome[r], op_id[r], call[r]


def normalize_failing_ops(h: History) -> History:
    """Replace failing adds/removes by the membership query they imply, as
    set_linearizable_events reads them: a failing add means the element was
    already present, contains(v, true); a failing remove that it was
    absent, contains(v, false).  The verdict does not change."""
    if h.adt != "set":
        raise HistoryError("failing-operation normalization applies to sets")
    cols = h.columns
    kind, outcome = list(cols.kind), list(cols.outcome)
    for i, o in enumerate(outcome):
        if o is False and (kind[i] == ADD or kind[i] == REMOVE):
            kind[i], outcome[i] = CONTAINS, kind[i] == ADD
    return History._from_columns("set", cols._replace(kind=kind, outcome=outcome))


def ensure_state(st: SetValueState, q: bool, ts: int) -> bool:
    """Force the per-value state to q at ts, the time of the event being
    processed, by linearizing an active operation there, whose credit
    records ts.  Returns False when no active operation can justify the
    change; the caller then declares the history unlinearizable."""
    if st.state is q:
        return True
    counters = st.adds if q else st.removes
    if counters.active <= len(counters.credits):
        return False
    counters.credits.append(ts)
    st.state, st.flipped = q, ts
    return True


def _fail(value: int, ts: int, reason: str) -> Verdict:
    return Verdict(False, {"kind": "set-violation", "value": value,
                           "timestamp": ts, "reason": reason})


def set_linearizable_events(events: Iterable[StreamEvent],
                            counter: WorkCounter | None = None) -> Verdict:
    """Run the online set checker over an ordered event stream.  A failing
    add or remove is the membership query it implies (see
    normalize_failing_ops), so its call banks nothing; that call must carry
    the outcome False, as in history_events, or its return raises
    HistoryError."""
    states: dict[int, SetValueState] = {}
    failing: set[int] = set()  # ids of failing adds and removes called, not returned
    for ts, is_call, kind, value, outcome, op_id, call in events:
        if counter is not None:
            counter.add(1)
        st = states.get(value)
        if st is None:
            st = states[value] = SetValueState()
        if kind == ADD or kind == REMOVE:
            if outcome is not False:
                ops = st.adds if kind == ADD else st.removes
                if is_call:
                    ops.active += 1
                    continue
                if not ops.claim(call):
                    q = kind == ADD
                    if not ensure_state(st, not q, ts):
                        return _fail(value, ts, "ensure-state-failure")
                    st.state, st.flipped = q, ts
                ops.active -= 1
                continue
            # A failing add found the value present, a failing remove absent.
            # Its call must say that it fails, or it would have banked a credit.
            if is_call:
                failing.add(op_id)
                continue
            if op_id not in failing:
                raise HistoryError(f"failing {kind} id {op_id} was called without its outcome")
            failing.remove(op_id)
            outcome = kind == ADD
        elif kind != CONTAINS:
            raise HistoryError(f"event kind {kind!r} illegal for sets")
        # A query is checked at its return: unless the state changed inside
        # its window, its answer must be the state it has had since the call.
        if not is_call and st.flipped < call and outcome is not st.state:
            if outcome is None:
                raise HistoryError(f"contains id {op_id} returned no answer")
            if not ensure_state(st, outcome, ts):
                return _fail(value, ts, "ensure-state-failure")
    return Verdict(True)


def multiset_linearizable_events(events: Iterable[StreamEvent],
                                 counter: WorkCounter | None = None) -> Verdict:
    """Run the online multiset checker over an ordered event stream."""
    counts: dict[int, list[int]] = {}
    for ts, is_call, kind, value, outcome, _, _ in events:
        if outcome is False:
            raise HistoryError("failing operations are not defined for multisets")
        if counter is not None:
            counter.add(1)
        c = counts.get(value)
        if c is None:
            c = counts[value] = [0, 0]
        if kind == ADD:
            if is_call:
                c[0] += 1
        elif kind != REMOVE:
            raise HistoryError(f"event kind {kind!r} illegal for multisets")
        elif not is_call:
            c[1] += 1
            if c[1] > c[0]:
                return Verdict(False, {"kind": "set-violation", "value": value,
                                       "timestamp": ts, "reason": "count-violation"})
    return Verdict(True)


def set_linearizable(h: History, *, counter: WorkCounter | None = None) -> Verdict:
    """Decide whether a set history (add/remove/contains) is linearizable."""
    if h.adt != "set":
        raise HistoryError(f"set monitor got adt {h.adt!r}")
    return set_linearizable_events(history_events(h), counter)


def multiset_linearizable(h: History, *, counter: WorkCounter | None = None) -> Verdict:
    """Decide whether a multiset history (add/remove) is linearizable."""
    if h.adt != "multiset":
        raise HistoryError(f"multiset monitor got adt {h.adt!r}")
    return multiset_linearizable_events(history_events(h), counter)
