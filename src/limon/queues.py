"""Queue linearizability monitor.

A completed, differentiated queue history is unlinearizable exactly when
some value's T-segment [enq-call, deq-return] is contained in another
value's I-segment [enq-return, deq-call]: the inner value is then fully
sandwiched inside the outer one, violating FIFO order.  Such a pair is a
critical pair.  The paper finds one with a red-black tree augmented with
high keys; here the same containment query is answered in O(n log n) by
the I-segments sorted by left end with a running maximum of their right
ends: some I-segment contains [c, r] iff the farthest right end among
those starting at or before c reaches r.
"""

from __future__ import annotations

from bisect import bisect_right

from .history import (
    POP_EMPTY,
    History,
    HistoryError,
    Interval,
    Verdict,
    WorkCounter,
    complete_history,
    differentiate,
    unmatched_pops,
)
from .stacks import _sort_cost, op_to_val


class ContainmentIndex:
    """Intervals sorted by left end, each position holding the farthest
    right end reached so far and the value whose interval reaches it."""

    __slots__ = ("lefts", "reach", "owner")

    def __init__(self, entries: list[tuple[Interval, int]],
                 counter: WorkCounter | None = None):
        items = sorted(entries, key=lambda e: e[0].left)
        if counter is not None:
            counter.add(_sort_cost(len(items)))
        self.lefts = [iv.left for iv, _ in items]
        self.reach: list[int] = []
        self.owner: list[int] = []
        best = who = None
        for iv, value in items:
            if best is None or iv.right > best:
                best, who = iv.right, value
            self.reach.append(best)
            self.owner.append(who)

    def container(self, q: Interval, counter: WorkCounter | None = None) -> int | None:
        """Return the value of the farthest-reaching interval containing q,
        or None when no interval contains it."""
        if counter is not None:
            counter.add(len(self.lefts).bit_length())
        i = bisect_right(self.lefts, q.left)
        if i and self.reach[i - 1] >= q.right:
            return self.owner[i - 1]
        return None


def queue_linearizable(h: History, *, counter: WorkCounter | None = None) -> Verdict:
    """Decide whether a queue history is linearizable.

    Preprocessing mirrors the stack monitor: differentiation, completion
    of unmatched enqueues with trailing concurrent dequeues, and the same
    semantic-violation verdicts for dequeues without a matching enqueue.
    Values whose enqueue and dequeue overlap contribute no I-segment (they
    are never containers) but are still probed for containment of their
    T-segment.  A value never contains itself: its I-segment starts at its
    enqueue's return, after the enqueue's call where its T-segment starts.
    That, and the verdict, assume distinct timestamps, as `validate` checks.
    """
    if h.adt != "queue":
        raise HistoryError(f"queue monitor got adt {h.adt!r}")
    if any(op.event.kind == POP_EMPTY for op in h.ops):
        raise HistoryError("dequeue-on-empty events are not defined for queues")
    unmatched = unmatched_pops(h)
    if unmatched:
        return Verdict(False, {"kind": "unmatched-pop", "value": unmatched[0]})

    dh, back = differentiate(h)
    dh = complete_history(dh)
    vals = op_to_val(dh)
    popped_first = [v for v, av in vals.items() if av.pop_ret < av.push_call]
    if popped_first:
        v = min(popped_first)
        return Verdict(False, {"kind": "pop-before-push", "value": back.get(v, v)})

    index = ContainmentIndex([(iseg, v.value) for v in vals.values()
                              if (iseg := v.i_segment) is not None], counter)
    probes = sorted(vals.values(), key=lambda av: av.push_call)
    if counter is not None:
        counter.add(_sort_cost(len(probes)))
    for v in probes:
        outer = index.container(v.t_segment, counter)
        if outer is not None:
            return Verdict(False, {
                "kind": "critical-pair",
                "inner": back.get(v.value, v.value),
                "outer": back.get(outer, outer),
            })
    return Verdict(True)
