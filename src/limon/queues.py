"""Queue linearizability monitor.

A queue history, as its value table rank-pairs and completes it, is
unlinearizable exactly when some value's T-segment [enq-call,
deq-return] is contained in another value's I-segment [enq-return,
deq-call]: the inner value is then fully sandwiched inside the outer one,
violating FIFO order.  Such a pair is a critical pair.  The paper finds
one with a red-black tree augmented with high keys; here the same
containment query is answered in O(n log n) by the I-segments sorted by
left end with a running maximum of their right ends: some I-segment
contains [c, r] iff the farthest right end among those starting at or
before c reaches r.  The index holds the I-segments' left ends in order
and the running farthest right end, and finds the value-table row of a
container, by its left end, only when it reports one.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable

from .history import History, HistoryError, Verdict, WorkCounter, _sort_cost, value_table


class ContainmentIndex:
    """The intervals [left[x], right[x]] of the rows x, sorted by left end,
    each position holding the farthest right end reached so far.  left and
    right are columns, indexed by row; left ends are distinct, as a
    history's timestamps are."""

    __slots__ = ("lefts", "reach", "_left")

    def __init__(self, left, right, rows: Iterable, counter: WorkCounter | None = None):
        rows = sorted(rows, key=left.__getitem__)
        if counter is not None:
            counter.add(_sort_cost(len(rows)))
        self.lefts = list(map(left.__getitem__, rows))
        self.reach = reach = []
        best = None
        for end in map(right.__getitem__, rows):  # 3x faster than accumulate(..., max)
            if best is None or end > best:
                best = end
            reach.append(best)
        self._left = left

    def container(self, left: int, right: int,
                  counter: WorkCounter | None = None) -> int | None:
        """Return the owner of the farthest-reaching interval containing
        [left, right], the first row by left end to reach that far, or None
        when no interval contains it."""
        if counter is not None:
            counter.add(len(self.lefts).bit_length())
        i = bisect_right(self.lefts, left)
        if not i or self.reach[i - 1] < right:
            return None
        return self._left.index(self.lefts[bisect_left(self.reach, self.reach[i - 1], 0, i)])


def queue_linearizable(h: History, *, counter: WorkCounter | None = None) -> Verdict:
    """Decide whether a queue history is linearizable.

    Preprocessing is the stack monitor's value table: rank-paired values,
    unmatched enqueues completed with trailing concurrent dequeues, and
    the same semantic-violation verdicts.  Values whose enqueue and
    dequeue overlap contribute no I-segment (they are never containers)
    but are still probed for containment of their T-segment, in row order,
    which is enqueue-call order.  A value never contains itself: its
    I-segment starts at its enqueue's return, after the enqueue's call
    where its T-segment starts.  That, and the verdict, rely on the
    distinct timestamps that the value table checks.
    """
    if h.adt != "queue":
        raise HistoryError(f"queue monitor got adt {h.adt!r}")
    t = value_table(h, counter)
    if isinstance(t, Verdict):
        return t
    pr, qc = t.push_ret, t.pop_call
    index = ContainmentIndex(pr, qc, (x for x in range(len(pr)) if pr[x] < qc[x]), counter)
    for x, (left, right) in enumerate(zip(t.push_call, t.pop_ret)):
        outer = index.container(left, right, counter)
        if outer is not None:
            return Verdict(False, {"kind": "critical-pair", "inner": t.value[x],
                                   "outer": t.value[outer]})
    return Verdict(True)
