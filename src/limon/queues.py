"""Queue linearizability monitor.

A queue history, as its value table rank-pairs and completes it, is
unlinearizable exactly when some value's T-segment [enq-call,
deq-return] is contained in another value's I-segment [enq-return,
deq-call]: the inner value is then fully sandwiched inside the outer one,
violating FIFO order.  Such a pair is a critical pair.  The paper finds
one with a red-black tree augmented with high keys; here one sort and one
sweep answer the same question in O(n log n): some I-segment contains
[c, r] iff the farthest right end among those starting at or before c
reaches r, and the T-segments are probed in enqueue-call order.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .history import History, HistoryError, Verdict, WorkCounter, _sort_cost, value_table


class ContainmentIndex:
    """The intervals [left[x], right[x]] of the rows x, sorted by left end.
    left and right are columns, indexed by row; left ends are distinct, as
    a history's timestamps are."""

    __slots__ = ("rows", "_left", "_right")

    def __init__(self, left, right, rows: Iterable, counter: WorkCounter | None = None):
        self.rows = sorted(rows, key=left.__getitem__)
        if counter is not None:
            counter.add(_sort_cost(len(self.rows)))
        self._left, self._right = left, right

    def containers(self, probes: Iterable, counter: WorkCounter | None = None
                   ) -> Iterator[int | None]:
        """For each probe (left, right), in non-decreasing order of left end,
        yield the row of the farthest-reaching interval starting at or before
        left, the first by left end on a tie, if it contains [left, right],
        else None.  Raises HistoryError for a probe left of the one before.
        Charges one unit per probe and per row swept."""
        rows, left, right = self.rows, self._left, self._right
        n, i, probed = len(rows), 0, 0
        best = reach = last = None
        try:
            for probed, (lo, hi) in enumerate(probes, 1):
                if last is not None and lo < last:
                    raise HistoryError(f"probe at {lo} follows a probe at {last}")
                last = lo
                while i < n and left[rows[i]] <= lo:
                    x = rows[i]
                    if best is None or right[x] > reach:
                        best, reach = x, right[x]
                    i += 1
                yield best if best is not None and reach >= hi else None
        finally:
            if counter is not None:
                counter.add(probed + i)


def queue_linearizable(h: History, *, counter: WorkCounter | None = None) -> Verdict:
    """Decide whether a queue history is linearizable.

    Preprocessing is the stack monitor's value table, with its verdicts.
    Each value's T-segment is probed in row order.  The I-segment of a
    value whose enqueue and dequeue overlap is inverted: it ends before any
    probe that sweeps it starts.  A value's own starts after its probe.  So
    neither is reported, given the distinct timestamps the table checks.
    """
    if h.adt != "queue":
        raise HistoryError(f"queue monitor got adt {h.adt!r}")
    t = value_table(h, counter)
    if isinstance(t, Verdict):
        return t
    index = ContainmentIndex(t.push_ret, t.pop_call, range(len(t.value)), counter)
    for x, outer in enumerate(index.containers(zip(t.push_call, t.pop_ret), counter)):
        if outer is not None:
            return Verdict(False, {"kind": "critical-pair", "inner": t.value[x],
                                   "outer": t.value[outer]})
    return Verdict(True)
