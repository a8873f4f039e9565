"""Stack linearizability monitor.

The decision procedure reads the columns of the history's value table,
one row per rank-paired, completed value: each value's I-segment
[push-return, pop-call] is a window where the value is certainly inside
the stack.  Maximal unions of overlapping I-segments form P-segments (the
stack cannot be empty there); the gaps between them, plus the two ends of
the history, form D-segments (the stack may be empty there).  The
recursion strips extreme values while they exist, fails when no extreme
value exists and at most two D-segments remain, and otherwise splits the
history around an internal D-segment and decides both halves
independently.

Extreme values are peeled with monotone pointers over four sorted orders,
so peeling costs O(n log n) between splits.  A split searches for its
D-segment from both ends of the group at once, so it steps over the
smaller part only, and sorts that part afresh.  A value is in the smaller
part of at most log2 n splits (Hopcroft's smaller-half argument), so the
searches cost O(n log n) in all, and the sorts O(n log^2 n) comparisons
at worst.  Pop-empties are placed in one pass over the top-level
P-segments, in call order.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import islice

from .history import (History, HistoryError, ValueTable, Verdict, WorkCounter, _in_order, _sort_cost,
                      value_table)


def _sweep_p(rows: list[int], push_ret: list[int], pop_call: list[int],
             counter: WorkCounter | None) -> list[tuple[int, int]]:
    """Merge the I-segments of the rows, sorted by push-return, into P-segments."""
    left, right = push_ret[rows[0]], pop_call[rows[0]]
    out: list[tuple[int, int]] = []
    for x in islice(rows, 1, None):
        if push_ret[x] <= right:
            if pop_call[x] > right:
                right = pop_call[x]
        else:
            out.append((left, right))
            left, right = push_ret[x], pop_call[x]
    out.append((left, right))
    if counter is not None:
        counter.add(len(rows))
    return out


def _prepare(h: History, counter: WorkCounter | None
             ) -> Verdict | tuple[ValueTable, list[int]]:
    """Preprocess a stack history for the recursion.

    Returns an early verdict, or the value table together with the rows
    whose push and pop do not intersect, sorted by push-return.  A value
    whose push and pop intersect linearizes adjacently anywhere in the
    overlap, so it never constrains the rest of the history.
    """
    if h.adt != "stack":
        raise HistoryError(f"stack monitor got adt {h.adt!r}")
    t = value_table(h, counter)
    if isinstance(t, Verdict):
        return t
    pr, qc = t.push_ret, t.pop_call
    rows = sorted([x for x in range(len(pr)) if pr[x] < qc[x]], key=pr.__getitem__)
    if counter is not None:
        counter.add(_sort_cost(len(rows)))

    # Pop-empty placement is a one-time check against the top-level
    # P-segments: a pop-empty cannot be placed exactly when it lies strictly
    # inside one.  They are disjoint and sorted, so one pointer finds, for
    # each pop-empty in call order, the last P-segment starting before its
    # call, the only one that can hold it.
    if t.pop_empties:
        p = _sweep_p(rows, pr, qc, counter) if rows else []
        if counter is not None:
            counter.add(len(t.pop_empties) + len(p))
        k = 0
        for left, right in t.pop_empties:
            while k < len(p) and p[k][0] < left:
                k += 1
            if k and p[k - 1][1] > right:
                return Verdict(False, {"kind": "pop-empty", "interval": (left, right)})
    return t, rows


def stack_linearizable(h: History, *, counter: WorkCounter | None = None) -> Verdict:
    """Decide whether a stack history is linearizable.

    Preprocessing: value occurrences are differentiated, unmatched pushes
    completed with trailing concurrent pops, and values whose push and pop
    overlap dropped.  A value popped without a matching push, or popped
    strictly before its push, is a semantic violation and yields an
    unlinearizable verdict directly.

    In a group sorted by push-return, the first D-segment is [min
    push-call, m1] and the last is [M2, max pop-return], where m1 is the
    least push-return and M2 the greatest pop-call.  So a value is extreme
    iff its push-call is at most m1 and its pop-return at least M2.
    Peeling values only raises m1 and lowers M2, so the sets A = {push-call
    <= m1} and B = {pop-return >= M2} only grow: pointers over push-call
    order and pop-return-descending order mark values on entry, and a
    value is extreme once it holds both marks.  Two more pointers, over
    push-return order and pop-call-descending order, track m1 and M2.  All
    four skip values that are no longer in the group.  A round without
    extremes sweeps the first P-segment forward in push-return order and
    the last P-segment backward in pop-call-descending order, one value
    each in turn.  It fails if a sweep covers the group; otherwise it splits
    the group at the D-segment the first sweep to reach one found: at the
    right end of the first P-segment, or at the left end of the last.  The
    part that sweep covered, never the larger, gets its own orders, sorted
    afresh, unless it is one value, which is extreme and waits as a bare
    row for its one round; the other part keeps the group's sorted orders
    and pointers, and drops the dead entries a sweep stepped over once they
    outnumber the values it stepped.  Both parts keep the marks.

    The optional counter accumulates every step taken, sorts included (as
    n log n), and the rounds, the extreme values peeled and the splits.
    """
    prepared = _prepare(h, counter)
    if isinstance(prepared, Verdict):
        return prepared
    t, rows = prepared
    pc, pr, qc, qr = t.push_call, t.push_ret, t.pop_call, t.pop_ret
    n = len(pr)
    owner = [0] * n  # the group a row belongs to, -1 once peeled
    in_a = bytearray(n)
    in_b = bytearray(n)
    work = rounds = extremes = 0

    def group(gid: int, members: list[int]) -> tuple:
        # (id, live count, push-return order and its pointer and end,
        # pop-call-descending order, push-call order (row order) of values
        # not in A, pop-return-descending order of values not in B, with pointers)
        nonlocal work
        work += len(members) + 3 * _sort_cost(len(members))
        return (gid, len(members), members, 0, len(members),
                sorted(members, key=qc.__getitem__, reverse=True), 0,
                sorted([x for x in members if not in_a[x]]), 0,
                sorted([x for x in members if not in_b[x]], key=qr.__getitem__,
                       reverse=True), 0)

    def compact(order: list[int], lo: int, hi: int, n_live: int, gid: int) -> int:
        # Drop the dead entries of order[lo:hi], a stretch a search stepped
        # over that keeps n_live live rows, once they outnumber those rows;
        # until then the live steps pay for skipping them.  So each dead
        # entry costs O(1) over all searches.  Returns the stretch's new start.
        nonlocal work
        if hi - lo <= 2 * n_live:
            return lo
        work += hi - lo
        order[hi - n_live:hi] = [x for x in order[lo:hi] if owner[x] == gid]
        return hi - n_live

    pending = [group(0, rows)] if rows else []
    groups = 1
    failed = None
    while pending:
        top = pending.pop()
        if type(top) is int:  # a lone row split off a group: extreme, so its round peels it
            owner[top] = -1
            rounds += 1
            extremes += 1
            work += 2
            continue
        gid, live, by_pr, i, end, by_qc, j, by_pc, a, by_qr, b = top
        n_pc, n_qr = len(by_pc), len(by_qr)
        start = i + j + a + b
        while True:
            while owner[by_pr[i]] != gid:
                i += 1
            while owner[by_qc[j]] != gid:
                j += 1
            m1, m2 = pr[by_pr[i]], qc[by_qc[j]]
            ex = []
            while a < n_pc:
                x = by_pc[a]
                if owner[x] == gid:
                    if pc[x] > m1:
                        break
                    in_a[x] = 1
                    if in_b[x]:
                        ex.append(x)
                a += 1
            while b < n_qr:
                x = by_qr[b]
                if owner[x] == gid:
                    if qr[x] < m2:
                        break
                    in_b[x] = 1
                    if in_a[x]:
                        ex.append(x)
                b += 1
            rounds += 1
            work += 1 + len(ex)
            if ex:
                extremes += len(ex)
                for x in ex:
                    owner[x] = -1
                live -= len(ex)
                if live:
                    continue
                break
            # Search for an internal D-segment from both ends in lockstep,
            # one live row per side per turn: forward in push-return order,
            # tracking the right end of the first P-segment, and backward in
            # pop-call-descending order, tracking the left end of the last.
            # The side that finds one has stepped over the smaller part only.
            reach, low = qc[by_pr[i]], pr[by_qc[j]]
            k, y = i + 1, j + 1
            n_left = n_right = 1
            forward = True
            while n_left < live:
                x = by_pr[k]
                while owner[x] != gid:
                    k += 1
                    x = by_pr[k]
                if pr[x] > reach:
                    break
                n_left += 1
                if qc[x] > reach:
                    reach = qc[x]
                k += 1
                x = by_qc[y]
                while owner[x] != gid:
                    y += 1
                    x = by_qc[y]
                if qc[x] < low:
                    forward = False
                    break
                n_right += 1
                if pr[x] < low:
                    low = pr[x]
                y += 1
            work += k - i + y - j
            if n_left == live:
                failed = [t.value[x] for x in by_pr[i:end] if owner[x] == gid]
                pending.clear()
                break
            if forward:
                # The first P-segment is the left part; by_pr[k] starts the
                # right part, which keeps the group's orders.
                small = [x for x in by_pr[i:k] if owner[x] == gid]
                work += k - i
                j = compact(by_qc, j, y, n_right, gid)
                rest = (gid, live - n_left, by_pr, k, end, by_qc, j, by_pc, a, by_qr, b)
            else:
                # The last P-segment is the right part: the rows pushed after
                # qc[by_qc[y]], which starts the left part.
                cut = bisect_right(by_pr, qc[by_qc[y]], k, end, key=pr.__getitem__)
                small = [x for x in by_pr[cut:end] if owner[x] == gid]
                work += end - cut + (end - k).bit_length()
                i = compact(by_pr, i, k, n_left, gid)
                rest = (gid, live - n_right, by_pr, i, cut, by_qc, y, by_pc, a, by_qr, b)
            for x in small:
                owner[x] = groups
            part = small[0] if len(small) == 1 else group(groups, small)
            groups += 1
            pending.extend((part, rest) if forward else (rest, part))
            break
        work += i + j + a + b - start
    if counter is not None:
        counter.add(work)
        counter.rounds += rounds
        counter.extremes += extremes
        counter.splits += groups - 1
    if failed is not None:
        return Verdict(False, {"kind": "no-separation", "values": _in_order(failed)})
    return Verdict(True)
