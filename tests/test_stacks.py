import hashlib
import json
import math
from collections import Counter

import pytest

from limon import (
    Event,
    GenConfig,
    History,
    HistoryError,
    Operation,
    Verdict,
    WorkCounter,
    brute_force_linearizable,
    gen_linearizable,
    gen_random,
    gen_small_model_family,
    mutate,
    parse_history,
    stack_linearizable,
)
from limon.stacks import _prepare

from helpers import (
    STAGGERED_ROWS,
    AttributedValue,
    Interval,
    StackTally,
    buried_peels,
    check_pop_empty,
    complete_history,
    d_segments,
    differentiate,
    extreme_values,
    fold_values,
    nested_stack,
    op_to_val,
    p_segments,
    partition,
    pop_empty_triples,
    reference_stack_linearizable,
    remove_overlapping_pairs,
    split_chain,
    value_history,
)

H1_TEXT = "adt stack\npush 0 0 2\npush 1 1 3\npop 1 4 6\npop 0 5 7\n"


def h1():
    return parse_history(H1_TEXT)


def staggered_history():
    return value_history("stack", STAGGERED_ROWS)


class TestOpToVal:
    def test_overview_history(self):
        vals = op_to_val(h1())
        assert {v: (a.push_call, a.push_ret, a.pop_call, a.pop_ret)
                for v, a in vals.items()} == {0: (0, 2, 5, 7), 1: (1, 3, 4, 6)}

    def test_empty(self):
        assert op_to_val(History("stack", ())) == {}

    def test_size_is_half_the_operations(self):
        for seed in range(100):
            h = gen_random("stack", 2 + seed % 6, 1000 + seed)
            if not _safe_diff(h):
                continue
            h2, flagged = remove_overlapping_pairs(complete_history(differentiate(h)[0]))
            if flagged:
                continue
            vals = op_to_val(project_values_only(h2))
            n_value_ops = sum(1 for o in h2.ops if o.event.kind != "popempty")
            assert len(vals) == n_value_ops / 2

    def test_missing_pop_raises(self):
        h = History("stack", (Operation(0, Event("push", 1), 0, 1),))
        with pytest.raises(HistoryError):
            op_to_val(h)


def _safe_diff(h):
    try:
        differentiate(h)
        return True
    except HistoryError:
        return False


def project_values_only(h):
    return History(h.adt, tuple(o for o in h.ops if o.event.kind != "popempty"))


class TestPSegments:
    def test_staggered_walkthrough(self):
        segs = p_segments(op_to_val(staggered_history()))
        assert [s.as_pair() for s in segs] == [(6, 12), (15, 22), (23, 27), (29, 31)]

    def test_single_value(self):
        assert [s.as_pair() for s in p_segments([AttributedValue(1, 0, 2, 5, 7)])] == [(2, 5)]

    def test_overview_merge(self):
        # I-segments [2,5] and [3,4] merge into one P-segment.
        assert [s.as_pair() for s in p_segments(op_to_val(h1()))] == [(2, 5)]

    def test_empty_raises(self):
        with pytest.raises(HistoryError):
            p_segments([])

    def test_against_interval_union_oracle(self):
        # The sweep must agree with a naive union of overlapping I-segments.
        import random
        for seed in range(300):
            rng = random.Random(seed)
            slots = list(range(200))
            rng.shuffle(slots)
            vals = []
            for v in range(2 + seed % 8):
                a, b, c, d = sorted(slots[4 * v: 4 * v + 4])
                vals.append(AttributedValue(v, a, b, c, d))
            got = [s.as_pair() for s in p_segments(vals)]
            merged = []
            for left, right in sorted((v.push_ret, v.pop_call) for v in vals):
                if merged and left <= merged[-1][1]:
                    merged[-1] = (merged[-1][0], max(merged[-1][1], right))
                else:
                    merged.append((left, right))
            assert got == merged, seed


class TestDSegments:
    def test_staggered_walkthrough(self):
        h = staggered_history()
        p = p_segments(op_to_val(h))
        assert [s.as_pair() for s in d_segments(h, p)] == [
            (3, 6), (12, 15), (22, 23), (27, 29), (31, 35)]

    def test_full_span_gives_zero_length_ends(self):
        # A P-segment spanning the whole history leaves two zero-length
        # D-segments at the ends.
        h = History("stack", (Operation(0, Event("push", 1), 0, 1),
                              Operation(1, Event("pop", 1), 8, 9)))
        d = d_segments(h, [Interval(0, 9)])
        assert [seg.as_pair() for seg in d] == [(0, 0), (9, 9)]

    def test_count_is_p_plus_one(self):
        for seed in range(200):
            h = gen_random("stack", 2 + seed % 6, 2000 + seed)
            try:
                dh, _ = differentiate(h)
            except HistoryError:
                continue
            dh, flagged = remove_overlapping_pairs(complete_history(dh))
            if flagged:
                continue
            dh = project_values_only(dh)
            if not len(dh):
                continue
            p = p_segments(op_to_val(dh))
            assert len(d_segments(dh, p)) == len(p) + 1


class TestPopEmpty:
    def test_removed_when_intersecting(self):
        h = History("stack", (Operation(0, Event("popempty"), 4, 8),
                              Operation(1, Event("push", 1), 5, 6),
                              Operation(2, Event("pop", 1), 9, 10)))
        out = check_pop_empty(h, [Interval(0, 3), Interval(7, 9)])
        assert isinstance(out, History)
        assert all(o.event.kind != "popempty" for o in out.ops)

    def test_unlinearizable_when_isolated(self):
        h = History("stack", (Operation(0, Event("popempty"), 4, 6),))
        out = check_pop_empty(h, [Interval(0, 3), Interval(10, 11), Interval(14, 19)])
        assert isinstance(out, Verdict) and not out.linearizable
        assert out.witness == {"kind": "pop-empty", "interval": (4, 6)}

    def test_no_popempty_unchanged(self):
        h = h1()
        assert check_pop_empty(h, [Interval(0, 2)]) == h


class TestExtremeValues:
    def test_walkthrough_data(self):
        vals = [AttributedValue(0, 0, 2, 30, 34), AttributedValue(1, 1, 4, 25, 32)]
        vals += [AttributedValue(*row) for row in STAGGERED_ROWS]
        d = [Interval(0, 6), Interval(12, 15), Interval(22, 23), Interval(27, 35)]
        assert extreme_values(vals, d) == {0, 1}

    def test_value_not_extreme_when_followed(self):
        # pop of 1 ends before push of 2 begins: 1 is not maximal.
        h = value_history("stack", [(1, 0, 1, 2, 3), (2, 4, 5, 6, 7)])
        p = p_segments(op_to_val(h))
        d = d_segments(h, p)
        assert 1 not in extreme_values(op_to_val(h), d)

    def test_matches_direct_definition(self):
        for seed in range(300):
            h = gen_random("stack", 2 + seed % 6, 3000 + seed)
            try:
                dh, _ = differentiate(h)
            except HistoryError:
                continue
            dh, flagged = remove_overlapping_pairs(complete_history(dh))
            if flagged:
                continue
            dh = project_values_only(dh)
            if not len(dh):
                continue
            vals = op_to_val(dh)
            d = d_segments(dh, p_segments(vals))
            direct = set()
            for v, a in vals.items():
                minimal = not any(o.ret < a.push_call for o in dh.ops)
                maximal = not any(o.call > a.pop_ret for o in dh.ops)
                if minimal and maximal:
                    direct.add(v)
            assert extreme_values(vals, d) == direct, seed


class TestPartition:
    def test_staggered_walkthrough(self):
        left, right = partition(staggered_history(), Interval(12, 15))
        assert {o.event.value for o in left.ops} == {2, 3}
        assert {o.event.value for o in right.ops} == {4, 5, 6, 7, 8}

    def test_degenerate_alpha(self):
        h = staggered_history()
        left, right = partition(h, Interval(0, 1))
        assert len(left) == 0 and right == h

    def test_is_a_partition(self):
        h = staggered_history()
        left, right = partition(h, Interval(22, 23))
        assert set(left.ops) | set(right.ops) == set(h.ops)
        assert set(left.ops) & set(right.ops) == set()


class TestStackLinearizable:
    def test_overview_history(self):
        assert stack_linearizable(h1()).linearizable

    def test_staggered_history(self):
        assert stack_linearizable(staggered_history()).linearizable

    def test_empty(self):
        assert stack_linearizable(History("stack", ())).linearizable

    def test_lifo_violation(self):
        h = parse_history("adt stack\npush 1 0 1\npush 2 2 3\npop 1 4 5\npop 2 6 7\n")
        verdict = stack_linearizable(h)
        assert not verdict.linearizable
        assert not brute_force_linearizable(h).linearizable
        assert verdict.witness["kind"] == "no-separation"

    def test_witness_forms(self):
        pop_only = History("stack", (Operation(0, Event("pop", 9), 0, 1),))
        assert stack_linearizable(pop_only).witness == {"kind": "unmatched-pop", "value": 9}
        swapped = value_history("stack", [(3, 5, 7, 0, 2)])
        assert stack_linearizable(swapped).witness == {"kind": "pop-before-push", "value": 3}
        h = History("stack", (Operation(0, Event("push", 1), 0, 2),
                              Operation(1, Event("popempty"), 3, 4),
                              Operation(2, Event("pop", 1), 5, 7)))
        assert stack_linearizable(h).witness == {"kind": "pop-empty", "interval": (3, 4)}

    def test_oracle_equivalence_sweep(self):
        histories = [gen_random("stack", 2 + seed % 7, 4000 + seed) for seed in range(1500)]
        histories += [split_chain(k) for k in (1, 2, 3)] + [buried_peels(k) for k in (1, 2)]
        for k, h in enumerate(histories):
            assert (stack_linearizable(h).linearizable
                    == brute_force_linearizable(h, max_ops=12).linearizable), k

    def test_rightmost_failing_group_is_named(self):
        # Groups are decided right part first, so of several failing groups
        # the witness names the one latest in time, whichever end a split
        # is found from.
        for sizes in ((3, 5, 8), (8, 5, 3), (5, 8, 3), (3, 8, 5)):
            ops, shift = [], 0
            for f, n in enumerate(sizes):
                family = gen_small_model_family(n)
                for op in family.ops:
                    ops.append(Operation(len(ops), Event(op.event.kind, 100 * f + op.event.value),
                                         shift + op.call, shift + op.ret))
                shift += max(op.ret for op in family.ops) + 10
            verdict = stack_linearizable(History("stack", tuple(ops)))
            assert verdict.witness == {"kind": "no-separation",
                                       "values": list(range(201, 201 + sizes[-1]))}, sizes

    def test_segment_invariants_during_recursion(self):
        steps = []

        def observer(vals, p, d, extremes):
            steps.append((vals, p, d, extremes))

        reached = 0
        for h in _recursion_inputs(5000):
            counter = WorkCounter()
            verdict = stack_linearizable(h, counter=counter)
            assert (counter.rounds > 0) == _reaches_recursion(h, verdict)
            reached += counter.rounds > 0
            steps.clear()
            assert reference_stack_linearizable(h, observer=observer) == verdict
            for vals, p, d, extremes in steps:
                assert vals
                # P-segments sorted, pairwise disjoint; alternation D,P,...,P,D
                for a, b in zip(p, p[1:]):
                    assert a.right < b.left
                assert len(d) == len(p) + 1
                assert d[0].left == min(v.push_call for v in vals)
                assert d[-1].right == max(v.pop_ret for v in vals)
                for seg, gap in zip(p, d):
                    assert gap.right == seg.left
                for seg, gap in zip(p, d[1:]):
                    assert gap.left == seg.right
        assert reached >= 150

    def test_recursion_strictly_decreases(self):
        # Every round but a failing last one peels extremes or splits, and a
        # linearizable history has each of its rows peeled exactly once.
        # (That the smaller part is the one split off is guarded by
        # test_split_chain_work_is_quasilinear.)
        reached = splits = 0
        for h in list(_recursion_inputs(6000)) + [split_chain(k) for k in range(2, 30)]:
            counter = WorkCounter()
            verdict = stack_linearizable(h, counter=counter)
            if not counter.rounds:
                continue
            reached += 1
            assert counter.rounds <= counter.extremes + counter.splits + 1
            if verdict.linearizable:
                _, rows = _prepare(h, None)
                assert counter.extremes == len(rows)
            splits += counter.splits
        assert reached >= 150 and splits >= 300, (reached, splits)

    def test_pinned_tallies(self):
        for n in (1, 2, 7, 64, 300):
            counter = WorkCounter()
            assert stack_linearizable(nested_stack(n), counter=counter).linearizable
            assert _tally(counter) == _reference_tally(nested_stack(n)) == (n, n, 0), n
        for n in (2, 3, 10, 50):
            counter = WorkCounter()
            verdict = stack_linearizable(gen_small_model_family(n), counter=counter)
            assert verdict.witness == {"kind": "no-separation",
                                       "values": list(range(1, n + 1))}
            assert _tally(counter) == _reference_tally(gen_small_model_family(n)) == (1, 0, 0), n

    @pytest.mark.parametrize("h, tally", [
        (split_chain(200), (599, 400, 199)),
        (buried_peels(200), (601, 401, 200)),
        (gen_linearizable(GenConfig(adt="stack", ops=2000, threads=4, seed=1)), (1047, 788, 311)),
    ])
    def test_lone_split_off_values_keep_the_tallies(self, h, tally):
        # A part of one value split off a group waits as a bare row, which
        # counts as the round that peels it, not as a group of its own.
        counter = WorkCounter()
        assert stack_linearizable(h, counter=counter).linearizable
        assert _tally(counter) == tally

    def test_mutated_verdicts_pinned(self):
        # The verdicts and witnesses on 1,200 mutated histories and their
        # copies with values folded onto a few names, 1,483 of the 2,400
        # unlinearizable (1,076 no-separation), as the monitor gave them
        # while it still made a group of each lone split-off value.
        out = []
        for seed in range(400):
            lin = gen_linearizable(GenConfig(adt="stack", ops=20 + seed % 200, threads=2 + seed % 6,
                                             seed=seed, stretch=1.0 + seed % 3))
            for m in range(3):
                mutated = mutate(lin, 1000 * seed + m)
                for h in (mutated, fold_values(mutated, 3 + m)):
                    verdict = stack_linearizable(h)
                    out.append([verdict.linearizable, verdict.witness])
        assert sum(not linearizable for linearizable, _ in out) == 1483
        digest = hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()
        assert digest == "420db4933572d01cd269d0e4b6a6d93ab9a983b68881eb4f60d647055a5dbc77"

    def test_nested_work_is_quasilinear(self):
        # Machine-independent: the counted work may grow at most 2.5x per
        # doubling (exponent <= 1.3); the quadratic loop grows 4x.  Every
        # step is charged, the sorts as n log n, so the count cannot vanish.
        work = _work_ladder(nested_stack, (1000, 2000, 4000))
        for small, big in zip(work, work[1:]):
            assert big <= 2.5 * small, work

    def test_split_chain_work_is_quasilinear(self):
        # Each round splits one value off a group of thousands: a split
        # searched from the front only re-sweeps the group and grows about
        # 4x per doubling; searched from both ends it may grow at most 2.3x
        # (exponent <= 1.2).
        work = _work_ladder(split_chain, (1000, 2000, 4000))
        for small, big in zip(work, work[1:]):
            assert big <= 2.3 * small, work

    def test_peeled_rows_are_skipped_once(self):
        # Each round peels a value the front search steps over; without
        # dropping those dead entries the search grows about 4x per doubling.
        work = _work_ladder(buried_peels, (1000, 2000, 4000))
        for small, big in zip(work, work[1:]):
            assert big <= 2.3 * small, work

    def test_pop_empties_placed_in_one_pass(self):
        # Each pop-empty meets one D-segment of thousands: testing it
        # against them all grows the work 4x per doubling.
        work = _work_ladder(pop_empty_triples, (1000, 2000, 4000))
        for small, big in zip(work, work[1:]):
            assert big <= 2.3 * small, work

    def test_work_bound_quadratic(self):
        c = 40
        for seed in range(80):
            n_ops = 4 + seed % 40
            h = gen_random("stack", n_ops, 7000 + seed)
            counter = WorkCounter()
            stack_linearizable(h, counter=counter)
            assert counter.count <= c * (n_ops + 4) ** 2, seed

    def test_adt_guard(self):
        with pytest.raises(HistoryError):
            stack_linearizable(History("queue", ()))


def _work_ladder(family, sizes):
    """The counted work of a linearizable family at each size."""
    work = []
    for n in sizes:
        counter = WorkCounter()
        assert stack_linearizable(family(n), counter=counter).linearizable
        assert counter.count >= n * math.log2(n), n
        work.append(counter.count)
    return work


def _recursion_inputs(base):
    for seed in range(120):
        yield gen_random("stack", 2 + seed % 7, base + seed)
        yield gen_linearizable(GenConfig(adt="stack", ops=10 + seed % 40,
                                         threads=2 + seed % 4, seed=base + seed))


def _reaches_recursion(h, verdict):
    """Whether the monitor gets past preprocessing with a value left."""
    if verdict.witness is not None and verdict.witness["kind"] != "no-separation":
        return False
    dh, _ = remove_overlapping_pairs(complete_history(differentiate(h)[0]))
    return any(op.event.kind == "push" for op in dh.ops)


def _tally(counter):
    return counter.rounds, counter.extremes, counter.splits


def _reference_tally(h):
    tally = StackTally()
    reference_stack_linearizable(h, observer=tally)
    return tally.as_tuple()


class TestReferenceDifferential:
    """The monitor against the quadratic round loop it replaced: same
    verdict, same witness and as many extreme values peeled.  Rounds and
    splits may differ: the reference always splits at the first internal
    D-segment, the monitor at the first or the last."""

    def test_against_quadratic_reference(self):
        histories = []
        for seed in range(600):
            raw = gen_random("stack", 2 + seed % 14, 8000 + seed)
            lin = gen_linearizable(GenConfig(adt="stack", ops=6 + seed % 120,
                                             threads=1 + seed % 6, seed=8000 + seed,
                                             stretch=1.0 + seed % 3))
            histories += [raw, fold_values(raw, 2 + seed % 3), lin, mutate(lin, seed),
                          fold_values(lin, 3 + seed % 6)]
        histories += [nested_stack(n) for n in range(1, 41)]
        histories += [gen_small_model_family(n) for n in range(2, 42)]
        histories += [split_chain(k) for k in range(1, 41)]
        histories += [buried_peels(k) for k in range(1, 41)]
        kinds = Counter()
        splits = 0
        for k, h in enumerate(histories):
            counter, tally = WorkCounter(), StackTally()
            verdict = stack_linearizable(h, counter=counter)
            assert verdict == reference_stack_linearizable(h, observer=tally), k
            assert counter.extremes == tally.extremes, k
            kinds[verdict.witness and verdict.witness["kind"]] += 1
            splits += counter.splits
        assert len(histories) >= 3000
        # The corpus reaches both verdicts of the recursion, the pop-empty
        # check, and many splits.
        assert kinds[None] >= 1000 and kinds["no-separation"] >= 300, kinds
        assert kinds["pop-empty"] >= 20 and splits >= 1000, (kinds, splits)
