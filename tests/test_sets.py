import itertools
import random

import pytest

from limon import (
    Event,
    GenConfig,
    History,
    HistoryError,
    Operation,
    SetValueState,
    brute_force_linearizable,
    check_history,
    ensure_state,
    gen_linearizable,
    gen_random,
    history_events,
    multiset_linearizable,
    normalize_failing_ops,
    parse_history,
    serialize_history,
    set_linearizable,
)
from limon import sets
from limon.cli import main
from limon.sets import multiset_linearizable_events, set_linearizable_events

from helpers import reference_history_events


def set_history(rows):
    """rows: (kind, value, call, ret, outcome)"""
    ops = tuple(Operation(i, Event(k, v, out), c, r)
                for i, (k, v, c, r, out) in enumerate(rows))
    return History("set", ops)


def multiset_history(rows):
    ops = tuple(Operation(i, Event(k, v, True), c, r)
                for i, (k, v, c, r) in enumerate(rows))
    return History("multiset", ops)


class TestMultiset:
    def test_sequential_add_remove(self):
        h = multiset_history([("add", 5, 0, 1), ("remove", 5, 2, 3)])
        assert multiset_linearizable(h).linearizable

    def test_remove_return_without_adds(self):
        h = multiset_history([("remove", 5, 0, 1)])
        verdict = multiset_linearizable(h)
        assert not verdict.linearizable
        assert verdict.witness["reason"] == "count-violation"
        assert verdict.witness["value"] == 5 and verdict.witness["timestamp"] == 1

    def test_overlapping_add_remove_ok(self):
        # remove returns after the add was called: the remove can linearize late.
        h = multiset_history([("add", 5, 0, 3), ("remove", 5, 1, 4)])
        assert multiset_linearizable(h).linearizable

    def test_remove_returning_before_any_add_call(self):
        h = multiset_history([("remove", 5, 0, 2), ("add", 5, 3, 4)])
        assert not multiset_linearizable(h).linearizable

    def test_prefix_recount_differential(self):
        # Independent check: replay the event stream and recount per value.
        for seed in range(800):
            h = gen_random("multiset", 2 + seed % 18, 20_000 + seed)
            expect = True
            counts = {}
            for ts, is_call, kind, v, *_ in history_events(h):
                adds, rmvs = counts.get(v, (0, 0))
                if kind == "add" and is_call:
                    adds += 1
                elif kind == "remove" and not is_call:
                    rmvs += 1
                counts[v] = (adds, rmvs)
                if rmvs > adds:
                    expect = False
                    break
            assert multiset_linearizable(h).linearizable == expect, seed

    def test_rejects_contains(self):
        h = History("multiset", (Operation(0, Event("contains", 1, True), 0, 1),))
        with pytest.raises(HistoryError):
            multiset_linearizable(h)

    @pytest.mark.parametrize("checker, kinds", [
        (set_linearizable_events, ("push", "pop", None)),
        (multiset_linearizable_events, ("push", "contains", None)),
    ])
    def test_event_iterables_of_illegal_kinds_are_refused(self, checker, kinds):
        # Each kind on a call and on a return, also after a legal event.
        for kind in kinds:
            for is_call in (True, False):
                events = [(1, True, "add", 5, None, 0, 1), (2, is_call, kind, 5, True, 1, 2)]
                with pytest.raises(HistoryError, match=f"event kind {kind!r} illegal"):
                    checker(events)

    def test_rejects_failing_ops(self):
        h = History("multiset", (Operation(0, Event("add", 1, False), 0, 1),))
        with pytest.raises(HistoryError):
            multiset_linearizable(h)


class TestEnsureState:
    def test_noop_when_state_matches(self):
        st = SetValueState()
        st.state, st.flipped = True, 2
        assert ensure_state(st, True, 5)
        assert st.flipped == 2 and st.adds.credits == []

    def test_absent_to_true_needs_an_active_add(self):
        st = SetValueState()
        assert not ensure_state(st, True, 0)  # credits 0, active 0

    def test_false_to_true_consumes_the_add(self):
        st = SetValueState()
        st.adds.active = 1
        assert ensure_state(st, True, 4)
        assert (st.state, st.flipped) == (True, 4)
        assert len(st.adds.credits) == 1

    def test_absence_is_free(self):
        # The set starts empty, so absence needs no credit.
        st = SetValueState()
        assert ensure_state(st, False, 3)
        assert st.state is False and st.flipped == float("-inf")
        assert len(st.removes.credits) == 0


class TestSetLinearizable:
    def test_add_then_contains_true(self):
        h = set_history([("add", 5, 0, 1, True), ("contains", 5, 2, 3, True)])
        assert set_linearizable(h).linearizable

    def test_contains_true_without_add(self):
        h = set_history([("contains", 5, 0, 1, True)])
        verdict = set_linearizable(h)
        assert not verdict.linearizable
        assert verdict.witness["reason"] == "ensure-state-failure"

    def test_contains_false_on_fresh_value(self):
        h = set_history([("contains", 5, 0, 1, False)])
        assert set_linearizable(h).linearizable

    def test_remove_needs_presence(self):
        h = set_history([("remove", 5, 0, 1, True)])
        assert not set_linearizable(h).linearizable

    def test_concurrent_add_remove(self):
        h = set_history([("add", 5, 0, 3, True), ("remove", 5, 1, 4, True)])
        assert set_linearizable(h).linearizable

    def test_oracle_equivalence_sweep(self):
        for seed in range(2500):
            h = gen_random("set", 2 + seed % 7, 21_000 + seed)
            assert (set_linearizable(h).linearizable
                    == brute_force_linearizable(h, max_ops=12).linearizable), seed

    def test_add_cannot_claim_a_credit_consumed_before_its_call(self):
        # remove(2) at 5 linearizes add(2)[0,13] first; add(2)[6,8] was not
        # yet called then, so it must leave 2 present and the last
        # contains(2) false is a violation.
        h = parse_history("adt set\nadd 2 0 13 ok\nremove 0 1 12 fail\n"
                          "remove 2 2 5 ok\ncontains 1 3 11 false\n"
                          "contains 2 4 9 false\nadd 2 6 8 ok\n"
                          "remove 1 7 15 fail\ncontains 2 10 14 false\n")
        assert not brute_force_linearizable(h).linearizable
        assert not set_linearizable(h).linearizable

    def test_oracle_equivalence_small_value_pools(self):
        for seed in range(20_000):
            h = gen_random("set", 2 + seed % 11, 7_000_000 + seed, values=1 + seed % 3)
            assert (set_linearizable(h).linearizable
                    == brute_force_linearizable(h, max_ops=12).linearizable), seed

    def test_oracle_equivalence_two_values_thirty_events(self):
        for seed in range(150):
            h = gen_random("set", 15, 22_000 + seed, values=2)
            # 15 ops = 30 events; the oracle needs a raised bound.
            assert (set_linearizable(h).linearizable
                    == brute_force_linearizable(h, max_ops=15).linearizable), seed

    def test_single_pass_work_is_linear(self):
        from limon import WorkCounter
        for seed in range(40):
            n = 10 + seed * 5
            h = gen_random("set", n, 23_000 + seed)
            counter = WorkCounter()
            set_linearizable(h, counter=counter)
            assert counter.count <= 2 * n  # one unit per event

    def test_negative_timestamps(self):
        # A value's state has not changed before any time, however early:
        # contains(5) true over [-5, -3] has no add to justify it.
        h = set_history([("contains", 5, -5, -3, True)])
        assert not brute_force_linearizable(h).linearizable
        assert not set_linearizable(h).linearizable
        events = [(-5, True, "contains", 5, None, 0, -5), (-3, False, "contains", 5, True, 0, -5)]
        assert not set_linearizable_events(events).linearizable
        for seed in range(1_500):
            h = gen_random("set", 1 + seed % 9, 27_000 + seed, values=1 + seed % 3)
            h = History("set", tuple(op._replace(call=op.call - 50, ret=op.ret - 50)
                                     for op in h.ops))
            assert (set_linearizable(h).linearizable
                    == brute_force_linearizable(h, max_ops=12).linearizable), seed

    def test_state_never_flips_to_itself(self, monkeypatch):
        states = _record_states(monkeypatch)
        for seed in range(200):
            set_linearizable(gen_random("set", 2 + seed % 10, 25_000 + seed))
        flips = [flip for st in states for flip in st.flips]
        assert flips and all(old is not new for old, new in flips)


def _record_states(monkeypatch):
    """Make the set monitor log every change of a per-value `state` as an
    (old, new) flip; gives the list the states built are appended to."""
    states = []

    class Recording(sets.SetValueState):
        __slots__ = ("flips",)

        def __init__(self):
            self.flips = []
            super().__init__()
            states.append(self)

        def __setattr__(self, name, value):
            if name == "state" and hasattr(self, "state"):
                self.flips.append((self.state, value))
            super().__setattr__(name, value)

    monkeypatch.setattr(sets, "SetValueState", Recording)
    return states


class TestNormalize:
    def test_failing_add(self):
        h = set_history([("add", 5, 0, 2, False)])
        out = normalize_failing_ops(h)
        assert out.ops[0].event == Event("contains", 5, True)
        assert (out.ops[0].call, out.ops[0].ret) == (0, 2)

    def test_failing_remove(self):
        h = set_history([("remove", 5, 0, 2, False)])
        assert normalize_failing_ops(h).ops[0].event == Event("contains", 5, False)

    def test_no_failures_unchanged(self):
        h = set_history([("add", 5, 0, 1, True), ("contains", 5, 2, 3, True)])
        assert normalize_failing_ops(h) == h

    def test_same_verdict_as_the_set_checker(self):
        # The set checker reads a failing add or remove as the query that
        # normalize_failing_ops writes for it, and a normalized history has
        # nothing left to rewrite.
        rewritten = unlinearizable = 0
        for seed in range(2_500):
            h = gen_random("set", 1 + seed % 24, 26_000 + seed, values=1 + seed % 4)
            if False not in h.columns.outcome:
                continue
            rewritten += 1
            once = normalize_failing_ops(h)
            cols = once.columns
            assert "contains" in cols.kind and False not in [
                outcome for kind, outcome in zip(cols.kind, cols.outcome) if kind != "contains"]
            verdict = set_linearizable_events(history_events(h))
            assert set_linearizable_events(history_events(once)) == verdict, seed
            unlinearizable += not verdict
            assert normalize_failing_ops(once) == once, seed
        assert rewritten >= 2_000 and unlinearizable >= 200

    def test_own_events_with_a_failing_add(self):
        # A caller's own events: a failing add carries outcome False at its
        # call as at its return, as history_events gives it.
        for present, answer in itertools.product((True, False), repeat=2):
            h = set_history([("add", 5, 0, 1, present), ("add", 5, 2, 5, False),
                             ("contains", 5, 3, 4, answer)])
            events = [(0, True, "add", 5, present, 0, 0), (1, False, "add", 5, present, 0, 0),
                      (2, True, "add", 5, False, 1, 2), (3, True, "contains", 5, None, 2, 3),
                      (4, False, "contains", 5, answer, 2, 3),
                      (5, False, "add", 5, False, 1, 2)]
            verdict = set_linearizable_events(events)
            assert verdict == set_linearizable_events(history_events(normalize_failing_ops(h)))
            assert verdict.linearizable is (present and answer)

    def test_failing_add_called_without_its_outcome(self):
        # As a stream gives it, the call banks a credit that the failing add
        # never uses; on an empty set that would read as linearizable.
        events = [(0, True, "add", 5, None, 0, 0), (1, False, "add", 5, False, 0, 0)]
        with pytest.raises(HistoryError, match="failing add id 0 was called without its outcome"):
            set_linearizable_events(events)

    def test_failing_ops_against_oracle(self):
        # add(v) that failed because v was present, etc.; the oracle uses the
        # raw fail semantics while the monitor reads the implied query.
        h = set_history([("add", 5, 0, 1, True), ("add", 5, 2, 3, False),
                         ("remove", 5, 4, 5, True), ("remove", 5, 6, 7, False)])
        assert set_linearizable(h).linearizable
        assert brute_force_linearizable(h).linearizable
        h2 = set_history([("add", 5, 0, 1, False)])
        assert not set_linearizable(h2).linearizable
        assert not brute_force_linearizable(h2).linearizable


class TestStreaming:
    def test_unknown_answer_at_call(self):
        # Live streams learn the contains answer only at the return.
        events = [
            (0, True, "add", 5, None, 0, 0),
            (1, True, "contains", 5, None, 1, 1),
            (3, False, "add", 5, True, 0, 0),
            (4, False, "contains", 5, True, 1, 1),
        ]
        assert set_linearizable_events(events).linearizable

    def test_streamed_equals_offline(self):
        for seed in range(400):
            h = gen_random("set", 2 + seed % 8, 26_000 + seed)
            if any(o.event.outcome is False and o.event.kind != "contains" for o in h.ops):
                continue  # failing ops need offline normalization
            stream = []
            for ts, is_call, kind, value, outcome, op_id, call in history_events(h):
                if is_call and kind == "contains":
                    outcome = None
                stream.append((ts, is_call, kind, value, outcome, op_id, call))
            assert (set_linearizable_events(stream).linearizable
                    == set_linearizable(h).linearizable), seed


def symbolic(h: History) -> History:
    """h with every odd value v renamed to the string 'v<v>', so values mix
    int and str, as library histories may."""
    return History(h.adt, tuple(
        Operation(op.id, op.event._replace(value=f"v{op.event.value}"), op.call, op.ret)
        if op.event.value % 2 else op for op in h.ops))


class TestHistoryEvents:
    """history_events yields, one event at a time, the list the reference sorts at once."""

    @staticmethod
    def assert_matches(h: History) -> None:
        assert list(history_events(h)) == reference_history_events(h)

    def test_random_and_generated_histories(self):
        failing = 0
        for seed in range(1000):
            for adt in ("set", "multiset"):
                h = gen_random(adt, seed % 40, 40_000 + seed, values=1 + seed % 5)
                self.assert_matches(h)
                self.assert_matches(symbolic(h))
                failing += sum(o.event.outcome is False and o.event.kind != "contains"
                               for o in h.ops)
                self.assert_matches(gen_linearizable(GenConfig(
                    adt=adt, ops=seed % 60, values=1 + seed % 7, threads=1 + seed % 6,
                    seed=seed, stretch=1.0 + seed % 4)))
        assert failing > 1000

    def test_empty_and_single_operation(self):
        assert list(history_events(History("set", ()))) == []
        h = History("set", (Operation(7, Event("remove", "x", False), 3, 9),))
        assert list(history_events(h)) == [(3, True, "remove", "x", False, 7, 3),
                                           (9, False, "remove", "x", False, 7, 3)]
        self.assert_matches(History("multiset", (Operation(0, Event("add", 1, True), 0, 1),)))

    @pytest.mark.parametrize("adt", ["set", "multiset"])
    def test_long_generated_histories(self, adt):
        for seed in range(3):
            self.assert_matches(gen_linearizable(GenConfig(
                adt=adt, ops=5000, values=50, threads=8, seed=seed, stretch=4.0)))

    def test_refuses_faults_before_the_first_event(self):
        # The merge relies on every call preceding its return and on
        # distinct timestamps.  The columns it reads are checked when they
        # are built, which for a library history is at the first event.
        for ops in ([Operation(0, Event("add", 1, True), 6, 2)],
                    [Operation(0, Event("add", 1, True), 0, 5),
                     Operation(1, Event("remove", 1, True), 5, 6)]):
            events = history_events(History("set", ops))
            with pytest.raises(HistoryError):
                next(events)

    @staticmethod
    def all_overlapping(adt: str, n: int, seed: int) -> History:
        """n operations on three values, every call before every return."""
        rng = random.Random(seed)
        rets = rng.sample(range(n, 2 * n), n)
        kinds = ("add", "remove", "contains") if adt == "set" else ("add", "remove")
        return History(adt, tuple(
            Operation(i, Event(rng.choice(kinds), rng.randrange(3),
                               rng.random() < 0.7 if adt == "set" else True), i, rets[i])
            for i in range(n)))

    def test_all_overlapping_histories(self):
        # No return comes before the last call.
        for adt in ("set", "multiset"):
            for n in (1, 2, 3, 16, 4096):
                for seed in range(3):
                    h = self.all_overlapping(adt, n + seed, seed)
                    self.assert_matches(h)
                    assert len(list(history_events(h))) == 2 * len(h)

    def test_operation_spanning_thousands(self):
        # One long add under thousands of short operations, and a long
        # failing remove called in the middle of them.
        n = 20_000
        rows = [("add", 0, 0, 4 * n + 5, True), ("remove", 1, 2 * n + 3, 4 * n + 3, False)]
        rows += [("add" if i % 2 else "remove", 2 + i % 9, 4 * i + 1, 4 * i + 2, True)
                 for i in range(n)]
        ops = [Operation(i, Event(k, v, out), c, r) for i, (k, v, c, r, out) in enumerate(rows)]
        for adt in ("set", "multiset"):
            h = History(adt, ops if adt == "set" else ops[:1] + ops[2:])
            self.assert_matches(h)
            assert len(list(history_events(h))) == 2 * len(h)


# Histories the monitors used to decide: the first two with a verdict the
# oracle contradicts, the third, whose add is called after it returns, as
# linearizable.  The stack and queue rows are the faults that the stack and
# queue preprocessing (value_table) refuses in a library history: the last
# two name a kind the data type does not have.
MALFORMED = [
    ("set", [("add", 1, 0, 5, True), ("contains", 1, 5, 6, False)],
     "invalid history: duplicate-timestamp (5)"),
    ("multiset", [("remove", 1, 0, 5, True), ("add", 1, 5, 6, True)],
     "invalid history: duplicate-timestamp (5)"),
    ("set", [("add", 1, 6, 2, True)], "call 6 not before return 2 (line 2)"),
    ("stack", [("push", 1, 0, 5, None), ("pop", 1, 5, 6, None)],
     "invalid history: duplicate-timestamp (5)"),
    ("queue", [("push", 1, 0, 5, None), ("pop", 1, 5, 6, None)],
     "invalid history: duplicate-timestamp (5)"),
    ("stack", [("push", 1, 3, 3, None)], "call 3 not before return 3 (line 2)"),
    ("queue", [("push", 1, 6, 2, None)], "call 6 not before return 2 (line 2)"),
    ("stack", [("add", 1, 0, 1, True)], "event kind 'add' illegal for adt 'stack' (line 2)"),
    ("queue", [("push", 1, 0, 1, None), ("popempty", None, 2, 3, None)],
     "event kind 'popempty' illegal for adt 'queue' (line 3)"),
]


@pytest.mark.parametrize("adt, rows, message", MALFORMED)
def test_monitors_refuse_shared_timestamps_and_calls_not_before_returns(
        adt, rows, message, tmp_path, capsys):
    h = History(adt, tuple(Operation(i, Event(kind, v, out), call, ret)
                           for i, (kind, v, call, ret, out) in enumerate(rows)))
    with pytest.raises(HistoryError):
        check_history(h)
    path = tmp_path / "h.txt"
    path.write_text(serialize_history(h))
    assert main(["check", str(path)]) == 2
    assert capsys.readouterr() == ("", f"limon: {message}\n")
