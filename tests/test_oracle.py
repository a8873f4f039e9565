import random

import pytest

from limon import (
    BoundExceeded,
    Event,
    History,
    HistoryError,
    Operation,
    brute_force_linearizable,
    check_history,
    gen_random,
    multiset_linearizable_events,
    parse_event_stream,
    parse_history,
    sequential_check,
    serialize_history,
)
from limon.sets import set_linearizable_events

from helpers import naive_linearizable, saturation_baseline, small_histories

H1_TEXT = "adt stack\npush 0 0 2\npush 1 1 3\npop 1 4 6\npop 0 5 7\n"
LIFO_BAD = "adt stack\npush 1 0 1\npush 2 2 3\npop 1 4 5\npop 2 6 7\n"


class TestSequentialCheck:
    def test_renamed_overview_trace(self):
        trace = [Event("push", 1), Event("push", 0), Event("pop", 0),
                 Event("push", 2), Event("push", 5), Event("pop", 5),
                 Event("pop", 2), Event("pop", 1)]
        assert sequential_check(trace, "stack")

    def test_lifo_violation(self):
        assert not sequential_check(
            [Event("push", 1), Event("push", 2), Event("pop", 1)], "stack")

    def test_fifo(self):
        assert sequential_check(
            [Event("push", 1), Event("push", 2), Event("pop", 1), Event("pop", 2)],
            "queue")

    def test_popempty_requires_empty(self):
        assert sequential_check([Event("popempty")], "stack")
        assert not sequential_check([Event("push", 1), Event("popempty")], "stack")

    def test_set_semantics(self):
        assert sequential_check([Event("add", 1, True), Event("add", 1, False),
                                 Event("contains", 1, True), Event("remove", 1, True),
                                 Event("remove", 1, False), Event("contains", 1, False)],
                                "set")
        assert not sequential_check([Event("add", 1, False)], "set")

    def test_multiset_counts(self):
        assert sequential_check([Event("add", 1, True), Event("add", 1, True),
                                 Event("remove", 1, True), Event("remove", 1, True)],
                                "multiset")
        assert not sequential_check([Event("remove", 1, True)], "multiset")


class TestBruteForce:
    def test_overview_history(self):
        assert brute_force_linearizable(parse_history(H1_TEXT)).linearizable

    def test_stack_queue_duality(self):
        text = "adt {}\npush 1 0 1\npush 2 2 3\npop 1 4 5\npop 2 6 7\n"
        assert not brute_force_linearizable(
            parse_history(text.format("stack"))).linearizable
        assert brute_force_linearizable(
            parse_history(text.format("queue"))).linearizable

    def test_empty(self):
        assert brute_force_linearizable(History("stack", ())).linearizable

    def test_bound(self):
        h = parse_history(H1_TEXT)
        with pytest.raises(BoundExceeded):
            brute_force_linearizable(h, max_ops=3)

    @pytest.mark.parametrize("adt, rows", [
        # The pop is called at its push's return: timestamp 5 is shared.
        ("queue", [("push", 1, 0, 5), ("pop", 1, 5, 6)]),
        # The push returns before its call.
        ("stack", [("push", 1, 2, 0), ("pop", 1, 3, 4)]),
    ])
    def test_refuses_what_the_monitors_refuse(self, adt, rows):
        # The search once read the operations unchecked and answered
        # linearizable for the queue and unlinearizable for the stack.
        h = History(adt, tuple(Operation(i, Event(kind, v), call, ret)
                               for i, (kind, v, call, ret) in enumerate(rows)))
        with pytest.raises(HistoryError):
            check_history(h)
        with pytest.raises(HistoryError):
            brute_force_linearizable(h)

    def test_against_permutation_enumerator(self):
        for adt in ("stack", "queue", "set", "multiset"):
            for seed in range(250):
                h = gen_random(adt, 2 + seed % 5, 80_000 + seed)
                assert (brute_force_linearizable(h, max_ops=12).linearizable
                        == naive_linearizable(h)), (adt, seed)

    def test_value_renaming_invariance(self):
        for adt in ("stack", "queue"):
            for seed in range(300):
                h = gen_random(adt, 2 + seed % 6, 81_000 + seed)
                values = sorted({o.event.value for o in h.ops
                                 if o.event.value is not None})
                rng = random.Random(seed)
                renamed = dict(zip(values, rng.sample(range(500, 900), len(values))))
                ops = tuple(
                    Operation(o.id,
                              Event(o.event.kind,
                                    renamed.get(o.event.value), o.event.outcome),
                              o.call, o.ret)
                    for o in h.ops)
                h2 = History(adt, ops)
                assert (brute_force_linearizable(h).linearizable
                        == brute_force_linearizable(h2).linearizable), (adt, seed)


class TestSaturation:
    def test_overview_history(self):
        assert saturation_baseline(parse_history(H1_TEXT)).linearizable

    def test_lifo_violation_cycle(self):
        verdict = saturation_baseline(parse_history(LIFO_BAD))
        assert not verdict.linearizable
        assert verdict.witness["kind"] == "saturation-cycle"

    def test_empty(self):
        assert saturation_baseline(History("stack", ())).linearizable

    def test_queue_rules(self):
        fifo_bad = parse_history(
            "adt queue\nenq 1 0 1\nenq 2 2 3\ndeq 2 4 5\ndeq 1 6 7\n")
        assert not saturation_baseline(fifo_bad).linearizable
        fifo_ok = parse_history(
            "adt queue\nenq 1 0 1\nenq 2 2 3\ndeq 1 4 5\ndeq 2 6 7\n")
        assert saturation_baseline(fifo_ok).linearizable

    def test_disagreements_logged_not_asserted(self):
        # The baseline is known-unproven; record the disagreement rate, never
        # require agreement.
        disagreements = 0
        total = 0
        for seed in range(500):
            h = gen_random("stack", 2 + seed % 6, 82_000 + seed)
            try:
                s = saturation_baseline(h).linearizable
            except Exception:
                continue
            o = brute_force_linearizable(h, max_ops=12).linearizable
            total += 1
            disagreements += s != o
        assert total > 400
        print(f"saturation baseline disagreed with the oracle on "
              f"{disagreements}/{total} random histories")


class TestExhaustiveSmallHistories:
    """Every history of a small class, through both file formats and the
    monitor, and a set's or multiset's with no failing add or remove also
    as a stream, against the oracle (small-scope hypothesis)."""

    @pytest.mark.parametrize("adt, labels, max_k, count, unique", [
        ("multiset", [Event(kind, v, True) for kind in ("add", "remove") for v in (0, 1)],
         4, (27_892, 27_892, 27_892), False),
        ("set", [Event(kind, 0, outcome) for kind in ("add", "remove", "contains")
                 for outcome in (True, False)], 4, (139_434, 139_434, 27_892), False),
        ("set", [Event(kind, v, outcome) for kind in ("add", "remove", "contains")
                 for v in (0, 1) for outcome in (True, False)], 3, (26_364, 26_364, 7_880), False),
        ("stack", [Event(kind, v) for kind in ("push", "pop") for v in (0, 1)]
         + [Event("popempty")], 4, (67_580, 23_108, 0), True),
        ("queue", [Event(kind, v) for kind in ("push", "pop") for v in (0, 1)],
         4, (27_892, 2_920, 0), True),
    ], ids=["multiset", "set-one-name", "set-two-names", "stack-unique-names",
            "queue-unique-names"])
    def test_monitor_agrees_with_the_oracle(self, adt, labels, max_k, count, unique):
        # count: (histories enumerated, checked, also streamed).  With
        # unique, only those in which no value is pushed or popped twice are
        # checked.
        seen = checked = streamed = wrong = 0
        for h in small_histories(adt, labels, max_k):
            seen += 1
            if unique:
                named = [op.event[:2] for op in h.ops if op.event.value is not None]
                if len(set(named)) < len(named):
                    continue
            expected = brute_force_linearizable(h).linearizable
            events = serialize_history(h, "events")
            verdicts = [check_history(parse_history(text)).linearizable
                        for text in (serialize_history(h), events)]
            if adt in ("set", "multiset") and not any(
                    op.event.outcome is False and op.event.kind != "contains" for op in h.ops):
                _, stream = parse_event_stream(events)
                monitor = set_linearizable_events if adt == "set" else multiset_linearizable_events
                verdicts.append(monitor(stream).linearizable)
                streamed += 1
            wrong += any(verdict != expected for verdict in verdicts)
            checked += 1
        assert (seen, checked, streamed, wrong) == (*count, 0)
