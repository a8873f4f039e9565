import gc
import io
import random
import tracemalloc
from collections import Counter

import pytest

from limon import (
    Event,
    GenConfig,
    History,
    Operation,
    ParseError,
    HistoryError,
    Verdict,
    WorkCounter,
    brute_force_linearizable,
    check_history,
    gen_linearizable,
    gen_random,
    multiset_linearizable_events,
    normalize_failing_ops,
    parse_event_stream,
    parse_history,
    queue_linearizable,
    serialize_history,
    set_linearizable_events,
    stack_linearizable,
)
from limon import history
from limon.history import _duplicate_stamp, _in_order, value_table

from helpers import (
    EMPTY,
    Interval,
    complete_history,
    differentiate,
    fold_values,
    matched,
    op_to_val,
    project,
    remove_overlapping_pairs,
    unmatched_pops,
)

H1_TEXT = "adt stack\npush 0 0 2\npush 1 1 3\npop 1 4 6\npop 0 5 7\n"


def h1():
    return parse_history(H1_TEXT)


class TestParse:
    def test_overview_history(self):
        h = h1()
        assert h.adt == "stack"
        assert len(h) == 4
        assert [(o.event.kind, o.event.value, o.call, o.ret) for o in h.ops] == [
            ("push", 0, 0, 2), ("push", 1, 1, 3), ("pop", 1, 4, 6), ("pop", 0, 5, 7)]

    def test_empty_history(self):
        assert len(parse_history("adt stack\n")) == 0

    def test_event_format_single_pairing(self):
        h = parse_history("adt stack\ncall 9 push 5 10\nret 9 13\n")
        assert len(h) == 1
        op = h.ops[0]
        assert (op.id, op.event.kind, op.event.value, op.call, op.ret) == (9, "push", 5, 10, 13)

    def test_event_format_pop_value_on_ret(self):
        h = parse_history("adt stack\ncall 0 push 7 0\nret 0 1\ncall 1 pop 2\nret 1 3 7\n")
        assert h.ops[1].event == Event("pop", 7)

    def test_event_format_pop_empty_result(self):
        h = parse_history("adt stack\ncall 0 pop 2\nret 0 3 empty\n")
        assert h.ops[0].event.kind == "popempty"

    def test_comments_and_blank_lines(self):
        text = "# header comment\nadt stack\n\npush 1 0 2  # trailing\n pop 1 3 4\n"
        assert len(parse_history(text)) == 2

    def test_queue_aliases(self):
        h = parse_history("adt queue\nenq 1 0 1\ndeq 1 2 3\n")
        assert [o.event.kind for o in h.ops] == ["push", "pop"]

    def test_value_interning(self):
        h = parse_history("adt stack\npush apple 0 1\npush 7 2 3\npop apple 4 5\n")
        assert [o.event.value for o in h.ops] == ["apple", 7, "apple"]
        assert h.columns.value[0] is h.columns.value[2]  # one object per value

    def test_set_format(self):
        h = parse_history("adt set\nadd 5 0 2 ok\nremove 5 3 4 fail\ncontains 5 6 8 true\n")
        assert [(o.event.kind, o.event.outcome) for o in h.ops] == [
            ("add", True), ("remove", False), ("contains", True)]

    @pytest.mark.parametrize("text", [
        "push 1 0 1\n",                                  # missing header
        "adt heap\n",                                    # unknown adt
        "adt stack\npush 1\n",                           # malformed line
        "adt stack\npush 1 0 0\n",                       # call >= ret
        "adt stack\npush 1 0 2\npush 2 2 4\n",           # duplicate timestamp
        "adt stack\ncall 1 push 5 0\ncall 1 push 6 1\nret 1 2\n",  # duplicate id
        "adt stack\ncall 1 push 5 0\n",                  # unmatched return
        "adt queue\npopempty 0 1\n",                     # popempty illegal for queue
        "adt stack\nadd 1 0 1 ok\n",                     # set op in stack history
        "adt multiset\nadd 1 0 1 fail\n",                # failing multiset op
        "adt multiset\ncontains 1 0 1 true\n",           # membership query on multiset
        "adt set\nadd 1 0 1\n",                          # missing outcome
        "adt stack\npush 1 -1 2\n",                      # negative timestamp
    ])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_history(text)

    def test_bytes_not_utf8_names_the_line(self):
        with pytest.raises(ParseError) as exc:
            parse_history(b"adt stack\npush 1 0 1\n\xffpop 1 2 3\n")
        assert exc.value.line == 3 and str(exc.value) == "input is not UTF-8 (line 3)"


class TestInterval:
    def test_closed_endpoint_intersection(self):
        assert Interval(4, 8).intersects(Interval(7, 9))
        assert Interval(0, 5).intersects(Interval(5, 9))  # shared endpoint counts
        assert not Interval(0, 4).intersects(Interval(5, 9))
        assert Interval(3, 3).intersects(Interval(0, 3))  # zero-length is legal

    def test_rejects_inverted(self):
        with pytest.raises(HistoryError):
            Interval(5, 4)


class TestValidate:
    """The faults of a library history, as the monitors and the parser see them."""

    def test_clean(self):
        h = h1()
        assert parse_history(serialize_history(h, fmt="events")) == h
        assert check_history(h).linearizable

    def test_duplicate_timestamp(self):
        h = History("stack", (Operation(0, Event("push", 1), 0, 5),
                              Operation(1, Event("push", 2), 5, 7)))
        with pytest.raises(HistoryError, match="timestamps are not distinct"):
            check_history(h)
        with pytest.raises(ParseError, match=r"duplicate-timestamp \(5\)"):
            parse_history(serialize_history(h, fmt="events"))

    def test_reused_id(self):
        # The set monitor keys pending queries by id: sharing one, the
        # contains(5) true that nothing justifies would go unchecked.
        h = History("set", (Operation(0, Event("contains", 5, True), 0, 10),
                            Operation(0, Event("contains", 5, False), 1, 2)))
        with pytest.raises(HistoryError, match="ids are not distinct"):
            check_history(h)
        with pytest.raises(ParseError, match=r"duplicate call for id 0 \(line 3\)"):
            parse_history(serialize_history(h, fmt="events"))
        assert not check_history(parse_history(serialize_history(h))).linearizable

    def test_set_outcome_not_a_bool(self):
        # The set checker compares an answer with the state by identity, so
        # it read the answer 1 as "absent": a confident wrong verdict.
        h = History("set", (Operation(0, Event("add", 5, True), 0, 1),
                            Operation(1, Event("contains", 5, 1), 2, 3)))
        for refuse in (check_history, serialize_history):
            with pytest.raises(HistoryError, match="operation 1: contains outcome 1$"):
                refuse(h)

    def test_set_outcome_missing(self):
        # Checked as a success, but written to an event file as a failure.
        h = History("set", (Operation(0, Event("add", 5), 0, 1),))
        with pytest.raises(HistoryError, match="operation 0: add outcome None"):
            check_history(h)

    @pytest.mark.parametrize("outcome", [True, 5])
    @pytest.mark.parametrize("adt", ["stack", "queue"])
    def test_outcome_on_a_push(self, adt, outcome):
        h = History(adt, (Operation(0, Event("push", 5, outcome), 0, 1),
                          Operation(1, Event("pop", 5), 2, 3)))
        with pytest.raises(HistoryError, match=f"^operation 0: push outcome {outcome}$"):
            check_history(h)

    @pytest.mark.parametrize("event, message", [
        (Event("push"), "operation 0: push value None"),
        (Event("popempty", 3), "operation 0: popempty value 3"),
    ], ids=["push", "popempty"])
    def test_value_missing_or_on_a_pop_empty(self, event, message):
        h = History("stack", (Operation(0, event, 0, 1),))
        with pytest.raises(HistoryError, match=message):
            check_history(h)

    def test_unmatched_pop(self):
        for adt in ("stack", "queue"):
            h = History(adt, (Operation(0, Event("pop", 9), 0, 1),))
            witness = {"kind": "unmatched-pop", "value": 9}
            assert check_history(h).witness == witness
            assert check_history(parse_history(serialize_history(h))).witness == witness

    def test_unmatched_pops_shared_by_reference_and_monitors(self):
        # 1 is pushed once and popped twice, 3 never pushed, 2 balanced.
        rows = [("pop", 3), ("push", 1), ("push", 2), ("pop", 1), ("pop", 2), ("pop", 1)]
        for adt, monitor in (("stack", stack_linearizable), ("queue", queue_linearizable)):
            h = History(adt, tuple(Operation(i, Event(kind, v), 2 * i, 2 * i + 1)
                                   for i, (kind, v) in enumerate(rows)))
            assert unmatched_pops(h) == [1, 3]
            assert monitor(h).witness == {"kind": "unmatched-pop", "value": 1}


class TestCompletion:
    def test_single_unmatched_push(self):
        h = History("stack", (Operation(0, Event("push", 7), 0, 1),))
        done = complete_history(h)
        added = done.ops[-1]
        assert (added.event.kind, added.event.value, added.call, added.ret) == ("pop", 7, 2, 3)
        assert matched(done)

    def test_two_unmatched_pushes_overlap(self):
        h = History("stack", (Operation(0, Event("push", 1), 0, 4),
                              Operation(1, Event("push", 2), 5, 9)))
        done = complete_history(h)
        pops = sorted((o.call, o.ret) for o in done.ops if o.event.kind == "pop")
        assert pops == [(10, 12), (11, 13)]
        first, second = ((o.call, o.ret) for o in done.ops[:2])
        assert Interval(*first).intersects(Interval(*second)) is False

    def test_contains_original(self):
        h = parse_history("adt stack\npush 1 0 1\npush 2 2 3\n")
        done = complete_history(h)
        assert set(h.ops) <= set(done.ops)
        assert matched(done)

    def test_completion_preserves_oracle_verdict(self):
        for seed in range(300):
            h = gen_random("stack", 2 + seed % 5, 40_000 + seed)
            before = brute_force_linearizable(h, max_ops=12).linearizable
            after = brute_force_linearizable(complete_history(h), max_ops=14).linearizable
            assert before == after, seed


class TestOverlapRemoval:
    def test_overlap_removed(self):
        h = History("stack", (Operation(0, Event("push", 3), 0, 5),
                              Operation(1, Event("pop", 3), 4, 9)))
        out, flagged = remove_overlapping_pairs(h)
        assert len(out) == 0 and flagged == ()

    def test_disjoint_unchanged(self):
        h = History("stack", (Operation(0, Event("push", 3), 0, 2),
                              Operation(1, Event("pop", 3), 5, 7)))
        out, flagged = remove_overlapping_pairs(h)
        assert out == h and flagged == ()

    def test_pop_before_push_flagged(self):
        h = History("stack", (Operation(0, Event("pop", 3), 0, 2),
                              Operation(1, Event("push", 3), 5, 7)))
        _, flagged = remove_overlapping_pairs(h)
        assert flagged == (3,)


class TestDifferentiate:
    def test_sequential_reuse(self):
        h = parse_history("adt stack\npush 1 0 1\npop 1 2 3\npush 1 4 5\npop 1 6 7\n")
        dh, back = differentiate(h)
        vals = [o.event.value for o in dh.ops]
        assert vals == [10, 10, 11, 11]  # two distinct fresh values
        assert back == {10: 1, 11: 1}

    def test_already_differentiated_is_isomorphic(self):
        h = h1()
        dh, back = differentiate(h)
        assert len({o.event.value for o in dh.ops}) == 2
        assert sorted(back.values()) == [0, 1]
        assert [(o.call, o.ret) for o in dh.ops] == [(o.call, o.ret) for o in h.ops]

    def test_more_pops_than_pushes(self):
        h = parse_history("adt stack\npush 1 0 1\npop 1 2 3\npop 1 4 5\n")
        with pytest.raises(HistoryError):
            differentiate(h)

    def test_output_is_differentiated(self):
        for seed in range(200):
            h = gen_random("stack", 2 + seed % 6, 50_000 + seed)
            try:
                dh, _ = differentiate(h)
            except HistoryError:
                continue
            seen = Counter((o.event.kind, o.event.value) for o in dh.ops
                           if o.event.kind in ("push", "pop"))
            assert max(seen.values(), default=1) == 1, seed


def _reference_table(h):
    """What value_table must give, from the step functions: an early
    verdict, or the rows as {fresh value: (original value, push call,
    push return, pop call, pop return)} with the stack's rows after
    remove_overlapping_pairs, and the pop-empty intervals."""
    unmatched = unmatched_pops(h)
    if unmatched:
        return Verdict(False, {"kind": "unmatched-pop", "value": unmatched[0]})
    dh, back = differentiate(h)
    dh = complete_history(dh)
    kept, popped_first = remove_overlapping_pairs(dh)
    if popped_first:
        return Verdict(False, {"kind": "pop-before-push", "value": back[popped_first[0]]})
    rows = {v: (back[v], a.push_call, a.push_ret, a.pop_call, a.pop_ret)
            for v, a in op_to_val(kept if h.adt == "stack" else dh).items()}
    return rows, [(op.call, op.ret) for op in h.ops if op.event.kind == "popempty"]


def _table_rows(h, t):
    rows = {10 + x: (t.value[x], t.push_call[x], t.push_ret[x], t.pop_call[x], t.pop_ret[x])
            for x in range(len(t.value))}
    if h.adt == "stack":  # the stack monitor drops rows whose push and pop intersect
        rows = {v: row for v, row in rows.items() if row[2] < row[3]}
    return rows, t.pop_empties


class TestValueTable:
    """value_table against the step functions it replaces in the monitors."""

    def test_against_step_functions(self):
        histories = []
        for seed in range(1000):
            for adt in ("stack", "queue"):
                raw = gen_random(adt, 2 + seed % 40, 90_000 + seed)
                lin = gen_linearizable(GenConfig(adt=adt, ops=4 + seed % 60,
                                                 threads=1 + seed % 5, seed=90_000 + seed))
                histories += [raw, fold_values(raw, 2 + seed % 3), lin]
        kinds = Counter()
        completed = pop_empties = 0
        for k, h in enumerate(histories):
            t = value_table(h)
            expect = _reference_table(h)
            if isinstance(expect, Verdict):
                assert t == expect, k
                kinds[expect.witness["kind"]] += 1
                continue
            assert _table_rows(h, t) == expect, k
            kinds["rows"] += 1
            completed += len(complete_history(h)) - len(h)
            pop_empties += len(t.pop_empties)
        assert len(histories) >= 5000
        assert min(kinds["unmatched-pop"], kinds["pop-before-push"]) >= 200, kinds
        assert kinds["rows"] >= 2000 and completed >= 2000 and pop_empties >= 500, (
            kinds, completed, pop_empties)

    def test_charges_one_unit_per_operation(self):
        counter = WorkCounter()
        value_table(h1(), counter)
        assert counter.count == len(h1())

    @pytest.mark.parametrize("adt, rows", [
        # enq 2 calls when enq 1 returns: timestamp 2 is shared.
        ("queue", [("push", 1, 0, 2), ("push", 2, 2, 3), ("pop", 2, 4, 5), ("pop", 1, 10, 11)]),
        ("queue", [("push", 1, 5, 5), ("pop", 1, 9, 9)]),
        ("stack", [("push", 1, 0, 1), ("push", 2, 3, 3), ("pop", 2, 4, 6), ("pop", 1, 7, 8)]),
        ("stack", [("push", 1, 2, 0), ("pop", 1, 3, 4)]),
    ])
    def test_monitors_refuse_shared_timestamps_and_calls_not_before_returns(self, adt, rows):
        # At the parent the two queue histories got a confident critical-pair
        # verdict, while the oracle calls both linearizable.
        h = History(adt, tuple(Operation(i, Event(kind, v), call, ret)
                               for i, (kind, v, call, ret) in enumerate(rows)))
        with pytest.raises(HistoryError):
            value_table(h)
        with pytest.raises(HistoryError):
            check_history(h)

    def test_a_check_sorts_the_timestamps_once(self, monkeypatch):
        # The parser's sort serves the monitor; a library history is sorted
        # once, by its first check, which builds and keeps its columns; a
        # generated history is born as columns, which no check sorts.
        sorts = []
        monkeypatch.setattr("limon.history._duplicate_stamp",
                            lambda cols: sorts.append(len(cols.call)) or _duplicate_stamp(cols))
        for adt in ("stack", "queue", "set", "multiset"):
            h = gen_linearizable(GenConfig(adt=adt, ops=40, seed=3))
            parsed = parse_history(serialize_history(h))
            assert sorts == [40]
            check_history(parsed)
            check_history(h)
            assert sorts == [40], adt
            library = History(adt, h.ops)
            check_history(library)
            check_history(library)
            assert sorts == [40, 40], adt
            sorts.clear()


class TestProject:
    def test_full_value_set(self):
        h = h1()
        assert project(h, {0, 1}) == h

    def test_empty_set(self):
        assert len(project(h1(), set())) == 0

    def test_single_value(self):
        sub = project(h1(), {0})
        assert [(o.event.kind, o.call, o.ret) for o in sub.ops] == [("push", 0, 2), ("pop", 5, 7)]

    def test_popempty_sentinel(self):
        h = parse_history("adt stack\npush 1 0 1\npop 1 2 3\npopempty 4 5\n")
        assert len(project(h, {1})) == 2
        assert len(project(h, {1, EMPTY})) == 3

    def test_projection_preserves_linearizability(self):
        # Every value-subset projection of an oracle-linearizable history
        # stays linearizable.
        from itertools import combinations
        checked = 0
        for seed in range(400):
            h = gen_random("stack", 2 + seed % 5, 60_000 + seed)
            if not brute_force_linearizable(h, max_ops=12).linearizable:
                continue
            values = sorted({o.event.value for o in h.ops if o.event.value is not None})
            for k in range(len(values)):
                for keep in combinations(values, k):
                    sub = project(h, set(keep) | {EMPTY})
                    assert brute_force_linearizable(sub, max_ops=12).linearizable, (seed, keep)
                    checked += 1
        assert checked > 100


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["ops", "events"])
    def test_round_trip_generated(self, fmt):
        for adt in ("stack", "queue", "set", "multiset"):
            for seed in range(150):
                h = gen_random(adt, 1 + seed % 8, 70_000 + seed)
                assert parse_history(serialize_history(h, fmt)) == h

    def test_queue_surface_spelling(self):
        h = parse_history("adt queue\nenq 1 0 1\ndeq 1 2 3\n")
        text = serialize_history(h)
        assert "enq 1 0 1" in text and "deq 1 2 3" in text

    @pytest.mark.parametrize("fmt", ["ops", "events"])
    @pytest.mark.parametrize("adt", ["stack", "queue", "set", "multiset"])
    def test_round_trip_differential(self, adt, fmt):
        # 2 formats x 4 adts x 2 generators x 130 seeds = 2,080 histories.
        for seed in range(130):
            cfg = GenConfig(adt=adt, ops=2 + seed % 30, values=1 + seed % 9,
                            threads=1 + seed % 4, seed=90_000 + seed,
                            stretch=1.0 + seed % 3)
            for h in (gen_random(adt, 1 + seed % 20, 80_000 + seed, values=1 + seed % 5),
                      gen_linearizable(cfg)):
                back = parse_history(serialize_history(h, fmt))
                assert back == h, (adt, fmt, seed)
                assert all(type(op.event.value) in (int, type(None)) for op in back.ops)


class TestSerializeRefuses:
    """serialize_history refuses what no file can state, and writes what a
    file states faithfully, whether the parser then takes it or not."""

    @pytest.mark.parametrize("adt, event, message", [
        ("stack", Event("push", 5, True), "push outcome True"),
        ("stack", Event("push", 5, 5), "push outcome 5"),
        ("queue", Event("pop", 5, False), "pop outcome False"),
        ("set", Event("add", 5), "add outcome None"),
        ("set", Event("contains", 5), "contains outcome None"),
        ("set", Event("add", 5, 1), "add outcome 1"),
        ("stack", Event("push", None), "push value None"),
        ("stack", Event("popempty", 3), "popempty value 3"),
        ("stack", Event("peek", 3), "unknown kind 'peek'"),
    ], ids=["push-outcome", "push-int", "pop-outcome", "add-none", "contains-none", "add-int",
            "push-none", "popempty-value", "unknown-kind"])
    @pytest.mark.parametrize("fmt", ["ops", "events"])
    def test_a_row_no_file_states(self, adt, event, message, fmt):
        h = History(adt, (Operation(0, Event("push", 1), 0, 1), Operation(4, event, 2, 3)))
        with pytest.raises(HistoryError, match=f"^operation 4: {message}$"):
            serialize_history(h, fmt)

    def test_faults_a_file_states(self):
        h = History("stack", (Operation(0, Event("push", 1), 0, 5),
                              Operation(1, Event("add", 2, True), 5, 4),
                              Operation(2, Event("popempty"), 6, 7)))
        assert serialize_history(h) == "adt stack\npush 1 0 5\nadd 2 5 4 ok\npopempty 6 7\n"
        assert serialize_history(h, "events") == (
            "adt stack\ncall 0 push 1 0\nret 1 4 ok\nret 0 5\ncall 1 add 2 5\n"
            "call 2 popempty 6\nret 2 7\n")

    def test_either_view(self):
        h = gen_linearizable(GenConfig(adt="queue", ops=30, seed=4))
        library = History("queue", h.ops)
        for fmt in ("ops", "events"):
            assert serialize_history(h, fmt) == serialize_history(library, fmt)
        assert library._cols is None  # its ops were written as they are


def symbolize(text: str) -> str:
    """Spell the odd values of a serialized history as symbols: 3 as x3."""
    lines = []
    for line in text.splitlines():
        toks = line.split()
        at = {"call": 3, "ret": 3, "adt": None, "popempty": None}.get(toks[0], 1)
        if at is not None and len(toks) > at + (toks[0] == "call") \
                and toks[at].lstrip("-").isdigit() and int(toks[at]) % 2:
            toks[at] = f"x{toks[at]}"
        lines.append(" ".join(toks))
    return "\n".join(lines) + "\n"


class TestParsedRecords:
    """parse_history keeps columns; History(adt, ops) keeps Operations.
    Both must check alike and compare, hash and print alike."""

    @pytest.mark.parametrize("adt", ["stack", "queue", "set", "multiset"])
    def test_parser_path_equals_library_path(self, adt):
        texts = []
        for seed in range(500):
            fmt = ("ops", "events")[seed % 2]
            raw = gen_random(adt, 2 + seed % 24, 50_000 + seed, values=2 + seed % 3)
            lin = gen_linearizable(GenConfig(adt=adt, ops=2 + seed % 30, values=2 + seed % 3,
                                             threads=1 + seed % 4, seed=50_000 + seed,
                                             stretch=1.0 + seed % 3))
            histories = [raw, lin]
            if adt in ("stack", "queue"):
                histories.append(fold_values(raw, 2 + seed % 3))
            for h in histories:
                text = serialize_history(h, fmt)
                texts += [text, symbolize(text)]
        seen = Counter()
        for text in texts:
            parsed = parse_history(text)
            parsed_work, library_work = WorkCounter(), WorkCounter()
            verdict = check_history(parsed, counter=parsed_work)
            library = History(adt, parse_history(text).ops)
            assert check_history(library, counter=library_work) == verdict, text
            assert parsed_work.count == library_work.count, text
            assert library == parsed and hash(library) == hash(parsed), text
            assert repr(library) == repr(parsed), text
            assert list(map(list, library.columns)) == list(map(list, parsed.columns)), text
            seen[verdict.linearizable] += 1
            seen["symbolic"] += "x" in text
            seen["failing"] += " fail" in text
            seen["popempty"] += "popempty" in text
        assert len(texts) >= 2000 and min(seen[True], seen[False], seen["symbolic"]) > 200, seen
        if adt == "set":
            assert seen["failing"] > 200, seen
        if adt == "stack":
            assert seen["popempty"] > 200, seen


class TestValuesAsWritten:
    """A value token reads as written, the int of an integer literal and any
    other token itself, in a file and in a stream alike."""

    @pytest.mark.parametrize("adt", ["set", "multiset"])
    def test_files_and_streams_read_symbolic_values_alike(self, adt):
        runner = set_linearizable_events if adt == "set" else multiset_linearizable_events
        seen = Counter()
        for seed in range(300):
            h = (gen_random(adt, 2 + seed % 14, 60_000 + seed, values=1 + seed % 4)
                 if seed % 3 else
                 gen_linearizable(GenConfig(adt=adt, ops=2 + seed % 20, values=1 + seed % 4,
                                            threads=1 + seed % 3, seed=60_000 + seed)))
            if adt == "set":  # a stream refuses failing adds and removes
                h = normalize_failing_ops(h)
            text = serialize_history(h, fmt="events")
            symbolic = symbolize(text)
            as_file = check_history(parse_history(symbolic))
            _, events = parse_event_stream(symbolic)
            assert runner(events) == as_file, symbolic
            witness = as_file.witness
            if witness is not None and type(witness["value"]) is str:
                seen["symbolic witness"] += 1
                witness = dict(witness, value=int(witness["value"][1:]))  # x3 names 3
            assert (as_file.linearizable, witness) == check_history(parse_history(text)), text
            seen[as_file.linearizable] += 1
        assert min(seen[True], seen[False], seen["symbolic witness"]) >= 30, seen

    @pytest.mark.parametrize("text", [
        "adt stack\npush a 0 1\npush 1 2 3\npop a 4 5\npop 1 6 7\n",
        "adt stack\ncall 0 push a 0\nret 0 1\ncall 1 push 1 2\nret 1 3\n"
        "call 2 pop 4\nret 2 5 a\ncall 3 pop 6\nret 3 7 1\n",
    ])
    def test_a_witness_names_the_input_values(self, text):
        h = parse_history(text)
        witness = {"kind": "no-separation", "values": [1, "a"]}
        assert check_history(h) == Verdict(False, witness)
        assert check_history(History("stack", h.ops)) == Verdict(False, witness)

    def test_an_unmatched_pop_of_two_value_types(self):
        h = History("stack", (Operation(0, Event("pop", "a"), 0, 1),
                              Operation(1, Event("pop", 1), 2, 3)))
        assert check_history(h) == Verdict(False, {"kind": "unmatched-pop", "value": 1})

    @pytest.mark.parametrize("values, ordered", [
        ([3, "b", 1, "a", -2], [-2, 1, 3, "a", "b"]),
        ([2.5, 1, -3], [-3, 1, 2.5]),
        (["b", "a"], ["a", "b"]),
        ([(2, "x"), 1], [1, (2, "x")]),
    ])
    def test_witness_order(self, values, ordered):
        assert _in_order(values) == ordered


def parse_error(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_history(text)
    return info.value


class TestParseEdgeCases:
    # '²' passes str.isdigit but int() rejects it; int('٥') is 5.
    @pytest.mark.parametrize("digit", ["²", "٥"])
    @pytest.mark.parametrize("template, line", [
        ("adt stack\npush 1 {} 3\n", 2),
        ("adt set\ncall 0 add 1 {}\nret 0 9 ok\n", 2),
        ("adt set\ncall 0 add 1 0\nret 0 {} ok\n", 3),
    ])
    def test_non_ascii_digit_timestamps_name_their_line(self, digit, template, line):
        err = parse_error(template.format(digit))
        assert str(err) == f"bad timestamp {digit!r} (line {line})"

    def test_underscore_timestamp_rejected(self):
        # int('1_0') is 10.
        assert "bad timestamp '1_0'" in str(parse_error("adt stack\npush 1 1_0 20\n"))

    def test_timestamp_signs(self):
        assert parse_history("adt stack\npush 1 +5 7\n").ops[0].call == 5
        err = parse_error("adt stack\npush 1 -5 7\n")
        assert str(err) == "negative timestamp '-5' (line 2)"

    @pytest.mark.parametrize("fmt", ["ops", "events"])
    def test_signed_values(self, fmt):
        h = parse_history(serialize_history(History("stack", (
            Operation(0, Event("push", -3), 0, 1), Operation(1, Event("pop", -3), 2, 3))), fmt))
        assert [op.event.value for op in h.ops] == [-3, -3]
        h = parse_history("adt stack\npush +4 0 1\npop 4 2 3\n")
        assert [op.event.value for op in h.ops] == [4, 4]

    def test_symbolic_values_are_kept_as_written(self):
        h = parse_history("adt stack\npush b 0 1\npush 7 2 3\npush a 4 5\n"
                          "pop b 6 7\npush -2 8 9\n")
        assert [op.event.value for op in h.ops] == ["b", 7, "a", "b", -2]
        # Event format: a pop's value on its return too.
        h = parse_history("adt stack\ncall 0 push x 0\nret 0 1\ncall 1 pop 2\n"
                          "ret 1 3 y\ncall 2 push 5 4\nret 2 5\ncall 3 push y 6\nret 3 7\n")
        assert [op.event.value for op in h.ops] == ["x", "y", 5, "y"]
        h = parse_history("adt queue\nenq -5 0 1\nenq z 2 3\nenq 05 4 5\n")
        assert [op.event.value for op in h.ops] == [-5, "z", 5]

    def test_comments_crlf_and_blank_lines(self):
        text = "# top\r\nadt stack\r\n\r\npush 1 0 2 # mid-line\r\n   \r\npop 1 3 4\r\n"
        h = parse_history(text)
        assert [(op.event.kind, op.event.value, op.call, op.ret) for op in h.ops] == [
            ("push", 1, 0, 2), ("pop", 1, 3, 4)]
        assert parse_error(text + "\r\n# c\r\npop 1 x 9\r\n").line == 9

    @pytest.mark.parametrize("text", [
        "adt stack\npush 1 0 2\npush 2 2 4\n",
        "adt stack\ncall 0 push 1 0\nret 0 2\ncall 1 push 2 2\nret 1 4\n",
    ])
    def test_duplicate_timestamp_message(self, text):
        assert str(parse_error(text)) == "invalid history: duplicate-timestamp (2)"

    @pytest.mark.parametrize("fmt", ["ops", "events"])
    def test_two_duplicate_timestamps_name_the_least(self, fmt):
        # 8 is the first stamp shared in call order, 3 the least one.
        h = History("stack", tuple(Operation(i, Event("push", i), call, ret) for i, (call, ret)
                                   in enumerate([(0, 8), (1, 8), (2, 3), (3, 4)])))
        text = serialize_history(h, fmt)
        assert str(parse_error(text)) == "invalid history: duplicate-timestamp (3)"

    def test_pop_returning_a_result_word_carries_no_value(self):
        err = parse_error("adt stack\ncall 0 pop 0\nret 0 1 ok\n")
        assert str(err) == "pop id 0 carries no value (call or ret) (line 3)"

    def test_contradicting_return_message(self):
        err = parse_error("adt stack\ncall 0 push 5 0\nret 0 1\ncall 1 pop 5 2\nret 1 3 7\n")
        assert str(err) == "return '7' contradicts its pop call (id 1) (line 5)"


class TestEventFilePairing:
    """Event files pair each return with its call as the records arrive."""

    @pytest.mark.parametrize("adt", ["stack", "queue", "set", "multiset"])
    def test_returns_before_their_calls_parse_alike(self, adt):
        for seed in range(200):
            h = gen_random(adt, 1 + seed % 20, 70_000 + seed, values=1 + seed % 4)
            header, *records = serialize_history(h, "events").splitlines()
            # Backwards, every return comes before its call.
            backwards = "\n".join([header, *reversed(records)]) + "\n"
            assert parse_history(backwards) == parse_history(serialize_history(h, "events")) == h

    @pytest.mark.parametrize("records, message", [
        ("call 3 push 1 0\nret 3 1\ncall 4 push 2 2\n", "operation id 4 has no matching return (line 4)"),
        ("call 7 push 1 0\nret 2 5\n", "operation id 2 has no matching call (line 3)"),
        ("ret 2 5\ncall 7 push 1 0\n", "operation id 2 has no matching call (line 2)"),
    ])
    def test_unpaired_ids(self, records, message):
        assert str(parse_error("adt stack\n" + records)) == message

    @pytest.mark.parametrize("records, message", [
        ("ret 0 3\nret 0 4\ncall 0 push 1 0\n", "duplicate return for id 0 (line 3)"),
        ("ret 0 3\ncall 0 push 1 0\nret 0 4\n", "duplicate return for id 0 (line 4)"),
        ("ret 0 3\ncall 0 push 1 0\ncall 0 push 1 1\n", "duplicate call for id 0 (line 4)"),
        ("call 0 push 1 0\ncall 0 push 1 1\nret 0 3\n", "duplicate call for id 0 (line 3)"),
        # Returns first, ids counting down: 3 starts the run and 2 joins the set.
        ("ret 3 5\ncall 3 push 1 0\nret 2 7\ncall 2 push 2 6\nret 2 8\n",
         "duplicate return for id 2 (line 6)"),
        ("ret 3 5\ncall 3 push 1 0\nret 2 7\ncall 2 push 2 6\ncall 3 push 3 9\n",
         "duplicate call for id 3 (line 6)"),
        # Returns first, then the gap at 1 filled, which drains 2 into the run.
        ("ret 0 1\ncall 0 push 1 0\nret 2 4\ncall 2 push 2 3\nret 1 6\ncall 1 push 3 5\n"
         "ret 2 7\n", "duplicate return for id 2 (line 8)"),
    ])
    def test_duplicates_with_early_returns(self, records, message):
        assert str(parse_error("adt stack\n" + records)) == message

    @pytest.mark.parametrize("records, ids", [
        ("call 0 push 1 0\nret 0 1\ncall 1 pop 2\nret 1 3 1\n", range(2)),
        ("ret 0 1\ncall 0 push 1 0\ncall 1 pop 2\nret 1 3 1\n", range(2)),
        ("call 0 push 1 0\nret 0 1\ncall 2 pop 2\nret 2 3 1\n", [0, 2]),
        ("call 5 push 1 0\ncall 0 push 2 1\nret 0 2\nret 5 3\n", [5, 0]),
        ("call 0 push 1 0\ncall 2 push 2 1\nret 2 2\nret 0 3\ncall 1 pop 4\nret 1 5 2\n", [0, 2, 1]),
    ])
    def test_ids_that_number_the_rows_stay_a_range(self, records, ids):
        assert parse_history("adt stack\n" + records).columns.id == ids


class TestFileAndStreamParity:
    """Files and streams check their records in one loop, so a fault in a
    record is reported alike by both, with the same line."""

    @staticmethod
    def stream_error(text: str) -> ParseError:
        with pytest.raises(ParseError) as info:
            _, events = parse_event_stream(io.StringIO(text))
            for _ in events:
                pass
        return info.value

    @pytest.mark.parametrize("text, message", [
        ("adt set\ncall 0 add\n", "expected: call <id> <kind> [<value>] <ts> (line 2)"),
        ("adt set\ncall 0 add 5 1 2 3\n", "expected: call <id> <kind> [<value>] <ts> (line 2)"),
        ("adt set\ncall 0 add 5 1\nret 0\n", "expected: ret <id> <ts> [<result>] (line 3)"),
        ("adt set\ncall 0 add 5 1\nret 0 2 ok 4\n", "expected: ret <id> <ts> [<result>] (line 3)"),
        ("adt set\ncall 0 put 5 1\n", "unknown event kind 'put' (line 2)"),
        ("adt stack\ncall 0 popempty 5 1\n", "popempty call takes no value (line 2)"),
        ("adt set\ncall 0 add 1\n", "add call needs a value (line 2)"),
        ("adt set\ncall x add 5 1\n", "bad operation id 'x' (line 2)"),
        ("adt set\ncall 0 add 5 1\nret 0x 2 ok\n", "bad operation id '0x' (line 3)"),
        ("adt set\ncall 0 add 5 t\n", "bad timestamp 't' (line 2)"),
        ("adt set\ncall 0 add 5 1\nret 0 2.0 ok\n", "bad timestamp '2.0' (line 3)"),
        ("adt set\ncall 0 add 5 -1\n", "negative timestamp '-1' (line 2)"),
        # int() would read these: an underscore, a non-ASCII digit.
        ("adt set\ncall 1_0 add 5 1\n", "bad operation id '1_0' (line 2)"),
        ("adt set\ncall 0 add 5 1_0\n", "bad timestamp '1_0' (line 2)"),
        ("adt set\ncall 0 add 5 \u0661\n", "bad timestamp '\u0661' (line 2)"),
        ("adt set\ncall 0 add 5 1\nret \u0661 2 ok\n", "bad operation id '\u0661' (line 3)"),
        # Of a record's faults, the id's comes first, then the kind's, then the timestamp's.
        ("adt set\ncall x add 5 t\n", "bad operation id 'x' (line 2)"),
        ("adt set\ncall 0 put 5 t\n", "unknown event kind 'put' (line 2)"),
        ("adt set\ncall 0 add 5 1\nret x 2.0 ok\n", "bad operation id 'x' (line 3)"),
        ("adt set\ncall 0 add 5 1\ncall 0 add 5 2\n", "duplicate call for id 0 (line 3)"),
        ("adt set\ncall 0 add 5 1\nret 0 2 ok\ncall 0 add 5 3\n", "duplicate call for id 0 (line 4)"),
        ("adt set\ncall 0 add 5 1\nret 0 2 ok\nret 0 3 ok\n", "duplicate return for id 0 (line 4)"),
        ("adt stack\ncall 0 push 5 1\nret 0 2 7\n",
         "return '7' contradicts its push call (id 0) (line 3)"),
        ("adt stack\ncall 0 pop 5 1\nret 0 2 empty\n",
         "return 'empty' contradicts its pop call (id 0) (line 3)"),
        ("adt stack\ncall 0 pop 1\nret 0 2 ok\n", "pop id 0 carries no value (call or ret) (line 3)"),
        ("adt set\ncall 0 contains 5 1\nret 0 2\n", "contains return needs a result (line 3)"),
        ("adt set\ncall 0 contains 5 1\nret 0 2 ok\n",
         "contains answer must be true/false, got 'ok' (line 3)"),
        ("adt set\ncall 0 add 5 1\nret 0 2 yes\n", "add outcome must be ok/fail, got 'yes' (line 3)"),
        ("adt multiset\ncall 0 add 5 1\nret 0 2 fail\n",
         "failing operations are not defined for multisets (line 2)"),
        ("adt multiset\ncall 0 contains 5 1\n", "event kind 'contains' illegal for adt 'multiset' (line 2)"),
        ("adt queue\ncall 0 pop 1\nret 0 2 empty\n", "event kind 'popempty' illegal for adt 'queue' (line 2)"),
        # The kind of a call is checked at the call, not when its operation completes.
        ("adt set\ncall 0 push 5 1\ncall 1 add 5 2\nret 1 3 ok\n",
         "event kind 'push' illegal for adt 'set' (line 2)"),
        ("adt set\ncall 0 push 5 1\nfoo\n", "event kind 'push' illegal for adt 'set' (line 2)"),
    ])
    def test_record_faults_read_alike(self, text, message):
        from_file = parse_error(text)
        from_stream = self.stream_error(text)
        assert str(from_file) == str(from_stream) == message
        assert from_file.line == from_stream.line

    @pytest.mark.parametrize("records, message", [
        # A first id other than 0 starts the run of ids; the next counts up.
        ("call 5 add 1 1\nret 5 2 ok\ncall 6 add 2 3\nret 6 4 ok\ncall 5 add 1 5\n",
         "duplicate call for id 5 (line 6)"),
        ("call 5 add 1 1\nret 5 2 ok\ncall 6 add 2 3\nret 6 4 ok\nret 6 5 ok\n",
         "duplicate return for id 6 (line 6)"),
        # Ids that count down are kept in the set beside the run.
        ("call 2 add 1 1\nret 2 2 ok\ncall 1 add 2 3\nret 1 4 ok\ncall 0 add 3 5\n"
         "ret 0 6 ok\ncall 1 add 2 7\n", "duplicate call for id 1 (line 8)"),
        ("call 2 add 1 1\nret 2 2 ok\ncall 0 add 3 3\nret 0 4 ok\nret 0 5 ok\n",
         "duplicate return for id 0 (line 6)"),
        # A gap filled later drains the set into the run: 2 and 3 join it
        # when 1 comes, and 4 counts up from there.
        ("call 0 add 1 1\nret 0 2 ok\ncall 2 add 2 3\nret 2 4 ok\ncall 3 add 3 5\n"
         "ret 3 6 ok\ncall 1 add 4 7\nret 1 8 ok\ncall 4 add 5 9\nret 4 10 ok\n"
         "call 2 add 2 11\n", "duplicate call for id 2 (line 12)"),
        ("call 0 add 1 1\nret 0 2 ok\ncall 2 add 2 3\ncall 1 add 4 4\nret 1 5 ok\n"
         "ret 2 6 ok\ncall 3 add 3 7\nret 3 8 ok\ncall 3 add 3 9\n",
         "duplicate call for id 3 (line 10)"),
        # Negative and signed ids are integers too.
        ("call -3 add 1 1\nret -3 2 ok\ncall -2 add 2 3\nret -2 4 ok\ncall -3 add 1 5\n",
         "duplicate call for id -3 (line 6)"),
        ("call -3 add 1 1\nret -3 2 ok\ncall +4 add 2 3\nret 4 4 ok\ncall 4 add 1 5\n",
         "duplicate call for id 4 (line 6)"),
    ])
    def test_id_bookkeeping_reads_alike(self, records, message):
        text = "adt set\n" + records
        from_file = parse_error(text)
        from_stream = self.stream_error(text)
        assert str(from_file) == str(from_stream) == message
        assert from_file.line == from_stream.line
        # Without its last record the text is accepted, with its ids as written.
        accepted = text[:text.rstrip("\n").rfind("\n") + 1]
        ids = [int(line.split()[1]) for line in accepted.splitlines() if line.startswith("call")]
        assert list(parse_history(accepted).columns.id) == ids
        _, events = parse_event_stream(accepted)
        assert [event[5] for event in events if event[1]] == ids

    def test_faults_only_a_stream_refuses(self):
        # A return before its call, a failing set add or remove and
        # timestamps out of order are legal in a file.
        for text, message in [
            ("adt set\nret 0 2 ok\ncall 0 add 5 1\n", "return without call for id 0 (line 2)"),
            ("adt set\ncall 0 add 5 1\nret 0 2 fail\n",
             "failing operations need offline checking (normalization) (line 3)"),
            ("adt set\ncall 0 remove 5 1\nret 0 2 fail\n",
             "failing operations need offline checking (normalization) (line 3)"),
            ("adt set\ncall 0 add 5 3\ncall 1 add 6 1\nret 0 4 ok\nret 1 5 ok\n",
             "stream timestamps must increase (1) (line 3)"),
        ]:
            assert len(parse_history(text)) in (1, 2)
            assert str(self.stream_error(text)) == message

    def test_unreturned_calls_are_named_differently(self):
        text = "adt set\ncall 0 add 5 1\ncall 1 add 6 2\nret 1 3 ok\n"
        assert str(parse_error(text)) == "operation id 0 has no matching return (line 2)"
        assert str(self.stream_error(text)) == "stream ended with 1 unreturned calls (line 2)"

    def test_a_return_at_its_calls_timestamp(self):
        # A stream refuses it as out of order; a file names the operation.
        text = "adt set\ncall 0 add 5 1\nret 0 1 ok\n"
        assert str(parse_error(text)) == "call 1 not before return 1 (id 0) (line 3)"
        assert str(self.stream_error(text)) == "stream timestamps must increase (1) (line 3)"

    def test_text_bytes_and_lines_stream_alike(self):
        # parse_event_stream takes the whole text, as parse_history does.
        text = "# log\nadt set\ncall 0 add 5 1\ncall 1 contains x 2\nret 0 3 ok\nret 1 4 false\n"
        read = [parse_event_stream(source) for source in (text, text.encode(), io.StringIO(text))]
        assert [adt for adt, _ in read] == ["set"] * 3
        events = [list(stream) for _, stream in read]
        assert events[0] == events[1] == events[2]
        assert [e[:2] for e in events[0]] == [(1, True), (2, True), (3, False), (4, False)]
        with pytest.raises(ParseError, match=r"not UTF-8 \(line 3\)"):
            parse_event_stream(b"adt set\ncall 0 add 5 1\n\xffret 0 2 ok\n")


class TestOutOfCallOrder:
    """Records in any order parse to the rows of the file in call order."""

    @pytest.mark.parametrize("adt", ["stack", "queue", "set", "multiset"])
    def test_shuffled_records(self, adt):
        rng = random.Random(5)
        moved = 0
        for seed in range(150):
            raw = gen_random(adt, 2 + seed % 30, 80_000 + seed, values=1 + seed % 4)
            lin = gen_linearizable(GenConfig(adt=adt, ops=2 + seed % 30, threads=1 + seed % 4,
                                             seed=80_000 + seed))
            for h in (raw, lin):
                verdict = check_history(h)
                # Operation format: ids are record positions, so they give the shuffle back.
                header, *lines = serialize_history(h, "ops").splitlines()
                shuffled = rng.sample(lines, len(lines))
                moved += shuffled != lines
                in_order = parse_history(serialize_history(h, "ops"))
                got = parse_history("\n".join([header, *shuffled]) + "\n")
                assert check_history(got) == verdict, (adt, seed)
                assert got.columns[:5] == in_order.columns[:5], (adt, seed)
                assert [shuffled[i] for i in got.columns.id] == lines, (adt, seed)
                # Event format: the file names the ids.
                header, *records = serialize_history(h, "events").splitlines()
                shuffled = rng.sample(records, len(records))
                got = parse_history("\n".join([header, *shuffled]) + "\n")
                assert check_history(got) == verdict, (adt, seed)
                in_order = parse_history(serialize_history(h, "events"))
                assert got.columns[:5] == in_order.columns[:5], (adt, seed)
                # In order, every id is its row number, so the id column is a range.
                assert list(got.columns.id) == list(in_order.columns.id), (adt, seed)
        assert moved > 250, moved


def plain_records(adt: str, n: int) -> list[str]:
    """n operation-format records that the block path takes in bulk, at
    timestamps below 2n; a stack's include a pop-empty every 50 records."""
    records = []
    for i in range(n):
        call, ret = 2 * i, 2 * i + 1
        if adt == "stack" and i % 50 == 7:
            records.append(f"popempty {call} {ret}")
        elif adt in ("stack", "queue"):
            kind = ("push", "pop") if adt == "stack" else ("enq", "deq")
            records.append(f"{kind[i % 2]} {i} {call} {ret}")
        else:
            kind, result = [("add", "ok"), ("remove", "ok"), ("contains", "true"),
                            ("add", "fail"), ("contains", "false")][i % (5 if adt == "set" else 2)]
            records.append(f"{kind} {i} {call} {ret} {result}")
    return records


def line_loop_parse(adt: str, lines: list[str]):
    """The line loop alone over the tokens of the record lines, numbered
    from 2, as parse_history finishes them; the columns, or the ParseError."""
    cols = [[], [], [], [], []]
    try:
        history._ops_lines(adt, history._tokens(lines), 2, cols, {}.setdefault)
    except ParseError as exc:
        return exc
    return history._in_call_order(cols + [range(len(cols[0]))])


class TestOpsBlocks:
    """An operation-format file is read in blocks of history._BLOCK lines.
    Each line is split once, its comment dropped.  A block of plain lines
    (no record, or one without faults or signed timestamps, whatever its
    values) is taken in bulk; any other goes to the line loop, so the
    result is the line loop's over the whole input."""

    @pytest.mark.parametrize("where", [0, history._BLOCK // 2, history._BLOCK - 1],
                             ids=["first", "middle", "last"])
    @pytest.mark.parametrize("adt, line, looped_blocks", [
        # 0: a plain line, symbolic and signed values too; 1: a fault, named
        # by the line loop.
        ("stack", "# a comment", 0),
        ("stack", "push 5 1000000 1000001 # a comment", 0),
        ("stack", "", 0),
        ("stack", " \t", 0),
        ("stack", "push\t5\t1000000\t1000001", 0),
        ("stack", "push x 1000000 1000001", 0),
        ("stack", "push -3 1000000 1000001", 0),
        ("queue", "enq +3 1000000 1000001", 0),
        ("stack", "push 1 ² 1000001", 1),
        ("stack", "push ٥ 1000000 1000001", 0),
        ("queue", "popempty 1000000 1000001", 1),
        ("stack", "push 1 1000000 1000001 ok", 1),
        ("stack", "popempty 1 1000000 1000001", 1),
        ("set", "put 1 1000000 1000001 ok", 1),
        ("multiset", "add 1 1000000 1000001 fail", 1),
        ("multiset", "contains 1 1000000 1000001 true", 1),
        ("set", "add 1 1000001 1000000 ok", 1),
    ])
    def test_blocks_read_as_the_line_loop(self, adt, line, looped_blocks, where, monkeypatch):
        lines = plain_records(adt, 4 * history._BLOCK)
        lines.insert(2 * history._BLOCK + where, line)
        expected = line_loop_parse(adt, lines)
        looped = self.spy_line_loop(monkeypatch)
        text = "\n".join([f"adt {adt}", *lines])  # no trailing blank line
        if isinstance(expected, ParseError):
            err = parse_error(text)
            assert (str(err), err.line) == (str(expected), expected.line)
        else:
            assert list(map(list, parse_history(text).columns)) == list(map(list, expected))
        assert looped == [2 + b * history._BLOCK for b in range(2, 2 + looped_blocks)]

    @staticmethod
    def spy_line_loop(monkeypatch) -> list[int]:
        """The first line number of each block the line loop will read."""
        looped = []
        line_loop = history._ops_lines

        def spy(adt, rows, first, *rest):
            looped.append(first)
            return line_loop(adt, rows, first, *rest)
        monkeypatch.setattr(history, "_ops_lines", spy)
        return looped

    def test_symbolic_blocks_are_taken_in_bulk(self, monkeypatch):
        # Blocks 0, 1 and 4 hold values spelled v<i> or -<i>; every block is
        # tried in bulk, and none goes to the line loop.
        lines = plain_records("stack", 5 * history._BLOCK - 1)
        for i in (10, history._BLOCK + 10, 4 * history._BLOCK + 10):
            # record i is called at 2i and returns at 2i + 1
            lines[i] = f"push v{i} {2 * i} {2 * i + 1}"
            lines[i + 1] = f"pop -{i} {2 * i + 2} {2 * i + 3}"
        tried = []
        bulk = history._ops_block

        def spy(adt, rows, cols, same):
            tried.append(len(cols[0]))
            return bulk(adt, rows, cols, same)
        expected = line_loop_parse("stack", lines)
        monkeypatch.setattr(history, "_ops_block", spy)
        looped = self.spy_line_loop(monkeypatch)
        got = parse_history("\n".join(["adt stack", *lines]))
        assert list(map(list, got.columns)) == list(map(list, expected))
        assert "v10" in got.columns.value and -10 in got.columns.value
        assert looped == []
        assert tried == [b * history._BLOCK for b in range(5)]

    @pytest.mark.parametrize("bad, fault, message", [
        (history._BLOCK + 2, None, "input is not UTF-8 (line {bad})"),
        (history._BLOCK + 500, None, "input is not UTF-8 (line {bad})"),
        (2 * history._BLOCK + 1, None, "input is not UTF-8 (line {bad})"),
        # A fault read before the bad byte's chunk is named first, as the
        # line loop names it; one after the bad byte is never read.
        (history._BLOCK + 950, history._BLOCK + 50,
         "call 5000001 not before return 5000000 (line {fault})"),
        (history._BLOCK + 50, history._BLOCK + 950, "input is not UTF-8 (line {bad})"),
    ])
    def test_non_utf8_inside_a_block(self, bad, fault, message, tmp_path):
        # A text file decodes a chunk of 8192 bytes at a time; records here
        # are about 20 bytes, so the bad byte lies chunks past the fault.
        lines = [line.encode() for line in plain_records("stack", 3 * history._BLOCK)]
        lines[bad - 2] = b"push \xff 4000000 4000001"
        if fault is not None:
            lines[fault - 2] = b"push 7 5000001 5000000"
        path = tmp_path / "h.txt"
        path.write_bytes(b"\n".join([b"adt stack", *lines]) + b"\n")
        with open(path, encoding="utf-8") as fh, pytest.raises(ParseError) as info:
            parse_history(fh)
        assert str(info.value) == message.format(bad=bad, fault=fault)


class TestParsedHistorySize:
    """A parsed history keeps its operations as columns, with no object per
    operation besides the timestamps and ids the file names, and one object
    per distinct value."""

    @staticmethod
    def assert_one_object_per_value(h: History) -> None:
        values = [v for v in h.columns.value if v is not None]
        assert len(set(map(id, values))) == len(set(values)), (len(values), len(set(values)))

    def test_block_path_shares_values(self, monkeypatch):
        # Values above 256, which CPython does not cache, each named by two
        # pushes and two pops, in blocks that the bulk path takes.
        lines = ["adt stack"]
        for i in range(history._BLOCK - 1):  # two blocks, the second not full
            v, t = 1000 + i % 300, 8 * i
            lines += [f"push {v} {t} {t + 1}", f"pop {v} {t + 2} {t + 3}"]
        looped = TestOpsBlocks.spy_line_loop(monkeypatch)
        h = parse_history("\n".join(lines))
        assert looped == []
        self.assert_one_object_per_value(h)
        assert len(set(h.columns.value)) == 300

    def test_line_loop_shares_values(self):
        # A symbolic and a signed value send every block to the line loop;
        # "0300" names 300, as "007" names 7.
        lines = ["adt stack"]
        for i in range(history._BLOCK):
            t = 8 * i
            v = ("x", "-300", "300", "0300", "1000", "007", "7", "+400")[i % 8]
            lines += [f"push {v} {t} {t + 1}", f"pop {v} {t + 2} {t + 3}"]
        h = parse_history("\n".join(lines))
        self.assert_one_object_per_value(h)
        assert set(h.columns.value) == {"x", -300, 7, 300, 400, 1000}

    def test_event_file_shares_values(self):
        # Each pop names its value on its return only.
        lines = ["adt stack"]
        for i in range(500):
            op, t, v = 2 * i, 4 * i, 1000 + i % 7
            lines += [f"call {op} push {v} {t}", f"ret {op} {t + 1}",
                      f"call {op + 1} pop {t + 2}", f"ret {op + 1} {t + 3} {v}"]
        h = parse_history("\n".join(lines))
        self.assert_one_object_per_value(h)
        value = h.columns.value
        assert value[0] == value[1] == 1000 and value[0] is value[1]

    @pytest.mark.parametrize("fmt, bound", [("ops", 140), ("events", 175)])
    def test_bytes_kept_per_operation(self, fmt, bound, tmp_path):
        # 50k operations in order: push i, then its pop.  A tuple per
        # operation would keep about 207 bytes per operation.
        h = History("stack", tuple(
            Operation(2 * i + k, Event(kind, i), 4 * i + 2 * k, 4 * i + 2 * k + 1)
            for i in range(25_000) for k, kind in enumerate(("push", "pop"))))
        path = tmp_path / "h.txt"
        path.write_text(serialize_history(h, fmt))

        def parse():
            with open(path, encoding="utf-8") as fh:
                return parse_history(fh)
        parsed, kept, _ = TestWorkingMemory.traced(parse)
        assert len(parsed) == 50_000
        assert kept / len(parsed) <= bound, kept / len(parsed)


class TestWorkingMemory:
    """A file check holds the parsed history and little besides."""

    @pytest.fixture(scope="class")
    def events_file(self, tmp_path_factory):
        # 50k operations in order: push i, then its pop, which names i on its return.
        path = tmp_path_factory.mktemp("memory") / "h.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("adt stack\n")
            for i in range(25_000):
                fh.write(f"call {2 * i} push {i} {4 * i}\nret {2 * i} {4 * i + 1}\n"
                         f"call {2 * i + 1} pop {4 * i + 2}\nret {2 * i + 1} {4 * i + 3} {i}\n")
        return path

    @staticmethod
    def traced(fn, *args):
        """fn(*args), the memory its result keeps, and the peak during the call."""
        gc.collect()
        tracemalloc.start()
        try:
            result = fn(*args)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, kept, peak

    @pytest.fixture(scope="class")
    def parsed(self, events_file):
        def parse():
            with open(events_file, encoding="utf-8") as fh:
                return parse_history(fh)
        return self.traced(parse)

    def test_parsing_a_file_peaks_near_the_history_it_keeps(self, parsed):
        # Holding the whole text, or every call and return record until the
        # end, would peak at about 4 times the history.
        h, kept, peak = parsed
        assert len(h) == 50_000
        assert peak < 1.5 * kept, (peak, kept)

    def test_value_table_needs_little_beyond_its_rows(self, parsed):
        # Lists of every value's rows and every pop, or a set of all the
        # timestamps, would need about 1.3 times the history.
        h, history, _ = parsed
        t, kept, peak = self.traced(value_table, h)
        assert len(t.value) == 25_000
        assert peak - kept < 0.25 * history, (peak - kept, history)

    @staticmethod
    def set_text() -> str:
        # 50k operations on a pool of 500 values, each group linearizable:
        # add, contains true, remove, failing remove, overlapping in turn.
        lines = ["adt set"]
        for i in range(12_500):
            v, t = i % 500, 8 * i
            lines += [f"add {v} {t} {t + 2} ok", f"contains {v} {t + 1} {t + 4} true",
                      f"remove {v} {t + 3} {t + 6} ok", f"remove {v} {t + 5} {t + 7} fail"]
        return "\n".join(lines) + "\n"

    @staticmethod
    def multiset_text() -> str:
        # 50k operations on a pool of 500 values: each remove is called
        # while its add runs.
        lines = ["adt multiset"]
        for i in range(25_000):
            v, t = i % 500, 4 * i
            lines += [f"add {v} {t} {t + 2} ok", f"remove {v} {t + 1} {t + 3} ok"]
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("adt", ["set", "multiset"])
    def test_set_checks_need_little_beyond_the_history(self, adt, tmp_path):
        # A list of every call and return event would need about 1.2 times
        # the history.  The monitors' per-value state is small here, as the
        # values come from a pool of 500.
        path = tmp_path / "h.txt"
        path.write_text(self.set_text() if adt == "set" else self.multiset_text())

        def parse():
            with open(path, encoding="utf-8") as fh:
                return parse_history(fh)
        h, history, _ = self.traced(parse)
        assert len(h) == 50_000
        verdict, _, peak = self.traced(check_history, h)
        assert verdict.linearizable
        assert peak < 0.5 * history, (peak, history)
