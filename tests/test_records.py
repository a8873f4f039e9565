"""The record types' value semantics and the package's public names.

The records are compared, printed and hashed by callers and tests alike,
so equality, repr, immutability and construction checks are pinned here
independently of how the types are declared.  `Interval` and
`AttributedValue` are the reference steps' records, in tests/helpers.py.
"""

import copy
import json
import pickle
import subprocess
import sys

import pytest

import limon
from limon import (
    Event,
    History,
    HistoryError,
    Operation,
    SetValueState,
    Verdict,
    check_history,
    gen_random,
    parse_history,
)
from limon.history import ValueTable, value_table

from helpers import AttributedValue, Interval, limon_env


def op(i, kind, value, call, ret):
    return Operation(i, Event(kind, value), call, ret)


class TestInterval:
    def test_value_semantics(self):
        assert Interval(1, 2) == Interval(1, 2)
        assert Interval(1, 2) != Interval(1, 3)
        assert hash(Interval(1, 2)) == hash(Interval(1, 2))
        assert repr(Interval(1, 2)) == "Interval(left=1, right=2)"

    def test_is_immutable(self):
        iv = Interval(1, 2)
        with pytest.raises(AttributeError):
            iv.left = 0

    def test_rejects_left_after_right(self):
        with pytest.raises(HistoryError, match=r"\[3,1\]"):
            Interval(3, 1)
        assert Interval(2, 2).as_pair() == (2, 2)

    def test_predicates(self):
        assert Interval(0, 2).intersects(Interval(2, 5))
        assert not Interval(0, 2).intersects(Interval(3, 5))
        assert Interval(0, 5).contains(Interval(1, 5))
        assert not Interval(1, 5).contains(Interval(0, 5))


class TestValueRecords:
    def test_attributed_value(self):
        av = AttributedValue(7, 0, 2, 4, 6)
        assert av == AttributedValue(7, 0, 2, 4, 6)
        assert av != AttributedValue(7, 0, 2, 4, 5)
        assert repr(av) == ("AttributedValue(value=7, push_call=0, push_ret=2, "
                            "pop_call=4, pop_ret=6)")
        assert av.i_segment == Interval(2, 4) and av.t_segment == Interval(0, 6)
        assert AttributedValue(7, 0, 5, 4, 6).i_segment is None
        with pytest.raises(AttributeError):
            av.value = 8

    def test_event_and_operation(self):
        assert Event("push", 1) == Event("push", 1, None)
        assert repr(Event("popempty")) == "Event(kind='popempty', value=None, outcome=None)"
        o = op(0, "push", 1, 2, 5)
        assert repr(o) == ("Operation(id=0, event=Event(kind='push', value=1, outcome=None), "
                           "call=2, ret=5)")
        with pytest.raises(AttributeError):
            o.call = 3

    def test_value_table(self):
        t = value_table(History("stack", (op(0, "push", 5, 0, 1), op(1, "pop", 5, 2, 3))))
        assert t == ValueTable([5], [0], [1], [2], [3], [])
        assert repr(t) == ("ValueTable(value=[5], push_call=[0], push_ret=[1], "
                           "pop_call=[2], pop_ret=[3], pop_empties=[])")
        with pytest.raises(AttributeError):
            t.value = []


class TestHistory:
    def test_sorts_by_call(self):
        a, b = op(0, "push", 1, 5, 6), op(1, "push", 2, 0, 1)
        h = History("stack", [a, b])
        assert h.ops == (b, a)
        assert len(h) == 2 and list(h) == [b, a]

    def test_validates_adt(self):
        with pytest.raises(HistoryError, match="unknown adt 'deque'"):
            History("deque", ())

    def test_value_semantics(self):
        a, b = op(0, "push", 1, 5, 6), op(1, "push", 2, 0, 1)
        assert History("stack", (a, b)) == History("stack", (b, a))
        assert History("stack", (a,)) != History("queue", (a,))
        assert hash(History("stack", (a, b))) == hash(History("stack", (b, a)))
        assert repr(History("queue", (a,))) == f"History(adt='queue', ops=({a!r},))"

    def test_is_immutable(self):
        h = History("stack", ())
        with pytest.raises(AttributeError):
            h.adt = "queue"
        with pytest.raises(AttributeError):
            h.ops = ()

    def test_parsed_history_caches_views_outside_its_fields(self):
        a, b = op(0, "push", 1, 5, 6), op(1, "push", 2, 0, 1)
        library = History("stack", (a, b))
        parsed = parse_history("adt stack\npush 1 5 6\npush 2 0 1\n")
        assert parsed.columns == ([0, 5], [1, 6], ["push", "push"], [2, 1], [None, None], [1, 0])
        assert len(parsed) == 2 and parsed.columns is parsed.columns
        assert repr(parsed) == f"History(adt='stack', ops=({b!r}, {a!r}))"
        assert parsed.ops == (b, a) and parsed.ops is parsed.ops
        assert library.columns == parsed.columns and library.columns is library.columns
        assert parsed == library and hash(parsed) == hash(library)
        assert repr(parsed) == repr(library)
        for h in (parsed, library):
            for name in ("adt", "ops", "columns", "_ops", "_cols"):
                with pytest.raises(AttributeError):
                    setattr(h, name, ())


    @pytest.mark.parametrize("make", [
        lambda: parse_history("adt stack\npush 1 5 6\npush 2 0 1\npop 1 7 8\n"),
        lambda: History("set", (Operation(0, Event("add", 3, True), 0, 2),
                                Operation(1, Event("contains", 3, False), 1, 4))),
        lambda: gen_random("queue", 8, 3),
    ], ids=["parsed", "library", "generated"])
    def test_pickles_and_copies(self, make):
        # A history can be sent to a multiprocessing worker.
        h = make()
        for twin in (pickle.loads(pickle.dumps(h)), copy.copy(h), copy.deepcopy(h)):
            assert twin == h and twin.adt == h.adt and twin.ops == h.ops
            assert twin.columns == h.columns
            assert check_history(twin) == check_history(h)


class TestVerdict:
    def test_truth_is_the_answer(self):
        assert bool(Verdict(True)) is True
        assert bool(Verdict(False, {"kind": "x"})) is False

    def test_value_semantics(self):
        assert Verdict(True) == Verdict(True, None)
        assert Verdict(False, {"kind": "x"}) == Verdict(False, {"kind": "x"})
        assert Verdict(False) != Verdict(False, {"kind": "x"})
        assert Verdict(True) != Verdict(False)
        assert repr(Verdict(False, {"kind": "x"})) == (
            "Verdict(linearizable=False, witness={'kind': 'x'})")

    def test_is_immutable(self):
        v = Verdict(True)
        with pytest.raises(AttributeError):
            v.linearizable = False

    def test_is_the_pair_of_its_fields(self):
        assert Verdict(True) == (True, None)
        linearizable, witness = Verdict(False, {"kind": "x"})
        assert linearizable is False and witness == {"kind": "x"}


class TestSetValueState:
    def test_fresh_states_share_nothing(self):
        a, b = SetValueState(), SetValueState()
        a.adds.credits.append(1)
        a.removes.credits.append(2)
        assert b.adds.credits == [] and b.removes.credits == []


# Every public name the package exports, no more; the oracle, the
# generators and the recorder resolve on first use.
EXPORTED = (
    "ADTS", "BoundExceeded", "ContainmentIndex", "Event", "GenConfig", "History",
    "HistoryError", "Operation", "ParseError", "SetValueState", "Verdict", "WorkCounter",
    "brute_force_linearizable", "check_history",
    "ensure_state", "gen_linearizable", "gen_linearizable_with_witness", "gen_random",
    "gen_small_model_family", "generators", "history", "history_events", "impls",
    "multiset_linearizable", "multiset_linearizable_events", "mutate",
    "normalize_failing_ops", "oracle", "parse_event_stream", "parse_history",
    "queue_linearizable", "queues", "record_execution", "sequential_check",
    "serialize_history", "set_linearizable", "set_linearizable_events", "sets",
    "stack_linearizable", "stacks",
)


class TestPackage:
    def test_every_exported_name_resolves(self):
        assert [name for name in EXPORTED if not hasattr(limon, name)] == []
        assert sorted(limon.__all__) == sorted(EXPORTED)

    def test_from_import_resolves(self):
        from limon import BoundExceeded, GenConfig, brute_force_linearizable, gen_random
        from limon.oracle import BoundExceeded as oracle_bound
        assert oracle_bound is BoundExceeded
        assert issubclass(BoundExceeded, HistoryError)
        assert GenConfig().adt == "stack"
        h = gen_random("stack", 6, 1)
        assert brute_force_linearizable(h).linearizable == limon.check_history(h).linearizable

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            limon.no_such_name
        assert not hasattr(limon, "no_such_name")


# Modules `limon check` never runs.  The oracle, generators and recorder
# load on first use; dataclasses and inspect come only with them.
NOT_ON_CHECK_PATH = ("limon.generators", "limon.impls", "limon.oracle", "dataclasses", "inspect")


def test_check_path_import_footprint():
    code = ("import sys; before = set(sys.modules); import limon.cli; "
            "print(' '.join(sorted(set(sys.modules) - before))); "
            f"import limon; [getattr(limon, name) for name in {EXPORTED!r}]; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], env=limon_env(), capture_output=True,
                         text=True, check=True).stdout.splitlines()
    at_import, after_use = (line.split() for line in out)
    # The readers and monitors that only some inputs need load with them.
    assert [m for m in at_import if m.startswith("limon")] == ["limon", "limon.cli",
                                                                "limon.history"]
    assert [m for m in NOT_ON_CHECK_PATH if m in at_import] == []
    assert {"limon.generators", "limon.impls", "limon.oracle", "limon.queues", "limon.sets",
            "limon.stacks"} <= set(after_use)


@pytest.mark.parametrize("text, argv, loaded", [
    ("adt stack\npush 1 0 1\npop 1 2 3\n", ["FILE"], ["limon.stacks"]),
    ("adt queue\nenq 1 0 1\ndeq 1 2 3\n", ["FILE"], ["limon.queues"]),
    ("adt set\nadd 1 0 1 ok\ncontains 1 2 3 true\n", ["FILE"], ["limon.sets"]),
    ("adt queue\ncall 0 enq 1 0\nret 0 1\ncall 1 deq 2\nret 1 3 1\n", ["FILE"],
     ["limon.events", "limon.queues"]),
    ("adt set\ncall 0 add 1 0\nret 0 1 ok\n", ["-", "--stream"], ["limon.events", "limon.sets"]),
], ids=["stack", "queue", "set", "event-queue", "set-stream"])
def test_check_loads_the_reader_and_monitor_its_input_needs(tmp_path, text, argv, loaded):
    path = tmp_path / "h.txt"
    path.write_text(text)
    argv = ["check", *(str(path) if arg == "FILE" else arg for arg in argv)]
    code = ("import sys; import limon.cli; before = set(sys.modules); "
            f"code = limon.cli.main({argv!r}); "
            "print(code, *sorted(m for m in set(sys.modules) - before if m.startswith('limon')))")
    out = subprocess.run([sys.executable, "-c", code], env=limon_env(), input=text,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["linearizable", " ".join(["0", *loaded])]


LIBRARY_USE = """
import json
import limon
shown, exported = [name for name in dir(limon) if not name.startswith("_")], limon.__all__
from limon.generators import GenConfig, gen_linearizable, gen_random
same = []
for adt in limon.ADTS:
    for h in gen_linearizable(GenConfig(adt=adt, ops=200, seed=3)), gen_random(adt, 12, 7):
        verdict = limon.check_history(h)  # before the monitor's own name is used
        same.append(verdict == getattr(limon, adt + "_linearizable")(h))
from limon import ContainmentIndex, parse_event_stream, stack_linearizable
resolved = [ContainmentIndex is limon.queues.ContainmentIndex,
            parse_event_stream is limon.events.parse_event_stream,
            stack_linearizable is limon.stacks.stack_linearizable,
            limon.sets.history_events is limon.history_events]
print(json.dumps([shown, exported, same, resolved]))
"""


def test_library_use_resolves_monitors_on_first_use():
    out = subprocess.run([sys.executable, "-c", LIBRARY_USE], env=limon_env(),
                         capture_output=True, text=True, check=True).stdout
    shown, exported, same, resolved = json.loads(out)
    assert shown == sorted(EXPORTED) and exported == sorted(EXPORTED)
    assert same == [True] * 8
    assert resolved == [True] * 4
