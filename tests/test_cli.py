import argparse
import gc
import io
import json
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from limon import (
    ADTS,
    GenConfig,
    ParseError,
    check_history,
    gen_linearizable,
    gen_random,
    gen_small_model_family,
    multiset_linearizable_events,
    normalize_failing_ops,
    parse_event_stream,
    parse_history,
    serialize_history,
    set_linearizable_events,
)
import limon.cli
import limon.sets
from limon.cli import build_parser, main

from helpers import limon_env, nested_stack, refuse_records

H1 = "adt stack\npush 0 0 2\npush 1 1 3\npop 1 4 6\npop 0 5 7\n"


def feed_stdin(monkeypatch, data):
    """Give the CLI a standard input holding data (bytes, or text as UTF-8),
    decoded as the C locale decodes the interpreter's own stdin."""
    if isinstance(data, str):
        data = data.encode()
    stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
    monkeypatch.setattr("sys.stdin", stdin)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestCheck:
    def test_linearizable_exit_0(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, "h.txt", H1)]) == 0
        assert capsys.readouterr().out.strip() == "linearizable"

    def test_unlinearizable_exit_1(self, tmp_path, capsys):
        assert main(["gen", "--kind", "small-model", "--n", "5",
                     "--out", str(tmp_path / "sm.txt")]) == 0
        assert main(["check", str(tmp_path / "sm.txt")]) == 1

    def test_malformed_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt", "adt stack\npush 1 0 5\npush 2 5 7\n")
        assert main(["check", path]) == 2
        assert "duplicate-timestamp" in capsys.readouterr().err

    def test_verbose_is_json(self, tmp_path, capsys):
        path = write(tmp_path, "bad.txt",
                     "adt stack\npush 1 0 1\npush 2 2 3\npop 1 4 5\npop 2 6 7\n")
        assert main(["check", path, "--verbose"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["linearizable"] is False
        assert payload["witness"]["kind"] == "no-separation"


class TestOracle:
    def test_verdicts(self, tmp_path):
        assert main(["oracle", write(tmp_path, "h.txt", H1)]) == 0

    def test_bound_exit_3(self, tmp_path):
        assert main(["oracle", write(tmp_path, "h.txt", H1), "--max-ops", "2"]) == 3


class TestGen:
    def test_deterministic_bytes(self, tmp_path):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        args = ["gen", "--adt", "queue", "--ops", "40", "--seed", "7", "--stretch", "2.5"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_generated_file_checks_clean(self, tmp_path):
        out = str(tmp_path / "g.txt")
        assert main(["gen", "--adt", "set", "--ops", "30", "--seed", "3",
                     "--format", "events", "--out", out]) == 0
        assert main(["check", out]) == 0


class TestRecord:
    def test_record_roundtrip(self, tmp_path):
        out = str(tmp_path / "rec.txt")
        assert main(["record", "--impl", "coarse-stack", "--ops", "200",
                     "--threads", "4", "--out", out]) == 0
        h = parse_history((tmp_path / "rec.txt").read_text())
        assert h.adt == "stack"
        assert main(["check", out]) == 0


class TestBench:
    def test_csv_schema(self, tmp_path):
        out = tmp_path / "bench.csv"
        assert main(["bench", "--adt", "set", "--min-n", "100", "--max-n", "300",
                     "--step", "100", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "size,threads,wall_seconds,work_count,slowdown"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "100" and float(first[4]) == 1.0

    def test_monitor_loads_before_the_first_timing(self):
        # In a fresh interpreter, check_history loads the monitor on its
        # first call, which must not fall inside the smallest size's timer.
        code = """if True:
            import sys, time, types
            import limon.cli
            loaded = []
            def perf_counter():
                loaded.append("limon.stacks" in sys.modules)
                return time.perf_counter()
            limon.cli.time = types.SimpleNamespace(perf_counter=perf_counter)
            limon.cli.run_bench("stack", [100, 200], 0, 2)
            print(*loaded)
            """
        out = subprocess.run([sys.executable, "-c", code], env=limon_env(),
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["True"] * 4


class TestStream:
    def test_set_stream(self, capsys, monkeypatch):
        text = ("adt set\n"
                "call 0 add 5 1\nret 0 2 ok\n"
                "call 1 contains 5 3\nret 1 4 true\n")
        feed_stdin(monkeypatch, text)
        assert main(["check", "-", "--stream"]) == 0

    def test_multiset_stream_violation(self, capsys, monkeypatch):
        text = "adt multiset\ncall 0 remove 5 1\nret 0 2 ok\n"
        feed_stdin(monkeypatch, text)
        assert main(["check", "-", "--stream", "--verbose"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["witness"]["reason"] == "count-violation"

    def test_stream_rejects_failing_ops(self, monkeypatch):
        text = "adt set\ncall 0 add 5 1\nret 0 2 fail\n"
        feed_stdin(monkeypatch, text)
        assert main(["check", "-", "--stream"]) == 2

    def test_stream_return_without_call(self, monkeypatch):
        text = "adt multiset\nret 3 2 ok\n"
        feed_stdin(monkeypatch, text)
        assert main(["check", "-", "--stream"]) == 2

    def test_stream_accepts_symbolic_values_as_files_do(self, tmp_path, monkeypatch):
        text = ("adt set\n"
                "call 0 add x 1\nret 0 2 ok\n"
                "call 1 contains x 3\nret 1 4 true\n")
        feed_stdin(monkeypatch, text)
        assert main(["check", "-", "--stream"]) == 0
        assert main(["check", write(tmp_path, "x.txt", text)]) == 0

    def test_stream_symbol_is_not_a_literal(self, capsys, monkeypatch):
        # x is never added, so no literal may stand for it.
        text = ("adt set\n"
                "call 0 add 6 1\nret 0 2 ok\n"
                "call 1 contains x 3\nret 1 4 true\n")
        feed_stdin(monkeypatch, text)
        assert main(["check", "-", "--stream", "--verbose"]) == 1
        assert json.loads(capsys.readouterr().out)["witness"]["value"] == "x"

    @pytest.mark.parametrize("text", [
        "adt set\ncall 0 add x 1\nret 0 2 ok\ncall 1 contains x 3\nret 1 4 false\n",
        "adt multiset\ncall 0 add 1 1\nret 0 2 ok\ncall 1 remove x 3\nret 1 4 ok\n",
    ])
    def test_file_and_stream_name_a_symbolic_witness_alike(self, text, tmp_path, capsys,
                                                          monkeypatch):
        assert main(["check", write(tmp_path, "h.txt", text), "--verbose"]) == 1
        as_file = capsys.readouterr().out
        feed_stdin(monkeypatch, text)
        assert main(["check", "-", "--stream", "--verbose"]) == 1
        assert capsys.readouterr().out == as_file
        assert json.loads(as_file)["witness"]["value"] == "x"

    def test_stream_unreturned_call_names_its_line(self, capsys, monkeypatch):
        text = "adt set\ncall 0 add 1 1\ncall 1 add 2 2\nret 0 3 ok\n"
        feed_stdin(monkeypatch, text)
        assert main(["check", "-", "--stream"]) == 2
        assert capsys.readouterr().err == "limon: stream ended with 1 unreturned calls (line 3)\n"

    def test_stream_reads_its_file_not_stdin(self, tmp_path, capsys, monkeypatch):
        # The file's own verdict: 5 is never added, so contains(5) cannot be true.
        path = write(tmp_path, "s.txt", "adt set\ncall 0 contains 5 1\nret 0 2 true\n")
        feed_stdin(monkeypatch, "adt set\ncall 0 add 5 1\nret 0 2 ok\n")
        assert main(["check", path, "--stream"]) == 1
        assert capsys.readouterr().out == "unlinearizable\n"

    def test_stream_missing_file_is_an_error(self, tmp_path, capsys, monkeypatch):
        feed_stdin(monkeypatch, "adt set\ncall 0 add 5 1\nret 0 2 ok\n")
        missing = str(tmp_path / "missing.txt")
        assert main(["check", missing, "--stream"]) == main(["check", missing]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("missing.txt") == 2

    @pytest.mark.parametrize("adt", ["set", "multiset"])
    def test_stream_verdicts_equal_file_verdicts(self, adt, tmp_path, capsys, monkeypatch):
        # A stream refuses failing adds and removes, so set histories go
        # through the normalization that file checks apply.  Building the
        # argument parser costs more than these checks; build it once.
        parser = build_parser()
        monkeypatch.setattr("limon.cli.build_parser", lambda: parser)
        path = str(tmp_path / "h.txt")
        codes = {0: 0, 1: 0}
        for seed in range(40_000, 42_000):
            h = gen_random(adt, 2 + seed % 14, seed, values=1 + seed % 4)
            if adt == "set":
                h = normalize_failing_ops(h)
            with open(path, "w") as fh:
                fh.write(serialize_history(h, fmt="events"))
            code = main(["check", path, "--verbose"])
            out = capsys.readouterr().out
            assert main(["check", path, "--stream", "--verbose"]) == code, seed
            assert capsys.readouterr().out == out, seed
            codes[code] += 1
        assert min(codes.values()) > 200, codes

    def test_stream_builds_no_operation_records(self, tmp_path, monkeypatch, capsys):
        refuse_records(monkeypatch)
        text = ("adt set\n"
                "call 0 add 5 1\ncall 1 contains 5 2\nret 0 3 ok\n"
                "call 2 remove 5 4\nret 1 5 true\nret 2 6 ok\n"
                "call 3 contains 5 7\nret 3 8 false\n")
        assert main(["check", write(tmp_path, "s.txt", text), "--stream", "--verbose"]) == 0
        assert capsys.readouterr().err == ""
        with pytest.raises(AssertionError, match="record built"):  # the guard is live
            parse_history(text).ops

    def test_stream_keeps_in_order_ids_in_constant_space(self):
        # A set of every id called would peak at about 17 MB here.
        lines = ["adt set\n"]
        for i in range(200_000):
            lines += (f"call {i} add {i % 97} {2 * i}\n", f"ret {i} {2 * i + 1} ok\n")
        tracemalloc.start()
        try:
            _, events = parse_event_stream(lines)
            assert sum(1 for _ in events) == 400_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_stream_keeps_no_table_of_symbolic_values(self):
        # A stream keeps a symbolic value as its token; a table of the
        # 100k distinct tokens would peak at about 13 MB here.
        lines = ["adt set\n"]
        for i in range(100_000):
            lines += (f"call {i} add v{i} {2 * i}\n", f"ret {i} {2 * i + 1} ok\n")
        tracemalloc.start()
        try:
            _, events = parse_event_stream(lines)
            assert sum(1 for _ in events) == 200_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_stream_refuses_a_reused_id_as_a_file_does(self, tmp_path, capsys):
        call_again = "adt set\ncall 0 add 1 0\nret 0 1 ok\ncall 0 add 1 2\nret 0 3 ok\n"
        ret_again = "adt set\ncall 0 add 1 0\nret 0 1 ok\nret 0 3 ok\n"
        for text, err in ((call_again, "limon: duplicate call for id 0 (line 4)\n"),
                          (ret_again, "limon: duplicate return for id 0 (line 4)\n")):
            path = write(tmp_path, "reuse.txt", text)
            assert main(["check", path]) == main(["check", path, "--stream"]) == 2
            assert capsys.readouterr().err == err * 2

    @pytest.mark.parametrize("text", ["adt set\ncall 0 push 5 1\ncall 1 add 5 2\nret 1 3 ok\n",
                                      "adt set\ncall 0 push 5 1\nfoo\n"])
    def test_file_and_stream_name_an_illegal_call_at_its_line(self, text, tmp_path, capsys):
        path = write(tmp_path, "kind.txt", text)
        assert main(["check", path]) == main(["check", path, "--stream"]) == 2
        assert capsys.readouterr().err == "limon: event kind 'push' illegal for adt 'set' (line 2)\n" * 2

    def test_file_and_stream_end_lines_alike(self, tmp_path, capsys):
        # \x1c ends a line for str.splitlines, but not for a stream.
        path = write(tmp_path, "fs.txt", "adt set\ncall 0 add 1 1\x1cret 0 2 ok\n")
        assert main(["check", path]) == main(["check", path, "--stream"]) == 2
        err = "limon: expected: call <id> <kind> [<value>] <ts> (line 2)\n"
        assert capsys.readouterr().err == err * 2
        for newline in ("\r\n", "\r"):
            text = "adt set\ncall 0 add 1 1\nret 0 2 ok\ncall 1 contains 1 3\nret 1 4 true\n"
            assert parse_history(text.replace("\n", newline)) == parse_history(text)

    def test_stream_refuses_the_ops_format(self, tmp_path, capsys):
        path = write(tmp_path, "s.txt", "adt set\nadd 5 1 2 ok\n")
        assert main(["check", path]) == 0
        assert main(["check", path, "--stream"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "limon: expected call/ret record, got 'add' (line 2)\n"

    @pytest.mark.parametrize("argv", [["check", "--format", "ops", "h.txt"],
                                      ["oracle", "--format", "events", "h.txt"],
                                      ["record", "--bug"]])
    def test_the_input_names_its_format(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "unrecognized arguments: " + argv[1] in captured.err


def test_readme_usage_lines_match_the_parser():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    subcommands = next(action.choices for action in build_parser()._actions
                       if isinstance(action, argparse._SubParsersAction))
    usage = re.findall(r"^- `limon (\w+)([^`]*)`", readme, re.M)
    assert sorted(name for name, _ in usage) == sorted(subcommands)
    for name, line in usage:
        flags = set(re.findall(r"--[\w-]+", line))
        assert flags <= set(subcommands[name]._option_string_actions), (name, flags)


class TestFileCheckBuildsNoRecords:
    """A file check reads the parser's columns and never builds an
    Operation or an Event, whatever the adt, format or verdict."""

    CASES = [
        # Pop-empties and unmatched pushes.
        ("adt stack\npopempty 0 1\npush 1 2 3\npush 2 4 5\npop 2 6 7\npush 3 8 9\n", 0),
        ("adt stack\npush 1 0 1\npopempty 2 3\npop 1 4 5\n", 1),
        ("adt queue\nenq 1 0 1\nenq 2 2 3\ndeq 1 4 5\nenq 3 6 7\n", 0),
        ("adt queue\nenq 1 0 1\nenq 2 2 3\ndeq 2 4 5\ndeq 1 6 7\n", 1),
        # Failing adds and removes.
        ("adt set\nadd 1 0 1 ok\nadd 1 2 3 fail\nremove 1 4 5 ok\nremove 1 6 7 fail\n"
         "contains 1 8 9 false\n", 0),
        ("adt set\nadd 1 0 1 fail\n", 1),
        ("adt multiset\nadd 1 0 1 ok\nadd 1 2 3 ok\nremove 1 4 5 ok\nremove 1 6 7 ok\n", 0),
        ("adt multiset\nadd 1 0 3 ok\nremove 1 1 2 ok\nremove 1 4 5 ok\n", 1),
        # Symbolic values.
        ("adt stack\npush x 0 1\npush y 2 3\npop y 4 5\npop x 6 7\n", 0),
        ("adt set\nadd a 0 1 ok\ncontains b 2 3 true\n", 1),
    ]

    @pytest.mark.parametrize("fmt", ["ops", "events"])
    @pytest.mark.parametrize("text, code", CASES)
    def test_exit_code(self, text, code, fmt, tmp_path, capsys, monkeypatch):
        if fmt == "events":
            text = serialize_history(parse_history(text), "events")
        path = write(tmp_path, "h.txt", text)
        refuse_records(monkeypatch)
        assert main(["check", path]) == code
        assert capsys.readouterr().err == ""
        with pytest.raises(AssertionError, match="record built"):  # the guard is live
            parse_history(text).ops

    @pytest.mark.parametrize("fmt", ["ops", "events"])
    def test_unlinearizable_verbose(self, fmt, tmp_path, capsys, monkeypatch):
        text = serialize_history(parse_history(
            "adt stack\npush 1 0 1\npush 2 2 3\npop 1 4 5\npop 2 6 7\n"), fmt)
        path = write(tmp_path, "h.txt", text)
        refuse_records(monkeypatch)
        assert main(["check", path, "--verbose"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "linearizable": False, "witness": {"kind": "no-separation", "values": [1, 2]}}


class TestCyclicCollector:
    """A check, of a file or a stream, runs with the cyclic collector off
    and restores its state."""

    @pytest.mark.parametrize("text, code", [
        (H1, 0),
        ("adt stack\npush 1 0 1\npush 2 2 3\npop 1 4 5\npop 2 6 7\n", 1),
        ("adt stack\npush 1 0 5\npush 2 5 7\n", 2),
    ])
    def test_state_is_restored(self, tmp_path, text, code):
        path = write(tmp_path, "h.txt", text)
        assert gc.isenabled()
        assert main(["check", path]) == code
        assert gc.isenabled()
        gc.disable()
        try:
            assert main(["check", path]) == code
            assert not gc.isenabled()
        finally:
            gc.enable()

    @pytest.mark.parametrize("text, code", [
        ("adt set\ncall 0 add 5 0\ncall 1 contains 5 1\nret 0 2 ok\nret 1 3 true\n", 0),
        ("adt set\ncall 0 contains 5 0\nret 0 1 true\n", 1),
        ("adt multiset\ncall 0 remove 5 0\nret 0 1 ok\n", 1),
        # A fault after some events: the monitor has read them when it comes.
        ("adt set\ncall 0 add 5 0\nret 0 1 ok\ncall 1 add 6 2\nret 1 3 yes\n", 2),
    ])
    def test_stream_state_is_restored(self, monkeypatch, text, code):
        name = f"{text.split()[1]}_linearizable_events"
        check = getattr(limon.sets, name)  # cmd_check imports it from there for --stream
        read_with_collector = []

        def runner(events):
            read_with_collector.append(gc.isenabled())
            return check(events)

        monkeypatch.setattr(limon.sets, name, runner)
        assert gc.isenabled()
        feed_stdin(monkeypatch, text)
        assert main(["check", "-", "--stream"]) == code
        assert gc.isenabled()
        gc.disable()
        try:
            feed_stdin(monkeypatch, text)
            assert main(["check", "-", "--stream"]) == code
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert read_with_collector == [False, False]

    def test_parse_and_check_leave_no_cyclic_garbage(self):
        def config(adt):
            return GenConfig(adt=adt, ops=2000, values=250, threads=4, seed=5, stretch=2.0)

        texts = [serialize_history(gen_linearizable(config(adt)), fmt)
                 for adt in ADTS for fmt in ("ops", "events")]
        texts += [serialize_history(nested_stack(500)),
                  serialize_history(gen_small_model_family(200))]
        streams = [serialize_history(normalize_failing_ops(gen_linearizable(config("set"))),
                                     "events"),
                   serialize_history(gen_linearizable(config("multiset")), "events")]
        # A stream that ends in a fault, after the monitor has read its events.
        streams.append(streams[0] + "ret 99999 1000000 ok\n")
        runners = {"set": set_linearizable_events, "multiset": multiset_linearizable_events}
        gc.collect()
        gc.disable()
        try:
            verdicts = [check_history(parse_history(text)).linearizable for text in texts]
            for text in streams:
                adt, events = parse_event_stream(text)
                try:
                    verdicts.append(runners[adt](events).linearizable)
                except ParseError as exc:
                    verdicts.append(str(exc))
            garbage = gc.collect()
        finally:
            gc.enable()
        fault = f"return without call for id 99999 (line {streams[0].count(chr(10)) + 1})"
        assert verdicts == [True] * (len(texts) - 1) + [False, True, True, fault]
        assert garbage == 0


PLAIN_OPS = "".join(f"push {i} {2 * i} {2 * i + 1}\n" for i in range(2100))  # two blocks


@pytest.fixture
def int_digits():
    """sys.set_int_max_str_digits, with the interpreter's limit restored after the test."""
    limit = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(limit)


class TestExitCodeContract:
    """Exit 1 means unlinearizable: malformed input exits 2 and any crash 3."""

    def test_superscript_digit_exit_2(self, tmp_path, capsys):
        path = tmp_path / "sup.txt"
        path.write_text("adt stack\npush 1 ² 3\n", encoding="utf-8")
        assert main(["check", str(path)]) == 2
        assert "(line 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        "adt stack\npush x 0 1\npush 5 0 1\npop 5 2 3\n",
        "adt stack\npopempty 0 1\npopempty 0 1\n",
    ])
    def test_operations_called_together_are_a_duplicate_timestamp(self, text, tmp_path,
                                                                  capsys):
        # The timestamp check names the shared call, whatever the records
        # called with it hold: a symbol beside a literal, or no value at all.
        assert main(["check", write(tmp_path, "tie.txt", text)]) == 2
        assert capsys.readouterr().err == "limon: invalid history: duplicate-timestamp (0)\n"

    @pytest.mark.parametrize("records, line", [
        ("call 0 push 5 0\nret 0 1\ncall 1 pop 5 2\nret 1 3 7\n", 5),  # another value
        ("call 0 push 5 0\nret 0 1\ncall 1 pop 5 2\nret 1 3 empty\n", 5),  # empty after 5
        ("call 0 push 5 0\nret 0 1 9\n", 3),  # a push returns nothing
        ("call 0 push 5 0\nret 0 1 ok\n", 3),
        ("call 0 popempty 0\nret 0 1 empty\n", 3),  # nor does a pop-empty
        ("call 0 popempty 5 0\nret 0 1\n", 2),  # whose call names no value
    ])
    def test_return_contradicting_its_call_exit_2(self, records, line, tmp_path, capsys):
        assert main(["check", write(tmp_path, "c.txt", "adt stack\n" + records)]) == 2
        assert capsys.readouterr().err.endswith(f" (line {line})\n")

    def test_non_ascii_digits_are_not_integers(self):
        # '١' (Arabic-Indic one) passes str.isdigit and int(); it is a
        # token of its own, not the literal 1.
        h = parse_history("adt stack\npush ١ 0 1\npush 1 2 3\n")
        assert h.ops[0].event.value != h.ops[1].event.value

    def test_stream_bad_integer_exit_2(self, capsys, monkeypatch):
        for record in ("call x add 1 0", "call 0 add y 0", "call 0 add ² 0",
                       "call 0 add 1 0\nret ² 1 ok"):
            feed_stdin(monkeypatch, f"adt set\n{record}\n")
            assert main(["check", "-", "--stream"]) == 2, record
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "(line " in err, record

    def test_stream_line_numbers_count_the_header(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, "adt set\ncall x add 1 0\n")
        assert main(["check", "-", "--stream"]) == 2
        assert "(line 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("stream, text, line, field", [
        # The operation format: the record is in the file's third block.
        ([], "adt stack\n" + PLAIN_OPS + "push L 4200 4201\n", 2102, "value"),
        ([], "adt stack\n" + PLAIN_OPS + "push 1 L 1L\n", 2102, "timestamp"),
        ([], "adt stack\n" + PLAIN_OPS + "push 1 4200 L\n", 2102, "timestamp"),
        ([], "adt stack\ncall L push 1 0\nret L 1\n", 2, "operation id"),
        ([], "adt stack\ncall 0 push L 0\nret 0 1\n", 2, "value"),
        ([], "adt stack\ncall 0 pop 2\nret 0 3 L\ncall 1 push L 0\nret 1 1\n", 3, "value"),
        ([], "adt stack\ncall 0 push 1 L\nret 0 1L\n", 2, "timestamp"),
        ([], "adt stack\ncall 0 push 1 0\nret 0 L\n", 3, "timestamp"),
        (["--stream"], "adt set\ncall L add 1 0\nret L 1 ok\n", 2, "operation id"),
        (["--stream"], "adt set\ncall 0 add L 0\nret 0 1 ok\n", 2, "value"),
        (["--stream"], "adt set\ncall 0 add 1 L\nret 0 1L ok\n", 2, "timestamp"),
        (["--stream"], "adt set\ncall 0 add 1 0\nret 0 L ok\n", 3, "timestamp"),
    ])
    def test_integer_too_long_for_int_exit_2(self, stream, text, line, field, tmp_path,
                                             capsys, int_digits):
        # L stands for a 5,000-digit integer, which int() reads only when
        # the interpreter's digit limit is off (0).
        path = write(tmp_path, "long.txt", text.replace("L", "9" * 5000))
        commands = [["check", path, *stream]] + ([] if stream else [["oracle", path]])
        int_digits(4300)
        for argv in commands:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"limon: {field} '99999") and err.endswith(f" (line {line})\n")
            assert len(err.encode()) < 200, err
        int_digits(0)
        assert main(["check", path, *stream]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("text, line", [
        ("adt set\nX 1 0 1 ok\n", 2),  # an operation's kind
        ("adt set\nadd 1 0 1 X\n", 2),  # a set operation's result
        ("adt X\n", 1),  # the header
        ("adt set\nadd 1 X 1 ok\n", 2),  # a timestamp
        ("adt set\nadd 1 N 1 ok\n", 2),  # a negative timestamp
        ("adt set\ncall 0 X 1 0\n", 2),  # an event's kind
        ("adt set\ncall 0 add 1 0\nX 0 1 ok\n", 3),  # a record's head
        ("adt stack\ncall 0 push 1 0\nret 0 1 X\n", 3),  # a result its call contradicts
        ("adt set\ncall 0 add 1 0\nret 0 1 X\n", 3),  # a set return's result
    ])
    def test_long_token_is_clipped_exit_2(self, text, line, tmp_path, capsys):
        # X stands for a 5,000-character token, N for a 4,002-character
        # negative integer.
        path = write(tmp_path, "long.txt",
                     text.replace("X", "x" * 5000).replace("N", "-" + "0" * 4000 + "1"))
        commands = [["check", path]] + ([["check", path, "--stream"]]
                                        if text.startswith("adt set\ncall") else [])
        for argv in commands:
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert err.endswith(f" (line {line})\n") and len(err.encode()) < 200, err

    def test_non_utf8_exit_2(self, tmp_path, capsys):
        path = tmp_path / "ff.txt"
        path.write_bytes(b"adt stack\npush 1 0 1\xff\npop 1 2 3\n")
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "limon: input is not UTF-8 (line 2)\n"

    @pytest.mark.parametrize("stream", [[], ["--stream"]])
    def test_stdin_non_utf8_exit_2(self, stream):
        proc = subprocess.run([sys.executable, "-m", "limon.cli", "check", "-", *stream],
                              input=b"adt set\ncall 0 add \xff 1\nret 0 2 ok\n",
                              env=limon_env(LC_ALL="C"), capture_output=True)
        assert proc.returncode == 2
        assert proc.stderr == b"limon: input is not UTF-8 (line 2)\n"

    @pytest.mark.parametrize("fmt, stream", [("events", ["--stream"]), ("events", []),
                                             ("ops", [])])
    def test_non_utf8_line_past_the_first_chunk(self, fmt, stream, tmp_path, capsys):
        # Files and streams are decoded a chunk at a time, as they are read.
        if fmt == "events":
            records = [f"call {i} add {i} {2 * i + 1}\nret {i} {2 * i + 2} ok\n"
                       for i in range(5000)]
            last = b"call 5000 add \xff 10001\n"
        else:
            records = [f"add {i} {2 * i + 1} {2 * i + 2} ok\n" for i in range(10_000)]
            last = b"add \xff 20001 20002 ok\n"
        data = b"adt set\n" + "".join(records).encode() + last
        assert data.count(b"\n") == 10002
        path = tmp_path / "ff.txt"
        path.write_bytes(data)
        assert main(["check", str(path), *stream]) == 2
        assert capsys.readouterr().err == "limon: input is not UTF-8 (line 10002)\n"

    def test_unexpected_exception_exit_3(self, tmp_path, capsys, monkeypatch):
        def crash(h):
            raise RuntimeError("boom")

        monkeypatch.setattr("limon.cli.check_history", crash)
        assert main(["check", write(tmp_path, "h.txt", H1)]) == 3
        assert capsys.readouterr().err == "limon: internal error: RuntimeError: boom\n"

    def test_check_looks_up_its_layers_when_it_runs(self, tmp_path, capsys, monkeypatch):
        calls = []

        def wrap(name):
            fn = getattr(limon.cli, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(limon.cli, name, wrapper)

        wrap("parse_history")
        wrap("check_history")
        assert main(["check", write(tmp_path, "h.txt", H1)]) == 0
        assert calls == ["parse_history", "check_history"]

    @pytest.mark.parametrize("argv", [
        ["gen", "--ops", "-1"],
        ["gen", "--kind", "random", "--adt", "set", "--values", "0"],
        ["gen", "--threads", "4"],
        ["record", "--ops", "-5"],
        ["record", "--threads", "0"],
        ["bench", "--step", "0"],
        ["bench", "--min-n", "-100"],
        ["bench", "--threads", "-1"],
        ["gen", "--ops", "many"],
        ["gen", "--stretch", "nan"],
        ["gen", "--stretch", "inf"],
        ["gen", "--stretch", "-1"],
        ["oracle", "h.txt", "--max-ops", "-1"],
        ["bench", "--max-n", "-5"],
        ["gen", "--kind", "small-model", "--n", "1"],
        ["check", "h.txt", "--adt", "stack"],
    ])
    def test_bad_size_argument_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: limon ") and argv[-2] in captured.err


def mutate_bytes(rng: random.Random, data: bytes) -> bytes:
    """Drop a line, swap two tokens or flip a bit of one byte, once or twice."""
    for _ in range(rng.randint(1, 2)):
        op = rng.randrange(3)
        if op == 0:
            lines = data.split(b"\n")
            del lines[rng.randrange(len(lines))]
            data = b"\n".join(lines)
        elif op == 1:
            parts = re.split(rb"(\s+)", data)  # tokens at even indices
            words = [i for i in range(0, len(parts), 2) if parts[i]]
            if len(words) > 1:
                i, j = rng.sample(words, 2)
                parts[i], parts[j] = parts[j], parts[i]
            data = b"".join(parts)
        elif data:
            i = rng.randrange(len(data))
            data = data[:i] + bytes([data[i] ^ (1 << rng.randrange(8))]) + data[i + 1:]
    return data


class TestFuzz:
    """Mutated generated histories exit 0, 1 or 2, never with a crash."""

    @pytest.mark.parametrize("adt", ADTS)
    def test_mutated_histories_keep_the_exit_contract(self, adt, tmp_path, capsys):
        rng = random.Random(2026 + ADTS.index(adt))
        path = tmp_path / "fuzz.txt"
        codes = {0: 0, 1: 0, 2: 0}
        for fmt in ("ops", "events"):
            for k in range(120):
                text = serialize_history(gen_random(adt, 2 + k % 12, k), fmt=fmt)
                data = mutate_bytes(rng, text.encode())
                path.write_bytes(data)
                code = main(["check", str(path)])
                err = capsys.readouterr().err
                assert code in codes, (fmt, k, data, err)
                assert "internal error" not in err, (fmt, k, data, err)
                codes[code] += 1
        assert all(codes.values()), codes

    def test_duplicate_timestamp_exit_2(self, tmp_path, capsys):
        # Swapping the value and call tokens of 'enq 1 2 3' calls it at
        # time 1, as 'enq 2 1 6' is.
        text = serialize_history(gen_random("queue", 4, 3))
        assert text.splitlines()[2:4] == ["enq 2 1 6", "enq 1 2 3"]
        path = tmp_path / "dup.txt"
        path.write_text(text.replace("enq 1 2 3", "enq 2 1 3"))
        assert main(["check", str(path)]) == 2
        assert "duplicate-timestamp" in capsys.readouterr().err


TOKEN_POOL = ("-1", "+2", "-0", "x", "y7", "ok", "fail", "true", "false", "empty",
              "²", "1_0", "9" * 5000)


def mutate_tokens(rng: random.Random, text: str) -> str:
    """Replace, insert or delete a token of a record, once to three times,
    with a token from TOKEN_POOL."""
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        toks = rng.choice(lines[1:])
        edit = rng.randrange(3) if toks else 1
        at = rng.randrange(len(toks) + (edit == 1))
        if edit == 0:
            toks[at] = rng.choice(TOKEN_POOL)
        elif edit == 1:
            toks.insert(at, rng.choice(TOKEN_POOL))
        else:
            del toks[at]
    return "\n".join(map(" ".join, lines)) + "\n"


class TestTokenFuzz:
    """Histories with edited tokens exit 0, 1 or 2 on every reader, never
    with a crash: 3 only when the oracle's bound refuses them."""

    @pytest.mark.parametrize("adt", ADTS)
    def test_edited_tokens_keep_the_exit_contract(self, adt, tmp_path, capsys):
        rng = random.Random(4242 + ADTS.index(adt))
        path = str(tmp_path / "fuzz.txt")
        commands = (["check", path], ["check", path, "--stream"],
                    ["oracle", path, "--max-ops", "12"])
        codes = Counter()
        for fmt in ("ops", "events"):
            for k in range(75):
                text = mutate_tokens(rng, serialize_history(gen_random(adt, 2 + k % 12, k), fmt))
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                for argv in commands:
                    code = main(argv)
                    err = capsys.readouterr().err
                    bound = code == 3 and argv[0] == "oracle" and "oracle bound" in err
                    assert code in (0, 1, 2) or bound, (argv, fmt, k, err[:300])
                    assert "internal error" not in err, (argv, fmt, k, err[:300])
                    codes[code] += 1
        assert codes[0] + codes[1] and codes[2], codes
