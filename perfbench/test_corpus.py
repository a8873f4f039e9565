"""The benchmark's own corpus constructions and scoring, checked on small instances.

Run: PYTHONPATH=src python3 -m pytest perfbench
"""

import json
import random
from pathlib import Path

import pytest

from limon import (
    GenConfig,
    brute_force_linearizable,
    gen_linearizable,
    gen_small_model_family,
    parse_history,
    serialize_history,
)
from limon.cli import main

import corpus
import run


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_nested_stack_is_linearizable(n):
    assert brute_force_linearizable(corpus.nested_stack(n)).linearizable


@pytest.mark.parametrize("adt", ["stack", "queue"])
def test_recycle_keeps_linearizable_histories_linearizable(adt):
    for seed in range(30):
        h = gen_linearizable(GenConfig(adt=adt, ops=10, threads=3, seed=seed, stretch=2.0))
        recycled = corpus.recycle(h)
        assert brute_force_linearizable(recycled).linearizable, (seed, recycled)


@pytest.mark.parametrize("adt", ["stack", "queue"])
def test_recycle_reuses_a_name_only_after_its_holder_is_gone(adt):
    h = gen_linearizable(GenConfig(adt=adt, ops=400, threads=3, seed=7, stretch=2.0))
    ops_of, holders = {}, {}  # value -> its ops; name -> the values that held it
    for op, new in zip(h.ops, corpus.recycle(h).ops):
        assert (op.event.value is None) == (new.event.value is None)
        if op.event.value is not None:
            ops_of.setdefault(op.event.value, []).append(op)
            holders.setdefault(new.event.value, set()).add(op.event.value)
    assert len(holders) < len(ops_of)
    for values in holders.values():
        order = sorted(values, key=lambda v: min(o.call for o in ops_of[v]))
        for before, after in zip(order, order[1:]):
            assert any(o.event.kind == "pop" for o in ops_of[before])
            assert max(o.ret for o in ops_of[before]) < min(o.call for o in ops_of[after])


@pytest.mark.xfail(strict=True, reason="limon gives a false verdict when two holders of one "
                   "stack value are live at once (ROADMAP.md); recycle avoids such reuse")
def test_overlapping_reuse_of_a_stack_value_is_not_answered_wrongly(tmp_path, capsys):
    path = tmp_path / "reused.txt"
    path.write_text("adt stack\npush 1 0 1\npush 1 2 3\npop 1 4 5\n")
    assert brute_force_linearizable(parse_history(path.read_text())).linearizable
    code = main(["check", str(path)])
    out, err = capsys.readouterr()
    assert run.score(True, False, code, out.encode(), err.encode(), False) != "wrong"


@pytest.mark.parametrize("fmt", ["ops", "events"])
def test_relabel_renames_values_and_keeps_the_verdict(fmt):
    rng = random.Random(0)
    cases = [(gen_small_model_family(n), False) for n in (2, 3, 5)]
    cases += [(gen_linearizable(GenConfig(adt=adt, ops=10, seed=4, stretch=2.0)), True)
              for adt in ("stack", "queue", "set", "multiset")]
    for h, expected in cases:
        renamed = parse_history(corpus.relabel(serialize_history(h, fmt=fmt), rng))
        pairs = {(op.event.value, back.event.value)
                 for op, back in zip(h.ops, renamed.ops) if op.event.value is not None}
        assert len({a for a, _ in pairs}) == len({b for _, b in pairs}) == len(pairs)
        assert [(op.event.kind, op.event.outcome, op.call, op.ret) for op in renamed.ops] == \
               [(op.event.kind, op.event.outcome, op.call, op.ret) for op in h.ops]
        assert brute_force_linearizable(renamed).linearizable is expected


def test_recording_codec_round_trip():
    for adt in ("stack", "queue"):
        h = gen_linearizable(GenConfig(adt=adt, ops=200, seed=1, stretch=3.0))
        text = corpus.encode_recording(h)
        back = corpus.decode_recording(text)
        assert [(op.event.kind, op.call, op.ret) for op in back.ops] == \
               [(op.event.kind, op.call, op.ret) for op in h.ops]
        assert corpus.encode_recording(back) == text


@pytest.mark.parametrize("expected,verbose,code,out,err,timed_out,outcome", [
    (True, False, 0, b"linearizable\n", b"", False, "decided"),
    (False, False, 1, b"unlinearizable\n", b"", False, "decided"),
    (True, False, 1, b"unlinearizable\n", b"", False, "wrong"),
    (False, False, 0, b"linearizable\n", b"", False, "wrong"),
    (True, False, 0, b"unlinearizable\n", b"", False, "wrong"),
    (True, False, 1, b"", b"Traceback (most recent call last):\n", False, "wrong"),
    (True, False, 2, b"", b"limon: bad header\n", False, "wrong"),
    (True, False, 3, b"", b"limon: inconclusive\n", False, "undecided"),
    (True, False, -9, b"", b"", True, "undecided"),
    (False, True, 1, b'{"linearizable": false, "witness": {"kind": "x"}}\n', b"", False,
     "decided"),
    (False, True, 1, b'{"linearizable": false, "witness": null}\n', b"", False, "wrong"),
])
def test_score(expected, verbose, code, out, err, timed_out, outcome):
    assert run.score(expected, verbose, code, out, err, timed_out) == outcome


def test_layer_metrics_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    manifest = [{"file": f"{adt}.txt", "adt": adt, "stream": False, "ladder": None}
                for adt in run.ADTS]
    records = [{"file": e["file"], "untraced_s": 1.0, "traced_s": 1.0,
                "durations": {}, "counts": {"core.work": 1}} for e in manifest]
    names = set(run.layer_metrics(manifest, records, 0.1))
    assert names == {m["name"] for m in spec["per_layer"]}
