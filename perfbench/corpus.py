"""Seeded corpora for the `limon check` benchmark, with answers known by construction.

Usage: python3 perfbench/corpus.py WORKLOAD SEED OUTDIR

Writes one history file per check into OUTDIR, plus OUTDIR/manifest.json:
a list of entries {file, adt, ops, expected, verbose, stream, ladder}.
`expected` is the verdict the construction guarantees; it never comes from
limon's own monitor.  The same workload and seed always give the same files.

Answers by construction:
- gen_linearizable stretches a legal sequential trace around its
  linearization points, so its histories are linearizable;
- renaming values, even onto fewer names, turns a legal sequential stack
  or queue trace into another legal one, so recycling names keeps a
  linearizable history linearizable; a bijective renaming keeps any
  history's verdict;
- a nested stack (sequential pushes, then sequential pops in reverse) is a
  legal sequential run;
- the no-small-model family is unlinearizable by its theorem;
- normalize_failing_ops replaces a failing add/remove by the membership
  query it implies, which keeps the verdict;
- the recordings in data/ come from correct reference implementations.

The recordings are fixed files, because two recordings of one seed differ
and the stack check's cost follows the recorded interleaving: 30k-op
Treiber recordings of different seeds measured 9M to 19M work units.
`record_fixtures.py` made them; see its docstring.
"""

from __future__ import annotations

import heapq
import json
import lzma
import math
import random
import sys
from pathlib import Path

from limon import (
    ADTS,
    Event,
    GenConfig,
    History,
    Operation,
    gen_linearizable,
    gen_small_model_family,
    normalize_failing_ops,
    serialize_history,
)

DATA = Path(__file__).resolve().parent / "data"
WORKLOADS = ("bulk-ops", "stack-nested", "events-recorded", "repeated-values")

BULK_OPS = 100_000
NESTED_LADDER = (1000, 2000, 4000)
SMALL_MODEL_N = 4000
GEN_SEED = 0
FIXTURES = {"stack": "treiber-stack-30k.txt.xz", "queue": "ms-queue-100k.txt.xz"}

_CODES = {"push": "u", "pop": "o", "popempty": "e"}
_KINDS = {code: kind for kind, code in _CODES.items()}


def bulk_config(adt: str) -> GenConfig:
    return GenConfig(adt=adt, ops=BULK_OPS, values=BULK_OPS // 8, threads=2,
                     seed=GEN_SEED, stretch=2.0)


def nested_stack(n: int) -> History:
    """Push value v over [2v, 2v+1] for v = 1..n, then pop them in reverse.

    The stack recursion peels one extreme value per round here, which is its
    quadratic worst case.
    """
    ops = [Operation(v - 1, Event("push", v), 2 * v, 2 * v + 1) for v in range(1, n + 1)]
    t = 2 * n + 2
    for v in range(n, 0, -1):
        ops.append(Operation(len(ops), Event("pop", v), t, t + 1))
        t += 2
    return History("stack", tuple(ops))


def recycle(h: History) -> History:
    """Rename the values of a stack or queue history onto as few names as can be
    reused safely: a value takes the smallest name that no live value holds.

    A value is live from its first call to its last return, and for ever if
    it is never popped.  The 50,000 values of a bulk history share about 290
    names.  Two holders of one name never overlap, so pairing the j-th push
    of a name with its j-th pop in call order, as differentiate does, is the
    true pairing.  A plain fold (v -> v mod 64) lacks that property and
    limon answers a false `unlinearizable` on the folded bulk stack (the
    repeated-value defect in ROADMAP.md); a benchmark workload must not hold
    a check that fails.
    """
    spans: dict[int, list] = {}  # value -> [first call, last return, popped]
    for op in h.ops:
        v = op.event.value
        if v is None:
            continue
        span = spans.setdefault(v, [op.call, op.ret, False])
        span[0], span[1] = min(span[0], op.call), max(span[1], op.ret)
        span[2] = span[2] or op.event.kind == "pop"
    live: list[tuple] = []  # heap of (end, name)
    free: list[int] = []  # heap of names no live value holds
    names: dict[int, int] = {}
    for v in sorted(spans, key=lambda v: spans[v][0]):
        start, end, popped = spans[v]
        while live and live[0][0] < start:
            heapq.heappush(free, heapq.heappop(live)[1])
        names[v] = heapq.heappop(free) if free else len(live)
        heapq.heappush(live, (end if popped else math.inf, names[v]))
    ops = tuple(op if op.event.value is None else
                Operation(op.id, Event(op.event.kind, names[op.event.value]), op.call, op.ret)
                for op in h.ops)
    return History(h.adt, ops)


def relabel(text: str, rng: random.Random) -> str:
    """Rename the values of a serialized history by a seeded bijection.

    Renaming keeps each value's operations apart from every other value's,
    so it keeps the verdict and every count the monitors take.  It works on
    the text, which is several times faster than rebuilding the History.
    """
    header, *lines = text.split("\n")
    stack_or_queue = header.split()[1] in ("stack", "queue")
    rows = [line.split(" ") for line in lines]
    slots = []
    for toks in rows:
        if toks[0] == "call":
            if len(toks) == 5:  # call <id> <kind> <value> <ts>
                slots.append((toks, 3))
        elif toks[0] == "ret":
            if len(toks) == 4 and stack_or_queue and toks[3] != "empty":  # a pop's value
                slots.append((toks, 3))
        elif toks[0] not in ("popempty", ""):  # <kind> <value> <call> <ret> [<result>]
            slots.append((toks, 1))
    values = sorted({toks[i] for toks, i in slots}, key=int)
    fresh = rng.sample(range(1, 10 * len(values) + 2), len(values))
    table = dict(zip(values, map(str, fresh)))
    for toks, i in slots:
        toks[i] = table[toks[i]]
    return "\n".join([header] + [" ".join(toks) for toks in rows])


def encode_recording(h: History) -> str:
    """Compact text form of a stack or queue recording, one line per operation.

    Lines are `<code> <value> <dcall> <len>` in call order: code u (push),
    o (pop) or e (pop-empty, value -), the value renumbered by first use,
    the call's distance from the previous call, and ret minus call.
    """
    lines = [h.adt]
    names: dict[int, int] = {}
    prev = 0
    for op in h.ops:
        v = op.event.value
        name = "-" if v is None else names.setdefault(v, len(names))
        lines.append(f"{_CODES[op.event.kind]} {name} {op.call - prev} {op.ret - op.call}")
        prev = op.call
    return "\n".join(lines) + "\n"


def decode_recording(text: str) -> History:
    adt, *rows = text.split("\n")
    ops = []
    call = 0
    for row in rows:
        if not row:
            continue
        code, name, dcall, length = row.split()
        call += int(dcall)
        value = None if name == "-" else int(name)
        ops.append(Operation(len(ops), Event(_KINDS[code], value), call, call + int(length)))
    return History(adt, tuple(ops))


def load_fixture(adt: str) -> History:
    return decode_recording(lzma.decompress((DATA / FIXTURES[adt]).read_bytes()).decode())


def _entry(name, h, *, expected=True, fmt="ops", verbose=False, stream=False, ladder=None):
    return {"file": name, "history": h, "fmt": fmt, "adt": h.adt, "ops": len(h),
            "expected": expected, "verbose": verbose, "stream": stream, "ladder": ladder}


def build(workload: str) -> list[dict]:
    """The checks of one workload: each entry carries its History and known verdict."""
    if workload == "bulk-ops":
        return [_entry(f"{adt}.txt", gen_linearizable(bulk_config(adt))) for adt in ADTS]
    if workload == "stack-nested":
        out = [_entry(f"nested-{n}.txt", nested_stack(n), ladder=n) for n in NESTED_LADDER]
        out.append(_entry(f"small-model-{SMALL_MODEL_N}.txt",
                          gen_small_model_family(SMALL_MODEL_N), expected=False, verbose=True))
        return out
    if workload == "events-recorded":
        out = [_entry(f"recorded-{adt}.txt", load_fixture(adt), fmt="events")
               for adt in ("stack", "queue")]
        set_h = normalize_failing_ops(gen_linearizable(bulk_config("set")))
        out.append(_entry("stream-set.txt", set_h, fmt="events", stream=True))
        multiset_h = gen_linearizable(bulk_config("multiset"))
        out.append(_entry("stream-multiset.txt", multiset_h, fmt="events", stream=True))
        return out
    if workload == "repeated-values":
        return [_entry(f"recycled-{adt}.txt", recycle(gen_linearizable(bulk_config(adt))))
                for adt in ("stack", "queue")]
    raise ValueError(f"unknown workload {workload!r}; one of {', '.join(WORKLOADS)}")


def write(workload: str, seed: int, outdir: Path) -> None:
    """Write the workload's files, their values renamed by the seed.

    The seed changes nothing but the names of values: the shape of a stack
    history sets the stack's work, which ranges from 18.6M to 28.6M work
    units over generator seeds 11-16 at 100k ops, far beyond the
    benchmark's bounds.
    """
    rng = random.Random(seed)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for entry in build(workload):
        text = serialize_history(entry.pop("history"), fmt=entry.pop("fmt"))
        (outdir / entry["file"]).write_text(relabel(text, rng))
        manifest.append(entry)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=1))


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit("usage: corpus.py WORKLOAD SEED OUTDIR")
    write(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
