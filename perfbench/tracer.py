"""Traced and counting runs of `limon check`, timing each layer from outside src/.

Usage:
    python3 perfbench/tracer.py trace FILE RESULT_JSON [--verbose]
    python3 perfbench/tracer.py count FILE RESULT_JSON

`trace` runs limon.cli.main(["check", FILE]) as the CLI does, with the
public entry points of each layer wrapped: every call records a span (id,
name, start, end, parent, file), kept in memory and written to RESULT_JSON
when the check ends.  The process exits with the check's exit code.

`count` parses FILE and runs the monitor with a WorkCounter and, for
stacks, the recursion observer, while the same wrappers read sizes from the
arguments and results of the preprocessing steps.  Counts come from this
run alone, so that the traced run executes the monitor exactly as the CLI
does.

Each run is a fresh process, like the CLI: in one process, a second check
of a 100k-op file measured up to 30% slower than the first.

Streams (`check - --stream`) are not traced: their parser, cli._stream_events,
is private, so they get end-to-end numbers only.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from pathlib import Path

import limon
import limon.cli
import limon.history
import limon.queues
import limon.sets
import limon.stacks

# Preprocessing steps: their spans hang under one synthetic "preprocess"
# span covering them, since the monitors run them inline without a call of
# their own to wrap.
PREPROCESS = ("differentiate", "complete", "overlap", "value_view", "events")


# Count extractors: (args, result) of a wrapped call -> counts to add.
def _renamed(args, result):
    fresh_to_orig = result[1]
    return {"renamed": len(fresh_to_orig) - len(set(fresh_to_orig.values()))}


def _completed(args, result):
    return {"completed_pops": len(result) - len(args[0])}


def _dropped(args, result):
    return {"overlap_dropped": (len(args[0]) - len(result[0])) // 2}


def _values(args, result):
    return {"values": len(result)}


# (module, attribute, span name, count extractor or None).  The attribute is
# the name the calling module looks up, so a function imported into several
# modules is wrapped in each.  Missing attributes are skipped.
WRAPPED = (
    (limon.cli, "parse_history", "parse", None),
    (limon.history, "validate", "validate", None),
    (limon.cli, "check_history", "check", None),
    (limon.stacks, "differentiate", "differentiate", _renamed),
    (limon.queues, "differentiate", "differentiate", _renamed),
    (limon.stacks, "complete_history", "complete", _completed),
    (limon.queues, "complete_history", "complete", _completed),
    (limon.stacks, "remove_overlapping_pairs", "overlap", _dropped),
    (limon.stacks, "op_to_val", "value_view", _values),
    (limon.queues, "op_to_val", "value_view", _values),
    (limon.sets, "normalize_failing_ops", "events", None),
    (limon.sets, "history_events", "events", None),
    (limon.sets, "set_linearizable_events", "core", None),
    (limon.sets, "multiset_linearizable_events", "core", None),
)


class Tracer:
    """Keeps spans in memory until the run writes them out.

    With counting set, the wrappers also add the sizes their extractors
    read from arguments and results to `counts`.
    """

    def __init__(self, file: str, counting: bool = False) -> None:
        self.spans: list[dict] = []
        self.counts: dict[str, int] = {}
        self.counting = counting
        self.file = file
        self._open: list[dict] = []
        self._preprocess: dict | None = None
        self._t0 = time.perf_counter()

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def begin(self, name: str) -> dict:
        parent = self._open[-1] if self._open else None
        if name in PREPROCESS:
            if self._preprocess is None:
                self._preprocess = self._new("preprocess", parent)
            parent = self._preprocess
        span = self._new(name, parent)
        self._open.append(span)
        return span

    def _new(self, name: str, parent: dict | None) -> dict:
        span = {"id": len(self.spans), "name": name, "start": self._now(), "end": None,
                "parent": None if parent is None else parent["id"], "file": self.file}
        self.spans.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = self._now()
        self._open.pop()
        if self._preprocess is not None and span["parent"] == self._preprocess["id"]:
            self._preprocess["end"] = span["end"]
        if span["name"] == "check":
            self._preprocess = None

    def wrap(self, fn, name: str, extract):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if self.counting and extract is not None:
                for key, n in extract(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result
        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for module, attr, name, extract in WRAPPED:
            fn = getattr(module, attr, None)
            if fn is not None:
                saved.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(fn, name, extract))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


class _StackObserver:
    def __init__(self, counts: dict) -> None:
        self.counts = counts

    def __call__(self, values, p_segs, d_segs, extremes) -> None:
        c = self.counts
        c["rounds"] = c.get("rounds", 0) + 1
        c["extremes_peeled"] = c.get("extremes_peeled", 0) + len(extremes)
        if not extremes and len(d_segs) > 2:
            c["splits"] = c.get("splits", 0) + 1


def _count(h, counts: dict) -> None:
    counter = limon.WorkCounter()
    stack_fn = limon.stacks.stack_linearizable
    if h.adt == "stack" and "observer" in inspect.signature(stack_fn).parameters:
        stack_fn(h, counter=counter, observer=_StackObserver(counts))
    else:
        limon.check_history(h, counter=counter)
    counts["core.work"] = counter.count
    if h.adt == "stack":
        counts["pop_empties"] = sum(op.event.kind == "popempty" for op in h.ops)
    if h.adt in ("set", "multiset"):
        counts["values"] = len({op.event.value for op in h.ops})


def main(argv: list[str]) -> int:
    mode, path, result = argv[:3]
    tracer = Tracer(Path(path).name, counting=mode == "count")
    if mode == "count":
        with installed(tracer):
            _count(limon.cli.parse_history(Path(path).read_text()), tracer.counts)
        Path(result).write_text(json.dumps({"counts": tracer.counts}))
        return 0
    with installed(tracer):
        span = tracer.begin("cli")
        code = limon.cli.main(["check", path, *argv[3:]])
        tracer.end(span)
    Path(result).write_text(json.dumps({"spans": tracer.spans}))
    return code


if __name__ == "__main__":
    if len(sys.argv) < 4 or sys.argv[1] not in ("trace", "count"):
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(sys.argv[1:]))
