"""Test-corpus generators and the concurrent execution recorder.

All pure generators are deterministic for a fixed config/seed.  The
recorder is the one concurrent entry point: it owns its worker threads,
joins them, and only then publishes the merged history.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from .history import (
    ADD,
    CONTAINS,
    POP,
    POP_EMPTY,
    PUSH,
    REMOVE,
    Event,
    History,
    HistoryError,
    Operation,
)
from . import impls


@dataclass(frozen=True)
class GenConfig:
    adt: str = "stack"
    ops: int = 100
    values: int = 8
    threads: int = 4
    seed: int = 0
    stretch: float = 1.0


def _rank_ops(raw: list[tuple[object, object, Event]], adt: str) -> History:
    """Turn raw (call, ret, event) rows into a history with dense unique
    integer timestamps, preserving endpoint order (calls win raw ties).
    Stamps may be any mutually comparable values, such as floats or the
    recorder's (ns, seq) pairs.  Operation ids are assigned in call order,
    the canonical numbering."""
    endpoints: list[tuple[object, int, int]] = []
    for idx, (c, r, _) in enumerate(raw):
        endpoints.append((c, 0, idx))
        endpoints.append((r, 1, idx))
    endpoints.sort()
    calls: dict[int, int] = {}
    rets: dict[int, int] = {}
    for rank, (_, is_ret, idx) in enumerate(endpoints):
        (rets if is_ret else calls)[idx] = rank
    by_call = sorted(range(len(raw)), key=lambda idx: calls[idx])
    ops = tuple(Operation(op_id, raw[idx][2], calls[idx], rets[idx])
                for op_id, idx in enumerate(by_call))
    return History(adt, ops)


def _sequential_run(cfg: GenConfig, rng: random.Random) -> list[Event]:
    """Produce a legal sequential trace of cfg.ops events for cfg.adt."""
    events: list[Event] = []
    if cfg.adt in ("stack", "queue"):
        state: list[int] = []
        fresh = 0
        for _ in range(cfg.ops):
            if state and rng.random() < 0.5:
                v = state.pop() if cfg.adt == "stack" else state.pop(0)
                events.append(Event(POP, v))
            elif not state and cfg.adt == "stack" and rng.random() < 0.2:
                events.append(Event(POP_EMPTY))
            else:
                events.append(Event(PUSH, fresh))
                state.append(fresh)
                fresh += 1
    elif cfg.adt == "set":
        present: set[int] = set()
        pool = max(cfg.values, 1)
        for _ in range(cfg.ops):
            v = rng.randrange(pool)
            kind = rng.choice((ADD, REMOVE, CONTAINS))
            if kind == ADD:
                events.append(Event(ADD, v, v not in present))
                present.add(v)
            elif kind == REMOVE:
                events.append(Event(REMOVE, v, v in present))
                present.discard(v)
            else:
                events.append(Event(CONTAINS, v, v in present))
    elif cfg.adt == "multiset":
        counts: dict[int, int] = {}
        pool = max(cfg.values, 1)
        for _ in range(cfg.ops):
            v = rng.randrange(pool)
            if counts.get(v, 0) > 0 and rng.random() < 0.5:
                counts[v] -= 1
                events.append(Event(REMOVE, v, True))
            else:
                counts[v] = counts.get(v, 0) + 1
                events.append(Event(ADD, v, True))
    else:
        raise HistoryError(f"unknown adt {cfg.adt!r}")
    return events


def gen_linearizable_with_witness(cfg: GenConfig) -> tuple[History, list[Event]]:
    """Linearizable-by-construction history plus its witness trace."""
    rng = random.Random(cfg.seed)
    events = _sequential_run(cfg, rng)
    scale = 1000
    spread = max(1, int(cfg.stretch * scale))
    raw = []
    for i, ev in enumerate(events):
        point = (i + 1) * scale
        raw.append((point - rng.randint(1, spread), point + rng.randint(1, spread), ev))
    return _rank_ops(raw, cfg.adt), events


def gen_linearizable(cfg: GenConfig) -> History:
    """Simulate a legal sequential run, then stretch the operation intervals
    randomly around each linearization point.  Linearizable by construction."""
    return gen_linearizable_with_witness(cfg)[0]


def gen_random(adt: str, ops: int, seed: int, values: int = 3) -> History:
    """Unconstrained random history: a mix of verdicts for differential tests.

    Stack/queue histories are generated differentiated, with unmatched
    pushes, pops of never-pushed values and (stacks) pop-empty operations
    mixed in.  Set/multiset histories draw kinds, values and outcomes at
    random from a small value pool.
    """
    rng = random.Random(seed)
    events: list[Event] = []
    if adt in ("stack", "queue"):
        fresh = 0
        while len(events) < ops:
            r = rng.random()
            if adt == "stack" and r < 0.10:
                events.append(Event(POP_EMPTY))
                continue
            fresh += 1
            if r < 0.25:
                events.append(Event(PUSH, fresh))  # unmatched push
            elif r < 0.32:
                events.append(Event(POP, fresh))  # pop of a never-pushed value
            else:
                events.append(Event(PUSH, fresh))
                if len(events) < ops:
                    events.append(Event(POP, fresh))
    elif adt == "set":
        for _ in range(ops):
            kind = rng.choice((ADD, REMOVE, CONTAINS))
            events.append(Event(kind, rng.randrange(values), rng.random() < 0.5))
    elif adt == "multiset":
        for _ in range(ops):
            kind = rng.choice((ADD, REMOVE))
            events.append(Event(kind, rng.randrange(values), True))
    else:
        raise HistoryError(f"unknown adt {adt!r}")
    events = events[:ops]

    slots = list(range(2 * len(events)))
    rng.shuffle(slots)
    raw = []
    for i, ev in enumerate(events):
        a, b = slots[2 * i], slots[2 * i + 1]
        raw.append((min(a, b), max(a, b), ev))
    return _rank_ops(raw, adt)


def gen_small_model_family(n: int) -> History:
    """The unlinearizable family with no small core: removing any one of the
    n values yields a linearizable history.

    For n >= 3 the construction staggers push-returns and pop-calls so that
    value i's I-segment overlaps exactly its neighbors, producing a single
    P-segment and no extreme value; the last value's pop arrives after all
    other pops have returned.  For n = 2 it degenerates to the sequential
    LIFO violation push(1) push(2) pop(1) pop(2).
    """
    if n < 2:
        raise HistoryError("family needs n >= 2")
    ops: list[Operation] = []
    if n == 2:
        rows = [(PUSH, 1, 0, 1), (PUSH, 2, 2, 3), (POP, 1, 4, 5), (POP, 2, 6, 7)]
        for i, (kind, v, c, r) in enumerate(rows):
            ops.append(Operation(i, Event(kind, v), c, r))
        return History("stack", tuple(ops))

    def push_ret(i: int) -> int:
        return 1 if i == 1 else n + 2 * i - 3

    def pop_call(i: int) -> int:
        return 4 * n - 2 if i == n else n + 2 * i

    def pop_ret(i: int) -> int:
        return 4 * n - 1 if i == n else 3 * n - 2 + i

    op_id = 0
    for i in range(1, n + 1):
        push_call = 0 if i == 1 else i
        ops.append(Operation(op_id, Event(PUSH, i), push_call, push_ret(i)))
        ops.append(Operation(op_id + 1, Event(POP, i), pop_call(i), pop_ret(i)))
        op_id += 2
    return History("stack", tuple(ops))


def mutate(h: History, seed: int) -> History:
    """Apply one random perturbation to a (typically linearizable) history.

    Choices: identity, swapping two pop values, swapping two returns, or
    shrinking one operation to a minimal interval.  The result keeps all
    structural invariants; its verdict is for the oracle or monitor to
    decide.
    """
    rng = random.Random(seed)
    rows: list[tuple[float, float, Event]] = [
        (float(op.call), float(op.ret), op.event) for op in h.ops
    ]
    if not rows:
        return h
    choice = rng.randrange(4)
    if choice == 1 and h.adt in ("stack", "queue"):
        pops = [i for i, (_, _, ev) in enumerate(rows) if ev.kind == POP]
        if len(pops) >= 2:
            i, j = rng.sample(pops, 2)
            ci, ri, ei = rows[i]
            cj, rj, ej = rows[j]
            rows[i] = (ci, ri, Event(POP, ej.value))
            rows[j] = (cj, rj, Event(POP, ei.value))
    elif choice == 2 and len(rows) >= 2:
        i, j = rng.sample(range(len(rows)), 2)
        ci, ri, ei = rows[i]
        cj, rj, ej = rows[j]
        if ci < rj and cj < ri:
            rows[i] = (ci, rj, ei)
            rows[j] = (cj, ri, ej)
    elif choice == 3:
        i = rng.randrange(len(rows))
        c, _, ev = rows[i]
        rows[i] = (c, c + 0.5, ev)
    return _rank_ops(rows, h.adt)


class _Stamper:
    """Monotonic-clock stamps with a locked tie-breaking sequence number."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq = 0

    def stamp(self) -> tuple[int, int]:
        with self._lock:
            self._seq += 1
            return (time.monotonic_ns(), self._seq)


def record_execution(impl: str, cfg: GenConfig) -> History:
    """Run randomized workers against a reference structure and record it.

    Every call/return is stamped immediately around the invocation; the
    merged records are rank-compressed to dense unique timestamps.  The
    recording cost stretches operations, which can only add linearizations,
    never remove them.  Values are pre-differentiated as
    (thread id, thread-local counter), so the monitors need no renaming.
    Pops that observe an empty stack are recorded as pop-empty; empty
    dequeues are discarded (queues have no empty-dequeue event).
    """
    if impl not in impls.REFERENCE_IMPLS:
        raise HistoryError(f"unknown implementation {impl!r}; "
                           f"one of {sorted(impls.REFERENCE_IMPLS)}")
    cls, adt, is_buggy = impls.REFERENCE_IMPLS[impl]
    structure = cls(random.Random(cfg.seed * 7919 + 13)) if is_buggy else cls()
    push_fn = structure.push if adt == "stack" else structure.enqueue
    pop_fn = structure.pop if adt == "stack" else structure.dequeue

    stamper = _Stamper()
    threads = max(cfg.threads, 1)
    buckets: list[list[tuple[tuple[int, int], tuple[int, int], Event]]] = [
        [] for _ in range(threads)
    ]

    def worker(tid: int) -> None:
        rng = random.Random((cfg.seed << 8) ^ tid)
        count = cfg.ops // threads + (1 if tid < cfg.ops % threads else 0)
        minted = 0
        out = buckets[tid]
        for _ in range(count):
            if rng.random() < 0.5:
                value = tid * 1_000_000 + minted
                minted += 1
                c = stamper.stamp()
                push_fn(value)
                r = stamper.stamp()
                out.append((c, r, Event(PUSH, value)))
            else:
                c = stamper.stamp()
                got = pop_fn()
                r = stamper.stamp()
                if got is impls.EMPTY:
                    if adt == "stack":
                        out.append((c, r, Event(POP_EMPTY)))
                else:
                    out.append((c, r, Event(POP, got)))

    workers = [threading.Thread(target=worker, args=(tid,)) for tid in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()

    return _rank_ops([rec for bucket in buckets for rec in bucket], adt)
