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
from itertools import starmap
from operator import add, itemgetter, lt, sub

from .history import (
    ADD,
    CONTAINS,
    POP,
    POP_EMPTY,
    PUSH,
    REMOVE,
    Columns,
    Event,
    History,
    HistoryError,
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


def _rank_ops(calls: list, rets: list, rows: list[tuple], adt: str) -> History:
    """A history held as columns of rows[i], a (kind, value, outcome) triple,
    called at calls[i] and returned at rets[i], the stamps ranked densely:
    of tied stamps, calls rank first, then earlier rows.  Stamps may be any
    mutually comparable values, such as floats or the recorder's (ns, seq)
    pairs.  Ids number the rows in call order.  `History.columns` does not
    check these columns, so a call not before its return is refused here."""
    n = len(rows)
    stamps = calls + rets
    order = sorted(range(2 * n), key=stamps.__getitem__)  # stable: calls, then rows, win ties
    rank = [0] * (2 * n)
    for r, pos in enumerate(order):
        rank[pos] = r
    by_call = [pos for pos in order if pos < n]
    call = list(map(rank.__getitem__, by_call))
    ret = list(map(rank.__getitem__, map(n.__add__, by_call)))
    if not all(map(lt, call, ret)):
        raise HistoryError("a generated operation does not call before it returns")
    ordered = list(map(rows.__getitem__, by_call))
    kind, value, outcome = (list(map(itemgetter(j), ordered)) for j in range(3))
    return History._from_columns(adt, Columns(call, ret, kind, value, outcome, range(n)))


def _sequential_run(cfg: GenConfig, rng: random.Random) -> list[tuple]:
    """A legal sequential trace of cfg.ops (kind, value, outcome) rows for cfg.adt."""
    rows: list[tuple] = []
    if cfg.adt in ("stack", "queue"):
        state: list[int] = []
        fresh = 0
        for _ in range(cfg.ops):
            if state and rng.random() < 0.5:
                v = state.pop() if cfg.adt == "stack" else state.pop(0)
                rows.append((POP, v, None))
            elif not state and cfg.adt == "stack" and rng.random() < 0.2:
                rows.append((POP_EMPTY, None, None))
            else:
                rows.append((PUSH, fresh, None))
                state.append(fresh)
                fresh += 1
    elif cfg.adt == "set":
        present: set[int] = set()
        pool = max(cfg.values, 1)
        for _ in range(cfg.ops):
            v = rng.randrange(pool)
            kind = rng.choice((ADD, REMOVE, CONTAINS))
            if kind == ADD:
                rows.append((ADD, v, v not in present))
                present.add(v)
            elif kind == REMOVE:
                rows.append((REMOVE, v, v in present))
                present.discard(v)
            else:
                rows.append((CONTAINS, v, v in present))
    elif cfg.adt == "multiset":
        counts: dict[int, int] = {}
        pool = max(cfg.values, 1)
        for _ in range(cfg.ops):
            v = rng.randrange(pool)
            if counts.get(v, 0) > 0 and rng.random() < 0.5:
                counts[v] -= 1
                rows.append((REMOVE, v, True))
            else:
                counts[v] = counts.get(v, 0) + 1
                rows.append((ADD, v, True))
    else:
        raise HistoryError(f"unknown adt {cfg.adt!r}")
    return rows


def _stretched_run(cfg: GenConfig) -> tuple[History, list[tuple]]:
    """The history of gen_linearizable and the sequential rows it stretches."""
    rng = random.Random(cfg.seed)
    rows = _sequential_run(cfg, rng)
    n, scale = len(rows), 1000
    spread = max(1, int(cfg.stretch * scale))
    draws = [rng.randrange(spread) for _ in range(2 * n)]  # a stretch is 1 + its draw
    calls = list(map(sub, range(scale - 1, n * scale, scale), draws[0::2]))
    rets = list(map(add, range(scale + 1, n * scale + 2, scale), draws[1::2]))
    return _rank_ops(calls, rets, rows, cfg.adt), rows


def gen_linearizable_with_witness(cfg: GenConfig) -> tuple[History, list[Event]]:
    """Linearizable-by-construction history, as gen_linearizable makes it,
    plus its witness trace, the only `Event`s it builds."""
    h, rows = _stretched_run(cfg)
    return h, list(starmap(Event, rows))


def gen_linearizable(cfg: GenConfig) -> History:
    """Simulate a legal sequential run, then stretch the operation intervals
    randomly around each linearization point.  Linearizable by construction."""
    return _stretched_run(cfg)[0]


def gen_random(adt: str, ops: int, seed: int, values: int = 3) -> History:
    """Unconstrained random history: a mix of verdicts for differential tests.

    Stack/queue histories are generated differentiated, with unmatched
    pushes, pops of never-pushed values and (stacks) pop-empty operations
    mixed in.  Set/multiset histories draw kinds, values and outcomes at
    random from a small value pool.
    """
    rng = random.Random(seed)
    rows: list[tuple] = []
    if adt in ("stack", "queue"):
        fresh = 0
        while len(rows) < ops:
            r = rng.random()
            if adt == "stack" and r < 0.10:
                rows.append((POP_EMPTY, None, None))
                continue
            fresh += 1
            if r < 0.25:
                rows.append((PUSH, fresh, None))  # unmatched push
            elif r < 0.32:
                rows.append((POP, fresh, None))  # pop of a never-pushed value
            else:
                rows.append((PUSH, fresh, None))
                if len(rows) < ops:
                    rows.append((POP, fresh, None))
    elif adt == "set":
        for _ in range(ops):
            kind = rng.choice((ADD, REMOVE, CONTAINS))
            rows.append((kind, rng.randrange(values), rng.random() < 0.5))
    elif adt == "multiset":
        for _ in range(ops):
            kind = rng.choice((ADD, REMOVE))
            rows.append((kind, rng.randrange(values), True))
    else:
        raise HistoryError(f"unknown adt {adt!r}")
    rows = rows[:ops]

    slots = list(range(2 * len(rows)))
    rng.shuffle(slots)
    firsts, seconds = slots[0::2], slots[1::2]
    return _rank_ops(list(map(min, firsts, seconds)), list(map(max, firsts, seconds)), rows, adt)


def gen_small_model_family(n: int) -> History:
    """The unlinearizable family with no small core: removing any one of the
    n values yields a linearizable history.

    For n >= 3 the construction staggers push-returns and pop-calls so that
    value i's I-segment overlaps exactly its neighbors, producing a single
    P-segment and no extreme value; the last value's pop arrives after all
    other pops have returned.  For n = 2 it degenerates to the sequential
    LIFO violation push(1) push(2) pop(1) pop(2); for n >= 3 value i's push
    has id 2i-2 and its pop 2i-1.
    """
    if n < 2:
        raise HistoryError("family needs n >= 2")
    # Rows (call, ret, kind, value, id), put in call order below.
    rows = [(0, 1, PUSH, 1, 0), (2, 3, PUSH, 2, 1), (4, 5, POP, 1, 2), (6, 7, POP, 2, 3)]
    if n > 2:
        def push_ret(i: int) -> int:
            return 1 if i == 1 else n + 2 * i - 3

        def pop_call(i: int) -> int:
            return 4 * n - 2 if i == n else n + 2 * i

        def pop_ret(i: int) -> int:
            return 4 * n - 1 if i == n else 3 * n - 2 + i

        rows = sorted(row for i in range(1, n + 1) for row in (
            (0 if i == 1 else i, push_ret(i), PUSH, i, 2 * i - 2),
            (pop_call(i), pop_ret(i), POP, i, 2 * i - 1)))
    call, ret, kind, value, ids = map(list, zip(*rows))
    return History._from_columns("stack", Columns(call, ret, kind, value, [None] * 2 * n, ids))


def mutate(h: History, seed: int) -> History:
    """Apply one random perturbation to a (typically linearizable) history.

    Choices: identity, swapping two pop values, swapping two returns, or
    shrinking one operation to a minimal interval.  The result keeps all
    structural invariants; its verdict is for the oracle or monitor to
    decide.  It reads the checked columns, so a history that
    `History.columns` refuses is refused here.
    """
    rng = random.Random(seed)
    cols = h.columns
    if not cols.call:
        return h
    calls = [2 * c for c in cols.call]  # doubled: a shrunk return, call + 1, is between stamps
    rets = [2 * r for r in cols.ret]  # and ints: floats merge stamps above 2**53
    rows: list[tuple] = list(zip(cols.kind, cols.value, cols.outcome))
    choice = rng.randrange(4)
    if choice == 1 and h.adt in ("stack", "queue"):
        pops = [i for i, (kind, _, _) in enumerate(rows) if kind == POP]
        if len(pops) >= 2:
            i, j = rng.sample(pops, 2)
            rows[i], rows[j] = (POP, rows[j][1], None), (POP, rows[i][1], None)
    elif choice == 2 and len(rows) >= 2:
        i, j = rng.sample(range(len(rows)), 2)
        if calls[i] < rets[j] and calls[j] < rets[i]:
            rets[i], rets[j] = rets[j], rets[i]
    elif choice == 3:
        i = rng.randrange(len(rows))
        rets[i] = calls[i] + 1
    return _rank_ops(calls, rets, rows, h.adt)


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
    buckets: list[list[tuple[tuple[int, int], tuple[int, int], tuple]]] = [
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
                out.append((c, r, (PUSH, value, None)))
            else:
                c = stamper.stamp()
                got = pop_fn()
                r = stamper.stamp()
                if got is impls.EMPTY:
                    if adt == "stack":
                        out.append((c, r, (POP_EMPTY, None, None)))
                else:
                    out.append((c, r, (POP, got, None)))

    workers = [threading.Thread(target=worker, args=(tid,)) for tid in range(threads)]
    for w in workers:
        w.start()
    for w in workers:
        w.join()

    records = [rec for bucket in buckets for rec in bucket]
    return _rank_ops(*(list(map(itemgetter(j), records)) for j in range(3)), adt)
