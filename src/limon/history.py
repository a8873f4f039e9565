"""History data model, file formats, validation and shared preprocessing.

A history is a finite set of timed operations recorded from a concurrent
execution.  Every timestamp in a history is globally unique, so the
real-time precedence order between operations is unambiguous.  The
transforms in this module (completion, overlap removal, differentiation,
projection) define the preprocessing of the stack and queue monitors,
which `value_table` performs in one pass; the transforms are its reference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

ADTS = ("stack", "queue", "set", "multiset")

PUSH = "push"
POP = "pop"
POP_EMPTY = "popempty"
ADD = "add"
REMOVE = "remove"
CONTAINS = "contains"

# Sentinel for the empty-stack value in projections: project(h, {EMPTY, ...})
# keeps pop-empty operations.
EMPTY = None

_KINDS_BY_ADT = {
    "stack": (PUSH, POP, POP_EMPTY),
    "queue": (PUSH, POP),
    "set": (ADD, REMOVE, CONTAINS),
    "multiset": (ADD, REMOVE),
}

# Surface spellings accepted in input files, mapped to canonical kinds.
_KIND_ALIASES = {
    "push": PUSH, "pop": POP, "enq": PUSH, "deq": POP,
    "popempty": POP_EMPTY,
    "add": ADD, "remove": REMOVE, "contains": CONTAINS,
}

# Codes that make an input unusable, as opposed to semantically unlinearizable.
STRUCTURAL_VIOLATIONS = frozenset(
    {"duplicate-timestamp", "duplicate-operation-id", "call-not-before-return",
     "illegal-event"}
)


class HistoryError(ValueError):
    """Raised for malformed histories or illegal programmatic use."""


class ParseError(HistoryError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [left, right]; zero-length intervals are legal."""

    left: int
    right: int

    def __post_init__(self) -> None:
        if self.left > self.right:
            raise HistoryError(f"interval [{self.left},{self.right}] has left > right")

    def intersects(self, other: Interval) -> bool:
        # Closed endpoints: [a,b] meets [c,d] iff a <= d and c <= b.
        return self.left <= other.right and other.left <= self.right

    def contains(self, other: Interval) -> bool:
        return self.left <= other.left and other.right <= self.right

    def as_pair(self) -> tuple[int, int]:
        return (self.left, self.right)


@dataclass(frozen=True, slots=True)
class Event:
    """An untimed operation payload.

    kind:    push | pop | popempty | add | remove | contains
    value:   the affected value (None for popempty)
    outcome: add/remove success (True=ok), or the contains answer
    """

    kind: str
    value: int | None = None
    outcome: bool | None = None


@dataclass(frozen=True, slots=True)
class Operation:
    id: int
    event: Event
    call: int
    ret: int

    @property
    def interval(self) -> Interval:
        return Interval(self.call, self.ret)


@dataclass(frozen=True)
class History:
    """An ADT-tagged set of operations, kept sorted by call timestamp."""

    adt: str
    ops: tuple[Operation, ...]

    def __post_init__(self) -> None:
        if self.adt not in ADTS:
            raise HistoryError(f"unknown adt {self.adt!r}")
        object.__setattr__(self, "ops", tuple(sorted(self.ops, key=lambda o: o.call)))

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)


@dataclass(frozen=True, slots=True)
class AttributedValue:
    """A value together with the four timestamps of its push and pop."""

    value: int
    push_call: int
    push_ret: int
    pop_call: int
    pop_ret: int

    @property
    def i_segment(self) -> Interval | None:
        """[push-return, pop-call]: the window the value is certainly inside.

        None when push and pop overlap (no certainty window exists).
        """
        if self.push_ret > self.pop_call:
            return None
        return Interval(self.push_ret, self.pop_call)

    @property
    def t_segment(self) -> Interval:
        """[push-call, pop-return]: the total window of both operations."""
        return Interval(self.push_call, self.pop_ret)


@dataclass(frozen=True)
class Verdict:
    """Monitor answer; witness is a JSON-ready diagnostic when unlinearizable."""

    linearizable: bool
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.linearizable


@dataclass(frozen=True, slots=True)
class Violation:
    code: str
    detail: object = None

    @property
    def structural(self) -> bool:
        return self.code in STRUCTURAL_VIOLATIONS


class WorkCounter:
    """Instrumentation counter for complexity-envelope measurements."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, n: int = 1) -> None:
        self.count += n


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _strip(line: str) -> str:
    hash_at = line.find("#")
    if hash_at >= 0:
        line = line[:hash_at]
    return line.strip()


def _is_int(token: str) -> bool:
    """ASCII integer literal with optional sign; str.isdigit alone also
    accepts digits such as '²' that int() rejects."""
    if token and (token[0] in "+-"):
        token = token[1:]
    return token.isascii() and token.isdigit()


class _Interner:
    """Maps arbitrary value tokens to integers; integer literals keep their value."""

    def __init__(self) -> None:
        self.token_index: dict[str, int] = {}
        self.max_literal = -1

    def see(self, token: str) -> None:
        if _is_int(token):
            self.max_literal = max(self.max_literal, int(token))
        else:
            self.token_index.setdefault(token, len(self.token_index))

    def resolve(self, token: str) -> int:
        if _is_int(token):
            return int(token)
        return self.max_literal + 1 + self.token_index[token]


def _parse_ts(token: str, lineno: int) -> int:
    if not _is_int(token):
        raise ParseError(f"bad timestamp {token!r}", lineno)
    ts = int(token)
    if ts < 0:
        raise ParseError(f"negative timestamp {token!r}", lineno)
    return ts


def _parse_outcome(kind: str, token: str, lineno: int) -> bool:
    if kind == CONTAINS:
        if token in ("true", "false"):
            return token == "true"
        raise ParseError(f"contains answer must be true/false, got {token!r}", lineno)
    if token in ("ok", "fail"):
        return token == "ok"
    raise ParseError(f"{kind} outcome must be ok/fail, got {token!r}", lineno)


def _check_kind(adt: str, kind: str, outcome: bool | None, lineno: int | None) -> None:
    if kind not in _KINDS_BY_ADT[adt]:
        raise ParseError(f"event kind {kind!r} illegal for adt {adt!r}", lineno)
    if adt == "multiset" and outcome is False:
        raise ParseError("failing operations are not defined for multisets", lineno)


def parse_history(text: str | bytes, fmt: str = "auto",
                  adt_override: str | None = None) -> History:
    """Parse a history in the operation or event file format.

    The first non-comment line must be ``adt <stack|queue|set|multiset>``.
    With fmt="auto" the format is inferred from the first record line.
    An adt_override replaces the declared data type (the header is still
    required); record legality is checked against the effective type.
    """
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    lines = [(i + 1, _strip(raw)) for i, raw in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise ParseError("empty input: missing adt header")
    no, header = lines[0]
    parts = header.split()
    if len(parts) != 2 or parts[0] != "adt" or parts[1] not in ADTS:
        raise ParseError(f"bad header {header!r}; expected 'adt <stack|queue|set|multiset>'", no)
    if adt_override is not None and adt_override not in ADTS:
        raise ParseError(f"unknown adt override {adt_override!r}")
    adt = adt_override or parts[1]
    records = lines[1:]

    if fmt == "auto":
        fmt = "ops"
        if records and records[0][1].split()[0] in ("call", "ret"):
            fmt = "events"
    if fmt == "ops":
        ops = _parse_ops_format(adt, records)
    elif fmt == "events":
        ops = _parse_events_format(adt, records)
    else:
        raise ParseError(f"unknown format {fmt!r}")

    h = History(adt, tuple(ops))
    _reject_structural(h)
    return h


def _reject_structural(h: History) -> None:
    bad = _structural_violations(h)
    if bad:
        raise ParseError(f"invalid history: {bad[0].code} ({bad[0].detail})")


def _parse_ops_format(adt: str, records: list[tuple[int, str]]) -> list[Operation]:
    interner = _Interner()
    rows: list[tuple[int, str, str | None, int, int, bool | None]] = []
    for no, line in records:
        toks = line.split()
        kind = _KIND_ALIASES.get(toks[0])
        if kind is None:
            raise ParseError(f"unknown operation {toks[0]!r}", no)
        if kind == POP_EMPTY:
            if len(toks) != 3:
                raise ParseError("expected: popempty <call> <ret>", no)
            value_tok: str | None = None
            call, ret = _parse_ts(toks[1], no), _parse_ts(toks[2], no)
            outcome = None
        elif kind in (PUSH, POP):
            if len(toks) != 4:
                raise ParseError(f"expected: {toks[0]} <value> <call> <ret>", no)
            value_tok = toks[1]
            call, ret = _parse_ts(toks[2], no), _parse_ts(toks[3], no)
            outcome = None
        else:
            if len(toks) != 5:
                raise ParseError(f"expected: {toks[0]} <value> <call> <ret> <result>", no)
            value_tok = toks[1]
            call, ret = _parse_ts(toks[2], no), _parse_ts(toks[3], no)
            outcome = _parse_outcome(kind, toks[4], no)
        _check_kind(adt, kind, outcome, no)
        if call >= ret:
            raise ParseError(f"call {call} not before return {ret}", no)
        if value_tok is not None:
            interner.see(value_tok)
        rows.append((no, kind, value_tok, call, ret, outcome))

    ops = []
    for op_id, (_, kind, value_tok, call, ret, outcome) in enumerate(rows):
        value = interner.resolve(value_tok) if value_tok is not None else None
        ops.append(Operation(op_id, Event(kind, value, outcome), call, ret))
    return ops


def _parse_events_format(adt: str, records: list[tuple[int, str]]) -> list[Operation]:
    interner = _Interner()
    calls: dict[int, tuple[int, str, str | None, int]] = {}
    rets: dict[int, tuple[int, int, str | None]] = {}
    for no, line in records:
        toks = line.split()
        if toks[0] == "call":
            # call <id> <kind> [<value>] <ts>
            if len(toks) not in (4, 5):
                raise ParseError("expected: call <id> <kind> [<value>] <ts>", no)
            op_id = int(toks[1]) if _is_int(toks[1]) else None
            if op_id is None:
                raise ParseError(f"bad operation id {toks[1]!r}", no)
            kind = _KIND_ALIASES.get(toks[2])
            if kind is None:
                raise ParseError(f"unknown event kind {toks[2]!r}", no)
            value_tok = toks[3] if len(toks) == 5 else None
            ts = _parse_ts(toks[-1], no)
            if op_id in calls:
                raise ParseError(f"duplicate call for id {op_id}", no)
            if value_tok is not None:
                interner.see(value_tok)
            calls[op_id] = (no, kind, value_tok, ts)
        elif toks[0] == "ret":
            # ret <id> <ts> [<result>]
            if len(toks) not in (3, 4):
                raise ParseError("expected: ret <id> <ts> [<result>]", no)
            if not _is_int(toks[1]):
                raise ParseError(f"bad operation id {toks[1]!r}", no)
            op_id = int(toks[1])
            ts = _parse_ts(toks[2], no)
            result = toks[3] if len(toks) == 4 else None
            if op_id in rets:
                raise ParseError(f"duplicate return for id {op_id}", no)
            if result is not None and result not in ("ok", "fail", "true", "false", "empty"):
                interner.see(result)
            rets[op_id] = (no, ts, result)
        else:
            raise ParseError(f"expected call/ret record, got {toks[0]!r}", no)

    unmatched = set(calls) ^ set(rets)
    if unmatched:
        which = sorted(unmatched)[0]
        side = "return" if which in calls else "call"
        raise ParseError(f"operation id {which} has no matching {side}")

    ops = []
    for op_id in calls:
        no, kind, value_tok, call_ts = calls[op_id]
        rno, ret_ts, result = rets[op_id]
        outcome: bool | None = None
        value: int | None = None
        if kind in (ADD, REMOVE, CONTAINS):
            if value_tok is None:
                raise ParseError(f"{kind} call needs a value", no)
            if result is None:
                raise ParseError(f"{kind} return needs a result", rno)
            outcome = _parse_outcome(kind, result, rno)
            value = interner.resolve(value_tok)
        elif kind == PUSH:
            if value_tok is None:
                raise ParseError("push call needs a value", no)
            value = interner.resolve(value_tok)
        elif kind == POP:
            if result == "empty":
                kind = POP_EMPTY
            elif value_tok is not None:
                value = interner.resolve(value_tok)
            elif result is not None:
                value = interner.resolve(result)
            else:
                raise ParseError(f"pop id {op_id} carries no value (call or ret)", rno)
        _check_kind(adt, kind, outcome, no)
        if call_ts >= ret_ts:
            raise ParseError(f"call {call_ts} not before return {ret_ts} (id {op_id})", rno)
        ops.append(Operation(op_id, Event(kind, value, outcome), call_ts, ret_ts))
    return ops


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _surface_kind(adt: str, kind: str) -> str:
    if adt == "queue":
        return {"push": "enq", "pop": "deq"}[kind]
    return kind


def _outcome_token(kind: str, outcome: bool) -> str:
    if kind == CONTAINS:
        return "true" if outcome else "false"
    return "ok" if outcome else "fail"


def serialize_history(h: History, fmt: str = "ops") -> str:
    """Render a history in either file format.

    The operation format is positional: ids are re-derived from line order
    on parse, so round-trips are exact for call-ordered ids (all histories
    this toolkit produces).  The event format preserves ids verbatim.
    """
    lines = [f"adt {h.adt}"]
    if fmt == "ops":
        for op in h.ops:
            kind = _surface_kind(h.adt, op.event.kind)
            if op.event.kind == POP_EMPTY:
                lines.append(f"popempty {op.call} {op.ret}")
            elif op.event.outcome is None:
                lines.append(f"{kind} {op.event.value} {op.call} {op.ret}")
            else:
                token = _outcome_token(op.event.kind, op.event.outcome)
                lines.append(f"{kind} {op.event.value} {op.call} {op.ret} {token}")
    elif fmt == "events":
        endpoints: list[tuple[int, str]] = []
        for op in h.ops:
            ev = op.event
            kind = _surface_kind(h.adt, ev.kind)
            if ev.kind == POP_EMPTY:
                endpoints.append((op.call, f"call {op.id} popempty {op.call}"))
                endpoints.append((op.ret, f"ret {op.id} {op.ret}"))
            elif ev.kind == POP:
                endpoints.append((op.call, f"call {op.id} {kind} {op.call}"))
                endpoints.append((op.ret, f"ret {op.id} {op.ret} {ev.value}"))
            elif ev.kind == PUSH:
                endpoints.append((op.call, f"call {op.id} {kind} {ev.value} {op.call}"))
                endpoints.append((op.ret, f"ret {op.id} {op.ret}"))
            else:
                token = _outcome_token(ev.kind, ev.outcome)
                endpoints.append((op.call, f"call {op.id} {kind} {ev.value} {op.call}"))
                endpoints.append((op.ret, f"ret {op.id} {op.ret} {token}"))
        endpoints.sort(key=lambda e: e[0])
        lines.extend(line for _, line in endpoints)
    else:
        raise HistoryError(f"unknown format {fmt!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def validate(h: History, assume_differentiated: bool = False) -> list[Violation]:
    """Report invariant violations; an empty list means the history is valid.

    Structural violations (duplicate timestamps or ids, call >= return,
    kinds illegal for the adt) make the input unusable.  For stack and
    queue histories, value-matching problems (a value popped more often
    than pushed) are also reported; monitors treat those as semantic
    unlinearizability rather than as malformed input.  Value reuse is only
    reported when assume_differentiated is set, since differentiation
    resolves it.
    """
    out = _structural_violations(h)
    if h.adt in ("stack", "queue"):
        out.extend(Violation("unmatched-pop", value) for value in unmatched_pops(h))
        if assume_differentiated:
            seen = Counter((op.event.kind, op.event.value) for op in h.ops
                           if op.event.kind in (PUSH, POP))
            for value in sorted({v for (_, v), n in seen.items() if n > 1}):
                if (PUSH, value) in seen:
                    out.append(Violation("duplicate-value", value))
    return out


def _structural_violations(h: History) -> list[Violation]:
    out: list[Violation] = []
    seen_ts: dict[int, int] = {}
    seen_ids: set[int] = set()
    for op in h.ops:
        if op.call >= op.ret:
            out.append(Violation("call-not-before-return", op.id))
        for ts in (op.call, op.ret):
            if ts in seen_ts:
                out.append(Violation("duplicate-timestamp", ts))
            seen_ts[ts] = op.id
        if op.id in seen_ids:
            out.append(Violation("duplicate-operation-id", op.id))
        seen_ids.add(op.id)
        ev = op.event
        if ev.kind not in _KINDS_BY_ADT[h.adt]:
            out.append(Violation("illegal-event", ev.kind))
        elif h.adt == "multiset" and ev.outcome is False:
            out.append(Violation("illegal-event", f"{ev.kind} fail"))
    return out


def unmatched_pops(h: History) -> list[int]:
    """The values popped more often than pushed, sorted."""
    balance: dict[int, int] = {}
    for op in h.ops:
        if op.event.kind == PUSH:
            balance[op.event.value] = balance.get(op.event.value, 0) + 1
        elif op.event.kind == POP:
            balance[op.event.value] = balance.get(op.event.value, 0) - 1
    return sorted(v for v, n in balance.items() if n < 0)


# ---------------------------------------------------------------------------
# Preprocessing transforms
# ---------------------------------------------------------------------------

def _max_timestamp(h: History) -> int:
    return max((op.ret for op in h.ops), default=0)


def complete_history(h: History) -> History:
    """Append pairwise-concurrent pops at the end for every unmatched push.

    With M the maximum timestamp and k unmatched values, the i-th appended
    pop (1-based, in push-call order) spans [M+i, M+k+i], so all appended
    pops overlap each other and follow every existing operation.
    """
    if h.adt not in ("stack", "queue"):
        raise HistoryError("completion is defined for stack and queue histories")
    counts: dict[int, int] = {}
    order: list[int] = []
    for op in h.ops:
        v = op.event.value
        if op.event.kind == PUSH:
            if v not in counts:
                order.append(v)
                counts[v] = 0
            counts[v] += 1
        elif op.event.kind == POP:
            # Unmatched pops go negative here; validate/monitors flag them.
            counts[v] = counts.get(v, 0) - 1
    missing = [v for v in order for _ in range(max(counts.get(v, 0), 0))]
    if not missing:
        return h
    m = _max_timestamp(h)
    k = len(missing)
    next_id = max((op.id for op in h.ops), default=-1) + 1
    new_ops = list(h.ops)
    for i, v in enumerate(missing, start=1):
        new_ops.append(Operation(next_id, Event(POP, v), m + i, m + k + i))
        next_id += 1
    return History(h.adt, tuple(new_ops))


def remove_overlapping_pairs(h: History) -> tuple[History, tuple[int, ...]]:
    """Drop values whose push and pop intervals intersect.

    Such a pair linearizes adjacently at any point of the overlap, so it
    never constrains the rest of the history.  Returns the reduced history
    together with the values whose pop strictly precedes its push; any such
    value makes the history immediately unlinearizable.
    """
    push_ops: dict[int, Operation] = {}
    pop_ops: dict[int, Operation] = {}
    for op in h.ops:
        if op.event.kind == PUSH:
            push_ops[op.event.value] = op
        elif op.event.kind == POP:
            pop_ops[op.event.value] = op
    drop: set[int] = set()
    popped_first: list[int] = []
    for v, pop_op in pop_ops.items():
        push_op = push_ops.get(v)
        if push_op is None:
            continue
        if pop_op.ret < push_op.call:
            popped_first.append(v)
        elif push_op.interval.intersects(pop_op.interval):
            drop.add(v)
    if drop:
        kept = tuple(op for op in h.ops
                     if op.event.kind == POP_EMPTY or op.event.value not in drop)
        h = History(h.adt, kept)
    return h, tuple(sorted(popped_first))


_FRESH_BASE = 10


def differentiate(h: History) -> tuple[History, dict[int, int]]:
    """Rewrite reused values to fresh ones, pairing pushes and pops by rank.

    The j-th pop of a value (in call order) is paired with its j-th push.
    Fresh values are consecutive integers from a fixed base; the returned
    map sends each fresh value back to the original one, so diagnostics can
    be reported in the caller's vocabulary.
    """
    if h.adt not in ("stack", "queue"):
        raise HistoryError("differentiation applies to stack and queue histories")
    fresh_to_orig: dict[int, int] = {}
    push_fresh: dict[int, list[int]] = {}  # value -> fresh ids, push-call order
    next_fresh = _FRESH_BASE
    assigned: dict[int, int] = {}  # op id -> fresh value
    for op in h.ops:  # already sorted by call timestamp
        if op.event.kind == PUSH:
            fresh = next_fresh
            next_fresh += 1
            fresh_to_orig[fresh] = op.event.value
            push_fresh.setdefault(op.event.value, []).append(fresh)
            assigned[op.id] = fresh
    ranks: dict[int, int] = {}
    for op in h.ops:
        if op.event.kind == POP:
            v = op.event.value
            j = ranks.get(v, 0)
            ranks[v] = j + 1
            if j >= len(push_fresh.get(v, ())):
                raise HistoryError(f"more pops than pushes of value {v}")
            assigned[op.id] = push_fresh[v][j]
    new_ops = []
    for op in h.ops:
        if op.id in assigned:
            new_ops.append(Operation(op.id, Event(op.event.kind, assigned[op.id]),
                                     op.call, op.ret))
        else:
            new_ops.append(op)
    return History(h.adt, tuple(new_ops)), fresh_to_orig


@dataclass(frozen=True, slots=True)
class ValueTable:
    """Per-value columns of a stack or queue history, one row per push.

    Row x is the x-th push in call order, which differentiate names
    _FRESH_BASE + x, with its rank-paired pop or the pop complete_history
    appends for it; `value` holds the original values.  `pop_empties`
    lists the (call, return) pairs of pop-empty operations in call order.
    """

    value: list[int]
    push_call: list[int]
    push_ret: list[int]
    pop_call: list[int]
    pop_ret: list[int]
    pop_empties: list[tuple[int, int]]


def value_table(h: History, counter: WorkCounter | None = None) -> ValueTable | Verdict:
    """Preprocess a stack or queue history in one pass over its operations.

    Gives the rows of op_to_val(complete_history(differentiate(h)[0])), or
    the verdict for the least value popped more often than pushed, else
    for the first row popped before it was pushed.  Raises HistoryError
    unless every call precedes its return and all timestamps are distinct,
    which the monitors' verdicts assume.  Charges one unit per operation.
    """
    if h.adt not in ("stack", "queue"):
        raise HistoryError("value tables are defined for stack and queue histories")
    value, push_call, push_ret, pop_empties = [], [], [], []
    rows: dict[int, list[int]] = {}  # value -> its rows
    pops: list[Operation] = []
    for op in h.ops:
        if op.call >= op.ret:
            raise HistoryError(f"operation {op.id}: call {op.call} not before return {op.ret}")
        kind = op.event.kind
        if kind == PUSH:
            rows.setdefault(op.event.value, []).append(len(value))
            value.append(op.event.value)
            push_call.append(op.call)
            push_ret.append(op.ret)
        elif kind == POP:
            pops.append(op)
        elif kind == POP_EMPTY and h.adt == "stack":
            pop_empties.append((op.call, op.ret))
        else:
            raise HistoryError(f"event kind {kind!r} illegal for adt {h.adt!r}")
    if counter is not None:
        counter.add(len(h.ops))

    n = len(value)
    pop_call, pop_ret = [None] * n, [None] * n
    rank: dict[int, int] = {}
    unmatched = set()
    for op in pops:
        v = op.event.value
        j = rank.get(v, 0)
        rank[v] = j + 1
        mine = rows.get(v, ())
        if j < len(mine):
            pop_call[mine[j]], pop_ret[mine[j]] = op.call, op.ret
        else:
            unmatched.add(v)
    if unmatched:
        return Verdict(False, {"kind": "unmatched-pop", "value": min(unmatched)})
    missing = [x for x in range(n) if pop_call[x] is None]
    m, k = _max_timestamp(h), len(missing)
    for i, x in enumerate(missing, start=1):
        pop_call[x], pop_ret[x] = m + i, m + k + i

    stamps = set().union(push_call, push_ret, pop_call, pop_ret, *pop_empties)
    if len(stamps) != 4 * n + 2 * len(pop_empties):
        raise HistoryError("timestamps are not distinct")
    for x in range(n):
        if pop_ret[x] < push_call[x]:
            return Verdict(False, {"kind": "pop-before-push", "value": value[x]})
    return ValueTable(value, push_call, push_ret, pop_call, pop_ret, pop_empties)


def project(h: History, values: set) -> History:
    """Keep the operations whose value lies in the given set.

    Pop-empty operations are kept iff the EMPTY sentinel is a member.
    """
    kept = []
    for op in h.ops:
        if op.event.kind == POP_EMPTY:
            if EMPTY in values:
                kept.append(op)
        elif op.event.value in values:
            kept.append(op)
    return History(h.adt, tuple(kept))
