"""History data model, file formats, validation and shared preprocessing.

A history is a finite set of timed operations recorded from a concurrent
execution.  Every timestamp in a history is globally unique, so the
real-time precedence order between operations is unambiguous.  Parsed
histories hold flat records, and build `Operation`s only if asked.  The
transforms in this module (completion, overlap removal, differentiation,
projection) define the preprocessing of the stack and queue monitors,
which `value_table` performs in one pass; the transforms are its reference.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable, Iterator
from operator import attrgetter, itemgetter

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


class BoundExceeded(HistoryError):
    """Input too large for the exponential oracle."""


class _Record:
    """Fields are _fields, else the __slots__; equality and repr go by them."""

    __slots__ = ()

    def _field_values(self) -> tuple:
        names = getattr(self, "_fields", self.__slots__)
        return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values() == other._field_values()

    def __repr__(self) -> str:
        names = getattr(self, "_fields", self.__slots__)
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__name__}({fields})"


class _FrozenRecord(_Record):
    """A _Record whose fields are set once, by __init__."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class Interval(namedtuple("Interval", "left right")):
    """Closed interval [left, right]; zero-length intervals are legal."""

    __slots__ = ()

    def __new__(cls, left: int, right: int):
        if left > right:
            raise HistoryError(f"interval [{left},{right}] has left > right")
        return tuple.__new__(cls, (left, right))

    def intersects(self, other: Interval) -> bool:
        # Closed endpoints: [a,b] meets [c,d] iff a <= d and c <= b.
        return self.left <= other.right and other.left <= self.right

    def contains(self, other: Interval) -> bool:
        return self.left <= other.left and other.right <= self.right

    def as_pair(self) -> tuple[int, int]:
        return (self.left, self.right)


Event = namedtuple("Event", "kind value outcome", defaults=(None, None))
Event.__doc__ = """An untimed operation payload.

    kind:    push | pop | popempty | add | remove | contains
    value:   the affected value (None for popempty)
    outcome: add/remove success (True=ok), or the contains answer
    """


class Operation(namedtuple("Operation", "id event call ret")):
    __slots__ = ()

    @property
    def interval(self) -> Interval:
        return Interval(self.call, self.ret)


# One call or return event of a set or multiset history, the shape that
# parse_event_stream yields, sets.history_events builds and the set and
# multiset monitors read: (timestamp, is_call, kind, value, outcome, id, call).
# `call` is the operation's call timestamp.  A streamed call has outcome
# None, since its answer comes with its return.
StreamEvent = tuple[int, bool, str, int | str, bool | None, int, int]


class History(_FrozenRecord):
    """An ADT-tagged set of operations, kept sorted by call timestamp, as
    Operations (`ops`) and as flat (call, ret, kind, value, outcome, id)
    tuples (`records`); either view is built from the other on first use."""

    __slots__ = ("adt", "_ops", "_records")
    _fields = ("adt", "ops")

    def __init__(self, adt: str, ops: Iterable[Operation]) -> None:
        if adt not in ADTS:
            raise HistoryError(f"unknown adt {adt!r}")
        object.__setattr__(self, "adt", adt)
        object.__setattr__(self, "_ops", tuple(sorted(ops, key=attrgetter("call"))))
        object.__setattr__(self, "_records", None)

    @classmethod
    def _from_records(cls, adt: str, records: Iterable[tuple]) -> History:
        h = cls(adt, ())
        object.__setattr__(h, "_ops", None)
        object.__setattr__(h, "_records", tuple(sorted(records, key=itemgetter(0))))
        return h

    @property
    def ops(self) -> tuple[Operation, ...]:
        if self._ops is None:
            object.__setattr__(self, "_ops", tuple(
                Operation(op_id, Event(kind, value, outcome), call, ret)
                for call, ret, kind, value, outcome, op_id in self._records))
        return self._ops

    @property
    def records(self) -> tuple[tuple, ...]:
        if self._records is None:
            object.__setattr__(self, "_records", tuple(
                (call, ret, kind, value, outcome, op_id)
                for op_id, (kind, value, outcome), call, ret in self._ops))
        return self._records

    def __len__(self) -> int:
        return len(self._ops if self._records is None else self._records)

    def __iter__(self):
        return iter(self.ops)


class AttributedValue(namedtuple("AttributedValue",
                                 "value push_call push_ret pop_call pop_ret")):
    """A value together with the four timestamps of its push and pop."""

    __slots__ = ()

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


class Verdict(_FrozenRecord):
    """Monitor answer; witness is a JSON-ready diagnostic when unlinearizable."""

    __slots__ = ("linearizable", "witness")

    def __init__(self, linearizable: bool, witness: dict | None = None) -> None:
        object.__setattr__(self, "linearizable", linearizable)
        object.__setattr__(self, "witness", witness)

    def __bool__(self) -> bool:
        return self.linearizable


class Violation(namedtuple("Violation", "code detail", defaults=(None,))):
    __slots__ = ()

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
#
# The record loops test a token with `tok.isdigit() and tok.isascii()` and
# call int() on it; only a token that fails goes to a helper.  isascii must
# stay: '²' passes isdigit but int() rejects it, and int('٥') is 5.

_OUTCOMES = {(CONTAINS, "true"): True, (CONTAINS, "false"): False,
             (ADD, "ok"): True, (ADD, "fail"): False,
             (REMOVE, "ok"): True, (REMOVE, "fail"): False}
_RESULT_WORDS = frozenset(("ok", "fail", "true", "false", "empty"))


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


def _value(token: str, symbols: dict[str, int]) -> int | str:
    """A value token that is not plain ASCII digits: a signed literal, or a
    symbolic token, which keeps its first-seen index in symbols."""
    if _is_int(token):
        return int(token)
    symbols.setdefault(token, len(symbols))
    return token


def _number_symbols(records: list[tuple], symbols: dict[str, int],
                    values: list) -> list[tuple]:
    """Give symbolic values max literal + 1 + their first-seen index."""
    base = max([-1] + [v for v in values if type(v) is int]) + 1
    return [rec[:3] + (base + symbols[rec[3]],) + rec[4:] if type(rec[3]) is str else rec
            for rec in records]


def _parse_int(token: str, what: str, lineno: int) -> int:
    if not _is_int(token):
        raise ParseError(f"bad {what} {token!r}", lineno)
    return int(token)


def _parse_ts(token: str, lineno: int) -> int:
    ts = _parse_int(token, "timestamp", lineno)
    if ts < 0:
        raise ParseError(f"negative timestamp {token!r}", lineno)
    return ts


def _bad_outcome(kind: str, token: str, lineno: int) -> None:
    if kind == CONTAINS:
        raise ParseError(f"contains answer must be true/false, got {token!r}", lineno)
    raise ParseError(f"{kind} outcome must be ok/fail, got {token!r}", lineno)


def _check_kind(adt: str, kind: str, outcome: bool | None, lineno: int | None) -> None:
    if kind not in _KINDS_BY_ADT[adt]:
        raise ParseError(f"event kind {kind!r} illegal for adt {adt!r}", lineno)
    if adt == "multiset" and outcome is False:
        raise ParseError("failing operations are not defined for multisets", lineno)


def not_utf8(exc: UnicodeDecodeError, lines_read: int) -> ParseError:
    """The error for a non-UTF-8 byte met after lines_read lines of a stream,
    which decodes a chunk at a time: the chunk's lines before the byte count."""
    return ParseError("input is not UTF-8", lines_read + 1 + exc.object[:exc.start].count(b"\n"))


def _read_header(lines: Iterable[str], adt_override: str | None) -> tuple[str, int]:
    """The effective adt, and the line number of the header: the first line
    that is neither blank nor a comment."""
    no = 0
    try:
        for no, raw in enumerate(lines, 1):
            header = _strip(raw)
            if header:
                break
        else:
            raise ParseError("empty input: missing adt header")
    except UnicodeDecodeError as exc:
        raise not_utf8(exc, no) from None
    parts = header.split()
    if len(parts) != 2 or parts[0] != "adt" or parts[1] not in ADTS:
        raise ParseError(f"bad header {header!r}; expected 'adt <stack|queue|set|multiset>'", no)
    if adt_override is not None and adt_override not in ADTS:
        raise ParseError(f"unknown adt override {adt_override!r}")
    return adt_override or parts[1], no


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
    # Lines end at \n, \r\n or \r, as in a stream's universal-newline
    # reader; str.splitlines would also end them at \x0b, \x1c, \u2028...
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    adt, no = _read_header(lines, adt_override)
    records = lines[no:]
    if fmt == "auto":
        first = next((toks[0] for toks in map(str.split, map(_strip, records)) if toks), None)
        fmt = "events" if first in ("call", "ret") else "ops"
    if fmt == "ops":
        records = _parse_ops_format(adt, records, no + 1)
    elif fmt == "events":
        records = _parse_events_format(adt, records, no + 1)
    else:
        raise ParseError(f"unknown format {fmt!r}")

    # The record parsers reject everything else _structural_violations names.
    h = History._from_records(adt, records)
    stamps = set(map(itemgetter(0), h.records))
    stamps.update(map(itemgetter(1), h.records))
    if len(stamps) != 2 * len(h.records):
        bad = _structural_violations(h)[0]
        raise ParseError(f"invalid history: {bad.code} ({bad.detail})")
    return h


def _parse_ops_format(adt: str, lines: list[str], first: int) -> list[tuple]:
    legal = _KINDS_BY_ADT[adt]
    symbols: dict[str, int] = {}
    ops: list[tuple] = []
    for no, line in enumerate(lines, first):
        if "#" in line:
            line = line[:line.find("#")]
        toks = line.split()
        if not toks:
            continue
        kind = _KIND_ALIASES.get(toks[0])
        if kind is None:
            raise ParseError(f"unknown operation {toks[0]!r}", no)
        n = len(toks)
        value = outcome = None
        if kind == POP_EMPTY:
            if n != 3:
                raise ParseError("expected: popempty <call> <ret>", no)
            call, ret = toks[1], toks[2]
        else:
            if kind == PUSH or kind == POP:
                if n != 4:
                    raise ParseError(f"expected: {toks[0]} <value> <call> <ret>", no)
            elif n != 5:
                raise ParseError(f"expected: {toks[0]} <value> <call> <ret> <result>", no)
            value, call, ret = toks[1], toks[2], toks[3]
            value = int(value) if value.isdigit() and value.isascii() else _value(value, symbols)
        call = int(call) if call.isdigit() and call.isascii() else _parse_ts(call, no)
        ret = int(ret) if ret.isdigit() and ret.isascii() else _parse_ts(ret, no)
        if n == 5:
            outcome = _OUTCOMES.get((kind, toks[4]))
            if outcome is None:
                _bad_outcome(kind, toks[4], no)
        if kind not in legal or outcome is False:
            _check_kind(adt, kind, outcome, no)
        if call >= ret:
            raise ParseError(f"call {call} not before return {ret}", no)
        ops.append((call, ret, kind, value, outcome, len(ops)))
    if symbols:
        ops = _number_symbols(ops, symbols, [rec[3] for rec in ops])
    return ops


def _event_records(lines: Iterable[str], first: int,
                   symbols: dict[str, int]) -> Iterator[tuple]:
    """Check event-format records one at a time, for the file and the
    stream parser alike.

    Yields (line, id, kind, value, timestamp, result).  A call has result
    None; a return has kind None, and its result token, unless it is a
    result word, read as a value: a pop's value may come with its return.
    """
    no = first - 1
    try:
        for no, line in enumerate(lines, first):
            if "#" in line:
                line = line[:line.find("#")]
            toks = line.split()
            if not toks:
                continue
            n = len(toks)
            is_call = toks[0] == "call"
            if is_call:
                if n not in (4, 5):
                    raise ParseError("expected: call <id> <kind> [<value>] <ts>", no)
            elif toks[0] != "ret":
                raise ParseError(f"expected call/ret record, got {toks[0]!r}", no)
            elif n not in (3, 4):
                raise ParseError("expected: ret <id> <ts> [<result>]", no)
            op_id = toks[1]
            op_id = int(op_id) if op_id.isdigit() and op_id.isascii() else _parse_int(
                op_id, "operation id", no)
            if is_call:
                kind = _KIND_ALIASES.get(toks[2])
                if kind is None:
                    raise ParseError(f"unknown event kind {toks[2]!r}", no)
                value = None
                if n == 5:
                    value = toks[3]
                    value = int(value) if value.isdigit() and value.isascii() else _value(value, symbols)
                elif kind != POP and kind != POP_EMPTY:
                    raise ParseError(f"{kind} call needs a value", no)
                ts = toks[-1]
                ts = int(ts) if ts.isdigit() and ts.isascii() else _parse_ts(ts, no)
                yield no, op_id, kind, value, ts, None
            else:
                ts = toks[2]
                ts = int(ts) if ts.isdigit() and ts.isascii() else _parse_ts(ts, no)
                result = value = None
                if n == 4:
                    result = toks[3]
                    if result not in _RESULT_WORDS:
                        value = int(result) if result.isdigit() and result.isascii() else _value(
                            result, symbols)
                yield no, op_id, None, value, ts, result
    except UnicodeDecodeError as exc:
        raise not_utf8(exc, no) from None


def _event_payload(adt: str, call: tuple, ret: tuple) -> tuple:
    """The (kind, value, outcome) of a call record and its return record,
    checked against each other and the adt."""
    no, op_id, kind, value, call_ts, _ = call
    rno, _, _, ret_value, ret_ts, result = ret
    outcome = None
    if kind == POP:
        if result == "empty":
            kind, value = POP_EMPTY, None
        elif value is None:
            value = ret_value
            if value is None:
                raise ParseError(f"pop id {op_id} carries no value (call or ret)", rno)
    elif kind == POP_EMPTY:
        value = None
    elif kind != PUSH:
        if result is None:
            raise ParseError(f"{kind} return needs a result", rno)
        outcome = _OUTCOMES.get((kind, result))
        if outcome is None:
            _bad_outcome(kind, result, rno)
    if kind not in _KINDS_BY_ADT[adt] or outcome is False:
        _check_kind(adt, kind, outcome, no)
    if call_ts >= ret_ts:
        raise ParseError(f"call {call_ts} not before return {ret_ts} (id {op_id})", rno)
    return kind, value, outcome


def _parse_events_format(adt: str, lines: list[str], first: int) -> list[tuple]:
    symbols: dict[str, int] = {}
    calls: dict[int, tuple] = {}
    rets: dict[int, tuple] = {}
    for rec in _event_records(lines, first, symbols):
        side = calls if rec[2] is not None else rets
        if rec[1] in side:
            which = "call" if side is calls else "return"
            raise ParseError(f"duplicate {which} for id {rec[1]}", rec[0])
        side[rec[1]] = rec

    unmatched = calls.keys() ^ rets.keys()
    if unmatched:
        which = min(unmatched)
        side = "return" if which in calls else "call"
        raise ParseError(f"operation id {which} has no matching {side}")

    ops = [(call[4], rets[op_id][4], *_event_payload(adt, call, rets[op_id]), op_id)
           for op_id, call in calls.items()]
    if symbols:
        values = [rec[3] for recs in (calls, rets) for rec in recs.values()]
        ops = _number_symbols(ops, symbols, values)
    return ops


def parse_event_stream(lines: Iterable[str], adt_override: str | None = None
                       ) -> tuple[str, Iterator[StreamEvent]]:
    """Read the header of an event-format stream; give its adt and its events.

    The events are parsed lazily, one StreamEvent per record, with the file
    parser's record checks, in a stream whose timestamps must increase and
    whose operation ids are never reused.  A call carries no outcome and
    its own timestamp as `call`; its return carries the operation's kind,
    value and outcome as the file parser reads them.  Failing adds and
    removes are refused: they need the offline normalization.  Symbolic
    value tokens stay strings, because a stream cannot know its largest
    integer literal ahead of time.
    """
    lines = iter(lines)
    adt, no = _read_header(lines, adt_override)
    return adt, _stream_events(adt, lines, no + 1)


def _stream_events(adt: str, lines: Iterator[str], first: int) -> Iterator[StreamEvent]:
    legal = _KINDS_BY_ADT[adt]
    open_calls: dict[int, tuple] = {}
    # Called ids: the run [low, high) from the first id, then seen_ids.
    low = high = 0
    seen_ids: set[int] = set()
    last_ts = -1
    for rec in _event_records(lines, first, {}):
        no, op_id, kind, value, ts, _ = rec
        if ts <= last_ts:
            raise ParseError(f"stream timestamps must increase ({ts})", no)
        last_ts = ts
        if kind is not None:
            if kind not in legal:
                _check_kind(adt, kind, None, no)
            if low <= op_id < high or op_id in seen_ids:
                raise ParseError(f"duplicate call for id {op_id}", no)
            if low == high:
                low = high = op_id
            seen_ids.add(op_id)
            while high in seen_ids:
                seen_ids.remove(high)
                high += 1
            open_calls[op_id] = rec
            yield ts, True, kind, value, None, op_id, ts
        else:
            call = open_calls.pop(op_id, None)
            if call is None:
                seen = low <= op_id < high or op_id in seen_ids
                which = "duplicate return" if seen else "return without call"
                raise ParseError(f"{which} for id {op_id}", no)
            kind, value, outcome = _event_payload(adt, call, rec)
            if outcome is False and kind != CONTAINS:
                raise ParseError("failing operations need offline checking (normalization)", no)
            yield ts, False, kind, value, outcome, op_id, call[4]
    if open_calls:
        first_open = next(iter(open_calls.values()))[0]
        raise ParseError(f"stream ended with {len(open_calls)} unreturned calls", first_open)


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
    for call, ret, kind, _, outcome, op_id in h.records:
        if call >= ret:
            out.append(Violation("call-not-before-return", op_id))
        for ts in (call, ret):
            if ts in seen_ts:
                out.append(Violation("duplicate-timestamp", ts))
            seen_ts[ts] = op_id
        if op_id in seen_ids:
            out.append(Violation("duplicate-operation-id", op_id))
        seen_ids.add(op_id)
        if kind not in _KINDS_BY_ADT[h.adt]:
            out.append(Violation("illegal-event", kind))
        elif h.adt == "multiset" and outcome is False:
            out.append(Violation("illegal-event", f"{kind} fail"))
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
    return max(map(itemgetter(1), h.records), default=0)


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


ValueTable = namedtuple("ValueTable", "value push_call push_ret pop_call pop_ret pop_empties")
ValueTable.__doc__ = """Per-value columns of a stack or queue history, one row per push.

    Row x is the x-th push in call order, which differentiate names
    _FRESH_BASE + x, with its rank-paired pop or the pop complete_history
    appends for it; `value` holds the original values.  `pop_empties`
    lists the (call, return) pairs of pop-empty operations in call order.
    """


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
    pops: list[tuple[int, int, int]] = []  # (value, call, return)
    for call, ret, kind, v, _, op_id in h.records:
        if call >= ret:
            raise HistoryError(f"operation {op_id}: call {call} not before return {ret}")
        if kind == PUSH:
            rows.setdefault(v, []).append(len(value))
            value.append(v)
            push_call.append(call)
            push_ret.append(ret)
        elif kind == POP:
            pops.append((v, call, ret))
        elif kind == POP_EMPTY and h.adt == "stack":
            pop_empties.append((call, ret))
        else:
            raise HistoryError(f"event kind {kind!r} illegal for adt {h.adt!r}")
    if counter is not None:
        counter.add(len(h.records))

    n = len(value)
    pop_call, pop_ret = [None] * n, [None] * n
    rank: dict[int, int] = {}
    unmatched = set()
    for v, call, ret in pops:
        j = rank.get(v, 0)
        rank[v] = j + 1
        mine = rows.get(v, ())
        if j < len(mine):
            pop_call[mine[j]], pop_ret[mine[j]] = call, ret
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
