"""History data model, file formats and shared preprocessing.

A history is a finite set of timed operations recorded from a concurrent
execution.  Every timestamp in a history is globally unique, so the
real-time precedence order between operations is unambiguous.  Parsed
histories hold six parallel columns, one row per operation in call order,
and build `Operation`s only if asked.  The columns hold each value as
written (see `_value`), one object per distinct value: a value read again
is the object the parse read first.
The parser reads its input once and holds, besides the columns and that
table of values, only the operations whose call or return it has not
read yet.  Operation-format files are read in blocks, each
line split once: a block of plain records, whatever their values, is
checked and converted a column at a time, and any other block goes
through the line loop, the one reader of faults.  Event files and event
streams are read by module `events`, which `parse_history` loads only when
a file's first record is a `call` or `ret`.
`value_table` preprocesses a stack or queue history for its monitor in one
pass, holding besides its rows only the pushes and pops still unpaired.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator
from itertools import chain, compress, count, islice, repeat
from operator import attrgetter, eq, itemgetter, le, lt

ADTS = ("stack", "queue", "set", "multiset")

PUSH = "push"
POP = "pop"
POP_EMPTY = "popempty"
ADD = "add"
REMOVE = "remove"
CONTAINS = "contains"

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

class HistoryError(ValueError):
    """Raised for malformed histories or illegal programmatic use."""


class ParseError(HistoryError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{message}{where}")


class BoundExceeded(HistoryError):
    """Input too large for the exponential oracle."""


Event = namedtuple("Event", "kind value outcome", defaults=(None, None))
Event.__doc__ = """An untimed operation payload.

    kind:    push | pop | popempty | add | remove | contains
    value:   the affected value (None for popempty)
    outcome: add/remove success (True=ok), or the contains answer
    """


Operation = namedtuple("Operation", "id event call ret")


# One call or return event of a set or multiset history, the shape that
# the event-record loop (events._events, behind parse_event_stream) and
# sets.history_events yield and the set and multiset monitors read:
# (timestamp, is_call, kind, value, outcome, id, call).
# `call` is the operation's call timestamp.  A streamed call has outcome
# None, since its answer comes with its return.
StreamEvent = tuple[int, bool, str, int | str, bool | None, int, int]


Columns = namedtuple("Columns", "call ret kind value outcome id")
Columns.__doc__ = """A history's operations as six parallel columns, in call order.

    Row r is one operation: call[r], ret[r], kind[r], value[r], outcome[r]
    and id[r].  In an operation-format file an operation's id is its
    record's position, from 0, among the records, so the id column is a
    `range` when the file was in call order already.
    """


class History:
    """An ADT-tagged set of operations sorted by call timestamp, as Operations
    (`ops`) and as parallel columns (`columns`).  Parsed and generated ones
    hold columns, `History(adt, ops)` its ops; the other view is built, and
    columns checked (see `columns`), on first use, so their readers check
    nothing.  A history is immutable; it compares, hashes and prints by
    `(adt, ops)`, whichever view it holds, and pickles as its columns."""

    __slots__ = ("adt", "_ops", "_cols")

    def __init__(self, adt: str, ops: Iterable[Operation]) -> None:
        if adt not in ADTS:
            raise HistoryError(f"unknown adt {adt!r}")
        object.__setattr__(self, "adt", adt)
        object.__setattr__(self, "_ops", tuple(sorted(ops, key=attrgetter("call"))))
        object.__setattr__(self, "_cols", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.adt == other.adt and self.ops == other.ops

    def __hash__(self) -> int:
        return hash((self.adt, self.ops))

    def __repr__(self) -> str:
        return f"History(adt={self.adt!r}, ops={self.ops!r})"

    def __reduce__(self):
        return History._from_columns, (self.adt, self.columns)

    @classmethod
    def _from_columns(cls, adt: str, cols: Columns) -> History:
        h = cls(adt, ())
        object.__setattr__(h, "_ops", None)
        object.__setattr__(h, "_cols", cols)
        return h

    @property
    def ops(self) -> tuple[Operation, ...]:
        if self._ops is None:
            object.__setattr__(self, "_ops", tuple(
                Operation(op_id, Event(kind, value, outcome), call, ret)
                for call, ret, kind, value, outcome, op_id in zip(*self._cols)))
        return self._ops

    @property
    def columns(self) -> Columns:
        """The columns, which refuse with HistoryError, as the parser does, a
        call not before its return, a kind the data type lacks, a failing
        multiset operation, an add, remove or contains whose outcome is not
        True or False, an outcome on another kind, a missing value, a value
        on a pop-empty, a shared timestamp or a reused id."""
        if self._cols is None:
            adt, legal = self.adt, _KINDS_BY_ADT[self.adt]
            cols = Columns([], [], [], [], [], [])
            for op_id, (kind, value, outcome), call, ret in self._ops:
                if call >= ret:
                    raise HistoryError(f"operation {op_id}: call {call} not before return {ret}")
                if kind not in legal or outcome is False:
                    _check_kind(adt, kind, outcome, None)
                if type(outcome) is not _OUTCOME_TYPE[kind]:
                    raise HistoryError(f"operation {op_id}: {kind} outcome {outcome!r}")
                if (value is None) is not (kind == POP_EMPTY):
                    raise HistoryError(f"operation {op_id}: {kind} value {value!r}")
                cols.call.append(call)
                cols.ret.append(ret)
                cols.kind.append(kind)
                cols.value.append(value)
                cols.outcome.append(outcome)
                cols.id.append(op_id)
            shared = _duplicate_stamp(cols)
            if shared is not None:
                raise HistoryError(f"timestamps are not distinct: {shared} is shared")
            if len(set(cols.id)) < len(cols.id):
                raise HistoryError("operation ids are not distinct")
            object.__setattr__(self, "_cols", cols)
        return self._cols

    def __len__(self) -> int:
        return len(self._ops if self._cols is None else self._cols.call)

    def __iter__(self):
        return iter(self.ops)


class Verdict(namedtuple("Verdict", "linearizable witness", defaults=(None,))):
    """Monitor answer; witness is a JSON-ready diagnostic when unlinearizable.
    A verdict is true exactly when the history is linearizable."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.linearizable


class WorkCounter:
    """Instrumentation counter for complexity-envelope measurements.

    `count` is the work of every step a monitor takes.  The stack monitor
    also adds its recursion's `rounds`, the `extremes` (extreme values) it
    peels and its `splits` at an internal D-segment.
    """

    __slots__ = ("count", "rounds", "extremes", "splits")

    def __init__(self) -> None:
        self.count = self.rounds = self.extremes = self.splits = 0

    def add(self, n: int = 1) -> None:
        self.count += n


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------
#
# The record loops call int() on a token of ASCII digits ('²' passes
# isdigit, and int('٥') is 5), and the event loop on any ASCII id or
# timestamp without '_', which int() refuses exactly when _parse_int does.
# int() also refuses more digits than sys.get_int_max_str_digits() allows;
# each reader names such a token in its fault path, through _parse_int.

_UPDATES = {"ok": True, "fail": False}  # result word -> outcome, for add and remove
_OUTCOMES = {ADD: _UPDATES, REMOVE: _UPDATES, CONTAINS: {"true": True, "false": False}}  # by kind
_OUTCOME_TYPE = {kind: bool if kind in _OUTCOMES else type(None) for kind in _KIND_ALIASES.values()}
_BLOCK = 1024  # lines per block of an operation-format file; larger blocks cost memory


def _is_int(token: str) -> bool:
    """ASCII integer literal with optional sign; str.isdigit alone also
    accepts digits such as '²' that int() rejects."""
    if token and (token[0] in "+-"):
        token = token[1:]
    return token.isascii() and token.isdigit()


def _value(token: str) -> int | str:
    """A value token as written: the int of an ASCII integer literal, signed
    or not, and any other token itself."""
    return int(token) if _is_int(token) else token


def _in_call_order(cols: list) -> Columns:
    """The parsed columns, rows in input order, as Columns in call order."""
    call = cols[0]
    if not all(map(le, call, islice(call, 1, None))):
        order = sorted(range(len(call)), key=call.__getitem__)
        for i, col in enumerate(cols):
            cols[i] = list(map(col.__getitem__, order))
    return Columns(*cols)


def _shown(token: str) -> str:
    """A token as an error message quotes it: its repr, of the first 20
    characters and '...' if it is longer, so that no input makes a long
    message."""
    shown = repr(token[:20])
    return shown if len(token) <= 20 else f"{shown[:-1]}...{shown[-1]}"


def _parse_int(token: str, what: str, lineno: int) -> int:
    if not _is_int(token):
        raise ParseError(f"bad {what} {_shown(token)}", lineno)
    try:
        return int(token)
    except ValueError:  # too many digits
        raise ParseError(f"{what} {_shown(token)} has {len(token.lstrip('+-'))} digits, "
                         f"more than {sys.get_int_max_str_digits()}", lineno) from None


def _parse_ts(token: str, lineno: int) -> int:
    ts = _parse_int(token, "timestamp", lineno)
    if ts < 0:
        raise ParseError(f"negative timestamp {_shown(token)}", lineno)
    return ts


def _bad_outcome(kind: str, token: str, lineno: int) -> None:
    if kind == CONTAINS:
        raise ParseError(f"contains answer must be true/false, got {_shown(token)}", lineno)
    raise ParseError(f"{kind} outcome must be ok/fail, got {_shown(token)}", lineno)


def _check_kind(adt: str, kind: str, outcome: bool | None, lineno: int | None) -> None:
    if kind not in _KINDS_BY_ADT[adt]:
        raise ParseError(f"event kind {kind!r} illegal for adt {adt!r}", lineno)
    if adt == "multiset" and outcome is False:
        raise ParseError("failing operations are not defined for multisets", lineno)


def _not_utf8(exc: UnicodeDecodeError, lines_read: int) -> ParseError:
    """The error for a non-UTF-8 byte met after lines_read lines of a file,
    which decodes a chunk at a time: the chunk's lines before the byte count."""
    return ParseError("input is not UTF-8", lines_read + 1 + exc.object[:exc.start].count(b"\n"))


def _first_line(lines: Iterator[str], no: int) -> tuple[str | None, int]:
    """The first line after line no that is neither blank nor a comment,
    stripped, and its number; None if the input ends first."""
    try:
        for no, raw in enumerate(lines, no + 1):
            line = raw.partition("#")[0].strip()
            if line:
                return line, no
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, no) from None
    return None, no


def _read_header(lines: Iterator[str]) -> tuple[str, int]:
    """The adt the header declares, and the line number of the header."""
    header, no = _first_line(lines, 0)
    if header is None:
        raise ParseError("empty input: missing adt header")
    parts = header.split()
    if len(parts) != 2 or parts[0] != "adt" or parts[1] not in ADTS:
        raise ParseError(f"bad header {_shown(header)}; "
                         "expected 'adt <stack|queue|set|multiset>'", no)
    return parts[1], no


def _lines(source: str | bytes | Iterable[str]) -> Iterable[str]:
    """The lines of a whole text, as a list, or the source itself if it is
    not a str or bytes, such as an open text file."""
    if isinstance(source, bytes):
        try:
            source = source.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(exc, 0) from None
    if isinstance(source, str):
        # Lines end at \n, \r\n or \r, as in a file's universal-newline
        # reader; str.splitlines would also end them at \x0b, \x1c, \u2028...
        if "\r" in source:
            source = source.replace("\r\n", "\n").replace("\r", "\n")
        source = source.split("\n")
    return source


def parse_history(source: str | bytes | Iterable[str]) -> History:
    """Parse a history in the operation or event file format.

    The source is the whole text, or its lines, such as an open text file
    yields them; lines are read in order, and only once.
    The first non-comment line must be ``adt <stack|queue|set|multiset>``.
    The first record names the format: a ``call`` or ``ret`` record starts
    an event-format file, any other record an operation-format file.
    Record legality is checked against the declared data type.
    """
    lines = iter(_lines(source))
    adt, no = _read_header(lines)
    first, no = _first_line(lines, no)
    if first is not None and first.split()[0] in ("call", "ret"):
        from .events import _parse_events_format as parse
    else:
        parse = _parse_ops_format
    cols = parse(adt, lines if first is None else chain((first,), lines), no)

    # The record parsers refuse every other structural fault: calls not
    # before their returns, reused ids and kinds illegal for the adt.
    shared = _duplicate_stamp(cols)
    if shared is not None:
        raise ParseError(f"invalid history: duplicate-timestamp ({shared})")
    return History._from_columns(adt, cols)


def _duplicate_stamp(cols: Columns) -> int | None:
    """The least timestamp that two calls or returns share, or None.
    Sorting takes a fifth of the memory of a set of the timestamps."""
    stamps = cols.call + cols.ret
    stamps.sort()
    return next(compress(stamps, map(eq, stamps, islice(stamps, 1, None))), None)


def _parse_ops_format(adt: str, lines: Iterator[str], first: int) -> Columns:
    """Read the lines a block at a time, each line split once: a block of
    plain records goes into the columns in bulk, any other block through
    the line loop, as if the line loop had read the whole input."""
    same = {}.setdefault  # the one object of each value read
    cols: list = [[], [], [], [], []]
    block: list[str] = []
    no = first  # the number of the block's first line
    while True:
        try:
            block.extend(islice(lines, _BLOCK))
        except UnicodeDecodeError as exc:
            # A fault in the lines read before the byte's chunk comes first.
            _ops_lines(adt, _tokens(block), no, cols, same)
            raise _not_utf8(exc, no - 1 + len(block)) from None
        rows = _tokens(block)
        if not _ops_block(adt, rows, cols, same):
            _ops_lines(adt, rows, no, cols, same)
        if len(block) < _BLOCK:
            return _in_call_order(cols + [range(len(cols[0]))])  # ids: record order
        no += _BLOCK
        block.clear()


def _tokens(lines: list[str]) -> list[list[str]]:
    """Each line's tokens, without its comment."""
    if "#" in "".join(lines):
        return [line[:line.find("#")].split() if "#" in line else line.split()
                for line in lines]
    return list(map(str.split, lines))


def _ops_block(adt: str, rows: list[list[str]], cols: list, same: Callable) -> bool:
    """Append the records of a block of plain lines, given as their tokens,
    to cols, column by column, and give True; give False, with cols and rows
    untouched, if any line is not plain.  Each value is same(v, v), the
    setdefault of the parse's table of values, of the token as _value reads
    it.

    A plain line holds no record, or one legal record with ASCII-digit
    timestamps.  Split tokens are never empty, so a column is all ASCII
    digits if its concatenation is."""
    widths = set(map(len, rows))
    if 0 in widths:  # blank and comment lines hold no record
        rows = list(filter(None, rows))
        widths.discard(0)
    width = 4 if adt in ("stack", "queue") else 5
    empties: list[int] = []
    if widths != {width}:
        if adt != "stack" or widths != {3, 4}:
            return False
        empties = list(compress(count(), map(eq, map(len, rows), repeat(3))))
        rows = rows.copy()  # the block's rows stay as split, for the line loop
        for r in empties:  # a pop-empty: a stand-in value, set to None below
            op, call, ret = rows[r]
            rows[r] = [op, "0", call, ret]
    ops, values, calls, rets, *results = zip(*rows)
    digits = "".join(calls + rets)
    if not (digits.isascii() and digits.isdigit()):
        return False
    kinds = list(map(_KIND_ALIASES.get, ops))
    kind_set = set(kinds)
    if not kind_set.issubset(_KINDS_BY_ADT[adt]):
        return False
    if (empties or POP_EMPTY in kind_set) and empties != list(
            compress(count(), map(eq, kinds, repeat(POP_EMPTY)))):
        return False
    digits = "".join(values)
    try:
        calls, rets = list(map(int, calls)), list(map(int, rets))
        values = list(map(int if digits.isascii() and digits.isdigit() else _value, values))
    except ValueError:  # too many digits: the line loop names the token
        return False
    if not all(map(lt, calls, rets)):
        return False
    values = list(map(same, values, values))
    if results:
        outcomes = list(map(dict.get, map(_OUTCOMES.__getitem__, kinds), results[0]))
        if None in outcomes or (adt == "multiset" and False in outcomes):
            return False
    else:
        outcomes = [None] * len(rows)
    for r in empties:
        values[r] = None
    for col, new in zip(cols, (calls, rets, kinds, values, outcomes)):
        col.extend(new)
    return True


def _ops_lines(adt: str, rows: Iterable[list[str]], first: int, cols: list,
               same: Callable) -> None:
    """The line loop: append the records of rows, the tokens of lines
    numbered from first, to cols, or name the first fault.  Each value is
    same(v, v), as in _ops_block."""
    legal = _KINDS_BY_ADT[adt]
    calls, rets, kinds, values, outcomes = cols
    try:
        for no, toks in enumerate(rows, first):
            if not toks:
                continue
            kind = _KIND_ALIASES.get(toks[0])
            if kind is None:
                raise ParseError(f"unknown operation {_shown(toks[0])}", no)
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
                value, call, ret = _value(toks[1]), toks[2], toks[3]
                value = same(value, value)
            call = int(call) if call.isdigit() and call.isascii() else _parse_ts(call, no)
            ret = int(ret) if ret.isdigit() and ret.isascii() else _parse_ts(ret, no)
            if n == 5:
                outcome = _OUTCOMES[kind].get(toks[4])
                if outcome is None:
                    _bad_outcome(kind, toks[4], no)
            if kind not in legal or outcome is False:
                _check_kind(adt, kind, outcome, no)
            if call >= ret:
                raise ParseError(f"call {call} not before return {ret}", no)
            calls.append(call)
            rets.append(ret)
            kinds.append(kind)
            values.append(value)
            outcomes.append(outcome)
    except ParseError:
        raise
    except ValueError:  # int() refused a value or timestamp of too many digits
        for what, token in zip(("value", "timestamp", "timestamp")[kind == POP_EMPTY:], toks[1:]):
            if _is_int(token):
                _parse_int(token, what, no)
        raise


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

# Each kind's word in a file, its result token by outcome, as the parser
# reads them, and its outcome's type; a kind without outcomes has the one
# outcome None.
_FORMS = {kind: (kind, {outcome: f" {word}" for word, outcome in _OUTCOMES[kind].items()}
                 if kind in _OUTCOMES else {None: ""}, _OUTCOME_TYPE[kind])
          for kind in _KIND_ALIASES.values()}
_QUEUE_FORMS = {**_FORMS, PUSH: ("enq", *_FORMS[PUSH][1:]), POP: ("deq", *_FORMS[POP][1:])}


def serialize_history(h: History, fmt: str = "ops") -> str:
    """Render a history in either file format.

    The operation format is positional: ids are re-derived from record
    order on parse, so round-trips are exact for call-ordered ids (all
    histories this toolkit produces).  The event format preserves ids
    verbatim.  Rows are read from the columns if the history holds them,
    else from its `ops`.  A row no file can state (an unknown kind, a value or
    outcome `History.columns` refuses, a non-int value whose str reads back
    otherwise) raises HistoryError; other faults are written as they are.
    """
    if fmt not in ("ops", "events"):
        raise HistoryError(f"unknown format {fmt!r}")
    forms = _QUEUE_FORMS if h.adt == "queue" else _FORMS
    lines = [f"adt {h.adt}"]
    put = lines.append
    endpoints: list[tuple[int, str]] = []
    cols = h._cols
    rows = h._ops if cols is None else zip(
        cols.id, zip(cols.kind, cols.value, cols.outcome), cols.call, cols.ret)
    ops_format = fmt == "ops"
    for op_id, (kind, value, outcome), call, ret in rows:
        try:
            word, results, outcome_type = forms[kind]
        except KeyError:
            raise HistoryError(f"operation {op_id}: unknown kind {kind!r}") from None
        if type(outcome) is not outcome_type:
            raise HistoryError(f"operation {op_id}: {kind} outcome {outcome!r}")
        if (value is None) is not (kind == POP_EMPTY):
            raise HistoryError(f"operation {op_id}: {kind} value {value!r}")
        if type(value) is not int and value is not None:
            token = str(value)
            if token.split() != [token] or "#" in token or _value(token) != value:
                raise HistoryError(f"operation {op_id}: {kind} value {value!r} would not read back")
        if ops_format:
            put(f"{word} {call} {ret}" if value is None
                else f"{word} {value} {call} {ret}{results[outcome]}")
            continue
        shown = "" if value is None else f" {value}"
        # A pop's value comes with its return.
        at_call, at_ret = ("", shown) if kind == POP else (shown, "")
        endpoints.append((call, f"call {op_id} {word}{at_call} {call}"))
        endpoints.append((ret, f"ret {op_id} {ret}{at_ret}{results[outcome]}"))
    endpoints.sort(key=itemgetter(0))
    lines.extend(line for _, line in endpoints)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

def _sort_cost(n: int) -> int:
    """The work charged for sorting n items."""
    return n * max(1, n.bit_length())


def _in_order(values: list) -> list:
    """The values of a witness, sorted as they compare, or else (an int and a
    str) the ints by number, then the others by str: only the fallback pays for a key."""
    try:
        return sorted(values)
    except TypeError:
        return sorted(values, key=lambda v: (0, v) if type(v) is int else (1, str(v)))


def _max_timestamp(h: History) -> int:
    return max(h.columns.ret, default=0)


ValueTable = namedtuple("ValueTable", "value push_call push_ret pop_call pop_ret pop_empties")
ValueTable.__doc__ = """Per-value columns of a stack or queue history, one row per push.

    Row x is the x-th push in call order with the pop paired with it: the
    value's pop of the same rank, or, for a push left unmatched, a pop
    appended after the history (see value_table).  `value` holds the
    original values.  `pop_empties` lists the (call, return) pairs of
    pop-empty operations in call order.
    """


def value_table(h: History, counter: WorkCounter | None = None) -> ValueTable | Verdict:
    """Preprocess a stack or queue history in one pass over its operations.

    Pairs the j-th push of each value with its j-th pop, and completes the
    k pushes left unmatched, in call order, with pops that overlap each
    other and follow the history: the i-th spans [M+i, M+k+i], with M the
    greatest timestamp.  Gives the rows, or the verdict for the least value
    popped more often than pushed, else for the first row popped before it
    was pushed.  Raises HistoryError as `History.columns` does.  Charges
    one unit per operation.
    """
    if h.adt not in ("stack", "queue"):
        raise HistoryError("value tables are defined for stack and queue histories")
    value, push_call, push_ret, pop_call, pop_ret, pop_empties = [], [], [], [], [], []
    # value -> [head, ...]: a FIFO, read from index head, of the value's
    # unpaired pushes (rows) or of its early pops ((call, return)), never
    # both; the k-th push of a value pairs with its k-th pop.
    waiting: dict = {}
    cols = h.columns
    for call, ret, kind, v in zip(cols.call, cols.ret, cols.kind, cols.value):
        if kind == PUSH:
            mine = len(value)
            value.append(v)
            push_call.append(call)
            push_ret.append(ret)
            pop_call.append(None)
            pop_ret.append(None)
        elif kind == POP:
            mine = (call, ret)
        else:  # a stack's pop-empty: the columns hold no other kind
            pop_empties.append((call, ret))
            continue
        fifo = waiting.get(v)
        if fifo is None:
            waiting[v] = [1, mine]
        elif type(fifo[-1]) is type(mine):
            fifo.append(mine)
        else:
            head = fifo[0]
            x, pop = (mine, fifo[head]) if kind == PUSH else (fifo[head], mine)
            pop_call[x], pop_ret[x] = pop
            if head + 1 == len(fifo):
                del waiting[v]
            else:
                fifo[0] = head + 1
    if counter is not None:
        counter.add(len(h))

    unmatched = [v for v, fifo in waiting.items() if type(fifo[-1]) is tuple]
    if unmatched:
        return Verdict(False, {"kind": "unmatched-pop", "value": _in_order(unmatched)[0]})
    missing = [x for x in range(len(value)) if pop_call[x] is None]
    m, k = _max_timestamp(h), len(missing)
    for i, x in enumerate(missing, start=1):
        pop_call[x], pop_ret[x] = m + i, m + k + i
    for x in range(len(value)):
        if pop_ret[x] < push_call[x]:
            return Verdict(False, {"kind": "pop-before-push", "value": value[x]})
    return ValueTable(value, push_call, push_ret, pop_call, pop_ret, pop_empties)
