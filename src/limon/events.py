"""Event-format reader: event files and event streams.

An event file or stream holds one `call` or `ret` record per line.  Files
and streams share one record loop, `_events`: it checks each record, pairs
it by id with the half of its operation already read and yields it as a
`StreamEvent`, which the set and multiset monitors read from a stream and
the file parser, `_parse_events_format`, turns into columns.  This module
loads only for such input: when `parse_history` meets a `call` or `ret`
as a file's first record, or on first use of `parse_event_stream`, as by
`limon check --stream`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .history import (_KIND_ALIASES, _KINDS_BY_ADT, _OUTCOMES, CONTAINS, POP, POP_EMPTY, Columns,
                      ParseError, StreamEvent, _bad_outcome, _check_kind, _in_call_order, _is_int,
                      _lines, _not_utf8, _parse_int, _parse_ts, _read_header, _shown, _value)

_RESULT_WORDS = frozenset(("ok", "fail", "true", "false", "empty"))


def _events(adt: str, lines: Iterable[str], first: int, stream: bool) -> Iterator[StreamEvent]:
    """Check event-format records one at a time, pair them by id and yield a
    StreamEvent per record, for the file and the stream parser alike.

    A record's shape, from its first token and width, is read once; its
    faults are found in the order width, id, kind and value, timestamp,
    pairing.  A call's kind is checked at the call's line.  A call read
    first yields its call event, outcome None.  The record that completes
    an operation, its return or, in a file, a call read after its return,
    is checked against the other half and yields the operation's return
    event, with the call's timestamp as `call`.  A return read first yields
    (ts, False, None, value, None, id, None).  A return's result token,
    unless a result word, is read as a pop's value.  A value token is kept
    as written (see _value).  A second call or return of an id is
    refused; the ids seen are the run [low, high) from the first one plus a
    set of the others, so ids that count up cost constant memory and one
    comparison each.  With stream set, timestamps must increase, a return
    must follow its call, failing adds and removes are refused and every
    call must return.
    """
    legal = _KINDS_BY_ADT[adt]
    # Bound once: CPython compiles a method call on a name this module imports,
    # such as _KIND_ALIASES.get(kind), to make a bound method on every call.
    kind_of, words_of = _KIND_ALIASES.get, _OUTCOMES.get
    pending: dict[int, tuple] = {}  # by id, (line, kind, value, ts, result) of a half read
    low = high = 0
    seen: set[int] = set()
    last_ts = -1
    no = first - 1
    try:
        for no, line in enumerate(lines, first):
            if "#" in line:
                line = line[:line.find("#")]
            toks = line.split()
            if not toks:
                continue
            ascii_line = line.isascii()  # then so is every token (see history, Parsing)
            head, n = toks[0], len(toks)
            if head == "call":
                if n == 5:
                    _, op_id, kind, value, ts = toks
                elif n == 4:
                    _, op_id, kind, ts = toks
                    value = None
                else:
                    raise ParseError("expected: call <id> <kind> [<value>] <ts>", no)
                op_id = (int(op_id) if (ascii_line or op_id.isascii()) and "_" not in op_id
                         else _parse_int(op_id, "operation id", no))
                kind = kind_of(kind)
                if kind is None:
                    raise ParseError(f"unknown event kind {_shown(toks[2])}", no)
                if value is not None:
                    if kind == POP_EMPTY:
                        raise ParseError("popempty call takes no value", no)
                    value = int(value) if ascii_line and value.isdigit() else _value(value)
                elif kind != POP and kind != POP_EMPTY:
                    raise ParseError(f"{kind} call needs a value", no)
            elif head != "ret":
                raise ParseError(f"expected call/ret record, got {_shown(head)}", no)
            else:
                if n == 4:
                    _, op_id, ts, result = toks
                elif n == 3:
                    _, op_id, ts = toks
                    result = None
                else:
                    raise ParseError("expected: ret <id> <ts> [<result>]", no)
                op_id = (int(op_id) if (ascii_line or op_id.isascii()) and "_" not in op_id
                         else _parse_int(op_id, "operation id", no))
                ret_value = None if result is None or result in _RESULT_WORDS else (
                    int(result) if ascii_line and result.isdigit() else _value(result))
            ts = int(ts) if (ascii_line or ts.isascii()) and "_" not in ts else _parse_ts(ts, no)
            if ts < 0:
                raise ValueError  # a negative timestamp
            partner = pending.pop(op_id, None)
            if partner is None and op_id == high:  # a fresh id: the drain keeps high out of seen
                high += 1
                while seen and high in seen:
                    seen.remove(high)
                    high += 1
            elif partner is None and low == high:  # the first id
                low, high = op_id, op_id + 1
            elif partner is None and not (low <= op_id < high or op_id in seen):
                seen.add(op_id)
            elif partner is None or (partner[1] is None) is (head == "ret"):
                raise ParseError(f"duplicate {'call' if head == 'call' else 'return'} for id {op_id}", no)
            if stream and ts <= last_ts:
                raise ParseError(f"stream timestamps must increase ({ts})", no)
            last_ts = ts
            if head == "call":
                if kind not in legal:
                    _check_kind(adt, kind, None, no)
                if partner is None:
                    pending[op_id] = (no, kind, value, ts, None)
                    yield ts, True, kind, value, None, op_id, ts
                    continue
                cno, call_ts = no, ts
                rno, _, ret_value, ret_ts, result = partner
            elif partner is None:
                if stream:
                    raise ParseError(f"return without call for id {op_id}", no)
                pending[op_id] = (no, None, ret_value, ts, result)
                yield ts, False, None, ret_value, None, op_id, None
                continue
            else:
                cno, kind, value, call_ts, _ = partner
                rno, ret_ts = no, ts
            # The operation is complete: check its call against its return.
            outcome = words_of(kind)  # add, remove or contains: its result words
            if outcome is not None:
                outcome = outcome.get(result)
                if outcome is None:
                    if result is None:
                        raise ParseError(f"{kind} return needs a result", rno)
                    _bad_outcome(kind, result, rno)
            elif kind == POP and value is None:
                if result == "empty":
                    kind = POP_EMPTY
                elif ret_value is None:
                    raise ParseError(f"pop id {op_id} carries no value (call or ret)", rno)
                value = ret_value
            elif result is not None and (kind != POP or ret_value != value):
                raise ParseError(f"return {_shown(result)} contradicts its {kind} call "
                                 f"(id {op_id})", rno)
            if kind not in legal or (outcome is False and adt == "multiset"):
                _check_kind(adt, kind, outcome, cno)
            if call_ts >= ret_ts:
                raise ParseError(f"call {call_ts} not before return {ret_ts} (id {op_id})", rno)
            if stream and outcome is False and kind != CONTAINS:
                raise ParseError("failing operations need offline checking (normalization)", no)
            yield ret_ts, False, kind, value, outcome, op_id, call_ts
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc, no) from None
    except ParseError:
        raise
    except ValueError:  # int() refused an id, value or timestamp, or read a negative one
        _parse_int(toks[1], "operation id", no)
        if (n == 5 or n == 4 and head == "ret") and _is_int(toks[3]):
            _parse_int(toks[3], "value", no)
        _parse_ts(toks[-1] if head == "call" else toks[2], no)
        raise
    if pending:
        if stream:
            first_open = next(iter(pending.values()))[0]
            raise ParseError(f"stream ended with {len(pending)} unreturned calls", first_open)
        which = min(pending)
        side = "return" if pending[which][1] is not None else "call"
        raise ParseError(f"operation id {which} has no matching {side}", pending[which][0])


def _parse_events_format(adt: str, lines: Iterable[str], first: int) -> Columns:
    """A row per operation in the order of its first record, so the rows of
    a file in timestamp order are in call order already.  The id column is
    a `range` while every id is its row number."""
    same = {}.setdefault  # the one object of each value read
    rows: dict[int, int] = {}  # the row of each operation with one record read
    calls, rets, kinds, values, outcomes = cols = [[], [], [], [], []]
    ids = None
    for ts, is_call, kind, value, outcome, op_id, call in _events(adt, lines, first, False):
        if is_call or kind is None:  # the operation's first record opens its row
            row = len(calls)
            if ids is None and op_id != row:
                ids = list(range(row))
            if ids is not None:
                ids.append(op_id)
                rows[op_id] = row
            calls.append(None)
            rets.append(None)
            kinds.append(None)
            values.append(None)
            outcomes.append(None)
        else:  # rows opened while ids was None are their ids' rows
            row = op_id if ids is None else rows.pop(op_id, op_id)
            calls[row], rets[row] = call, ts
            kinds[row], values[row], outcomes[row] = kind, same(value, value), outcome
    return _in_call_order(cols + [range(len(calls)) if ids is None else ids])


def parse_event_stream(source: str | bytes | Iterable[str]) -> tuple[str, Iterator[StreamEvent]]:
    """Read the header of an event-format stream; give its adt and its events.

    The source is the whole text or its lines, as for parse_history.

    The events come lazily, one StreamEvent per record, from the record
    loop that event files go through (_events), so a record is checked, and
    a fault named at its line, as in a file.  A stream is also refused when
    its timestamps do not increase, a return comes before its call, an add
    or remove fails (that needs the offline normalization) or a call has
    not returned at the end.  A call carries no outcome and its own
    timestamp as `call`; its return carries the operation's kind, value and
    outcome and its call's timestamp.  Values are read as in a file, and a
    stream keeps no table of them.
    """
    lines = iter(_lines(source))
    adt, no = _read_header(lines)
    return adt, _events(adt, lines, no + 1, True)
