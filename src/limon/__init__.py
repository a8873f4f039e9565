"""limon: linearizability monitoring for stacks, queues, sets and multisets.

Decides whether a recorded concurrent history is linearizable with respect
to its abstract data type, in O(n log n) for stacks between splits
(O(n^2) in the worst case, through chains of splits only), O(n log n)
for queues (a containment query over I-segments sorted by left end, with
a running maximum of right ends) and O(n) for sets and multisets, plus the
supporting machinery: file formats, preprocessing, an exact brute-force
oracle, corpus generators and an execution recorder.
"""

from __future__ import annotations

from .history import (
    ADTS,
    EMPTY,
    AttributedValue,
    Event,
    History,
    HistoryError,
    Interval,
    Operation,
    ParseError,
    Verdict,
    Violation,
    WorkCounter,
    complete_history,
    differentiate,
    parse_event_stream,
    parse_history,
    project,
    remove_overlapping_pairs,
    serialize_history,
    validate,
)
from .stacks import (
    d_segments,
    extreme_values,
    op_to_val,
    p_segments,
    partition,
    stack_linearizable,
)
from .queues import ContainmentIndex, queue_linearizable
from .sets import (
    SetValueState,
    ensure_state,
    history_events,
    multiset_linearizable,
    multiset_linearizable_events,
    normalize_failing_ops,
    set_linearizable,
    set_linearizable_events,
)
from .oracle import (
    BoundExceeded,
    brute_force_linearizable,
    saturation_baseline,
    sequential_check,
)
from .generators import (
    GenConfig,
    gen_linearizable,
    gen_linearizable_with_witness,
    gen_random,
    gen_small_model_family,
    mutate,
    record_execution,
)

_MONITORS = {
    "stack": stack_linearizable,
    "queue": queue_linearizable,
    "set": set_linearizable,
    "multiset": multiset_linearizable,
}


def check_history(h: History, *, counter: WorkCounter | None = None) -> Verdict:
    """Run the monitor matching the history's data type."""
    return _MONITORS[h.adt](h, counter=counter)
