"""limon: linearizability monitoring for stacks, queues, sets and multisets.

Decides whether a recorded concurrent history is linearizable with respect
to its abstract data type: in O(n log n) for stacks (plus, at worst,
O(n log^2 n) comparisons to sort the parts split off), for queues (one
sweep of I-segments sorted by left end, with a running maximum of right
ends, for every probe) and for set and multiset histories (their returns
are sorted), in O(n) for set and multiset streams.  Also file formats,
preprocessing, an exact oracle, corpus generators and an execution recorder.

Importing the package loads the data model and the operation-format
reader (module `history`) and nothing else of the package.  Every other
module loads on first use of one of its names, as in `limon.gen_random`
or `from limon import sequential_check`: `check_history` loads the monitor
of the history's data type (`stacks`, `queues` or `sets`), and
`parse_history` the event-format reader (`events`) only for an event file.
"""

from .history import (
    ADTS,
    BoundExceeded,
    Event,
    History,
    HistoryError,
    Operation,
    ParseError,
    Verdict,
    WorkCounter,
    parse_history,
    serialize_history,
)

# Names resolved on first use, by the module that defines them.
_LAZY_MODULES = {
    "stacks": ("stack_linearizable",),
    "queues": ("ContainmentIndex", "queue_linearizable"),
    "sets": ("SetValueState", "ensure_state", "history_events", "multiset_linearizable",
             "multiset_linearizable_events", "normalize_failing_ops", "set_linearizable",
             "set_linearizable_events"),
    "oracle": ("brute_force_linearizable", "sequential_check"),
    "generators": ("GenConfig", "gen_linearizable", "gen_linearizable_with_witness",
                   "gen_random", "gen_small_model_family", "mutate", "record_execution"),
    "impls": (),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in (module, *names)}
_LAZY["parse_event_stream"] = "events"  # the module itself is not one of the package's names


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys())


def check_history(h: History, *, counter: WorkCounter | None = None) -> Verdict:
    """Run the monitor matching the history's data type."""
    name = f"{h.adt}_linearizable"
    return (globals().get(name) or __getattr__(name))(h, counter=counter)


__all__ = sorted([name for name in globals() if not name.startswith("_")] + list(_LAZY))
