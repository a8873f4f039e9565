"""Command-line frontend: limon check | gen | record | oracle | bench.

Exit codes: 0 linearizable, 1 unlinearizable, 2 malformed input,
3 internal error or oracle bound exceeded.  The mapping is stable.
"""

from __future__ import annotations

import argparse
import gc
import io
import sys
import time

from . import check_history
from .history import (
    ADTS,
    BoundExceeded,
    History,
    HistoryError,
    ParseError,
    WorkCounter,
    parse_history,
    serialize_history,
)

EXIT_LINEARIZABLE = 0
EXIT_UNLINEARIZABLE = 1
EXIT_MALFORMED = 2
EXIT_INTERNAL = 3


def _open_input(path: str):
    """The file at path, or standard input for -, decoded as strict UTF-8."""
    if path == "-":
        return io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8")
    return open(path, encoding="utf-8")


def _write_output(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_verdict(verdict, verbose: bool) -> int:
    if verbose:
        import json
        print(json.dumps({"linearizable": verdict.linearizable, "witness": verdict.witness}))
    else:
        print("linearizable" if verdict.linearizable else "unlinearizable")
    return EXIT_LINEARIZABLE if verdict.linearizable else EXIT_UNLINEARIZABLE


def cmd_check(args: argparse.Namespace) -> int:
    # Parsing and checking build no reference cycles, so the cyclic collector is off:
    # reference counting frees each event of a stream, however long, once it is read.
    enabled = gc.isenabled()
    gc.disable()
    try:
        with _open_input(args.file) as fh:
            if args.stream:
                from .events import parse_event_stream
                from .sets import multiset_linearizable_events, set_linearizable_events
                adt, events = parse_event_stream(fh)
                if adt not in ("set", "multiset"):
                    raise ParseError("streaming mode monitors set/multiset event streams")
                runner = set_linearizable_events if adt == "set" else multiset_linearizable_events
                verdict = runner(events)
            else:
                verdict = check_history(parse_history(fh))
    finally:
        if enabled:
            gc.enable()
    return _emit_verdict(verdict, args.verbose)


def cmd_oracle(args: argparse.Namespace) -> int:
    from .oracle import brute_force_linearizable
    with _open_input(args.file) as fh:
        h = parse_history(fh)
    return _emit_verdict(brute_force_linearizable(h, max_ops=args.max_ops), args.verbose)


def cmd_gen(args: argparse.Namespace) -> int:
    from .generators import GenConfig, gen_linearizable, gen_random, gen_small_model_family
    if args.kind == "small-model":
        h = gen_small_model_family(args.n)
    elif args.kind == "random":
        h = gen_random(args.adt, args.ops, args.seed, values=args.values)
    else:
        cfg = GenConfig(adt=args.adt, ops=args.ops, values=args.values,
                        seed=args.seed, stretch=args.stretch)
        h = gen_linearizable(cfg)
    _write_output(args.out, serialize_history(h, fmt=args.format))
    return EXIT_LINEARIZABLE


def cmd_record(args: argparse.Namespace) -> int:
    from .generators import GenConfig, record_execution
    h = record_execution(args.impl, GenConfig(ops=args.ops, threads=args.threads, seed=args.seed))
    _write_output(args.out, serialize_history(h, fmt=args.format))
    return EXIT_LINEARIZABLE


def run_bench(adt: str, sizes: list[int], seed: int, threads: int) -> list[dict]:
    """Check generated histories along a size ladder; report work and time.

    Slowdowns are normalized against the smallest instance, mirroring the
    per-thread-count normalization used in scalability plots.
    """
    from .generators import GenConfig, gen_linearizable
    check_history(History(adt, ()))  # loads the monitor before the first timing
    rows = []
    base_wall = None
    for n in sizes:
        cfg = GenConfig(adt=adt, ops=n, values=max(8, n // 8), threads=threads,
                        seed=seed + n, stretch=float(threads))
        h = gen_linearizable(cfg)
        counter = WorkCounter()
        t0 = time.perf_counter()
        verdict = check_history(h, counter=counter)
        wall = time.perf_counter() - t0
        if not verdict.linearizable:
            raise HistoryError(f"generator produced an unlinearizable {adt} history "
                               f"(n={n}); this is a toolkit bug")
        if base_wall is None:
            base_wall = wall or 1e-9
        rows.append({"size": n, "threads": threads, "wall_seconds": wall,
                     "work_count": counter.count, "slowdown": wall / base_wall})
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = list(range(args.min_n, args.max_n + 1, args.step))
    rows = run_bench(args.adt, sizes, args.seed, args.threads)
    lines = ["size,threads,wall_seconds,work_count,slowdown"]
    for r in rows:
        lines.append(f"{r['size']},{r['threads']},{r['wall_seconds']:.6f},"
                     f"{r['work_count']},{r['slowdown']:.3f}")
    _write_output(args.out, "\n".join(lines) + "\n")
    return EXIT_LINEARIZABLE


def _at_least(least, number=int):
    """An argparse type: a finite number of the given type, no smaller than least."""
    def parse(text: str):
        n = number(text)
        if not least <= n < float("inf"):  # also false for nan
            raise argparse.ArgumentTypeError(f"must be finite and at least {least}, got {n}")
        return n
    parse.__name__ = number.__name__  # argparse names the type when it fails
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limon",
        description="Linearizability monitor for concurrent histories.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="decide linearizability of a history file")
    p_check.add_argument("file", help="history file, or - for standard input")
    p_check.add_argument("--verbose", action="store_true",
                         help="print the verdict and witness as one JSON object")
    p_check.add_argument("--stream", action="store_true",
                         help="read set/multiset events incrementally "
                              "(the event format only)")
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser("oracle", help="exact brute-force ground truth (small inputs)")
    p_oracle.add_argument("file")
    p_oracle.add_argument("--max-ops", type=_at_least(0), default=10,
                          help="refuse histories larger than this (default 10)")
    p_oracle.add_argument("--verbose", action="store_true")
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a synthetic history")
    p_gen.add_argument("--adt", default="stack", choices=ADTS)
    p_gen.add_argument("--kind", default="linearizable",
                       choices=("linearizable", "random", "small-model"))
    p_gen.add_argument("--ops", type=_at_least(0), default=100)
    p_gen.add_argument("--values", type=_at_least(1), default=8)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--stretch", type=_at_least(0.0, float), default=1.0)
    p_gen.add_argument("--n", type=_at_least(2), default=5,
                       help="family size for --kind small-model")
    p_gen.add_argument("--format", default="ops", choices=("ops", "events"))
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=cmd_gen)

    p_rec = sub.add_parser("record", help="record a live run of a reference structure")
    p_rec.add_argument("--impl", default="treiber-stack",
                       choices=("coarse-stack", "treiber-stack", "buggy-stack",
                                "coarse-queue", "ms-queue"))
    p_rec.add_argument("--threads", type=_at_least(1), default=8)
    p_rec.add_argument("--ops", type=_at_least(0), default=1000)
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--format", default="events", choices=("ops", "events"))
    p_rec.add_argument("--out", default="-")
    p_rec.set_defaults(func=cmd_record)

    p_bench = sub.add_parser("bench", help="work-count and wall-time ladder as CSV")
    p_bench.add_argument("--adt", default="stack", choices=ADTS)
    p_bench.add_argument("--min-n", type=_at_least(0), default=100)
    p_bench.add_argument("--max-n", type=_at_least(0), default=5000)
    p_bench.add_argument("--step", type=_at_least(1), default=100)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--threads", type=_at_least(1), default=8,
                         help="generator overlap width, recorded in the CSV")
    p_bench.add_argument("--out", default="-")
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BoundExceeded as exc:
        print(f"limon: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except HistoryError as exc:
        print(f"limon: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except OSError as exc:
        print(f"limon: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # exit 1 means unlinearizable, never a crash
        print(f"limon: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
