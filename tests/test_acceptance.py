"""Acceptance suite: one test per shipped criterion, with pinned tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion; the suite is also part of the default pytest run.
"""

import math
import random
import time

from limon import (
    ContainmentIndex,
    GenConfig,
    brute_force_linearizable,
    check_history,
    gen_random,
    gen_small_model_family,
    queue_linearizable,
    record_execution,
    set_linearizable,
    stack_linearizable,
)
from limon.sets import history_events, multiset_linearizable

from helpers import (
    STAGGERED_ROWS,
    QUEUE_BAD_ROWS,
    QUEUE_OK_ROWS,
    AttributedValue,
    Interval,
    complete_history,
    d_segments,
    extreme_values,
    indexed_container,
    op_to_val,
    p_segments,
    partition,
    project,
    scan_container,
    value_history,
)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


def best_of(fn, runs: int = 5) -> float:
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_1_stack_worked_examples():
    h2 = value_history("stack", STAGGERED_ROWS)
    vals = op_to_val(h2)
    p = p_segments(vals)
    d = d_segments(h2, p)
    mixed_vals = [AttributedValue(0, 0, 2, 30, 34), AttributedValue(1, 1, 4, 25, 32)]
    mixed_vals += [AttributedValue(*row) for row in STAGGERED_ROWS]
    given_d = [Interval(0, 6), Interval(12, 15), Interval(22, 23), Interval(27, 35)]

    ok_p = [s.as_pair() for s in p] == [(6, 12), (15, 22), (23, 27), (29, 31)]
    ok_d = [s.as_pair() for s in d] == [(3, 6), (12, 15), (22, 23), (27, 29), (31, 35)]
    ok_e = extreme_values(mixed_vals, given_d) == {0, 1}
    left, _ = partition(h2, Interval(12, 15))
    ok_l = {o.event.value for o in left.ops} == {2, 3}

    times = {
        "p_segments": best_of(lambda: p_segments(vals)),
        "d_segments": best_of(lambda: d_segments(h2, p)),
        "extreme_values": best_of(lambda: extreme_values(mixed_vals, given_d)),
        "partition": best_of(lambda: partition(h2, Interval(12, 15))),
    }
    ok_t = all(t < 1e-3 for t in times.values())
    detail = (f"P/D/extreme/partition bit-exact={ok_p and ok_d and ok_e and ok_l}, "
              f"max runtime {max(times.values()) * 1e6:.0f}us (<1ms each)")
    report(1, ok_p and ok_d and ok_e and ok_l and ok_t, detail)


def test_criterion_2_queue_walkthroughs():
    h_ok = value_history("queue", QUEUE_OK_ROWS)
    h_bad = value_history("queue", QUEUE_BAD_ROWS)

    probe_ok = indexed_container(h_ok, 4, 16) is None
    probe_bad = indexed_container(h_bad, 14, 22) == 3
    v_ok = queue_linearizable(h_ok)
    v_bad = queue_linearizable(h_bad)
    pair = (not v_bad.linearizable and v_bad.witness["kind"] == "critical-pair"
            and (v_bad.witness["outer"], v_bad.witness["inner"]) == (3, 5))
    ok = probe_ok and probe_bad and v_ok.linearizable and pair
    report(2, ok, f"walkthrough verdicts lin/unlin with pair (3,5)={pair}, "
                  f"probes [4,16]->none={probe_ok}, [14,22]->3={probe_bad}")


def test_criterion_3_oracle_differential_suite():
    t0 = time.perf_counter()
    per_adt = 10_000
    checked = 0
    for adt in ("stack", "queue", "set", "multiset"):
        for i in range(per_adt):
            h = gen_random(adt, 2 + i % 7, 100_000 + i * 4 + hash(adt) % 97)
            monitor = check_history(h).linearizable
            oracle = brute_force_linearizable(h, max_ops=12).linearizable
            assert monitor == oracle, (adt, i)
            checked += 1
    wall = time.perf_counter() - t0
    report(3, checked == 4 * per_adt and wall < 300,
           f"{checked} histories across 4 ADTs, 100% monitor/oracle agreement, "
           f"{wall:.1f}s (<300s)")


def test_criterion_4_small_model_family():
    for n in range(3, 51):
        fam = gen_small_model_family(n)
        assert not stack_linearizable(fam).linearizable, n
        for v in range(1, n + 1):
            sub = project(fam, set(range(1, n + 1)) - {v})
            assert stack_linearizable(sub).linearizable, (n, v)
    for n in range(3, 7):
        fam = gen_small_model_family(n)
        assert not brute_force_linearizable(fam, max_ops=12).linearizable, n
        for v in range(1, n + 1):
            sub = project(fam, set(range(1, n + 1)) - {v})
            assert brute_force_linearizable(sub, max_ops=12).linearizable, (n, v)
    report(4, True, "family unlinearizable and all single-value removals "
                    "linearizable for n=3..50; oracle-confirmed for n<=6")


def test_criterion_5_completion_preserves_verdict():
    mismatches = 0
    for seed in range(2000):
        h = gen_random("stack", 2 + seed % 5, 200_000 + seed)
        before = brute_force_linearizable(h, max_ops=12).linearizable
        after = brute_force_linearizable(complete_history(h), max_ops=14).linearizable
        mismatches += before != after
    report(5, mismatches == 0,
           f"oracle(h) == oracle(complete(h)) on 2000 stack histories, "
           f"{mismatches} mismatches (zero tolerance)")


def test_criterion_6_complexity_envelopes():
    from limon.cli import run_bench
    t0 = time.perf_counter()
    sizes = list(range(100, 5001, 100))

    stack_rows = run_bench("stack", sizes, seed=0, threads=8)
    xs = [math.log(r["size"]) for r in stack_rows]
    ys = [math.log(max(r["work_count"], 1)) for r in stack_rows]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    exponent = (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
                / sum((x - mx) ** 2 for x in xs))

    queue_rows = run_bench("queue", sizes, seed=0, threads=8)
    q_ratios = [r["work_count"] / (r["size"] * math.log2(r["size"])) for r in queue_rows]
    q_spread = max(q_ratios) / min(q_ratios)

    set_rows = run_bench("set", sizes, seed=0, threads=8)
    s_ratios = [r["work_count"] / r["size"] for r in set_rows]
    s_spread = max(s_ratios) / min(s_ratios)

    wall = time.perf_counter() - t0
    ok = 1.0 <= exponent <= 2.2 and q_spread <= 2.0 and s_spread <= 2.0 and wall < 120
    report(6, ok, f"stack exponent {exponent:.2f} in [1.0,2.2], "
                  f"queue nlogn spread {q_spread:.2f}x<=2x, "
                  f"set linear spread {s_spread:.2f}x<=2x, {wall:.1f}s (<120s)")


def test_criterion_7_qtree_properties():
    rng = random.Random(2024)
    total_sets = 10_000
    big_sets = 20
    checked_probes = 0
    for k in range(total_sets):
        if k < big_sets:
            n = rng.randrange(5000, 10_001)
        else:
            n = 1 + rng.randrange(60)
        pool = rng.sample(range(40 * n + 80), 2 * n)
        entries = [(Interval(*sorted(pool[2 * i: 2 * i + 2])), i) for i in range(n)]
        index = ContainmentIndex([iv.left for iv, _ in entries], [iv.right for iv, _ in entries],
                                 [v for _, v in entries])
        span = 40 * n + 80
        probes = [Interval(*sorted((rng.randrange(span), rng.randrange(span))))
                  for _ in range(3)]
        iv, _ = entries[rng.randrange(n)]
        probes.append(Interval(min(iv.left + 1, iv.right), iv.right))  # forced hit
        probes.sort()
        for q, got in zip(probes, index.containers(probes), strict=True):
            expect = scan_container(entries, q)
            assert (got in expect) if expect else (got is None), (k, q)
            checked_probes += 1
    report(7, True, f"{total_sets} interval sets (up to 10k intervals): containment "
                    f"query == linear scan on {checked_probes} probes")


def test_criterion_8_recorder_smoke():
    t0 = time.perf_counter()
    clean = 0
    for impl in ("coarse-stack", "treiber-stack"):
        for seed in range(10):
            h = record_execution(impl, GenConfig(ops=1000, threads=8, seed=seed))
            assert check_history(h).linearizable, (impl, seed)
            clean += 1
    buggy_at = None
    for seed in range(100):
        h = record_execution("buggy-stack", GenConfig(ops=48, threads=8, seed=seed))
        if not check_history(h).linearizable:
            buggy_at = seed
            break
    wall = time.perf_counter() - t0
    ok = clean == 20 and buggy_at is not None and wall < 60
    report(8, ok, f"{clean}/20 recordings (8 threads x 1000 ops x 10 seeds x 2 impls) "
                  f"linearizable; buggy variant caught at trial {buggy_at}; "
                  f"{wall:.1f}s (<60s)")


def test_criterion_9_streaming_counts():
    mismatches = 0
    for seed in range(5000):
        h = gen_random("multiset", 2 + seed % 19, 300_000 + seed)
        expect = True
        counts = {}
        for ts, is_call, kind, v, *_ in history_events(h):
            adds, rmvs = counts.get(v, (0, 0))
            if kind == "add" and is_call:
                adds += 1
            elif kind == "remove" and not is_call:
                rmvs += 1
            counts[v] = (adds, rmvs)
            if rmvs > adds:
                expect = False
                break
        mismatches += multiset_linearizable(h).linearizable != expect
    set_mismatches = 0
    for seed in range(2000):
        h = gen_random("set", 2 + seed % 7, 310_000 + seed)
        set_mismatches += (set_linearizable(h).linearizable
                           != brute_force_linearizable(h, max_ops=12).linearizable)
    ok = mismatches == 0 and set_mismatches == 0
    report(9, ok, f"multiset checker == prefix recount on 5000 streams "
                  f"({mismatches} off); set checker == oracle on 2000 more "
                  f"histories ({set_mismatches} off)")
