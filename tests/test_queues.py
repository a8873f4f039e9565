import math
import random

import pytest

from limon import (
    ContainmentIndex,
    Event,
    GenConfig,
    History,
    HistoryError,
    Operation,
    WorkCounter,
    brute_force_linearizable,
    gen_linearizable,
    gen_random,
    mutate,
    parse_history,
    queue_linearizable,
)

from helpers import (
    QUEUE_BAD_ROWS,
    QUEUE_OK_ROWS,
    CriticalPair,
    Interval,
    complete_history,
    differentiate,
    find_critical_pair_naive,
    indexed_container,
    op_to_val,
    reference_queue_linearizable,
    scan_container,
    value_history,
)


def queue_ok():
    return value_history("queue", QUEUE_OK_ROWS)


def queue_bad():
    return value_history("queue", QUEUE_BAD_ROWS)


def index_of(entries):
    """The index of entries (interval, k), the k-th entry being row k."""
    return ContainmentIndex([iv.left for iv, _ in entries], [iv.right for iv, _ in entries],
                            range(len(entries)))


def random_entries(rng, n, lo, hi):
    pool = rng.sample(range(lo, hi), 2 * n)
    return [(Interval(*sorted(pool[2 * k: 2 * k + 2])), k) for k in range(n)]


class TestSearch:
    def test_sample_non_containment(self):
        assert indexed_container(queue_ok(), 4, 16) is None

    def test_sample_containment(self):
        assert indexed_container(queue_bad(), 14, 22) == 3

    def test_empty_tree(self):
        assert list(ContainmentIndex([], [], []).containers([(0, 1)])) == [None]

    def test_out_of_order_probe_refused(self):
        found = ContainmentIndex([0, 10], [5, 20], range(2)).containers([(3, 4), (3, 4), (2, 4)])
        assert next(found) == 0
        assert next(found) == 0  # an equal left end is in order
        with pytest.raises(HistoryError, match="probe at 2 follows a probe at 3"):
            next(found)

    def test_matches_linear_scan(self):
        rng = random.Random(23)
        sets = []
        for _ in range(400):
            n = 1 + rng.randrange(40)
            sets.append((0, 20 * n + 40, random_entries(rng, n, 0, 20 * n + 40), 6))
        big = random.Random(1)  # larger sets, up to 2000 intervals
        for _ in range(50):
            n = big.randrange(1, 2000)
            base = big.randrange(10**6)
            sets.append((base, base + 10 * n,
                         random_entries(big, n, base, base + 10 * n), 40))
        for k, (lo, hi, entries, n_probes) in enumerate(sets):
            index = index_of(entries)
            right = {v: iv.right for iv, v in entries}
            probes = [Interval(*sorted((rng.randrange(lo, hi), rng.randrange(lo, hi))))
                      for _ in range(n_probes)]
            iv, _ = entries[rng.randrange(len(entries))]
            probes.append(Interval(min(iv.left + 1, iv.right), iv.right))  # forced hit
            probes.sort()
            for q, got in zip(probes, index.containers(probes), strict=True):
                expect = scan_container(entries, q)
                if got is None:
                    assert not expect, (k, q)
                else:
                    # The reported container is the one reaching farthest right.
                    assert got in expect, (k, q)
                    assert right[got] == max(right[v] for v in expect), (k, q)


class TestQueueLinearizable:
    def test_sample_linearizable(self):
        assert queue_linearizable(queue_ok()).linearizable

    def test_sample_critical_pair(self):
        verdict = queue_linearizable(queue_bad())
        assert not verdict.linearizable
        assert verdict.witness == {"kind": "critical-pair", "inner": 5, "outer": 3}

    def test_samples_against_oracle(self):
        assert brute_force_linearizable(queue_ok(), max_ops=14).linearizable
        assert not brute_force_linearizable(queue_bad(), max_ops=14).linearizable

    def test_sequential_fifo(self):
        h = parse_history("adt queue\nenq 1 0 1\nenq 2 2 3\ndeq 1 4 5\ndeq 2 6 7\n")
        assert queue_linearizable(h).linearizable

    def test_popempty_rejected(self):
        h = History("queue", (Operation(0, Event("popempty"), 0, 1),))
        with pytest.raises(HistoryError):
            queue_linearizable(h)

    def test_unmatched_dequeue_witness(self):
        h = History("queue", (Operation(0, Event("pop", 3), 0, 1),))
        assert queue_linearizable(h).witness == {"kind": "unmatched-pop", "value": 3}

    def test_oracle_equivalence_sweep(self):
        for seed in range(1500):
            h = gen_random("queue", 2 + seed % 7, 11_000 + seed)
            assert (queue_linearizable(h).linearizable
                    == brute_force_linearizable(h, max_ops=12).linearizable), seed

    def test_matches_naive_critical_pair(self):
        for seed in range(600):
            h = gen_random("queue", 2 + seed % 7, 12_000 + seed)
            verdict = queue_linearizable(h)
            if verdict.witness and verdict.witness["kind"] != "critical-pair":
                continue  # unmatched-pop / pop-before-push short-circuits
            try:
                dh, _ = differentiate(h)
                vals = op_to_val(complete_history(dh))
            except HistoryError:
                continue
            naive = find_critical_pair_naive(vals)
            assert verdict.linearizable == (naive is None), seed

    def test_matches_reference_verdict_and_witness(self):
        pairs = 0
        for seed in range(3000):
            n = 2 + seed % 40
            h = (mutate(gen_linearizable(GenConfig(adt="queue", ops=n, seed=seed,
                                                   stretch=1 + seed % 6)), seed)
                 if seed % 2 else gen_random("queue", n, 16_000 + seed))
            verdict = queue_linearizable(h)
            assert verdict == reference_queue_linearizable(h), seed
            pairs += bool(verdict.witness) and verdict.witness["kind"] == "critical-pair"
        assert pairs >= 100, pairs

    def test_witness_is_the_farthest_reaching_container(self):
        # The I-segments of 1, [1, 20], and of 2, [3, 30], both contain 3's
        # T-segment, [4, 7]; 2 starts later and reaches farther.
        h = value_history("queue", [(1, 0, 1, 20, 21), (2, 2, 3, 30, 31), (3, 4, 5, 6, 7)])
        assert queue_linearizable(h).witness == {"kind": "critical-pair", "inner": 3, "outer": 2}
        assert reference_queue_linearizable(h) == queue_linearizable(h)

    def test_never_reports_self_containment(self):
        for seed in range(400):
            h = gen_random("queue", 2 + seed % 7, 13_000 + seed)
            verdict = queue_linearizable(h)
            if verdict.witness and verdict.witness["kind"] == "critical-pair":
                assert verdict.witness["inner"] != verdict.witness["outer"]

    def test_critical_pair_witness_is_a_containment(self):
        pairs = 0
        for seed in range(3000):
            h = gen_random("queue", 2 + seed % 12, 15_000 + seed)
            witness = queue_linearizable(h).witness
            if not witness or witness["kind"] != "critical-pair":
                continue
            dh, back = differentiate(h)
            vals = op_to_val(complete_history(dh))
            fresh = {orig: v for v, orig in back.items()}  # gen_random values are unique
            inner, outer = vals[fresh[witness["inner"]]], vals[fresh[witness["outer"]]]
            assert outer.i_segment is not None, seed
            assert outer.i_segment.contains(inner.t_segment), seed
            pairs += 1
        assert pairs >= 300, pairs

    def test_work_bound_n_log_n(self):
        for seed in range(60):
            n_ops = 6 + seed % 60
            h = gen_random("queue", n_ops, 14_000 + seed)
            counter = WorkCounter()
            queue_linearizable(h, counter=counter)
            bound = 12 * (n_ops + 4) * math.log2(n_ops + 4)
            assert counter.count <= bound, (seed, counter.count, bound)


class TestNaivePair:
    def test_walkthrough_histories(self):
        assert find_critical_pair_naive(op_to_val(queue_ok())) is None
        pair = find_critical_pair_naive(op_to_val(queue_bad()))
        assert pair == CriticalPair(inner=5, outer=3)

    def test_single_value(self):
        h = value_history("queue", [(1, 0, 1, 2, 3)])
        assert find_critical_pair_naive(op_to_val(h)) is None
