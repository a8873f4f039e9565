import pytest

from limon import (
    GenConfig,
    HistoryError,
    brute_force_linearizable,
    check_history,
    gen_linearizable,
    gen_linearizable_with_witness,
    gen_random,
    gen_small_model_family,
    mutate,
    parse_history,
    record_execution,
    sequential_check,
    serialize_history,
    stack_linearizable,
)

from helpers import project


class TestGenLinearizable:
    def test_zero_stretch_is_sequential(self):
        h = gen_linearizable(GenConfig(adt="stack", ops=4, seed=1, stretch=0.0))
        spans = sorted((o.call, o.ret) for o in h.ops)
        for (c1, r1), (c2, r2) in zip(spans, spans[1:]):
            assert r1 < c2
        assert check_history(h).linearizable

    def test_large_stretch_queue(self):
        h, witness = gen_linearizable_with_witness(
            GenConfig(adt="queue", ops=200, seed=5, stretch=6.0))
        assert check_history(h).linearizable
        assert sequential_check(witness, "queue")

    def test_deterministic(self):
        cfg = GenConfig(adt="stack", ops=60, seed=42, stretch=2.0)
        assert serialize_history(gen_linearizable(cfg)) == serialize_history(gen_linearizable(cfg))

    @pytest.mark.parametrize("adt", ["stack", "queue", "set", "multiset"])
    def test_always_monitor_linearizable(self, adt):
        for seed in range(100):
            h = gen_linearizable(GenConfig(adt=adt, ops=40, seed=seed, stretch=1.5))
            assert check_history(h).linearizable, (adt, seed)


class TestSmallModelFamily:
    def test_n2_is_the_sequential_violation(self):
        h = gen_small_model_family(2)
        assert len(h) == 4
        assert not stack_linearizable(h).linearizable
        assert not brute_force_linearizable(h).linearizable

    def test_n3(self):
        h = gen_small_model_family(3)
        assert not stack_linearizable(h).linearizable
        for v in (1, 2, 3):
            sub = project(h, {1, 2, 3} - {v})
            assert stack_linearizable(sub).linearizable, v
            assert brute_force_linearizable(sub).linearizable, v

    def test_n6_middle_removal(self):
        h = gen_small_model_family(6)
        sub = project(h, {1, 2, 4, 5, 6})
        assert stack_linearizable(sub).linearizable
        assert brute_force_linearizable(sub, max_ops=12).linearizable

    def test_structurally_valid(self):
        for n in (2, 3, 10, 33):
            h = gen_small_model_family(n)
            assert parse_history(serialize_history(h, fmt="events")) == h

    def test_rejects_small_n(self):
        with pytest.raises(HistoryError):
            gen_small_model_family(1)


class TestMutate:
    def test_swapped_pops_unlinearizable(self):
        # Sequential two-value stack history; swapping its pop values makes
        # the pops come out in FIFO order, which no stack permits.
        base = parse_history(
            "adt stack\npush 1 0 1\npush 2 2 3\npop 2 4 5\npop 1 6 7\n")
        assert brute_force_linearizable(base).linearizable
        swapped = None
        for seed in range(200):
            m = mutate(base, seed)
            pops_base = [o.event.value for o in base.ops if o.event.kind == "pop"]
            pops_m = [o.event.value for o in m.ops if o.event.kind == "pop"]
            if pops_base != pops_m and sorted(pops_base) == sorted(pops_m):
                swapped = m
                break
        assert swapped is not None
        assert not brute_force_linearizable(swapped).linearizable

    def test_identity_choice_stays_linearizable(self):
        base = gen_linearizable(GenConfig(adt="stack", ops=6, seed=9, stretch=1.0))
        for seed in range(60):
            m = mutate(base, seed)
            if m == base:
                assert check_history(m).linearizable
                return
        pytest.fail("identity mutation never chosen in 60 seeds")

    def test_corpus_monitor_oracle_agreement(self):
        for seed in range(500):
            base = gen_linearizable(
                GenConfig(adt="stack", ops=2 + seed % 7, seed=seed, stretch=1.5))
            m = mutate(base, seed * 31 + 7)
            if len(m) <= 8:
                assert (check_history(m).linearizable
                        == brute_force_linearizable(m, max_ops=12).linearizable), seed


class TestRecorder:
    @pytest.mark.parametrize("impl", ["coarse-stack", "treiber-stack"])
    def test_stack_recordings_linearizable(self, impl):
        for seed in range(3):
            h = record_execution(impl, GenConfig(ops=400, threads=8, seed=seed))
            assert parse_history(serialize_history(h, fmt="events")) == h
            assert check_history(h).linearizable, (impl, seed)

    @pytest.mark.parametrize("impl", ["coarse-queue", "ms-queue"])
    def test_queue_recordings_linearizable(self, impl):
        for seed in range(3):
            h = record_execution(impl, GenConfig(ops=400, threads=8, seed=seed))
            assert parse_history(serialize_history(h, fmt="events")) == h
            assert check_history(h).linearizable, (impl, seed)

    def test_buggy_stack_caught(self):
        caught = False
        for seed in range(100):
            h = record_execution("buggy-stack", GenConfig(ops=48, threads=8, seed=seed))
            if not check_history(h).linearizable:
                caught = True
                break
        assert caught

    def test_values_prediferentiated(self):
        h = record_execution("treiber-stack", GenConfig(ops=300, threads=8, seed=4))
        pushes = [o.event.value for o in h.ops if o.event.kind == "push"]
        assert len(pushes) == len(set(pushes))

    def test_unknown_impl(self):
        with pytest.raises(HistoryError):
            record_execution("splay-tree", GenConfig())


class TestGenRandom:
    def test_deterministic(self):
        assert gen_random("queue", 8, 5) == gen_random("queue", 8, 5)

    def test_includes_popempty_and_unmatched(self):
        seen_popempty = seen_unmatched = False
        for seed in range(200):
            h = gen_random("stack", 6, seed)
            kinds = [o.event.kind for o in h.ops]
            seen_popempty |= "popempty" in kinds
            pushes = {o.event.value for o in h.ops if o.event.kind == "push"}
            pops = {o.event.value for o in h.ops if o.event.kind == "pop"}
            seen_unmatched |= bool(pushes - pops)
        assert seen_popempty and seen_unmatched
