import hashlib
import random

import pytest

from limon import (
    ADTS,
    Event,
    GenConfig,
    History,
    HistoryError,
    Operation,
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
from limon.generators import _rank_ops, _sequential_run

from helpers import project, refuse_records


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

    @pytest.mark.parametrize("adt, first, event, message", [
        ("set", Event("add", 5, True), Event("contains", 5, 1), "operation 1: contains outcome 1$"),
        ("stack", Event("push", 5), Event("add", 5, True), "event kind 'add' illegal for adt 'stack'"),
    ], ids=["int-outcome", "illegal-kind"])
    def test_refuses_a_history_its_columns_refuse(self, adt, first, event, message):
        # Ranked anew, such rows would be columns that no check reads again.
        h = History(adt, (Operation(0, first, 0, 1), Operation(1, event, 2, 3)))
        for seed in range(10):
            with pytest.raises(HistoryError, match=message):
                check_history(mutate(h, seed))


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


# SHA-256 of the serialized histories of each case, in the operation and the
# event format, as the generators made them when they built an Operation per
# operation and drew each stretch with random.randint.
PINNED = {
    "linearizable/stack/0.5": (
        "79940aef91fed1f3b5ebc82a531b98049be38912887657765e03888b8ba89805",
        "038f8d34760432bc383786ee3ccaa7e8d4a4b57f61abe55339e507480c7114ef",
    ),
    "linearizable/stack/2.0": (
        "e596215c35dfea922d530c5218e37da4c41f0945f71d71a1a85d3d27bafa46e3",
        "a04b7c87bc7f7763d52d869406042defca488a49a328bdb2e9c819892c0cbe06",
    ),
    "random/stack": (
        "2ad72f55ef85c24a14c537064e448ddcb78240875a0c6bd16ebba32346156485",
        "efe4e795d8372309d1e388266d3585d96cd98a79550b36ee3219143e261a2886",
    ),
    "linearizable/queue/0.5": (
        "4f4243c0390a230b9508b2a5cb08cb57b930d87b7ebd5d40c625a916f1aa0118",
        "c0415503235c1f46f14efabe0bb81f92cfd67aa553938eeb3f39932fb7f854fa",
    ),
    "linearizable/queue/2.0": (
        "4a68bedc9db2548879a1ffd1d195c4d926ef3005bef4b685df61c5c51de62f7c",
        "5086b04cf38af7a68c6f556f89244d2559155207d32ae8d34ff427b97fd40198",
    ),
    "random/queue": (
        "48779d9bfca052e62ad0dc8e99647ded6e2ae5290594a5001696dec257aa62db",
        "9f65d1bc7fdb558405c45384f7beb6abf2372a1cd92ccd77c21deae95faf1526",
    ),
    "linearizable/set/0.5": (
        "e04138538739dd29f3b2d733f21586e7af1c931b02013f6c80db27a95982fd75",
        "9ad358ce0204dd6536adf710f0cb278be2c212e381e6d44e3619b2a0d3297104",
    ),
    "linearizable/set/2.0": (
        "7270afe8168bb45d62a88b7b2b25fd11522a434a5f746d5a9f62bb1676ceb294",
        "03633bff8f417116dcf3b6445a5018d289b45067bda2f0e97174a529fc1e8d2e",
    ),
    "random/set": (
        "357c7b4da42082d73e01b628d3986ca0dec4181242f844f5f4d68178d3686dc4",
        "f5bdd115957a432397de9153e8490a848f3dfc8c8956e12757e4ea8a5ac048f9",
    ),
    "linearizable/multiset/0.5": (
        "0fb4d59cabc7e5499d2e70337c0d2f9e7f0af21f316bd56efec8f233ffc6ae22",
        "ba6ad9b681b33f8516ead76c6086a18d5a6b0ed3f9ac38850b3fe5db6459dc5b",
    ),
    "linearizable/multiset/2.0": (
        "20a45e598545902ff0931cf78645e46ed3bc3b2a853ea02bae0305c146cb6fce",
        "4b0514c186934fad3e7f79ac39465f81fcee29e5969a36df2ac4fc4b7adca7c2",
    ),
    "random/multiset": (
        "5c339eff66891d2d616942d18c88a1eeb4d037e109f9ebe3c8e6f42f4e88676b",
        "b002dcfa0872dddc226757ef84044a0b7bd7df219b9791927b8aaceb547b87aa",
    ),
    "mutate/stack": (
        "62da17e1c72fe755ec941b60c250d58ca6cd7ad27936bab917eda9426c5ae861",
        "bf3e6495757b16d1c9bbb4ede51bcb4916e15e81af1b65398cf9b666abc7c549",
    ),
    "mutate/set": (
        "df700e822ef62c6befe2d2b882ec1e04f32a306f487326944325559203bb71fb",
        "87de4ee31bf76102936137da2a5522fe032de97cce7877c8c6310226f0aec8c9",
    ),
    "small-model/2": (
        "c6b109c445a83a02a264d43f7f033ca18ef0c0dc7ea6c63568f2c73fbd4eb5ff",
        "7d6bdc7091142fd757d9ac789dea5f52d0a8302cc9f5058e4176f3d62e4a56a9",
    ),
    "small-model/3": (
        "401d49c251d398923c04f4e00814fa740e1de1e13818fdbcee8669ccec73001f",
        "0d48aa8bf25527fea5a8963cb25e704908b81ab47f3293f3dcf80afd53969b20",
    ),
    "small-model/50": (
        "33e48736991c609c0b6e033c63cba35927ec65bdb70a51a9e66af469b6d6cae1",
        "2ffceccfa0867284c6b71443e6bebf48ef1a1d72d24848287ce0b060e52e5747",
    ),
}


def pinned_histories(case: str) -> list[History]:
    what, arg, *stretch = case.split("/")
    if what == "linearizable":
        cfg = GenConfig(adt=arg, ops=2000, values=250, seed=11, stretch=float(stretch[0]))
        return [gen_linearizable(cfg)]
    if what == "random":
        return [gen_random(arg, 2000, 11)]
    if what == "mutate":
        base = gen_linearizable(GenConfig(adt=arg, ops=200, seed=5, stretch=1.5))
        return [mutate(base, seed) for seed in range(10)]
    return [gen_small_model_family(int(arg))]


def every_generator():
    """A history of each generator, of each data type it makes."""
    for adt in ADTS:
        for stretch in (0.0, 1.0, 3.0):
            yield gen_linearizable(GenConfig(adt=adt, ops=300, seed=7, stretch=stretch))
        yield gen_random(adt, 300, 7)
        base = gen_linearizable(GenConfig(adt=adt, ops=60, seed=8, stretch=1.5))
        yield from (mutate(base, seed) for seed in range(8))
    yield from map(gen_small_model_family, (2, 3, 50))
    for impl in ("coarse-stack", "treiber-stack", "ms-queue", "buggy-stack"):
        yield record_execution(impl, GenConfig(ops=300, threads=4, seed=2))


class TestColumnBuilt:
    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_output_is_pinned(self, case):
        hs = pinned_histories(case)
        for fmt, want in zip(("ops", "events"), PINNED[case]):
            text = "".join(serialize_history(h, fmt) for h in hs)
            assert hashlib.sha256(text.encode()).hexdigest() == want, fmt

    @pytest.mark.parametrize("spread", [1, 2, 3, 1000, 1024, 2000])
    def test_linearizable_stamps_are_randint_draws(self, spread):
        # Powers of two are where the rejection of a draw starts and stops.
        cfg = GenConfig(adt="queue", ops=400, seed=spread, stretch=spread / 1000)
        assert int(cfg.stretch * 1000) == spread
        rng = random.Random(cfg.seed)
        rows = _sequential_run(cfg, rng)
        calls, rets = [], []
        for point in range(1000, 1000 * len(rows) + 1, 1000):
            calls.append(point - rng.randint(1, spread))
            rets.append(point + rng.randint(1, spread))
        want = _rank_ops(calls, rets, rows, "queue").columns
        assert list(map(list, gen_linearizable(cfg).columns)) == list(map(list, want))

    def test_columns_equal_the_checked_conversion(self):
        for h in every_generator():
            checked = History(h.adt, h.ops).columns
            for name, got, want in zip(h.columns._fields, h.columns, checked):
                assert list(got) == list(want), (h.adt, name)

    def test_generators_build_no_records(self, monkeypatch):
        refuse_records(monkeypatch)
        for adt in ADTS:
            h = gen_linearizable(GenConfig(adt=adt, ops=200, seed=3))
            for fmt in ("ops", "events"):
                serialize_history(h, fmt)
                serialize_history(gen_random(adt, 200, 3), fmt)
                serialize_history(mutate(h, 3), fmt)
        serialize_history(gen_small_model_family(9), "events")
        with pytest.raises(AssertionError, match="record built"):  # the guard is live
            h.ops
        with pytest.raises(AssertionError, match="record built"):
            gen_linearizable_with_witness(GenConfig(ops=5))

    def test_rank_refuses_a_call_after_its_return(self):
        with pytest.raises(HistoryError, match="does not call before it returns"):
            _rank_ops([0, 5], [3, 4], [("push", 1, None), ("pop", 1, None)], "stack")
        # Of the two stamps 2, the call ranks first: the operations overlap.
        h = _rank_ops([0, 2], [2, 3], [("push", 1, None), ("pop", 1, None)], "stack")
        assert (h.columns.call, h.columns.ret) == ([0, 1], [2, 3])
