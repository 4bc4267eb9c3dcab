import gc
from collections import Counter

import numpy as np
import pytest

from polyseq import ReferenceModel, StarLinkGraph, parse, star_link
from polyseq import graphs, verify
from polyseq.context import neighbour_table
from polyseq.corpus import corpus, default_twin_pairs
from polyseq.graphs import MolGraph, featurize, repeat_monomer
from polyseq.nets import forward_polymer, gin_layer
from polyseq.verify import (CaseResult, gin_deviation, lga_deviation,
                            theorem1_suite, theorem2_suite, twin_suite)

SPECIAL = ["*C*", "*CC*", "*C12CC(C1)C2*", "*CNO*", "*C1CC2CCC1C2*",
           "*C(*)O"]


@pytest.fixture(scope="module")
def model():
    return ReferenceModel.generate(seed=9, d=16, L=3, d_thres=3)


def _reference_gin_deviation(model, g, L):
    """One pass over the linked graph and the oracle's chain side by side:
    their own neighbour tables stacked, the chain's shifted past the linked
    graph's atoms, with every pad re-pointed one past the last column."""
    star = star_link(g)
    n = star.monomer.n
    chain, mid = verify._unroll(star, L)
    x = model["input_proj"] @ featurize(star.as_graph())
    x = np.tile(x, (1, 1 + chain.n // n))
    nbr_s, _ = neighbour_table(star.as_graph())
    nbr_u, _ = neighbour_table(chain)
    width = max(nbr_s.shape[1], nbr_u.shape[1])
    nbr = np.full((n + chain.n, width), n + chain.n)
    nbr[:n, :nbr_s.shape[1]] = np.where(nbr_s == n, n + chain.n, nbr_s)
    nbr[n:, :nbr_u.shape[1]] = nbr_u + n
    for l in range(L):
        args = (model[f"gin{l}.w1"], model[f"gin{l}.b1"],
                model[f"gin{l}.w2"], model[f"gin{l}.b2"])
        x = gin_layer(nbr, x, *args)
    return float(np.abs(x[:, n + mid:2 * n + mid] - x[:, :n]).max())


class TestMessagePassingOracle:
    def test_gin_deviation_keeps_its_value(self, model):
        for s in corpus(12, seed=5) + SPECIAL:
            for L in (1, 2, 3):
                assert (gin_deviation(model, parse(s), L)
                        == _reference_gin_deviation(model, parse(s), L))

    def test_theorem1_runs_one_pass_per_monomer(self, model, monkeypatch):
        calls = {"tables": 0, "layers": 0}

        def tables(g):
            calls["tables"] += 1
            return neighbour_table(g)

        def layer(*args):
            calls["layers"] += 1
            return gin_layer(*args)

        monkeypatch.setattr(verify, "neighbour_table", tables)
        monkeypatch.setattr(verify, "gin_layer", layer)
        monomers = [parse(s) for s in corpus(6, seed=5) + SPECIAL]
        rep = theorem1_suite(monomers, model)
        # the star and its unroll as one union, through model.L layers
        assert calls == {"tables": len(monomers),
                         "layers": model.L * len(monomers)}
        assert [c.label for c in rep.cases] == ["L=1", "L=2", "L=3"]
        assert rep.passed and max(c.max_dev for c in rep.cases) < 1e-12


class TestAttentionOracle:
    @pytest.mark.parametrize("d_thres", [2, 3, 4])
    def test_periodic_unit_matches_the_unroll(self, model, d_thres):
        for s in corpus(20, seed=6) + SPECIAL:
            assert lga_deviation(model, parse(s), model.L, d_thres) < 1e-9, s

    def test_negative_control_still_deviates(self, model):
        assert lga_deviation(model, parse("*CNO*"), model.L, 3,
                             auto_repeat=False) > 1e-6

    @pytest.mark.parametrize("auto_repeat", [True, False])
    def test_context_kinds(self, model, monkeypatch, auto_repeat):
        # the linked side is the forward pass's periodic context, or with
        # auto_repeat=False the cyclic context of the linked graph, and
        # the chain follows it in one union
        seen = []

        def recorded(graphs, d_thres):
            seen.append([type(g) for g in graphs])
            return build(graphs, d_thres)

        build = verify.build_context
        monkeypatch.setattr(verify, "build_context", recorded)
        lga_deviation(model, parse("*CC*"), 1, 3, auto_repeat=auto_repeat)
        first = StarLinkGraph if auto_repeat else MolGraph
        assert len(seen) == 1 and len(seen[0]) == 2
        assert seen[0][0] is first and issubclass(seen[0][1], MolGraph)


class TestFixedInputs:
    """Each suite reads only its model's weights and depth; thresholds,
    negative control and tolerance are its own."""

    def test_twin_suite_ignores_the_model_threshold(self):
        pairs = default_twin_pairs()
        reps = [twin_suite(pairs, ReferenceModel.generate(0, d_thres=dt))
                for dt in (2, 4)]
        assert reps[0].passed and reps[1].lines() == reps[0].lines()

    def test_theorem2_negative_control(self, model):
        monomers = [parse(s) for s in corpus(6, seed=5) + SPECIAL]
        worst = [max(lga_deviation(model, g, model.L, dt) for g in monomers)
                 for dt in (2, 3)]
        neg = lga_deviation(model, parse("*CNO*"), model.L, 3,
                            auto_repeat=False)
        detail = f"{len(monomers)} monomers"
        assert theorem2_suite(monomers, model).cases == [
            CaseResult("d_thres=2", worst[0], True, detail),
            CaseResult("d_thres=3", worst[1], True, detail),
            CaseResult("negative-control", neg, True,
                       "precondition violated, must deviate")]


class TestOnePass:
    """Each oracle call builds one table or context for the union [linked
    side, chain] and runs each layer once over it."""

    LINES = corpus(12, seed=6) + SPECIAL

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("build_context", "neighbour_table", "gin_layer",
                     "local_attention_layer"):
            monkeypatch.setattr(verify, name,
                                counted(name, getattr(verify, name)))
        return calls

    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_gin_deviation(self, model, calls, L):
        for s in self.LINES:
            calls.clear()
            assert gin_deviation(model, parse(s), L) < 1e-12, s
            assert calls == {"neighbour_table": 1, "gin_layer": L}, s

    @pytest.mark.parametrize("d_thres", [2, 3, 4])
    def test_lga_deviation(self, model, calls, d_thres):
        for s in self.LINES:
            calls.clear()
            assert lga_deviation(model, parse(s), model.L, d_thres) < 1e-12
            assert calls == {"build_context": 1,
                             "local_attention_layer": model.L}, s

    def test_negative_control(self, model, calls):
        # the cyclic side's rows are narrower than the chain's
        neg = lga_deviation(model, parse("*CNO*"), model.L, 3,
                            auto_repeat=False)
        assert neg > verify.DISTINCT_FLOOR
        assert calls == {"build_context": 1,
                         "local_attention_layer": model.L}

    def test_no_search_on_the_chain(self, model, monkeypatch):
        # the chain is an unroll of a connected unit, so it is connected
        # without a search of its own
        searched = []
        search = MolGraph._depth_first

        def counted(self, first):
            searched.append(self)
            return search(self, first)

        chains = []
        unroll = verify._unroll

        def recorded(star, reach):
            chains.append(unroll(star, reach))
            return chains[-1]

        monkeypatch.setattr(MolGraph, "_depth_first", counted)
        monkeypatch.setattr(verify, "_unroll", recorded)
        for s in self.LINES:
            g = parse(s)
            del searched[:], chains[:]
            lga_deviation(model, g, model.L, 3)
            gin_deviation(model, g, model.L)
            assert len(chains) == 2 and searched, s
            assert not [h for h in searched for c, _ in chains if h is c], s


class TestSharedUnit:
    """The five oracle calls of a benchmark item on one monomer link,
    featurize and unroll it once: what the star derives is memoised on
    the unit."""

    LINES = corpus(12, seed=6) + SPECIAL

    @staticmethod
    def item(model, g):
        return ([gin_deviation(model, g, L) for L in (1, 2, 3)]
                + [lga_deviation(model, g, 3, dt) for dt in (2, 3)])

    def test_builds_each_once(self, model, monkeypatch):
        built = {"featurize": [], "repeat_monomer": []}
        for name, log in built.items():
            def counted(*args, _orig=getattr(graphs, name), _log=log):
                _log.append(args)
                return _orig(*args)

            monkeypatch.setattr(graphs, name, counted)
        for s in self.LINES:
            g = parse(s)
            for log in built.values():
                log.clear()
            devs = self.item(model, g)
            star = star_link(g)
            assert len(built["featurize"]) == 1, s
            # one unroll per copy count: gin reaches L = 1..3 hops,
            # attention 3 * (d_thres - 1)
            d_b = star.monomer.boundary_distance()
            copies = {2 * -(-reach // (d_b + 1)) + 1 for reach in (1, 2, 3, 6)}
            repeats = built["repeat_monomer"]
            unrolls = sorted(k for u, k in repeats if u is star.monomer)
            assert unrolls == sorted(copies), s
            # and star_link repeats a unit whose ends coincide or bond once
            auto = [(u, k) for u, k in repeats if u is not star.monomer]
            k = star.auto_repeat_k
            assert auto == ([(g, k)] if k > 1 else []), s
            # the memo changes no bit, fresh or hit
            assert self.item(model, g) == devs, s
            assert self.item(model, parse(s)) == devs, s

    def test_memo_leaves_no_cycles(self, model):
        # the memo refers to nothing that refers back to the unit, so the
        # forward pass and the oracles leave nothing for the collector
        lines = corpus(100, seed=7) + ["*C*", "*CC*", "*C(*)O"]
        gc.collect()
        gc.disable()
        try:
            for s in lines:
                g = parse(s)
                forward_polymer(model, g)
                self.item(model, g)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestUnroll:
    """The oracles' unroll is as short as the receptive field allows."""

    def test_ends_lie_past_the_reach(self):
        # on two more copies, the outermost ones sit more than reach hops
        # from the middle copy: no atom past the unroll's ends is reachable
        for s in corpus(30, seed=8) + SPECIAL:
            star = star_link(parse(s))
            n = star.monomer.n
            for reach in range(1, 10):
                chain, mid = verify._unroll(star, reach)
                copies = chain.n // n
                assert chain.n == copies * n and mid == copies // 2 * n
                wider = repeat_monomer(star.monomer, copies + 2)
                dist = [wider.bfs_distances(mid + n + i) for i in range(n)]
                ends = [j for j in range(wider.n) if j < n or j >= wider.n - n]
                assert min(d[j] for d in dist for j in ends) > reach, s
                # one copy fewer on either side lets an end into the reach
                if copies > 1:
                    assert min(d[j] for d in dist
                               for j in range(n, 2 * n)) <= reach, s

    def test_one_copy_fewer_deviates(self, model, monkeypatch):
        g = parse("*CNO*")
        devs = [gin_deviation(model, g, 3)] + [
            lga_deviation(model, g, 3, dt) for dt in (2, 3)]
        assert max(devs) < 1e-9
        unroll = verify._unroll

        def shorter(star, reach):
            chain, mid = unroll(star, reach)
            n = star.monomer.n
            return repeat_monomer(star.monomer, chain.n // n - 2), mid - n

        monkeypatch.setattr(verify, "_unroll", shorter)
        devs = [gin_deviation(model, g, 3)] + [
            lga_deviation(model, g, 3, dt) for dt in (2, 3)]
        assert min(devs) > verify.DISTINCT_FLOOR
