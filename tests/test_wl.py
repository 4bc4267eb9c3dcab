import pytest

from polyseq import (
    Atom,
    Bond,
    BudgetExceeded,
    MolGraph,
    MonomerGraph,
    canonical_key,
    generate_twins,
    isomorphic,
    monomer_isomorphic,
    parse,
    polymer_equal,
    primitive_reduce,
    repeat_monomer,
    star_link,
    wl_refine,
    write,
)
from polyseq.corpus import ring_pair_seed
from polyseq.graphs import relabel


def cycle(elements):
    n = len(elements)
    return MolGraph([Atom(e) for e in elements],
                    [Bond(i, (i + 1) % n) for i in range(n)])


class TestRefinement:
    def test_chain_refines_in_two_rounds(self):
        g = MolGraph([Atom(e) for e in "CONO"],
                     [Bond(0, 1), Bond(1, 2), Bond(2, 3)])
        res = wl_refine(g)
        assert len(set(res.colors)) == 4
        assert res.rounds == 2

    def test_uniform_cycle_single_class(self):
        res = wl_refine(cycle("CCCC"))
        assert len(set(res.colors)) == 1

    def test_histogram_is_cross_graph_comparable(self):
        g1 = cycle("CNCN")
        g2 = relabel(cycle("CNCN"), [2, 1, 0, 3])
        assert wl_refine(g1).histogram == wl_refine(g2).histogram

    def test_fixed_rounds(self):
        g = cycle("CCCCCC")
        r = wl_refine(g, rounds=3)
        assert r.rounds == 3

    def test_custom_init(self):
        g = cycle("CCCC")
        r = wl_refine(g, init=[0, 0, 1, 1])
        assert len(set(r.colors)) > 1


class TestIsomorphic:
    def test_positive_with_mapping(self):
        g = parse("*CC(C)OC(=O)*")
        perm = [5, 2, 0, 3, 1, 4]
        h = relabel(g, perm)
        ok, mapping = isomorphic(g, h)
        assert ok
        for b in g.bonds:
            assert h.bond_order(mapping[b.u], mapping[b.v]) == b.order

    def test_negative_same_histogram_sizes(self):
        assert not isomorphic(cycle("CCCCCC"),
                              MolGraph([Atom("C")] * 6,
                                       [Bond(0, 1), Bond(1, 2), Bond(2, 0),
                                        Bond(3, 4), Bond(4, 5),
                                        Bond(5, 3)]))[0]

    def test_attribute_sensitivity(self):
        assert not isomorphic(cycle("CCCN"), cycle("CCCO"))[0]
        a = MolGraph([Atom("C"), Atom("C")], [Bond(0, 1, "double")])
        b = MolGraph([Atom("C"), Atom("C")], [Bond(0, 1)])
        assert not isomorphic(a, b)[0]

    def test_budget(self):
        big = repeat_monomer(parse("*CC*"), 40)
        with pytest.raises(BudgetExceeded):
            isomorphic(big, big)

    def test_boundary_respect(self):
        a = parse("*CCO*")
        b = parse("*OCC*")
        assert not monomer_isomorphic(a, b, allow_swap=False)
        assert monomer_isomorphic(a, b)  # reversed orientation matches


class TestCanonicalKey:
    def test_invariant_under_relabeling(self):
        g = parse("*CC(c1ccccc1)O*")
        h = relabel(g, [8, 3, 1, 0, 2, 4, 7, 6, 5])
        assert canonical_key(g) == canonical_key(h)

    def test_differs_for_different_graphs(self):
        assert canonical_key(cycle("CCCC")) != canonical_key(cycle("CCCN"))


class TestPrimitiveReduce:
    def test_reduces_repeats(self):
        g = parse("*CONO*")
        for k in (2, 3, 4):
            red = primitive_reduce(repeat_monomer(g, k))
            assert red.n == 4
            assert polymer_equal(red, g)

    def test_irreducible_untouched(self):
        g = parse("*CC(C)O*")
        assert primitive_reduce(g) is g

    def test_no_false_reduction(self):
        # period-2 pattern that is not a graph repeat of its half
        g = parse("*CONN*")
        assert primitive_reduce(g).n == 4


class TestPolymerEqual:
    def test_translations_equal(self):
        a = parse("*CONO*")
        for s in ("*ONOC*", "*NOCO*", "*OCON*"):
            assert polymer_equal(a, parse(s))

    def test_repeat_equal(self):
        assert polymer_equal(parse("*CONOCONO*"), parse("*CONO*"))

    def test_orientation_equal(self):
        assert polymer_equal(parse("*CCO*"), parse("*OCC*"))

    def test_different_polymers(self):
        assert not polymer_equal(parse("*CONO*"), parse("*CONN*"))
        assert not polymer_equal(parse("*CCO*"), parse("*CCN*"))

    def test_same_star_graph_different_polymer(self):
        # both cuts of the two-ring seed close to the same linked graph
        pairs = generate_twins(ring_pair_seed(5, 6))
        p = pairs[0]
        assert not polymer_equal(p.monomer_a, p.monomer_b)


class TestTwins:
    def test_seed_yields_pairs(self):
        pairs = generate_twins(ring_pair_seed(5, 6))
        assert len(pairs) >= 5

    def test_pairs_verified(self):
        pairs = generate_twins(ring_pair_seed(5, 6))[:4]
        for p in pairs:
            sa = star_link(p.monomer_a).as_graph()
            sb = star_link(p.monomer_b).as_graph()
            assert isomorphic(sa, sb)[0]
            assert 2 <= p.witness <= 6
            ha = wl_refine(repeat_monomer(p.monomer_a, p.witness)).histogram
            hb = wl_refine(repeat_monomer(p.monomer_b, p.witness)).histogram
            assert ha != hb
            if p.witness > 2:
                k = p.witness - 1
                assert (wl_refine(repeat_monomer(p.monomer_a, k)).histogram
                        == wl_refine(repeat_monomer(p.monomer_b, k)).histogram)

    def test_symmetric_cuts_rejected(self):
        # cutting a square with a marker substituent at opposite edges gives
        # translations of one polymer, not twins
        atoms = [Atom("C")] * 5
        bonds = [Bond(0, 1), Bond(1, 2), Bond(2, 3), Bond(0, 3), Bond(1, 4)]
        assert generate_twins(MolGraph(atoms, bonds)) == []

    def test_acyclic_seed_has_no_cuts(self):
        g = MolGraph([Atom("C"), Atom("C")], [Bond(0, 1)])
        assert generate_twins(g) == []

    def test_pair_monomers_serialize(self):
        p = generate_twins(ring_pair_seed(5, 6))[0]
        ra = parse(write(p.monomer_a))
        assert monomer_isomorphic(ra, p.monomer_a, allow_swap=False)
