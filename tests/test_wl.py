import functools
import hashlib
import random

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
from polyseq import psmiles, wl
from polyseq.cli import main
from polyseq.corpus import corpus, ring_pair_seed
from polyseq.graphs import relabel
from polyseq.psmiles import canonical_form, random_augment
from polyseq.wl import (_component_without, _extract, initial_colors,
                        separating_bridges, translation_variants)


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


class TestGoldenKeys:
    @pytest.mark.parametrize("line, key", [
        ("*CCO*", "4ee4ecea96439cb9d08911c1988ac28a"),
        ("*CONO*", "a786b18bd300ebd6753be8568fe12f3c"),
        ("*c1ccc(*)cc1", "1625c4e5dee41a65b74c9fb8301b80c2"),
        ("*CC(C)OC(=O)*", "222f0f649215509cb7fcb71c58eadc60"),
        ("*CC1(C2CCC3(CCC3)C2)CC1*", "3edc85e17eb111f3a338ccbb00fdc045"),
    ])
    def test_canonical_form_pinned(self, line, key):
        assert canonical_form(line) == key


class TestBoundaryBridges:
    def test_disconnected_monomer_counts_every_bridge(self):
        g = MonomerGraph([Atom("C")] * 5,
                         [Bond(0, 1), Bond(1, 2), Bond(3, 4)], 0, 4)
        assert separating_bridges(g) == [(0, 1), (1, 2), (3, 4)]
        assert len(translation_variants(g)) == 4

    def test_head_equals_tail(self):
        g = MonomerGraph([Atom("C")] * 3, [Bond(0, 1), Bond(1, 2)], 1, 1)
        assert separating_bridges(g) == []
        assert len(translation_variants(g)) == 1


# The refinement and the boundary-bridge search as they were before each
# distinct signature was hashed once; kept as the reference.

def _reference_digest(payload):
    return hashlib.blake2b(payload.encode(), digest_size=16).digest()


def _reference_initial_colors(g, extra=None):
    out = []
    for i, atom in enumerate(g.atoms):
        key = atom.attr_key()
        if extra is not None:
            key = key + (extra(i),)
        out.append(_reference_digest(repr(key)))
    return out


def _reference_refine_once(g, colors):
    adj = g.adjacency()
    out = []
    for i in range(g.n):
        nbr = sorted((order, colors[j].hex()) for j, order in adj[i])
        out.append(_reference_digest(f"{colors[i].hex()}|{nbr}"))
    return out


def _reference_partition(colors):
    groups = {}
    for i, c in enumerate(colors):
        groups.setdefault(c, []).append(i)
    return sorted(tuple(v) for v in groups.values())


def _reference_wl_refine(g, init=None, rounds=None):
    if init is None:
        colors = _reference_initial_colors(g)
    elif init and isinstance(init[0], bytes):
        colors = list(init)
    else:
        colors = [_reference_digest(repr(v)) for v in init]
    if rounds is not None:
        for _ in range(rounds):
            colors = _reference_refine_once(g, colors)
        return wl.ColoringResult(colors, wl.ColoringResult._hist(colors),
                                 rounds)
    done = 0
    for t in range(1, g.n + 2):
        nxt = _reference_refine_once(g, colors)
        if _reference_partition(nxt) == _reference_partition(colors):
            done = t
            break
        colors = nxt
        done = t
    return wl.ColoringResult(colors, wl.ColoringResult._hist(colors), done)


def _reference_isomorphic(g1, g2, extra1=None, extra2=None,
                          node_cap=wl.NODE_CAP):
    if max(g1.n, g2.n) > node_cap:
        raise BudgetExceeded(f"graph exceeds {node_cap}-node search budget")
    if g1.n != g2.n or len(g1.bonds) != len(g2.bonds):
        return False, None
    c1 = _reference_wl_refine(g1, init=_reference_initial_colors(g1, extra1))
    c2 = _reference_wl_refine(g2, init=_reference_initial_colors(g2, extra2))
    if c1.histogram != c2.histogram:
        return False, None
    by_color = {}
    for j, c in enumerate(c2.colors):
        by_color.setdefault(c, []).append(j)
    order = []
    seen = [False] * g1.n
    for root in range(g1.n):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            order.append(u)
            for v in g1.neighbors(u):
                if not seen[v]:
                    seen[v] = True
                    queue.append(v)
    adj1 = {i: {j: o for j, o in g1.adjacency()[i]} for i in range(g1.n)}
    adj2 = {i: {j: o for j, o in g2.adjacency()[i]} for i in range(g2.n)}
    mapping = [-1] * g1.n
    used = [False] * g2.n

    def feasible(u, v):
        if c1.colors[u] != c2.colors[v] or len(adj1[u]) != len(adj2[v]):
            return False
        for w, o in adj1[u].items():
            mw = mapping[w]
            if mw >= 0 and adj2[v].get(mw) != o:
                return False
        for w2, o in adj2[v].items():
            if used[w2]:
                w1 = mapping.index(w2)
                if adj1[u].get(w1) != o:
                    return False
        return True

    def backtrack(pos):
        if pos == len(order):
            return True
        u = order[pos]
        for v in by_color.get(c1.colors[u], []):
            if not used[v] and feasible(u, v):
                mapping[u] = v
                used[v] = True
                if backtrack(pos + 1):
                    return True
                mapping[u] = -1
                used[v] = False
        return False

    if backtrack(0):
        return True, mapping
    return False, None


def _reference_separating_bridges(g):
    out = []
    for (x, y) in sorted(g.bridges()):
        comp = _component_without(g, (x, y), g.head)
        if g.tail not in comp:
            out.append((x, y))
    return out


def _reference_translation_variants(g):
    variants = [g]
    for (x, y) in _reference_separating_bridges(g):
        head_side = _component_without(g, (x, y), g.head)
        hx, ty = (x, y) if x in head_side else (y, x)
        bonds = [b for b in g.bonds if b.pair() != (min(x, y), max(x, y))]
        bonds.append(Bond(g.head, g.tail, "single"))
        variants.append(MonomerGraph(g.atoms, bonds, ty, hx,
                                     g.stereo_discarded))
    return variants


def _reference_primitive_reduce(g):
    n = g.n
    for k in range(n, 1, -1):
        if n % k != 0:
            continue
        usize = n // k
        for (x, y) in _reference_separating_bridges(g):
            head_side = _component_without(g, (x, y), g.head)
            if len(head_side) != usize:
                continue
            hx = x if x in head_side else y
            unit = _extract(g, head_side, g.head, hx)
            if unit.n > wl.NODE_CAP or g.n > wl.NODE_CAP:
                continue
            if monomer_isomorphic(repeat_monomer(unit, k), g,
                                  allow_swap=False):
                return unit
    return g


def _reference(fn, *args):
    """``fn(*args)`` with every rewritten ``wl`` function swapped for its
    reference, including the bindings ``psmiles`` imported."""
    with pytest.MonkeyPatch.context() as mp:
        for name, ref in [("initial_colors", _reference_initial_colors),
                          ("wl_refine", _reference_wl_refine),
                          ("isomorphic", _reference_isomorphic),
                          ("separating_bridges", _reference_separating_bridges),
                          ("translation_variants",
                           _reference_translation_variants),
                          ("primitive_reduce", _reference_primitive_reduce)]:
            mp.setattr(wl, name, ref)
            if hasattr(psmiles, name):
                mp.setattr(psmiles, name, ref)
        return fn(*args)


def _coloring(res):
    return res.colors, res.histogram, res.rounds


def _monomer(g):
    return tuple(g.atoms), tuple(g.bonds), g.head, g.tail


def _reduction(reduce, g):
    try:
        unit = reduce(g)
    except KeyError:  # a disconnected monomer can cut off a lone boundary
        return "KeyError"
    return unit is g, _monomer(unit)


def _disconnected_monomers():
    atoms = [Atom("C")] * 5
    return [MonomerGraph(atoms, [Bond(0, 1), Bond(1, 2), Bond(3, 4)], 0, 4),
            MonomerGraph(atoms, [Bond(0, 1), Bond(2, 3), Bond(3, 4),
                                 Bond(2, 4)], 1, 3),
            MonomerGraph(atoms, [Bond(1, 2), Bond(3, 4)], 0, 4)]


@functools.lru_cache(maxsize=None)
def _corpus_monomers():
    """400 corpus lines and two random_augment rewrites of each."""
    rng = random.Random(7)
    out = []
    for line in corpus(400, seed=7):
        g = parse(line)
        out += [g, random_augment(g, rng), random_augment(g, rng)]
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _refinement_graphs():
    monomers = _corpus_monomers()
    return (monomers + tuple(star_link(g).as_graph() for g in monomers)
            + tuple(_disconnected_monomers())
            + (MolGraph([], []), cycle("CCCCCC"), ring_pair_seed(5, 6)))


class TestReferenceRefinement:
    def test_refine_to_stability(self):
        for g in _refinement_graphs():
            assert _coloring(wl_refine(g)) == _coloring(_reference_wl_refine(g))

    def test_empty_graph(self):
        g = MolGraph([], [])
        assert _reference_wl_refine(g).rounds == 1
        assert _coloring(wl_refine(g)) == _coloring(_reference_wl_refine(g))

    @pytest.mark.parametrize("rounds", [0, 3])
    def test_fixed_rounds(self, rounds):
        for g in _refinement_graphs():
            assert (_coloring(wl_refine(g, rounds=rounds))
                    == _coloring(_reference_wl_refine(g, rounds=rounds)))

    @pytest.mark.parametrize("rounds", [None, 2])
    def test_custom_init(self, rounds):
        for g in _refinement_graphs()[1::2]:
            hashables = [(i % 3, a.element) for i, a in enumerate(g.atoms)]
            short = [bytes([i % 4]) for i in range(g.n)]
            pinned = initial_colors(g, lambda i: i == 0)
            for init in (hashables, short, pinned):
                assert (_coloring(wl_refine(g, init=init, rounds=rounds))
                        == _coloring(_reference_wl_refine(g, init=init,
                                                          rounds=rounds)))

    def test_initial_colors(self):
        for g in _corpus_monomers()[:300]:
            role = wl._boundary_role(g)
            assert initial_colors(g) == _reference_initial_colors(g)
            assert (initial_colors(g, role)
                    == _reference_initial_colors(g, role))


class TestReferenceMonomerFunctions:
    def test_boundary_bridges(self):
        for g in _corpus_monomers() + tuple(_disconnected_monomers()):
            assert separating_bridges(g) == _reference_separating_bridges(g)
            assert ([_monomer(v) for v in translation_variants(g)]
                    == [_monomer(v)
                        for v in _reference_translation_variants(g)])
        for g in _corpus_monomers()[:300]:
            assert ([write(v) for v in translation_variants(g)]
                    == [write(v) for v in _reference_translation_variants(g)])

    def test_primitive_reduce(self):
        graphs = list(_corpus_monomers()[::3]) + _disconnected_monomers()
        graphs += [repeat_monomer(g, k) for g in graphs[:40] for k in (2, 3)]
        for g in graphs:
            assert (_reduction(primitive_reduce, g)
                    == _reference(_reduction, _reference_primitive_reduce, g))

    def test_canonical_form(self):
        for g in _corpus_monomers()[:300]:
            assert canonical_form(g) == _reference(canonical_form, g)

    def test_canon_command(self, tmp_path, capsys):
        rng = random.Random(30)
        lines = []
        for line in corpus(10, seed=30):
            g = parse(line)
            lines += [line, write(random_augment(g, rng)),
                      write(repeat_monomer(g, 2))]
        path = tmp_path / "in.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["canon", str(path)]) == 0
        assert (capsys.readouterr().out.splitlines()
                == [_reference(canonical_form, line) for line in lines])

    @pytest.mark.parametrize("sizes", [(5, 6), (5, 5)])
    def test_generate_twins(self, sizes):
        def summary(pairs):
            return [(_monomer(p.monomer_a), _monomer(p.monomer_b), p.witness,
                     tuple(p.shared_star.as_graph().bonds)) for p in pairs]

        h = ring_pair_seed(*sizes)
        assert (summary(generate_twins(h))
                == summary(_reference(generate_twins, h)))


class TestReferenceIsomorphic:
    def test_relabelled_corpus(self):
        rng = random.Random(31)
        for line in corpus(200, seed=31):
            g = parse(line)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert isomorphic(g, h) == _reference_isomorphic(g, h)
            role_g, role_h = wl._boundary_role(g), wl._boundary_role(h)
            assert (isomorphic(g, h, role_g, role_h)
                    == _reference_isomorphic(g, h, role_g, role_h))

    def test_negative_pair(self):
        a = cycle("CCCCCC")
        b = MolGraph([Atom("C")] * 6, [Bond(0, 1), Bond(1, 2), Bond(2, 0),
                                       Bond(3, 4), Bond(4, 5), Bond(5, 3)])
        assert isomorphic(a, b) == _reference_isomorphic(a, b) == (False, None)

    def test_relabelled_uniform_rings(self):
        # One color class everywhere, so the search has to backtrack.
        def rings(*sizes):
            bonds, start = [], 0
            for k in sizes:
                bonds += [Bond(start + i, start + (i + 1) % k)
                          for i in range(k)]
                start += k
            return MolGraph([Atom("C")] * start, bonds)

        rng = random.Random(5)
        for g in (rings(3, 3, 6), rings(6, 3, 3), rings(4, 8, 4),
                  ring_pair_seed(5, 5), ring_pair_seed(5, 6)):
            for _ in range(20):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = relabel(g, perm)
                found = isomorphic(g, h)
                assert found[0]
                assert found == _reference_isomorphic(g, h)

    @pytest.mark.parametrize("sizes", [(5, 6), (5, 5)])
    def test_marked_seed_graphs(self, sizes):
        h = ring_pair_seed(*sizes)
        bridge_set = h.bridges()
        marked = [MolGraph(h.atoms, [
            Bond(b.u, b.v, "cut-mark" if b.pair() == e.pair() else b.order)
            for b in h.bonds]) for e in h.bonds if e.pair() not in bridge_set]
        for m1 in marked:
            for m2 in marked:
                assert isomorphic(m1, m2) == _reference_isomorphic(m1, m2)
