import functools
import gc
import hashlib
import math
import random
from collections import Counter

import pytest

from polyseq import (
    Atom,
    Bond,
    BudgetExceeded,
    DisconnectedError,
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
from polyseq import corpus as corpus_mod
from polyseq.corpus import corpus, ring_pair_seed
from polyseq.graphs import relabel
from polyseq.psmiles import augment_rewrites, canonical_form, random_augment
from polyseq.wl import (_extract, initial_colors, separating_bridges,
                        translation_variants)


def cycle(elements):
    n = len(elements)
    return MolGraph([Atom(e) for e in elements],
                    [Bond(i, (i + 1) % n) for i in range(n)])


class TestRefinement:
    def test_chain_refines_to_single_atoms(self):
        g = MolGraph([Atom(e) for e in "CONO"],
                     [Bond(0, 1), Bond(1, 2), Bond(2, 3)])
        res = wl_refine(g)
        assert len(set(res.colors)) == 4
        assert [size for _, _, size in res.histogram] == [1, 1, 1, 1]

    def test_uniform_cycle_single_class(self):
        res = wl_refine(cycle("CCCC"))
        assert len(set(res.colors)) == 1

    def test_histogram_is_cross_graph_comparable(self):
        g1 = cycle("CNCN")
        g2 = relabel(cycle("CNCN"), [2, 1, 0, 3])
        assert wl_refine(g1).histogram == wl_refine(g2).histogram

    def test_custom_init(self):
        g = cycle("CCCC")
        r = wl_refine(g, lambda i: i < 2)
        assert len(set(r.colors)) > 1

    @pytest.mark.parametrize("linked", [False, True])
    def test_one_round_separates_discrete_graphs(self, linked):
        # every atom has its own element, so the initial partition is
        # already stable; S is bonded to O and N in one, to C and N in the
        # other, which the first round tells apart
        a, b = parse("*SOCN*"), parse("*SCON*")
        if linked:
            a, b = star_link(a).as_graph(), star_link(b).as_graph()
        assert wl_refine(a).histogram != wl_refine(b).histogram
        assert not _reference_wl_equivalent(a, b)


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

    def test_no_size_cap(self):
        # 120 atoms, past the 64-atom cap of the backtracking search
        big = repeat_monomer(parse("*CC(C)*"), 40)
        perm = list(range(big.n))
        random.Random(2).shuffle(perm)
        h = relabel(big, perm)
        found, mapping = isomorphic(big, h)
        assert found and _is_isomorphism(big, h, mapping)
        role_g, role_h = wl._boundary_role(big), wl._boundary_role(h)
        found, mapping = isomorphic(big, h, role_g, role_h)
        assert found and _is_isomorphism(big, h, mapping, role_g, role_h)

    def test_budget(self, monkeypatch):
        # A centre with k two-atom arms has no twins and k! leaves before
        # pruning; the automorphisms found keep the search to a few dozen.
        def arms(k):
            return MolGraph([Atom("C")] * (2 * k + 1),
                            [Bond(0, 2 * i + 1) for i in range(k)]
                            + [Bond(2 * i + 1, 2 * i + 2) for i in range(k)])

        for k in (7, 12):
            assert math.factorial(k) > wl.LEAF_BUDGET
            assert isomorphic(arms(k), arms(k))[0]
        monkeypatch.setattr(wl, "LEAF_BUDGET", 3)
        with pytest.raises(BudgetExceeded, match="exceeds 3 leaves"):
            canonical_key(arms(7))

    def test_twins_are_tried_once(self, monkeypatch):
        # twelve methyls on one centre: the first leaf, then one more per
        # level of the search, whose automorphism puts the methyls left at
        # that level in one orbit: 12 leaves, not 12!
        star = MolGraph([Atom("C")] * 13, [Bond(0, i) for i in range(1, 13)])
        monkeypatch.setattr(wl, "LEAF_BUDGET", 12)
        assert isomorphic(star, star)[0]

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


class TestLabellingCycles:
    """A labelling leaves no reference cycle, on any exit, so the graph's
    adjacency and the best leaf go by reference counting."""

    @staticmethod
    def garbage(run) -> int:
        gc.collect()
        gc.disable()
        try:
            run()
            return gc.collect()
        finally:
            gc.enable()

    def test_result(self):
        lines = corpus(50, seed=7)
        assert self.garbage(lambda: [canonical_form(s) for s in lines]) == 0

    def test_budget_exceeded(self, monkeypatch):
        # twelve methyls on one centre need 12 leaves
        star = MolGraph([Atom("C")] * 13, [Bond(0, i) for i in range(1, 13)])

        def run():
            with pytest.raises(BudgetExceeded):
                canonical_key(star)

        monkeypatch.setattr(wl, "LEAF_BUDGET", 3)
        assert self.garbage(run) == 0


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
        # primitive units of different sizes
        assert not polymer_equal(parse("*CCO*"), parse("*CCCO*"))
        assert not polymer_equal(parse("*CCOCCO*"), parse("*CCCO*"))

    def test_same_star_graph_different_polymer(self):
        # both cuts of the two-ring seed close to the same linked graph
        pairs = generate_twins(ring_pair_seed(5, 6))
        p = pairs[0]
        assert not polymer_equal(p.monomer_a, p.monomer_b)


class TestTwins:
    @pytest.mark.parametrize("n1, n2", [(4, 6), (6, 4)])
    def test_ring_pair_seed_rejects_small_rings(self, n1, n2):
        with pytest.raises(ValueError, match="rings smaller than 5"):
            ring_pair_seed(n1, n2)

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

    def test_seed_labelled_once(self, monkeypatch):
        # every cut of the two-ring seed is a single bond, whose linked
        # graph is the seed: one label for the 11 linked graphs, then one
        # per polymer graph
        calls = []

        def counted(g):
            calls.append(g)
            return key(g)

        key = wl.canonical_key
        monkeypatch.setattr(wl, "canonical_key", counted)
        assert len(generate_twins(ring_pair_seed(5, 6))) == 30
        assert len(calls) == 12

    def test_pair_monomers_serialize(self):
        p = generate_twins(ring_pair_seed(5, 6))[0]
        ra = parse(write(p.monomer_a))
        assert monomer_isomorphic(ra, p.monomer_a, allow_swap=False)


class TestGoldenKeys:
    KEYS = {
        "*CCO*": "50929e0828e4242de16f5c0508070a98",
        "*CONO*": "04ffe75ba16339b596b459f24f7464af",
        "*c1ccc(*)cc1": "0f41a6fcb948769d8ece97f8e512626e",
        "*CC(C)OC(=O)*": "6c89b917aa8727cc4868d2af97a9f4fc",
        "*CC1(C2CCC3(CCC3)C2)CC1*": "4e9a1a494df6a6911f9c205eb8628507",
    }

    @pytest.mark.parametrize("line", sorted(KEYS))
    def test_canonical_form_pinned(self, line):
        assert canonical_form(line) == self.KEYS[line]


class TestBoundaryBridges:
    def test_disconnected_monomer_raises(self):
        # (3, 4) is a bridge, but no cut of it re-cuts the chain
        g = MonomerGraph([Atom("C")] * 5,
                         [Bond(0, 1), Bond(1, 2), Bond(3, 4)], 0, 4)
        with pytest.raises(DisconnectedError):
            separating_bridges(g)
        with pytest.raises(DisconnectedError):
            translation_variants(g)

    def test_head_equals_tail(self):
        g = MonomerGraph([Atom("C")] * 3, [Bond(0, 1), Bond(1, 2)], 1, 1)
        assert separating_bridges(g) == []
        assert len(translation_variants(g)) == 1


# Digest color refinement to a stable partition and the boundary-bridge
# search, kept as the reference.

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


def _reference_wl_refine(g, init=None):
    """Digest colors, refined until a round splits no class.  The colors
    of two graphs are comparable only after equally many rounds."""
    colors = _reference_initial_colors(g) if init is None else list(init)
    for _ in range(g.n + 1):
        nxt = _reference_refine_once(g, colors)
        if _reference_partition(nxt) == _reference_partition(colors):
            break
        colors = nxt
    return colors


def _union(a, b):
    return MolGraph(a.atoms + b.atoms, a.bonds + [
        Bond(x.u + a.n, x.v + a.n, x.order) for x in b.bonds])


def _reference_wl_equivalent(a, b, extra_a=None, extra_b=None):
    """1-WL equivalence: every class of the stable coloring of the disjoint
    union holds as many atoms of a as of b."""
    colors = _reference_wl_refine(_union(a, b), (
        _reference_initial_colors(a, extra_a)
        + _reference_initial_colors(b, extra_b)))
    return Counter(colors[:a.n]) == Counter(colors[a.n:])


NODE_CAP = 64  # the node budget of the backtracking search below


def _reference_canonical_key(g, extra=None):
    """``canonical_key`` as it was: a WL hash, canonical up to WL
    distinguishability."""
    colors = _reference_wl_refine(g, _reference_initial_colors(g, extra))
    nodes = sorted(c.hex() for c in colors)
    edges = sorted(
        (min(colors[b.u], colors[b.v]).hex(),
         max(colors[b.u], colors[b.v]).hex(),
         b.order)
        for b in g.bonds
    )
    return _reference_digest(f"{nodes}#{edges}")


def _reference_isomorphic(g1, g2, extra1=None, extra2=None):
    if max(g1.n, g2.n) > NODE_CAP:
        raise BudgetExceeded(f"graph exceeds {NODE_CAP}-node search budget")
    if g1.n != g2.n or len(g1.bonds) != len(g2.bonds):
        return False, None
    c1 = _reference_wl_refine(g1, _reference_initial_colors(g1, extra1))
    c2 = _reference_wl_refine(g2, _reference_initial_colors(g2, extra2))
    if sorted(c1) != sorted(c2):
        return False, None
    by_color = {}
    for j, c in enumerate(c2):
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
        if c1[u] != c2[v] or len(adj1[u]) != len(adj2[v]):
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
        for v in by_color.get(c1[u], []):
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


def _reference_component_without(g, edge, start):
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in g.neighbors(u):
            p = (min(u, v), max(u, v))
            if p == edge:
                continue
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _reference_bridges(g):
    """The bonds whose deletion raises the component count, found without
    the depth-first search that ``MolGraph.bridges`` shares with the code
    under test."""
    count = _reference_components(g)
    return {b.pair() for i, b in enumerate(g.bonds)
            if _reference_components(
                MolGraph(g.atoms, g.bonds[:i] + g.bonds[i + 1:])) > count}


def _reference_components(g):
    seen, count = set(), 0
    for start in range(g.n):
        if start not in seen:
            count += 1
            seen |= _reference_component_without(g, None, start)
    return count


def _reference_head_sides(g):
    """Each cut bridge with the atoms on head's side, found as ``wl`` once
    did: the bridges on one BFS-tree path from head to tail, then one DFS
    per bridge for its head side."""
    bridges = _reference_bridges(g).intersection(
        b.pair() for b in g.bonds if b.order == "single")
    parent = {g.head: g.head}
    queue = [g.head]
    for u in queue:
        for v in g.neighbors(u):
            if v not in parent:
                parent[v] = u
                queue.append(v)
    if g.tail in parent:
        path = []
        v = g.tail
        while v != g.head:
            u = parent[v]
            path.append((min(u, v), max(u, v)))
            v = u
        bridges = bridges.intersection(path)
    return [(edge, _reference_component_without(g, edge, g.head))
            for edge in sorted(bridges)]


def _reference_separating_bridges(g):
    out = []
    for (x, y) in sorted(_reference_bridges(g)):
        comp = _reference_component_without(g, (x, y), g.head)
        if g.tail not in comp:
            out.append((x, y))
    return out


def _reference_translation_variants(g):
    variants = [g]
    for (x, y) in _reference_separating_bridges(g):
        head_side = _reference_component_without(g, (x, y), g.head)
        hx, ty = (x, y) if x in head_side else (y, x)
        bonds = [b for b in g.bonds if b.pair() != (min(x, y), max(x, y))]
        bonds.append(Bond(g.head, g.tail, "single"))
        variants.append(MonomerGraph(g.atoms, bonds, ty, hx))
    return variants


def _reference_primitive_reduce(g):
    n = g.n
    for k in range(n, 1, -1):
        if n % k != 0:
            continue
        usize = n // k
        for (x, y) in _reference_separating_bridges(g):
            head_side = _reference_component_without(g, (x, y), g.head)
            if len(head_side) != usize:
                continue
            hx = x if x in head_side else y
            unit = _extract(g, head_side, g.head, hx)
            if unit.n > NODE_CAP or g.n > NODE_CAP:
                continue
            if monomer_isomorphic(repeat_monomer(unit, k), g,
                                  allow_swap=False):
                return unit
    return g


def _reference_canonical_form(g):
    """``canonical_form`` as it was: the least WL key over every translation
    and both orientations of the primitive unit, boundary roles pinned.
    Run it under ``_reference`` for the parent's primitive reduction."""
    if isinstance(g, str):
        g = parse(g)
    p = _reference_primitive_reduce(g)
    rev = MonomerGraph(p.atoms, p.bonds, p.tail, p.head)
    keys = []
    for v in (_reference_translation_variants(p)
              + _reference_translation_variants(rev)):
        def role(i, h=v.head, t=v.tail):
            return (i == h, i == t)
        keys.append(_reference_canonical_key(v, role))
    return min(keys).hex()


def _reference(fn, *args):
    """``fn(*args)`` with every rewritten ``wl`` function swapped for its
    reference, including the bindings ``psmiles`` imported."""
    with pytest.MonkeyPatch.context() as mp:
        for name, ref in [("initial_colors", _reference_initial_colors),
                          ("isomorphic", _reference_isomorphic),
                          ("separating_bridges", _reference_separating_bridges),
                          ("translation_variants",
                           _reference_translation_variants),
                          ("primitive_reduce", _reference_primitive_reduce)]:
            mp.setattr(wl, name, ref)
            if hasattr(psmiles, name):
                mp.setattr(psmiles, name, ref)
        return fn(*args)


# The twin generator as it was before each cut was classed once: an orbit
# search over marked graphs, then star_link, isomorphic, polymer_equal and
# the k-fold refinements redone for every pair of cuts; kept as the
# reference.

def _reference_edge_orbits(h, edges):
    def marked(e):
        bonds = [Bond(b.u, b.v, "cut-mark" if b.pair() == e else b.order)
                 for b in h.bonds]
        return MolGraph(h.atoms, bonds)

    orbits = []
    reps = []
    for e in edges:
        m = marked(e)
        for oid, rep in enumerate(reps):
            ok, _ = wl.isomorphic(m, rep)
            if ok:
                orbits.append(oid)
                break
        else:
            orbits.append(len(reps))
            reps.append(m)
    return orbits


def _reference_generate_twins(h, max_unroll=6):
    bridge_set = h.bridges()
    cuts = [b.pair() for b in h.bonds if b.pair() not in bridge_set]
    cuts.sort()
    if len(cuts) < 2:
        return []
    orbits = _reference_edge_orbits(h, cuts)

    def cut(e):
        bonds = [b for b in h.bonds if b.pair() != e]
        return MonomerGraph(h.atoms, bonds, e[0], e[1])

    pairs = []
    for i in range(len(cuts)):
        for j in range(i + 1, len(cuts)):
            if orbits[i] == orbits[j]:
                continue
            a, b = cut(cuts[i]), cut(cuts[j])
            star_a, star_b = wl.star_link(a), wl.star_link(b)
            ok, _ = wl.isomorphic(star_a.as_graph(), star_b.as_graph())
            if not ok:
                continue
            if wl.polymer_equal(a, b):
                continue
            witness = None
            for k in range(2, max_unroll + 1):
                if not _reference_wl_equivalent(wl.repeat_monomer(a, k),
                                                wl.repeat_monomer(b, k)):
                    witness = k
                    break
            if witness is None:
                continue
            pairs.append(wl.TwinPair(a, b, witness))
    return pairs


def _six_five_seed(orders, aromatic):
    """A 6-ring with the given bond orders bridged to a plain 5-ring."""
    atoms = [Atom("C", aromatic=aromatic)] * 6 + [Atom("C")] * 5
    bonds = [Bond(i, (i + 1) % 6, o) for i, o in enumerate(orders)]
    bonds += [Bond(6 + i, 6 + (i + 1) % 5) for i in range(5)]
    bonds.append(Bond(0, 6))
    return MolGraph(atoms, bonds)


def _twin_summary(pairs):
    return [(_monomer(p.monomer_a), _monomer(p.monomer_b), p.witness,
             tuple(wl.star_link(p.monomer_a).as_graph().bonds),
             tuple(wl.star_link(p.monomer_a).backbone)) for p in pairs]


def _same_twins(h, count):
    """generate_twins(h) equals the reference run on the reference helpers,
    which emits ``count`` pairs."""
    want = _twin_summary(_reference(_reference_generate_twins, h))
    assert len(want) == count
    assert _twin_summary(generate_twins(h)) == want


def _same_partition(keys_a, keys_b):
    """The two key lists put the same items together."""
    first_a, first_b = {}, {}
    return ([first_a.setdefault(k, i) for i, k in enumerate(keys_a)]
            == [first_b.setdefault(k, i) for i, k in enumerate(keys_b)])


def _monomer(g):
    return tuple(g.atoms), tuple(g.bonds), g.head, g.tail


def _reduction(reduce, g):
    unit = reduce(g)
    return unit is g, _monomer(unit)


def _joined(*units):
    """The units in a row, each one's tail bonded to the next one's head."""
    atoms, bonds, tail = [], [], None
    for u in units:
        off = len(atoms)
        atoms += u.atoms
        bonds += [Bond(b.u + off, b.v + off, b.order) for b in u.bonds]
        if tail is not None:
            bonds.append(Bond(tail, off + u.head))
        tail = off + u.tail
    return MonomerGraph(atoms, bonds, units[0].head, tail)


def _decoys(g):
    """Chains of g and a unit of g's size that is not g with its boundary
    pinned: each bridge-size test of a 2- or 3-fold repeat passes, but the
    segments are another cut or orientation of g (the same atom keys,
    other bonds) or g with one atom changed (other keys)."""
    flipped = MonomerGraph(g.atoms, g.bonds, g.tail, g.head)
    i = g.n // 2
    atoms = list(g.atoms)
    atoms[i] = Atom("N" if atoms[i].element != "N" else "O")
    changed = MonomerGraph(atoms, g.bonds, g.head, g.tail)
    others = translation_variants(g)[1:3] + [flipped, changed]
    return ([_joined(g, o) for o in others]
            + [_joined(g, g, o) for o in others]
            + [_joined(g, o, g) for o in others])


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
            res = wl_refine(g)
            assert (_reference_partition(res.colors)
                    == _reference_partition(_reference_wl_refine(g)))
            assert sum(size for _, _, size in res.histogram) == g.n

    def test_empty_graph(self):
        assert _reference_wl_refine(MolGraph([], [])) == []
        assert wl_refine(MolGraph([], [])) == wl.ColoringResult([], [], 0)

    def test_initial_colors(self):
        for g in _corpus_monomers()[:300]:
            role = wl._boundary_role(g)
            assert initial_colors(g) == _reference_initial_colors(g)
            assert (initial_colors(g, role)
                    == _reference_initial_colors(g, role))


def _equitable_cells(g, extra=None):
    """The ordered partition ``wl._refine`` makes from the initial cells,
    as a list of cell ids, after checking each cell is one run of ``lab``."""
    lab, cell, end = wl._ordered_cells(initial_colors(g, extra))
    wl._refine(g.adjacency(), lab, cell, end, sorted(set(cell)))
    start = 0
    while start < g.n:
        assert all(cell[i] == start for i in lab[start:end[start]])
        start = end[start]
    assert sorted(lab) == list(range(g.n))
    return cell


class TestEquitableRefinement:
    """From the initial cells, the splitter-queue refinement that the
    canonical labelling runs stops at 1-WL's stable partition."""

    @staticmethod
    def _agrees(g, extra=None):
        cell = _equitable_cells(g, extra)
        colors = _reference_wl_refine(g, _reference_initial_colors(g, extra))
        return _reference_partition(cell) == _reference_partition(colors)

    def test_corpus_monomers_and_star_links(self):
        for line in corpus(200, seed=7):
            g = parse(line)
            assert self._agrees(g)
            assert self._agrees(star_link(g).as_graph())

    def test_cubic_cuts(self):
        assert all(self._agrees(g) for g in _cubic_cuts(11, 2000))

    def test_pinned_inputs(self):
        for g in _refinement_graphs()[1::2]:
            assert self._agrees(g, lambda i: i == 0)
        for g in _corpus_monomers()[:300]:
            assert self._agrees(g, wl._boundary_role(g))

    def test_cell_ids_follow_relabelling(self):
        # the cell order is an invariant: atom i of the relabelled copy,
        # which is atom perm[i] of g, gets that atom's cell id
        rng = random.Random(9)
        for g in _corpus_monomers()[:300]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            cell = _equitable_cells(g)
            moved = _equitable_cells(relabel(g, perm))
            assert moved == [cell[perm[i]] for i in range(g.n)]


def _same_size_pairs(graphs):
    """Each graph with the next one of its size, in input order."""
    last, out = {}, []
    for g in graphs:
        if g.n in last:
            out.append((last[g.n], g))
        last[g.n] = g
    return out


def _backbone(star):
    return lambda i: star.backbone[i]


class TestUnionEquivalence:
    """Equal ``wl_refine`` histograms mean exactly that the stable coloring
    of the disjoint union puts as many atoms of one graph as of the other
    in every class."""

    @staticmethod
    def _decides(a, b, extra_a=None, extra_b=None):
        same = (wl_refine(a, extra_a).histogram
                == wl_refine(b, extra_b).histogram)
        assert same == _reference_wl_equivalent(a, b, extra_a, extra_b)
        return same

    def test_same_size_pairs(self):
        outcomes = Counter(self._decides(a, b) for a, b in
                           _same_size_pairs(_refinement_graphs()))
        assert outcomes[True] > 100 and outcomes[False] > 100

    def test_relabellings(self):
        rng = random.Random(5)
        for g in _refinement_graphs()[::4]:
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert self._decides(g, relabel(g, perm))

    def test_twin_pairs(self):
        for p in corpus_mod.default_twin_pairs():
            a, b = p.monomer_a, p.monomer_b
            sa, sb = star_link(a), star_link(b)
            # the linked graphs are one graph, which the backbone mask
            # splits; the witness is the first unroll WL tells apart
            assert self._decides(sa.as_graph(), sb.as_graph())
            assert not self._decides(sa.as_graph(), sb.as_graph(),
                                     _backbone(sa), _backbone(sb))
            for k in range(1, wl.MAX_UNROLL + 1):
                same = self._decides(repeat_monomer(a, k),
                                     repeat_monomer(b, k))
                if 2 <= k <= p.witness:
                    assert same == (k < p.witness)


class TestBridges:
    """``MolGraph.bridges`` equals the deletion test of _reference_bridges."""

    def test_bridges_match_deletion(self):
        graphs = [g for m in _corpus_monomers()
                  for g in (m, star_link(m).as_graph())]
        graphs += _disconnected_monomers() + _cubic_cuts(11, 200)
        graphs += [ring_pair_seed(5, 6), MolGraph([], [])]
        for g in graphs:
            assert g.bridges() == _reference_bridges(g)


def _assert_head_sides(g):
    """Each re-cut of g is tailed at its bridge's end on head's side and
    headed at the other end, on the reference's per-bridge head sides."""
    sides = _reference_head_sides(g)
    variants = translation_variants(g)[1:]
    assert len(variants) == len(sides)
    for v, ((x, y), side) in zip(variants, sides):
        assert (v.tail, v.head) == ((x, y) if x in side else (y, x))


class TestHeadSides:
    """Translations re-cut at the head sides of the per-bridge search."""

    def test_corpus_and_translations(self):
        for line in corpus(600, seed=7):
            for g in translation_variants(parse(line)):
                _assert_head_sides(g)

    def test_head_equals_tail(self):
        loop = MonomerGraph([Atom("C")] * 4, [Bond(0, 1), Bond(1, 2),
                                              Bond(2, 0), Bond(0, 3)], 3, 3)
        chain = MonomerGraph([Atom("C")] * 3, [Bond(0, 1), Bond(1, 2)], 1, 1)
        for g in (loop, chain):
            _assert_head_sides(g)
            assert translation_variants(g) == [g]

    @pytest.mark.parametrize("line", ["*CC=C(C)C*", "*C(C)=CC*", "*CC=CC*",
                                      "*C=CC#CC*", "*CC=CC(=O)O*",
                                      "*C1CC1C=CC*"])
    def test_double_bond_bridges_are_not_cut(self, line):
        g = parse(line)
        _assert_head_sides(g)
        assert all(g.bond_order(*edge) == "single"
                   for edge in separating_bridges(g))


class TestReductionWork:
    """``primitive_reduce`` labels only what the cheaper tests leave, and an
    unreduced unit takes one search from string to polymer graph."""

    @pytest.fixture
    def work(self, monkeypatch):
        work = Counter()
        labelling, search = wl.canonical_labelling, MolGraph._depth_first

        def counted_labelling(*args, **kwargs):
            work["labellings"] += 1
            return labelling(*args, **kwargs)

        def counted_search(self, first):
            work["searches"] += 1
            return search(self, first)

        monkeypatch.setattr(wl, "canonical_labelling", counted_labelling)
        monkeypatch.setattr(MolGraph, "_depth_first", counted_search)
        return work

    @pytest.mark.parametrize("units", [("*CCO*", "*CCN*"),
                                       ("*CC(C)O*", "*CC(N)O*", "*CC(C)O*")])
    def test_decoy_rejected_by_atom_keys(self, work, units):
        g = _joined(*map(parse, units))
        assert primitive_reduce(g) is g
        assert work["labellings"] == 0

    @pytest.mark.parametrize("line", ["*CCO*", "*CC(C)O*", "*c1ccc(*)cc1",
                                      "*CC1(C2CCC3(CCC3)C2)CC1*"])
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_repeat_reduced_by_its_layout(self, work, line, k):
        g = parse(line)
        assert _monomer(primitive_reduce(repeat_monomer(g, k))) == _monomer(g)
        assert work["labellings"] == 0

    @pytest.mark.parametrize("line", ["*CCO*", "*CC(C)OC(=O)*",
                                      "*c1ccc(*)cc1", "CC(*)CO*"])
    def test_unreduced_unit_searched_once(self, work, line):
        # from string to polymer graph: parse searches nothing
        g = parse(line)
        wl.polymer_graph(g)
        assert primitive_reduce(g) is g
        assert work["searches"] == 1


class TestReferenceMonomerFunctions:
    def test_boundary_bridges(self):
        for g in _corpus_monomers():
            assert separating_bridges(g) == _reference_separating_bridges(g)
            assert ([_monomer(v) for v in translation_variants(g)]
                    == [_monomer(v)
                        for v in _reference_translation_variants(g)])
        for g in _corpus_monomers()[:300]:
            assert ([write(v) for v in translation_variants(g)]
                    == [write(v) for v in _reference_translation_variants(g)])

    def test_primitive_reduce(self):
        graphs = list(_corpus_monomers()[::3])
        repeats = [repeat_monomer(g, k) for g in graphs[:40] for k in (2, 3)]
        rng = random.Random(19)
        # translations put the segments out of the layout the extraction's
        # own map matches, and so do relabellings
        graphs += repeats + [v for r in repeats[:16]
                             for v in translation_variants(r)[1:]]
        graphs += [relabel(r, rng.sample(range(r.n), r.n)) for r in repeats]
        graphs += [d for g in graphs[:12] for d in _decoys(g)]
        for g in graphs:
            assert (_reduction(primitive_reduce, g)
                    == _reference(_reduction, _reference_primitive_reduce, g))

    def test_disconnected_monomer_is_rejected(self):
        # the reference returns two of these unreduced and raises KeyError
        # on the third, whose head side of bridge (1, 2) is the lone head
        rng = random.Random(3)
        for g in _disconnected_monomers():
            for fn in (primitive_reduce, canonical_form, separating_bridges,
                       translation_variants, augment_rewrites,
                       lambda m: random_augment(m, rng),
                       lambda m: polymer_equal(m, m)):
                with pytest.raises(DisconnectedError):
                    fn(g)

    def test_canonical_form(self):
        # the same partition: the reference collides only outside this corpus
        graphs = _corpus_monomers()[:600]
        assert _same_partition(
            [canonical_form(g) for g in graphs],
            [_reference(_reference_canonical_form, g) for g in graphs])

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
        keys = capsys.readouterr().out.splitlines()
        assert keys == [canonical_form(line) for line in lines]
        assert _same_partition(keys, [_reference(_reference_canonical_form,
                                                 line) for line in lines])

    @pytest.mark.parametrize("sizes", [(5, 6), (5, 5), (6, 8)])
    def test_generate_twins(self, sizes):
        count = {(5, 6): 30, (5, 5): 0, (6, 8): 48}[sizes]
        _same_twins(ring_pair_seed(*sizes), count)

    # A cut through a double or aromatic bond closes with a single bond, so
    # in these seeds the linked-graph check rejects pairs.
    @pytest.mark.parametrize("orders, aromatic, count", [
        (["single", "single", "double", "single", "single", "single"], False,
         25),
        (["aromatic"] * 6, True, 0),
    ], ids=["double6-ring5", "aromatic6-ring5"])
    def test_generate_twins_mixed_orders(self, orders, aromatic, count):
        _same_twins(_six_five_seed(orders, aromatic), count)

    def test_verify_twin_suites(self, monkeypatch, capsys):
        def stdout(argv):
            assert main(argv) == 0
            return capsys.readouterr().out

        argvs = (["verify", "lemma1"], ["verify", "theorem3", "--count", "2"])
        got = [stdout(argv) for argv in argvs]
        monkeypatch.setattr(corpus_mod, "generate_twins",
                            _reference_generate_twins)
        assert got == [stdout(argv) for argv in argvs]



def _is_isomorphism(g, h, mapping, extra_g=None, extra_h=None):
    """mapping[i] is h's atom for g's atom i, and keeps atoms, bonds with
    their orders, and the extra colours."""
    mapped = {(min(mapping[b.u], mapping[b.v]), max(mapping[b.u], mapping[b.v]),
               b.order) for b in g.bonds}
    return (sorted(mapping) == list(range(h.n))
            and all(g.atoms[i] == h.atoms[mapping[i]] for i in range(g.n))
            and (extra_g is None
                 or all(extra_g(i) == extra_h(mapping[i]) for i in range(g.n)))
            and mapped == {(*b.pair(), b.order) for b in h.bonds})


def _valid_isomorphism(g, h, extra_g=None, extra_h=None):
    """isomorphic(g, h) finds a map exactly when the backtracking reference
    does (the map chosen may differ), and the map it returns is an
    isomorphism."""
    found, mapping = isomorphic(g, h, extra_g, extra_h)
    assert found == _reference_isomorphic(g, h, extra_g, extra_h)[0]
    if not found:
        assert mapping is None
        return False
    assert _is_isomorphism(g, h, mapping, extra_g, extra_h)
    return True


class TestReferenceIsomorphic:
    def test_relabelled_corpus(self):
        rng = random.Random(31)
        for line in corpus(200, seed=31):
            g = parse(line)
            perm = list(range(g.n))
            rng.shuffle(perm)
            h = relabel(g, perm)
            assert _valid_isomorphism(g, h)
            role_g, role_h = wl._boundary_role(g), wl._boundary_role(h)
            assert _valid_isomorphism(g, h, role_g, role_h)

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
                assert _valid_isomorphism(g, relabel(g, perm))

    @pytest.mark.parametrize("sizes", [(5, 6), (5, 5)])
    def test_marked_seed_graphs(self, sizes):
        h = ring_pair_seed(*sizes)
        bridge_set = h.bridges()
        marked = [MolGraph(h.atoms, [
            Bond(b.u, b.v, "cut-mark" if b.pair() == e.pair() else b.order)
            for b in h.bonds]) for e in h.bonds if e.pair() not in bridge_set]
        for m1 in marked:
            for m2 in marked:
                _valid_isomorphism(m1, m2)


def _random_cubic(rng, n):
    """A connected simple 3-regular carbon graph on n atoms (pairing model)."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        pairs = {(min(u, v), max(u, v))
                 for u, v in zip(points[::2], points[1::2])}
        if len(pairs) == 3 * n // 2 and all(u != v for u, v in pairs):
            g = MolGraph([Atom("C")] * n, [Bond(u, v) for u, v in sorted(pairs)])
            if g.is_connected():
                return g


def _cubic_cuts(seed, count):
    """Monomers cut, one per non-bridge bond, from random cubic graphs of
    8-12 atoms, until there are at least count."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        h = _random_cubic(rng, rng.choice((8, 10, 12)))
        bridge_set = h.bridges()
        out += [MonomerGraph(h.atoms, [b for b in h.bonds if b.pair() != e],
                             *e)
                for e in sorted(b.pair() for b in h.bonds)
                if e not in bridge_set]
    return out


def _join(a, b):
    """The monomer a then b: a's tail bonded to b's head."""
    bonds = a.bonds + [Bond(x.u + a.n, x.v + a.n, x.order) for x in b.bonds]
    return MonomerGraph(a.atoms + b.atoms,
                        bonds + [Bond(a.tail, b.head + a.n)],
                        a.head, b.tail + a.n)


def _long_monomers(seed, count, low=33, high=50):
    """Monomers of low..high atoms: corpus units and cubic cuts, joined."""
    rng = random.Random(seed)
    cuts = _cubic_cuts(seed, 50)
    out = []
    while len(out) < count:
        g = corpus_mod.random_monomer(rng)
        while g.n < low:
            g = _join(g, rng.choice(cuts) if rng.random() < 0.3
                      else corpus_mod.random_monomer(rng))
        if g.n <= high:
            out.append(g)
    return out


def _reversed(g):
    return MonomerGraph(g.atoms, g.bonds, g.tail, g.head)


class TestPolymerIdentity:
    def test_cubic_cuts_partition_as_polymer_equal(self):
        # The reference key is invariant but collides, so polymer_equal
        # splits each of its classes; the new keys must split them alike.
        graphs = _cubic_cuts(11, 2000)
        by_ref = {}
        for i, g in enumerate(graphs):
            by_ref.setdefault(_reference(_reference_canonical_form, g),
                              []).append(i)
        exact = [0] * len(graphs)
        collisions = 0
        for members in by_ref.values():
            reps = []
            for i in members:
                j = next((r for r in reps if _reference(
                    polymer_equal, graphs[r], graphs[i])), None)
                if j is None:
                    reps.append(i)
                    j = i
                exact[i] = j
            collisions += len(reps) > 1
        assert collisions > 0  # the cut-cubic probe defeats a WL hash
        assert _same_partition([canonical_form(g) for g in graphs], exact)

    def test_wl_twin_pair_gets_two_keys(self):
        a, b = "*C1C2C3C4C1C3C(C24)*", "*C1C2C3C2C(C2C3C12)*"
        assert (_reference(_reference_canonical_form, a)
                == _reference(_reference_canonical_form, b))
        assert not polymer_equal(parse(a), parse(b))
        assert canonical_form(a) != canonical_form(b)

    def test_repeat_past_old_size_cap(self):
        g = parse("*" + "C" * 31 + "C(C)*")  # 33 atoms, 66 when doubled
        assert polymer_equal(g, repeat_monomer(g, 2))
        assert primitive_reduce(repeat_monomer(g, 2)).n == g.n
        assert canonical_form(g) == canonical_form(repeat_monomer(g, 2))

    def test_invariance_33_to_150_atoms(self):
        rng = random.Random(12)
        for g in _long_monomers(12, 6):
            key = canonical_form(g)
            perm = list(range(g.n))
            rng.shuffle(perm)
            same = [relabel(g, perm), _reversed(g)] + translation_variants(g)
            same += [repeat_monomer(g, 2), repeat_monomer(g, 3)]
            assert all(canonical_form(h) == key for h in same)
            assert polymer_equal(g, same[0])
            assert polymer_equal(g, same[-2])

    def test_long_monomers_differ(self):
        graphs = _long_monomers(13, 6)
        keys = [canonical_form(g) for g in graphs]
        assert len(set(keys)) == len(keys)
        a = _join(graphs[0], graphs[1])
        b = _join(graphs[0], _reversed(graphs[1]))
        assert not polymer_equal(a, b)
        assert canonical_form(a) != canonical_form(b)


class TestDoubleBondsAreNotCutPoints:
    def test_separating_bridges_are_single(self):
        g = parse("*CC=C(C)C*")
        assert [g.bond_order(*e) for e in separating_bridges(g)] == [
            "single", "single"]
        assert len(translation_variants(g)) == 3

    def test_rewrites_keep_the_double_bond(self):
        assert "*C(C)CCC*" not in psmiles.augment_rewrites(parse("*CC=C(C)C*"))
        rng = random.Random(3)
        for _ in range(20):
            aug = random_augment(parse("*CC=C(C)C*"), rng)
            assert [b.order for b in aug.bonds].count("double") == aug.n // 5

    def test_polyisoprene_is_not_its_saturated_analogue(self):
        assert canonical_form("*CC=C(C)C*") != canonical_form("*CCC(C)C*")
        assert not polymer_equal(parse("*C(C)=CC*"), parse("*C(C)CC*"))

    @pytest.mark.parametrize("line", ["*CC=C(C)C*", "*C(C)=CC*",
                                      "*CC=CC(=O)O*", "*C=CC#CC*",
                                      "*C1CC1C=CC*"])
    def test_every_rewrite_keeps_the_key(self, line):
        key = canonical_form(line)
        rewrites = psmiles.augment_rewrites(parse(line))
        assert all(canonical_form(r) == key for r in rewrites)
        assert all(polymer_equal(parse(r), parse(line)) for r in rewrites)
