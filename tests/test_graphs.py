import json
import os
import random
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from polyseq import (
    Atom,
    Bond,
    DisconnectedError,
    MolGraph,
    MonomerGraph,
    apply_backbone_embedding,
    auto_repeat_for_lga,
    detect_backbone,
    featurize,
    parse,
    repeat_monomer,
    ring_stats,
    star_link,
    strategy_transform,
)
from polyseq import graphs, nets
from polyseq.cli import dump_star_graph
from polyseq.corpus import RING_FIXTURE, corpus, ring_pair_seed
from polyseq.graphs import FEATURE_DIM, implicit_hydrogens, relabel
from polyseq.verify import gin_deviation, lga_deviation

# Fused, bridged and spiro ring systems, each written with its boundary
# path running through the rings.
RING_SYSTEMS = {
    "norbornane": "*C1CC2CCC1C2*",
    "anthracene": "*c1ccc2cc3cc(*)ccc3cc2c1",
    "decalin": "*C1CCC2CC(*)CCC2C1",
    "spiro 5/6": "*CC1CCC2(CC1)CCCC2*",
    "bicyclo[2.2.2]octane": "*C12CCC(*)(CC1)CC2",
    "bicyclo[1.1.1]pentane": "*C12CC(*)(C1)C2",
    "cubane": "*C12C3C4C1C5C2C3C45*",
    "spiro[2.3]hexane": "*C1CC(C12CC2)*",
}
# Adamantane cage on the backbone: 4 six-rings, any 3 of which form a
# minimum cycle basis, so which rings the path touches depends on numbering.
ADAMANTANE_CAGE = "*CC12CC3CC(CC(C3)C1)C2*"


def chain(elements, head=None, tail=None):
    atoms = [Atom(e) for e in elements]
    bonds = [Bond(i, i + 1) for i in range(len(elements) - 1)]
    return MonomerGraph(atoms, bonds, head or 0,
                        len(elements) - 1 if tail is None else tail)


class TestRepeat:
    def test_sizes_and_junctions(self):
        g = parse("*CONO*")
        r = repeat_monomer(g, 3)
        assert r.n == 12
        assert len(r.bonds) == 3 * len(g.bonds) + 2
        assert r.head == 0 and r.tail == 11
        assert r.bond_order(3, 4) == "single"
        assert r.bond_order(7, 8) == "single"

    def test_k1_identity(self):
        g = parse("*CC(C)O*")
        r = repeat_monomer(g, 1)
        assert r.n == g.n and len(r.bonds) == len(g.bonds)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            repeat_monomer(parse("*CC*"), 0)


class TestStarLink:
    def test_simple_cycle(self):
        star = star_link(parse("*CONO*"))
        assert star.auto_repeat_k == 1
        assert star.link.pair() == (0, 3)
        g = star.as_graph()
        assert all(g.degree(i) == 2 for i in range(g.n))

    def test_coincident_boundaries_repeat(self):
        # single-atom unit: boundaries coincide, then stay adjacent at k=2
        star = star_link(parse("*C*"))
        assert star.auto_repeat_k == 3
        assert star.monomer.n == 3

    def test_adjacent_boundaries_repeat(self):
        star = star_link(parse("*CC*"))
        assert star.auto_repeat_k == 2
        assert star.monomer.n == 4

    def test_link_never_merges_edges(self):
        for s in ("*C*", "*CC*", "*CCC*", "*CC(C)O*", "*C(*)O"):
            star = star_link(parse(s))
            m = star.monomer
            pairs = [b.pair() for b in m.bonds] + [star.link.pair()]
            assert len(set(pairs)) == len(pairs)

    def test_repeat_count_is_the_loops(self):
        # the fewest copies whose boundary atoms are distinct and unbonded
        for s in corpus(100, seed=19) + ["*C*", "*CC*", "*C(*)O",
                                         "*C1(*)CC1"]:
            g = parse(s)
            k, m = 1, g
            while m.head == m.tail or m.has_bond(m.head, m.tail):
                k += 1
                m = repeat_monomer(g, k)
            star = star_link(g)
            assert star.auto_repeat_k == k, s
            assert (star.monomer.atoms, star.monomer.bonds) == (m.atoms,
                                                                m.bonds)
            assert (star.monomer.head, star.monomer.tail) == (m.head, m.tail)

    @pytest.mark.parametrize("read", ["as_graph", "backbone", "features"])
    def test_equal_after_derived_reads(self, read):
        # what a star derives is memoised on its unit, not on the star, so
        # reading it on either side or both leaves two links of one unit
        # equal
        get = {"as_graph": lambda st: st.as_graph(),
               "backbone": lambda st: st.backbone,
               "features": lambda st: st.features}[read]
        for s in ("*CONO*", "*CC*", "*C*", "*C(*)O", "*C1CC(*)C1"):
            g = parse(s)
            for sides in ((0,), (1,), (0, 1)):
                pair = [star_link(g), star_link(g)]
                for i in sides:
                    get(pair[i])
                assert pair[0] == pair[1], (s, sides)

    def test_links_of_one_unit_share_what_they_derive(self):
        for s in ("*CONO*", "*CC*", "*C*", "*C(*)O"):
            g = parse(s)
            a, b = star_link(g), star_link(g)
            assert a.monomer is b.monomer
            assert a.as_graph() is b.as_graph()
            assert a.backbone is b.backbone
            assert a.features is b.features
            assert a.unroll(5) is b.unroll(5)
            want = repeat_monomer(a.monomer, 5)
            assert ((a.unroll(5).atoms, a.unroll(5).bonds, a.unroll(5).head,
                     a.unroll(5).tail)
                    == (want.atoms, want.bonds, want.head, want.tail))

    def test_features_are_read_only(self):
        star = star_link(parse("*CC(C)O*"))
        x = star.features
        assert np.array_equal(x, featurize(star.as_graph()))
        with pytest.raises(ValueError):
            x[0, 0] = 2.0
        with pytest.raises(ValueError):
            x += 1.0
        assert np.array_equal(star_link(parse("*CC(C)O*")).features, x)


class TestBackbone:
    def test_disconnected_boundaries(self):
        g = MonomerGraph([Atom("C")] * 4, [Bond(0, 1), Bond(2, 3)], 0, 3)
        with pytest.raises(DisconnectedError,
                           match="boundary atoms not connected"):
            detect_backbone(g)

    def test_star_backbone_found_on_first_read(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return detect_backbone(g)

        monkeypatch.setattr("polyseq.graphs.detect_backbone", counted)
        model = nets.ReferenceModel.generate(0, d=8, L=1, d_thres=2)
        for s in ["*CC(C)O*", "*CC1(CCC1)C*", "*C*", "*CC*"]:
            del calls[:]
            star = star_link(parse(s))
            gin_deviation(model, parse(s), 1)
            assert calls == []
            assert star.backbone == detect_backbone(star.monomer)
            assert star.backbone is star.backbone and len(calls) == 1
            dumped = [atom["is_backbone"]
                      for atom in json.loads(dump_star_graph(star))["atoms"]]
            assert dumped == star.backbone and len(calls) == 1

    def test_path_only(self):
        g = parse("*CC(C)O*")
        assert detect_backbone(g) == [True, True, False, True]

    def test_ring_on_path_absorbed(self):
        # spiro ring shares its host atom with the boundary path
        g = parse("*CC1(CCC1)C*")
        mask = detect_backbone(g)
        assert all(mask)

    def test_pendant_ring_excluded(self):
        g = parse("*CC(c1ccccc1)C*")
        mask = detect_backbone(g)
        assert sum(mask) == 3
        assert not any(mask[i] for i, a in enumerate(g.atoms) if a.aromatic)

    def test_relabeling_covariance(self):
        g = parse("*CC(C)OC(=O)*")
        perm = [3, 1, 5, 0, 2, 4]
        h = relabel(g, perm)
        mask_g = detect_backbone(g)
        mask_h = detect_backbone(h)
        for new, old in enumerate(perm):
            assert mask_h[new] == mask_g[old]


class TestAutoRepeat:
    def test_distance_three(self):
        g = chain("CCCC")  # boundary distance 3
        m, k = auto_repeat_for_lga(g, 3)
        assert k == 2
        assert m.boundary_distance() == 7

    def test_already_satisfied(self):
        g = chain("CCCCCCCCCCC")  # boundary distance 10
        _, k = auto_repeat_for_lga(g, 3)
        assert k == 1

    def test_single_atom(self):
        g = parse("*C*")  # boundary distance 0
        m, k = auto_repeat_for_lga(g, 2)
        assert k == 5
        assert m.boundary_distance() == 4

    @pytest.mark.parametrize("s,dt", [("*CC*", 2), ("*CCC*", 3),
                                      ("*CC(C)O*", 3), ("*C*", 1),
                                      ("*C*", 4), ("*C(*)O", 2),
                                      ("*CNO*", 3), ("*CCCC*", 2),
                                      ("*CCCC*", 4)])
    def test_minimality(self, s, dt):
        g = parse(s)
        m, k = auto_repeat_for_lga(g, dt)
        assert m.boundary_distance() > 2 * dt - 1
        if k > 1:
            prev = repeat_monomer(g, k - 1)
            assert prev.boundary_distance() <= 2 * dt - 1

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            auto_repeat_for_lga(parse("*CC*"), 0)

    def test_disconnected_boundaries(self):
        # boundary distance -1 would keep k*d_b + (k - 1) at -1 for every k
        g = MonomerGraph([Atom("C")] * 2, [], 0, 1)
        model = nets.ReferenceModel.generate(seed=0, d=8, L=1, d_thres=3)
        with pytest.raises(DisconnectedError):
            auto_repeat_for_lga(g, 3)
        with pytest.raises(DisconnectedError):
            nets.forward_polymer(model, g, strategy="link")
        with pytest.raises(DisconnectedError):
            lga_deviation(model, g, 1, 3)


class TestFeatures:
    def test_shape(self):
        g = star_link(parse("*CC(C)O*")).as_graph()
        x = featurize(g)
        assert x.shape == (FEATURE_DIM, 4)

    def test_one_hot_blocks(self):
        g = parse("*c1ccc(*)cc1")
        x = featurize(g)
        n_elem = 13
        assert np.allclose(x[:n_elem].sum(axis=0), 1.0)
        assert np.allclose(x[n_elem:n_elem + 7].sum(axis=0), 1.0)

    def test_ring_flag(self):
        g = parse("*CC(c1ccccc1)C*")
        x = featurize(g)
        ring_row = 13 + 7 + 5 + 1
        assert x[ring_row].sum() == 6

    def test_linked_graph_differs_from_chain_only_in_ring_row(self):
        # the middle copy of a 9-fold chain has the infinite chain's
        # features; the linked graph's ring row also marks the link cycle
        ring_row = 13 + 7 + 5 + 1
        differs = 0
        for line in corpus(300, seed=7):
            star = star_link(parse(line))
            n = star.monomer.n
            x = featurize(star.as_graph())
            chain = featurize(repeat_monomer(star.monomer, 9))[:, 4 * n:5 * n]
            rest = np.arange(x.shape[0]) != ring_row
            assert np.array_equal(x[rest], chain[rest]), line
            assert all(x[ring_row, star.backbone] == 1.0), line
            differs += not np.array_equal(x[ring_row], chain[ring_row])
        assert differs == 300

    def test_implicit_hydrogens(self):
        g = parse("*CC(=O)O*")
        x = featurize(g)
        h_block = x[13 + 7 + 5 + 2:]
        # head C has 3 implicit H before linking, carbonyl C and its O have
        # none, hydroxyl O has 1
        assert h_block[3, 0] == 1.0
        assert h_block[0, 1] == 1.0
        assert h_block[0, 2] == 1.0
        assert h_block[1, 3] == 1.0

    @pytest.mark.parametrize("atom, bonds, want", [
        (Atom("N", charge=1), 2, 2),   # ammonium, as C
        (Atom("O", charge=-1), 1, 0),  # alkoxide, as F
        (Atom("O", charge=1), 2, 1),   # oxonium, as N
        (Atom("C", charge=1), 2, 1),   # carbocation, as B
        (Atom("C", charge=-1), 2, 1),  # carbanion, as N
        (Atom("B", charge=-1), 1, 3),  # borate, as C
        (Atom("N"), 2, 1),
    ])
    def test_charged_implicit_hydrogens(self, atom, bonds, want):
        # an atom built without an H count takes the valence of the
        # isoelectronic neutral atom
        g = MolGraph([atom] + [Atom("C")] * bonds,
                     [Bond(0, i) for i in range(1, bonds + 1)])
        assert implicit_hydrogens(g, 0) == want

    def test_parsed_charged_atom_keeps_its_count(self):
        g = parse("*C[NH+]C[O-]*")
        assert [implicit_hydrogens(g, i) for i in (1, 3)] == [1, 0]

    @pytest.mark.parametrize("s", [
        "*C[Fe-3]C*",                 # charge below -2
        "*C[Fe+4]C*",                 # charge above 2
        "*C[NH5]C*",                  # H count above 4
        "*[Mo](F)(F)(F)(F)(F)(F)C*",  # degree above 6
        "*C[Si](C)(C)C*",             # element outside the vocabulary
        "*c1cc(*)[se]c1",             # aromatic, outside the vocabulary
        "*[13CH2]C([2H])[18O]*",      # isotopes
        "*CC(=O)O[N+](C)(C)C*",
    ])
    def test_matches_reference(self, s):
        g = parse(s)
        for graph in [star_link(g).as_graph(),
                      *(strategy_transform(g, strategy)
                        for strategy in ("keep", "remove", "substitute"))]:
            x = featurize(graph)
            assert x.tobytes() == feature_reference(graph).tobytes(), s
            for start, stop in FEATURE_ONE_HOTS:
                assert (x[start:stop].sum(axis=0) == 1.0).all(), s


# The feature column, written out: element one-hot (12 symbols, then other),
# degree 0-6, charge -2..2, aromatic, in ring, implicit H 0-4.
REFERENCE_ELEMENTS = ["B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I",
                      "H", "*"]
FEATURE_ONE_HOTS = [(0, 13), (13, 20), (20, 25), (27, 32)]


def feature_reference(g):
    """featurize, one atom at a time from the bond list: a ring atom has a
    bond whose removal leaves its ends connected."""
    def connected_without(bond):
        rest = [b for b in g.bonds if b is not bond]
        seen, todo = {bond.u}, [bond.u]
        while todo:
            a = todo.pop()
            for b in rest:
                for p, q in ((b.u, b.v), (b.v, b.u)):
                    if p == a and q not in seen:
                        seen.add(q)
                        todo.append(q)
        return bond.v in seen

    x = np.zeros((32, g.n))
    for i, atom in enumerate(g.atoms):
        mine = [b for b in g.bonds if i in (b.u, b.v)]
        element = (REFERENCE_ELEMENTS.index(atom.element)
                   if atom.element in REFERENCE_ELEMENTS else 12)
        x[element, i] = 1.0
        x[13 + min(len(mine), 6), i] = 1.0
        x[20 + min(max(atom.charge, -2), 2) + 2, i] = 1.0
        x[25, i] = float(atom.aromatic)
        x[26, i] = float(any(connected_without(b) for b in mine))
        if atom.hcount is None:
            used = sum(graphs.BOND_VALENCE[b.order] for b in mine)
            valence = graphs.DEFAULT_VALENCE.get((atom.element, atom.charge),
                                                 0)
            h = max(0, valence - int(np.ceil(used)))
        else:
            h = atom.hcount
        x[27 + min(h, 4), i] = 1.0
    return x


class TestBackboneEmbedding:
    def test_masked_columns_only(self):
        x = np.zeros((3, 4))
        b = np.array([1.0, 2.0, 3.0])
        out = apply_backbone_embedding(x, [True, False, True, False], b)
        assert np.allclose(out[:, 0], b) and np.allclose(out[:, 2], b)
        assert np.allclose(out[:, 1], 0) and np.allclose(out[:, 3], 0)

    def test_all_true_shifts_everything(self):
        x = np.ones((2, 3))
        out = apply_backbone_embedding(x, [True] * 3, np.array([1.0, -1.0]))
        assert np.allclose(out, x + np.array([[1.0], [-1.0]]))

    def test_dim_checks(self):
        x = np.zeros((3, 2))
        with pytest.raises(ValueError):
            apply_backbone_embedding(x, [True, False], np.zeros(4))
        with pytest.raises(ValueError):
            apply_backbone_embedding(x, [True], np.zeros(3))


class TestStrategies:
    def test_keep_adds_stars(self):
        g = parse("*CC*")
        out = strategy_transform(g, "keep")
        assert out.n == 4
        assert out.atoms[2].element == "*" and out.atoms[3].element == "*"

    def test_remove_drops_boundary_marks(self):
        g = parse("*CC*")
        out = strategy_transform(g, "remove")
        assert out.n == 2 and len(out.bonds) == 1

    def test_substitute_caps_with_h(self):
        out = strategy_transform(parse("*CC*"), "substitute")
        assert [a.element for a in out.atoms[2:]] == ["H", "H"]

    def test_link_closes_cycle(self):
        # link is no endpoint baseline: its graph is the star-linking graph
        g = parse("*CONO*")
        assert star_link(g).as_graph().cyclomatic_number() == 1
        with pytest.raises(ValueError):
            strategy_transform(g, "link")

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            strategy_transform(parse("*CC*"), "nope")


class TestRingStats:
    def test_counts(self):
        lines = ["*CC*", "*c1ccc(*)cc1", "*CC(c1ccccc1)c1ccccc1*"]
        mean, frac = ring_stats([parse(s).cyclomatic_number() for s in lines])
        assert mean == pytest.approx(1.0)
        assert frac == 0.0

    def test_empty(self):
        assert ring_stats([]) == (0.0, 0.0)


class TestGraphBasics:
    def test_bridges_of_ring_with_tail(self):
        g = parse("*CC1CCC1*")
        ring = g.ring_atoms()
        assert len(ring) == 4
        assert (0, 1) in g.bridges()

    def test_sssr(self):
        g = parse("*c1ccc2ccccc2c1*")
        rings = g.sssr()
        assert len(rings) == 2
        assert all(len(r) == 6 for r in rings)

    def test_cyclomatic_number_counts_components(self):
        tri_and_atom = MolGraph([Atom("C")] * 4,
                                [Bond(0, 1), Bond(1, 2), Bond(0, 2)])
        assert len(tri_and_atom.sssr()) == 1
        assert tri_and_atom.cyclomatic_number() == 1
        assert not tri_and_atom.is_connected()
        for s, rings in RING_FIXTURE:
            g = parse(s)
            assert g.cyclomatic_number() == len(g.sssr()) == rings, s
        assert MolGraph([], []).cyclomatic_number() == 0

    def test_duplicate_bond_rejected(self):
        with pytest.raises(ValueError):
            MolGraph([Atom("C"), Atom("C")],
                     [Bond(0, 1), Bond(1, 0, "double")])

    @pytest.mark.parametrize("bond", [Bond(0, 2), Bond(-1, 0), Bond(1, 1)])
    def test_bond_endpoints_out_of_range(self, bond):
        with pytest.raises(ValueError, match="bond endpoints out of range"):
            MolGraph([Atom("C"), Atom("C")], [bond])

    def test_bond_order_of_unbonded_pair(self):
        g = parse("*CC=O*")
        assert g.bond_order(2, 1) == "double"
        with pytest.raises(KeyError):
            g.bond_order(0, 2)

    @pytest.mark.parametrize("head, tail", [(0, 2), (-1, 1)])
    def test_boundary_out_of_range(self, head, tail):
        with pytest.raises(ValueError, match="boundary index out of range"):
            MonomerGraph([Atom("C"), Atom("C")], [Bond(0, 1)], head, tail)

    def test_disconnected_star_link(self):
        g = MonomerGraph([Atom("C"), Atom("C")], [], 0, 1)
        with pytest.raises(DisconnectedError):
            star_link(g)

    def test_dump_star_graph_fields(self):
        doc = json.loads(dump_star_graph(star_link(parse("*CONO*"))))
        assert [a["element"] for a in doc["atoms"]] == ["C", "O", "N", "O"]
        assert doc["link_edge"] == [0, 3]
        assert doc["meta"]["auto_repeat_k"] == 1
        assert doc["atoms"][0]["is_boundary"]
        assert all(a["is_backbone"] for a in doc["atoms"])


def components(g):
    seen, count = set(), 0
    for start in range(g.n):
        if start not in seen:
            count += 1
            seen.add(start)
            stack = [start]
            while stack:
                for v in g.neighbors(stack.pop()):
                    if v not in seen:
                        seen.add(v)
                        stack.append(v)
    return count


def check_cycle_basis(g, rings):
    """Every ring is an induced cycle of g, and the rings are ν
    GF(2)-independent bond sets, ν = bonds - atoms + components."""
    pivots = {}
    for ring in rings:
        assert all(sum(v in ring for v in g.neighbors(u)) == 2 for u in ring)
        start = min(ring)
        reached, stack = {start}, [start]
        while stack:
            for v in g.neighbors(stack.pop()):
                if v in ring and v not in reached:
                    reached.add(v)
                    stack.append(v)
        assert reached == ring
        row = sum(1 << k for k, b in enumerate(g.bonds)
                  if b.u in ring and b.v in ring)
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        assert row, "ring is a GF(2) sum of earlier rings"
        pivots[row.bit_length()] = row
    assert len(rings) == len(g.bonds) - g.n + components(g)


def random_graph(rng):
    n = rng.randint(3, 14)
    pairs = {(rng.randrange(i), i) for i in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        pairs.add((u, v))
    return MolGraph([Atom("C")] * n, [Bond(u, v) for u, v in sorted(pairs)])


class TestMinimumCycleBasis:
    """MolGraph.sssr against networkx's minimum_cycle_basis."""

    @pytest.fixture(scope="class")
    def nx(self):
        return pytest.importorskip("networkx")

    @staticmethod
    def nx_rings(nx, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(b.pair() for b in g.bonds)
        return [set(c) for c in nx.minimum_cycle_basis(h)]

    def nx_backbone(self, nx, g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(b.pair() for b in g.bonds)
        path = {v for p in nx.all_shortest_paths(h, g.head, g.tail) for v in p}
        marked = set(path)
        for ring in self.nx_rings(nx, g):
            if ring & path:
                marked |= ring
        return [i in marked for i in range(g.n)]

    def compare(self, nx, g):
        rings = g.sssr()
        check_cycle_basis(g, rings)
        assert (sorted(map(len, rings))
                == sorted(map(len, self.nx_rings(nx, g))))

    def test_fixture_and_ring_systems(self, nx):
        lines = [s for s, _ in RING_FIXTURE] + list(RING_SYSTEMS.values())
        for s in lines:
            g = parse(s)
            self.compare(nx, g)
            self.compare(nx, star_link(g).as_graph())
            assert detect_backbone(g) == self.nx_backbone(nx, g), s
        for n1, n2 in ((5, 5), (5, 6), (6, 8)):
            self.compare(nx, ring_pair_seed(n1, n2))

    def test_adamantane_cage_ring_lengths(self, nx):
        # the masks may differ here: the cage's basis is not unique
        g = parse(ADAMANTANE_CAGE)
        self.compare(nx, g)
        assert sorted(map(len, g.sssr())) == [6, 6, 6]

    def test_corpus(self, nx):
        for s in corpus(2000, seed=2024):
            g = parse(s)
            self.compare(nx, g)
            assert detect_backbone(g) == self.nx_backbone(nx, g), s

    def test_random_graphs(self, nx):
        rng = random.Random(5)
        for _ in range(300):
            self.compare(nx, random_graph(rng))

    def test_acyclic_and_disconnected(self, nx):
        tri_and_atom = MolGraph([Atom("C")] * 4,
                                [Bond(0, 1), Bond(1, 2), Bond(0, 2)])
        two_rings = MolGraph([Atom("C")] * 7, [
            Bond(0, 1), Bond(1, 2), Bond(0, 2),
            Bond(3, 4), Bond(4, 5), Bond(5, 6), Bond(3, 6)])
        for g in (tri_and_atom, two_rings, parse("*CC(C)O*"),
                  MolGraph([], [])):
            self.compare(nx, g)
        assert tri_and_atom.sssr() == [{0, 1, 2}]


class TestRingWork:
    """``sssr`` reads its blocks off the memoised search: rings joined by a
    bridge skip Horton's candidates, and one search serves the string's
    whole way to a backbone."""

    @pytest.fixture
    def work(self, monkeypatch):
        work = Counter()
        basis, search = graphs._min_cycle_basis, MolGraph._depth_first

        def counted_basis(*args):
            work["bases"] += 1
            return basis(*args)

        def counted_search(self, first):
            work["searches"] += 1
            return search(self, first)

        monkeypatch.setattr(graphs, "_min_cycle_basis", counted_basis)
        monkeypatch.setattr(MolGraph, "_depth_first", counted_search)
        return work

    @pytest.mark.parametrize("g, bases", [
        (lambda: parse("*C1CCC(CC1)C1CCC(*)CC1"), 0),
        (lambda: repeat_monomer(parse("*CC1CCCC1*"), 2), 0),
        (lambda: ring_pair_seed(5, 6), 0),
        (lambda: parse("*CC1CCC2(CC1)CCCC2*"), 1),
    ], ids=["bridged rings", "doubled ring unit", "ring pair", "spiro"])
    def test_horton_only_on_blocks_with_several_rings(self, work, g, bases):
        g = g()
        assert len(g.sssr()) == 2
        assert work["bases"] == bases

    def test_one_search_from_string_to_backbone(self, work):
        star = star_link(parse("*CC1CCC2(CC1)CCCC2*"))
        assert star.auto_repeat_k == 1 and all(star.backbone)
        assert work["searches"] == 1


def backbone_violations(s, n_perms, seed=0):
    """Relabelings of parse(s) whose backbone mask is not the permuted
    mask of the original."""
    g = parse(s)
    base = detect_backbone(g)
    rng = random.Random(seed)
    bad = 0
    for _ in range(n_perms):
        perm = list(range(g.n))
        rng.shuffle(perm)
        if detect_backbone(relabel(g, perm)) != [base[old] for old in perm]:
            bad += 1
    return bad


class TestBackboneEquivariance:
    def test_corpus_lines(self):
        for i, s in enumerate(corpus(200, seed=31)):
            assert backbone_violations(s, 5, seed=i) == 0, s

    @pytest.mark.parametrize("s", list(RING_SYSTEMS.values()),
                             ids=list(RING_SYSTEMS))
    def test_ring_systems(self, s):
        assert backbone_violations(s, 50) == 0

    @pytest.mark.xfail(strict=True, reason=(
        "the adamantane cage has 4 six-rings and any 3 form a minimum cycle "
        "basis; which 3 the basis keeps depends on atom numbering, and so "
        "does whether the ring off the path is absorbed. Absorbing every "
        "relevant cycle (Vismara 1997) would fix this but changes the "
        "backbone definition."))
    def test_adamantane_cage(self):
        assert backbone_violations(ADAMANTANE_CAGE, 50) == 0


def test_networkx_not_imported():
    src = os.path.dirname(os.path.dirname(
        sys.modules["polyseq"].__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    code = ("import sys, polyseq\n"
            "m = polyseq.ReferenceModel.generate(0, d=8, L=1)\n"
            "polyseq.forward_polymer(m, polyseq.parse('*CC1CCC(CC1)C*'))\n"
            "assert 'networkx' not in sys.modules, 'networkx was imported'\n")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
