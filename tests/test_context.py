import json
import random
from types import SimpleNamespace

import numpy as np
import pytest

from polyseq import (
    AttentionContext,
    DisconnectedError,
    auto_repeat_for_lga,
    build_context,
    forward_polymer,
    parse,
    repeat_monomer,
    star_link,
    strategy_transform,
)
from polyseq import verify
from polyseq.cli import main
from polyseq.context import EDGE_CODES, neighbour_table
from polyseq.corpus import corpus
from polyseq.graphs import BOND_VALENCE, Atom, Bond, MolGraph, relabel
from polyseq.nets import ReferenceModel

# Ring systems with many tied shortest paths, written with the boundary
# path running through the rings.  In cyclobutene the tied paths across a
# ring differ in bond order.
TIED_RING_SYSTEMS = {
    "cyclobutene": "*C1C=CC1*",
    "norbornane": "*C1CC2CCC1C2*",
    "cubane": "*C12C3C4C1C5C2C3C45*",
    "anthracene": "*c1ccc2cc3cc(*)ccc3cc2c1",
    "adamantane cage": "*CC12CC3CC(CC(C3)C1)C2*",
}


ONEHOT = dict(zip(EDGE_CODES, np.eye(len(EDGE_CODES)).tolist()))
INF_SENTINEL = 0x7FFFFFFF  # the reference's distance to an unreached atom


def graph_of(psmiles, linked=True):
    g = parse(psmiles)
    return star_link(g).as_graph() if linked else g


def ctx_of(psmiles, d_thres=3, linked=True):
    return build_context(graph_of(psmiles, linked), d_thres)


def path_counts(ctx):
    """The per-code edge counts along each pair's path, given back exactly
    by the context's means times the distance."""
    return np.rint(ctx.path * np.maximum(ctx.dist, 1)[..., None])


def fold_equivalent(star_ctx, unroll_ctx, n_unit, copy):
    """Check that a middle copy of the unrolled context folds onto the star
    context: for each atom of that copy, its row's multiset of (key mod
    n_unit, distance, edge-code means) over the real keys must match the
    star atom's (at one distance, equal means are equal counts).  These
    are what the attention bias reads; a periodic row may reach one atom
    through two images with equal entries, and each must have its
    counterpart.
    """
    def row(ctx, i):
        real = ~ctx.pad[i]
        return sorted(zip((ctx.key[i, real] % n_unit).tolist(),
                          ctx.dist[i, real].tolist(),
                          map(tuple, ctx.path[i, real].tolist())))

    return all(row(unroll_ctx, copy * n_unit + i) == row(star_ctx, i)
               for i in range(n_unit))


def pairs(ctx):
    """The table's real pairs in row order: query, key, dist, path means."""
    real = ~ctx.pad
    query = np.nonzero(real)[0]
    return query, ctx.key[real], ctx.dist[real], ctx.path[real]


def densify(ctx):
    """Scatter the context's pairs into n x n arrays indexed [key, query],
    the layout of _reference_context: distances (INF_SENTINEL outside the
    mask), path means (zero outside) and the mask."""
    n = ctx.n
    query, key, d, c = pairs(ctx)
    dist = np.full((n, n), INF_SENTINEL, dtype=np.int64)
    path = np.zeros((n, n, len(EDGE_CODES)))
    mask = np.zeros((n, n), dtype=bool)
    dist[key, query] = d
    path[key, query] = c
    mask[key, query] = True
    return SimpleNamespace(n=n, dist=dist, path=path, local_mask=mask)


def all_distances(g):
    return np.array([g.bfs_distances(i) for i in range(g.n)])


class TestInvariants:
    @pytest.mark.parametrize("s", ["*CONO*", "*CC(C)OC(=O)*",
                                   "*c1ccc(*)cc1", "*CC(c1ccccc1)O*"])
    def test_distance_matrix(self, s):
        g = graph_of(s)
        d = all_distances(g)
        assert np.array_equal(d, d.T)
        assert np.all(np.diag(d) == 0)
        # triangle inequality over all triples
        assert np.all(d[:, :, None] + d[None, :, :] >= d[:, None, :])
        # the context holds these distances on the masked pairs
        query, key, dist, _ = pairs(build_context(g, 3))
        assert np.array_equal(dist, d[key, query])

    @pytest.mark.parametrize("s", ["*CONO*", "*CC(c1ccccc1)O*"])
    def test_path_counts_sum_to_distance(self, s):
        ctx = ctx_of(s)
        assert np.array_equal(path_counts(ctx).sum(axis=2), ctx.dist)

    def test_mask_diagonal_always_on(self):
        ctx = ctx_of("*CONO*", d_thres=1)
        assert np.array_equal(densify(ctx).local_mask, np.eye(4, dtype=bool))

    def test_strict_threshold(self):
        # 4-cycle at d_thres=2 keeps self plus the two hop-1 neighbors
        mask = densify(ctx_of("*CONO*", d_thres=2)).local_mask
        assert np.all(mask.sum(axis=1) == 3)
        assert not mask[0, 2]

    def test_edge_codes_recorded(self):
        star = star_link(parse("*CC=CC*"))
        path = densify(build_context(star.as_graph(), 4)).path
        assert path[1, 2].tolist() == ONEHOT["double"]
        # 0-3 goes through the link edge, recorded as a single bond
        assert path[0, 3].tolist() == ONEHOT["single"]

    def test_deterministic_tie_break(self):
        # the star graph is two 4-rings, 0-1=2-3 and 4-5=6-7, with 3-4 and
        # the link 0-7; each ring has two tied paths between opposite
        # corners, one through the double bond, and the path through the
        # lower-index middle atom wins
        g = star_link(parse("*C1C=CC1*")).as_graph()
        a = densify(build_context(g, 3))
        b = densify(build_context(g, 3))
        assert np.array_equal(a.path, b.path)
        single, double = ONEHOT["single"], ONEHOT["double"]
        via_double = [s + d for s, d in zip(single, double)]
        # each pair is 2 hops apart: the means are half the counts
        for i, j in [(0, 2), (2, 0), (4, 6), (6, 4)]:
            assert (2 * a.path[i, j]).tolist() == via_double
        for i, j in [(1, 3), (3, 1), (5, 7), (7, 5)]:
            assert a.path[i, j].tolist() == single

    def test_onehot_means(self):
        ctx = ctx_of("*CC=CC*", d_thres=5)
        assert (~ctx.pad).sum() == ctx.n ** 2  # the 4-ring is all in the mask
        sums = ctx.path.sum(axis=2)
        off = ctx.key != np.arange(ctx.n)[:, None]
        assert np.allclose(sums[off], 1.0)
        assert np.allclose(sums[~off], 0.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_context(parse("*CC*"), 0)
        with pytest.raises(DisconnectedError):
            build_context(MolGraph([Atom("C"), Atom("C")], []), 2)


class TestPeriodic:
    """Contexts of the k-fold open-chain unroll of a monomer."""

    def test_k1_equals_plain(self):
        g = parse("*CC(C)O*")
        a = build_context(repeat_monomer(g, 1), 3)
        b = build_context(g, 3)
        for name in ("key", "dist", "path", "pad"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_unroll_sizes(self):
        chain = repeat_monomer(parse("*CONO*"), 3)
        assert build_context(chain, 3).n == 12
        assert chain.bfs_distances(0)[11] == 11

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            build_context(repeat_monomer(parse("*CC*"), 0), 2)


def _chain_rows(ctx, n_unit, copies):
    """The real entries of the middle copy's rows of a context of the
    copies-fold unroll, as sorted (chain key, dist, path) per unit atom."""
    mid = copies // 2
    q, key, d, c = pairs(ctx)
    out = []
    for i in range(n_unit):
        sel = q == mid * n_unit + i
        out.append(sorted(zip(key[sel].tolist(), d[sel].tolist(),
                              map(tuple, c[sel].tolist()))))
    return out


def _periodic_rows(ctx, copies):
    """The periodic context's rows in the chain's numbering: the key of
    image t, seen from the middle copy, is atom key of copy mid + t."""
    mid = copies // 2
    out = []
    for i in range(ctx.n):
        real = ~ctx.pad[i]
        keys = (mid + ctx.image[i, real]) * ctx.n + ctx.key[i, real]
        out.append(sorted(zip(keys.tolist(), ctx.dist[i, real].tolist(),
                              map(tuple, ctx.path[i, real].tolist()))))
    return out


class TestPeriodicContext:
    """build_context of a StarLinkGraph: one repeat unit whose link bond
    carries an image shift."""

    LINES = corpus(200, seed=15)

    @pytest.mark.parametrize("d_thres", [1, 2, 3])
    def test_unrepeated_units_match_the_linked_graph(self, d_thres):
        # where the boundary distance already exceeds 2*d_thres - 1, no
        # path of d_thres - 1 hops wraps, and the table is the cyclic one
        checked = 0
        for s in self.LINES:
            g = parse(s)
            if auto_repeat_for_lga(g, d_thres)[1] > 1:
                continue
            star = star_link(g)
            a = build_context(star, d_thres)
            b = build_context(star.as_graph(), d_thres)
            _assert_table(a, periodic=True)
            for name in ("key", "dist", "path", "pad"):
                assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
            checked += 1
        assert checked >= 10

    @pytest.mark.parametrize("d_thres", [1, 2, 3, 4])
    def test_rows_are_the_infinite_chains(self, d_thres):
        # the middle copy of an open chain long enough that no row reaches
        # its ends holds exactly the periodic pairs, image by image
        copies = 2 * d_thres + 1
        for s in self.LINES[:40] + ["*C*", "*CC*", "*CNO*",
                                    "*C12CC(C1)C2*", "*C1CC2CCC1C2*"]:
            star = star_link(parse(s))
            ctx = build_context(star, d_thres)
            _assert_table(ctx, periodic=True)
            chain = repeat_monomer(star.monomer, copies)
            assert _periodic_rows(ctx, copies) == _chain_rows(
                build_context(chain, d_thres), star.monomer.n, copies), s

    def test_repeated_atoms_pinned(self):
        # *CC* links as the unit *CCCC* (head and tail would be bonded),
        # and *C* as *CCC*; at d_thres=3 every atom reaches the atom two
        # bonds away along the chain in both directions
        ctx = build_context(star_link(parse("*CC*")), 3)
        assert ctx.key.tolist() == [[0, 1, 2, 2, 3], [0, 1, 2, 3, 3],
                                    [0, 0, 1, 2, 3], [0, 1, 1, 2, 3]]
        assert ctx.image.tolist() == [[0, 0, -1, 0, -1], [0, 0, 0, -1, 0],
                                      [0, 1, 0, 0, 0], [1, 0, 1, 0, 0]]
        assert ctx.dist.tolist() == [[0, 1, 2, 2, 1], [1, 0, 1, 2, 2],
                                     [2, 2, 1, 0, 1], [1, 2, 2, 1, 0]]
        assert not ctx.pad.any()
        ctx = build_context(star_link(parse("*C*")), 3)
        assert ctx.key.tolist() == [[0, 1, 1, 2, 2], [0, 0, 1, 2, 2],
                                    [0, 0, 1, 1, 2]]
        assert ctx.image.tolist() == [[0, -1, 0, -1, 0], [0, 1, 0, -1, 0],
                                      [0, 1, 0, 1, 0]]
        assert ctx.dist.tolist() == [[0, 2, 1, 1, 2], [1, 2, 0, 2, 1],
                                     [2, 1, 1, 2, 0]]
        single = ONEHOT["single"]
        assert path_counts(ctx).tolist() == [
            [[d * c for c in single] for d in row] for row in ctx.dist]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            build_context(star_link(parse("*CC*")), 0)


class TestFolding:
    @pytest.mark.parametrize("s,dt", [("*CONO*", 2), ("*CC(C)OC(=O)*", 3),
                                      ("*CC*", 2), ("*C*", 2)])
    def test_positive(self, s, dt):
        m, _ = auto_repeat_for_lga(parse(s), dt)
        star = star_link(m)
        star_ctx = build_context(star.as_graph(), dt)
        k = 2 * 3 + 3
        un_ctx = build_context(repeat_monomer(star.monomer, k), dt)
        assert fold_equivalent(star_ctx, un_ctx, star.monomer.n, k // 2)

    @pytest.mark.parametrize("s", ["*CONO*", "*CC(C)OC(=O)*", "*CC*", "*C*",
                                   "*CNO*"])
    @pytest.mark.parametrize("dt", [2, 3, 4])
    def test_periodic_needs_no_repeat(self, s, dt):
        star = star_link(parse(s))
        k = 2 * 3 + 3
        un_ctx = build_context(repeat_monomer(star.monomer, k), dt)
        assert fold_equivalent(build_context(star, dt), un_ctx,
                               star.monomer.n, k // 2)

    def test_negative_without_auto_repeat(self):
        # boundary distance 2 is too short for d_thres=3: the cycle wraps
        g = parse("*CNO*")
        star = star_link(g)
        star_ctx = build_context(star.as_graph(), 3)
        un_ctx = build_context(repeat_monomer(g, 9), 3)
        assert not fold_equivalent(star_ctx, un_ctx, g.n, 4)

    def test_counts_repeated_entries(self):
        # atom 0 of *CCCC* reaches atom 2 from two images, both at distance
        # 2 along single bonds: equal entries, each of which must fold
        star = star_link(parse("*CC*"))
        ctx = build_context(star, 3)
        un_ctx = build_context(repeat_monomer(star.monomer, 9), 3)
        assert fold_equivalent(ctx, un_ctx, 4, 4)
        assert ctx.key[0, 2] == ctx.key[0, 3] == 2
        keep = [0, 1, 3, 4]
        dropped = AttentionContext(
            ctx.n, ctx.key.copy(), ctx.dist.copy(), ctx.path.copy(),
            ctx.pad.copy(), ctx.image.copy())
        for name in ("key", "dist", "path", "image"):
            table = getattr(dropped, name)
            table[0, :4] = getattr(ctx, name)[0, keep]
        dropped.key[0, 4], dropped.dist[0, 4] = 0, 0
        dropped.image[0, 4], dropped.path[0, 4] = 0, 0.0
        dropped.pad[0, 4] = True
        _assert_table(dropped, periodic=True)
        assert not fold_equivalent(dropped, un_ctx, 4, 4)


def _assert_union(members, d_thres):
    """Member i's rows of the union context are its own context's, every
    key offset by the atoms of the members before it; only the pad width
    may grow."""
    union = build_context(members, d_thres)
    start = 0
    for g in members:
        own = build_context(g, d_thres)
        rows, width = slice(start, start + own.n), own.pad.shape[1]
        assert union.pad.shape[1] >= width and union.pad[rows, width:].all()
        assert np.array_equal(union.pad[rows, :width], own.pad)
        for name, shift in (("key", start), ("dist", 0), ("image", 0),
                            ("path", 0)):
            got = getattr(union, name)[rows, :width]
            assert got.tobytes() == (getattr(own, name) + shift).tobytes()
        start += own.n
    assert union.n == start
    return union


class TestUnion:
    """build_context and neighbour_table over a sequence of graphs describe
    their disjoint union."""

    @pytest.mark.parametrize("d_thres", [1, 2, 3, 4])
    def test_mixed_members(self, d_thres):
        # periodic units, plain and cyclic graphs and an open chain, with
        # rows of unequal width
        a, b = star_link(parse("*CC(C)OC(=O)*")), star_link(parse("*CNO*"))
        members = [a, parse("*C1CC2CCC1C2*"), b.as_graph(), star_link(
            parse("*C*")), repeat_monomer(b.monomer, 5), b,
            MolGraph([Atom("C")], [])]
        _assert_table(_assert_union(members, d_thres), periodic=True)
        plain = [g for g in members if isinstance(g, MolGraph)]
        _assert_table(_assert_union(plain, d_thres))

    @pytest.mark.parametrize("d_thres", [1, 2, 3, 4])
    def test_oracle_unions(self, d_thres):
        # the unions the attention oracle builds, the negative control's
        # narrower cyclic rows among them
        for s in corpus(300, seed=15) + ["*CNO*", "*C*", "*CC*"]:
            star = star_link(parse(s))
            chain, _ = verify._unroll(star, 3 * (d_thres - 1))
            _assert_union([star, chain], d_thres)
            _assert_union([star.as_graph(), chain], d_thres)

    @pytest.mark.parametrize("d_thres", [1, 2, 3, 4])
    def test_one_graph_is_the_union_of_one(self, d_thres):
        for s in corpus(20, seed=15) + ["*C*"]:
            star = star_link(parse(s))
            for g in (star, star.as_graph(), parse(s)):
                a, b = build_context(g, d_thres), build_context([g], d_thres)
                for name in ("key", "dist", "image", "path", "pad"):
                    assert (getattr(a, name).tobytes()
                            == getattr(b, name).tobytes())
                assert a.n == b.n

    def test_neighbour_tables(self):
        # stacked member tables, keys offset and pads re-pointed one past
        # the union's last atom
        members = [star_link(parse(s)).as_graph() for s in corpus(8, seed=3)]
        members += [repeat_monomer(parse("*C1CC2CCC1C2*"), 3),
                    MolGraph([Atom("C")], [])]
        nbr, code = neighbour_table(members)
        n = sum(g.n for g in members)
        start = 0
        for g in members:
            own_nbr, own_code = neighbour_table(g)
            rows, width = slice(start, start + g.n), own_nbr.shape[1]
            assert np.array_equal(nbr[rows, :width], np.where(
                own_nbr == g.n, n, own_nbr + start))
            assert np.array_equal(code[rows, :width], own_code)
            assert (nbr[rows, width:] == n).all()
            assert not code[rows, width:].any()
            start += g.n
        assert nbr.shape[0] == n

    def test_every_member_must_be_connected(self):
        with pytest.raises(DisconnectedError):
            build_context([parse("*CC*"), MolGraph([Atom("C")] * 2, [])], 2)
        with pytest.raises(DisconnectedError):
            build_context([], 2)


class TestSerialization:
    def test_distances_json(self, tmp_path, capsys):
        path = tmp_path / "in.txt"
        path.write_text("*CONO*\n")
        assert main(["distances", str(path), "--d-thres", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"n": 4, "d_thres": 2, "context": [
            [[0, 0, 0], [1, 0, 1], [3, -1, 1]],
            [[0, 0, 1], [1, 0, 0], [2, 0, 1]],
            [[1, 0, 1], [2, 0, 0], [3, 0, 1]],
            [[0, 1, 1], [2, 0, 1], [3, 0, 0]]]}


class TestEdgeCodes:
    def test_edge_codes_are_the_bond_orders(self):
        assert EDGE_CODES == ("single", "double", "triple", "aromatic")
        assert EDGE_CODES == tuple(BOND_VALENCE)

    def test_unknown_bond_order_raises(self):
        g = MolGraph([Atom("C"), Atom("C")], [Bond(0, 1, "quadruple")])
        with pytest.raises(KeyError):
            neighbour_table(g)


def _reference_context(g, d_thres):
    """The dense all-pairs context: one BFS per source, each level visited
    in ascending atom order; the first atom to reach v is its predecessor.
    Arrays are indexed [source, target], which the layers read as [key,
    query]."""
    n = g.n
    ecode = np.full((n, n), -1, dtype=np.int64)
    for b in g.bonds:
        ecode[b.u, b.v] = ecode[b.v, b.u] = EDGE_CODES.index(b.order)
    dist = np.full((n, n), INF_SENTINEL, dtype=np.int64)
    parent = np.full((n, n), -1, dtype=np.int64)
    for src in range(n):
        dist[src, src] = 0
        level = [src]
        d = 0
        while level:
            nxt = []
            for u in sorted(level):
                for v in g.neighbors(u):
                    if dist[src, v] == INF_SENTINEL:
                        dist[src, v] = d + 1
                        parent[src, v] = u
                        nxt.append(v)
            level = nxt
            d += 1
    counts = np.zeros((n, n, len(EDGE_CODES)))
    eye = np.eye(len(EDGE_CODES))
    for d in range(1, int(dist.max(initial=0)) + 1):
        ss, vv = np.nonzero(dist == d)
        pp = parent[ss, vv]
        counts[ss, vv] = counts[ss, pp] + eye[ecode[pp, vv]]
    path = counts / np.maximum(dist, 1)[:, :, None]
    return SimpleNamespace(n=n, dist=dist, path=path,
                           local_mask=dist < d_thres)


def _reference_to_json(star, d_thres):
    """The periodic context read off the middle copy of a chain long enough
    that no row reaches its ends: chain atom j is atom j mod n in image
    j // n - mid."""
    n, copies = star.monomer.n, 2 * d_thres + 1
    mid = copies // 2
    chain = repeat_monomer(star.monomer, copies)
    dist = _reference_context(chain, d_thres).dist
    rows = []
    for i in range(n):
        row = dist[mid * n + i]
        rows.append(sorted([j % n, j // n - mid, int(row[j])]
                           for j in np.flatnonzero(row < d_thres).tolist()))
    return json.dumps({"n": n, "d_thres": d_thres, "context": rows},
                      separators=(",", ":"))


def _assert_table(ctx, periodic=False):
    """One row per query: real entries ascending by (key, image), then pads
    only; each row holds its diagonal, in image 0, at distance 0; the
    longest row has no pad; a plain graph's keys are all in image 0."""
    assert isinstance(ctx, AttentionContext)
    n, width = ctx.key.shape
    assert n == ctx.n and width >= 1
    assert ctx.dist.shape == ctx.pad.shape == ctx.image.shape == (n, width)
    assert ctx.path.shape == (n, width, len(EDGE_CODES))
    assert ctx.pad.dtype == bool and not ctx.pad.all(axis=0).any()
    real = (~ctx.pad).sum(axis=1)
    # real entries first: the row is unpadded up to its count
    assert np.array_equal(ctx.pad, np.arange(width) >= real[:, None])
    for i in range(n):
        keys = ctx.key[i, :real[i]].tolist()
        entries = list(zip(keys, ctx.image[i, :real[i]].tolist()))
        assert all(a < b for a, b in zip(entries, entries[1:]))
        assert all(0 <= k < n for k in keys)
        assert ctx.dist[i, entries.index((i, 0))] == 0
    assert np.all(ctx.dist[ctx.pad] == 0) and np.all(ctx.image[ctx.pad] == 0)
    assert not ctx.path[ctx.pad].any()
    if not periodic:
        assert not ctx.image.any()
    # an image shift of s needs at least |s| hops
    assert np.all(np.abs(ctx.image) <= ctx.dist)


def _assert_same_context(g):
    """build_context holds exactly the reference's masked pairs, with
    byte-identical distances and path means."""
    for d_thres in (1, 2, 3, 4):
        ctx = build_context(g, d_thres)
        _assert_table(ctx)
        got, want = densify(ctx), _reference_context(g, d_thres)
        assert got.n == want.n
        mask = want.local_mask
        assert got.local_mask.tobytes() == mask.tobytes(), d_thres
        assert ctx.dist.dtype == want.dist.dtype
        for name in ("dist", "path"):
            a, b = getattr(got, name)[mask], getattr(want, name)[mask]
            assert a.tobytes() == b.tobytes(), (name, d_thres)


def _lga_chains(s):
    """The chains lga_deviation builds, L=3, d_thres 2 and 3."""
    for d_thres in (2, 3):
        yield verify._unroll(star_link(parse(s)), 3 * (d_thres - 1))[0]


class TestReferenceBFS:
    """build_context is byte-identical to a plain per-source BFS."""

    def test_corpus_star_links(self):
        for s in corpus(200, seed=15):
            _assert_same_context(star_link(parse(s)).as_graph())

    @pytest.mark.parametrize("strategy", ["remove", "keep", "substitute"])
    def test_strategy_graphs(self, strategy):
        for s in corpus(60, seed=16):
            _assert_same_context(strategy_transform(parse(s), strategy))

    def test_lga_chains(self):
        for s in corpus(4, seed=17) + ["*C1CC2CCC1C2*"]:
            for chain in _lga_chains(s):
                _assert_same_context(chain)

    @pytest.mark.parametrize("s", list(TIED_RING_SYSTEMS.values()),
                             ids=list(TIED_RING_SYSTEMS))
    def test_tied_ring_systems(self, s):
        g = star_link(parse(s)).as_graph()
        rng = random.Random(3)
        for _ in range(6):
            perm = list(range(g.n))
            rng.shuffle(perm)
            _assert_same_context(relabel(g, perm))
        _assert_same_context(g)
        _assert_same_context(parse(s))

    def test_single_atom(self):
        g = MolGraph([Atom("C")], [])
        _assert_same_context(g)
        ctx = densify(build_context(g, 2))
        assert ctx.dist.tolist() == [[0]]
        assert ctx.path.shape == (1, 1, len(EDGE_CODES))

    def test_relabel_permutes_dist_and_mask(self):
        rng = random.Random(4)
        for s in list(TIED_RING_SYSTEMS.values()) + corpus(20, seed=18):
            g = star_link(parse(s)).as_graph()
            perm = list(range(g.n))
            rng.shuffle(perm)
            base = densify(build_context(g, 3))
            moved = densify(build_context(relabel(g, perm), 3))
            assert np.array_equal(moved.dist, base.dist[np.ix_(perm, perm)])
            assert np.array_equal(moved.local_mask,
                                  base.local_mask[np.ix_(perm, perm)])

    def test_holds_exactly_the_masked_pairs(self):
        # a 288-atom chain, the 9-fold unroll of a 4-fold repeat unit
        unit = auto_repeat_for_lga(parse("*C(C1(CCCC1)*)NN"), 3)[0]
        chain = repeat_monomer(star_link(unit).monomer, 9)
        assert chain.n == 288
        for d_thres in (2, 3, 4):
            ctx = build_context(chain, d_thres)
            want = (_reference_context(chain, d_thres).dist < d_thres).sum()
            assert (~ctx.pad).sum() == want
            _assert_table(ctx)

    def test_forward_single_atom_pin(self):
        res = forward_polymer(ReferenceModel.generate(0), parse("*C*"),
                              strategy="remove")
        assert res.yhat == 1.3747160975733588


def test_distances_output_matches_reference(tmp_path, capsys):
    lines = corpus(30, seed=19) + ["*C12C3C4C1C5C2C3C45*"]
    path = tmp_path / "in.txt"
    path.write_text("\n".join(lines) + "\n")
    assert main(["distances", str(path), "--d-thres", "3"]) == 0
    want = "".join(
        _reference_to_json(star_link(parse(s)), 3) + "\n" for s in lines)
    assert capsys.readouterr().out == want
