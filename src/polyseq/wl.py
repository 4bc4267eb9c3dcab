"""Color refinement, exact isomorphism, twin-pair generation.

Colors are 16-byte blake2b digests built from canonical signatures, so
coloring results are directly comparable across graphs, runs, and platforms.
A refinement round hashes each distinct signature once, and the round that
confirms a stable partition hashes nothing: it compares the count of
distinct signatures with the count of color classes.  Colors and keys are
those of hashing every atom's signature in every round.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from .errors import BudgetExceeded, DisconnectedError
from .graphs import (Bond, MolGraph, MonomerGraph, StarLinkGraph,
                     repeat_monomer, star_link)

NODE_CAP = 64
MAX_UNROLL = 6  # deepest k-fold unroll searched for a twin pair's witness


def _digest(payload: str) -> bytes:
    return hashlib.blake2b(payload.encode(), digest_size=16).digest()


def _repr_digests(keys) -> list[bytes]:
    """``_digest(repr(key))`` per key, hashing each distinct repr once."""
    memo: dict[str, bytes] = {}
    out = []
    for key in keys:
        r = repr(key)
        d = memo.get(r)
        if d is None:
            d = memo[r] = _digest(r)
        out.append(d)
    return out


def initial_colors(g: MolGraph, extra=None) -> list[bytes]:
    if extra is None:
        return _repr_digests(atom.attr_key() for atom in g.atoms)
    return _repr_digests(atom.attr_key() + (extra(i),)
                         for i, atom in enumerate(g.atoms))


@dataclass
class ColoringResult:
    colors: list[bytes]
    histogram: list[tuple[str, int]]
    rounds: int

    @staticmethod
    def _hist(colors: list[bytes]) -> list[tuple[str, int]]:
        counts: dict[bytes, int] = {}
        for c in colors:
            counts[c] = counts.get(c, 0) + 1
        return sorted((c.hex(), k) for c, k in counts.items())


def _signatures(adj: dict[int, list[tuple[int, str]]],
                colors: list[bytes]) -> list[tuple]:
    """Per atom: its color and its sorted (bond order, neighbor color) pairs."""
    return [(colors[i], tuple(sorted([(o, colors[j]) for j, o in adj[i]])))
            for i in range(len(adj))]


def _recolor(sigs: list[tuple], distinct: set[tuple]) -> list[bytes]:
    """Next colors: the digest of each distinct signature, computed once.

    The payload spells colors in hex.  Hex preserves byte order, so the
    neighbor pairs sorted on raw bytes are already in hex order.
    """
    hexes = {c: c.hex() for c, _ in distinct}
    digests = {}
    for sig in distinct:
        color, nbr = sig
        pairs = [(o, hexes[c]) for o, c in nbr]
        digests[sig] = _digest(f"{hexes[color]}|{pairs}")
    return [digests[sig] for sig in sigs]


def wl_refine(g: MolGraph, init: list | None = None,
              rounds: int | None = None) -> ColoringResult:
    """1-WL refinement.

    With ``rounds=None`` the refinement runs until the partition is stable;
    the last counted round is the one that would split no color class.  The
    next colors fold in the current ones, so that round is found by counting
    distinct signatures against classes, and it computes no digests.
    Otherwise exactly ``rounds`` rounds are applied.  ``init`` may be a list
    of hashables used as initial colors instead of the atom attributes.
    """
    if init is None:
        colors = initial_colors(g)
    elif init and isinstance(init[0], bytes):
        colors = list(init)
    else:
        colors = _repr_digests(init)
    adj = g.adjacency()
    if rounds is not None:
        for _ in range(rounds):
            sigs = _signatures(adj, colors)
            colors = _recolor(sigs, set(sigs))
        return ColoringResult(colors, ColoringResult._hist(colors), rounds)
    classes = len(set(colors))
    done = 0
    for t in range(1, g.n + 2):
        done = t
        sigs = _signatures(adj, colors)
        distinct = set(sigs)
        if len(distinct) == classes:
            break
        colors = _recolor(sigs, distinct)
        classes = len(distinct)
    return ColoringResult(colors, ColoringResult._hist(colors), done)


def canonical_key(g: MolGraph, extra=None) -> bytes:
    """Isomorphism-invariant key, canonical up to WL distinguishability.

    ``extra`` maps node index -> hashable and is folded into the initial
    colors, e.g. to make boundary atoms distinguishable.
    """
    res = wl_refine(g, init=initial_colors(g, extra))
    nodes = sorted(c.hex() for c in res.colors)
    edges = sorted(
        (min(res.colors[b.u], res.colors[b.v]).hex(),
         max(res.colors[b.u], res.colors[b.v]).hex(),
         b.order)
        for b in g.bonds
    )
    return _digest(f"{nodes}#{edges}")


def isomorphic(g1: MolGraph, g2: MolGraph, extra1=None, extra2=None
               ) -> tuple[bool, list[int] | None]:
    """Exact attributed isomorphism via WL-pruned backtracking.

    ``extra1``/``extra2`` map node index -> hashable and are folded into the
    initial colors (used to pin boundary roles).  Returns ``(found, mapping)``
    where ``mapping[i]`` is the g2 node matched to g1 node ``i``.
    """
    if max(g1.n, g2.n) > NODE_CAP:
        raise BudgetExceeded(f"graph exceeds {NODE_CAP}-node search budget")
    if g1.n != g2.n or len(g1.bonds) != len(g2.bonds):
        return False, None
    c1 = wl_refine(g1, init=initial_colors(g1, extra1))
    c2 = wl_refine(g2, init=initial_colors(g2, extra2))
    if c1.histogram != c2.histogram:
        return False, None

    by_color: dict[bytes, list[int]] = {}
    for j, c in enumerate(c2.colors):
        by_color.setdefault(c, []).append(j)

    # Match in BFS order so each new node (after the first) is constrained
    # by an already-mapped neighbor.  The order list is the BFS queue.
    order: list[int] = []
    seen = [False] * g1.n
    pos = 0
    for root in range(g1.n):
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        while pos < len(order):
            for v in g1.neighbors(order[pos]):
                if not seen[v]:
                    seen[v] = True
                    order.append(v)
            pos += 1

    adj1 = {i: {j: o for j, o in g1.adjacency()[i]} for i in range(g1.n)}
    adj2 = {i: {j: o for j, o in g2.adjacency()[i]} for i in range(g2.n)}
    mapping = [-1] * g1.n
    inverse = [-1] * g2.n  # inverse[mapping[u]] == u for every mapped u

    def feasible(u: int, v: int) -> bool:
        if c1.colors[u] != c2.colors[v] or len(adj1[u]) != len(adj2[v]):
            return False
        for w, o in adj1[u].items():
            mw = mapping[w]
            if mw >= 0 and adj2[v].get(mw) != o:
                return False
        for w2, o in adj2[v].items():
            w1 = inverse[w2]
            if w1 >= 0 and adj1[u].get(w1) != o:
                return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == len(order):
            return True
        u = order[pos]
        for v in by_color.get(c1.colors[u], []):
            if inverse[v] < 0 and feasible(u, v):
                mapping[u] = v
                inverse[v] = u
                if backtrack(pos + 1):
                    return True
                mapping[u] = -1
                inverse[v] = -1
        return False

    if backtrack(0):
        return True, mapping
    return False, None


def _boundary_role(g: MonomerGraph):
    def role(i: int):
        return (i == g.head, i == g.tail)
    return role


def monomer_isomorphic(a: MonomerGraph, b: MonomerGraph,
                       allow_swap: bool = True) -> bool:
    """Attributed isomorphism mapping boundary atoms to boundary atoms."""
    ok, _ = isomorphic(a, b, _boundary_role(a), _boundary_role(b))
    if ok or not allow_swap:
        return ok

    def swapped(i: int):
        return (i == b.tail, i == b.head)

    ok, _ = isomorphic(a, b, _boundary_role(a), swapped)
    return ok


def separating_bridges(g: MonomerGraph) -> list[tuple[int, int]]:
    """Bridges whose removal separates the two boundary atoms.

    These are exactly the edges of the infinite chain whose cut yields a
    translation of the same polymer.
    """
    return [edge for edge, _ in _head_sides(g)]


def _head_sides(g: MonomerGraph) -> list[tuple[tuple[int, int], set[int]]]:
    """Boundary-separating bridges, sorted, each with the atoms on head's side.

    When tail is reachable from head, every head-tail path crosses each
    separating bridge, so only the bridges on one BFS-tree path need a
    search.  When it is not, every bridge separates the boundary atoms.
    """
    bridges = g.bridges()
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
    return [(edge, _component_without(g, edge, g.head))
            for edge in sorted(bridges)]


def _component_without(g: MolGraph, edge: tuple[int, int], start: int) -> set[int]:
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


def translation_variants(g: MonomerGraph) -> list[MonomerGraph]:
    """All monomers obtainable by re-cutting the chain of g's polymer."""
    variants = [g]
    for (x, y), head_side in _head_sides(g):
        hx, ty = (x, y) if x in head_side else (y, x)
        bonds = [b for b in g.bonds if b.pair() != (x, y)]
        bonds.append(Bond(g.head, g.tail, "single"))
        variants.append(MonomerGraph(g.atoms, bonds, ty, hx,
                                     g.stereo_discarded))
    return variants


def primitive_reduce(g: MonomerGraph) -> MonomerGraph:
    """Smallest repeat unit whose k-fold chain reproduces g.

    Detects k-periodic monomers by cutting at a boundary-separating bridge
    that splits off exactly n/k atoms on the head side and checking the
    k-fold repeat against g.  Returns g itself when no reduction applies,
    and raises DisconnectedError on a disconnected monomer.
    """
    if not g.is_connected():
        raise DisconnectedError("monomer graph is not connected")
    n = g.n
    sides = _head_sides(g)
    for k in range(n, 1, -1):
        if n % k != 0:
            continue
        usize = n // k
        for (x, y), head_side in sides:
            if len(head_side) != usize:
                continue
            hx = x if x in head_side else y
            unit = _extract(g, head_side, g.head, hx)
            if unit.n > NODE_CAP or g.n > NODE_CAP:
                continue
            if monomer_isomorphic(repeat_monomer(unit, k), g, allow_swap=False):
                return unit
    return g


def _extract(g: MonomerGraph, nodes: set[int], head: int, tail: int) -> MonomerGraph:
    idx = {old: new for new, old in enumerate(sorted(nodes))}
    atoms = [g.atoms[old] for old in sorted(nodes)]
    bonds = [Bond(idx[b.u], idx[b.v], b.order) for b in g.bonds
             if b.u in nodes and b.v in nodes]
    return MonomerGraph(atoms, bonds, idx[head], idx[tail], g.stereo_discarded)


def polymer_equal(a: MonomerGraph, b: MonomerGraph) -> bool:
    """Exact equality of the two infinite polymers.

    Equal iff, after primitive reduction, some translation of one repeat unit
    matches the other (boundaries included, either chain orientation).
    """
    a = primitive_reduce(a)
    b = primitive_reduce(b)
    if a.n != b.n:
        return False
    return any(monomer_isomorphic(v, b) for v in translation_variants(a))


@dataclass
class TwinPair:
    """Two distinct polymers that share one star-linking graph."""

    monomer_a: MonomerGraph
    monomer_b: MonomerGraph
    shared_star: StarLinkGraph
    witness: int


def _classes(items: list, same) -> list[int]:
    """Class id per item: the first class whose representative (its first
    item) is ``same`` as it, else a new class.  Exact for an equivalence."""
    ids: list[int] = []
    reps: list = []
    for x in items:
        for cid, rep in enumerate(reps):
            if same(rep, x):
                ids.append(cid)
                break
        else:
            ids.append(len(reps))
            reps.append(x)
    return ids


def generate_twins(h: MolGraph) -> list[TwinPair]:
    """Enumerate verified twin pairs obtainable by cutting the seed graph.

    Each non-bridge edge is cut once.  The cuts are classed by isomorphism
    of their linked graphs, then by exact polymer equality (cuts in one
    automorphism orbit give one polymer).  Cuts i < j in one linked-graph
    class and different polymer classes form a pair when some k-fold unroll
    (k = 2..MAX_UNROLL, each refined at most once per cut) has different WL
    histograms; the least such k is the witness.
    """
    bridge_set = h.bridges()
    cuts = sorted(b.pair() for b in h.bonds if b.pair() not in bridge_set)
    monomers = [MonomerGraph(h.atoms, [b for b in h.bonds if b.pair() != e],
                             e[0], e[1]) for e in cuts]
    stars = [star_link(m) for m in monomers]
    linked = _classes([s.as_graph() for s in stars],
                      lambda x, y: isomorphic(x, y)[0])
    polymer = _classes(list(zip(linked, monomers)),
                       lambda x, y: x[0] == y[0] and polymer_equal(x[1], y[1]))

    @functools.cache
    def histogram(i: int, k: int) -> list[tuple[str, int]]:
        return wl_refine(repeat_monomer(monomers[i], k)).histogram

    pairs: list[TwinPair] = []
    for i in range(len(cuts)):
        for j in range(i + 1, len(cuts)):
            if linked[i] != linked[j] or polymer[i] == polymer[j]:
                continue
            witness = next((k for k in range(2, MAX_UNROLL + 1)
                            if histogram(i, k) != histogram(j, k)), None)
            if witness is not None:
                pairs.append(TwinPair(monomers[i], monomers[j], stars[i],
                                      witness))
    return pairs
