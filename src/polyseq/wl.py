"""Color refinement, canonical labelling, polymer identity, twin pairs.

There is one color refinement, ``_refine``: a splitter queue refines an
ordered partition of integer cells, first cut by initial color (digests
of the atom attributes) in color order, to its coarsest equitable
refinement.  ``wl_refine`` runs it once from every cell and reads off the
partition's quotient: each cell's initial color, its bonds into every
cell, and its size.  Two graphs have equal quotients iff 1-WL cannot tell
them apart (Cai, Fuerer & Immerman 1992).

One complete canonical labelling decides isomorphism and gives graph keys:
individualization-refinement over the same ordered partition, restarting
``_refine`` after each individualization from the split cell alone.  An
infinite polymer is identified by its polymer graph: the primitive repeat
unit closed by its link, with every bond where the chain can be cut
subdivided by a ``*`` atom.  The cut points, and whether the unit is
connected, are read off one depth-first search from head (``_cut_bridges``).
"""

from __future__ import annotations

import functools
import hashlib
from collections import Counter
from dataclasses import dataclass

from .errors import BudgetExceeded, DisconnectedError
from .graphs import (Atom, Bond, MolGraph, MonomerGraph, StarLinkGraph,
                     repeat_monomer, star_link)

LEAF_BUDGET = 4096  # leaves a canonical labelling may visit
MAX_UNROLL = 6  # deepest k-fold unroll searched for a twin pair's witness


def _digest(payload: str) -> bytes:
    return hashlib.blake2b(payload.encode(), digest_size=16).digest()


def initial_colors(g: MolGraph, extra=None) -> list[bytes]:
    """Per atom, ``_digest(repr(key))`` of its attribute key, with
    ``extra(i)`` appended when given; each distinct key is hashed once."""
    memo: dict[str, bytes] = {}
    out = []
    for i, atom in enumerate(g.atoms):
        key = atom.attr_key()
        r = repr(key if extra is None else key + (extra(i),))
        d = memo.get(r)
        if d is None:
            d = memo[r] = _digest(r)
        out.append(d)
    return out


@dataclass
class ColoringResult:
    """The ordered equitable partition of a graph's atoms.

    ``colors[i]`` is atom i's cell id.  ``histogram`` lists the cells in
    order, each as (initial color in hex, quotient row, size), where the
    quotient row is the sorted (bond order, neighbour cell id) pairs of
    any member.  ``rounds`` counts the splitter cells refinement used.
    """

    colors: list[int]
    histogram: list[tuple[str, tuple, int]]
    rounds: int


def wl_refine(g: MolGraph, extra=None) -> ColoringResult:
    """1-WL color refinement from the initial colors (``extra``, a map node
    index -> hashable, folded in).

    Two graphs get equal histograms iff they are 1-WL-equivalent.  A split
    depends only on per-cell counts, so equivalent graphs refine in
    lockstep and reach equal histograms; and cells paired by equal
    histograms form an equitable partition of the disjoint union, so every
    class of its coarsest one holds as many atoms of each graph.
    """
    init = initial_colors(g, extra)
    adj = g.adjacency()
    lab, cell, end = _ordered_cells(init)
    rounds = _refine(adj, lab, cell, end, sorted(set(cell)))
    histogram, s = [], 0
    while s < g.n:
        i = lab[s]
        row = tuple(sorted((o, cell[j]) for j, o in adj[i]))
        histogram.append((init[i].hex(), row, end[s] - s))
        s = end[s]
    return ColoringResult(cell, histogram, rounds)


def _ordered_cells(colors: list) -> tuple[list[int], list[int], list[int]]:
    """The atoms in cells of equal color, cells in color order.

    Returns ``(lab, cell, end)``: ``lab`` lists the atoms cell by cell,
    ``cell[i]`` is atom i's cell id, which is the cell's start in ``lab``,
    and ``end[s]`` is the end of the cell with id s.
    """
    lab = sorted(range(len(colors)), key=colors.__getitem__)
    cell, end = [0] * len(lab), [0] * len(lab)
    for r, i in enumerate(lab):
        prev = lab[r - 1]
        cell[i] = cell[prev] if r and colors[i] == colors[prev] else r
        end[cell[i]] = r + 1
    return lab, cell, end


def _refine(adj: dict[int, list[tuple[int, str]]], lab: list[int],
            cell: list[int], end: list[int], queue: list[int]) -> int:
    """Refine the ordered partition ``(lab, cell, end)`` in place until it
    is equitable, from the splitter cells in ``queue``; return the number
    of splitters taken off the queue.

    Each splitter W splits every cell by its atoms' sorted bond orders into
    W, and only the atoms next to W are looked at.  The pieces take the
    cell's place in the order of those bond orders, atoms with no bond into
    W first.  A split cell that was queued queues all its pieces; one that
    was not queues all but its first largest piece, whose bonds follow from
    the others' (Paige & Tarjan 1987; McKay & Piperno 2014).
    """
    n = len(lab)
    queued = [False] * n
    for s in queue:
        queued[s] = True
    cells = len(set(cell))
    taken = 0
    for w in queue:
        if cells == n:
            break
        taken += 1
        queued[w] = False
        hits: dict[int, list[str]] = {}
        for u in lab[w:end[w]]:
            for x, order in adj[u]:
                c = cell[x]
                if end[c] - c > 1:
                    hits.setdefault(x, []).append(order)
        touched: dict[int, list[int]] = {}
        for x in hits:
            touched.setdefault(cell[x], []).append(x)
        for c in sorted(touched):
            xs, stop = touched[c], end[c]
            groups: dict[tuple, list[int]] = {}
            if len(xs) < stop - c:
                groups[()] = [y for y in lab[c:stop] if y not in hits]
            for x in xs:
                groups.setdefault(tuple(sorted(hits[x])), []).append(x)
            if len(groups) == 1:
                continue
            pieces = [groups[k] for k in sorted(groups)]
            largest = max(range(len(pieces)), key=lambda k: len(pieces[k]))
            was_queued = queued[c]
            start = c
            for k, piece in enumerate(pieces):
                stop = start + len(piece)
                lab[start:stop] = piece
                for y in piece:
                    cell[y] = start
                end[start] = stop
                if (was_queued or k != largest) and not queued[start]:
                    queue.append(start)
                    queued[start] = True
                start = stop
            cells += len(pieces) - 1
    return taken


def canonical_labelling(g: MolGraph, extra=None) -> tuple[tuple, list[int]]:
    """Complete canonical labelling by individualization-refinement.

    Returns ``(certificate, order)``: ``order[r]`` is the atom of rank r, and
    two graphs are isomorphic (``extra``, a map node index -> hashable folded
    into the initial colors, included) iff their certificates are equal.
    The search refines an ordered partition of the atoms, cells first in
    initial color order, to an equitable one (``_refine``).  While a cell
    has several atoms, each atom of the first smallest cell is
    individualized in turn: it becomes a cell of its own ahead of the rest,
    and refinement restarts from that one cell.  A leaf's certificate is the
    initial colors plus the bonds, both in rank order; the least leaf wins.
    Automorphisms prune the search (McKay & Piperno 2014, "Practical graph
    isomorphism, II"): one per leaf with the best certificate, which also
    ends the branch where its path parts from the best one.  An atom in the
    orbit of a tried one, under those that fix the individualized atoms, is
    skipped.  More than LEAF_BUDGET leaves raise BudgetExceeded.
    """
    init = initial_colors(g, extra)
    adj = g.adjacency()
    bonds = [(b.u, b.v, b.order) for b in g.bonds]
    # refinement only splits cells in place, so at every leaf the initial
    # colors in rank order are the sorted ones
    ranked_init = tuple(sorted(init))
    autos: list[dict[int, int]] = []  # each maps the atoms it moves
    best = None  # (certificate, order, individualized atoms)
    leaves = 0

    def search(lab: list[int], cell: list[int], end: list[int],
               path: list[int]) -> int:
        """Explore below this node; return the depth to resume at."""
        nonlocal best, leaves
        target, s = -1, 0
        while s < g.n:
            if 1 < end[s] - s and (target < 0
                                   or end[s] - s < end[target] - target):
                target = s
            s = end[s]
        if target < 0:
            leaves += 1
            if leaves > LEAF_BUDGET:
                raise BudgetExceeded(f"canonical labelling exceeds "
                                     f"{LEAF_BUDGET} leaves")
            cert = (ranked_init, tuple(sorted(
                (cell[u], cell[v], o) if cell[u] < cell[v]
                else (cell[v], cell[u], o) for u, v, o in bonds)))
            if best is not None and cert == best[0]:
                autos.append({a: b for a, b in zip(best[1], lab) if a != b})
                return next(d for d, (a, b) in enumerate(zip(path, best[2]))
                            if a != b)
            if best is None or cert < best[0]:
                best = (cert, lab, path)
            return len(path)
        stop = end[target]
        tried: list[int] = []
        for v in sorted(lab[target:stop]):
            gens = [m for m in autos if m.keys().isdisjoint(path)]
            orbit, todo = {v}, [v]
            for x in todo:
                todo += {m[x] for m in gens if x in m} - orbit
                orbit.update(todo)
            if not orbit.isdisjoint(tried):
                continue
            tried.append(v)
            sub, sub_cell, sub_end = list(lab), list(cell), list(end)
            i = sub.index(v, target)
            sub[target], sub[i] = v, sub[target]
            for y in sub[target + 1:stop]:
                sub_cell[y] = target + 1
            sub_end[target], sub_end[target + 1] = target + 1, stop
            _refine(adj, sub, sub_cell, sub_end, [target])
            back = search(sub, sub_cell, sub_end, path + [v])
            if back < len(path):
                return back
        return len(path)

    lab, cell, end = _ordered_cells(init)
    _refine(adj, lab, cell, end, sorted(set(cell)))
    search(lab, cell, end, [])
    return best[0], best[1]


def canonical_key(g: MolGraph) -> bytes:
    """Complete isomorphism-invariant key: the digest of the certificate of
    ``canonical_labelling(g)``."""
    return _digest(repr(canonical_labelling(g)[0]))


def isomorphic(g1: MolGraph, g2: MolGraph, extra1=None, extra2=None
               ) -> tuple[bool, list[int] | None]:
    """Exact attributed isomorphism by comparing canonical labellings.

    ``extra1``/``extra2`` map node index -> hashable and are folded into the
    initial colors (used to pin boundary roles).  Returns ``(found, mapping)``
    where ``mapping[i]`` is the g2 node matched to g1 node ``i``.
    """
    cert1, order1 = canonical_labelling(g1, extra1)
    cert2, order2 = canonical_labelling(g2, extra2)
    if cert1 != cert2:
        return False, None
    return True, [v for _, v in sorted(zip(order1, order2))]


def _boundary_role(g: MonomerGraph):
    def role(i: int):
        return (i == g.head, i == g.tail)
    return role


def monomer_isomorphic(a: MonomerGraph, b: MonomerGraph,
                       allow_swap: bool = True) -> bool:
    """Attributed isomorphism mapping head to head and tail to tail or, with
    allow_swap, boundary atoms to boundary atoms in either orientation."""
    if allow_swap:
        return isomorphic(a, b, lambda i: i in (a.head, a.tail),
                          lambda i: i in (b.head, b.tail))[0]
    return isomorphic(a, b, _boundary_role(a), _boundary_role(b))[0]


def separating_bridges(g: MonomerGraph) -> list[tuple[int, int]]:
    """Single-bond bridges whose removal separates the two boundary atoms.

    These are exactly the bonds of the infinite chain whose cut yields a
    translation of the same polymer: the chain bonds to ``*`` are single,
    so a double or aromatic bridge is never a cut point.  A disconnected
    monomer raises DisconnectedError.
    """
    return [(min(p, c), max(p, c)) for p, c in _cut_bridges(g)]


def _cut_bridges(g: MonomerGraph) -> list[tuple[int, int]]:
    """Boundary-separating single-bond bridges as (parent, child) tree bonds
    of ``g.dfs(g.head)``, sorted by atom pair: head is on the parent's side,
    so one separates it from tail iff tail is in the child's subtree.
    Raises DisconnectedError when head's tree misses an atom.
    """
    search = g.dfs(g.head)
    disc, end = search.disc, search.end
    if end[g.head] != g.n:
        raise DisconnectedError("monomer graph is not connected")
    t = disc[g.tail]
    return sorted(((p, c) for p, c, bond in search.bridges
                   if bond == "single" and disc[c] <= t < end[c]), key=sorted)


def translation_variants(g: MonomerGraph) -> list[MonomerGraph]:
    """All monomers obtainable by re-cutting the chain of g's polymer: g,
    then per ``_cut_bridges`` bond (p, c) g cut there and closed, headed at
    c and tailed at p.  Raises DisconnectedError on a disconnected g."""
    variants = [g]
    link = Bond(g.head, g.tail, "single")
    for p, c in _cut_bridges(g):
        cut = (min(p, c), max(p, c))
        bonds = [b for b in g.bonds if b.pair() != cut]
        bonds.append(link)
        variants.append(MonomerGraph(g.atoms, bonds, c, p,
                                     g.stereo_discarded))
    return variants


def primitive_reduce(g: MonomerGraph) -> MonomerGraph:
    """Smallest repeat unit whose k-fold chain reproduces g.

    g is k-periodic when boundary-separating bridges split off c*n/k atoms
    on the head side for every c < k, and the k segments between them, each
    from the atom entered to the atom left, are isomorphic with those two
    atoms pinned; the first segment is then the unit.  A cut bridge (p, c)
    of ``g.dfs(g.head)`` leaves ``n - (end[c] - disc[c])`` atoms on head's
    side, and a segment is one child's subtree less the next's.  Each k,
    largest first, meets the tests cheapest first: the bridge sizes; the
    segments' atom multisets, read off g before any segment is built; the
    extraction's own map, under which a segment laid out like the first
    (atoms, bonds, entry and exit, each segment numbered in g's order)
    matches it atom for atom; and only then the canonical labellings, the
    first segment's at most once.  Returns g itself when no reduction
    applies, and raises DisconnectedError on a disconnected monomer.
    """
    order, disc, end, *_ = g.dfs(g.head)
    n = g.n
    by_size = {n - (end[c] - disc[c]): (p, c) for p, c in _cut_bridges(g)}
    for k in range(n, 1, -1):
        usize = n // k
        if n % k or any(c * usize not in by_size for c in range(1, k)):
            continue
        parts, entry, lo, hi = [], g.head, 0, n
        for c in range(1, k):
            leave, enter = by_size[c * usize]
            parts.append((set(order[lo:disc[enter]] + order[end[enter]:hi]),
                          entry, leave))
            entry, lo, hi = enter, disc[enter], end[enter]
        parts.append((set(order[lo:hi]), entry, g.tail))
        atoms = Counter(g.atoms[i] for i in parts[0][0])
        if any(Counter(g.atoms[i] for i in nodes) != atoms
               for nodes, _, _ in parts[1:]):
            continue
        unit, *rest = [_extract(g, *part) for part in parts]
        layout, cert = _layout(unit), None
        for s in rest:
            if _layout(s) == layout:
                continue
            if cert is None:
                cert = _certificate(unit)
            if _certificate(s) != cert:
                break
        else:
            return unit
    return g


def _layout(g: MonomerGraph) -> tuple:
    """Atoms, bonds and boundary atoms by index: equal layouts make the
    identity map a boundary-pinned isomorphism."""
    return g.atoms, {(b.pair(), b.order) for b in g.bonds}, g.head, g.tail


def _certificate(g: MonomerGraph) -> tuple:
    """The canonical labelling's certificate with head and tail pinned."""
    return canonical_labelling(g, _boundary_role(g))[0]


def polymer_graph(g: MonomerGraph) -> MolGraph:
    """One graph for every translation, repetition and orientation of g.

    The primitive repeat unit (its 2-fold repeat when head == tail) closed
    by its link, with the link and every boundary-separating single-bond
    bridge subdivided by a ``*`` atom.  Those bonds are the cut points of
    the chain, the same set for every translation, so cutting the graph at
    any ``*`` gives back the polymer: two monomers are one polymer iff their
    polymer graphs are isomorphic.
    """
    p = primitive_reduce(g)
    if p.head == p.tail:
        p = repeat_monomer(p, 2)
    cuts = separating_bridges(p)
    atoms = list(p.atoms)
    bonds = [b for b in p.bonds if b.pair() not in cuts]
    for u, v in cuts + [(p.tail, p.head)]:
        bonds += [Bond(u, len(atoms)), Bond(len(atoms), v)]
        atoms.append(Atom("*"))
    return MolGraph(atoms, bonds)


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


def generate_twins(h: MolGraph) -> list[TwinPair]:
    """Enumerate verified twin pairs obtainable by cutting the seed graph.

    Each non-bridge edge is cut once, and each cut gets two keys: the
    canonical key of its linked graph and of its polymer graph (cuts in one
    automorphism orbit give one polymer).  Cuts i < j with equal linked
    keys and different polymer keys form a pair when some k-fold unroll
    (k = 2..MAX_UNROLL, each refined at most once per cut) has different WL
    histograms; the least such k is the witness.
    """
    bridge_set = h.bridges()
    cuts = sorted(b.pair() for b in h.bonds if b.pair() not in bridge_set)
    monomers = [MonomerGraph(h.atoms, [b for b in h.bonds if b.pair() != e],
                             e[0], e[1]) for e in cuts]
    stars = [star_link(m) for m in monomers]
    linked = [canonical_key(s.as_graph()) for s in stars]
    polymer = [canonical_key(polymer_graph(m)) for m in monomers]

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
