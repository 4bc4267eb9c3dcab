"""Monomer and star-linking graphs, strategies, backbone detection, features.

The data model is deliberately small: an attributed graph is a list of
:class:`Atom` plus a list of :class:`Bond`.  A :class:`MonomerGraph` adds the
two polymerization boundary atoms; a :class:`StarLinkGraph` adds the edge that
joins them (closing the repeat unit into a cycle) together with the backbone
mask.  The backbone embedding that the network adds to the masked columns
lives in ``nets``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .errors import DisconnectedError

BOND_VALENCE = {"single": 1.0, "double": 2.0, "triple": 3.0, "aromatic": 1.5}

# Written bare (outside brackets); anything else needs bracket notation.
ORGANIC_SUBSET = ("B", "C", "N", "O", "P", "S", "F", "Cl", "Br", "I")
AROMATIC_CAPABLE = ("B", "C", "N", "O", "P", "S", "Se", "As")

# Default valences, used only to derive implicit hydrogen counts, keyed by
# (element, charge): the octet rule min(e, 8 - e) for e outer electrons
# less the charge, so a charged atom has the valence of the isoelectronic
# neutral atom ([N+] that of C, [O-] that of F, [C+] and [C-] that of B and
# N).  Any other pair, where e falls outside 0..8, has valence 0.
_OUTER_ELECTRONS = {
    "B": 3, "C": 4, "N": 5, "O": 6, "P": 5, "S": 6,
    "F": 7, "Cl": 7, "Br": 7, "I": 7,
}
DEFAULT_VALENCE = {(element, q): min(e - q, 8 - e + q)
                   for element, e in _OUTER_ELECTRONS.items()
                   for q in range(e - 8, e + 1)}

FEATURE_ELEMENTS = ORGANIC_SUBSET + ("H", "*")

# The feature column as block widths, top to bottom: the element one-hot
# (FEATURE_ELEMENTS, then "other"), degree 0-6, charge -2..2, the aromatic
# and in-ring flags, and the implicit H count 0-4.
FEATURE_BLOCKS = {"element": len(FEATURE_ELEMENTS) + 1, "degree": 7,
                  "charge": 5, "aromatic": 1, "ring": 1, "hydrogens": 5}
FEATURE_DIM = sum(FEATURE_BLOCKS.values())
_BLOCK_STARTS = list(accumulate(FEATURE_BLOCKS.values(), initial=0))[:-1]
_BLOCK_TOPS = [width - 1 for width in FEATURE_BLOCKS.values()]
_ELEMENT_ROW = {e: row for row, e in enumerate(FEATURE_ELEMENTS)}


@dataclass(frozen=True)
class Atom:
    element: str
    aromatic: bool = False
    charge: int = 0
    hcount: int | None = None  # explicit H count from brackets; None = implicit
    isotope: int | None = None

    def attr_key(self) -> tuple:
        return (self.element, self.aromatic, self.charge, self.hcount, self.isotope)


@dataclass(frozen=True)
class Bond:
    u: int
    v: int
    order: str = "single"

    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


class DepthFirst(NamedTuple):
    """What :meth:`MolGraph.dfs` returns."""

    order: list[int]
    disc: list[int]
    end: list[int]
    parent: list[int]
    back: list[tuple[int, int]]
    bridges: list[tuple[int, int, str]]


class MolGraph:
    """Plain attributed graph: atoms + bonds, no polymer bookkeeping."""

    def __init__(self, atoms: list[Atom], bonds: list[Bond]):
        self.atoms = list(atoms)
        self.bonds = list(bonds)
        self._adj: dict[int, list[tuple[int, str]]] | None = None
        self._dfs: tuple[int, DepthFirst] | None = None
        self._connected: bool | None = None
        pairs = [b.pair() for b in bonds]
        if len(set(pairs)) != len(pairs):
            raise ValueError("duplicate bond between the same atom pair")
        for b in bonds:
            if b.u == b.v or not (0 <= b.u < len(atoms) and 0 <= b.v < len(atoms)):
                raise ValueError(f"bond endpoints out of range: {b}")

    @property
    def n(self) -> int:
        return len(self.atoms)

    def adjacency(self) -> dict[int, list[tuple[int, str]]]:
        if self._adj is None:
            adj: dict[int, list[tuple[int, str]]] = {i: [] for i in range(self.n)}
            for b in self.bonds:
                adj[b.u].append((b.v, b.order))
                adj[b.v].append((b.u, b.order))
            for i in adj:
                adj[i].sort()
            self._adj = adj
        return self._adj

    def neighbors(self, i: int) -> list[int]:
        return [j for j, _ in self.adjacency()[i]]

    def degree(self, i: int) -> int:
        return len(self.adjacency()[i])

    def bond_order(self, u: int, v: int) -> str:
        for j, order in self.adjacency()[u]:
            if j == v:
                return order
        raise KeyError((u, v))

    def has_bond(self, u: int, v: int) -> bool:
        return any(j == v for j, _ in self.adjacency()[u])

    def is_connected(self) -> bool:
        """One nonempty component: the memoised ``dfs(0)`` reaches all.

        The answer is memoised too, and ``repeat_monomer`` hands its unit's
        on, so an unroll of a searched unit is never searched itself.
        """
        if self._connected is None:
            self._connected = self.n > 0 and self.dfs(0).end[0] == self.n
        return self._connected

    def bfs_distances(self, source: int) -> list[int]:
        adj = self.adjacency()
        dist = [-1] * self.n
        dist[source] = 0
        queue = [source]
        while queue:
            nxt = []
            for u in queue:
                for v, _ in adj[u]:
                    if dist[v] < 0:
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            queue = nxt
        return dist

    def dfs(self, first: int) -> DepthFirst:
        """One iterative depth-first search (Tarjan 1974) over the sorted
        adjacency, rooted at ``first`` and then at every atom not yet reached.

        Returns the preorder ``order``; ``disc[i]``, atom i's place in it,
        and ``end[i]``, so that i's subtree is ``order[disc[i]:end[i]]``;
        each atom's tree ``parent`` (-1 at a root); the non-tree bonds as
        ``back`` (descendant, ancestor) pairs, in the order the search first
        meets them; and the ``bridges`` as (parent, child, order) tree bonds.
        The graph is connected iff ``end[first] == n``, as ``is_connected``,
        ``wl._cut_bridges`` and ``psmiles.write`` read it; ``bridges()`` and
        ``sssr`` read the bridges, and ``wl.primitive_reduce`` the subtrees.

        The last search is memoised with its ``first``, as ``adjacency()``
        is, so neither the graph nor the lists returned may be mutated.
        """
        if self._dfs is None or self._dfs[0] != first:
            self._dfs = (first, self._depth_first(first))
        return self._dfs[1]

    def _depth_first(self, first: int) -> DepthFirst:
        adj = self.adjacency()
        n = self.n
        disc, low, end, parent = [-1] * n, [0] * n, [0] * n, [-1] * n
        order: list[int] = []
        back: list[tuple[int, int]] = []
        bridges: list[tuple[int, int, str]] = []
        for root in [first, *range(n)] if n else []:
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = len(order)
            order.append(root)
            stack = [(root, "", iter(adj[root]))]
            while stack:
                u, bond, nbrs = stack[-1]
                du, pu = disc[u], parent[u]
                for v, o in nbrs:
                    dv = disc[v]
                    if dv < 0:
                        parent[v] = u
                        disc[v] = low[v] = len(order)
                        order.append(v)
                        stack.append((v, o, iter(adj[v])))
                        break
                    if dv < du and v != pu:
                        back.append((u, v))
                        if dv < low[u]:
                            low[u] = dv
                else:
                    stack.pop()
                    end[u] = len(order)
                    if pu >= 0:
                        if low[u] < low[pu]:
                            low[pu] = low[u]
                        if low[u] > disc[pu]:
                            bridges.append((pu, u, bond))
        return DepthFirst(order, disc, end, parent, back, bridges)

    def bridges(self) -> set[tuple[int, int]]:
        """Edges whose removal disconnects the graph."""
        return {(min(p, c), max(p, c)) for p, c, _ in self.dfs(0).bridges}

    def ring_atoms(self) -> set[int]:
        """Atoms incident to at least one non-bridge edge (i.e. on a cycle)."""
        bridge_set = self.bridges()
        return {a for b in self.bonds if b.pair() not in bridge_set
                for a in (b.u, b.v)}

    def sssr(self) -> list[set[int]]:
        """Smallest set of smallest rings: a minimum cycle basis, as atom sets.

        Every ring lies in one 2-edge-connected block, read off the memoised
        ``dfs(0)``: walking its preorder, a tree bond that is not a bridge
        puts the child in its parent's block.  A block with as many bonds as
        atoms is one ring; any other block takes Horton's candidate cycles
        (Horton 1987), shortest first, keeping each one that is
        GF(2)-independent of those kept before it (Kavitha et al. 2009,
        "Cycle bases in graphs").
        """
        adj = self.adjacency()
        search = self.dfs(0)
        below_bridge = {c for _, c, _ in search.bridges}
        block = [0] * self.n
        for v in search.order:
            p = search.parent[v]
            block[v] = v if p < 0 or v in below_bridge else block[p]
        rings: list[set[int]] = []
        seen = [False] * self.n
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            b = block[start]
            atoms = [start]
            for u in atoms:
                for v, _ in adj[u]:
                    if block[v] == b and not seen[v]:
                        seen[v] = True
                        atoms.append(v)
            edges = [(u, v) for u in atoms for v, _ in adj[u]
                     if u < v and block[v] == b]
            if len(edges) == len(atoms):
                rings.append(set(atoms))
            elif edges:
                rings.extend(_min_cycle_basis(atoms, edges, adj, block))
        return rings

    def cyclomatic_number(self) -> int:
        """Independent ring count: bonds - atoms + connected components, the
        roots of a depth-first search that is not memoised on the graph."""
        return len(self.bonds) - self.n + self._depth_first(0).parent.count(-1)


def _min_cycle_basis(atoms: list[int], edges: list[tuple[int, int]],
                     adj: dict[int, list[tuple[int, str]]],
                     block: list[int]) -> list[set[int]]:
    """Minimum cycle basis of one 2-edge-connected block of ``block``
    labels, its ``atoms`` in BFS order from the lowest, ``edges`` in turn.

    A cycle is an int whose bit k marks ``edges[k]``.  The candidates are
    Horton's: for every root r, its BFS tree inside the block, and every
    bond uw whose ends hang in different subtrees of r, the tree path
    u..r..w closed by uw.
    """
    index = {e: k for k, e in enumerate(edges)}
    b = block[atoms[0]]
    candidates: set[int] = set()
    for root in atoms:
        path = {root: 0}  # atom -> bonds of its tree path to the root
        branch = {root: root}
        order = [root]
        for u in order:
            for v, _ in adj[u]:
                if block[v] == b and v not in path:
                    path[v] = path[u] | 1 << index[min(u, v), max(u, v)]
                    branch[v] = v if u == root else branch[u]
                    order.append(v)
        for (u, w), k in index.items():
            if branch[u] != branch[w]:
                candidates.add(path[u] ^ path[w] ^ 1 << k)
    candidates.discard(0)  # a tree bond at the root closes no cycle
    need = len(edges) - len(atoms) + 1
    rows: dict[int, int] = {}  # leading bit -> reduced row
    basis: list[set[int]] = []
    for cycle in sorted(candidates, key=lambda c: (c.bit_count(), c)):
        x = cycle
        while x and x.bit_length() - 1 in rows:
            x ^= rows[x.bit_length() - 1]
        if x:
            rows[x.bit_length() - 1] = x
            basis.append({a for k, e in enumerate(edges) if cycle >> k & 1
                          for a in e})
            if len(basis) == need:
                break
    return basis


class MonomerGraph(MolGraph):
    """Repeat-unit graph with the two polymerization boundary atoms.

    What ``star_link`` derives from the unit is memoised on it, as ``dfs``
    is: its auto-repeated copy, and a linked unit's graph, backbone,
    features and unrolls (see :class:`StarLinkGraph`).  The memo starts as
    None and holds nothing that refers back to the unit, so a unit is
    freed by reference counting alone.
    """

    def __init__(self, atoms, bonds, head: int, tail: int):
        super().__init__(atoms, bonds)
        if not (0 <= head < len(atoms) and 0 <= tail < len(atoms)):
            raise ValueError("boundary index out of range")
        self.head = head
        self.tail = tail
        self._derived: dict | None = None

    def boundary_distance(self) -> int:
        return self.bfs_distances(self.head)[self.tail]

    def _memo(self, key, build):
        """``build()``, built on the first call with ``key``: k for
        ``repeat_monomer(self, k)``, and ``"graph"``, ``"backbone"`` and
        ``"features"`` for what a star on this unit reads."""
        memo = self._derived
        if memo is None:
            memo = self._derived = {}
        if key not in memo:
            memo[key] = build()
        return memo[key]


@dataclass
class StarLinkGraph:
    """Monomer graph closed by the boundary-linking edge.

    ``monomer`` is the repeat unit actually linked; it may be an auto-repeated
    copy of the input when the original boundary atoms coincide or are already
    bonded (linking those directly would merge edges and change neighbor
    multisets).  ``auto_repeat_k`` records the repeat count used.  ``link``,
    the single bond from the unit's head to its tail, is read off the unit.
    ``as_graph`` is the cyclic graph of the unit; ``build_context`` reads the
    unit as the periodic graph of the infinite chain instead, where the link
    bonds the tail to the next copy's head.

    What the star derives (``as_graph``, ``backbone``, ``features`` and
    ``unroll(k)``) is built on first read and memoised on ``monomer``, so
    every ``star_link`` of one unit shares it; none of it may be mutated.
    """

    monomer: MonomerGraph
    auto_repeat_k: int = 1

    @property
    def link(self) -> Bond:
        return Bond(self.monomer.head, self.monomer.tail, "single")

    def as_graph(self) -> MolGraph:
        return self.monomer._memo("graph", lambda: MolGraph(
            self.monomer.atoms, self.monomer.bonds + [self.link]))

    @property
    def backbone(self) -> list[bool]:
        """``detect_backbone`` of the linked monomer."""
        return self.monomer._memo("backbone",
                                  lambda: detect_backbone(self.monomer))

    @property
    def features(self) -> np.ndarray:
        """``featurize(as_graph())``, read-only."""
        def build():
            x = featurize(self.as_graph())
            x.flags.writeable = False
            return x
        return self.monomer._memo("features", build)

    def unroll(self, k: int) -> MonomerGraph:
        """``repeat_monomer(monomer, k)``, the k-fold open chain."""
        return self.monomer._memo(k, lambda: repeat_monomer(self.monomer, k))


def repeat_monomer(g: MonomerGraph, k: int) -> MonomerGraph:
    """Open chain of k copies, copy-i tail bonded to copy-(i+1) head: the
    k-fold repeat unit, and the finite unroll (no wraparound) of the
    infinite polymer."""
    if k < 1:
        raise ValueError("repeat count must be >= 1")
    n = g.n
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    for c in range(k):
        off = c * n
        atoms.extend(g.atoms)
        bonds.extend(Bond(b.u + off, b.v + off, b.order) for b in g.bonds)
        if c > 0:
            bonds.append(Bond((c - 1) * n + g.tail, off + g.head, "single"))
    out = MonomerGraph(atoms, bonds, g.head, (k - 1) * n + g.tail)
    # connected iff the unit is, since copies meet only at tail-head bonds
    out._connected = g._connected
    return out


def star_link(g: MonomerGraph) -> StarLinkGraph:
    """Close the repeat unit by bonding its boundary atoms.

    The linking edge is formed as a set union, so a monomer whose boundaries
    coincide or are already bonded is repeated until they are distinct and
    non-adjacent; this keeps every atom's neighbor multiset identical to its
    counterpart in the infinite chain.  Bonded ends need 2 copies; ends
    that coincide need 3, since at 2 the junction bond joins them.
    """
    if not g.is_connected():
        raise DisconnectedError("monomer graph is not connected")
    k = 3 if g.head == g.tail else 2 if g.has_bond(g.head, g.tail) else 1
    m = g if k == 1 else g._memo(k, lambda: repeat_monomer(g, k))
    return StarLinkGraph(m, k)


def detect_backbone(g: MonomerGraph) -> list[bool]:
    """Backbone mask: every atom on a shortest boundary path, plus the
    rings touching one.

    Atom v is on a shortest head-to-tail path iff d(head, v) + d(v, tail)
    == d(head, tail), read off two BFS distance arrays inside the monomer
    (the linking edge never counts), so no tie is broken by atom index.
    Every SSSR ring of the monomer sharing at least one atom with such a
    path is absorbed into the backbone.
    """
    from_head, from_tail = g.bfs_distances(g.head), g.bfs_distances(g.tail)
    d = from_head[g.tail]
    if d < 0:
        raise DisconnectedError("boundary atoms not connected")
    path = {v for v in range(g.n) if from_head[v] + from_tail[v] == d}
    marked = set(path)
    for ring in g.sssr():
        if ring & path:
            marked |= ring
    return [i in marked for i in range(g.n)]


def strategy_transform(g: MonomerGraph, strategy: str) -> MolGraph:
    """The graph of one of the three endpoint baselines.

    ``keep`` reinstates the two stars as pseudo-atoms, ``remove`` drops them,
    ``substitute`` caps the boundaries with hydrogens.  The fourth strategy,
    ``link``, is the star-linking graph, ``star_link(g).as_graph()``.
    """
    if strategy == "remove":
        return MolGraph(g.atoms, g.bonds)
    cap = {"keep": "*", "substitute": "H"}.get(strategy)
    if cap is None:
        raise ValueError(f"unknown strategy: {strategy!r}")
    atoms = list(g.atoms) + [Atom(cap)] * 2
    bonds = list(g.bonds) + [Bond(g.head, g.n, "single"),
                             Bond(g.tail, g.n + 1, "single")]
    return MolGraph(atoms, bonds)


def implicit_hydrogens(g: MolGraph, i: int) -> int:
    atom = g.atoms[i]
    if atom.hcount is not None:
        return atom.hcount
    default = DEFAULT_VALENCE.get((atom.element, atom.charge), 0)
    used = sum(BOND_VALENCE[order] for _, order in g.adjacency()[i])
    return max(0, default - math.ceil(used))


def featurize(g: MolGraph) -> np.ndarray:
    """Per-atom feature vectors, one column per atom (FEATURE_DIM rows):
    the blocks of ``FEATURE_BLOCKS`` top to bottom, a count past either
    end of its block setting the end row.  The in-ring row flags atoms on
    a cycle of g; on a linked graph that includes the cycle the link bond
    closes, so every backbone atom has it set, where the infinite chain
    sets it only on ring atoms.  Every other row equals the chain's."""
    x = np.zeros((FEATURE_DIM, g.n))
    ring = g.ring_atoms()
    element, degree, charge, aromatic, in_ring, hydrogens = _BLOCK_STARTS
    other, top_degree, top_charge, _, _, top_h = _BLOCK_TOPS
    q = top_charge // 2  # the charge block runs from -q to q
    for i, atom in enumerate(g.atoms):
        x[element + _ELEMENT_ROW.get(atom.element, other), i] = 1.0
        x[degree + min(g.degree(i), top_degree), i] = 1.0
        x[charge + q + min(max(atom.charge, -q), q), i] = 1.0
        x[aromatic, i] = atom.aromatic
        x[in_ring, i] = i in ring
        x[hydrogens + min(implicit_hydrogens(g, i), top_h), i] = 1.0
    return x


def auto_repeat_for_lga(g: MonomerGraph, d_thres: int) -> tuple[MonomerGraph, int]:
    """Repeat the monomer until the boundary distance exceeds 2*d_thres - 1.

    A k-fold repeat has boundary distance k*(d_b + 1) - 1, where d_b is the
    single-monomer boundary distance.  Returns the repeated monomer and the
    minimal k.  On such a unit no path of d_thres - 1 hops wraps round the
    cyclic linked graph.  No library code calls it (the forward pass's
    context is periodic, and the oracles size their unrolls by receptive
    field); it stays public only because ``perfbench/`` binds it.
    """
    if d_thres < 1:
        raise ValueError("d_thres must be >= 1")
    d_b = g.boundary_distance()
    if d_b < 0:
        raise DisconnectedError("boundary atoms not connected")
    k = 2 * d_thres // (d_b + 1) + 1
    return (g if k == 1 else repeat_monomer(g, k)), k


def ring_stats(graphs) -> tuple[float, float]:
    """(mean rings per polymer, fraction with >2 rings); (0.0, 0.0) for no
    graphs."""
    counts = [g.cyclomatic_number() for g in graphs]
    if not counts:
        return 0.0, 0.0
    mean = sum(counts) / len(counts)
    frac = sum(1 for c in counts if c > 2) / len(counts)
    return mean, frac


def relabel(g: MolGraph, perm: list[int]) -> MolGraph:
    """Apply a permutation: atom i of the result is atom perm[i] of g."""
    inv = [0] * g.n
    for new, old in enumerate(perm):
        inv[old] = new
    atoms = [g.atoms[old] for old in perm]
    bonds = [Bond(inv[b.u], inv[b.v], b.order) for b in g.bonds]
    if isinstance(g, MonomerGraph):
        return MonomerGraph(atoms, bonds, inv[g.head], inv[g.tail])
    return MolGraph(atoms, bonds)
