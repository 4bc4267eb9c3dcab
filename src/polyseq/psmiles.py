"""P-SMILES parsing, writing, augmentation, and canonical forms.

A P-SMILES string is a SMILES string containing exactly two ``*`` atoms that
mark the polymerization endpoints of the repeat unit.  Parsing produces a
:class:`~polyseq.graphs.MonomerGraph` whose ``head``/``tail`` are the real
atoms the stars were bonded to; the stars themselves are dropped.

Supported syntax, as in OpenSMILES: organic-subset atoms, aromatic
lowercase atoms, bracket atoms ``[isotope symbol chirality Hcount charge
:class]``, ring-bond digits and two-digit ``%nn``, branches, and the bond
symbols ``- = # : / \\``.  Chirality is ``@``, ``@@`` or a class
``@TH1``-``2``, ``@AL1``-``2``, ``@SP1``-``3``, ``@TB1``-``20`` or
``@OH1``-``30``; a bracket atom has exactly its written H count (0 when
none is written).  Directional bonds and chirality marks are accepted and
dropped: a writing parses to the same graph as its unmarked writing.
A ring bond between two atoms that are already bonded is rejected, and so
are dot-separated components, because a repeat unit must be one connected
fragment.

Augmentation has one draw, ``random_augment`` (a coin-flip doubling of the
repeat unit, then a uniformly chosen translation), and one enumeration,
``augment_rewrites``, of every string that draw can write.
"""

from __future__ import annotations

import random
import re

from .errors import DisconnectedError, LexError, ParseError
from .graphs import (
    AROMATIC_CAPABLE,
    Atom,
    Bond,
    MolGraph,
    MonomerGraph,
    ORGANIC_SUBSET,
    implicit_hydrogens,
    repeat_monomer,
    strategy_transform,
)
from .wl import canonical_key, polymer_graph, translation_variants

AROMATIC_ORGANIC = ("b", "c", "n", "o", "p", "s")
_BOND_CHARS = {"-": "single", "=": "double", "#": "triple", ":": "aromatic",
               "/": "single", "\\": "single"}
# Atoms written without brackets; Atom is frozen, so every parse shares them.
_BARE_ATOMS = {"*": Atom("*"),
               **{s: Atom(s) for s in ORGANIC_SUBSET},
               **{s: Atom(s.upper(), True) for s in AROMATIC_ORGANIC}}


def _either(symbols) -> str:
    """Regex alternation of literal symbols, longest first (Cl before C)."""
    return "|".join(map(re.escape, sorted(symbols, key=len, reverse=True)))


# One alternative per token kind, matched at each position.  Digits are
# [0-9], never \d, which also takes other scripts' digits such as '²'.
_TOKEN = re.compile(
    rf"(?P<atom>{_either(_BARE_ATOMS)})"
    r"|(?P<bond>[-=#:/\\])"
    r"|(?P<ring>[0-9]|%[0-9]{2})"
    r"|(?P<branch>[()])"
    r"|(?P<bracket>\[(?P<isotope>[0-9]*)(?P<symbol>\*|[A-Z][a-z]?|"
    rf"{_either(e.lower() for e in AROMATIC_CAPABLE)})"
    r"(?P<chirality>@(?:@|TH[12]|AL[12]|SP[123]|TB(?:1[0-9]|20|[1-9])"
    r"|OH(?:[12][0-9]|30|[1-9]))?)?"
    r"(?:H(?P<hcount>[0-9]*))?"
    r"(?P<charge>[+-][0-9]+|\++|-+)?"
    r"(?::(?P<class>[0-9]+))?\])")


def _default_order(a: Atom, b: Atom) -> str:
    return "aromatic" if (a.aromatic and b.aromatic) else "single"


def parse(s: str) -> MonomerGraph:
    """Parse a P-SMILES string into a monomer graph."""
    text = s.strip()
    if not text:
        raise ParseError("empty input")
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    prev: int | None = None
    pending: str | None = None
    stack: list[int] = []
    ring_open: dict[int, tuple[int, str | None]] = {}

    def add_atom(atom: Atom) -> None:
        nonlocal prev, pending
        idx = len(atoms)
        atoms.append(atom)
        if prev is not None:
            order = pending or _default_order(atoms[prev], atom)
            bonds.append(Bond(prev, idx, order))
        elif pending is not None:
            raise ParseError("bond symbol with no preceding atom")
        prev = idx
        pending = None

    def close_ring(num: int) -> None:
        nonlocal pending
        if prev is None:
            raise ParseError("ring bond with no preceding atom")
        if num in ring_open:
            other, o1 = ring_open.pop(num)
            if other == prev:
                raise ParseError(f"ring bond {num} closes on its own atom")
            if o1 is not None and pending is not None and o1 != pending:
                raise ParseError(f"conflicting orders for ring bond {num}")
            order = o1 or pending or _default_order(atoms[other], atoms[prev])
            bond = Bond(other, prev, order)
            if any(b.pair() == bond.pair() for b in bonds):
                raise ParseError(f"ring bond {num} joins atoms already bonded")
            bonds.append(bond)
        else:
            ring_open[num] = (prev, pending)
        pending = None

    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            ch = text[pos]
            if ch == ".":
                raise DisconnectedError("dot-separated components are not a "
                                        "single repeat unit")
            if ch == "[":
                raise ParseError(f"malformed bracket atom at col {pos}")
            if ch == "%":
                raise ParseError(f"'%' needs two digits at col {pos + 1}")
            raise LexError(f"illegal character {ch!r} at col {pos}")
        kind, tok = m.lastgroup, m[0]
        if kind == "atom":
            add_atom(_BARE_ATOMS[tok])
        elif kind == "bond":
            if pending is not None:
                raise ParseError(f"doubled bond symbol at col {pos}")
            pending = _BOND_CHARS[tok]
        elif kind == "ring":
            close_ring(int(tok.lstrip("%")))
        elif tok == "(":
            if prev is None:
                raise ParseError("branch opened before any atom")
            if pending is not None:
                raise ParseError(f"bond symbol before '(' at col {pos}")
            stack.append(prev)
        elif tok == ")":
            if not stack:
                raise ParseError(f"unmatched ')' at col {pos}")
            if pending is not None:
                raise ParseError(f"dangling bond symbol at col {pos}")
            prev = stack.pop()
        else:
            sym, h, q = m["symbol"], m["hcount"], m["charge"] or ""
            add_atom(Atom(
                sym.capitalize(), sym.islower(),  # "se" is aromatic Se
                # "-2" by number, "--" by repetition
                int(q) if q[1:].isdigit() else q.count("+") - q.count("-"),
                0 if h is None else int(h or 1),  # OpenSMILES: default 0
                int(m["isotope"]) if m["isotope"] else None))
        pos = m.end()

    if pending is not None:
        raise ParseError("trailing bond symbol")
    if stack:
        raise ParseError("unclosed branch")
    if ring_open:
        raise ParseError(f"unclosed ring bond(s): {sorted(ring_open)}")

    stars = [i for i, a in enumerate(atoms) if a.element == "*"]
    if len(stars) != 2:
        raise ParseError(f"expected exactly 2 '*' endpoints, found "
                         f"{len(stars)}")
    boundary = []
    for st in stars:
        incident = [b for b in bonds if st in (b.u, b.v)]
        if len(incident) != 1:
            raise ParseError("each '*' endpoint must have exactly one bond")
        if incident[0].order != "single":
            raise ParseError("bond to a '*' endpoint must be single")
        nbr = incident[0].u + incident[0].v - st
        if atoms[nbr].element == "*":
            raise ParseError("empty repeat unit ('*' bonded to '*')")
        boundary.append(nbr)

    keep = [i for i in range(len(atoms)) if i not in stars]
    remap = {old: new for new, old in enumerate(keep)}
    # connected: every atom is bonded to the one before it in the string,
    # or to its branch point, and the dropped stars are leaves
    return MonomerGraph(
        [atoms[i] for i in keep],
        [Bond(remap[b.u], remap[b.v], b.order) for b in bonds
         if b.u not in stars and b.v not in stars],
        remap[boundary[0]], remap[boundary[1]])


def _atom_token(mol: MolGraph, i: int) -> str:
    """Atom i of mol, which holds its stars.  A bracket atom gets its H
    count: the written one, or for an API-built atom without one the
    implicit count that featurize gives it in mol."""
    atom = mol.atoms[i]
    if atom.element == "*":
        return "*"
    bare = (atom.isotope is None and atom.charge == 0 and atom.hcount is None
            and atom.element in ORGANIC_SUBSET
            and (not atom.aromatic or atom.element.lower() in AROMATIC_ORGANIC))
    sym = atom.element.lower() if atom.aromatic else atom.element
    if bare:
        return sym
    out = "["
    if atom.isotope is not None:
        out += str(atom.isotope)
    out += sym
    h = implicit_hydrogens(mol, i)
    if h:
        out += "H" if h == 1 else f"H{h}"
    if atom.charge:
        sign = "+" if atom.charge > 0 else "-"
        mag = abs(atom.charge)
        out += sign if mag == 1 else f"{sign}{mag}"
    return out + "]"


def _bond_symbol(order: str, a: Atom, b: Atom) -> str:
    if order == "single":
        return "-" if (a.aromatic and b.aromatic) else ""
    if order == "aromatic":
        return "" if (a.aromatic and b.aromatic) else ":"
    return {"double": "=", "triple": "#"}[order]


def write(g: MonomerGraph) -> str:
    """Serialize a monomer graph back to a P-SMILES string.

    Atoms are emitted in DFS preorder from the head endpoint, so the string
    always starts with ``*``; ``parse(write(g))`` reproduces ``g`` up to atom
    renumbering.  A disconnected ``g`` raises DisconnectedError, and one
    that needs more than the 99 ring-bond numbers at once raises ParseError.
    """
    mol = strategy_transform(g, "keep")
    start = g.n  # the star bonded to the head

    search = mol.dfs(start)
    if search.end[start] < mol.n:
        raise DisconnectedError("monomer graph is not connected")
    children: list[list[int]] = [[] for _ in range(mol.n)]
    for v in search.order[1:]:
        children[search.parent[v]].append(v)
    ring_at: list[list[tuple[int, int]]] = [[] for _ in range(mol.n)]
    for u, v in search.back:
        p = (min(u, v), max(u, v))
        ring_at[v].append(p)
        ring_at[u].append(p)

    out: list[str] = []
    open_num: dict[tuple[int, int], int] = {}
    in_use: set[int] = set()
    # Emit in preorder; a todo item is a literal or an (atom, parent) pair.
    todo: list = [(start, -1)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        u, par = item
        if par >= 0:
            out.append(_bond_symbol(mol.bond_order(par, u),
                                    mol.atoms[par], mol.atoms[u]))
        out.append(_atom_token(mol, u))
        for p in ring_at[u]:
            other = p[0] + p[1] - u
            tok = _bond_symbol(mol.bond_order(u, other),
                               mol.atoms[u], mol.atoms[other])
            if p in open_num:
                num = open_num.pop(p)
                in_use.discard(num)
            else:
                num = 1
                while num in in_use:
                    num += 1
                if num > 99:
                    raise ParseError("more than 99 ring bonds open at once")
                open_num[p] = num
                in_use.add(num)
            out.append(tok + (str(num) if num < 10 else f"%{num:02d}"))
        kids = children[u]
        if kids:
            # every child but the last is a parenthesised branch
            todo.append((kids[-1], u))
            for v in reversed(kids[:-1]):
                todo += [")", (v, u), "("]
    return "".join(out)


def random_augment(g: MonomerGraph, rng: random.Random) -> MonomerGraph:
    """Repeat-unit augmentation: coin-flip doubling, then a re-cut of the
    infinite chain at a uniformly chosen period position.

    The candidate cut points are the current junction (the identity
    translation) plus every bridge separating the two boundary atoms.
    """
    if rng.random() < 0.5:
        g = repeat_monomer(g, 2)
    variants = translation_variants(g)
    return variants[rng.randrange(len(variants))]


def augment_rewrites(g: MonomerGraph) -> list[str]:
    """Every distinct string random_augment can return for g, sorted."""
    return sorted({write(v) for m in (g, repeat_monomer(g, 2))
                   for v in translation_variants(m)})


def canonical_form(g: MonomerGraph | str) -> str:
    """Canonical hex key, identical for every augmentation of one polymer.

    The key of one canonical labelling of ``wl.polymer_graph(g)``, a graph
    that every translation, repetition and orientation of the repeat unit
    shares, so two monomers get one key iff they are one polymer.
    """
    if isinstance(g, str):
        g = parse(g)
    return canonical_key(polymer_graph(g)).hex()
