"""P-SMILES parsing, writing, augmentation, and canonical forms.

A P-SMILES string is a SMILES string containing exactly two ``*`` atoms that
mark the polymerization endpoints of the repeat unit.  Parsing produces a
:class:`~polyseq.graphs.MonomerGraph` whose ``head``/``tail`` are the real
atoms the stars were bonded to; the stars themselves are dropped.

Supported syntax: organic-subset atoms, aromatic lowercase atoms, bracket
atoms with isotope, chirality (recorded as discarded), explicit hydrogen
count, charge, and atom class, ring-bond digits and two-digit ``%nn``,
branches, and the bond symbols ``- = # : / \\``.  Directional bonds and
chirality marks are accepted but not modeled; the parse flags
``stereo_discarded`` instead.
Dot-separated components are rejected because a repeat unit must be one
connected fragment.
"""

from __future__ import annotations

import random

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


class _Cursor:
    __slots__ = ("s", "i")

    def __init__(self, s: str):
        self.s = s
        self.i = 0

    def peek(self) -> str:
        return self.s[self.i] if self.i < len(self.s) else ""

    def take(self) -> str:
        ch = self.peek()
        self.i += 1
        return ch

    def digits(self) -> str:
        start = self.i
        while self.peek().isascii() and self.peek().isdigit():
            self.i += 1
        return self.s[start:self.i]


def _default_order(a: Atom, b: Atom) -> str:
    return "aromatic" if (a.aromatic and b.aromatic) else "single"


def _bracket_atom(cur: _Cursor) -> tuple[Atom, bool]:
    pos = cur.i
    cur.take()  # '['
    iso = cur.digits()
    isotope = int(iso) if iso else None

    ch = cur.peek()
    stereo = False
    if ch == "*":
        cur.take()
        element, aromatic = "*", False
    elif ch.isupper():
        # in brackets a lowercase letter after an uppercase one always
        # belongs to the element symbol (H counts are uppercase)
        sym = cur.take()
        if cur.peek().islower():
            sym += cur.take()
        element, aromatic = sym, False
    elif ch.islower():
        sym = cur.take()
        if sym + cur.peek() in ("se", "as"):
            sym += cur.take()
        element = sym.capitalize()
        if element not in AROMATIC_CAPABLE:
            raise ParseError(f"atom {sym!r} cannot be aromatic (col {pos})")
        aromatic = True
    else:
        raise ParseError(f"expected element symbol at col {cur.i}")

    while cur.peek() == "@":
        cur.take()
        stereo = True
    if stereo and cur.peek() in ("T", "A", "S", "O"):  # @TH1, @AL2, ...
        while cur.peek().isalnum():
            cur.take()

    hcount = 0  # OpenSMILES: a bracket atom has exactly its written H count
    if cur.peek() == "H":
        cur.take()
        d = cur.digits()
        hcount = int(d) if d else 1

    charge = 0
    if cur.peek() in ("+", "-"):
        sign = 1 if cur.take() == "+" else -1
        d = cur.digits()
        if d:
            charge = sign * int(d)
        else:
            charge = sign
            while cur.peek() in ("+", "-"):
                if (cur.peek() == "+") != (sign > 0):
                    raise ParseError(f"mixed charge signs at col {cur.i}")
                cur.take()
                charge += sign

    if cur.peek() == ":":
        cur.take()
        if not cur.digits():
            raise ParseError(f"expected atom class digits at col {cur.i}")

    if cur.take() != "]":
        raise ParseError(f"unterminated bracket atom at col {pos}")
    return Atom(element, aromatic, charge, hcount, isotope), stereo


def parse(s: str) -> MonomerGraph:
    """Parse a P-SMILES string into a monomer graph."""
    text = s.strip()
    if not text:
        raise ParseError("empty input")
    cur = _Cursor(text)
    atoms: list[Atom] = []
    bonds: list[Bond] = []
    prev: int | None = None
    pending: str | None = None
    stack: list[int] = []
    ring_open: dict[int, tuple[int, str | None]] = {}
    stereo = False

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
            bonds.append(Bond(other, prev, order))
        else:
            ring_open[num] = (prev, pending)
        pending = None

    while True:
        ch = cur.peek()
        if not ch:
            break
        if ch in _BOND_CHARS:
            if pending is not None:
                raise ParseError(f"doubled bond symbol at col {cur.i}")
            if ch in "/\\":
                stereo = True
            pending = _BOND_CHARS[ch]
            cur.take()
        elif ch == "(":
            if prev is None:
                raise ParseError("branch opened before any atom")
            if pending is not None:
                raise ParseError(f"bond symbol before '(' at col {cur.i}")
            stack.append(prev)
            cur.take()
        elif ch == ")":
            if not stack:
                raise ParseError(f"unmatched ')' at col {cur.i}")
            if pending is not None:
                raise ParseError(f"dangling bond symbol at col {cur.i}")
            prev = stack.pop()
            cur.take()
        elif ch == ".":
            raise DisconnectedError("dot-separated components are not a "
                                    "single repeat unit")
        elif ch.isascii() and ch.isdigit():
            close_ring(int(cur.take()))
        elif ch == "%":  # exactly two digits: %111 is ring 11, then 1
            d = text[cur.i + 1:cur.i + 3]
            if len(d) < 2 or not (d.isascii() and d.isdigit()):
                raise ParseError(f"'%' needs two digits at col {cur.i + 1}")
            cur.i += 3
            close_ring(int(d))
        elif ch == "[":
            atom, st = _bracket_atom(cur)
            stereo = stereo or st
            add_atom(atom)
        elif ch == "*":
            cur.take()
            add_atom(Atom("*"))
        elif ch.isupper():
            sym = cur.take()
            if sym + cur.peek() in ("Cl", "Br"):
                sym += cur.take()
            if sym not in ORGANIC_SUBSET:
                raise LexError(f"atom {sym!r} needs bracket notation "
                               f"(col {cur.i - len(sym)})")
            add_atom(Atom(sym))
        elif ch.islower():
            sym = cur.take()
            if sym not in AROMATIC_ORGANIC:
                raise LexError(f"unknown aromatic atom {sym!r} at col "
                               f"{cur.i - 1}")
            add_atom(Atom(sym.upper(), aromatic=True))
        else:
            raise LexError(f"illegal character {ch!r} at col {cur.i}")

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
        remap[boundary[0]], remap[boundary[1]], stereo_discarded=stereo,
    )


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


def random_translation(g: MonomerGraph, rng: random.Random) -> MonomerGraph:
    """Re-cut the infinite chain at a uniformly chosen period position.

    The candidate cut points are the current junction (the identity
    translation) plus every bridge separating the two boundary atoms.
    """
    variants = translation_variants(g)
    return variants[rng.randrange(len(variants))]


def random_augment(g: MonomerGraph, rng: random.Random) -> MonomerGraph:
    """Repeat-unit augmentation: coin-flip doubling, then random translation."""
    if rng.random() < 0.5:
        g = repeat_monomer(g, 2)
    return random_translation(g, rng)


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
