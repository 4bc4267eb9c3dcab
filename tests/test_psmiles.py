import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyseq import (
    DisconnectedError,
    LexError,
    ParseError,
    PolyseqError,
    ReferenceModel,
    canonical_form,
    forward_polymer,
    monomer_isomorphic,
    parse,
    random_augment,
    repeat_monomer,
    write,
)
from polyseq.corpus import corpus, random_monomer
from polyseq.graphs import (
    Atom,
    Bond,
    MonomerGraph,
    featurize,
    implicit_hydrogens,
    star_link,
    strategy_transform,
)
from polyseq.psmiles import _atom_token, _bond_symbol, augment_rewrites
from polyseq.wl import translation_variants


class TestParse:
    def test_basic_chain(self):
        g = parse("*CONO*")
        assert [a.element for a in g.atoms] == ["C", "O", "N", "O"]
        assert g.head == 0 and g.tail == 3
        assert all(b.order == "single" for b in g.bonds)

    def test_branch_and_double_bond(self):
        g = parse("*CC(=O)N*")
        orders = {b.pair(): b.order for b in g.bonds}
        assert orders[(1, 2)] == "double"
        assert g.tail == 3

    def test_aromatic_ring(self):
        g = parse("*c1ccc(*)cc1")
        assert all(a.aromatic for a in g.atoms)
        assert all(b.order == "aromatic" for b in g.bonds)
        assert g.n == 6

    def test_bracket_atom(self):
        g = parse("*C[N+](C)(C)C[13CH2]O[O-]*")
        n = g.atoms[1]
        assert n.element == "N" and n.charge == 1
        c13 = g.atoms[5]
        assert c13.isotope == 13 and c13.hcount == 2
        assert g.atoms[7].charge == -1

    def test_bracket_atom_has_its_written_h_count(self):
        # OpenSMILES: a bracket atom without H carries no hydrogen
        g = parse("*C[C]C*")
        assert g.atoms[1].hcount == 0
        assert parse("*C[CH2]C*").atoms[1].hcount == 2
        assert parse("*C[13C]C*").atoms[1].hcount == 0
        assert not monomer_isomorphic(g, parse("*CCC*"))
        assert canonical_form(g) != canonical_form("*CCC*")

    def test_charged_bracket_atom_is_featurised_without_h(self):
        g = parse("*CC([O-])*")
        assert g.atoms[2].charge == -1
        assert implicit_hydrogens(g, 2) == 0
        assert featurize(g)[-5, 2] == 1.0  # the implicit-H one-hot at 0

    def test_two_letter_elements(self):
        g = parse("*[Si](Cl)(Br)O*")
        assert g.atoms[0].element == "Si"
        assert {a.element for a in g.atoms} == {"Si", "Cl", "Br", "O"}

    def test_percent_ring_closure(self):
        g = parse("*CC%12CCCC%12*")
        assert g.cyclomatic_number() == 1

    def test_percent_takes_exactly_two_digits(self):
        # OpenSMILES: %11 is ring 11, and the 1 after %11 is ring 1
        assert monomer_isomorphic(parse("*C%11CCC1CC%111*"),
                                  parse("*C1CCC2CC12*"), allow_swap=False)

    def test_stereo_marks_are_dropped(self):
        # a writing parses, canonicalizes and predicts as its unmarked one
        model = ReferenceModel.generate(0, d=16, L=2)
        for plain, marked in [("*CC=CC*", ("*C/C=C/C*", "*C/C=C\\C*")),
                              ("*N[CH](C)C(=O)O*", ("*N[C@H](C)C(=O)O*",
                                                    "*N[C@@H](C)C(=O)O*"))]:
            want = parse(plain)
            for s in marked:
                g = parse(s)
                assert ((g.atoms, g.bonds, g.head, g.tail)
                        == (want.atoms, want.bonds, want.head, want.tail)), s
                assert canonical_form(s) == canonical_form(plain), s
                assert (forward_polymer(model, g).yhat
                        == forward_polymer(model, want).yhat), s

    @pytest.mark.parametrize("s, hcount, charge", [
        ("*C[C@TH1H](O)C*", 1, 0), ("*C[C@OH12H+]C*", 1, 1),
        ("*C[C@SP1H2]C*", 2, 0), ("*C[C@AL2H]=C=CC*", 1, 0),
        ("*C[C@TB20H3-2]C*", 3, -2), ("*C[C@OH30H]C*", 1, 0),
    ])
    def test_chirality_class_keeps_h_count(self, s, hcount, charge):
        # the class takes its letters and number only, not the H count
        g = parse(s)
        assert (g.atoms[1].hcount, g.atoms[1].charge) == (hcount, charge)

    def test_shared_boundary_atom(self):
        g = parse("*C(*)C")
        assert g.head == g.tail == 0

    def test_aromatic_nh(self):
        g = parse("*c1cc[nH]c1*")
        nh = g.atoms[3]
        assert nh.aromatic and nh.hcount == 1

    @pytest.mark.parametrize("s", [
        "*c1ccc(*)cc1", "*CC(=O)N*", "*CC(C)(C(=O)OC)*", "*CC%12CCCC%12*",
        "*C%11CCC1CC%111*", "*C[N+](C)(C)C[13CH2]O[O-]*", "*[Si](Cl)(Br)O*",
        "*c1cc[nH]c1*", "*C(*)C", "*C(=O)Oc1ccc(C(C)(C)c2ccc(O*)cc2)cc1",
    ])
    def test_output_is_connected(self, s):
        # parse checks no connectivity: every atom bonds to the one before
        # it or to its branch point, and the stars it drops are leaves
        assert parse(s).is_connected()

    def test_corpus_output_is_connected(self):
        for line in corpus(300, seed=7):
            for s in [line, *augment_rewrites(parse(line))]:
                assert parse(s).is_connected(), s


class TestParseErrors:
    @pytest.mark.parametrize("bad", [
        "*C!C*", "*CxC*", "*C[]C*",
    ])
    def test_lex_errors(self, bad):
        with pytest.raises((LexError, ParseError)):
            parse(bad)

    @pytest.mark.parametrize("bad", [
        "", "*C(C*", "*CC)*", "*C1CC*", "*C==C*", "*CC*C", "*", "**",
        "*C(*)(*)C", "*C[C*", "*C11C*", "=*CC*", "*C(-)C*",
        "*C%1CC1*", "*C%*", "*CC%", "*C%a1CC1*", "*C%\u00b21CC1*",
        "*CC1C1*", "*C12C12*", "*C(C1)1C*", "*C[C@@@H]C*", "*C[C@TH3]C*",
        "*C[C@TB21]C*", "*C[C@T]C*", "*C[\u00c9]C*",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ParseError):
            parse(bad)

    @pytest.mark.parametrize("bad, error", [
        ("*C\u00b2*", LexError), ("*C1CC\u0661*", LexError),
        ("*[\u00b2C]*", ParseError), ("*[CH\u00b2]*", ParseError),
        ("*[C+\u00b2]*", ParseError), ("*[C:\u00b2]*", ParseError),
    ])
    def test_non_ascii_digits(self, bad, error):
        # str.isdigit accepts superscripts and other scripts' digits
        with pytest.raises(error):
            parse(bad)

    def test_dot_rejected(self):
        for s in ("*CC*.O", "*CC.CC*", "*C1.C1*", "*C(.C)C*"):
            with pytest.raises(DisconnectedError):
                parse(s)

    def test_star_needs_single_bond(self):
        with pytest.raises(ParseError):
            parse("*=CC*")

    def test_conflicting_ring_orders(self):
        with pytest.raises(ParseError):
            parse("*C=1CCCC-1*")


# Single characters and whole tokens of the P-SMILES grammar.
TOKENS = [*"CcNnOoSsPpBbFI*()[]=#-:/\\123%0+@H.", "Cl", "Br", "[nH]",
          "[C@@H]", "[C@TH1H]", "[13C]", "[O-]", "[NH3+]", "%12", "[Si]",
          "[*]"]


class TestParseContract:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(TOKENS), min_size=1, max_size=14)
           .map("".join))
    def test_graph_or_polyseq_error(self, s):
        # framed in stars, about one draw in ten parses
        for text in (s, f"*{s}*"):
            try:
                g = parse(text)
            except PolyseqError:
                continue
            assert monomer_isomorphic(parse(write(g)), g, allow_swap=False)


class TestWrite:
    CASES = [
        "*CONO*",
        "*CC(*)C",
        "*c1ccc(*)cc1",
        "*C(=O)Oc1ccc(C(C)(C)c2ccc(O*)cc2)cc1",
        "*CC(C)(C(=O)OC)*",
        "*[Si](C)(C)O*",
        "*C*",
        "*C#CC[N+](C)(C)[O-]*",
        "*C[CH0]C*",
        "*[13CH0]C[NH0+]C*",
    ]

    @pytest.mark.parametrize("s", CASES)
    def test_round_trip(self, s):
        g = parse(s)
        again = parse(write(g))
        assert monomer_isomorphic(g, again, allow_swap=False)

    def test_starts_with_star(self):
        for s in self.CASES:
            assert write(parse(s)).startswith("*")

    def test_deterministic(self):
        g = parse("*CC(c1ccccc1)O*")
        assert write(g) == write(g)

    @pytest.mark.parametrize("k", [100, 101])
    def test_ring_bond_numbers_stop_at_99(self, k):
        # head 0 and atom 1 joined through k atoms: the head opens k - 1
        # ring bonds at once, and %nn has two digits
        bonds = [Bond(e, m) for m in range(2, k + 2) for e in (0, 1)]
        g = MonomerGraph([Atom("C")] * (k + 2), bonds, 0, 1)
        if k - 1 > 99:
            with pytest.raises(ParseError):
                write(g)
        else:
            assert monomer_isomorphic(parse(write(g)), g, allow_swap=False)

    def test_disconnected_monomer_is_rejected(self):
        # no string holds both fragments, so none round-trips
        atoms = [Atom("C"), Atom("C"), Atom("O"), Atom("N")]
        g = MonomerGraph(atoms, [Bond(0, 1), Bond(2, 3)], 0, 1)
        with pytest.raises(DisconnectedError):
            write(g)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_round_trip_random(self, seed):
        g = random_monomer(random.Random(seed))
        again = parse(write(g))
        assert monomer_isomorphic(g, again, allow_swap=False)

    @pytest.mark.parametrize("s, want", [
        ("*C[C]C*", "*C[C]C*"),
        ("*C[CH0]C*", "*C[C]C*"),
        ("*[13CH0]C[NH0+]C*", "*[13C]C[N+]C*"),
        ("*C[O-]*", "*C[O-]*"),
    ])
    def test_bracket_atom_without_h(self, s, want):
        assert write(parse(s)) == want

    @pytest.mark.parametrize("atom, want", [
        (Atom("N", charge=1), "*C[NH2+]C*"),
        (Atom("C", isotope=13), "*C[13CH2]C*"),
    ])
    def test_api_bracket_atom_keeps_implicit_h(self, atom, want):
        # an atom built without an H count has its implicit hydrogens; the
        # bracket must write them, or the parsed atom would carry none
        g = MonomerGraph([Atom("C"), atom, Atom("C")],
                         [Bond(0, 1), Bond(1, 2)], head=0, tail=2)
        s = write(g)
        assert s == want
        assert np.array_equal(featurize(parse(s)), featurize(g))
        assert write(parse(s)) == s

    def test_api_bracket_endpoint_counts_its_star_bond(self):
        # the head's star bond is a bond of the written atom, so the linked
        # graph, where the link takes its place, keeps its features
        g = MonomerGraph([Atom("N", charge=1), Atom("C"), Atom("C")],
                         [Bond(0, 1), Bond(1, 2)], head=0, tail=2)
        s = write(g)
        assert s == "*[NH2+]CC*"
        assert np.array_equal(featurize(star_link(parse(s)).as_graph()),
                              featurize(star_link(g).as_graph()))
        assert write(parse(s)) == s

    def test_long_chain(self):
        # deeper than the default recursion limit
        s = "*" + "C" * 1200 + "*"
        assert write(parse(s)) == s


def _reference_write(g):
    """``write`` as it was with a recursive survey and emit; kept as the
    reference."""
    mol = strategy_transform(g, "keep")
    start = g.n

    children = {i: [] for i in range(mol.n)}
    ring_at = {i: [] for i in range(mol.n)}
    visited = [False] * mol.n
    seen_back = set()

    def survey(u, par):
        visited[u] = True
        for v in mol.neighbors(u):
            if not visited[v]:
                children[u].append(v)
                survey(v, u)
            elif v != par:
                p = (min(u, v), max(u, v))
                if p not in seen_back:
                    seen_back.add(p)
                    ring_at[v].append(p)
                    ring_at[u].append(p)

    survey(start, -1)

    out = []
    open_num = {}
    in_use = set()

    def emit(u, par):
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
                open_num[p] = num
                in_use.add(num)
            out.append(tok + (str(num) if num < 10 else f"%{num:02d}"))
        kids = children[u]
        for k, v in enumerate(kids):
            if k < len(kids) - 1:
                out.append("(")
                emit(v, u)
                out.append(")")
            else:
                emit(v, u)

    emit(start, -1)
    return "".join(out)


class TestReferenceWrite:
    def test_corpus_and_rewrites(self):
        rng = random.Random(41)
        for line in corpus(300, seed=41):
            g = parse(line)
            for h in (g, random_augment(g, rng), random_augment(g, rng)):
                assert write(h) == _reference_write(h)

    @pytest.mark.parametrize("s", TestWrite.CASES + [
        "*CC12CC3CC(CC(C3)C1)C2*", "*c1ccc2ccccc2c1*",
        "*CC1(C2CCC3(CCC3)C2)CC1*"])
    def test_fixtures(self, s):
        g = parse(s)
        assert write(g) == _reference_write(g)


class TestAugment:
    def test_translation_variants_of_small_chain(self):
        g = parse("*CONO*")
        out = {write(v) for v in translation_variants(g)}
        assert out == {"*CONO*", "*ONOC*", "*NOCO*", "*OCON*"}

    def test_repeat(self):
        g = repeat_monomer(parse("*CONO*"), 2)
        assert write(g) == "*CONOCONO*"

    def test_translation_variants_preserve_polymer(self):
        g = parse("*CC(C)OC(=O)*")
        for t in translation_variants(g):
            assert canonical_form(t) == canonical_form(g)

    def test_random_augment_canon_equal(self):
        rng = random.Random(17)
        for s in ("*CONO*", "*CC(C)C(=O)O*", "*c1ccc(*)cc1"):
            base = canonical_form(s)
            for _ in range(8):
                assert canonical_form(random_augment(parse(s), rng)) == base

    def test_repeat_branch_rate(self):
        g = parse("*CONO*")
        rng = random.Random(0)
        repeats = sum(random_augment(g, rng).n > g.n for _ in range(2000))
        assert 0.45 <= repeats / 2000 <= 0.55

    def test_random_augment_matches_reference_draw(self):
        # the draw that built every translation and kept one
        def reference(g, rng):
            if rng.random() < 0.5:
                g = repeat_monomer(g, 2)
            variants = translation_variants(g)
            return variants[rng.randrange(len(variants))]

        for i, line in enumerate(corpus(200, seed=7)):
            g = parse(line)
            for v in range(5):
                got = random_augment(g, random.Random(f"{i}:{v}"))
                want = reference(g, random.Random(f"{i}:{v}"))
                assert (got.atoms, got.bonds, got.head, got.tail) == (
                    want.atoms, want.bonds, want.head, want.tail)
                assert write(got) == write(want)
            assert write(g) == line  # the draws share g and leave it as is

    def test_random_augment_builds_only_the_drawn_translation(
            self, monkeypatch):
        g = parse("*CCOCN*")  # 4 cut bridges, 9 once doubled
        assert len(translation_variants(g)) == 5
        built = 0
        init = MonomerGraph.__init__

        def counted(self, *args, **kwargs):
            nonlocal built
            built += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(MonomerGraph, "__init__", counted)
        for seed in range(20):
            g = parse("*CCOCN*")  # fresh, so no doubling is memoised yet
            built = 0
            random_augment(g, random.Random(seed))
            assert built <= 2  # the doubling and the chosen cut


class TestCanonicalForm:
    def test_translation_invariant(self):
        forms = {canonical_form(s)
                 for s in ("*CONO*", "*ONOC*", "*NOCO*", "*OCON*")}
        assert len(forms) == 1

    def test_repetition_invariant(self):
        assert canonical_form("*CONOCONO*") == canonical_form("*CONO*")

    def test_orientation_invariant(self):
        assert canonical_form("*CON*") == canonical_form("*NOC*")

    def test_distinguishes_polymers(self):
        assert canonical_form("*CONO*") != canonical_form("*CONN*")
        assert canonical_form("*CCO*") != canonical_form("*CCN*")

    def test_accepts_graph_or_string(self):
        assert canonical_form(parse("*CONO*")) == canonical_form("*CONO*")
