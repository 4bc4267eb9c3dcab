"""Command-line front end for corpus processing and verification runs.

Exit codes: 0 success, 1 usage error, 2 input error, 3 verification failure,
141 (128 + SIGPIPE) when the reader of stdout closes it first, which stops
the command with nothing on stderr.
Line commands stream: each non-blank input line prints its result as soon as
it is computed, in input order.  A bad record, a line or a row of an rsit or
fragcam dataset, is reported on stderr as "line N: <error type>: <message>",
N its line in the file, and a bad file as "error: <file>: <message>", among
them a file with a byte that is not UTF-8, a CSV field longer than
csv.field_size_limit() or JSON nested past the recursion limit.  Input files
may start with a UTF-8 byte-order mark; standard input is read as is.
Each command takes only the options it reads; all randomness derives from
--seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import random
import sys

import numpy as np

from . import corpus as corpus_mod
from . import rsit as rsit_mod
from . import verify as verify_mod
from .context import build_context
from .errors import PolyseqError
from .graphs import (MolGraph, MonomerGraph, StarLinkGraph, ring_stats,
                     star_link)
from .nets import ReferenceModel, SpatialDescriptors, forward_polymer, fragcam
from .psmiles import canonical_form, parse, random_augment, write

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _read_csv(path: str, columns: list[str]):
    """The header of CSV file path, which must start with columns, and its
    non-blank rows as (line number, fields), all fields stripped; no row may
    be longer than the header."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader, [])]
            rows = [(reader.line_num, [f.strip() for f in row])
                    for row in reader if len(row) > 1 or row and row[0].strip()]
        except (csv.Error, UnicodeDecodeError) as exc:
            raise PolyseqError(f"{path}: {exc}") from None
    if header[:len(columns)] != columns:
        raise PolyseqError(f"{path}: expected a CSV header starting "
                           f"{','.join(columns)!r}")
    repeated = [h for i, h in enumerate(header) if h in header[:i]]
    if repeated:
        raise PolyseqError(f"{path}: duplicate column {repeated[0]!r}")
    for n, row in rows:
        if len(row) > len(header):
            raise PolyseqError(f"{path} line {n}: long row {row!r}")
    return header, rows


def _numbers(path: str, n: int, row: list[str], width: int) -> list[float]:
    """Fields 1 .. width-1 of row n of CSV file path, as finite floats."""
    where = f"{path} line {n}"
    if len(row) < width:
        raise PolyseqError(f"{where}: short row {row!r}")
    values = []
    for text in row[1:width]:
        try:
            values.append(float(text))
        except ValueError as exc:
            raise PolyseqError(f"{where}: {exc}") from None
        if not math.isfinite(values[-1]):
            raise PolyseqError(f"{where}: non-finite value {text!r}")
    return values


def _read_dataset(path: str) -> list[tuple[int, tuple[str, float]]]:
    """The (psmiles, value) samples of a dataset, numbered by file line."""
    _, rows = _read_csv(path, ["psmiles", "value"])
    return [(n, (row[0], *_numbers(path, n, row, 2))) for n, row in rows]


def _fits(doc, shape) -> bool:
    """Whether a JSON document has shape: a type, [shape] or {str: shape}."""
    if isinstance(shape, list):
        return isinstance(doc, list) and all(_fits(x, shape[0]) for x in doc)
    if isinstance(shape, dict):
        return isinstance(doc, dict) and all(_fits(x, shape[str])
                                             for x in doc.values())
    return type(doc) is shape  # not isinstance: JSON true is an int there


def _load_json(path: str, shape, what: str):
    """The JSON document in path, which must have shape, described as what."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except (RecursionError, ValueError) as exc:
            raise PolyseqError(f"{path}: {exc}") from None
    if not _fits(doc, shape):
        raise PolyseqError(f"{path}: expected {what}")
    return doc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _each_record(records, fn, emit) -> int:
    """emit(fn(i, item)) for the i-th (n, item) of records, one at a time.

    A record whose fn raises PolyseqError or ValueError is reported on
    stderr with n, its line in the file.  Returns the number of such records.
    """
    errors = 0
    for i, (n, item) in enumerate(records):
        try:
            result = fn(i, item)
        except (PolyseqError, ValueError) as exc:
            errors += 1
            print(f"line {n}: {type(exc).__name__}: {exc}", file=sys.stderr,
                  flush=True)
        else:
            emit(result)
    return errors


def _model_from(args, **kw) -> ReferenceModel:
    return ReferenceModel.generate(args.seed, d=args.dim, L=args.layers, **kw)


# The options some commands read; each command names the ones it takes.
_OPTIONS = {
    "seed": dict(type=int, default=0),
    "d-thres": dict(type=_positive_int, default=3, dest="d_thres"),
    "layers": dict(type=_positive_int, default=3),
    "dim": dict(type=_positive_int, default=64),
    "strategy": dict(default="link", choices=rsit_mod.STRATEGIES),
}


def build_parser() -> _Parser:
    top = _Parser(prog="polyseq", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, run, *options):
        p = sub.add_parser(name)
        p.set_defaults(run=run)
        for opt in options:
            p.add_argument(f"--{opt}", **_OPTIONS[opt])
        return p

    def lines(name, per_line, *options,
              help="corpus file of P-SMILES lines, or -"):
        """A line command; per_line(args) is its function fn(i, s) of the
        stripped line s and i, its index among non-blank lines."""
        p = cmd(name, lambda args: _run_lines(args, per_line), *options)
        p.add_argument("input", help=help)
        return p

    lines("parse", lambda args: lambda i, s: dump_monomer(parse(s)))
    lines("canon", lambda args: lambda i, s: canonical_form(s))
    lines("link",
          lambda args: lambda i, s: dump_star_graph(star_link(parse(s))))
    lines("backbone", lambda args: lambda i, s: _backbone_json(s))
    lines("stats", lambda args: lambda i, s: parse(s).cyclomatic_number())
    lines("distances",
          lambda args: lambda i, s: _distances_json(s, args.d_thres),
          "d-thres")

    p = lines("augment", _augment_fn, "seed", help=None)
    p.add_argument("--n-variants", type=_positive_int, default=1)

    p = cmd("verify", _run_verify, "seed", "layers", "dim")
    p.add_argument("suite", choices=[*_SUITES, "all"])
    p.add_argument("--count", type=_positive_int, default=100,
                   help="number of random monomers for the oracle suites")

    p = cmd("rsit", _run_rsit, "seed", "d-thres", "layers", "dim", "strategy")
    p.add_argument("dataset", help="CSV file with header psmiles,value")
    p.add_argument("--metric", default="r2", choices=sorted(rsit_mod.METRICS))
    p.add_argument("--compare", action="store_true",
                   help="run all four strategies instead of --strategy")
    p.add_argument("--output", default=None, help="write JSON report here")

    p = cmd("fragcam", _run_fragcam, "seed", "d-thres", "layers", "dim")
    p.add_argument("dataset")
    p.add_argument("--fragments", required=True,
                   help="JSON: {psmiles: {label: [atom indices]}}")

    p = lines("forward", _forward_fn, "seed", "d-thres", "layers", "dim",
              "strategy", help=None)
    p.add_argument("--no-backbone", action="store_true")
    p.add_argument("--descriptors", default=None,
                   help="CSV psmiles,<col...> with descriptor values")
    p.add_argument("--groups", default=None,
                   help="JSON {group_name: [columns]}")
    return top


def _graph_doc(g: MolGraph, atom_fields=lambda i: {}) -> dict:
    """The atom and bond records of the JSON dumps, in a stable field order;
    atom_fields(i) appends fields to atom i's record."""
    return {
        "atoms": [{"index": i, "element": a.element, "aromatic": a.aromatic,
                   "charge": a.charge, "hcount": a.hcount, **atom_fields(i)}
                  for i, a in enumerate(g.atoms)],
        "bonds": [{"u": b.u, "v": b.v, "order": b.order} for b in g.bonds],
    }


def dump_monomer(g: MonomerGraph) -> str:
    """Stable JSON dump of a monomer graph and its boundary atoms."""
    return json.dumps({**_graph_doc(g), "head": g.head, "tail": g.tail},
                      separators=(",", ":"))


def dump_star_graph(star: StarLinkGraph) -> str:
    """Stable JSON dump of a star-linking graph (diff-friendly field order)."""
    m = star.monomer
    doc = _graph_doc(m, lambda i: {"is_boundary": i in (m.head, m.tail),
                                  "is_backbone": star.backbone[i]})
    doc["link_edge"] = [star.link.u, star.link.v]
    doc["meta"] = {"auto_repeat_k": star.auto_repeat_k}
    return json.dumps(doc, separators=(",", ":"))


def _backbone_json(s: str) -> str:
    star = star_link(parse(s))
    return json.dumps({"psmiles": s,
                       "backbone": star.backbone,
                       "auto_repeat_k": star.auto_repeat_k},
                      separators=(",", ":"))


def _distances_json(s: str, d_thres: int) -> str:
    """The periodic attention context the forward pass uses: per atom, its
    real entries as ``[key, image, dist]`` rows."""
    ctx = build_context(star_link(parse(s)), d_thres)
    table = np.stack([ctx.key, ctx.image, ctx.dist], axis=-1)
    rows = [table[i][~ctx.pad[i]].tolist() for i in range(ctx.n)]
    return json.dumps({"n": ctx.n, "d_thres": d_thres, "context": rows},
                      separators=(",", ":"))


def _augment_fn(args):
    def fn(i, s):
        g = parse(s)  # random_augment leaves g as it is, so draws share it
        rngs = (random.Random(f"{args.seed}:{i}:{v}")
                for v in range(args.n_variants))
        return "\n".join(write(random_augment(g, rng)) for rng in rngs)
    return fn


def _run_lines(args, per_line) -> int:
    """Run line command per_line; stats prints a summary, not a line each."""
    with (contextlib.nullcontext(sys.stdin) if args.input == "-"
          else open(args.input, encoding="utf-8-sig")) as fh:
        fn = per_line(args)
        # str.splitlines, not the file, decides where a line ends, so form
        # feeds and Unicode line separators end lines too
        lines = (ln.strip() for chunk in fh for ln in chunk.splitlines())
        records = ((n, s) for n, s in enumerate(lines, 1) if s)
        counts = []  # stats keeps each line's ring count, not its graph
        emit = (counts.append if args.command == "stats"
                else lambda text: print(text, flush=True))
        try:
            failed = _each_record(records, fn, emit)
        except UnicodeDecodeError as exc:  # from fh: fn's are caught per line
            if args.input == "-":
                raise
            raise PolyseqError(f"{args.input}: {exc}") from None
    if args.command == "stats":
        mean, frac = ring_stats(counts)
        print(json.dumps({"polymers": len(counts), "mean_rings": mean,
                          "frac_more_than_2_rings": frac, "skipped": failed}))
    return EXIT_INPUT if failed else EXIT_OK


# The oracle suites, in the order `verify all` runs them, each a function
# of the drawn monomers, the twin pairs and the model.
_SUITES = {
    "theorem1": lambda ms, pairs, model: verify_mod.theorem1_suite(ms, model),
    "theorem2": lambda ms, pairs, model: verify_mod.theorem2_suite(ms, model),
    "lemma1": lambda ms, pairs, model: verify_mod.lemma1_suite(pairs),
    "theorem3": lambda ms, pairs, model: verify_mod.twin_suite(pairs, model),
}


def _run_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    rng = random.Random(args.seed)
    monomers = [corpus_mod.random_monomer(rng) for _ in range(args.count)]
    pairs = corpus_mod.default_twin_pairs()
    # the weights do not depend on d_thres: one model serves every suite
    model = _model_from(args)
    failed = False
    for name in names:
        rep = _SUITES[name](monomers, pairs, model)
        for line in rep.lines():
            print(line)
        failed = failed or not rep.passed
    return EXIT_VERIFY if failed else EXIT_OK


def _run_rsit(args) -> int:
    """Score each row once for every strategy, all four with --compare."""
    samples = _read_dataset(args.dataset)
    model = _model_from(args, d_thres=args.d_thres)
    strategies = rsit_mod.STRATEGIES if args.compare else (args.strategy,)
    predictors = {s: rsit_mod.ModelPredictor(model, s) for s in strategies}
    records = []
    errors = _each_record(samples, lambda i, row: rsit_mod.evaluate(
        predictors, i, *row), records.append)
    if not records:
        raise PolyseqError(f"{args.dataset}: no sample to score")
    reports = rsit_mod.summarize(records, args.metric)
    print(rsit_mod.format_table(reports))
    if args.output:
        doc = {"metric": args.metric}
        doc.update((s, rep.to_dict()) for s, rep in reports.items())
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2)
    return EXIT_INPUT if errors else EXIT_OK


def _run_fragcam(args) -> int:
    """Rank the fragment labels by mean score over the dataset's rows."""
    samples = _read_dataset(args.dataset)
    frag_map = _load_json(args.fragments, {str: {str: [int]}},
                          "a JSON object of objects of atom-index lists")
    model = _model_from(args, d_thres=args.d_thres)

    def fn(i, sample):
        s = sample[0]
        if s not in frag_map:
            raise PolyseqError(f"no fragmentation for {s}")
        frags = frag_map[s]
        scores, _ = fragcam(model, parse(s), [set(v) for v in frags.values()])
        return zip(frags, scores)

    rows = []
    errors = _each_record(samples, fn, rows.append)
    if not rows:
        raise PolyseqError(f"{args.dataset}: no sample to score")
    by_label: dict[str, list[float]] = {}
    for row in rows:
        for label, score in row:
            by_label.setdefault(label, []).append(score)
    ranking = sorted(((sum(v) / len(v), k) for k, v in by_label.items()),
                     reverse=True)
    print(f"{'fragment':<20}{'mean_score':>14}{'count':>8}")
    for mean, label in ranking:
        print(f"{label:<20}{mean:>14.6f}{len(by_label[label]):>8}")
    if len(ranking) > 3:
        top = ", ".join(k for _, k in ranking[:3])
        bottom = ", ".join(k for _, k in ranking[-3:])
        print(f"top-3: {top}")
        print(f"bottom-3: {bottom}")
    return EXIT_INPUT if errors else EXIT_OK


def _load_descriptors(args):
    """The descriptors of each --descriptors row, and the --groups widths."""
    if not args.descriptors:
        if args.groups:
            raise PolyseqError("--groups requires --descriptors")
        return None, None
    if not args.groups:
        raise PolyseqError("--descriptors requires --groups")
    what = "a JSON object of column lists, at least one and none empty"
    groups = _load_json(args.groups, {str: [str]}, what)
    if not groups or not all(groups.values()):
        raise PolyseqError(f"{args.groups}: expected {what}")
    path = args.descriptors
    header, rows = _read_csv(path, ["psmiles"])
    missing = [c for cols in groups.values() for c in cols
               if c not in header[1:]]
    if missing:
        raise PolyseqError(f"{path}: no column {missing[0]!r}")
    table = {}
    for n, row in rows:
        if row[0] in table:
            raise PolyseqError(f"{path} line {n}: duplicate row for "
                               f"{row[0]!r}")
        values = dict(zip(header[1:], _numbers(path, n, row, len(header))))
        table[row[0]] = SpatialDescriptors(
            [(name, np.array([values[c] for c in cols]))
             for name, cols in groups.items()])
    return table, {name: len(cols) for name, cols in groups.items()}


def _forward_fn(args):
    table, dims = _load_descriptors(args)
    model = _model_from(args, d_thres=args.d_thres, spatial_groups=dims)

    def fn(i, s):
        if table is not None and s not in table:
            raise PolyseqError(f"no descriptor row for {s}")
        res = forward_polymer(model, parse(s),
                              descriptors=None if table is None else table[s],
                              strategy=args.strategy,
                              use_backbone=not args.no_backbone)
        return json.dumps({"psmiles": s, "yhat": res.yhat})
    return fn


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except BrokenPipeError:
        # point stdout at devnull, so that the interpreter's last flush of
        # what is still buffered cannot raise again
        with contextlib.suppress(AttributeError, OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        return EXIT_PIPE
    except (OSError, PolyseqError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
