"""Command-line front end for corpus processing and verification runs.

Exit codes: 0 success, 1 usage error, 2 input error, 3 verification failure.
Line commands stream: each non-blank input line prints its result as soon as
it is computed, in input order, and a bad line is reported on stderr as
"line N: <error type>: <message>", N its line in the file.  Each command
takes only the options it reads; all randomness derives from --seed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import random
import sys

import numpy as np

from . import corpus as corpus_mod
from . import rsit as rsit_mod
from . import verify as verify_mod
from .context import build_context
from .errors import PolyseqError
from .graphs import dump_star_graph, ring_stats, star_link
from .nets import ReferenceModel, SpatialDescriptors, forward_polymer, fragcam
from .psmiles import canonical_form, parse, random_augment, write

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _read_dataset(path: str) -> list[tuple[str, float]]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["psmiles",
                                                                 "value"]:
            raise PolyseqError(f"{path}: expected CSV header 'psmiles,value'")
        out = []
        for row in reader:
            if not row or (len(row) == 1 and not row[0].strip()):
                continue  # a blank line, skipped as the line commands do
            where = f"{path} line {reader.line_num}"
            if len(row) < 2:
                raise PolyseqError(f"{where}: short row {row!r}")
            try:
                out.append((row[0].strip(), float(row[1])))
            except ValueError as exc:
                raise PolyseqError(f"{where}: {exc}") from None
    return out


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text} is not a positive integer")
    return value


def _each_line(fh, fn, emit) -> int:
    """emit(fn(i, line)) for each non-blank line of fh, read one at a time.

    Lines are stripped and i counts the non-blank ones.  A line whose fn
    raises PolyseqError is reported on stderr with its line number in the
    file.  Returns the number of such lines.
    """
    errors = 0
    # str.splitlines, not the file, decides where a line ends, so form feeds
    # and Unicode line separators end lines too
    lines = (ln.strip() for chunk in fh for ln in chunk.splitlines())
    numbered = ((n, s) for n, s in enumerate(lines, 1) if s)
    for i, (n, s) in enumerate(numbered):
        try:
            result = fn(i, s)
        except PolyseqError as exc:
            errors += 1
            print(f"line {n}: {type(exc).__name__}: {exc}", file=sys.stderr,
                  flush=True)
        else:
            emit(result)
    return errors


def _print_now(text: str) -> None:
    print(text, flush=True)


def _monomer_json(g) -> str:
    doc = {
        "atoms": [{"index": i, "element": a.element, "aromatic": a.aromatic,
                   "charge": a.charge, "hcount": a.hcount}
                  for i, a in enumerate(g.atoms)],
        "bonds": [{"u": b.u, "v": b.v, "order": b.order} for b in g.bonds],
        "head": g.head,
        "tail": g.tail,
    }
    return json.dumps(doc, separators=(",", ":"))


def _model_from(args, **kw) -> ReferenceModel:
    return ReferenceModel.generate(args.seed, d=args.dim, L=args.layers, **kw)


# The options some commands read; each command names the ones it takes.
_OPTIONS = {
    "seed": dict(type=int, default=0),
    "d-thres": dict(type=_positive_int, default=3, dest="d_thres"),
    "layers": dict(type=_positive_int, default=3),
    "dim": dict(type=_positive_int, default=64),
    "strategy": dict(default="link",
                     choices=["keep", "remove", "substitute", "link"]),
    "tolerance": dict(type=float, default=1e-9),
}


def build_parser() -> _Parser:
    top = _Parser(prog="polyseq", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def cmd(name, *options):
        p = sub.add_parser(name)
        for opt in options:
            p.add_argument(f"--{opt}", **_OPTIONS[opt])
        return p

    for name in ("parse", "canon", "link", "backbone", "stats"):
        p = cmd(name)
        p.add_argument("input", help="corpus file of P-SMILES lines, or -")

    p = cmd("distances", "d-thres")
    p.add_argument("input", help="corpus file of P-SMILES lines, or -")

    p = cmd("augment", "seed")
    p.add_argument("input")
    p.add_argument("--n-variants", type=_positive_int, default=1)

    p = cmd("verify", "seed", "layers", "dim", "tolerance")
    p.add_argument("suite", choices=["theorem1", "theorem2", "theorem3",
                                     "lemma1", "all"])
    p.add_argument("--count", type=_positive_int, default=100,
                   help="number of random monomers for the oracle suites")

    p = cmd("rsit", "seed", "d-thres", "layers", "dim", "strategy")
    p.add_argument("dataset", help="CSV file with header psmiles,value")
    p.add_argument("--metric", default="r2", choices=sorted(rsit_mod.METRICS))
    p.add_argument("--compare", action="store_true",
                   help="run all four strategies instead of --strategy")
    p.add_argument("--output", default=None, help="write JSON report here")

    p = cmd("fragcam", "seed", "d-thres", "layers", "dim")
    p.add_argument("dataset")
    p.add_argument("--fragments", required=True,
                   help="JSON: {psmiles: {label: [atom indices]}}")

    p = cmd("forward", "seed", "d-thres", "layers", "dim", "strategy")
    p.add_argument("input")
    p.add_argument("--no-backbone", action="store_true")
    p.add_argument("--descriptors", default=None,
                   help="CSV psmiles,<col...> with descriptor values")
    p.add_argument("--groups", default=None,
                   help="JSON {group_name: [columns]}")
    return top


def _backbone_json(s: str) -> str:
    star = star_link(parse(s))
    return json.dumps({"psmiles": s,
                       "backbone": star.backbone,
                       "auto_repeat_k": star.auto_repeat_k},
                      separators=(",", ":"))


def _augment_fn(args):
    def fn(i, s):
        outs = []
        for v in range(args.n_variants):
            rng = random.Random(f"{args.seed}:{i}:{v}")
            outs.append(write(random_augment(parse(s), rng)))
        return "\n".join(outs)
    return fn


def _run_lines(args) -> int:
    """Run a line command; stats prints one summary, not a line each."""
    with (contextlib.nullcontext(sys.stdin) if args.input == "-"
          else open(args.input)) as fh:
        fn = _LINE_COMMANDS[args.command](args)
        if args.command != "stats":
            failed = _each_line(fh, fn, _print_now)
        else:
            graphs = []
            failed = _each_line(fh, fn, graphs.append)
            mean, frac, _ = ring_stats(graphs)
            print(json.dumps({"polymers": len(graphs),
                              "mean_rings": mean,
                              "frac_more_than_2_rings": frac,
                              "skipped": failed}))
    return EXIT_INPUT if failed else EXIT_OK


def _run_verify(args) -> int:
    rng = random.Random(args.seed)
    reports = []
    if args.suite in ("theorem1", "theorem2", "all"):
        monomers = [corpus_mod.random_monomer(rng)
                    for _ in range(args.count)]
        model = _model_from(args)
        if args.suite in ("theorem1", "all"):
            reports.append(verify_mod.theorem1_suite(monomers, model,
                                                     tol=args.tolerance))
        if args.suite in ("theorem2", "all"):
            neg = parse("*CNO*")
            reports.append(verify_mod.theorem2_suite(monomers, model, neg,
                                                     tol=args.tolerance))
    if args.suite in ("theorem3", "lemma1", "all"):
        pairs = corpus_mod.default_twin_pairs()
        if args.suite in ("lemma1", "all"):
            reports.append(verify_mod.lemma1_suite(pairs))
        if args.suite in ("theorem3", "all"):
            # twin seeds need no auto-repeat at d_thres=2, which keeps the
            # linked graphs of a pair literally isomorphic in the forward pass
            reports.append(verify_mod.twin_suite(
                pairs, _model_from(args, d_thres=2), tol=args.tolerance))
    failed = False
    for rep in reports:
        for line in rep.lines():
            print(line)
        failed = failed or not rep.passed
    return EXIT_VERIFY if failed else EXIT_OK


def _run_rsit(args) -> int:
    samples = _read_dataset(args.dataset)
    model = _model_from(args, d_thres=args.d_thres)
    if args.compare:
        rows = rsit_mod.compare_strategies(model, samples, metric=args.metric)
        print(rsit_mod.format_table(rows))
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(rows, fh, indent=2)
    else:
        rep = rsit_mod.rsit(rsit_mod.ModelPredictor(model, args.strategy),
                            samples, metric=args.metric)
        rows = [{"strategy": args.strategy, "clean": rep.clean_metric,
                 "adversarial": rep.adv_metric, "gap": rep.rsit_gap,
                 "failures": rep.failures}]
        print(rsit_mod.format_table(rows))
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(rep.to_json())
    failed = [r for r in rows if r["failures"]]
    for r in failed:
        print(f"warning: {r['strategy']}: {r['failures']} sample(s) failed "
              "and were excluded", file=sys.stderr)
    return EXIT_INPUT if failed else EXIT_OK


def _run_fragcam(args) -> int:
    samples = _read_dataset(args.dataset)
    with open(args.fragments) as fh:
        frag_map = json.load(fh)
    model = _model_from(args, d_thres=args.d_thres)
    by_label: dict[str, list[float]] = {}
    errors = 0
    for s, _value in samples:
        if s not in frag_map:
            print(f"no fragmentation for {s}", file=sys.stderr)
            errors += 1
            continue
        labels = list(frag_map[s])
        try:
            g = parse(s)
            scores, yhat = fragcam(model, g,
                                   [set(frag_map[s][k]) for k in labels])
        except (PolyseqError, ValueError) as exc:
            print(f"{s}: {type(exc).__name__}: {exc}", file=sys.stderr)
            errors += 1
            continue
        for label, score in zip(labels, scores):
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
    if not args.descriptors:
        return None, None
    if not args.groups:
        raise PolyseqError("--descriptors requires --groups")
    with open(args.groups) as fh:
        groups = json.load(fh)
    if not (isinstance(groups, dict)
            and all(isinstance(cols, list) for cols in groups.values())):
        raise PolyseqError("--groups must be a JSON object of column lists")
    table = {}
    with open(args.descriptors, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or reader.fieldnames[0] != "psmiles":
            raise PolyseqError("descriptor CSV must start with 'psmiles'")
        missing = [c for cols in groups.values() for c in cols
                   if c not in reader.fieldnames[1:]]
        if missing:
            raise PolyseqError(f"descriptor CSV has no column {missing[0]!r}")
        for row in reader:
            if None in row or None in row.values():
                raise PolyseqError(f"descriptor CSV line {reader.line_num}: "
                                   "field count differs from the header")
            table[row["psmiles"]] = {k: float(v) for k, v in row.items()
                                     if k != "psmiles"}
    dims = {name: len(cols) for name, cols in groups.items()}
    return (groups, table), dims


def _forward_fn(args):
    desc, dims = _load_descriptors(args)
    model = _model_from(args, d_thres=args.d_thres, spatial_groups=dims)

    def fn(i, s):
        sd = None
        if desc is not None:
            groups, table = desc
            if s not in table:
                raise PolyseqError(f"no descriptor row for {s}")
            row = table[s]
            sd = SpatialDescriptors(
                [(name, np.array([row[c] for c in cols]))
                 for name, cols in groups.items()])
        res = forward_polymer(model, parse(s), descriptors=sd,
                              strategy=args.strategy,
                              use_backbone=not args.no_backbone)
        return json.dumps({"psmiles": s, "yhat": res.yhat})
    return fn


# Line commands: each maps the parsed arguments to its per-line function
# fn(i, s) of the stripped line s and i, its index among non-blank lines.
_LINE_COMMANDS = {
    "parse": lambda args: lambda i, s: _monomer_json(parse(s)),
    "canon": lambda args: lambda i, s: canonical_form(s),
    "link": lambda args: lambda i, s: dump_star_graph(star_link(parse(s))),
    "backbone": lambda args: lambda i, s: _backbone_json(s),
    "distances": lambda args: lambda i, s: build_context(
        star_link(parse(s)).as_graph(), args.d_thres).to_json(),
    "augment": _augment_fn,
    "stats": lambda args: lambda i, s: parse(s),
    "forward": _forward_fn,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    run = {"verify": _run_verify, "rsit": _run_rsit,
           "fragcam": _run_fragcam}.get(args.command, _run_lines)
    try:
        return run(args)
    except (OSError, PolyseqError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
