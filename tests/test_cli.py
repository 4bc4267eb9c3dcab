import io
import json
import os
import random
import subprocess
import sys

import pytest

from polyseq import (canonical_form, forward_polymer, parse, random_augment,
                     write)
from polyseq import verify as verify_mod
from polyseq.cli import build_parser, main
from polyseq.corpus import default_twin_pairs
from polyseq.nets import ReferenceModel
from polyseq.psmiles import augment_rewrites
from polyseq.verify import lemma1_suite, twin_suite
from polyseq.wl import TwinPair


def write_lines(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def write_dataset(tmp_path, rows, header="psmiles,value"):
    path = tmp_path / "data.csv"
    path.write_text(header + "\n" + "\n".join(f"{s},{v}" for s, v in rows)
                    + "\n")
    return str(path)


# The model and oracle options, and the commands that read each one;
# --tolerance is read by none: the oracle suites fix their own.
READERS = {
    "--seed": {"augment", "verify", "rsit", "fragcam", "forward"},
    "--d-thres": {"distances", "rsit", "fragcam", "forward"},
    "--layers": {"verify", "rsit", "fragcam", "forward"},
    "--dim": {"verify", "rsit", "fragcam", "forward"},
    "--strategy": {"rsit", "forward"},
    "--tolerance": set(),
}
VALUES = {"--strategy": "keep"}
COMMANDS = {
    "parse": ["in.txt"], "canon": ["in.txt"], "link": ["in.txt"],
    "backbone": ["in.txt"], "stats": ["in.txt"], "distances": ["in.txt"],
    "augment": ["in.txt"], "verify": ["all"], "rsit": ["data.csv"],
    "fragcam": ["data.csv", "--fragments", "f.json"], "forward": ["in.txt"],
}
PAIRS = [(cmd, opt) for cmd in COMMANDS for opt in READERS]
READ = [(c, o) for c, o in PAIRS if c in READERS[o]]
UNREAD = [(c, o) for c, o in PAIRS if c not in READERS[o]]


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["fragcam", "data.csv"])  # --fragments is required
        assert exc.value.code == 1

    @pytest.mark.parametrize("argv", [
        ["augment", "in.txt", "--n-variants", "0"],
        ["augment", "in.txt", "--n-variants", "-2"],
        ["verify", "theorem1", "--count", "0"],
        ["verify", "theorem2", "--count", "-1"],
        ["forward", "in.txt", "--dim", "0"],
        ["forward", "in.txt", "--dim", "-4"],
        ["verify", "theorem1", "--dim", "0"],
        ["verify", "all", "--layers", "0"],
        ["rsit", "data.csv", "--layers", "-1"],
        ["fragcam", "data.csv", "--fragments", "f.json", "--d-thres", "0"],
        ["distances", "in.txt", "--d-thres", "0"],
    ])
    def test_non_positive_counts(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "not a positive integer" in capsys.readouterr().err

    def test_unread_option_count(self):
        assert (len(READ), len(UNREAD)) == (19, 47)

    @pytest.mark.parametrize("command, option", READ)
    def test_read_option_is_accepted(self, command, option):
        value = VALUES.get(option, "2")
        args = build_parser().parse_args(
            [command, *COMMANDS[command], option, value])
        assert str(getattr(args, option[2:].replace("-", "_"))) == value

    @pytest.mark.parametrize("command, option", UNREAD)
    def test_unread_option_is_usage_error(self, command, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, *COMMANDS[command], option,
                  VALUES.get(option, "2")])
        assert exc.value.code == 1
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_and_runner(self, command, capsys):
        for argv in ([command, "-h"], ["-h"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
        assert "{" + ",".join(COMMANDS) + "}" in capsys.readouterr().out
        args = build_parser().parse_args([command, *COMMANDS[command]])
        assert callable(args.run)

    def test_compare_keeps_strategy(self):
        args = build_parser().parse_args(
            ["rsit", "data.csv", "--compare", "--strategy", "keep"])
        assert args.compare and args.strategy == "keep"


class TestCorpusCommands:
    def test_parse_outputs_json_per_line(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CONO*", "*CC*"])
        assert main(["parse", path]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        doc = json.loads(out[0])
        assert [a["element"] for a in doc["atoms"]] == ["C", "O", "N", "O"]
        assert doc["head"] == 0 and doc["tail"] == 3

    def test_parse_error_reporting(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CC*", "*C(C*", "*CC*"])
        assert main(["parse", path]) == 2
        captured = capsys.readouterr()
        assert len(captured.out.strip().splitlines()) == 2
        assert "line 2" in captured.err and "ParseError" in captured.err

    def test_non_ascii_digit_is_a_line_error(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt",
                           ["*C\u00b2*", "*[CH\u00b2]*", "*CC*"])
        assert main(["canon", path]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [canonical_form("*CC*")]
        assert captured.err.splitlines()[0].startswith("line 1: LexError: ")
        assert captured.err.splitlines()[1].startswith("line 2: ParseError: ")

    def test_error_names_file_line(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CC*", "", "*C(C*", "*CO*"])
        assert main(["parse", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("line 3: ParseError: ")
        assert len(captured.out.splitlines()) == 2

    def test_stdin_streams_in_order(self, monkeypatch, capsys):
        lines = ["*CONO*", "*NOCO*", "*CC(C)O*", "*c1ccc(*)cc1"]
        monkeypatch.setattr(sys, "stdin", io.StringIO("\n".join(lines)))
        assert main(["canon", "-"]) == 0
        assert (capsys.readouterr().out.splitlines()
                == [canonical_form(s) for s in lines])

    def test_augment_seeds_skip_blank_lines(self, monkeypatch, capsys):
        lines = ["*CONO*", "*CC(C)O*", "*CCN*"]
        text = "\n" + "\n\n".join(lines) + "\n  \n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert main(["augment", "-", "--n-variants", "2", "--seed", "5"]) == 0
        want = [write(random_augment(parse(s), random.Random(f"5:{i}:{v}")))
                for i, s in enumerate(lines) for v in range(2)]
        assert capsys.readouterr().out.splitlines() == want

    def test_canon_identifies_translations(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt",
                           ["*CONO*", "*NOCO*", "*CONOCONO*", "*CONN*"])
        assert main(["canon", path]) == 0
        forms = capsys.readouterr().out.strip().splitlines()
        assert forms[0] == forms[1] == forms[2]
        assert forms[3] != forms[0]

    def test_augment_then_canon_past_old_size_cap(self, tmp_path, capsys):
        # 33 atoms: a doubled rewrite has 66, past the old 64-atom search cap
        line = "*" + "C" * 31 + "C(C)*"
        path = write_lines(tmp_path, "in.txt", [line])
        assert main(["augment", path, "--n-variants", "8", "--seed", "1"]) == 0
        rewrites = capsys.readouterr().out.splitlines()
        assert any(parse(r).n == 66 for r in rewrites)
        path = write_lines(tmp_path, "aug.txt", [line] + rewrites)
        assert main(["canon", path]) == 0
        keys = capsys.readouterr().out.splitlines()
        assert len(keys) == 9 and len(set(keys)) == 1

    def test_link_and_backbone(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CC(C)O*"])
        assert main(["link", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["link_edge"] == [0, 3]
        assert main(["backbone", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backbone"] == [True, True, False, True]

    def test_distances_respects_threshold(self, tmp_path, capsys):
        # each row at d_thres 2 is the row at 3 less its distance-2 entries
        path = write_lines(tmp_path, "in.txt", ["*CONO*"])
        docs = {}
        for d_thres in (2, 3):
            assert main(["distances", path, "--d-thres", str(d_thres)]) == 0
            docs[d_thres] = json.loads(capsys.readouterr().out)
            assert docs[d_thres]["d_thres"] == d_thres
        assert docs[2]["context"][0] == [[0, 0, 0], [1, 0, 1], [3, -1, 1]]
        assert docs[2]["context"] == [[e for e in row if e[2] < 2]
                                      for row in docs[3]["context"]]
        assert docs[2]["context"] != docs[3]["context"]

    def test_distances_holds_both_images_of_an_atom(self, tmp_path, capsys):
        # in the chain of *CNO*, C reaches the previous copy's O over the
        # link and its own copy's O through N
        path = write_lines(tmp_path, "in.txt", ["*CNO*"])
        assert main(["distances", path, "--d-thres", "3"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 3
        assert doc["context"][0] == [[0, 0, 0], [1, -1, 2], [1, 0, 1],
                                     [2, -1, 1], [2, 0, 2]]

    def test_augment_long_chain(self, tmp_path, capsys):
        # the first line is deeper than the default recursion limit
        long = "*" + "C" * 1200 + "*"
        path = write_lines(tmp_path, "in.txt", [long, "*CCO*"])
        assert main(["augment", path, "--seed", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = captured.out.splitlines()
        assert len(out) == 2
        assert out[0] in (long, "*" + "C" * 2400 + "*")
        assert canonical_form(out[1]) == canonical_form("*CCO*")

    def test_augment_deterministic(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CONO*", "*CC(C)O*"])
        args = ["augment", path, "--n-variants", "3", "--seed", "9"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert len(first.strip().splitlines()) == 6

    def test_stats(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt",
                           ["*CC*", "*c1ccc(*)cc1", "*CC(c1ccccc1)c1ccccc1*"])
        assert main(["stats", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["polymers"] == 3
        assert doc["mean_rings"] == pytest.approx(1.0)
        assert doc["skipped"] == 0

    def test_stats_skips_bad_lines(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CC*", "not-a-polymer"])
        assert main(["stats", path]) == 2
        doc = json.loads(capsys.readouterr().out)
        assert doc["skipped"] == 1

    def test_missing_file(self, capsys):
        assert main(["parse", "/nonexistent/path.txt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_closed_stdout_is_not_an_input_error(self, tmp_path,
                                                 monkeypatch, capsys):
        # the reader stopped early (| head): 128 + SIGPIPE, stderr silent
        class ClosedPipe(io.StringIO):
            def write(self, s):
                raise BrokenPipeError(32, "Broken pipe")

        path = write_lines(tmp_path, "in.txt", ["*CC*", "*CO*"])
        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        assert main(["canon", path]) == 141
        assert capsys.readouterr().err == ""

    def test_pipe_closed_after_one_line(self):
        # the console script's entry point on a real pipe, whose reader
        # leaves after the first key: stdout moves to devnull, so the
        # interpreter's last flush is silent too
        src = os.path.dirname(os.path.dirname(
            sys.modules["polyseq"].__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        entry = "import sys; from polyseq.cli import main; sys.exit(main())"
        proc = subprocess.Popen(
            [sys.executable, "-c", entry, "canon", "-"], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        try:
            proc.stdin.write("*CC*\n")
            proc.stdin.flush()
            assert proc.stdout.readline() == canonical_form("*CC*") + "\n"
            proc.stdout.close()
            proc.stdin.write("*CO*\n*CCO*\n")
            proc.stdin.close()
            assert proc.wait(timeout=60) == 141
            assert proc.stderr.read() == ""
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_deep_unit_fails_alone(self, tmp_path, capsys):
        # 1,100 levels of individualization, one stack frame each: past
        # the recursion limit, the line fails as a search past the leaf
        # budget does, and the next line still gets its key
        deep = "*" + "C(C)(C)" * 1100 + "O*"
        path = write_lines(tmp_path, "in.txt", [deep, "*CC*"])
        assert main(["canon", path]) == 2
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [canonical_form("*CC*")]
        assert captured.err.splitlines() == [
            "line 1: BudgetExceeded: canonical labelling search exceeds "
            "the recursion limit"]


class TestVerify:
    def test_theorem1_small(self, capsys):
        rc = main(["verify", "theorem1", "--count", "5",
                   "--dim", "16", "--layers", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines and all(l.startswith("PASS") for l in lines)

    def test_theorem1_impossible_tolerance_fails(self, monkeypatch, capsys):
        # the least positive float is below the last-bit rounding that the
        # third layer picks up, so that layer's case fails
        monkeypatch.setattr(verify_mod, "TOLERANCE", 5e-324)
        rc = main(["verify", "theorem1", "--count", "5", "--dim", "16",
                   "--layers", "3"])
        assert rc == 3
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["all", "theorem3"])
    def test_weights_generated_once(self, monkeypatch, capsys, suite):
        # the twin suite reruns the theorem suites' weights at d_thres=2
        want = twin_suite(default_twin_pairs(),
                          ReferenceModel.generate(0, d=16, L=1, d_thres=2),
                          tol=1e-9).lines()
        calls = []
        generate = ReferenceModel.generate.__func__

        def counted(cls, *args, **kwargs):
            calls.append(args)
            return generate(cls, *args, **kwargs)

        monkeypatch.setattr(ReferenceModel, "generate", classmethod(counted))
        assert main(["verify", suite, "--count", "2", "--dim", "16",
                     "--layers", "1"]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.splitlines()[-len(want):] == want

    def test_lemma1(self, capsys):
        rc = main(["verify", "lemma1"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_lemma1_suite_api(self, capsys):
        pairs = default_twin_pairs()
        rep = lemma1_suite(pairs)
        assert rep.passed
        assert [c.label for c in rep.cases] == [f"pair{i}"
                                                for i in range(len(pairs))]
        assert main(["verify", "lemma1"]) == 0
        assert capsys.readouterr().out.splitlines() == rep.lines()

    def test_lemma1_suite_fails_on_distinguishable_pair(self):
        pair = TwinPair(parse("*CC*"), parse("*CO*"), 0)
        assert not lemma1_suite([pair]).passed


class TestRsit:
    ROWS = [("*CONO*", 1.0), ("*CC(C)O*", 1.5), ("*CCO*", 1.2),
            ("*CCN*", 1.3)]

    def test_single_strategy(self, tmp_path, capsys):
        data = write_dataset(tmp_path, self.ROWS)
        out_path = str(tmp_path / "report.json")
        rc = main(["rsit", data, "--dim", "16", "--layers", "1",
                   "--d-thres", "2", "--output", out_path])
        assert rc == 0
        assert "link" in capsys.readouterr().out
        doc = json.loads(open(out_path).read())
        assert doc["metric"] == "r2"
        assert abs(doc["link"]["gap"]) < 1e-9
        assert len(doc["link"]["samples"]) == 4
        assert [s["rewrites"] for s in doc["link"]["samples"]] == [
            len(augment_rewrites(parse(s))) for s, _ in self.ROWS]

    def test_output_has_one_shape(self, tmp_path, capsys):
        # single-strategy and --compare runs write one report shape, and
        # each strategy's --compare report and table row equal its own run
        data = write_dataset(tmp_path, self.ROWS)
        opts = ["--dim", "16", "--layers", "1", "--d-thres", "2"]
        both = tmp_path / "compare.json"
        assert main(["rsit", data, "--compare", "--output", str(both)]
                    + opts) == 0
        table_both = capsys.readouterr().out.splitlines()
        four = json.loads(both.read_text())
        assert four.pop("metric") == "r2"
        assert list(four) == ["keep", "remove", "substitute", "link"]
        for row, strategy in enumerate(four, 2):
            single = tmp_path / f"{strategy}.json"
            assert main(["rsit", data, "--strategy", strategy, "--output",
                         str(single)] + opts) == 0
            table_single = capsys.readouterr().out.splitlines()
            assert table_single[2] == table_both[row]
            one = json.loads(single.read_text())
            assert one.pop("metric") == "r2" and list(one) == [strategy]
            assert set(one[strategy]) == {"clean", "adversarial", "gap",
                                          "samples"}
            assert one[strategy] == four[strategy]
            assert len(one[strategy]["samples"]) == len(self.ROWS)
            assert [s["index"] for s in one[strategy]["samples"]] == [
                0, 1, 2, 3]

    def test_compare_rewrites_each_row_once(self, tmp_path, capsys,
                                            monkeypatch):
        calls = []

        def counted(g):
            calls.append(g)
            return augment_rewrites(g)

        monkeypatch.setattr("polyseq.rsit.augment_rewrites", counted)
        data = write_dataset(tmp_path, self.ROWS)
        assert main(["rsit", data, "--compare", "--dim", "8", "--layers",
                     "1"]) == 0
        assert len(calls) == len(self.ROWS)

    def test_trials_is_gone(self, tmp_path, capsys):
        data = write_dataset(tmp_path, self.ROWS)
        with pytest.raises(SystemExit) as exc:
            main(["rsit", data, "--trials", "5"])
        assert exc.value.code == 1
        assert "unrecognized arguments: --trials" in capsys.readouterr().err

    def test_compare(self, tmp_path, capsys):
        data = write_dataset(tmp_path, self.ROWS)
        rc = main(["rsit", data, "--dim", "16", "--layers", "1",
                   "--d-thres", "2", "--compare"])
        assert rc == 0
        out = capsys.readouterr().out
        for s in ("keep", "remove", "substitute", "link"):
            assert s in out

    def test_blank_rows_skipped(self, tmp_path, capsys):
        opts = ["--dim", "16", "--layers", "1", "--d-thres", "2"]
        rows = [f"{s},{v}" for s, v in self.ROWS]
        plain = tmp_path / "plain.csv"
        plain.write_text("psmiles,value\n" + "\n".join(rows) + "\n")
        assert main(["rsit", str(plain)] + opts) == 0
        want = capsys.readouterr()
        blank = tmp_path / "blank.csv"
        blank.write_text("psmiles,value\n" + "\n".join(rows[:2]) + "\n\n"
                         + "\n".join(rows[2:]) + "\n\n")
        assert main(["rsit", str(blank)] + opts) == 0
        assert capsys.readouterr() == want

    def test_bad_header(self, tmp_path, capsys):
        data = write_dataset(tmp_path, self.ROWS, header="smiles,y")
        assert main(["rsit", data]) == 2
        assert "psmiles,value" in capsys.readouterr().err

    @pytest.mark.parametrize("text, where, message", [
        ("*CONO*,abc\n", "line 2", "could not convert string to float: 'abc'"),
        ("*CONO*,1.0\n*CCO*\n", "line 3", "short row ['*CCO*']"),
        ("*CC*,1.0,7\n", "line 2", "long row ['*CC*', '1.0', '7']"),
        ("*CONO*,nan\n", "line 2", "non-finite value 'nan'"),
        ("*CONO*,1.0\n*CCO*, -inf\n", "line 3", "non-finite value '-inf'"),
    ])
    def test_bad_row_names_file_and_line(self, tmp_path, capsys, text, where,
                                         message):
        data = tmp_path / "data.csv"
        data.write_text("psmiles,value\n" + text)
        assert main(["rsit", str(data)]) == 2
        assert capsys.readouterr().err == f"error: {data} {where}: {message}\n"

    def check_failed_row(self, tmp_path, capsys, compare):
        # the bad row is named once, and the table is that of the good rows
        opts = ["--dim", "16", "--layers", "1", "--d-thres", "2"] + compare
        assert main(["rsit", write_dataset(tmp_path, self.ROWS)] + opts) == 0
        want = capsys.readouterr().out
        assert len(want.splitlines()) == (6 if compare else 3)
        data = write_dataset(tmp_path, self.ROWS + [("*C(C*", 2.0)])
        assert main(["rsit", data] + opts) == 2
        captured = capsys.readouterr()
        assert captured.out == want
        [line] = captured.err.splitlines()
        assert line.startswith("line 6: ParseError: ")

    def test_failed_row_single_strategy(self, tmp_path, capsys):
        self.check_failed_row(tmp_path, capsys, [])

    def test_failed_row_compare(self, tmp_path, capsys):
        self.check_failed_row(tmp_path, capsys, ["--compare"])

    def test_lex_error_row_is_left_out(self, tmp_path, capsys):
        opts = ["--compare", "--dim", "8", "--layers", "1"]
        assert main(["rsit", write_dataset(tmp_path, self.ROWS)] + opts) == 0
        want = capsys.readouterr().out
        rows = self.ROWS[:1] + [("*CX*", 1.0)] + self.ROWS[1:]
        assert main(["rsit", write_dataset(tmp_path, rows)] + opts) == 2
        captured = capsys.readouterr()
        assert captured.out == want
        assert captured.err == ("line 3: LexError: illegal character 'X' "
                                "at col 2\n")

    @pytest.mark.parametrize("rows", [[], [("*C(C*", 1.0), ("*CX*", 2.0)]])
    def test_no_sample_to_score(self, tmp_path, capsys, rows):
        data = write_dataset(tmp_path, rows)
        assert main(["rsit", data, "--compare", "--dim", "8", "--layers",
                     "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == len(rows) + 1
        assert err[-1] == f"error: {data}: no sample to score"

    def test_duplicate_column(self, tmp_path, capsys):
        data = write_dataset(tmp_path, [("*CC*", "1.0,2.0")],
                             header="psmiles,value,value")
        assert main(["rsit", data]) == 2
        assert capsys.readouterr().err == (f"error: {data}: duplicate column "
                                           "'value'\n")


class TestFragcam:
    @pytest.mark.parametrize("rows", [[], [("*C(C*", 1.0), ("*CX*", 2.0)]])
    def test_no_sample_to_score(self, tmp_path, capsys, rows):
        data = write_dataset(tmp_path, rows)
        frag_path = tmp_path / "frags.json"
        frag_path.write_text(json.dumps({"*C(C*": {"a": [0, 1]}}))
        assert main(["fragcam", data, "--fragments", str(frag_path),
                     "--dim", "8", "--layers", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == len(rows) + 1
        assert err[-1] == f"error: {data}: no sample to score"

    def test_scores_and_ranking(self, tmp_path, capsys):
        rows = [("*CC(C)O*", 1.0)]
        data = write_dataset(tmp_path, rows)
        frag_path = tmp_path / "frags.json"
        frag_path.write_text(json.dumps(
            {"*CC(C)O*": {"alkyl": [0, 1, 2], "ether": [3]}}))
        rc = main(["fragcam", data, "--fragments", str(frag_path),
                   "--dim", "16", "--layers", "1", "--d-thres", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alkyl" in out and "ether" in out

    def test_ranking_tail(self, tmp_path, capsys):
        # more than three labels: the table is followed by the first three
        # and the last three of its labels, in table order
        data = write_dataset(tmp_path, [("*CC(C)O*", 1.0), ("*CCOC*", 2.0)])
        frag_path = tmp_path / "frags.json"
        frag_path.write_text(json.dumps(
            {"*CC(C)O*": {"a": [0], "b": [1], "c": [2], "d": [3]},
             "*CCOC*": {"a": [0], "b": [1], "e": [2, 3]}}))
        assert main(["fragcam", data, "--fragments", str(frag_path),
                     "--dim", "16", "--layers", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        labels = [line.split()[0] for line in out[1:-2]]
        assert sorted(labels) == ["a", "b", "c", "d", "e"]
        assert out[-2] == "top-3: " + ", ".join(labels[:3])
        assert out[-1] == "bottom-3: " + ", ".join(labels[-3:])
        assert out[-2:] == ["top-3: a, b, d", "bottom-3: d, c, e"]

    def test_missing_fragmentation(self, tmp_path, capsys):
        data = write_dataset(tmp_path, [("*CC*", 1.0)])
        frag_path = tmp_path / "frags.json"
        frag_path.write_text("{}")
        rc = main(["fragcam", data, "--fragments", str(frag_path),
                   "--dim", "16", "--layers", "1"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "line 2: PolyseqError: no fragmentation for *CC*\n"
            f"error: {data}: no sample to score\n")

    def test_bad_rows_are_reported_by_csv_line(self, tmp_path, capsys):
        # a row that fails is reported as the line commands report a line,
        # by its line in the CSV file, and the other rows are still ranked
        frags = {"*CC(C)O*": {"alkyl": [0, 1, 2], "ether": [3]},
                 "*CCO*": {"alkyl": [0, 1], "ether": [2]},
                 "*CCN*": {"alkyl": [0, 1], "amine": [2]},
                 "*C(C*": {"alkyl": [0, 1]}, "*CNO*": {"amine": [1]}}
        frag_path = tmp_path / "frags.json"
        frag_path.write_text(json.dumps(frags))
        opts = ["--fragments", str(frag_path), "--dim", "16", "--layers", "1",
                "--d-thres", "2"]
        good = [("*CC(C)O*", 1.0), ("*CCO*", 1.2), ("*CCN*", 1.3)]
        assert main(["fragcam", write_dataset(tmp_path, good)] + opts) == 0
        want = capsys.readouterr().out
        rows = good[:1] + [("*C(C*", 2.0)] + good[1:] + [("*CNO*", 0.5)]
        data = tmp_path / "data.csv"
        data.write_text("psmiles,value\n\n" + "".join(f"{s},{v}\n"
                                                       for s, v in rows))
        assert main(["fragcam", str(data)] + opts) == 2
        captured = capsys.readouterr()
        assert captured.out == want
        assert captured.err.splitlines() == [
            "line 4: ParseError: unclosed branch",
            "line 7: ValueError: fragmentation does not cover atoms [0, 2]"]

    @pytest.mark.parametrize("option, text, message", [
        ("--fragments", '["*CC*"]', "expected a JSON object of objects"),
        ("--fragments", '{"*CC*": {"a": "x"}}', "expected a JSON object"),
        ("--fragments", '{"*CC*": {"a": [0, 1.5]}}', "expected a JSON object"),
        ("--fragments", '{"*CC*": {"a": [true]}}', "expected a JSON object"),
        ("--fragments", "not json", "Expecting value"),
        ("--groups", "{'geom': ['x1']}", "Expecting property name"),
        ("--groups", '{"geom": [1]}', "expected a JSON object of column"),
        ("--groups", "{}", "expected a JSON object of column"),
        ("--groups", '{"g": []}', "expected a JSON object of column"),
    ])
    def test_malformed_json_file(self, tmp_path, capsys, option, text,
                                 message):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        data = write_dataset(tmp_path, [("*CC*", 1.0)])
        desc = tmp_path / "desc.csv"
        desc.write_text("psmiles,x1\n*CC*,0.5\n")
        argv = (["fragcam", data, "--fragments", str(doc)]
                if option == "--fragments" else
                ["forward", write_lines(tmp_path, "in.txt", ["*CC*"]),
                 "--descriptors", str(desc), "--groups", str(doc)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {doc}: {message}")
        assert len(err.splitlines()) == 1


class TestForward:
    def test_plain(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CONO*", "*CC(C)O*"])
        rc = main(["forward", path, "--dim", "16", "--layers", "1",
                   "--d-thres", "2"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert all("yhat" in json.loads(l) for l in lines)

    def test_no_backbone_changes_result(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CC(C)O*"])
        base = ["forward", path, "--dim", "16", "--layers", "1",
                "--d-thres", "2"]
        assert main(base) == 0
        a = json.loads(capsys.readouterr().out)["yhat"]
        assert main(base + ["--no-backbone"]) == 0
        b = json.loads(capsys.readouterr().out)["yhat"]
        assert abs(a - b) > 1e-9

    def test_descriptors(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CC*"])
        desc = tmp_path / "desc.csv"
        desc.write_text("psmiles,x1,x2\n*CC*,0.5,1.0\n")
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"geom": ["x1", "x2"]}))
        rc = main(["forward", path, "--dim", "16", "--layers", "1",
                   "--d-thres", "2", "--descriptors", str(desc),
                   "--groups", str(groups)])
        assert rc == 0
        assert "yhat" in capsys.readouterr().out

    def test_descriptor_miss_fails_the_line(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CC(C)O*", "*CNO*"])
        desc = tmp_path / "desc.csv"
        desc.write_text("psmiles,x1\n*CC(C)O*,0.5\n")
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"geom": ["x1"]}))
        assert main(["forward", path, "--dim", "16", "--layers", "1",
                     "--descriptors", str(desc),
                     "--groups", str(groups)]) == 2
        captured = capsys.readouterr()
        [line] = captured.out.splitlines()
        assert json.loads(line)["psmiles"] == "*CC(C)O*"
        assert captured.err == (
            "line 2: PolyseqError: no descriptor row for *CNO*\n")

    @pytest.mark.xfail(strict=True, reason=(
        "descriptor rows are keyed by their literal string; ROADMAP's "
        "'descriptor rows keyed by polymer, not by string' item gives a "
        "line the row of its polymer"))
    def test_descriptor_row_serves_rewrites(self, tmp_path, capsys):
        lines = ["*CCO*", "*OCC*", "*CCOCCO*"]
        path = write_lines(tmp_path, "in.txt", lines)
        desc = tmp_path / "desc.csv"
        desc.write_text("psmiles,x1\n*CCO*,0.5\n")
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"geom": ["x1"]}))
        rc = main(["forward", path, "--dim", "16", "--layers", "1",
                   "--descriptors", str(desc), "--groups", str(groups)])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert [json.loads(line)["psmiles"] for line in out] == lines

    def test_descriptors_require_groups(self, tmp_path, capsys):
        path = write_lines(tmp_path, "in.txt", ["*CC*"])
        desc = tmp_path / "desc.csv"
        desc.write_text("psmiles,x1\n*CC*,0.5\n")
        assert main(["forward", path, "--descriptors", str(desc)]) == 2
        assert "requires --groups" in capsys.readouterr().err

    def test_groups_require_descriptors(self, tmp_path, capsys):
        # the groups file is never opened: the missing option is the error
        path = write_lines(tmp_path, "in.txt", ["*CC*"])
        missing = str(tmp_path / "absent.json")
        assert main(["forward", path, "--groups", missing]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --groups requires --descriptors\n"

    def test_bad_line_in_the_middle(self, tmp_path, capsys):
        lines = ["*CONO*", "*CC(C)O*", "*C(C*", "*CCN*", "*c1ccc(*)cc1"]
        path = write_lines(tmp_path, "in.txt", lines)
        rc = main(["forward", path, "--dim", "16", "--layers", "1",
                   "--d-thres", "2"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("line 3: ParseError: ")
        model = ReferenceModel.generate(0, d=16, L=1, d_thres=2)
        want = [json.dumps({"psmiles": s,
                            "yhat": forward_polymer(model, parse(s)).yhat})
                for s in lines if s != "*C(C*"]
        assert captured.out.splitlines() == want

    @pytest.mark.parametrize("csv_text, groups_doc, fragment", [
        ("psmiles,x1\n*CC*,0.5\n", {"geom": ["x1", "x2"]},
         "no column 'x2'"),
        ("psmiles,x1,x2\n*CC*,0.5\n", {"geom": ["x1", "x2"]}, "line 2"),
        ("psmiles,x1\n*CC*,0.5\n", {"geom": 5}, "column lists"),
        ("psmiles,x1\n*CC*,0.5\n", ["x1"], "column lists"),
        ("psmiles,x1\n*CC*,nan\n", {"geom": ["x1"]},
         "desc.csv line 2: non-finite value 'nan'"),
        ("psmiles,x1\n\n*CC*, inf\n", {"geom": ["x1"]},
         "desc.csv line 3: non-finite value 'inf'"),
        ("psmiles,x1,x2\n*CC*,0.5,abc\n", {"geom": ["x1"]},
         "desc.csv line 2: could not convert string to float: 'abc'"),
        ("smiles,x1\n*CC*,0.5\n", {"geom": ["x1"]},
         "desc.csv: expected a CSV header starting 'psmiles'"),
        ("psmiles,x1\n*CC*,0.5\n*CC*,0.7\n", {"geom": ["x1"]},
         "desc.csv line 3: duplicate row for '*CC*'"),
        ("psmiles,d0,d0\n*CC*,1,2\n", {"g": ["d0"]},
         "desc.csv: duplicate column 'd0'"),
        ("psmiles,d0\n*CC*,1.0,9\n", {"g": ["d0"]},
         "desc.csv line 2: long row ['*CC*', '1.0', '9']"),
    ])
    def test_descriptor_input_mismatch(self, tmp_path, capsys, csv_text,
                                       groups_doc, fragment):
        path = write_lines(tmp_path, "in.txt", ["*CC*"])
        desc = tmp_path / "desc.csv"
        desc.write_text(csv_text)
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps(groups_doc))
        rc = main(["forward", path, "--descriptors", str(desc),
                   "--groups", str(groups)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark, as spreadsheet CSV
    exports often do, reads as the same file without it."""

    OPTS = ["--dim", "16", "--layers", "1", "--d-thres", "2"]

    @staticmethod
    def run_twice(tmp_path, capsys, name, text, argv):
        """The captured output and exit code of argv, with its {} filled by
        file name holding text, once plain and once after a BOM."""
        results = []
        for prefix in ("", "\ufeff"):
            path = tmp_path / f"{len(prefix)}{name}"
            path.write_text(prefix + text, encoding="utf-8")
            rc = main([str(path) if a == "{}" else a for a in argv])
            results.append((rc, capsys.readouterr()))
        return results

    def test_dataset(self, tmp_path, capsys):
        text = "psmiles,value\n*CONO*,1.0\n*CC(C)O*,1.5\n*CCO*,1.2\n"
        plain, bom = self.run_twice(tmp_path, capsys, "data.csv", text,
                                    ["rsit", "{}", "--compare", *self.OPTS])
        assert plain[0] == 0 and bom == plain

    def test_descriptor_csv(self, tmp_path, capsys):
        lines = write_lines(tmp_path, "in.txt", ["*CC*", "*CCO*"])
        groups = tmp_path / "groups.json"
        groups.write_text(json.dumps({"geom": ["x1"]}))
        plain, bom = self.run_twice(
            tmp_path, capsys, "desc.csv", "psmiles,x1\n*CC*,0.5\n*CCO*,1\n",
            ["forward", lines, "--descriptors", "{}", "--groups",
             str(groups), *self.OPTS])
        assert plain[0] == 0 and bom == plain

    def test_json_file(self, tmp_path, capsys):
        data = write_dataset(tmp_path, [("*CCO*", 1.0)])
        plain, bom = self.run_twice(
            tmp_path, capsys, "f.json", '{"*CCO*": {"a": [0, 1], "b": [2]}}',
            ["fragcam", data, "--fragments", "{}", *self.OPTS])
        assert plain[0] == 0 and bom == plain

    def test_corpus_file(self, tmp_path, capsys):
        plain, bom = self.run_twice(tmp_path, capsys, "in.txt",
                                    "*CONO*\n*CC(C)O*\n", ["canon", "{}"])
        assert plain[0] == 0 and bom == plain
        assert len(plain[1].out.splitlines()) == 2


class TestBadFile:
    """A file the readers cannot take ends the command with one line,
    error: <file>: <message>, and exit code 2, never a traceback."""

    OPTS = ["--dim", "16", "--layers", "1"]

    def check(self, capsys, argv, path, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: {message}")
        assert len(captured.err.splitlines()) == 1
        return captured.out

    @pytest.mark.parametrize("option", ["dataset", "--descriptors"])
    def test_csv_field_past_the_limit(self, tmp_path, capsys, option):
        big = tmp_path / "big.csv"
        big.write_text('psmiles,value\n"' + "C" * 200_000 + '",1\n')
        groups = tmp_path / "groups.json"
        groups.write_text('{"g": ["value"]}')
        argv = (["rsit", str(big)] if option == "dataset" else
                ["forward", write_lines(tmp_path, "in.txt", ["*CC*"]),
                 "--descriptors", str(big), "--groups", str(groups)])
        self.check(capsys, argv + self.OPTS, big,
                   "field larger than field limit")

    @pytest.mark.parametrize("option", ["--groups", "--fragments"])
    def test_json_nested_past_the_recursion_limit(self, tmp_path, capsys,
                                                   option):
        doc = tmp_path / "deep.json"
        doc.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}")
        desc = tmp_path / "desc.csv"
        desc.write_text("psmiles,x1\n*CC*,0.5\n")
        argv = (["fragcam", write_dataset(tmp_path, [("*CC*", 1.0)]),
                 "--fragments", str(doc)] if option == "--fragments" else
                ["forward", write_lines(tmp_path, "in.txt", ["*CC*"]),
                 "--descriptors", str(desc), "--groups", str(doc)])
        self.check(capsys, argv + self.OPTS, doc,
                   "maximum recursion depth exceeded")

    def test_non_utf8_byte_names_the_file(self, tmp_path, capsys):
        # padded lines fill several read chunks before the bad byte: those
        # chunks still print
        corpus = tmp_path / "in.txt"
        corpus.write_bytes(b"".join([b"*CC*" + b" " * 200 + b"\n"] * 200
                                    + [b"\xff\n"]))
        out = self.check(capsys, ["canon", str(corpus)], corpus,
                         "'utf-8' codec can't decode byte 0xff")
        assert 0 < len(out.splitlines()) < 200
        assert set(out.splitlines()) == {canonical_form("*CC*")}
        data = tmp_path / "data.csv"
        data.write_bytes(b"psmiles,value\n*CC*,1\n\xff,2\n")
        self.check(capsys, ["rsit", str(data), *self.OPTS], data,
                   "'utf-8' codec can't decode byte 0xff")
