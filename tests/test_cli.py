"""The command-line surface: outputs, exit codes, and file round trips."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seppaths
from seppaths import cli, random_graphs
from seppaths.cli import build_parser, main
from seppaths.edge_systems import edge_system
from seppaths.oracle import enumerate_trees
from seppaths.trees import random_tree, serialize_tree
from seppaths.verify import TargetSet, serialize_paths, signatures
from seppaths.vertex_systems import vertex_system

from conftest import BROOM_TEXT, DOUBLE_STAR_TEXT, K13_TEXT, P4_TEXT, DEPTH2_TEXT, leafy_tree


@pytest.fixture
def depth2_file(tmp_path):
    f = tmp_path / "depth2.tree"
    f.write_text(DEPTH2_TEXT)
    return str(f)


@pytest.fixture
def p4_file(tmp_path):
    f = tmp_path / "p4.tree"
    f.write_text(P4_TEXT)
    return str(f)


@pytest.fixture
def k13_file(tmp_path):
    f = tmp_path / "k13.tree"
    f.write_text(K13_TEXT)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, cwd=None):
    """``python <argv>`` in a fresh interpreter that imports this checkout."""
    src = str(Path(seppaths.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, cwd=cwd
    )


class TestConstructEdge:
    def test_depth2_binary_json(self, capsys, depth2_file):
        code, out, _ = run(capsys, "--format", "json", "construct-edge", depth2_file)
        assert code == 0
        assert json.loads(out) == {
            "size": 4,
            "paths": [[1, 2, 4], [1, 2, 5], [1, 3, 6], [1, 3, 7]],
        }

    def test_text_output_is_a_readable_system_file(self, capsys, depth2_file, tmp_path):
        code, out, _ = run(capsys, "construct-edge", depth2_file)
        assert code == 0
        sysfile = tmp_path / "depth2.paths"
        sysfile.write_text(out)
        code, out2, err = run(capsys, "verify", depth2_file, str(sysfile), "--target", "edges")
        assert code == 0 and "separates true" in out2


class TestVerify:
    def test_not_separated_exit_1(self, capsys, p4_file, tmp_path):
        paths = tmp_path / "one.paths"
        paths.write_text("0 1 2 3\n")
        code, out, err = run(capsys, "verify", p4_file, str(paths), "--target", "vertices")
        assert code == 1
        assert err.strip() == "NotSeparated(0,1)"

    def test_lint_warning_on_duplicates(self, capsys, p4_file, tmp_path):
        paths = tmp_path / "dup.paths"
        paths.write_text("0 1\n1 0\n1 2\n2 3\n")
        code, _, err = run(capsys, "verify", p4_file, str(paths), "--target", "edges")
        assert code == 0
        assert "duplicates" in err


class TestOracle:
    def test_k13_interior(self, capsys, k13_file):
        code, out, _ = run(
            capsys, "--format", "json", "oracle", k13_file, "--target", "v-and-interior"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 3
        assert set(payload) == {"size", "paths", "nodesExpanded", "elapsed"}

    def test_no_cover_flag(self, capsys, p4_file):
        code, out, _ = run(
            capsys, "--format", "json", "oracle", p4_file, "--target", "edges", "--no-cover"
        )
        assert code == 0
        assert json.loads(out)["size"] == 2

    @pytest.mark.parametrize("budget", ["nan", "-5"])
    def test_bad_budget_exit_2(self, capsys, p4_file, budget):
        # NaN would compare false against every deadline and switch it off
        code, out, err = run(
            capsys, "oracle", p4_file, "--target", "edges", "--budget-ms", budget
        )
        assert code == 2 and out == ""
        assert err.startswith("usage error: --budget-ms")

    def test_timeout_names_the_certified_lower_bound(self, capsys, tmp_path):
        f = tmp_path / "p10.tree"
        f.write_text("".join(f"{i} {i + 1}\n" for i in range(9)))
        code, out, err = run(
            capsys, "oracle", str(f), "--target", "v-and-interior", "--budget-ms", "0"
        )
        assert code == 1 and out == ""
        assert err.startswith("Timeout: budget 0.0 ms exhausted; no family of size < ")


class TestProfileAndFormats:
    def test_text_and_json_agree(self, capsys, depth2_file):
        code, out_text, _ = run(capsys, "profile", depth2_file)
        code2, out_json, _ = run(capsys, "--format", "json", "profile", depth2_file)
        assert code == code2 == 0
        payload = json.loads(out_json)
        textmap = dict(
            line.split(" ", 1) for line in out_text.splitlines() if " " in line
        )
        for key in ("h1", "h2", "h2star", "n"):
            assert int(textmap[key]) == payload[key]
        assert payload["h1"] == 4 and payload["h2star"] == 0

    def test_tree_file_roundtrip_bit_exact(self, capsys, tmp_path):
        messy = tmp_path / "messy.tree"
        messy.write_text("# comment\n3 0\n0 1\n\n0 2\n")
        code, dot1, _ = run(capsys, "export-dot", str(messy))
        from seppaths import parse_tree, serialize_tree

        canonical = serialize_tree(parse_tree(messy.read_text()))
        clean = tmp_path / "clean.tree"
        clean.write_text(canonical)
        assert serialize_tree(parse_tree(clean.read_text())) == canonical
        code, dot2, _ = run(capsys, "export-dot", str(clean))
        assert dot1 == dot2


class TestLocalize:
    def test_identified(self, capsys, tmp_path, p4_file):
        paths = tmp_path / "sys.paths"
        paths.write_text("0 1 2\n3 2 1\n")
        code, out, _ = run(
            capsys, "--format", "json", "localize", p4_file, str(paths),
            "--target", "edges", "--report", "FP",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnosis"] == "Identified"
        assert payload["element"] == [0, 1]
        assert payload["failedSet"] == [0]

    def test_no_fault(self, capsys, tmp_path, p4_file):
        paths = tmp_path / "sys.paths"
        paths.write_text("0 1 2\n3 2 1\n")
        code, out, _ = run(
            capsys, "localize", p4_file, str(paths), "--target", "edges", "--report", "PP"
        )
        assert code == 0 and "diagnosis NoFault" in out

    def test_inconsistent(self, capsys, tmp_path):
        tree = tmp_path / "p3.tree"
        tree.write_text("0 1\n1 2\n")
        paths = tmp_path / "sys.paths"
        paths.write_text("0 1\n1 2\n")
        code, out, _ = run(
            capsys, "--format", "json", "localize", str(tree), str(paths),
            "--target", "edges", "--report", "FF",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["diagnosis"] == "Inconsistent"
        assert payload["failedSet"] == [0, 1]

    def test_bad_report_exit_2(self, capsys, tmp_path, p4_file):
        paths = tmp_path / "sys.paths"
        paths.write_text("0 1 2\n3 2 1\n")
        code, _, err = run(
            capsys, "localize", p4_file, str(paths), "--target", "edges", "--report", "PX"
        )
        assert code == 2


    @pytest.mark.parametrize("report", ["\ufb00P", "P\ufb00", " \ufb00 "])
    def test_report_is_checked_before_case_mapping(self, capsys, tmp_path, report):
        # 'ﬀ' (U+FB00) upper-cases to 'FF', which would fill a 3-path report
        tree = tmp_path / "p4.tree"
        tree.write_text("0 1\n1 2\n2 3\n")
        paths = tmp_path / "sys.paths"
        paths.write_text("0 1\n1 2\n2 3\n")
        code, out, err = run(
            capsys, "localize", str(tree), str(paths), "--target", "edges", "--report", report
        )
        assert code == 2 and out == ""
        assert err == "usage error: --report must contain only 'P' and 'F'\n"
        code, out, _ = run(
            capsys, "localize", str(tree), str(paths), "--target", "edges", "--report", "fFp"
        )
        assert code == 0 and out.startswith("diagnosis Inconsistent\n")

    @pytest.mark.parametrize("report", ["PX", "P"])
    def test_non_separating_system_fails_before_the_report_is_read(
        self, capsys, tmp_path, p4_file, report
    ):
        paths = tmp_path / "one.paths"
        paths.write_text("0 1 2 3\n")
        code, out, err = run(
            capsys, "localize", p4_file, str(paths), "--target", "vertices", "--report", report
        )
        assert code == 1 and out == ""
        assert err == "NotSeparating: NotSeparated(0,1)\n"


class TestRandomExp:
    def test_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "random-exp", "--n", "8", "--p", "1.0",
            "--trials", "2", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "n", "p", "trials", "masterSeed", "perTrial", "successRate", "meanIsolated",
        }
        assert payload["successRate"] == 1.0
        assert {"seed", "success", "systemSize", "isolated"} == set(payload["perTrial"][0])

    def test_auto_supercritical(self, capsys):
        code, out, _ = run(
            capsys, "--format", "json", "random-exp", "--n", "32",
            "--auto-supercritical", "--trials", "2",
        )
        assert code == 0
        assert 0 < json.loads(out)["p"] <= 1

    def test_p_and_auto_conflict_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "random-exp", "--n", "8", "--p", "0.5", "--auto-subcritical"
        )
        assert code == 2

    @pytest.mark.parametrize("auto", ["--auto-supercritical", "--auto-subcritical"])
    def test_auto_p_on_one_vertex_exit_2(self, capsys, auto):
        # the automatic p takes log(log n), undefined at n = 1
        code, _, err = run(capsys, "random-exp", "--n", "1", auto, "--trials", "1")
        assert code == 2
        assert err.startswith("usage error:")

    def test_zero_trials_exit_2(self, capsys):
        code, _, err = run(capsys, "random-exp", "--n", "8", "--p", "0.5", "--trials", "0")
        assert code == 2
        assert err.startswith("usage error:")

    def test_negative_n_exit_2(self, capsys):
        code, _, err = run(capsys, "random-exp", "--n", "-3", "--p", "0.5", "--trials", "1")
        assert code == 2
        assert err.startswith("usage error:")


class TestErrors:
    def test_domain_error_exit_1_named(self, capsys, tmp_path):
        bad = tmp_path / "cycle.tree"
        bad.write_text("0 1\n1 2\n2 0\n")
        code, _, err = run(capsys, "profile", str(bad))
        assert code == 1
        assert err.startswith("HasCycle:")

    def test_construct_vertex_unsupported_named(self, capsys, p4_file):
        code, _, err = run(capsys, "construct-vertex", p4_file)
        assert code == 1
        assert err.startswith("UnsupportedTree:")

    @pytest.mark.parametrize("text, line", [
        ("0 1\n1 2\n0 3\n3 4\n0 5\n5 6\n",
         "UnsupportedTree: contraction is the 3-leaf star"),
        (BROOM_TEXT, "UnsupportedTree: contraction has a bunch of size < 3"),
    ], ids=["two-edge-spider", "broom"])
    def test_construct_vertex_refusals(self, capsys, tmp_path, text, line):
        f = tmp_path / "refused.tree"
        f.write_text(text)
        assert run(capsys, "construct-vertex", str(f)) == (1, "", line + "\n")

    def test_usage_error_exit_2(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 2

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "profile", "nope.tree")
        assert code == 2

    def test_double_star_construct_vertex(self, capsys, tmp_path):
        f = tmp_path / "double_star.tree"
        f.write_text(DOUBLE_STAR_TEXT)
        code, out, _ = run(capsys, "--format", "json", "construct-vertex", str(f))
        assert code == 0
        payload = json.loads(out)
        assert payload["size"] == 4
        assert payload["lower"] == 4 and payload["sharp"] == 4


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["profile", "verify", "localize"])
    @pytest.mark.parametrize("bad", ["directory", "non-utf8"])
    def test_exit_code_without_traceback(self, tmp_path, p4_file, command, bad):
        if bad == "directory":
            target, code = tmp_path, 2
        else:
            target, code = tmp_path / "bytes.txt", 1
            target.write_bytes(b"0 1\n\xff 2\n")
        extra = {
            "profile": [],
            "verify": ["--target", "edges"],
            "localize": ["--target", "edges", "--report", "P"],
        }[command]
        # profile reads the bad file as its tree, the others as their paths
        files = [str(target)] if command == "profile" else [p4_file, str(target)]
        proc = run_module("-m", "seppaths", command, *files, *extra)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if bad == "directory":
            assert proc.stderr.startswith("usage error:")
        else:
            assert proc.stderr.startswith("BadToken:") and "line 2" in proc.stderr

    @pytest.mark.parametrize("command", ["profile", "construct-edge", "export-dot"])
    def test_non_utf8_tree_names_the_file_and_line(self, capsys, tmp_path, command):
        bad = tmp_path / "bytes.tree"
        bad.write_bytes(b"0 1\n\xff 2\n")
        code, out, err = run(capsys, command, str(bad))
        assert (code, out, err) == (1, "", f"BadToken: {bad}: line 2: not UTF-8 text\n")


class TestMalformedInput:
    """Bad files and bad values: a named error and an exit code, never a
    traceback."""

    @pytest.mark.parametrize("name, text, command, extra, prefix", [
        ("neg.tree", "0 1\n1 -2\n", "profile", [], "BadToken: line 2: negative vertex id"),
        ("unknown.paths", "0 1 9\n", "verify", ["--target", "edges"], "InvalidPath: "),
        ("token.paths", "0 x\n", "verify", ["--target", "edges"], "BadToken: line 1: "),
        ("repeat.paths", "0 1 0\n", "verify", ["--target", "edges"], "InvalidPath: line 1: "),
    ])
    def test_bad_file_exit_1(self, capsys, tmp_path, p4_file, name, text, command, extra, prefix):
        bad = tmp_path / name
        bad.write_text(text)
        files = [str(bad)] if command == "profile" else [p4_file, str(bad)]
        code, out, err = run(capsys, command, *files, *extra)
        assert code == 1 and out == ""
        assert err.startswith(prefix)
        assert "Traceback" not in err

    @pytest.mark.parametrize("p", ["1.5", "nan", "inf"])
    def test_p_outside_unit_interval_exit_2(self, capsys, p):
        code, _, err = run(capsys, "random-exp", "--n", "8", "--p", p, "--trials", "1")
        assert code == 2
        assert err.startswith("usage error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("report", ["P", "PPP"])
    def test_report_length_mismatch_exit_2(self, capsys, tmp_path, p4_file, report):
        paths = tmp_path / "sys.paths"
        paths.write_text("0 1 2\n3 2 1\n")
        code, _, err = run(
            capsys, "localize", p4_file, str(paths), "--target", "edges", "--report", report
        )
        assert code == 2
        assert err.startswith("usage error:")
        assert "Traceback" not in err

    def test_random_exp_text_is_five_lines(self, capsys):
        code, out, _ = run(
            capsys, "random-exp", "--n", "8", "--p", "1.0", "--trials", "2", "--seed", "7"
        )
        assert code == 0
        assert out.splitlines() == [
            "n 8", "p 1.0", "trials 2", "successRate 1.0", "meanIsolated 0.0",
        ]


class TestEntryPoints:
    @pytest.mark.parametrize("module", ["seppaths", "seppaths.cli"])
    def test_python_dash_m(self, p4_file, module):
        proc = run_module("-m", module, "--format", "json", "profile", p4_file)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["h1"] == 2

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_calls_in_one_process_match_calls_alone(self, capsys, p4_file, tmp_path):
        paths = tmp_path / "sys.paths"
        paths.write_text("0 1 2\n3 2 1\n")
        calls = [
            ["profile", p4_file],
            ["--format", "json", "oracle", p4_file, "--target", "vertices"],
            ["localize", p4_file, str(paths), "--target", "edges", "--report", "FP"],
        ]

        def stable(out):  # the oracle's elapsed time differs from run to run
            if out.startswith("{"):
                payload = json.loads(out)
                payload.pop("elapsed", None)
                return payload
            return out

        alone = [stable(run_module("-m", "seppaths", *argv).stdout) for argv in calls]
        for _ in range(2):
            for argv, expected in zip(calls, alone):
                code, out, _ = run(capsys, *argv)
                assert code == 0 and stable(out) == expected


class TestConstructVertexWarning:
    def test_same_warning_line_on_every_call(self, capsys, tmp_path):
        f = tmp_path / "mismatch.tree"
        f.write_text("".join(f"{u} {v}\n" for u, v in sorted(enumerate_trees(6)[4].edges)))
        errs = []
        for _ in range(2):
            code, _, err = run(capsys, "construct-vertex", str(f))
            assert code == 0
            errs.append(err)
        assert errs[0] == errs[1]
        assert errs[0].startswith("warning: BunchMismatchWarning: ")
        assert errs[0].count("\n") == 1 and "cli.py" not in errs[0]


class TestRendersOnlyItsFormat:
    def test_json_construct_edge_renders_no_text(self, capsys, depth2_file, monkeypatch):
        calls = []
        real = cli._system_text

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(cli, "_system_text", counting)
        code, out, _ = run(capsys, "--format", "json", "construct-edge", depth2_file)
        assert code == 0 and json.loads(out)["size"] == 4
        assert len(calls) == 0
        code, out, _ = run(capsys, "construct-edge", depth2_file)
        assert code == 0 and out.startswith("# size 4\n")
        assert len(calls) == 1


# ---- the exit-code contract, over generated documents and arguments ----

_HUGE = "9" * 5000  # more digits than int() reads from a string
_ODD_NUMBERS = ("nan", "inf", "-inf", "-1", "2.5", "1e400", "abc", "9" * 30, _HUGE)
_STDERR_LAST = {
    0: re.compile(r"warning: .*"),
    1: re.compile(r"warning: .*|[A-Z]\w*: .*|Not(Separated|Covered)\(.*\)"),
    2: re.compile(r"warning: .*|usage error: .*"),
}


def _mostly(valid, *odd):
    """About three draws in four from ``valid``, the rest one of the odd values."""
    pick = st.sampled_from([True, True, True, False])
    return pick.flatmap(lambda ok: valid if ok else st.sampled_from(odd))


@st.composite
def tree_documents(draw):
    """A tree of at most 8 vertices under a drawn numbering, as an edge-list
    document, sometimes with near-valid edits, and its id tokens."""
    t = random_tree(draw(st.integers(2, 8)), draw(st.integers(0, 2**16)))
    ids = draw(st.permutations([0, 1, 2, 3, 4, 5, 6, 7, 8, 10**20]))
    lines = [[str(ids[u]), str(ids[v])] for u, v in sorted(t.edges)]
    bom = ""
    edits = ["drop", "repeat", "reverse", "cycle", "forest", "comment", "token", "bom"]
    for kind in draw(st.lists(st.sampled_from(edits), max_size=2)) if draw(st.booleans()) else []:
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if kind == "drop" and lines:
            del lines[i]
        elif kind == "repeat" and lines:
            lines.insert(i, list(lines[i]))
        elif kind == "reverse" and lines:
            lines[i].reverse()
        elif kind == "cycle":
            lines.append([str(ids[x]) for x in draw(st.permutations(range(t.n)))[:2]])
        elif kind == "forest":
            lines.append(["100", "101"])
        elif kind == "comment" and lines:
            lines[i].append("#" + draw(st.text(max_size=4)))
        elif kind == "token" and lines:
            token = draw(st.sampled_from(["-1", "+3", "2_0", "１", "x", "", _HUGE]))
            lines[i][draw(st.integers(0, 1))] = token
        elif kind == "bom":
            bom = "\ufeff"
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    doc = "".join(" ".join(line) + newline for line in lines)
    tokens = sorted({tok for line in lines for tok in line[:2]})
    return bom + doc, doc, tokens


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _arguments(data, command, tree, pfile, doc, tokens):
    """The arguments after the subcommand, mostly well formed; a paths file
    is one path per edge of the document, one per vertex, or random."""
    draw = data.draw
    target = ["--target", draw(_mostly(st.sampled_from(sorted(cli._TARGETS)), "bogus"))]
    if command in ("verify", "localize"):
        random_paths = st.lists(st.lists(st.integers(-1, 10), min_size=1, max_size=5), max_size=6)
        paths = draw(st.one_of(
            st.just(doc), st.just("".join(tok + "\n" for tok in tokens)),
            random_paths.map(lambda ps: "".join(" ".join(map(str, q)) + "\n" for q in ps)),
        ))
        Path(pfile).write_text(paths, encoding="utf-8")
        if command == "verify":
            return [tree, pfile, *target]
        k = len([line for line in paths.splitlines() if line.split("#")[0].strip()])
        report = draw(_mostly(st.text("PF", min_size=k, max_size=k), "", "PX", "p" * k, "P" * 50))
        return [tree, pfile, *target, "--report", report]
    if command == "oracle":
        budget = draw(_mostly(st.integers(0, 200).map(str), "nan", "-1", "-inf", "abc"))
        return [tree, *target, *draw(st.sampled_from([[], ["--no-cover"]])), "--budget-ms", budget]
    if command == "random-exp":
        mode = draw(_mostly(
            st.sampled_from([["--auto-supercritical"], ["--auto-subcritical"]]),
            ["--auto-supercritical", "--auto-subcritical"],
        ))
        p = draw(_mostly(st.floats(0, 1).map(str), *_ODD_NUMBERS))
        return [
            "--n", draw(_mostly(st.integers(0, 32).map(str), "-2", "nan", "inf", _HUGE)),
            *draw(st.sampled_from([mode, ["--p", p]])),
            "--trials", draw(_mostly(st.just("1"), "0", "-1", "nan")),
            "--seed", draw(_mostly(st.integers(-(10**40), 10**40).map(str), *_ODD_NUMBERS)),
        ]
    return [tree]


class TestExitCodeContract:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("command", [
        "profile", "construct-edge", "construct-vertex", "verify", "oracle",
        "random-exp", "localize", "export-dot",
    ])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_every_call_exits_0_1_or_2_with_named_messages(self, fmt, command, data):
        text, doc, tokens = data.draw(tree_documents())
        with tempfile.TemporaryDirectory() as tmp:
            tree, pfile = os.path.join(tmp, "t.tree"), os.path.join(tmp, "t.paths")
            Path(tree).write_text(text, encoding="utf-8")
            args = _arguments(data, command, tree, pfile, doc, tokens)
            code, out, err = _call(["--format", fmt, command, *args])
            assert code in (0, 1, 2)
            lines = err.splitlines()
            if code == 2 and lines and lines[0].startswith("usage: seppaths"):
                assert re.fullmatch(r"seppaths( [\w-]+)?: error: .*", lines[-1]), err
            else:
                assert all(_STDERR_LAST[0].fullmatch(line) for line in lines[:-1]), err
                assert not lines or _STDERR_LAST[code].fullmatch(lines[-1]), err
                assert code == 0 or lines, err
            if code != 0:
                return
            if command == "export-dot":  # DOT, bare or as the JSON "dot" string
                dot = json.loads(out)["dot"] if fmt == "json" else out
                assert dot.startswith("graph tree {\n") and dot.endswith("}\n")
            elif fmt == "json":
                payload = json.loads(out)
                if command == "construct-edge":
                    out = "".join(" ".join(map(str, q)) + "\n" for q in payload["paths"])
            if command == "construct-edge":
                Path(pfile).write_text(out)
                assert _call(["verify", tree, pfile, "--target", "edges"])[0] == 0


# sha256 over the label, exit code, stdout and stderr of every call that
# _deployment_calls makes, recorded at commit f8f4b52 (line-by-line
# parse_paths); localize and verify must reproduce their bytes exactly
LOCALIZE_DIGEST = "3e62a9213269bcce0f2296c81316852b5396f529aa858e8298547649e8a55d91"


def _paths_variants(lines: list[str], n: int):
    """(label, paths text) for a deployment's path lines: as written, with
    the same ids spelled otherwise, with comments and odd whitespace, and
    with line and host errors."""
    long = next(i for i, line in enumerate(lines) if len(line.split()) > 2)
    swapped = lines[long].split()
    swapped[0], swapped[1] = swapped[1], swapped[0]  # a step that skips a vertex
    arabic = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")

    def edit(i, text):
        return lines[:i] + [text] + lines[i + 1:]

    def spelled(line, how):
        first, *rest = line.split()
        return " ".join([how(first), *rest])

    yield "as-written", lines
    yield "non-canonical", [spelled(lines[0], lambda t: "00" + t), spelled(lines[1], lambda t: "+" + t),
                            spelled(lines[2], lambda t: t.translate(arabic)), "-0", *lines[3:]]
    yield "comments", ["# a deployment", "", *(line.replace(" ", "\t", 1) + "  # path" for line in lines[:3]),
                       "   ", *lines[3:]]
    yield "crlf", [line + "\r" for line in lines]
    yield "duplicate", lines + [lines[0]]
    yield "unknown", edit(3, lines[3] + f" {n + 7}")
    yield "negative", edit(2, "-1 " + lines[2])
    yield "token", edit(5, lines[5] + " x")
    yield "repeat", edit(4, lines[4] + " " + lines[4].split()[0])
    yield "step", edit(long, " ".join(swapped))
    yield "late-token", edit(long, " ".join(swapped)) + ["3.0"]  # after the bad step
    yield "lone-unknown", lines + [str(n + 3)]
    yield "lone-known", lines + ["0"]
    yield "empty", []


def _deployment_calls(tmp_path):
    """(label, argv) for localize and verify on the fault-localize kinds of
    deployment (an edge system on random_tree(400, s), a vertex system on
    leafy_tree(400, s)) and on malformed variants of their files: each
    element as a single fault (every tenth on the second seed, to keep the
    test short), the healthy report, a few double faults, and odd reports."""
    tree_file, paths_file = str(tmp_path / "t.tree"), str(tmp_path / "t.paths")
    for seed in (1, 2):
        for target, t in (("edges", random_tree(400, seed)), ("vertices", leafy_tree(400, seed))):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                fs = edge_system(t) if target == "edges" else vertex_system(t)
            ts = getattr(TargetSet, target)(t)
            sig = signatures(fs, ts)
            m = fs.size
            tree_text, text = serialize_tree(t), serialize_paths(fs)
            Path(tree_file).write_text(tree_text)
            Path(paths_file).write_text(text)
            name = f"{target}-{seed}"

            def localize(label, report, fmt="json"):
                argv = ["--format", fmt, "localize", tree_file, paths_file,
                        "--target", target, "--report", report]
                return f"{name}:{label}", argv

            for s in ts.elements if seed == 1 else ts.elements[::10]:
                yield localize(f"single {s}", "".join("F" if i in sig[s] else "P" for i in range(m)))
            rng = random.Random(seed)
            for fmt in ("text", "json"):
                yield localize("healthy", "P" * m, fmt)
                for _ in range(4):
                    failed = set().union(*(sig[s] for s in rng.sample(ts.elements, 2)))
                    yield localize("double", "".join("F" if i in failed else "P" for i in range(m)), fmt)
            for report in ("", "X" + "P" * (m - 1), "p" * m, "P" * (m - 1), " " + ("Ff" * m)[:m] + " "):
                yield localize(f"report {report!r}", report)
            for fmt in ("text", "json"):
                for other in sorted(cli._TARGETS):
                    yield f"{name}:verify {other}", ["--format", fmt, "verify", tree_file, paths_file,
                                                     "--target", other]
            lines = text.splitlines()
            for label, variant in _paths_variants(lines, t.n):
                Path(paths_file).write_text("".join(line + "\n" for line in variant))
                k = sum(1 for line in variant if line.partition("#")[0].strip())
                yield localize(f"{label} healthy", "P" * k)
                yield localize(f"{label} first", "F" + "P" * (k - 1), "text")
                yield f"{name}:{label} verify", ["verify", tree_file, paths_file, "--target", target]
            Path(paths_file).write_text(text)
            a, b = sorted(t.edges)[0][0], t.vertices[-1]
            for label, extra in (("cycle", f"{a} {b}"), ("repeat", " ".join(map(str, sorted(t.edges)[0]))),
                                 ("forest", f"{t.n + 1} {t.n + 2}"), ("token", f"{a} y")):
                Path(tree_file).write_text(tree_text + extra + "\n")
                yield localize(f"tree {label}", "P" * m)
                yield f"{name}:tree {label} verify", ["verify", tree_file, paths_file, "--target", target]


class TestLocalizeBytes:
    def test_localize_and_verify_output_is_pinned(self, tmp_path):
        h = hashlib.sha256()
        for label, argv in _deployment_calls(tmp_path):
            h.update(repr((label, *_call(argv))).encode())
        assert h.hexdigest() == LOCALIZE_DIGEST


# ---- the plain-argv reader, against argparse ----

_COMMANDS = build_parser()._subparsers._group_actions[0].choices
_ODD_VALUES = ("", "-1", "-0", "nan", "1e3", "bogus", "-", "--", "-h")


def _good_values(action):
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is int:
        return st.integers(0, 40).map(str)
    if action.type is float:
        return st.sampled_from(["0", "0.5", "1", "250"])
    return st.sampled_from(["PF", "FFPP", "t.tree"])


_MUTATIONS = ("top", "name", "positional", "abbreviate", "join", "value", "dash", "no-value",
              "repeat", "omit", "group", "token")


@st.composite
def _argvs(draw, command):
    """A plain argv for ``command`` in a drawn order, with up to two edits,
    most of which take it off the plain shape: an odd top-level option or
    command name, a positional too many or too few, an abbreviated, joined,
    repeated or omitted option, an odd, dashed or missing value, a second or no
    member of the random-exp group, or a stray token."""
    sub = _COMMANDS[command]
    groups = [g._group_actions for g in sub._mutually_exclusive_groups]
    grouped = {a for g in groups for a in g}
    chosen = [draw(st.sampled_from(g)) for g in groups]
    chosen += [a for a in sub._actions if a.option_strings and a not in grouped
               and not isinstance(a, argparse._HelpAction) and (a.required or draw(st.booleans()))]

    def piece(action):
        value = [] if action.nargs == 0 else [draw(_good_values(action))]
        return [action.option_strings[0], *value]

    positional = st.sampled_from(["t.tree", "", "a b", "x"])
    pieces = [[draw(positional)] for a in sub._actions if not a.option_strings]
    options = [piece(a) for a in chosen]
    top = draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"]]))
    name = command
    for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
        edit = draw(st.sampled_from(_MUTATIONS))
        if edit == "top":
            top = draw(st.sampled_from([["--format", "xml"], ["--format", ""], ["--format"],
                                        ["--format=json"], ["--form", "json"], ["--format", "-1"]]))
        elif edit == "name":
            name = draw(st.sampled_from([command[:4], "bogus", "", command.upper()]))
        elif edit == "positional":
            if pieces and draw(st.booleans()):
                pieces.pop()
            else:
                pieces.append([draw(positional)])
        elif edit == "group" and groups:
            member = draw(st.sampled_from(groups[0]))
            options = [o for o in options if o[0] not in {a.option_strings[0] for a in groups[0]}]
            if draw(st.booleans()):
                options += [piece(member), piece(draw(st.sampled_from(groups[0])))]
        elif options:
            i = draw(st.integers(0, len(options) - 1))
            opt, *value = options[i]
            if edit == "abbreviate":
                options[i] = [opt[:-1], *value]
            elif edit == "join":
                options[i] = [f"{opt}={value[0] if value else ''}"]
            elif edit == "value" and value:
                options[i] = [opt, draw(st.sampled_from(_ODD_VALUES))]
            elif edit == "dash" and value:
                options[i] = [opt, draw(st.sampled_from(["-h", "--", "-", "-1", "-x"]))]
            elif edit == "no-value" and value:
                options[i] = [opt]
            elif edit == "repeat":
                action = sub._option_string_actions.get(opt)  # None once abbreviated
                options.append(piece(action) if action and draw(st.booleans()) else list(options[i]))
            elif edit == "omit":
                del options[i]
        if edit == "token":
            pieces.append(draw(st.sampled_from([["-h"], ["--help"], ["--"], ["-"], ["--format", "json"]])))
    order = draw(st.permutations(pieces + options))
    return [*top, name, *(tok for p in order for tok in p)]


def _parsed(argv):
    """parse_args(argv) as an ordered item list, or None where it exits."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            ns = build_parser().parse_args(argv)
    except SystemExit:
        return None
    return list(vars(ns).items())


class TestPlainReader:
    @pytest.mark.parametrize("command", sorted(_COMMANDS))
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_reads_what_argparse_reads_or_defers(self, command, data):
        argv = data.draw(_argvs(command))
        read, parsed = cli._read_plain(argv), _parsed(argv)
        if parsed is None:
            assert read is None, argv
        elif read is not None:  # repr: NaN equals NaN, 1 differs from 1.0 and True
            assert repr(list(vars(read).items())) == repr(parsed), argv

    def test_argv_of_other_types_goes_to_argparse(self):
        assert cli._read_plain(["profile", Path("t.tree")]) is None
        assert cli._read_plain(("profile", "t.tree")) is None


class TestPlainArgvSkipsArgparse:
    """The bench's and README's argument shapes never reach argparse."""

    @pytest.fixture(autouse=True)
    def no_argparse(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("argparse read a plain argv")
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)

    @pytest.mark.parametrize("fmt", [[], ["--format", "text"], ["--format", "json"]])
    def test_every_command_runs(self, capsys, tmp_path, fmt):
        tree, paths = str(tmp_path / "ta.tree"), str(tmp_path / "ta.paths")
        Path(tree).write_text(DEPTH2_TEXT)  # README's ta.tree
        Path(paths).write_text("1 2 4\n1 2 5\n1 3 6\n1 3 7\n")
        leafy = tmp_path / "leafy.tree"  # ta.tree is outside construct-vertex's hypotheses
        leafy.write_text(serialize_tree(leafy_tree(12, 1)))
        calls = [
            ["profile", tree],
            ["construct-edge", tree],
            ["construct-vertex", str(leafy)],
            ["verify", tree, paths, "--target", "edges"],
            ["oracle", tree, "--target", "vertices"],
            ["oracle", tree, "--target", "edges", "--no-cover", "--budget-ms", "5000"],
            ["random-exp", "--n", "16", "--auto-subcritical", "--trials", "2", "--seed", "7"],
            ["random-exp", "--n", "8", "--p", "1.0", "--trials", "2"],
            ["localize", tree, paths, "--target", "edges", "--report", "FFPP"],
            ["export-dot", tree],
        ]
        assert {argv[0] for argv in calls} == set(_COMMANDS)
        for argv in calls:
            code, out, err = run(capsys, *fmt, *argv)
            assert code == 0 and out and not err, (argv, err)
            if fmt[1:] == ["json"]:
                json.loads(out)

    def test_argv_none_reads_sys_argv(self, capsys, monkeypatch, tmp_path):
        tree = tmp_path / "ta.tree"
        tree.write_text(DEPTH2_TEXT)
        monkeypatch.setattr(sys, "argv", ["seppaths", "--format", "json", "profile", str(tree)])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["n"] == 7


class TestRandomExpCap:
    @pytest.fixture(autouse=True)
    def no_graph(self, monkeypatch):
        """Any graph built fails the test: a real n near the cap takes GBs."""
        def refuse(*args, **kwargs):
            raise AssertionError("a graph was built")
        monkeypatch.setattr(random_graphs, "gen_gnp", refuse)
        monkeypatch.setattr(random_graphs.Graph, "_from_rows", refuse)

    @pytest.mark.parametrize("argv", [
        ["--n", "3000000000", "--p", "0", "--trials", "1"],
        ["--n=3000000000", "--p", "0", "--trials", "1"],  # read by argparse
        ["--n", str(random_graphs._GNP_MAX_N + 1), "--auto-supercritical"],
    ])
    def test_n_above_the_cap_is_too_large(self, capsys, argv):
        code, out, err = run(capsys, "random-exp", *argv)
        n = argv[1] if argv[0] == "--n" else argv[0].split("=")[1]
        assert (code, out, err) == (1, "", f"TooLarge: n={n} exceeds cap {random_graphs._GNP_MAX_N}\n")

    def test_n_at_the_cap_goes_on(self, capsys):
        assert random_graphs._GNP_MAX_N >= 10**6
        with pytest.raises(AssertionError, match="a graph was built"):
            main(["random-exp", "--n", str(random_graphs._GNP_MAX_N), "--p", "0", "--trials", "1"])


class TestClosedStdout:
    def test_head_of_a_large_output_exits_1_without_traceback(self, tmp_path):
        # a spider with four legs of 5000: about 0.5 MB of paths, many pipe buffers
        tree = tmp_path / "spider.tree"
        edges = [(0 if i % 5000 == 1 else i - 1, i) for i in range(1, 20001)]
        tree.write_text("".join(f"{u} {v}\n" for u, v in edges))
        src = str(Path(seppaths.__file__).resolve().parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "seppaths", "construct-edge", str(tree)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=src),
        )
        try:
            assert proc.stdout.read(20).startswith(b"# size ")
            proc.stdout.close()
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert (proc.returncode, err) == (1, b"")
