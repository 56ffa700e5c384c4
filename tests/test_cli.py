"""The command-line surface: outputs, exit codes, and file round trips."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seppaths
from seppaths import cli
from seppaths.cli import build_parser, main
from seppaths.oracle import enumerate_trees
from seppaths.trees import random_tree

from conftest import BROOM_TEXT, DOUBLE_STAR_TEXT, K13_TEXT, P4_TEXT, DEPTH2_TEXT


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
            capsys, "oracle", str(f), "--target", "vertices", "--budget-ms", "0"
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
