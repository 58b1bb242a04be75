"""Drives the command line front end through run() and checks the JSON.

Covers the document parser, the output shape of every subcommand, the
exit code contract (0 ok, 1 domain failure, 2 bad usage), and that the
emitted text is deterministic.
"""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corpus import random_name_tree
import critforge
from critforge import (
    ArithmeticalStructure, cli, extend_at, fire, full_divisor, mergestar, treedecomp,
)
from critforge.arithstruct import laplacian
from critforge.cli import fixture_path, load_document, run
from critforge.graphcore import Graph

C4_DELTA = {"v1": 3, "v2": 1, "v3": -1, "v4": -2}


def invoke(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def invoke_ok(capsys, *argv):
    """Run a subcommand expected to succeed and parse its stdout."""
    code, out, err = invoke(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_fixture_path_appends_the_json_suffix():
    assert fixture_path("t1") == fixture_path("t1.json")


def test_group_reports_invariant_factors(capsys):
    got = invoke_ok(capsys, "group", "--input", fixture_path("fig3_broom"))
    assert got == {"invariant_factors": [3, 18], "order": 54}
    got = invoke_ok(capsys, "group", "--input", fixture_path("c4_example"))
    assert got == {"invariant_factors": [2], "order": 2}


def test_validate_accepts_the_cycle_fixture(capsys):
    got = invoke_ok(capsys, "validate", "--input", fixture_path("c4_example"))
    assert got == {"problems": [], "valid": True}


def test_validate_reports_problems(capsys, tmp_path):
    # With d present the balance check runs; vertex a is the offender.
    bad = write_doc(tmp_path, "bad.json", {
        "vertices": ["a", "b"],
        "edges": [["a", "b"]],
        "r": {"a": "1", "b": "1"},
        "d": {"a": "2", "b": "1"},
    })
    got = invoke_ok(capsys, "validate", "--input", bad)
    assert got["valid"] is False
    assert got["problems"]
    assert "a" in got["problems"][0]

    # Without d the divisibility route reports instead.
    bad = write_doc(tmp_path, "bad_r.json", {
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"]],
        "r": {"a": "1", "b": "1", "c": "5"},
    })
    got = invoke_ok(capsys, "validate", "--input", bad)
    assert got["valid"] is False
    assert len(got["problems"]) == 1


def test_divisor_degree_accepts_mixed_integer_spellings(capsys):
    got = invoke_ok(
        capsys, "divisor", "--input", fixture_path("fig3_broom"),
        "--chips", json.dumps({"v2": 1, "v9": "-18"}), "--op", "degree",
    )
    assert got == {"degree": 0}


def test_divisor_order(capsys):
    got = invoke_ok(
        capsys, "divisor", "--input", fixture_path("c4_example"),
        "--chips", json.dumps(C4_DELTA), "--op", "order",
    )
    assert got == {"order": 2}


def test_divisor_equivalence_and_witness(capsys):
    path = fixture_path("c4_example")
    got = invoke_ok(
        capsys, "divisor", "--input", path,
        "--chips", json.dumps(C4_DELTA), "--op", "equivalent",
        "--other", json.dumps({}),
    )
    assert got == {"equivalent": False, "firing_vector": None}

    doubled = {v: 2 * c for v, c in C4_DELTA.items()}
    got = invoke_ok(
        capsys, "divisor", "--input", path,
        "--chips", json.dumps(doubled), "--op", "equivalent",
        "--other", json.dumps({}),
    )
    assert got["equivalent"] is True
    x = {v: int(s) for v, s in got["firing_vector"].items()}

    g, _, d = load_document(path)
    moved = laplacian(g, d).apply([x[v] for v in g.vertices])
    for i, v in enumerate(g.vertices):
        assert doubled.get(v, 0) - moved[i] == 0


def test_divisor_order_text_on_the_cycle_fixture(capsys):
    code, out, err = invoke(
        capsys, "divisor", "--input", fixture_path("c4_example"),
        "--chips", json.dumps(C4_DELTA), "--op", "order",
    )
    assert (code, out, err) == (0, '{\n  "order": 2\n}\n', "")


def broom_grown_to(n, rng):
    """The fig3_broom structure (group Z/3 + Z/18) with seeded leaves
    attached until it has n vertices; extend_at keeps the group."""
    g, r, d = load_document(fixture_path("fig3_broom"))
    s = ArithmeticalStructure(graph=g, r=r, d=d)
    while g.vertex_count < n:
        g, s = extend_at(g, s, rng.choice(g.vertices))
    return g, s


def test_divisor_order_and_equivalence_on_a_300_vertex_tree(capsys, tmp_path):
    g, s = broom_grown_to(300, random.Random(300))
    path = write_doc(tmp_path, "grown.json", {
        "vertices": list(g.vertices),
        "edges": [[u, v] for u, v, _ in g.edges()],
        "r": {v: str(x) for v, x in s.r.items()},
    })
    chips = {"v2": 1, "v9": -18}
    got = invoke_ok(capsys, "divisor", "--input", path,
                    "--chips", json.dumps(chips), "--op", "order")
    assert got["order"] > 1
    got = invoke_ok(capsys, "divisor", "--input", path, "--chips", json.dumps(chips),
                    "--op", "equivalent", "--other", json.dumps({}))
    assert got == {"equivalent": False, "firing_vector": None}

    other = full_divisor(g, chips)
    for v, times in (("v4", 2), (g.vertices[-1], -1), ("v0", 3)):
        other = fire(g, s.d, other, v, times)
    got = invoke_ok(capsys, "divisor", "--input", path, "--chips", json.dumps(chips),
                    "--op", "equivalent", "--other", json.dumps(other))
    assert got["equivalent"] is True
    replay = full_divisor(g, chips)
    for v, times in got["firing_vector"].items():
        if int(times):
            replay = fire(g, s.d, replay, v, int(times))
    assert replay == other


def test_decompose_lists_pieces(capsys):
    got = invoke_ok(capsys, "decompose", "--input", fixture_path("t1"))
    assert got == {
        "iota": 1,
        "pieces": [
            {
                "center": "02",
                "leaves": 4,
                "merge_leaf": "02*",
                "regular": False,
                "target": "01",
                "vertices": ["02", "02*", "03", "04", "05"],
            },
            {
                "center": "06",
                "leaves": 3,
                "merge_leaf": None,
                "regular": None,
                "target": None,
                "vertices": ["01", "06", "07", "11", "13"],
            },
        ],
    }


def test_iota_and_nu2_reports(capsys):
    got = invoke_ok(capsys, "iota", "--input", fixture_path("t1"))
    assert got == {"bound": 3, "iota": 1, "leaves": 6}
    got = invoke_ok(capsys, "nu2", "--input", fixture_path("t1"))
    assert got == {"bound": 3, "edges": 8, "nu2": 5}
    got = invoke_ok(capsys, "iota", "--input", fixture_path("fig4_tree"))
    assert got == {"bound": 7, "iota": 3, "leaves": 12}
    got = invoke_ok(capsys, "nu2", "--input", fixture_path("fig4_tree"))
    assert got == {"bound": 7, "edges": 21, "nu2": 14}


def test_iota_runs_the_two_matching_dp_once(capsys, monkeypatch):
    # every route to the DP, two_matching_number included, builds a table
    calls = []
    real = treedecomp.TwoMatchingTable.__init__

    def counting(self, t):
        calls.append(t.vertex_count)
        real(self, t)

    monkeypatch.setattr(treedecomp.TwoMatchingTable, "__init__", counting)
    got = invoke_ok(capsys, "iota", "--input", fixture_path("fig4_tree"))
    assert got == {"bound": 7, "iota": 3, "leaves": 12}
    assert calls == [22]


def test_iota_checks_the_graph_once(capsys, monkeypatch):
    calls = []
    real = Graph._check_connected

    def counting(g):
        calls.append(g.vertex_count)
        real(g)

    monkeypatch.setattr(Graph, "_check_connected", counting)
    got = invoke_ok(capsys, "iota", "--input", fixture_path("fig4_tree"))
    assert got == {"bound": 7, "iota": 3, "leaves": 12}
    assert calls == [22]


@pytest.fixture(scope="module")
def big_tree(tmp_path_factory):
    """A seeded 64,000-vertex tree and the path of its document."""
    t = random_name_tree(random.Random(64000), 64000)
    path = tmp_path_factory.mktemp("big") / "big.json"
    path.write_text(json.dumps({
        "vertices": list(t.vertices),
        "edges": [[u, v] for u, v, _ in t.edges()],
    }), encoding="utf-8")
    return t, str(path)


def test_iota_and_nu2_on_a_64000_vertex_tree(capsys, big_tree):
    _, path = big_tree
    got = invoke_ok(capsys, "iota", "--input", path)
    assert got["iota"] > 1000
    assert got["bound"] == got["leaves"] - 2 - got["iota"]
    nu = invoke_ok(capsys, "nu2", "--input", path)
    assert nu["edges"] == 63999
    assert got["bound"] == nu["bound"] == nu["edges"] - nu["nu2"]


def test_decompose_on_a_64000_vertex_tree(capsys, big_tree):
    t, path = big_tree
    got = invoke_ok(capsys, "decompose", "--input", path)
    assert got["iota"] == invoke_ok(capsys, "iota", "--input", path)["iota"]
    assert len(got["pieces"]) > 10000
    # without their merge leaves, the pieces partition the tree
    seen = [v for p in got["pieces"] for v in p["vertices"] if v != p["merge_leaf"]]
    assert sorted(seen) == list(t.vertices)


def test_merge_rebuilds_the_merged_fixture(capsys):
    got = invoke_ok(
        capsys, "merge",
        "--left", fixture_path("fig1_star3"),
        "--right", fixture_path("fig1_star4"),
        "--left-vertex", "s0", "--right-vertex", "t1",
    )
    assert got == {
        "d": {"s0": "3", "s1": "4", "s2": "4", "s3": "2",
              "t0": "1", "t2": "6", "t3": "6", "t4": "6"},
        "edges": [["s0", "s1"], ["s0", "s2"], ["s0", "s3"], ["s0", "t0"],
                  ["t0", "t2"], ["t0", "t3"], ["t0", "t4"]],
        "merge_report": {
            "additive": True,
            "glued_gcd": 1,
            "left_group": {"invariant_factors": [2], "order": 2},
            "merged_group": {"invariant_factors": [2, 2, 6], "order": 24},
            "order_identity_holds": True,
            "right_group": {"invariant_factors": [2, 6], "order": 12},
        },
        "r": {"s0": "12", "s1": "3", "s2": "3", "s3": "6",
              "t0": "24", "t2": "4", "t3": "4", "t4": "4"},
        "vertices": ["s0", "s1", "s2", "s3", "t0", "t2", "t3", "t4"],
    }

    # The emitted document is exactly the shipped merged example.
    g, r, d = load_document(fixture_path("fig2_merged"))
    assert {v: int(s) for v, s in got["r"].items()} == r
    assert {v: int(s) for v, s in got["d"].items()} == d
    assert [tuple(e) for e in got["edges"]] == [(u, v) for u, v, _ in g.edges()]


def test_merge_merges_once(capsys, monkeypatch):
    calls = []
    real = mergestar.merge_structures

    def counting(*args):
        calls.append(args[1])
        return real(*args)

    for mod in (mergestar, cli):
        monkeypatch.setattr(mod, "merge_structures", counting)
    got = invoke_ok(
        capsys, "merge",
        "--left", fixture_path("fig1_star3"),
        "--right", fixture_path("fig1_star4"),
        "--left-vertex", "s0", "--right-vertex", "t1",
    )
    assert got["merge_report"]["additive"] is True
    assert got["merge_report"]["order_identity_holds"] is True
    assert calls == ["s0"]


def test_construct_builds_brooms_and_the_trivial_tree(capsys):
    got = invoke_ok(capsys, "construct", "--group", "3,18", "--prongs", "2")
    assert got["group"] == {"invariant_factors": [3, 18], "order": 54}
    assert got["r"]["c"] == "324"
    assert len(got["vertices"]) == 10

    got = invoke_ok(capsys, "construct", "--group", "1")
    assert got["vertices"] == ["a", "b"]
    assert got["group"] == {"invariant_factors": [], "order": 1}


def test_construct_realizes_on_a_subdivision(capsys, tmp_path):
    got = invoke_ok(
        capsys, "construct", "--group", "4,4,4,4,4,4,4",
        "--tree", fixture_path("fig4_tree"), "--beta", "3",
    )
    assert got["group"] == {"invariant_factors": [4] * 7, "order": 16384}
    assert len(got["vertices"]) == 36
    assert len(got["edges"]) == 35

    # Feed the emitted document straight back through the other commands.
    out = write_doc(tmp_path, "built.json", got)
    assert invoke_ok(capsys, "group", "--input", out) == got["group"]
    assert invoke_ok(capsys, "validate", "--input", out) == {
        "problems": [], "valid": True,
    }
    assert invoke_ok(capsys, "iota", "--input", out) == {
        "bound": 7, "iota": 3, "leaves": 12,
    }
    assert invoke_ok(capsys, "nu2", "--input", out) == {
        "bound": 7, "edges": 35, "nu2": 28,
    }


def test_construct_draws_tail_names_against_the_whole_tree(capsys, tmp_path):
    path = write_doc(tmp_path, "clash.json", {
        "vertices": ["a", "a.b.1", "b", "m", "q", "x1", "x2"],
        "edges": [["a", "b"], ["a", "x1"], ["a", "x2"], ["a", "m"],
                  ["m", "a.b.1"], ["m", "q"]],
    })
    got = invoke_ok(capsys, "construct", "--group", "6", "--tree", path, "--beta", "0")
    assert got["group"] == {"invariant_factors": [6], "order": 6}
    assert len(got["edges"]) == len(got["vertices"]) - 1


def test_enumerate_lists_structures(capsys, tmp_path):
    path = write_doc(tmp_path, "p3.json", {
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"]],
    })
    got = invoke_ok(capsys, "enumerate", "--input", path)
    assert got == {
        "count": 2,
        "structures": [
            {"d": {"a": "1", "b": "2", "c": "1"},
             "r": {"a": "1", "b": "1", "c": "1"}},
            {"d": {"a": "2", "b": "1", "c": "2"},
             "r": {"a": "1", "b": "2", "c": "1"}},
        ],
    }
    got = invoke_ok(capsys, "enumerate", "--input", path, "--r-bound", "1")
    assert got["count"] == 1


def test_reads_documents_from_stdin(capsys, monkeypatch):
    with open(fixture_path("fig3_broom"), encoding="utf-8") as fh:
        text = fh.read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    got = invoke_ok(capsys, "group", "--input", "-")
    assert got == {"invariant_factors": [3, 18], "order": 54}


def test_reruns_emit_identical_text(capsys):
    argv = ("merge", "--left", fixture_path("fig1_star3"),
            "--right", fixture_path("fig1_star4"),
            "--left-vertex", "s0", "--right-vertex", "t1")
    _, first, _ = invoke(capsys, *argv)
    _, second, _ = invoke(capsys, *argv)
    assert first == second


def test_usage_errors_exit_two(capsys, tmp_path):
    cases = [
        ("group", "--input", str(tmp_path / "missing.json")),
        ("group", "--input", fixture_path("t1")),  # no r map in the document
        ("divisor", "--input", fixture_path("c4_example"),
         "--chips", json.dumps({"zz": 1}), "--op", "degree"),
        ("divisor", "--input", fixture_path("c4_example"),
         "--chips", json.dumps(C4_DELTA), "--op", "equivalent"),
        ("construct", "--group", "4,2"),
        ("construct", "--group", "abc"),
        ("construct", "--group", "4", "--beta", "1"),  # --beta without --tree
        ("construct", "--group", "3", "--prongs", "2", "--beta", "1"),
        ("construct", "--group", "6", "--tree", fixture_path("t1"), "--beta", "0",
         "--prongs", "5"),
        ("enumerate", "--input", fixture_path("t1"), "--r-bound", "0"),
        # argparse's own failures: a bad integer, an unknown subcommand,
        # a missing required flag
        ("construct", "--group", "6", "--tree", fixture_path("t1"), "--beta", "1_0"),
        ("frobnicate",),
        ("group",),
    ]
    for argv in cases:
        code, _, err = invoke(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("usage error:"), argv

    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json{{", encoding="utf-8")
    code, _, err = invoke(capsys, "group", "--input", str(garbled))
    assert code == 2
    assert err.startswith("usage error:")

    mismatched = write_doc(tmp_path, "mismatched.json", {
        "vertices": ["a", "b", "c"],
        "edges": [["a", "b"]],
    })
    code, _, err = invoke(capsys, "iota", "--input", mismatched)
    assert code == 2
    assert err.startswith("usage error:")

    # argparse failures share the exit code and the prefix.
    code, _, err = invoke(capsys)
    assert code == 2
    assert err.startswith("usage error:")


@pytest.mark.parametrize("text", [" 1_0 ", "1_0", "\u0661\u0662", " 12", "12 ", "+-3", "0x1f"])
def test_integers_must_be_plain_ascii_decimals(capsys, tmp_path, text):
    doc = write_doc(tmp_path, "star.json", {
        "vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]],
        "r": {"a": text, "b": "1", "c": "1"},
    })
    code, out, err = invoke(capsys, "group", "--input", doc)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: r[a]:") and "is not a decimal integer" in err
    code, _, err = invoke(capsys, "divisor", "--input", fixture_path("c4_example"),
                          "--chips", json.dumps({"v1": text}), "--op", "degree")
    assert code == 2 and err.startswith("usage error: --chips[v1]:")
    code, _, err = invoke(capsys, "construct", "--group", "6", "--prongs", text)
    assert code == 2 and "is not a decimal integer" in err


def test_a_broom_past_the_vertex_cap_exits_one_at_once(capsys):
    code, out, err = invoke(capsys, "construct", "--group", "6", "--prongs", "1000000000000")
    assert (code, out) == (1, "")
    assert err == "error: the broom would exceed 100000 vertices\n"


def test_group_entries_must_be_plain_ascii_decimals(capsys):
    # spaces around a comma-separated entry are list syntax, not the entry's
    for text in ("1_2", "\u0661\u0662", " 1_0 ", "2,1_2", "0x1f", "+ 2"):
        code, out, err = invoke(capsys, "construct", "--group", text)
        assert (code, out) == (2, ""), text
        assert err.startswith("usage error: --group entry:"), text
    assert invoke_ok(capsys, "construct", "--group", " 2, 6 ")["group"] == {
        "invariant_factors": [2, 6], "order": 12}


def test_plain_decimals_keep_their_signs_and_the_digit_limit(capsys):
    got = invoke_ok(
        capsys, "divisor", "--input", fixture_path("fig3_broom"),
        "--chips", json.dumps({"v2": "+1", "v9": "-18"}), "--op", "degree",
    )
    assert got == {"degree": 0}
    code, _, err = invoke(capsys, "construct", "--group", HUGE)
    assert code == 2
    assert err.startswith("usage error: --group entry:")
    assert "5001 digits" in err and len(err) < 200
    tree = fixture_path("t1")
    for argv in (("construct", "--group", "6", "--prongs", HUGE),
                 ("construct", "--group", "6", "--tree", tree, "--beta", HUGE),
                 ("enumerate", "--input", tree, "--r-bound", HUGE)):
        code, _, err = invoke(capsys, *argv)
        assert code == 2
        assert err.startswith(f"usage error: argument {argv[-2]}:")
        assert "5001 digits" in err and len(err) < 200


def test_module_entry_point_matches_run(capsys):
    argv = ["iota", "--input", fixture_path("t1")]
    want = invoke_ok(capsys, *argv)
    src = str(Path(critforge.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-m", "critforge.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout) == want


@pytest.mark.parametrize("prongs", ["0", "-2"])
def test_a_prong_count_below_one_is_a_usage_error(capsys, prongs):
    code, out, err = invoke(capsys, "construct", "--group", "6", "--prongs", prongs)
    assert (code, out) == (2, "")
    assert err == f"usage error: --prongs must be at least 1, got {prongs}\n"


def test_a_negative_beta_is_a_usage_error(capsys):
    code, out, err = invoke(capsys, "construct", "--group", "6",
                            "--tree", fixture_path("t1"), "--beta", "-1")
    assert (code, out) == (2, "")
    assert err == "usage error: --beta must be at least 0, got -1\n"


def test_domain_errors_exit_one(capsys, tmp_path):
    # A cycle is not a tree, so decompose and enumerate refuse it.
    for command in ("decompose", "enumerate"):
        code, _, err = invoke(
            capsys, command, "--input", fixture_path("c4_example"))
        assert code == 1
        assert err.startswith("error:")

    # Unsatisfiable construction targets fail the same way.
    code, _, err = invoke(
        capsys, "construct", "--group", ",".join(["4"] * 8),
        "--tree", fixture_path("t1"), "--beta", "1")
    assert code == 1
    assert err.startswith("error:")

    code, _, err = invoke(
        capsys, "construct", "--group", "4",
        "--tree", fixture_path("t1"), "--beta", "9")
    assert code == 1
    assert err.startswith("error:")

    # A document whose labellings disagree is a domain failure, not usage.
    bad = write_doc(tmp_path, "invalid.json", {
        "vertices": ["a", "b"],
        "edges": [["a", "b"]],
        "r": {"a": "1", "b": "1"},
        "d": {"a": "2", "b": "1"},
    })
    code, _, err = invoke(capsys, "group", "--input", bad)
    assert code == 1
    assert err.startswith("error: invalid structure")


def test_help_exits_zero(capsys):
    code, out, _ = invoke(capsys, "--help")
    assert code == 0
    assert "usage" in out
    code, out, _ = invoke(capsys, "construct", "--help")
    assert code == 0
    assert out.startswith("usage: critforge construct")


# Past the interpreter's 4300-digit limit on int <-> str conversion.
HUGE = "1" + "0" * 5000


def star_text(r_a):
    """A two-leaf star document whose r value at ``a`` is the given JSON text."""
    return ('{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], '
            '"r": {"a": %s, "b": 1, "c": 1}}' % r_a)


def test_huge_json_number_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(star_text(HUGE)))
    code, out, err = invoke(capsys, "group", "--input", "-")
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: document holds an integer")
    assert "Traceback" not in err


def test_huge_string_value_is_echoed_truncated(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(star_text(f'"{HUGE}"')))
    code, _, err = invoke(capsys, "group", "--input", "-")
    assert code == 2
    assert err.startswith("usage error: r[a]:")
    assert "5001 digits" in err
    assert len(err) < 200


def test_long_garbage_value_is_echoed_truncated(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(star_text(f'"{"x" * 5000}"')))
    code, _, err = invoke(capsys, "group", "--input", "-")
    assert code == 2
    assert "is not a decimal integer" in err
    assert "5000 characters" in err
    assert len(err) < 200


def test_deeply_nested_json_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("[" * 100000 + "]" * 100000))
    code, _, err = invoke(capsys, "group", "--input", "-")
    assert code == 2
    assert err.startswith("usage error:")


def test_result_past_the_digit_limit_exits_one(capsys, monkeypatch, tmp_path):
    # Two 3000-digit multi-edges in a path: the group order has about
    # 6000 digits, more than can be written out.
    m = "1" + "0" * 2999
    text = ('{"vertices": ["a", "b", "c"], '
            '"edges": [["a", "b", %s], ["b", "c", %s]], '
            '"r": {"a": 1, "b": 1, "c": 1}}' % (m, m))
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = invoke(capsys, "group", "--input", "-")
    assert code == 1
    assert out == ""
    assert err.startswith("error: a result has more than")

    # Merged labellings are written as decimal strings; here d(a) = m^2.
    left = tmp_path / "left.json"
    left.write_text('{"vertices": ["a", "b"], "edges": [["a", "b", %s]], '
                    '"r": {"a": "1", "b": "%s"}}' % (m, m), encoding="utf-8")
    code, out, err = invoke(capsys, "merge", "--left", str(left),
                            "--right", fixture_path("fig1_star3"),
                            "--left-vertex", "b", "--right-vertex", "s0")
    assert code == 1
    assert out == ""
    assert err.startswith("error: a result has more than")


# Names and values for random documents.  A value is JSON text: small
# numbers, numbers and strings under and past the digit limit, and
# things that are not integers at all.
FUZZ_NAMES = ("a", "b", "c", "d", "e")
FUZZ_VALUES = st.one_of(
    st.integers(-3, 60).map(str),
    st.integers(-3, 60).map(lambda x: f'"{x}"'),
    st.sampled_from(["1" + "0" * 2500, '"1' + "0" * 2500 + '"', "2" * 2500,
                     HUGE, f'"{HUGE}"', "-" + HUGE, '"12a"', '""', "1.5",
                     "true", "null", "[]", '{"x": 1}']),
)


@st.composite
def fuzz_documents(draw):
    names = draw(st.lists(st.sampled_from(FUZZ_NAMES), min_size=2, max_size=5,
                          unique=True))
    pairs = [(u, v) for i, u in enumerate(names) for v in names[i + 1:]]
    # A spanning path, with an edge sometimes missing; extra pairs add
    # cycles and multi-edges.
    edges = [(u, v, None) for u, v in zip(names, names[1:])
             if draw(st.integers(0, 9))]
    for u, v in draw(st.lists(st.sampled_from(pairs), max_size=4)):
        mult = draw(st.one_of(st.none(), st.sampled_from("123"), FUZZ_VALUES))
        edges.append((u, v, mult))
    ends = sorted({x for u, v, _ in edges for x in (u, v)})
    vertices = ends if draw(st.integers(0, 9)) else draw(
        st.lists(st.sampled_from(FUZZ_NAMES), max_size=5))
    parts = ['"vertices": [%s]' % ", ".join(f'"{v}"' for v in vertices),
             '"edges": [%s]' % ", ".join(
                 f'["{u}", "{v}"]' if m is None else f'["{u}", "{v}", {m}]'
                 for u, v, m in edges)]
    for key, kinds in (("r", ["ones"] * 4 + ["absent", "empty", "partial", "full"]),
                       ("d", ["absent"] * 4 + ["empty", "partial", "full"])):
        kind = draw(st.sampled_from(kinds))
        if kind == "absent":
            continue
        keys = {"empty": [], "full": ends, "ones": ends,
                "partial": ends[:draw(st.integers(0, len(ends)))]}[kind]
        vals = ["1" if kind == "ones" else draw(FUZZ_VALUES) for _ in keys]
        body = ", ".join(f'"{k}": {x}' for k, x in zip(keys, vals))
        parts.append(f'"{key}": {{{body}}}')
    return "{%s}" % ", ".join(parts)


@settings(max_examples=200, deadline=None)
@given(fuzz_documents())
def test_group_keeps_the_exit_contract_on_random_documents(text):
    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["group", "--input", "-"])
    finally:
        sys.stdin = stdin
    err = err.getvalue()
    assert "Traceback" not in err
    assert code in (0, 1, 2)
    if code == 0:
        got = json.loads(out.getvalue())
        assert set(got) == {"invariant_factors", "order"}
    else:
        assert out.getvalue() == ""
        assert err.startswith("usage error:" if code == 2 else "error:")
