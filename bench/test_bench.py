"""Smoke tests of the benchmark itself.

    python -m pytest bench/test_bench.py

Each workload runs once untraced and once traced with a one-second
budget (so one pass each), and must print every metric BENCHMARK.json
names, with its unit.  The tracer must leave the library as it found it,
and only reduce_support's leaf postcondition may count as its known
defect.
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def namespaces():
    mods = [importlib.import_module("critforge")] + [
        importlib.import_module(f"critforge.{layer}") for layer in LAYERS
    ]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_tracer_restores_every_binding_and_records_nested_spans():
    import critforge as cf

    before = namespaces()
    tracer = Tracer()
    with tracer:
        assert cf.arithstruct.smith_normal_form is not before[
            ("critforge.arithstruct", "smith_normal_form")]
        t = cf.build_tree([("a", "b"), ("b", "c"), ("b", "d")])
        cf.critical_group(t, cf.laplacian_structure(t))
    after = namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    names = [tracer.names[k] for k in tracer.name_of_span]
    group = names.index("arithstruct.critical_group")
    smith = names.index("exactlinalg.smith_normal_form")
    assert tracer.parent[group] == -1
    assert tracer.parent[smith] == group
    metrics = tracer.layer_metrics()
    assert metrics["exactlinalg.smith_calls"] == 1
    assert metrics["arithstruct.group_calls"] == 1
    assert metrics["exactlinalg.self_s"] > 0


def test_only_the_leaf_postcondition_counts_as_the_known_defect():
    import critforge as cf
    from workloads import DivisorOps, is_known_defect

    for tree, s, _, _, delta, *_ in DivisorOps(1).units:
        try:
            cf.reduce_support(tree, s.d, delta, cf.starlike_decomposition(tree))
        except AssertionError as exc:
            assert is_known_defect(exc)
            break
    else:
        pytest.fail("no divisor at seed 1 met the known reduce_support defect")
    try:
        assert tree.vertex_count < 0
    except AssertionError as exc:
        assert not is_known_defect(exc)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "cli_fixtures", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
