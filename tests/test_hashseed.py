"""Answers must not depend on Python's string hash seed.

A set-order dependence would otherwise show only under whatever hash
seed the test run happens to draw; here one script runs under two fixed
seeds, and its digests must agree.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

SCRIPT = """
import hashlib, traceback
from critforge import reduce_support, starlike_decomposition
from test_chipfiring import divisor_digest, divisor_golden_cases, sweep_golden_cases
from test_construct import golden_cases, realization_record
from test_enumeration import enumeration_digest
from test_treedecomp import decomposition_digest, decomposition_golden_cases

def reduced(g, s, delta):
    try:
        return reduce_support(g, s.d, delta, starlike_decomposition(g))
    except AssertionError as exc:
        return traceback.extract_tb(exc.__traceback__)[-1].line

def digest(records):
    return hashlib.sha256(repr(list(records)).encode()).hexdigest()

print(divisor_digest(divisor_golden_cases()))
print(digest(reduced(*case) for case in sweep_golden_cases()))
print(digest(realization_record(*case) for case in golden_cases()))
print(decomposition_digest(decomposition_golden_cases()))
print(enumeration_digest())
"""


def test_digests_do_not_depend_on_the_hash_seed():
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)])
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        proc = subprocess.run(
            [sys.executable, *["-O"] * sys.flags.optimize, "-c", SCRIPT],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert len(outputs[0]) == 5
    assert outputs[0] == outputs[1]
