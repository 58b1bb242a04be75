"""The benchmark workloads: seeded inputs, units of work, answer checks.

Each workload class builds its inputs from a seed in ``__init__`` (the
timed set-up) and exposes ``units``, a seeded list of work items.  The
first ``pass_len`` units form one pass; ``pass_seconds`` is the nominal
length of a pass (on a 2-core x86-64 virtual machine with Python 3.11),
from which a run's fixed number of passes is derived.  ``run_unit(i,
rec)`` performs unit ``i`` and records one latency per op, with the
answer checks inside the op.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import os
import random
import subprocess
import sys
import traceback
from itertools import combinations
from math import gcd
from pathlib import Path
from statistics import median
from time import perf_counter

import critforge as cf
from critforge import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Recorder:
    """Op latencies and outcomes of one run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.failed = 0
        self.known_defects = 0
        self.unexpected: list[str] = []
        self.timers: dict[str, float] = {}

    def op(self, seconds: float, problem: str | None = None,
           known_defect: bool = False) -> None:
        """Record one op; a problem or a known defect makes it a failure."""
        self.latencies.append(seconds)
        if problem is not None:
            self.failed += 1
            if len(self.unexpected) < 20:
                self.unexpected.append(problem)
            elif len(self.unexpected) == 20:
                self.unexpected.append("... further problems not listed")
        elif known_defect:
            self.failed += 1
            self.known_defects += 1

    def problem(self, text: str) -> None:
        """A check that fails outside any single op."""
        self.unexpected.append(text)

    def add_time(self, key: str, seconds: float) -> None:
        self.timers[key] = self.timers.get(key, 0.0) + seconds


def canonical_tree(t) -> list:
    return [[u, v] for u, v, _ in t.edges()]


def prufer_tree(n: int, rng: random.Random, prefix: str = "v"):
    """A uniformly random labelled tree on n >= 2 vertices."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    width = len(str(n - 1))
    return cf.build_tree(
        [(f"{prefix}{u:0{width}d}", f"{prefix}{v:0{width}d}") for u, v in edges]
    )


def draw_chain(rng: random.Random, count: int) -> "cf.AbelianGroup":
    """A divisibility chain of ``count`` factors whose top lies in 6..10.

    A small top factor keeps the broom tails short, so the realized
    tree stays close to the input tree in size.
    """
    chain = [rng.randint(6, 10)]
    for _ in range(count - 1):
        divisors = [d for d in range(2, chain[0] + 1) if chain[0] % d == 0]
        chain.insert(0, rng.choice(divisors))
    return cf.AbelianGroup(tuple(chain))


def subdivision_case(rng: random.Random, n: int):
    """A seeded n-vertex tree with a target group and beta within its bounds.

    The target has two factors where the bound allows, and beta sits two
    to four below the tree's iota, so the realized tree's size varies
    little from seed to seed.
    """
    t = prufer_tree(n, rng)
    base_iota = cf.iota(t)
    bound = cf.invariant_factor_bound(t)
    target = draw_chain(rng, min(2, bound))
    beta = max(0, base_iota - rng.randint(2, 4))
    return t, target, beta


# ---------------------------------------------------------------- corpus

# The r-value budgets of tests/corpus.py, keyed by leaf count.
R_BOUND_BY_LEAVES = {2: 60, 3: 36, 4: 24, 5: 15, 6: 10, 7: 8}
CORPUS_STRUCTURES = 14863


class CorpusSweep:
    """Every tree shape on 2 to 7 vertices; one op is one structure."""

    name = "corpus_sweep"
    pass_seconds = 16.0

    def __init__(self, seed: int) -> None:
        # Imported here so that only this workload pays for networkx.
        import networkx as nx

        shapes = []
        for n in range(2, 8):
            for g in nx.nonisomorphic_trees(n):
                shapes.append(cf.build_tree(
                    [(f"n{u:02d}", f"n{v:02d}") for u, v in g.edges()]
                ))
        random.Random(seed).shuffle(shapes)
        self.units = shapes
        self.pass_len = len(shapes)
        self._structures = [0] * len(shapes)

    def canonical(self) -> list:
        return [canonical_tree(t) for t in self.units]

    def run_unit(self, i: int, rec: Recorder) -> None:
        t = self.units[i % self.pass_len]
        config = cf.EnumerationConfig(
            r_bound=R_BOUND_BY_LEAVES[max(2, len(t.leaves))], vertex_cap=12
        )
        structures = cf.enumerate_structures(t, config)
        cf.iota(t)
        bound = cf.invariant_factor_bound(t)
        starlike = t.is_starlike
        for s in structures:
            t0 = perf_counter()
            k = cf.critical_group(t, s)
            via_quotient = cf.starlike_critical_group(t, s) if starlike else k
            order = cf.tree_order_formula(t, s.r)
            elapsed = perf_counter() - t0
            problem = None
            if k.order != order:
                problem = f"order {k.order} != tree_order_formula {order}"
            elif len(k.invariant_factors) > bound:
                problem = f"{k} has more than {bound} invariant factors"
            elif via_quotient != k:
                problem = f"starlike route {via_quotient} != dense route {k}"
            rec.op(elapsed, problem)
        # Counted per shape, so a unit run twice (traced runs) counts once.
        self._structures[i % self.pass_len] = len(structures)
        total = sum(self._structures)
        if i % self.pass_len == self.pass_len - 1 and total != CORPUS_STRUCTURES:
            rec.problem(f"a pass enumerated {total} structures, "
                        f"expected {CORPUS_STRUCTURES}")

    trace_unit = run_unit


# ----------------------------------------------------------- large trees

# Input sizes are fixed and only shapes, targets and moduli are drawn,
# because the dense Smith form costs about the cube of the size: a seed
# that drew larger trees would otherwise move every timing.  Sixteen
# trees of 100 vertices put the median op among many shapes; one smaller
# and one larger tree and broom bracket them.
TREE_SIZES = (40,) + (100,) * 16 + (150,)
BROOM_MODULI = ((55, 66), (165, 176))


class LargeTrees:
    """Constructions on seeded large trees and cyclic brooms.

    One op is one construction followed by ``critical_group`` on its
    result.  A pass draws one tree of each size in ``TREE_SIZES`` and one
    broom ``Z/m`` from each modulus range.
    """

    name = "large_trees"
    pass_seconds = 16.0

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        units = [("subdivision", *subdivision_case(rng, n)) for n in TREE_SIZES]
        units += [("broom", None, cf.AbelianGroup.cyclic(rng.randrange(lo, hi)), None)
                  for lo, hi in BROOM_MODULI]
        rng.shuffle(units)
        self.units = units
        self.pass_len = len(units)

    def canonical(self) -> list:
        return [[kind, canonical_tree(t) if t else None,
                 list(target.invariant_factors), beta]
                for kind, t, target, beta in self.units]

    def run_unit(self, i: int, rec: Recorder) -> None:
        kind, t, target, beta = self.units[i % self.pass_len]
        t0 = perf_counter()
        if kind == "broom":
            tree, s = cf.broom_with_group(target, 1)
        else:
            tree, s = cf.realize_on_subdivision(t, target, beta)
        t1 = perf_counter()
        k = cf.critical_group(tree, s)
        t2 = perf_counter()
        problem = None
        if k != target:
            problem = f"realized {k}, wanted {target}"
        elif k.order != cf.tree_order_formula(tree, s.r):
            problem = f"order of {k} != tree_order_formula"
        elif kind == "subdivision" and cf.iota(tree) != beta:
            problem = f"iota of the result != requested {beta}"
        elapsed = perf_counter() - t0
        rec.add_time("construct_s", t1 - t0)
        rec.add_time("group_s", t2 - t1)
        rec.op(elapsed, problem)

    trace_unit = run_unit


# ----------------------------------------------------------- divisor ops

# The cost of an op varies a lot with the tree's shape, not only its
# size, so a pass holds many structures with few divisors each: 174
# structures and 348 divisors, enough that the median op differs little
# from seed to seed.
LAPLACIAN_SIZES = tuple(range(10, 61, 5)) * 12
REALIZED_SIZES = tuple(range(12, 31, 3)) * 6
DIVISORS_PER_STRUCTURE = 2

# The asserts at the end of reduce_support that its known defect breaks:
# the reduced support must lie on the allowed ends, which must be leaves
# of t.  Its other asserts, and any other exception, are not that defect.
KNOWN_DEFECT_ASSERTS = frozenset({
    "assert all(v in allowed for v in support)",
    "assert t.vertex_count == 1 or all(t.degree(v) == 1 for v in support)",
})


def is_known_defect(exc: AssertionError) -> bool:
    """True when reduce_support raised one of ``KNOWN_DEFECT_ASSERTS``."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return (frame.name == "reduce_support"
            and Path(frame.filename).name == "chipfiring.py"
            and frame.line in KNOWN_DEFECT_ASSERTS)


def support_budget(dec) -> int:
    """How many vertices the reduced support may hold, as reduce_support
    asserts it; checked here too so that ``python -O`` checks it."""
    return sum(max(len(p.leaves) - 2, 0) for p in dec.pieces) + 1


def minors_gcd(block: list[list[int]], k: int) -> int:
    """gcd of the k x k minors of a small block, for k of 1 or 2."""
    g = 0
    cols = range(len(block[0]))
    for rows in combinations(range(len(block)), k):
        for cs in combinations(cols, k):
            if k == 1:
                minor = block[rows[0]][cs[0]]
            else:
                (a, b), (c, d) = ([block[r][c] for c in cs] for r in rows)
                minor = a * d - b * c
            g = gcd(g, minor)
    return g


class DivisorOps:
    """Chip firing on Laplacian and realized structures built in set-up.

    One op is one degree-zero divisor: its order, support reduction,
    the equivalence witness to the reduced divisor, a replay of that
    witness by firing, and a clearability question on a small vertex
    set.  When reduce_support refuses by one of ``KNOWN_DEFECT_ASSERTS``,
    the op still asks for a witness, to a divisor set-up reached by
    firing, so an op costs the same whichever way reduce_support ends.
    Any other exception fails the op as an unexpected problem.
    """

    name = "divisor_ops"
    pass_seconds = 12.0

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        structures = []
        for n in LAPLACIAN_SIZES:
            t = prufer_tree(n, rng)
            structures.append((t, cf.laplacian_structure(t)))
        for n in REALIZED_SIZES:
            t, target, beta = subdivision_case(rng, n)
            structures.append(cf.realize_on_subdivision(t, target, beta))
        units = []
        for tree, s in structures:
            order = cf.tree_order_formula(tree, s.r)
            leaves = frozenset(tree.leaves)
            for _ in range(DIVISORS_PER_STRUCTURE):
                delta = self._divisor(rng, tree, s)
                xs = rng.sample(tree.vertices, rng.randint(1, 2))
                ys = sorted(set(xs) | set(rng.sample(tree.vertices, 2)))
                units.append((tree, s, order, leaves, delta,
                              self._moved(rng, tree, s, delta), xs, ys,
                              self._clearable(tree, s, xs, ys)))
        rng.shuffle(units)
        self.units = units
        self.pass_len = len(units)

    @staticmethod
    def _divisor(rng: random.Random, tree, s) -> dict[str, int]:
        chosen = rng.sample(tree.vertices, rng.randint(2, 6))
        delta = {v: rng.randint(-4, 4) for v in chosen}
        anchor = rng.choice([v for v in tree.vertices if s.r[v] == 1])
        delta[anchor] = -sum(s.r[v] * c for v, c in delta.items() if v != anchor)
        return delta

    @staticmethod
    def _moved(rng: random.Random, tree, s, delta) -> dict[str, int]:
        """delta after a few seeded firings, computed without the library."""
        out = {v: delta.get(v, 0) for v in tree.vertices}
        for v in rng.sample(tree.vertices, 3):
            times = rng.choice((-2, -1, 1, 2))
            out[v] -= times * s.d[v]
            for w in tree.neighbors(v):
                out[w] += times * tree.multiplicity(v, w)
        return out

    @staticmethod
    def _clearable(tree, s, xs, ys) -> bool:
        """Reference answer: the block's top determinantal divisor is 1."""
        def entry(x, y):
            return s.d[x] if x == y else -tree.multiplicity(x, y)
        xs = sorted(set(xs))
        block = [[entry(x, y) for y in ys] for x in xs]
        return minors_gcd(block, len(xs)) == 1

    def canonical(self) -> list:
        return [[canonical_tree(tree), s.r_vector(), sorted(delta.items()),
                 sorted(moved.items()), xs, ys]
                for tree, s, _, _, delta, moved, xs, ys, _ in self.units]

    def run_unit(self, i: int, rec: Recorder) -> None:
        (tree, s, group_order, leaves, delta, moved, xs, ys,
         clear) = self.units[i % self.pass_len]
        t0 = perf_counter()
        order = cf.order_in_group(tree, s, delta)
        dec = cf.starlike_decomposition(tree)
        try:
            reduced = cf.reduce_support(tree, s.d, delta, dec)
            refused = False
        except AssertionError as exc:
            if not is_known_defect(exc):
                raise
            reduced, refused = moved, True
        witness = cf.equivalent(tree, s.d, delta, reduced)
        replay = {v: delta.get(v, 0) for v in tree.vertices}
        if witness is not None:
            for v, times in witness.items():
                if times:
                    replay = cf.fire(tree, s.d, replay, v, times)
        got_clear = cf.clearable(tree, s.d, xs, ys)
        elapsed = perf_counter() - t0
        problem = None
        if group_order % order:
            problem = f"divisor order {order} does not divide the group order {group_order}"
        elif witness is None:
            problem = "equivalent found no witness for an equivalent divisor"
        elif replay != reduced:
            problem = "replaying the witness by firing missed the target divisor"
        elif got_clear != clear:
            problem = f"clearable({xs}, {ys}) = {got_clear}, minors say {clear}"
        elif not refused and sum(1 for c in reduced.values() if c) > support_budget(dec):
            problem = "reduce_support left more chips than its support budget"
        off_leaves = not refused and any(c and v not in leaves for v, c in reduced.items())
        rec.op(elapsed, problem, known_defect=refused or off_leaves)

    trace_unit = run_unit


# ---------------------------------------------------------- CLI fixtures

CLI_BOOT = "import sys; sys.argv[0] = 'critforge'; from critforge.cli import main; main()"
STRUCTURE_FIXTURES = ("c4_example", "fig1_star3", "fig1_star4", "fig2_merged", "fig3_broom")
TREE_FIXTURES = ("fig1_star3", "fig1_star4", "fig2_merged", "fig3_broom", "t1", "t2",
                 "fig4_tree")


def load_fixture(name: str):
    with open(cli.fixture_path(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    g = cf.build_graph([tuple(e) for e in doc["edges"]])
    r = {v: int(x) for v, x in doc["r"].items()} if "r" in doc else None
    d = {v: int(x) for v, x in doc["d"].items()} if "d" in doc else None
    return g, r, d


def group_json(k) -> dict:
    return {"invariant_factors": list(k.invariant_factors), "order": k.order}


def labelled(tree, s) -> dict:
    return {"vertices": list(tree.vertices),
            "r": {v: str(s.r[v]) for v in tree.vertices},
            "d": {v: str(s.d[v]) for v in tree.vertices}}


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


class CliFixtures:
    """CLI subprocesses over the shipped fixtures; one op is one invocation.

    Each invocation carries the exit code it must give and, for exit 0,
    the fields of its JSON output as the library computes them
    in-process during set-up.
    """

    name = "cli_fixtures"
    pass_seconds = 1.7

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        path = cli.fixture_path
        cases = []

        def case(label, args, code=0, expect=None):
            cases.append((label, [str(a) for a in args], code, expect))

        def structure(name):
            g, r, d = load_fixture(name)
            return g, cf.ArithmeticalStructure(graph=g, r=r, d=d)

        name = rng.choice(STRUCTURE_FIXTURES)
        g, s = structure(name)
        case(f"group {name}", ["group", "--input", path(name)],
             expect=group_json(cf.critical_group(g, s)))

        name = rng.choice(STRUCTURE_FIXTURES)
        g, r, d = load_fixture(name)
        ok, problems = cf.validate(g, d, r)
        case(f"validate {name}", ["validate", "--input", path(name)],
             expect={"valid": ok, "problems": problems})

        name = rng.choice(TREE_FIXTURES)
        t = cf.Tree.from_graph(load_fixture(name)[0])
        case(f"iota {name}", ["iota", "--input", path(name)],
             expect={"iota": cf.iota(t), "leaves": len(t.leaves),
                     "bound": cf.invariant_factor_bound(t)})

        name = rng.choice(TREE_FIXTURES)
        t = cf.Tree.from_graph(load_fixture(name)[0])
        nu = cf.two_matching_number(t)
        case(f"nu2 {name}", ["nu2", "--input", path(name)],
             expect={"nu2": nu, "edges": t.edge_count, "bound": t.edge_count - nu})

        name = rng.choice(TREE_FIXTURES)
        dec = cf.starlike_decomposition(cf.Tree.from_graph(load_fixture(name)[0]))
        case(f"decompose {name}", ["decompose", "--input", path(name)],
             expect={"iota": dec.irregular_count,
                     "pieces": [{"vertices": list(p.vertices)} for p in dec.pieces]})

        g, s = structure("c4_example")
        c2, c3 = rng.randint(-3, 3), rng.randint(-3, 3)
        c4 = rng.randint(-3, 3)
        chips = {"v1": -(2 * c2 + 3 * c3 + c4), "v2": c2, "v3": c3, "v4": c4}
        case("divisor order c4_example",
             ["divisor", "--input", path("c4_example"), "--chips", json.dumps(chips),
              "--op", "order"],
             expect={"order": cf.order_in_group(g, s, chips)})

        g1, s1 = structure("fig1_star3")
        g2, s2 = structure("fig1_star4")
        merged, sm = cf.merge_structures(g1, "s0", s1, g2, "t1", s2)
        _, _, km, additive = cf.check_merge_additivity(g1, "s0", s1, g2, "t1", s2)
        case("merge fig1_star3 fig1_star4",
             ["merge", "--left", path("fig1_star3"), "--right", path("fig1_star4"),
              "--left-vertex", "s0", "--right-vertex", "t1"],
             expect={**labelled(merged, sm), "merge_report": {
                 "additive": additive, "merged_group": group_json(km)}})

        target = cf.AbelianGroup((3, 18))
        case("construct 3,18 prongs 2",
             ["construct", "--group", "3,18", "--prongs", 2],
             expect={**labelled(*cf.broom_with_group(target, 2)),
                     "group": group_json(target)})

        target = cf.AbelianGroup((4,) * 7)
        fig4 = cf.Tree.from_graph(load_fixture("fig4_tree")[0])
        case("construct 4^7 fig4_tree beta 3",
             ["construct", "--group", "4,4,4,4,4,4,4", "--tree", path("fig4_tree"),
              "--beta", 3],
             expect={**labelled(*cf.realize_on_subdivision(fig4, target, 3)),
                     "group": group_json(target)})

        t = cf.Tree.from_graph(load_fixture("fig1_star4")[0])
        found = cf.enumerate_structures(t, cf.EnumerationConfig(r_bound=60))
        case("enumerate fig1_star4", ["enumerate", "--input", path("fig1_star4")],
             expect={"count": len(found),
                     "structures": [{"r": {v: str(x.r[v]) for v in t.vertices},
                                     "d": {v: str(x.d[v]) for v in t.vertices}}
                                    for x in found]})

        case("iota on a cycle (exit 1)", ["iota", "--input", path("c4_example")], code=1)
        case("group chain 4,6 (exit 2)", ["construct", "--group", "4,6", "--prongs", 2],
             code=2)

        rng.shuffle(cases)
        self.units = cases
        self.pass_len = len(cases)
        self.env = cli_env()

    def canonical(self) -> list:
        return [[label, code, expect] for label, _, code, expect in self.units]

    @staticmethod
    def _check(label, code, expect, got_code, out, err) -> str | None:
        if "Traceback" in err:
            return f"{label}: traceback on stderr"
        if got_code != code:
            return f"{label}: exit {got_code}, expected {code}"
        if code:
            prefix = "usage error:" if code == 2 else "error:"
            if out or not err.startswith(prefix):
                return f"{label}: exit {code} without a single '{prefix}' message"
            return None
        try:
            doc = json.loads(out)
        except json.JSONDecodeError:
            return f"{label}: stdout is not JSON"
        for key, want in expect.items():
            got = doc.get(key)
            # Only some fields of these two are computed in set-up.
            if key == "merge_report" and isinstance(got, dict):
                got = {k: got.get(k) for k in want}
            elif key == "pieces" and isinstance(got, list):
                got = [{"vertices": p.get("vertices")} for p in got]
            if got != want:
                return f"{label}: field {key!r} differs from the library answer"
        return None

    def run_unit(self, i: int, rec: Recorder) -> None:
        label, args, code, expect = self.units[i % self.pass_len]
        t0 = perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", CLI_BOOT, *args], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=120,
        )
        elapsed = perf_counter() - t0
        rec.op(elapsed, self._check(label, code, expect, proc.returncode,
                                    proc.stdout, proc.stderr))

    def trace_unit(self, i: int, rec: Recorder) -> None:
        """The same invocation through ``cli.run`` in this process."""
        label, args, code, expect = self.units[i % self.pass_len]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            got = cli.run(list(args))
        elapsed = perf_counter() - t0
        rec.op(elapsed, self._check(label, code, expect, got,
                                    out.getvalue(), err.getvalue()))


WORKLOADS = {w.name: w for w in (CorpusSweep, LargeTrees, DivisorOps, CliFixtures)}


def cli_costs(seed: int) -> dict[str, float]:
    """Median wall ms of a bare interpreter, of importing critforge.cli on
    top of it, and of one fixture invocation through ``cli.run`` in-process.

    Bare and importing interpreters alternate, and the import cost is the
    median of their paired differences, so drift on the machine cancels.
    """
    env = cli_env()

    def wall(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                       check=True, timeout=60)
        return (perf_counter() - t0) * 1e3

    bare, extra = [], []
    for _ in range(10):
        bare.append(wall("pass"))
        extra.append(wall("import critforge.cli") - bare[-1])
    fixtures = CliFixtures(seed)
    rec = Recorder()
    for _ in range(3):
        for i in range(fixtures.pass_len):
            fixtures.trace_unit(i, rec)
    return {"cli.startup_ms": median(bare), "cli.import_ms": median(extra),
            "cli.inproc_ms": median(rec.latencies) * 1e3}
