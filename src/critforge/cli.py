"""Command line front end over structured-text tree documents.

A document is a JSON object with ``vertices``, ``edges`` (pairs, or
triples with a multiplicity), and optional ``r`` and ``d`` maps whose
values are decimal strings, so consumers never face native integer
overflow.  All output is deterministic: sorted keys, two-space indent,
decimal strings inside maps, plain integers for small summary scalars.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from importlib import resources
from math import gcd
from typing import Any, Mapping, NoReturn

from .arithstruct import (
    ArithmeticalStructure,
    ArithStructError,
    critical_group,
    structure_from_r,
    validate,
)
from .chipfiring import (
    ChipFiringError,
    divisor_degree,
    equivalent,
    full_divisor,
    order_in_group,
)
from .construct import (
    ConstructError,
    broom_with_group,
    realize_group,
    realize_on_subdivision,
)
from .enumeration import EnumerationConfig, EnumerationError, enumerate_structures
from .exactlinalg import AbelianGroup, ExactLinalgError
from .graphcore import Graph, GraphError, Tree, build_graph
from .mergestar import MergeStarError, _additivity, merge_structures
from .treedecomp import (
    TreeDecompError,
    iota,
    starlike_decomposition,
    two_matching_number,
)


class UsageError(Exception):
    """Malformed input or flags; maps to exit code 2."""


class OutputTooLarge(Exception):
    """A result integer has more digits than the interpreter will write
    as text; maps to exit code 1."""


DOMAIN_ERRORS = (
    OutputTooLarge,
    GraphError,
    ArithStructError,
    ChipFiringError,
    TreeDecompError,
    MergeStarError,
    ConstructError,
    EnumerationError,
    ExactLinalgError,
)


# Input strings longer than this are echoed in messages as a prefix
# plus their length.
ECHO_CHARS = 32


def _echo(text: str) -> str:
    if len(text) <= ECHO_CHARS:
        return repr(text)
    return f"{text[:ECHO_CHARS]!r}... ({len(text)} characters)"


# Plain ASCII decimals only: int() would also take spaces, underscores
# and non-ASCII digits.
_DECIMAL = re.compile(r"[+-]?[0-9]+")


def _decimal(text: str) -> int:
    """The one decimal parser; its ValueError says why ``text`` is refused."""
    if not _DECIMAL.fullmatch(text):
        raise ValueError(f"{_echo(text)} is not a decimal integer")
    try:
        return int(text)
    except ValueError:
        raise ValueError(
            f"{_echo(text)} has {len(text.lstrip('+-'))} digits, more "
            f"than the {sys.get_int_max_str_digits()} that can be read"
        ) from None


def _decimal_arg(text: str) -> int:
    """argparse type for the integer flags."""
    try:
        return _decimal(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _as_int(value: Any, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise UsageError(f"{what}: expected an integer, got {value!r}")
    if isinstance(value, int):
        return value
    try:
        return _decimal(value)
    except ValueError as exc:
        raise UsageError(f"{what}: {exc}") from None


def _too_large() -> OutputTooLarge:
    return OutputTooLarge(
        f"a result has more than {sys.get_int_max_str_digits()} digits"
    )


def _decimal_out(x: int) -> str:
    try:
        return str(x)
    except ValueError:
        raise _too_large() from None


def _load_json(text: str, what: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} is not valid JSON: {exc}") from None
    except ValueError:
        # the only other refusal: an integer past the digit limit
        raise UsageError(
            f"{what} holds an integer with more than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from None
    except RecursionError:
        raise UsageError(f"{what} nests too deeply") from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def parse_document(text: str) -> tuple[Graph, dict[str, int] | None, dict[str, int] | None]:
    """Parse a tree document into a graph plus optional r and d maps."""
    data = _load_json(text, "document")
    if not isinstance(data, dict):
        raise UsageError("document must be a JSON object")
    for key in ("vertices", "edges"):
        if key not in data:
            raise UsageError(f"document lacks the {key!r} field")
    vertices = data["vertices"]
    edges = data["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, (str, int)) for v in vertices):
        raise UsageError("'vertices' must be a list of identifiers")
    if not isinstance(edges, list):
        raise UsageError("'edges' must be a list")
    norm_edges = []
    for e in edges:
        if not isinstance(e, list) or len(e) not in (2, 3):
            raise UsageError(f"edge {e!r} is not a pair or triple")
        u, v = str(e[0]), str(e[1])
        if len(e) == 3:
            norm_edges.append((u, v, _as_int(e[2], "edge multiplicity")))
        else:
            norm_edges.append((u, v))
    g = build_graph(norm_edges)
    names = sorted(str(v) for v in vertices)
    if names != list(g.vertices):
        raise UsageError(
            "'vertices' does not match the endpoints of 'edges'"
        )
    r, d = (None if data.get(key) is None else _vertex_map(g, data[key], key)
            for key in ("r", "d"))
    return g, r, d


def load_document(path: str) -> tuple[Graph, dict[str, int] | None, dict[str, int] | None]:
    return parse_document(_read_text(path))


def _need_structure(g: Graph, r: Mapping[str, int] | None,
                    d: Mapping[str, int] | None) -> ArithmeticalStructure:
    if r is None:
        raise UsageError("this subcommand needs an 'r' map in the document")
    if d is not None:
        ok, bad = validate(g, d, r)
        if not ok:
            raise ArithStructError(f"invalid structure: {bad[0]}")
        return ArithmeticalStructure(graph=g, r=dict(r), d=dict(d))
    return structure_from_r(g, r)


def document_of(g: Graph, s: ArithmeticalStructure | None = None,
                extra: dict[str, Any] | None = None) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "vertices": list(g.vertices),
        "edges": [
            [u, v] if mult == 1 else [u, v, mult] for u, v, mult in g.edges()
        ],
    }
    if s is not None:
        doc["r"] = {v: _decimal_out(s.r[v]) for v in g.vertices}
        doc["d"] = {v: _decimal_out(s.d[v]) for v in g.vertices}
    if extra:
        doc.update(extra)
    return doc


def _emit(obj: Any) -> None:
    try:
        text = json.dumps(obj, indent=2, sort_keys=True)
    except ValueError:  # a plain integer in the output, such as a group order
        raise _too_large() from None
    sys.stdout.write(text + "\n")


def _vertex_map(g: Graph, raw: Any, what: str) -> dict[str, int]:
    """A map of g's vertices to integers; ``what`` labels the messages."""
    if not isinstance(raw, dict):
        raise UsageError(f"{what} must be a map")
    out = {}
    for k, val in raw.items():
        k = str(k)
        if not g.has_vertex(k):
            raise UsageError(f"{what} mentions unknown vertex {k!r}")
        out[k] = _as_int(val, f"{what}[{k}]")
    return out


def _parse_group(text: str) -> AbelianGroup:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise UsageError("--group needs at least one integer")
    vals = [_as_int(p, "--group entry") for p in parts]
    if vals == [1]:
        return AbelianGroup.trivial()
    for x in vals:
        if x < 2:
            raise UsageError(f"--group entry {x} is below 2")
    for a, b in zip(vals, vals[1:]):
        if b % a:
            raise UsageError(
                f"--group must be a divisibility chain smallest-to-largest; "
                f"{a} does not divide {b}"
            )
    return AbelianGroup(tuple(vals))


def _group_json(k: AbelianGroup) -> dict[str, Any]:
    return {
        "invariant_factors": list(k.invariant_factors),
        "order": k.order,
    }


def cmd_validate(ns: argparse.Namespace) -> int:
    g, r, d = load_document(ns.input)
    if r is None:
        raise UsageError("validate needs an 'r' map in the document")
    if d is not None:
        _, problems = validate(g, d, r)
    else:
        try:
            structure_from_r(g, r)
            problems = []
        except ArithStructError as exc:
            problems = [str(exc)]
    _emit({"valid": not problems, "problems": problems})
    return 0


def cmd_group(ns: argparse.Namespace) -> int:
    g, r, d = load_document(ns.input)
    s = _need_structure(g, r, d)
    _emit(_group_json(critical_group(g, s)))
    return 0


def cmd_divisor(ns: argparse.Namespace) -> int:
    g, r, d = load_document(ns.input)
    s = _need_structure(g, r, d)
    chips = _vertex_map(g, _load_json(ns.chips, "--chips"), "--chips")
    if ns.op == "degree":
        _emit({"degree": divisor_degree(full_divisor(g, chips), s.r)})
    elif ns.op == "order":
        _emit({"order": order_in_group(g, s, chips)})
    else:
        if ns.other is None:
            raise UsageError("--op equivalent needs --other")
        other = _vertex_map(g, _load_json(ns.other, "--other"), "--other")
        witness = equivalent(g, s.d, chips, other)
        _emit({
            "equivalent": witness is not None,
            "firing_vector": None if witness is None
            else {v: _decimal_out(x) for v, x in witness.items()},
        })
    return 0


def cmd_decompose(ns: argparse.Namespace) -> int:
    g, _, _ = load_document(ns.input)
    t = Tree.from_graph(g)
    dec = starlike_decomposition(t)
    pieces = []
    for i, piece in enumerate(dec.pieces):
        is_split = i < len(dec.splittings)
        entry: dict[str, Any] = {
            "vertices": list(piece.vertices),
            "leaves": len(piece.leaves),
            "center": piece.branch_vertices[0] if piece.branch_vertices else None,
        }
        if is_split:
            sp = dec.splittings[i]
            entry["merge_leaf"] = sp.merge_leaf
            entry["target"] = sp.target
            entry["regular"] = sp.regular
        else:
            entry["merge_leaf"] = None
            entry["target"] = None
            entry["regular"] = None
        pieces.append(entry)
    _emit({"iota": dec.irregular_count, "pieces": pieces})
    return 0


def cmd_iota(ns: argparse.Namespace) -> int:
    g, _, _ = load_document(ns.input)
    t = Tree.from_graph(g)
    io = iota(t)
    leaves = len(t.leaves)
    _emit({"iota": io, "leaves": leaves, "bound": leaves - 2 - io})
    return 0


def cmd_nu2(ns: argparse.Namespace) -> int:
    g, _, _ = load_document(ns.input)
    t = Tree.from_graph(g)
    nu = two_matching_number(t)
    _emit({
        "nu2": nu,
        "edges": t.edge_count,
        "bound": t.edge_count - nu,
    })
    return 0


def cmd_merge(ns: argparse.Namespace) -> int:
    g1, r1, d1 = load_document(ns.left)
    g2, r2, d2 = load_document(ns.right)
    s1 = _need_structure(g1, r1, d1)
    s2 = _need_structure(g2, r2, d2)
    if not g1.has_vertex(ns.left_vertex):
        raise UsageError(f"--left-vertex {ns.left_vertex!r} not in the left graph")
    if not g2.has_vertex(ns.right_vertex):
        raise UsageError(f"--right-vertex {ns.right_vertex!r} not in the right graph")
    args = (g1, ns.left_vertex, s1, g2, ns.right_vertex, s2)
    merged, sm = merge_structures(*args)
    k1, k2, km, additive = _additivity(*args, merged, sm)
    g0 = gcd(s1.r[ns.left_vertex], s2.r[ns.right_vertex])
    _emit(document_of(merged, sm, extra={
        "merge_report": {
            "glued_gcd": g0,
            "additive": additive,
            "order_identity_holds": km.order == k1.order * k2.order * g0 * g0,
            "left_group": _group_json(k1),
            "right_group": _group_json(k2),
            "merged_group": _group_json(km),
        }
    }))
    return 0


def cmd_construct(ns: argparse.Namespace) -> int:
    if ns.prongs is not None and ns.prongs < 1:
        raise UsageError(f"--prongs must be at least 1, got {ns.prongs}")
    if ns.beta is not None and ns.beta < 0:
        raise UsageError(f"--beta must be at least 0, got {ns.beta}")
    target = _parse_group(ns.group)
    if ns.tree is not None:
        if ns.beta is None:
            raise UsageError("--tree needs --beta")
        if ns.prongs is not None:
            raise UsageError("--prongs does not go with --tree")
        g, _, _ = load_document(ns.tree)
        t = Tree.from_graph(g)
        tree, s = realize_on_subdivision(t, target, ns.beta)
    elif ns.beta is not None:
        raise UsageError("--beta needs --tree")
    elif ns.prongs is not None:
        tree, s = broom_with_group(target, ns.prongs)
    else:
        tree, s = realize_group(target)
    # every route has checked its group against the target already
    _emit(document_of(tree, s, extra={"group": _group_json(target)}))
    return 0


def cmd_enumerate(ns: argparse.Namespace) -> int:
    g, _, _ = load_document(ns.input)
    t = Tree.from_graph(g)
    try:
        cfg = EnumerationConfig(r_bound=ns.r_bound, vertex_cap=ns.vertex_cap)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    structures = enumerate_structures(t, cfg)
    _emit({
        "count": len(structures),
        "structures": [
            {
                "r": {v: _decimal_out(s.r[v]) for v in t.vertices},
                "d": {v: _decimal_out(s.d[v]) for v in t.vertices},
            }
            for s in structures
        ],
    })
    return 0


def fixture_path(name: str) -> str:
    """Filesystem path of a shipped example document."""
    if not name.endswith(".json"):
        name += ".json"
    ref = resources.files("critforge").joinpath("fixtures").joinpath(name)
    with resources.as_file(ref) as p:
        return str(p)


class _Parser(argparse.ArgumentParser):
    """Bad flags exit 2 with ``usage error: ...``; subparsers inherit the class."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="critforge",
        description="Arithmetical structures, chip firing, and critical groups on trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def with_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True,
                       help="tree document path, or - for stdin")

    p = sub.add_parser("validate", help="check a structure document")
    with_input(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("group", help="critical group of a structure")
    with_input(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("divisor", help="degree, order, or equivalence of chip piles")
    with_input(p)
    p.add_argument("--chips", required=True, help="JSON map of vertex to chip count")
    p.add_argument("--op", required=True, choices=("degree", "order", "equivalent"))
    p.add_argument("--other", help="second chip map for --op equivalent")
    p.set_defaults(func=cmd_divisor)

    p = sub.add_parser("decompose", help="starlike decomposition of a tree")
    with_input(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("iota", help="irregular splitting count and leaf bound")
    with_input(p)
    p.set_defaults(func=cmd_iota)

    p = sub.add_parser("nu2", help="2-matching number and edge bound")
    with_input(p)
    p.set_defaults(func=cmd_nu2)

    p = sub.add_parser("merge", help="merge two structures at a vertex")
    p.add_argument("--left", required=True, help="left document path")
    p.add_argument("--right", required=True, help="right document path")
    p.add_argument("--left-vertex", required=True)
    p.add_argument("--right-vertex", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("construct", help="build a structure with a given group")
    p.add_argument("--group", required=True,
                   help="invariant factors smallest-to-largest, e.g. 3,18; 1 for trivial")
    p.add_argument("--tree", help="realize on a subdivision of this tree document")
    p.add_argument("--beta", type=_decimal_arg, help="required irregularity of the subdivision")
    p.add_argument("--prongs", type=_decimal_arg, help="build a broom with this many prongs")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("enumerate", help="list structures on a small tree")
    with_input(p)
    p.add_argument("--r-bound", type=_decimal_arg, default=60)
    p.add_argument("--vertex-cap", type=_decimal_arg, default=12)
    p.set_defaults(func=cmd_enumerate)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return ns.func(ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
