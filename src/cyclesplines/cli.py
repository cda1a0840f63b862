"""Command line interface.

Usage:
    cyclesplines verify    --cycle 2,5,3 --labels 0,2,12
    cyclesplines basis     --cycle 3,4,8,2,5 --kind king
    cyclesplines decompose --cycle 2,5,3 --labels 1,3,13 --kind triangulation
    cyclesplines multiply  --cycle 3,4,8,2,5 --kind king --i 1 --j 3
    cyclesplines table     --cycle 2,5,3 --kind triangulation
    cyclesplines oracle smallest    --cycle 2,5,3 --k 1
    cyclesplines oracle check-basis --cycle 2,5,3 --kind triangulation
    cyclesplines oracle extension   --cycle 2,6,15,10 --k 1 --labels 0,2,50,200

Input comes from --cycle (comma-separated labels) or --input FILE, a JSON
document with either {"cycle": [2, 5, 3]} or
{"graph": {"vertices": 2, "edges": [[1, 2, 2]]}}.  With --format machine a
single JSON document is written to stdout and diagnostics go to stderr.
Numbers are plain base 10.  Note for negative entries: write
--labels=-1,-1,-1 (with the equals sign) so the value is not mistaken for a
flag.

Exit codes: 0 success, 1 domain failure (violations found, preconditions
unmet), 2 malformed input, 3 search budget exceeded.  Only the oracle
subcommands search; they take --bound and --max-states.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain
from typing import Iterable, Optional, Sequence

from .bases import king_basis, smallest_basis, triangulation_basis
from .errors import BudgetExceededError, CycleSplinesError, DimensionError
from .oracle import (
    DEFAULT_MAX_STATES,
    EnumerationBudget,
    brute_force_smallest,
    check_basis_by_definition,
    search_bound,
    verify_triangulated_extension,
)
from .ring_algebra import (
    decompose,
    king_multiplication_table,
    king_product,
    product_in_basis,
    triangulation_table_3cycle,
)
from .spline_core import (
    EdgeLabeledCycle,
    EdgeLabeledGraph,
    GraphLike,
    Spline,
    is_spline,
    labeled_edges,
    leading_zeros,
    vertex_count,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2
EXIT_BUDGET = 3

# --kind -> basis builder; each looks its builder up when called
_BUILDERS = {
    "triangulation": lambda cycle: triangulation_basis(cycle),
    "king": lambda cycle: king_basis(cycle),
    "smallest": lambda cycle: smallest_basis(cycle),
}


class _InputError(Exception):
    """Malformed command input; reported on stderr with exit code 2."""


def _plain_int(text: str) -> int:
    """The one integer rule, for flags and lists alike: an optional sign and
    ASCII digits; int() alone would also take 1_0 and non-ASCII digits."""
    text = text.strip()
    if not re.fullmatch(r"[+-]?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"must be a base-10 integer, got {text!r}")
    return int(text)


def _parse_int_list(text: str, what: str) -> list[int]:
    try:
        return [_plain_int(part) for part in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise _InputError(f"{what}: {exc}") from None


def _load_target(args: argparse.Namespace) -> GraphLike:
    """Build the cycle or graph named by --cycle or --input."""
    if args.cycle is not None and args.input is not None:
        raise _InputError("give either --cycle or --input, not both")
    if args.cycle is not None:
        try:
            return EdgeLabeledCycle(tuple(_parse_int_list(args.cycle, "--cycle")))
        except (ValueError, TypeError) as exc:
            raise _InputError(str(exc)) from None
    if args.input is not None:
        try:
            with open(args.input, encoding="utf-8") as fh:
                document = json.load(fh)
        except OSError as exc:
            raise _InputError(f"cannot read {args.input}: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            # RecursionError: arrays or objects nested too deep to decode
            raise _InputError(f"{args.input} is not valid JSON: {exc}") from None
        return _target_from_document(document)
    raise _InputError("one of --cycle or --input is required")


def _target_from_document(document) -> GraphLike:
    if not isinstance(document, dict):
        raise _InputError("input document must be a JSON object")
    keys = {"cycle", "graph"} & set(document)
    if len(keys) != 1:
        raise _InputError('input document needs exactly one of the keys "cycle" or "graph"')
    try:
        if "cycle" in keys:
            labels = document["cycle"]
            if not isinstance(labels, list):
                raise _InputError('"cycle" must be a list of edge labels')
            _refuse_booleans(labels)
            return EdgeLabeledCycle(tuple(labels))
        body = document["graph"]
        if not isinstance(body, dict) or "vertices" not in body or "edges" not in body:
            raise _InputError('"graph" must be an object with "vertices" and "edges"')
        edges = tuple(tuple(edge) for edge in body["edges"])
        _refuse_booleans((body["vertices"], *(x for edge in edges for x in edge)))
        return EdgeLabeledGraph(body["vertices"], edges)
    except (ValueError, TypeError) as exc:
        raise _InputError(str(exc)) from None


def _refuse_booleans(values) -> None:
    # JSON true and false decode to bool, which Python counts as an int
    if any(isinstance(x, bool) for x in values):
        raise _InputError("numbers in the input document must be integers, not true or false")


def _require_cycle(target: GraphLike, command: str) -> EdgeLabeledCycle:
    if not isinstance(target, EdgeLabeledCycle):
        raise _InputError(f"{command} needs a cycle, not a general graph")
    return target


def _parse_labels(args: argparse.Namespace, n: int) -> list[int]:
    values = _parse_int_list(args.labels, "--labels")
    if len(values) != n:
        raise _InputError(f"--labels needs {n} entries for this input, got {len(values)}")
    return values


def _budget_for(args: argparse.Namespace, target: GraphLike) -> EnumerationBudget:
    bound = search_bound(target) if args.bound is None else args.bound
    states = DEFAULT_MAX_STATES if args.max_states is None else args.max_states
    if bound < 1:
        raise _InputError(f"--bound must be positive, got {bound}")
    if states < 1:
        raise _InputError(f"--max-states must be positive, got {states}")
    return EnumerationBudget(bound, states)


def _emit(args: argparse.Namespace, payload: dict, human_lines: Iterable[str]) -> None:
    """Write the payload in machine mode, else the lines; a lazy iterable of
    lines is never built in machine mode."""
    if args.format == "machine":
        # json.dumps, unlike json.dump, runs the C encoder
        sys.stdout.write(json.dumps(payload, separators=(", ", ": ")) + "\n")
    else:
        for line in human_lines:
            print(line)


def _spline_text(entries: Sequence[int]) -> str:
    return ",".join(str(e) for e in entries)


# ---------------------------------------------------------------- commands


def _cmd_verify(args: argparse.Namespace) -> int:
    target = _load_target(args)
    values = _parse_labels(args, vertex_count(target))
    check = is_spline(target, values)
    bad = {v.edge: v for v in check.violations}
    lines = []
    for i, u, v, lab in labeled_edges(target):
        if i in bad:
            lines.append("FAIL " + bad[i].describe())
        else:
            lines.append(f"ok   edge {i} (vertex {u} -- vertex {v}, label {lab})")
    lines.append("spline" if check.ok else "not a spline")
    payload = {
        "ok": check.ok,
        "violations": [
            {
                "edge": v.edge,
                "u": v.u,
                "v": v.v,
                "label": v.label,
                "values": [v.value_u, v.value_v],
            }
            for v in check.violations
        ],
    }
    _emit(args, payload, lines)
    if not check.ok and args.format == "machine":
        for v in check.violations:
            print(v.describe(), file=sys.stderr)
    return EXIT_OK if check.ok else EXIT_DOMAIN


def _cmd_basis(args: argparse.Namespace) -> int:
    basis = _BUILDERS[args.kind](_require_cycle(_load_target(args), "basis"))
    lines = (
        f"{basis.symbol}{k}: {_spline_text(element.entries)}"
        for k, element in enumerate(basis.elements)
    )
    payload = {"kind": basis.kind, "basis": [list(element.entries) for element in basis]}
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_decompose(args: argparse.Namespace) -> int:
    cycle = _require_cycle(_load_target(args), "decompose")
    values = _parse_labels(args, cycle.n)
    check = is_spline(cycle, values)
    if not check.ok:
        for v in check.violations:
            print(v.describe(), file=sys.stderr)
        print("not a spline; nothing to decompose", file=sys.stderr)
        return EXIT_DOMAIN
    basis = _BUILDERS[args.kind](cycle)
    coefficients = decompose(Spline(tuple(values)), basis)
    _emit(args, {"coefficients": list(coefficients)}, [_spline_text(coefficients)])
    return EXIT_OK


def _cmd_multiply(args: argparse.Namespace) -> int:
    cycle = _require_cycle(_load_target(args), "multiply")
    if not (0 <= args.i <= cycle.n - 1 and 0 <= args.j <= cycle.n - 1):
        raise _InputError(f"--i and --j must be in [0, {cycle.n - 1}], got ({args.i}, {args.j})")
    if args.kind == "king":
        cell = king_product(cycle, args.i, args.j)
        symbol = "K"
    else:
        basis = _BUILDERS[args.kind](cycle)
        cell = product_in_basis(basis, args.i, args.j)
        symbol = basis.symbol
    payload = {"product": {"i": cell.i, "j": cell.j, "terms": [list(t) for t in cell.terms]}}
    _emit(
        args,
        payload,
        [f"{symbol}{cell.i} * {symbol}{cell.j} = {cell.render(symbol)}"],
    )
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    cycle = _require_cycle(_load_target(args), "table")
    if args.kind == "king":
        table = king_multiplication_table(cycle)
        symbol = "K"
        header = []
    else:
        try:
            table = triangulation_table_3cycle(cycle)
        except DimensionError as exc:
            print(f"error: {exc}", file=sys.stderr)
            print(
                "hint: products on longer cycles are available one pair at a "
                "time via 'multiply --kind triangulation'",
                file=sys.stderr,
            )
            return EXIT_DOMAIN
        symbol = "H"
        phi = dict(table[1][1].terms).get(2, 0)
        header = [f"Phi = {phi}"]
    n = len(table)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    cells = [{"i": i, "j": j, "terms": [list(t) for t in table[i][j].terms]} for i, j in pairs]
    lines = (f"{symbol}{i} * {symbol}{j} = {table[i][j].render(symbol)}" for i, j in pairs)
    _emit(args, {"kind": args.kind, "table": cells}, chain(header, lines))
    return EXIT_OK


def _cmd_oracle_smallest(args: argparse.Namespace) -> int:
    cycle = _require_cycle(_load_target(args), "oracle smallest")
    if not 1 <= args.k <= cycle.n - 1:
        raise _InputError(f"--k must be in [1, {cycle.n - 1}], got {args.k}")
    result = brute_force_smallest(cycle, args.k, _budget_for(args, cycle))
    _emit(args, {"spline": list(result.entries)}, [_spline_text(result.entries)])
    return EXIT_OK


def _cmd_oracle_check_basis(args: argparse.Namespace) -> int:
    target = _load_target(args)
    if args.kind is None and args.candidates is None:
        raise _InputError("give --kind to check a constructed basis or --candidates for explicit ones")
    if args.kind is not None and args.candidates is not None:
        raise _InputError("give either --kind or --candidates, not both")
    budget = _budget_for(args, target)  # malformed flags exit 2 before any work
    if args.kind is not None:
        cycle = _require_cycle(target, "oracle check-basis --kind")
        candidates = list(_BUILDERS[args.kind](cycle).elements)
    else:
        n = vertex_count(target)
        candidates = [_parse_int_list(part, "--candidates") for part in args.candidates.split(";")]
        if len(candidates) != n:
            raise _InputError(
                f"--candidates needs {n} candidates for this input, got {len(candidates)}"
            )
        for i, candidate in enumerate(candidates):
            if len(candidate) != n:
                raise _InputError(
                    f"--candidates: candidate {i} has {len(candidate)} entries, expected {n}"
                )
    ok = check_basis_by_definition(target, candidates, budget)
    _emit(
        args,
        {"ok": ok},
        [
            "basis condition holds for the given candidates"
            if ok
            else "basis condition fails: some enumerated spline has a leading "
            "entry that is not a multiple of the matching candidate's"
        ],
    )
    return EXIT_OK if ok else EXIT_DOMAIN


def _cmd_oracle_extension(args: argparse.Namespace) -> int:
    cycle = _require_cycle(_load_target(args), "oracle extension")
    values = _parse_labels(args, cycle.n)
    if not 0 <= args.k <= cycle.n - 1:
        raise _InputError(f"--k must be in [0, {cycle.n - 1}], got {args.k}")
    found = leading_zeros(values)
    if found != args.k:
        print(f"error: expected exactly {args.k} leading zeros, found {found}", file=sys.stderr)
        return EXIT_DOMAIN
    ok = verify_triangulated_extension(cycle, args.k, values)
    _emit(
        args,
        {"ok": ok},
        [
            "labels satisfy every edge of the chord-augmented cycle"
            if ok
            else "labels violate the chord-augmented cycle"
        ],
    )
    return EXIT_OK if ok else EXIT_DOMAIN


# ------------------------------------------------------------------ parser


def _add_common(parser: argparse.ArgumentParser, budget: bool = False) -> None:
    parser.add_argument("--cycle", help="comma-separated edge labels, e.g. 2,5,3")
    parser.add_argument("--input", help="JSON file with a cycle or graph document")
    parser.add_argument(
        "--format",
        choices=("human", "machine"),
        default="human",
        help="machine prints one JSON document on stdout",
    )
    if budget:
        parser.add_argument("--bound", type=_plain_int, help="cap searched entries at this value")
        parser.add_argument(
            "--max-states", type=_plain_int, help="abort after this many search states"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclesplines",
        description="Exact bases, decompositions, and multiplication tables "
        "for integer splines on edge-labeled cycles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the edge congruences of a labeling")
    _add_common(p)
    p.add_argument("--labels", required=True, help="comma-separated vertex labels")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("basis", help="construct a flow-up basis")
    _add_common(p)
    p.add_argument("--kind", choices=tuple(_BUILDERS), required=True)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("decompose", help="write a spline in a flow-up basis")
    _add_common(p)
    p.add_argument("--labels", required=True, help="comma-separated vertex labels")
    p.add_argument("--kind", choices=tuple(_BUILDERS), required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("multiply", help="product of two basis elements, in the basis")
    _add_common(p)
    p.add_argument("--kind", choices=tuple(_BUILDERS), required=True)
    p.add_argument("--i", type=_plain_int, required=True, help="first basis index")
    p.add_argument("--j", type=_plain_int, required=True, help="second basis index")
    p.set_defaults(func=_cmd_multiply)

    p = sub.add_parser("table", help="full multiplication table")
    _add_common(p)
    p.add_argument("--kind", choices=("triangulation", "king"), required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("oracle", help="exhaustive desk-scale checks")
    oracle_sub = p.add_subparsers(dest="oracle_command", required=True)

    q = oracle_sub.add_parser("smallest", help="smallest flow-up spline by exhaustive search")
    _add_common(q, budget=True)
    q.add_argument("--k", type=_plain_int, required=True, help="number of leading zeros")
    q.set_defaults(func=_cmd_oracle_smallest)

    q = oracle_sub.add_parser("check-basis", help="basis condition by enumeration")
    _add_common(q, budget=True)
    q.add_argument("--kind", choices=tuple(_BUILDERS))
    q.add_argument(
        "--candidates",
        help='semicolon-separated labelings, e.g. "1,1,1;0,2,12;0,0,15"',
    )
    q.set_defaults(func=_cmd_oracle_check_basis)

    q = oracle_sub.add_parser("extension", help="check a labeling on the chord-augmented cycle")
    _add_common(q)
    q.add_argument("--k", type=_plain_int, required=True, help="number of leading zeros")
    q.add_argument("--labels", required=True, help="comma-separated vertex labels")
    q.set_defaults(func=_cmd_oracle_extension)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # exact at any size: lift CPython's int <-> str digit limit (3.10.7+)
    # for this one command, and give in-process callers theirs back
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: Optional[Sequence[str]]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    code = EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does; the output is
        # moot, so point stdout at devnull to keep the exit flush quiet
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except CycleSplinesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
