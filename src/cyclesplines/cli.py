"""Command line interface.

Usage:
    cyclesplines verify    --cycle 2,5,3 --labels 0,2,12
    cyclesplines basis     --cycle 3,4,8,2,5 --kind king
    cyclesplines decompose --cycle 2,5,3 --labels 1,3,13 --kind triangulation
    cyclesplines multiply  --cycle 3,4,8,2,5 --kind king --i 1 --j 3
    cyclesplines table     --cycle 2,5,3 --kind triangulation
    cyclesplines oracle smallest    --cycle 2,5,3 --k 1
    cyclesplines oracle check-basis --cycle 2,5,3 --kind triangulation
    cyclesplines oracle extension   --cycle 2,6,15,10 --labels 0,2,50,200

Input comes from --cycle (comma-separated labels) or --input FILE, a JSON
document with either {"cycle": [2, 5, 3]} or
{"graph": {"vertices": 2, "edges": [[1, 2, 2]]}}.  With --format machine a
single JSON document is written to stdout and diagnostics go to stderr,
including the human report of a command that fails.  Numbers are plain base
10.  Flags are spelled in full: an abbreviation such as --cand exits 2, under
the usage line of the subcommand given.  oracle extension checks any
labeling, whatever its number of leading zeros.  Note for negative
entries: write --labels=-1,-1,-1 (with the equals sign) so the value is not
mistaken for a flag.

Exit codes: 0 success, 1 domain failure (violations found, preconditions
unmet), 2 malformed input.  No command searches: oracle smallest reads its
answer off the echelon form of the spline lattice and oracle check-basis
decides by the same elimination, so no command runs out of a budget.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import chain
from typing import Iterable, Optional, Sequence

from .bases import king_basis, smallest_basis, triangulation_basis
from .errors import CycleSplinesError, DimensionError
from .oracle import check_basis_by_definition, lattice_smallest, verify_triangulated_extension
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
    vertex_count,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_PARSE = 2

# --kind -> basis builder; each looks its builder up when called
_BUILDERS = {
    "triangulation": lambda cycle: triangulation_basis(cycle),
    "king": lambda cycle: king_basis(cycle),
    "smallest": lambda cycle: smallest_basis(cycle),
}


class _InputError(Exception):
    """Malformed command input; reported on stderr with exit code 2."""


class _Refusal(Exception):
    """A domain precondition a command checks itself; its args are the lines
    reported on stderr, with exit code 1."""


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
        return _target_from_document({"cycle": _parse_int_list(args.cycle, "--cycle")})
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


def _parse_labels(text: str, n: int) -> list[int]:
    values = _parse_int_list(text, "--labels")
    if len(values) != n:
        raise _InputError(f"--labels needs {n} entries for this input, got {len(values)}")
    return values


def _check_range(flags: str, lo: int, hi: int, *values: int) -> None:
    if not all(lo <= value <= hi for value in values):
        got = values[0] if len(values) == 1 else values
        raise _InputError(f"{flags} must be in [{lo}, {hi}], got {got}")


def _emit(args: argparse.Namespace, payload: dict, human_lines: Iterable[str]) -> None:
    """Write the payload in machine mode, else the lines; machine mode leaves a
    lazy iterable of lines unbuilt."""
    if args.format == "machine":
        # json.dumps, unlike json.dump, runs the C encoder
        sys.stdout.write(json.dumps(payload, separators=(", ", ": ")) + "\n")
    else:
        for line in human_lines:
            print(line)


def _spline_text(entries: Sequence[int]) -> str:
    return ",".join(str(e) for e in entries)


# ---------------------------------------------------------------- commands

# what a command returns: the machine payload, the human lines and the exit
# code; lines built lazily cost machine mode nothing unless the command fails
_Result = tuple[dict, Iterable[str], int]


def _verdict(ok: bool, held: str, failed: str) -> _Result:
    return {"ok": ok}, [held if ok else failed], EXIT_OK if ok else EXIT_DOMAIN


def _cmd_verify(args: argparse.Namespace, target: GraphLike) -> _Result:
    check = is_spline(target, args.labels)
    bad = {v.edge: v for v in check.violations}
    lines = []
    for i, u, v, lab in labeled_edges(target):
        if i in bad:
            lines.append("FAIL " + bad[i].describe())
        else:
            lines.append(f"ok   edge {i} (vertex {u} -- vertex {v}, label {lab})")
    lines.append("spline" if check.ok else "not a spline")
    violations = [
        {"edge": v.edge, "u": v.u, "v": v.v, "label": v.label, "values": [v.value_u, v.value_v]}
        for v in check.violations
    ]
    return {"ok": check.ok, "violations": violations}, lines, EXIT_OK if check.ok else EXIT_DOMAIN


def _cmd_basis(args: argparse.Namespace, cycle: EdgeLabeledCycle) -> _Result:
    basis = _BUILDERS[args.kind](cycle)
    lines = (
        f"{basis.symbol}{k}: {_spline_text(element.entries)}"
        for k, element in enumerate(basis.elements)
    )
    payload = {"kind": basis.kind, "basis": [element.entries for element in basis]}
    return payload, lines, EXIT_OK


def _cmd_decompose(args: argparse.Namespace, cycle: EdgeLabeledCycle) -> _Result:
    check = is_spline(cycle, args.labels)
    if not check.ok:
        lines = [v.describe() for v in check.violations]
        raise _Refusal(*lines, "not a spline; nothing to decompose")
    basis = _BUILDERS[args.kind](cycle)
    coefficients = decompose(Spline(tuple(args.labels)), basis)
    return {"coefficients": coefficients}, map(_spline_text, [coefficients]), EXIT_OK


def _cmd_multiply(args: argparse.Namespace, cycle: EdgeLabeledCycle) -> _Result:
    _check_range("--i and --j", 0, cycle.n - 1, args.i, args.j)
    if args.kind == "king":
        cell = king_product(cycle, args.i, args.j)
        symbol = "K"
    else:
        basis = _BUILDERS[args.kind](cycle)
        cell = product_in_basis(basis, args.i, args.j)
        symbol = basis.symbol
    payload = {"product": {"i": cell.i, "j": cell.j, "terms": cell.terms}}
    lines = (f"{symbol}{c.i} * {symbol}{c.j} = {c.render(symbol)}" for c in [cell])
    return payload, lines, EXIT_OK


def _cmd_table(args: argparse.Namespace, cycle: EdgeLabeledCycle) -> _Result:
    if args.kind == "king":
        table = king_multiplication_table(cycle)
        symbol = "K"
        header = []
    else:
        try:
            table = triangulation_table_3cycle(cycle)
        except DimensionError as exc:
            raise _Refusal(
                f"error: {exc}",
                "hint: products on longer cycles are available one pair at a "
                "time via 'multiply --kind triangulation'",
            ) from None
        symbol = "H"
        phi = dict(table[1][1].terms).get(2, 0)
        header = [f"Phi = {phi}"]
    n = len(table)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    cells = [{"i": i, "j": j, "terms": table[i][j].terms} for i, j in pairs]
    lines = (f"{symbol}{i} * {symbol}{j} = {table[i][j].render(symbol)}" for i, j in pairs)
    return {"kind": args.kind, "table": cells}, chain(header, lines), EXIT_OK


def _cmd_oracle_smallest(args: argparse.Namespace, cycle: EdgeLabeledCycle) -> _Result:
    _check_range("--k", 1, cycle.n - 1, args.k)
    result = lattice_smallest(cycle, args.k)
    return {"spline": result.entries}, map(_spline_text, [result.entries]), EXIT_OK


def _cmd_oracle_check_basis(args: argparse.Namespace, target: GraphLike) -> _Result:
    if args.kind is None and args.candidates is None:
        raise _InputError("give --kind to check a constructed basis or --candidates for explicit ones")
    if args.kind is not None and args.candidates is not None:
        raise _InputError("give either --kind or --candidates, not both")
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
    return _verdict(
        check_basis_by_definition(target, candidates),
        "basis condition holds for the given candidates",
        "basis condition fails: some spline has a leading entry that is not "
        "a multiple of the matching candidate's",
    )


def _cmd_oracle_extension(args: argparse.Namespace, cycle: EdgeLabeledCycle) -> _Result:
    return _verdict(
        verify_triangulated_extension(cycle, args.labels),
        "labels satisfy every edge of the chord-augmented cycle",
        "labels violate the chord-augmented cycle",
    )


# ------------------------------------------------------------------ parser

# add_argument keywords of the command flags
_FLAGS = {
    "--k": {"type": _plain_int, "required": True, "help": "number of leading zeros"},
    "--labels": {"required": True, "help": "comma-separated vertex labels"},
    "--kind": {"choices": tuple(_BUILDERS), "required": True},
    "--i": {"type": _plain_int, "required": True, "help": "first basis index"},
    "--j": {"type": _plain_int, "required": True, "help": "second basis index"},
    "--candidates": {"help": 'semicolon-separated labelings, e.g. "1,1,1;0,2,12;0,0,15"'},
}
# (name, command, help, flags); a command's keywords for a flag update _FLAGS's
_COMMANDS = (
    ("verify", _cmd_verify, "check the edge congruences of a labeling", {"--labels": {}}),
    ("basis", _cmd_basis, "construct a flow-up basis", {"--kind": {}}),
    ("decompose", _cmd_decompose, "write a spline in a flow-up basis",
     {"--labels": {}, "--kind": {}}),
    ("multiply", _cmd_multiply, "product of two basis elements, in the basis",
     {"--kind": {}, "--i": {}, "--j": {}}),
    ("table", _cmd_table, "full multiplication table",
     {"--kind": {"choices": ("triangulation", "king")}}),
)
_ORACLE_COMMANDS = (
    ("smallest", _cmd_oracle_smallest, "smallest flow-up spline by lattice elimination",
     {"--k": {}}),
    ("check-basis", _cmd_oracle_check_basis, "basis condition by lattice elimination",
     {"--kind": {"required": False}, "--candidates": {}}),
    ("extension", _cmd_oracle_extension, "check a labeling on the chord-augmented cycle",
     {"--labels": {}}),
)
# the commands that take a general graph; _run refuses one for the others
_GRAPH_COMMANDS = (_cmd_verify, _cmd_oracle_check_basis)


def _add_commands(subparsers, commands, prefix: str = "") -> None:
    for name, func, help, flags in commands:
        p = subparsers.add_parser(name, help=help, allow_abbrev=False)
        p.add_argument("--cycle", help="comma-separated edge labels, e.g. 2,5,3")
        p.add_argument("--input", help="JSON file with a cycle or graph document")
        p.add_argument(
            "--format",
            choices=("human", "machine"),
            default="human",
            help="machine prints one JSON document on stdout",
        )
        for flag, keywords in flags.items():
            p.add_argument(flag, **{**_FLAGS[flag], **keywords})
        p.set_defaults(
            func=func, parser=p, needs_cycle=None if func in _GRAPH_COMMANDS else prefix + name
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclesplines",
        description="Exact bases, decompositions, and multiplication tables "
        "for integer splines on edge-labeled cycles.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_commands(sub, _COMMANDS)
    oracle = sub.add_parser("oracle", help="certify the closed forms", allow_abbrev=False)
    oracle_sub = oracle.add_subparsers(dest="oracle_command", required=True)
    _add_commands(oracle_sub, _ORACLE_COMMANDS, "oracle ")
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
    """Parse, load the target, run the command, emit its output and map every
    error to its exit code; the one place that writes to stdout or stderr."""
    parser = build_parser()
    try:
        args, extras = parser.parse_known_args(argv)
        if extras:
            # parse_args would report them under the root parser's usage
            args.parser.error(f"unrecognized arguments: {' '.join(extras)}")
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        target = _load_target(args)
        if args.needs_cycle:
            _require_cycle(target, args.needs_cycle)
        if "labels" in args:
            args.labels = _parse_labels(args.labels, vertex_count(target))
        payload, lines, code = args.func(args, target)
        _emit(args, payload, lines)
        if code != EXIT_OK and args.format == "machine":
            # stdout holds only the document, so the reason goes to stderr
            for line in lines:
                print(line, file=sys.stderr)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does; the output is
        # moot, so point stdout at devnull to keep the exit flush quiet
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _Refusal as exc:
        print(*exc.args, sep="\n", file=sys.stderr)
        return EXIT_DOMAIN
    except CycleSplinesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    return code


if __name__ == "__main__":
    sys.exit(main())
