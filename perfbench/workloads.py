"""Seeded workloads: input generation, the timed library calls, output checks.

Each workload turns a seed into an endless stream of items, runs one item
through the library (``run``), checks the output independently of the code
under test where it can (``verify``), and reduces an output to plain JSON
for the pinned digest (``digest``).  Items come in blocks: the harness
stops only at block boundaries, so every run measures the same mix.
"""

from __future__ import annotations

import io
import json
import math
import operator
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

import cyclesplines as cs

clock = time.perf_counter_ns


@dataclass
class Outcome:
    """What one item produced and what it cost."""

    output: object
    busy_ns: int  # time spent inside the timed library calls
    ops_ns: list[int]  # latency samples of the workload's user-facing operation
    units: int  # work completed, in the workload's unit
    emitted: int = 0  # bytes the CLI wrote to stdout


def _labels(rng: random.Random, n: int, lo: int, hi: int, coprime_tail: bool) -> tuple[int, ...]:
    labels = [rng.randint(lo, hi) for _ in range(n)]
    while coprime_tail and math.gcd(labels[-2], labels[-1]) != 1:
        labels[-1] = rng.randint(lo, hi)
    return tuple(labels)


def _suffix_gcds(labels) -> list[int]:
    out, g = [0] * len(labels), 0
    for i in range(len(labels) - 1, -1, -1):
        g = math.gcd(labels[i], g)
        out[i] = g
    return out


def congruence_problem(labels, entries) -> str | None:
    """The first edge whose endpoint values disagree mod its label, if any."""
    n = len(labels)
    if len(entries) != n:
        return f"{len(entries)} entries on a {n}-cycle"
    entries = list(entries)
    following = entries[1:] + entries[:1]
    if not any(map(operator.mod, map(operator.sub, entries, following), labels)):
        return None
    for edge, (a, b, lab) in enumerate(zip(entries, following, labels), start=1):
        if (a - b) % lab:
            return f"edge {edge} violated"


def flow_up_problems(labels, elements) -> list[str]:
    """Check a flow-up basis from the definitions, without the library.

    Element k must be a spline with exactly k leading zeros; element 0 is
    all ones up to sign and element k >= 1 has leading entry plus or minus
    lcm(label(k), gcd(label(k + 1), ..., label(n))).
    """
    n = len(labels)
    if len(elements) != n:
        return [f"{len(elements)} elements on a {n}-cycle"]
    suffix = _suffix_gcds(labels)
    problems = []
    for k, entries in enumerate(elements):
        bad = congruence_problem(labels, entries)
        if bad:
            problems.append(f"element {k}: {bad}")
        elif any(entries[:k]) or entries[k] == 0:
            problems.append(f"element {k}: does not have exactly {k} leading zeros")
        elif k == 0:
            if set(entries) not in ({1}, {-1}):
                problems.append("element 0 is not the all-ones spline up to sign")
        elif abs(entries[k]) != math.lcm(labels[k - 1], suffix[k]):
            problems.append(f"element {k}: leading entry {entries[k]} is not minimal")
    return problems


class Projection:
    """Exact test of claimed integer combinations of a fixed set of vectors.

    A claim sum(c_k * elements[k]) == target is compared on a seeded random
    61-bit linear projection, so each claim costs O(n + terms) instead of
    O(n * terms).  A wrong claim passes only if its error vector is
    orthogonal to the random vector, which has probability about 2**-61.
    """

    def __init__(self, tag: str, elements) -> None:
        rng = random.Random(f"weights:{tag}:{len(elements)}")
        self.weights = [rng.getrandbits(61) + 1 for _ in range(len(elements[0]))]
        self.dots = [sum(map(operator.mul, e, self.weights)) for e in elements]

    def matches(self, terms, target) -> bool:
        """``terms`` holds (index, coefficient) pairs."""
        dots = self.dots
        return sum(c * dots[k] for k, c in terms) == sum(map(operator.mul, target, self.weights))


def _terms(cell) -> list[list[int]]:
    return [list(t) for t in cell.terms]


# ------------------------------------------------------------ closed-form


class ClosedForm:
    """n = 1000 cycles: build, certify, perturb and round-trip both bases."""

    name = "closed-form"
    work_name = "entries_per_s"
    op_name = "basis_p50_ms"
    op_stat = staticmethod(statistics.median)
    tail = 50  # about ten items per run: too few for a higher percentile
    block = 1
    setup_samples = 3  # fresh interpreters timed per run; setup_s is their median

    def __init__(self, smoke: bool) -> None:
        self.n = 30 if smoke else 1000

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        n = self.n
        while True:
            yield {
                "labels": _labels(rng, n, 1, 30, coprime_tail=True),
                "perturb": [rng.randint(1, n - 1) for _ in range(2)],
                "coefficients": [[rng.randint(-9, 9) for _ in range(n)] for _ in range(2)],
            }

    def run(self, inp, in_process: bool = False) -> Outcome:
        start = clock()
        cycle = cs.EdgeLabeledCycle(inp["labels"])
        bases = (cs.triangulation_basis(cycle), cs.king_basis(cycle))
        results = []
        for basis, k, coefficients in zip(bases, inp["perturb"], inp["coefficients"]):
            accepted = cs.check_flow_up_basis(cycle, basis.elements)
            perturbed = list(basis.elements)
            perturbed[k] = perturbed[k] * 2
            rejected = cs.check_flow_up_basis(cycle, perturbed)
            spline = cs.reconstruct(coefficients, basis)
            back = cs.decompose(spline, basis)
            results.append((basis, accepted, rejected, spline, back, cs.is_spline(cycle, spline)))
        busy = clock() - start
        n = cycle.n
        return Outcome(results, busy, [busy], 2 * n * n)

    def verify(self, inp, output) -> list[str]:
        labels = inp["labels"]
        problems = []
        for (basis, accepted, rejected, spline, back, is_spline), k, coefficients, kind in zip(
            output, inp["perturb"], inp["coefficients"], ("triangulation", "king")
        ):
            elements = [e.entries for e in basis]
            problems += [f"{kind}: {p}" for p in flow_up_problems(labels, elements)]
            if not accepted:
                problems.append(f"{kind}: check_flow_up_basis rejected a basis")
            if rejected or [d.index for d in rejected.defects] != [k]:
                problems.append(f"{kind}: perturbed element {k} was not rejected at {k}")
            if list(back) != coefficients:
                problems.append(f"{kind}: decompose(reconstruct(c)) != c")
            if not is_spline or congruence_problem(labels, spline.entries):
                problems.append(f"{kind}: reconstructed combination is not a spline")
            if not Projection(kind, elements).matches(enumerate(coefficients), spline.entries):
                problems.append(f"{kind}: reconstruct is not the integer combination")
        return problems

    def digest(self, inp, output):
        return [
            inp["labels"],
            [
                [[e.entries for e in basis], accepted.ok, rejected.ok,
                 [d.index for d in rejected.defects], spline.entries, back, bool(ok)]
                for basis, accepted, rejected, spline, back, ok in output
            ],
        ]


# ----------------------------------------------------------------- tables


class Tables:
    """Full king tables, all triangulation products and single king products."""

    name = "tables"
    work_name = "cells_per_s"
    op_name = "multiply_mean_us"
    # The host alternates between two speeds about 1.5x apart, in stretches
    # of a few items; a quantile of these sub-millisecond calls jumps between
    # the two as their mix shifts, while the mean moves with it smoothly.
    op_stat = staticmethod(statistics.fmean)
    tail = 99
    block = 3
    setup_samples = 7

    def __init__(self, smoke: bool) -> None:
        self.sizes = (4, 6, 8) if smoke else (10, 40, 80)

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            for n in self.sizes:
                yield {
                    "labels": _labels(rng, n, 1, 30, coprime_tail=True),
                    "pairs": [(rng.randrange(n), rng.randrange(n)) for _ in range(n)],
                }

    def run(self, inp, in_process: bool = False) -> Outcome:
        start = clock()
        cycle = cs.EdgeLabeledCycle(inp["labels"])
        king = cs.king_multiplication_table(cycle)
        tri_basis = cs.triangulation_basis(cycle)
        n = cycle.n
        tri = [cs.product_in_basis(tri_basis, i, j) for i in range(n) for j in range(i, n)]
        busy = clock() - start
        singles, ops = [], []
        for i, j in inp["pairs"]:
            start = clock()
            singles.append(cs.king_product(cycle, i, j))
            ops.append(clock() - start)
        busy += sum(ops)
        return Outcome((king, tri_basis, tri, singles), busy, ops, n * (n + 1) + n)

    def verify(self, inp, output) -> list[str]:
        king, tri_basis, tri, singles = output
        labels = inp["labels"]
        n = len(labels)
        king_elements = [e.entries for e in cs.king_basis(cs.EdgeLabeledCycle(labels))]
        tri_elements = [e.entries for e in tri_basis]
        problems = flow_up_problems(labels, tri_elements)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        for kind, elements, cells in (
            ("king", king_elements, [king[i][j] for i, j in pairs]),
            ("triangulation", tri_elements, tri),
        ):
            projection = Projection(kind, elements)
            for (i, j), cell in zip(pairs, cells):
                product = [a * b for a, b in zip(elements[i], elements[j])]
                if (cell.i, cell.j) != (i, j) or not projection.matches(cell.terms, product):
                    problems.append(f"{kind} cell ({i}, {j}) does not reconstruct the product")
        if any(king[i][j] != king[j][i] for i, j in pairs):
            problems.append("king table is not symmetric")
        for (i, j), cell in zip(inp["pairs"], singles):
            if cell != king[min(i, j)][max(i, j)]:
                problems.append(f"king_product({i}, {j}) differs from the table")
        return problems

    def digest(self, inp, output):
        king, _, tri, singles = output
        n = len(inp["labels"])
        return [
            inp["labels"],
            [_terms(king[i][j]) for i in range(n) for j in range(i, n)],
            [_terms(cell) for cell in tri],
            [_terms(cell) for cell in singles],
        ]


# -------------------------------------------------------------------- cli

WIDE = (10**29, 10**30 - 1)  # 30-digit labels
ENTRY = "import sys; from cyclesplines.cli import main; sys.exit(main())"

# (template, n, wide labels); one block runs each once, in this order.  The
# sizes are fixed so that every block costs the same; the seed draws labels,
# values and indices.  Three of the fifteen are expected to fail.
TEMPLATES = (
    ("verify", 60, True),
    ("verify-non-spline", 30, False),  # exit 1
    ("basis-triangulation", 40, True),
    ("basis-king", 60, True),
    ("basis-smallest", 3, False),
    ("decompose-triangulation", 30, True),
    ("decompose-king", 50, False),
    ("multiply-king", 60, True),
    ("multiply-triangulation", 20, False),
    ("table-king", 40, True),
    ("table-triangulation", 3, False),
    ("oracle-check-basis", 3, False),
    ("oracle-smallest", 3, False),
    ("table-king-not-coprime", 20, True),  # exit 1
    ("malformed-label", 10, True),  # exit 2
)


def _text(values) -> str:
    return ",".join(str(v) for v in values)


class Cli:
    """One ``cyclesplines ... --format machine`` command per item."""

    name = "cli"
    work_name = "commands_per_s"
    op_name = "command_p50_ms"
    op_stat = staticmethod(statistics.median)
    tail = 90
    block = len(TEMPLATES)
    setup_samples = 7

    def __init__(self, smoke: bool, env: dict | None = None) -> None:
        import cyclesplines.cli

        self.cli = cyclesplines.cli
        self.smoke = smoke
        self.env = env

    def _spline(self, rng, cycle, basis):
        coefficients = [rng.randint(-9, 9) for _ in range(cycle.n)]
        return coefficients, cs.reconstruct(coefficients, basis(cycle)).entries

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            for template, n, wide in TEMPLATES:
                if self.smoke:
                    n = min(n, 5)
                lo, hi = WIDE if wide else (1, 12 if n == 3 else 30)
                king = "king" in template and "not-coprime" not in template
                labels = _labels(rng, n, lo, hi, coprime_tail=king)
                yield self._command(rng, template, labels)

    def _command(self, rng, template, labels):
        cycle = cs.EdgeLabeledCycle(labels)
        n = cycle.n
        cyc = ["--cycle", _text(labels), "--format", "machine"]
        item = {"template": template, "labels": labels, "exit": 0}
        if template in ("verify", "verify-non-spline"):
            _, values = self._spline(rng, cycle, cs.triangulation_basis)
            if template == "verify-non-spline":
                # break an edge with a label above 1 (redraw in the all-ones case)
                edges = [i for i, lab in enumerate(labels) if lab > 1] or [0]
                values = list(values)
                values[edges[rng.randrange(len(edges))]] += 1
                item["exit"] = 1 if any(lab > 1 for lab in labels) else 0
            item["values"] = tuple(values)
            item["argv"] = ["verify", *cyc, f"--labels={_text(values)}"]
        elif template.startswith("basis-"):
            item["kind"] = template.split("-", 1)[1]
            item["argv"] = ["basis", *cyc, "--kind", item["kind"]]
        elif template.startswith("decompose-"):
            kind = template.split("-", 1)[1]
            build = cs.king_basis if kind == "king" else cs.triangulation_basis
            item["coefficients"], values = self._spline(rng, cycle, build)
            item["kind"] = kind
            item["argv"] = ["decompose", *cyc, "--kind", kind, f"--labels={_text(values)}"]
        elif template.startswith("multiply-"):
            item["kind"] = template.split("-", 1)[1]
            item["i"], item["j"] = rng.randrange(n), rng.randrange(n)
            item["argv"] = [
                "multiply", *cyc, "--kind", item["kind"],
                "--i", str(item["i"]), "--j", str(item["j"]),
            ]
        elif template == "table-king":
            item["argv"] = ["table", *cyc, "--kind", "king"]
        elif template == "table-triangulation":
            item["argv"] = ["table", *cyc, "--kind", "triangulation"]
        elif template == "oracle-check-basis":
            item["argv"] = ["oracle", "check-basis", *cyc, "--kind", "triangulation"]
        elif template == "oracle-smallest":
            item["k"] = rng.randint(1, n - 1)
            item["argv"] = ["oracle", "smallest", *cyc, "--k", str(item["k"])]
        elif template == "table-king-not-coprime":
            p = rng.choice((2, 3, 5, 7))
            labels = labels[:-2] + (labels[-2] * p, labels[-1] * p)
            item.update(labels=labels, exit=1)
            item["argv"] = ["table", "--cycle", _text(labels), "--format", "machine", "--kind", "king"]
        elif template == "malformed-label":
            texts = [str(v) for v in labels]
            texts[rng.randrange(n)] += "x"
            item["exit"] = 2
            item["argv"] = ["basis", "--cycle", ",".join(texts), "--format", "machine", "--kind", "king"]
        return item

    def run(self, inp, in_process: bool = False) -> Outcome:
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            start = clock()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(inp["argv"])
            busy = clock() - start
            stdout = out.getvalue()
        else:
            start = clock()
            proc = subprocess.run(
                [sys.executable, "-c", ENTRY, *inp["argv"]],
                capture_output=True, env=self.env, timeout=120,
            )
            busy = clock() - start
            code, stdout = proc.returncode, proc.stdout.decode("utf-8", "replace")
        return Outcome((code, stdout), busy, [busy], 1, emitted=len(stdout.encode("utf-8")))

    def expected(self, inp):
        """The machine payload the library itself gives, or None for no output."""
        template = inp["template"]
        if inp["exit"] and template != "verify-non-spline":
            return None
        cycle = cs.EdgeLabeledCycle(inp["labels"])
        if template.startswith("verify"):
            check = cs.is_spline(cycle, inp["values"])
            return {
                "ok": check.ok,
                "violations": [
                    {"edge": v.edge, "u": v.u, "v": v.v, "label": v.label,
                     "values": [v.value_u, v.value_v]}
                    for v in check.violations
                ],
            }
        build = {
            "triangulation": cs.triangulation_basis,
            "king": cs.king_basis,
            "smallest": cs.smallest_basis,
        }
        if template.startswith("basis-"):
            basis = build[inp["kind"]](cycle)
            return {"kind": inp["kind"], "basis": [list(e.entries) for e in basis]}
        if template.startswith("decompose-"):
            return {"coefficients": inp["coefficients"]}
        if template == "multiply-king":
            cell = cs.king_product(cycle, inp["i"], inp["j"])
        elif template == "multiply-triangulation":
            cell = cs.product_in_basis(cs.triangulation_basis(cycle), inp["i"], inp["j"])
        if template.startswith("multiply-"):
            return {"product": {"i": cell.i, "j": cell.j, "terms": _terms(cell)}}
        if template.startswith("table-"):
            kind = template.split("-", 1)[1]
            table = (cs.king_multiplication_table if kind == "king" else cs.triangulation_table_3cycle)(cycle)
            n = len(table)
            cells = [
                {"i": i, "j": j, "terms": _terms(table[i][j])}
                for i in range(n) for j in range(i, n)
            ]
            return {"kind": kind, "table": cells}
        if template == "oracle-check-basis":
            return {"ok": cs.check_basis_by_definition(cycle, list(cs.triangulation_basis(cycle)))}
        if template == "oracle-smallest":
            return {"spline": list(cs.brute_force_smallest(cycle, inp["k"]).entries)}
        raise ValueError(f"unknown template {template}")

    def verify(self, inp, output) -> list[str]:
        code, stdout = output
        problems = []
        if code != inp["exit"]:
            problems.append(f"{inp['template']}: exit {code}, expected {inp['exit']}")
        want = self.expected(inp)
        if want is None:
            if stdout:
                problems.append(f"{inp['template']}: unexpected output on stdout")
        else:
            try:
                got = json.loads(stdout)
            except ValueError:
                got = None
            if got != want:
                problems.append(f"{inp['template']}: machine output differs from the library")
        return problems

    def digest(self, inp, output):
        code, stdout = output
        return [inp["argv"], code, stdout]


WORKLOADS = {w.name: w for w in (ClosedForm, Tables, Cli)}
