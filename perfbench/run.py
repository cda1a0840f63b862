"""Benchmark for cyclesplines: seeded workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload closed-form --seed 3 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 35
    python3 perfbench/run.py --workload tables --seed 3 --seconds 1 --smoke

One run measures one workload (see BENCHMARK.json) as a closed loop from a
single process: the next item starts when the previous one is done.  It
builds the package from ``src`` (bytecode is compiled once, untimed), times
set-up in fresh interpreters, runs the pinned corpus of PIN_SEED and checks
its digest, then measures items drawn from ``--seed`` for ``--seconds`` and
checks every output.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` rebinds the package's public functions (see tracing.py) and
reports per-layer metrics instead.  ``--smoke`` shrinks the corpus to one
block of tiny items.

The report goes to stdout, followed by one JSON line
{"correct", "attempted", "failed", "metrics"}; the full result, with the
environment, is also written to perfbench_out/.  Exit status: 0 when every
output checked out, 1 on any wrong output, 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
PIN_SEED = 1  # the pinned corpus; its digests are in digests.json
STARTUP_SAMPLES = 5


class BenchError(Exception):
    """The benchmark itself cannot run here (exit 2)."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def prepare_source() -> bool:
    """Put ``src`` first on the path and compile its bytecode, untimed, as an
    install would.  Returns whether the bytecode was already warm."""
    package = SRC / "cyclesplines"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no package source at {package}")
    sources = sorted(package.glob("*.py"))
    warm = all(Path(importlib.util.cache_from_source(str(p))).is_file() for p in sources)
    if not compileall.compile_dir(str(package), quiet=1):
        raise BenchError("the package source does not compile")
    sys.path.insert(0, str(SRC))
    return warm


def timed_setup(name: str, smoke: bool):
    """Import the package in this fresh interpreter and run the first pinned
    item; returns (seconds, workload, outcome of that item)."""
    start = time.perf_counter()
    import cyclesplines

    if name == "cli":
        import cyclesplines.cli  # noqa: F401
    import workloads

    if not Path(cyclesplines.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported cyclesplines from {cyclesplines.__file__}, not {SRC}")
    cls = workloads.WORKLOADS[name]
    workload = cls(smoke, child_env()) if name == "cli" else cls(smoke)
    first = workload.run(next(workload.inputs(PIN_SEED)))
    return time.perf_counter() - start, workload, first


def probe_setup(args) -> float:
    """One set-up sample from a fresh interpreter running this script."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--probe-setup"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


# ------------------------------------------------------------ measurement


def attempt(call):
    """Run one item; an unexpected exception is a failed operation."""
    try:
        return call(), []
    except Exception as exc:  # any exception from the library is a result to report
        return None, [f"{type(exc).__name__}: {exc}"]


def checked(workload, inp, outcome, problems) -> list[str]:
    if outcome is not None:
        try:
            problems = problems + workload.verify(inp, outcome.output)
        except Exception as exc:  # a malformed output can break the checker itself
            problems = problems + [f"check raised {type(exc).__name__}: {exc}"]
    return [f"{workload.name} item: {p}" for p in problems]


def check_pin(workload, mode: str, first) -> tuple[str, list[str]]:
    """Run the pinned corpus, whose first item already ran as ``first``, and
    compare its digest with digests.json."""
    digest = hashlib.sha256()
    problems = []
    for index, inp in enumerate(islice(workload.inputs(PIN_SEED), workload.block)):
        if index == 0:
            outcome, found = first, []
        else:
            outcome, found = attempt(lambda: workload.run(inp))
        problems += checked(workload, inp, outcome, found)
        if outcome is not None:
            text = json.dumps(workload.digest(inp, outcome.output), separators=(",", ":"))
            digest.update(text.encode())
    value = digest.hexdigest()
    pinned = json.loads((HERE / "digests.json").read_text())[mode].get(workload.name)
    if value != pinned:
        problems.append(f"pinned digest of {workload.name} ({mode}) is {value}, expected {pinned}")
    return value, problems


def measure(workload, seed: int, seconds: float, smoke: bool) -> dict:
    """The untraced closed loop: whole blocks until ``seconds`` have passed.

    Returns one outcome per item, None where the item failed.
    """
    items = workload.inputs(seed)
    outcomes = []
    failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while True:
        for inp in islice(items, workload.block):
            outcome, found = attempt(lambda: workload.run(inp))
            found = checked(workload, inp, outcome, found)
            if found:
                failed += 1
                problems += found
            if outcome is not None:
                outcome.output = None  # checked; keeping it would grow the heap
            outcomes.append(outcome)
        if smoke or time.perf_counter() - start >= seconds:
            break
    return dict(outcomes=outcomes, attempted=len(outcomes), failed=failed, problems=problems)


def startup_ms() -> tuple[float, float]:
    """Median wall time of a bare interpreter, and of importing the CLI on top."""
    bare, full = [], []
    env = child_env()
    for _ in range(STARTUP_SAMPLES):
        for code, into in (("pass", bare), ("import cyclesplines.cli", full)):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)
            into.append(time.perf_counter() - start)
    interpreter = statistics.median(bare) * 1e3
    return interpreter, statistics.median(full) * 1e3 - interpreter


def trace_run(workload, seed: int, seconds: float, smoke: bool) -> dict:
    """Rounds over a fixed corpus (the first block of ``seed``): each round
    runs it untraced and then traced, in process, and checks both."""
    import tracing

    corpus = list(islice(workload.inputs(seed), workload.block))
    interpreter, imported = startup_ms()
    tracer = tracing.Tracer()
    rounds = plain_ns = traced_ns = emitted = attempted = failed = 0
    problems: list[str] = []
    start = time.perf_counter()
    while rounds == 0 or not smoke and time.perf_counter() - start < seconds:
        results = []
        for inp in corpus:
            begin = time.perf_counter_ns()
            results.append(attempt(lambda: workload.run(inp, True)))
            plain_ns += time.perf_counter_ns() - begin
        with tracer.installed():
            for index, inp in enumerate(corpus):
                item_id = rounds * len(corpus) + index
                begin = time.perf_counter_ns()
                results.append(attempt(lambda: tracer.run_item(item_id, workload.run, inp, True)))
                traced_ns += time.perf_counter_ns() - begin
                emitted += results[-1][0].emitted if results[-1][0] else 0
        for inp, (outcome, found) in zip(corpus * 2, results):
            found = checked(workload, inp, outcome, found)
            attempted += 1
            if found:
                failed += 1
                problems += found
        rounds += 1
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}.csv.gz"
    written = tracer.write_spans(spans)
    metrics = layer_metrics(tracing, tracer, rounds, traced_ns)
    metrics.update({
        "cli.interpreter_ms": interpreter,
        "cli.import_ms": imported,
        "cli.emit_bytes": per_round(emitted, rounds),
        "trace.overhead_ratio": traced_ns / plain_ns,
        "trace.round_s": traced_ns / rounds / 1e9,
    })
    notes = [
        f"{rounds} rounds of {len(corpus)} items (first block of seed {seed}), "
        f"traced {traced_ns / 1e9:.3f} s, untraced {plain_ns / 1e9:.3f} s",
        f"{written} spans written to {spans.relative_to(ROOT)}"
        + (f", {tracer.spans_dropped} beyond the cap not kept" if tracer.spans_dropped else ""),
    ]
    return dict(metrics=metrics, attempted=attempted, failed=failed, problems=problems,
                notes=notes)


def per_round(total: int, rounds: int):
    value = total / rounds
    return int(value) if value.is_integer() else value


def layer_metrics(tracing, tracer, rounds: int, traced_ns: int) -> dict:
    """Per-round counts and self-time shares of every traced function."""
    metrics = {}
    for module, attr, kind in tracing.TARGETS:
        name = f"{module}.{attr}"
        metrics[f"{name}.calls"] = per_round(tracer.total(name, tracing.CALLS), rounds)
        if kind == "span":
            metrics[f"{name}.self_pct"] = 100 * tracer.total(name, tracing.SELF_NS) / traced_ns
    for name in tracing.VERDICTS:
        metrics[f"{name}.rejected"] = per_round(tracer.total(name, tracing.REJECTED), rounds)
    for name in ("oracle.brute_force_smallest", "oracle.check_basis_by_definition"):
        metrics[f"{name}.failed"] = per_round(tracer.total(name, tracing.FAILED), rounds)
    outer = tracer.total(tracing.NESTED[0], tracing.CALLS)
    metrics["ring_algebra.king_product.basis_builds_per_call"] = (
        tracer.nested_calls / outer if outer else 0
    )
    return metrics


# ---------------------------------------------------------------- report


def environment(seed: int, warm: bool) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "int_max_str_digits": getattr(sys, "get_int_max_str_digits", lambda: None)(),
        "git_commit": commit,
        "seed": seed,
        "pin_seed": PIN_SEED,
        "bytecode_warm_at_start": warm,
    }


def percentile(samples: list[int], p: int):
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(p / 100 * len(ordered))
    return ordered[rank - 1] if len(ordered) - rank >= 10 else None


def end_to_end(workload, setup: list[float], run: dict) -> tuple[dict, list[str]]:
    outcomes = [o for o in run["outcomes"] if o is not None]
    busy = sum(o.busy_ns for o in outcomes)
    ops = [op for o in outcomes for op in o.ops_ns]
    metrics = {
        "setup_s": statistics.median(setup),
        "work_per_s": sum(o.units for o in outcomes) / (busy / 1e9) if busy else 0.0,
        "op_ms": workload.op_stat(ops) / 1e6 if ops else 0.0,
    }
    tail = percentile(ops, workload.tail)
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters "
        f"(import + first pinned item): {', '.join(f'{s:.4f}' for s in setup)}",
        f"work_per_s is {workload.work_name}: {sum(o.units for o in outcomes)} units "
        f"in {busy / 1e9:.3f} busy s over {len(outcomes)} items",
        f"op_ms is {workload.op_name}: {workload.op_stat.__name__} of {len(ops)} operations"
        + (f"; p{workload.tail} {tail / 1e6:.6g} ms" if tail else ""),
        f"failed_ratio: {run['failed']}/{run['attempted']} = {run['failed'] / run['attempted']}",
    ]
    return metrics, notes


def emit(spec: dict, args, env: dict, digest: str, metrics: dict, notes: list[str],
         run: dict, problems: list[str]) -> int:
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in wanted}:
        missing = {m["name"] for m in wanted} ^ set(metrics)
        raise BenchError(f"metrics disagree with BENCHMARK.json: {sorted(missing)}")
    result = {
        "correct": not problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds}{' smoke' if args.smoke else ''}")
    for key, value in env.items():
        print(f"  env {key}: {value}")
    print(f"  pinned digest: {digest}")
    for line in notes:
        print(f"  {line}")
    for m in wanted:
        print(f"  {m['name']:<52} {metrics[m['name']]!r:>24} {m['unit']}")
    for line in problems[:20]:
        print(f"  PROBLEM {line}")
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, environment=env, digest=digest,
                  notes=notes, problems=problems, samples=run.get("samples"))
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(spec: dict, args) -> int:
    """Every workload in turn, each in its own fresh interpreter."""
    results, status = {}, 0
    for workload in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        results[workload["name"]] = json.loads(lines[-1]) if proc.returncode in (0, 1) else None
        status = max(status, proc.returncode)
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one block of tiny items")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            return run_all(spec, args)
        if args.workload not in names:
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or all")
        warm = prepare_source()
        seconds, workload, first = timed_setup(args.workload, args.smoke)
        if args.probe_setup:
            print(seconds)
            return 0
        mode = "smoke" if args.smoke else "full"
        digest, problems = check_pin(workload, mode, first)
        del first  # checked; keeping it alive would slow the garbage collector
        env = environment(args.seed, warm)
        if args.trace:
            run = trace_run(workload, args.seed, args.seconds, args.smoke)
            metrics, notes = run["metrics"], run["notes"]
        else:
            samples = 1 if args.smoke else workload.setup_samples
            setup = [seconds] + [probe_setup(args) for _ in range(samples - 1)]
            run = measure(workload, args.seed, args.seconds, args.smoke)
            metrics, notes = end_to_end(workload, setup, run)
            # every timing of the run, for later analysis: [busy_ns, ops_ns]
            # per item, None where the item failed
            run["samples"] = {"setup_s": setup, "items": [
                None if o is None else [o.busy_ns, o.ops_ns] for o in run["outcomes"]
            ]}
        return emit(spec, args, env, digest, metrics, notes, run,
                    problems + run["problems"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
