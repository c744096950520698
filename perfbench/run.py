#!/usr/bin/env python3
"""tropmarkov benchmark: four seeded exact-dynamics workloads, run in-process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ``src/``.  One
run is a closed loop on a single thread: the next op is issued when the
previous one returns.  It repeats whole passes over the workload's inputs
until at least ``--seconds`` have elapsed, then checks every op's output
outside the timed region.  An op that raises, exits non-zero or fails its
check counts as failed.

Times are reported in reference seconds (see ``to_reference``): each raw
time is scaled by how fast the machine ran a fixed reference computation
next to it, which takes out the slow spells of a shared machine.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs passes
untraced for a quarter of ``--seconds``, then the same passes with every
layer wrapped, and reports the per-layer metrics and the tracing overhead;
it writes its spans to ``.perfbench-out/``.  ``--workload all`` runs each
workload in a fresh process and prints every result.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import tracing
import workloads

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
SETUP_REPEATS = 9
MODULES = ("cli", "classifier", "dynamics", "surface", "scalars", "hyperbolic",
           "arithmetic", "sampling")
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
# The reference computation is a fixed batch of small Fraction operations, the
# kind of work the package does.  It is timed at least every REFERENCE_GAP_S
# between ops.  REFERENCE_NOMINAL_S only sets the unit: it is about the least
# time the reference took on the shared 2-vCPU 2.0 GHz virtual machine the
# benchmark was tuned on, so reference seconds read close to its quiet seconds.
REFERENCE_ITERATIONS = 60
REFERENCE_GAP_S = 0.02
REFERENCE_NOMINAL_S = 0.0005


def import_program() -> SimpleNamespace:
    """Import the package afresh from src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "tropmarkov" or n.startswith("tropmarkov.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return SimpleNamespace(**{m: importlib.import_module(f"tropmarkov.{m}") for m in MODULES})


def _reference_work() -> Fraction:
    acc = Fraction(0)
    for i in range(REFERENCE_ITERATIONS):
        a = Fraction(i % 17 - 8, i % 5 + 1)
        acc += min(a * 2 - Fraction(3, 4), a) if a < acc else a / 3
        acc = Fraction(acc.numerator % 1000, acc.denominator % 1000 + 1)
    return acc


def reference_s() -> float:
    """Time of the reference computation now, the least of three tries."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _reference_work()
        best = min(best, perf_counter() - start)
    return best


def to_reference(seconds: float, reference: float) -> float:
    """Raw seconds measured while the reference took ``reference`` seconds,
    expressed as seconds at the nominal reference speed."""
    return seconds * REFERENCE_NOMINAL_S / reference


def setup(name: str, seed: int, tiny: bool) -> tuple[float, workloads.Workload]:
    """Import, input generation and warm-up; returns (median reference
    seconds, workload).

    Set-up runs SETUP_REPEATS times and the last workload is kept; standard
    library modules stay imported after the first repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_s()
        start = perf_counter()
        wl = workloads.build(name, import_program(), seed, tiny)
        for inp in wl.warmup:
            wl.op(inp)
        took = perf_counter() - start
        times.append(to_reference(took, (before + reference_s()) / 2))
    return statistics.median(times), wl


SAME = object()  # stands for a repeat whose output equals the input's first output


def run_passes(wl: workloads.Workload, seconds: float, order: random.Random,
               passes: int | None = None, tracer: tracing.Tracer | None = None) -> dict:
    """Issue whole passes until ``seconds`` have elapsed (or ``passes`` are done).

    Each pass issues every input once, in an order drawn from ``order``, so
    an input does not always follow the same one.  Returns each input's
    latencies in reference seconds, the raw wall time, and (input index,
    output or the exception raised) for every op in issue order.  Only the
    first output of each input is kept; a repeat that equals it is recorded
    as SAME, so memory does not grow with the number of passes.
    """
    raw, results, first = [], [], {}
    refs, ref_before = [reference_s()], []
    done = 0
    last_ref = began = perf_counter()
    indices = list(range(len(wl.inputs)))
    while True:
        order.shuffle(indices)
        for index in indices:
            if perf_counter() - last_ref >= REFERENCE_GAP_S:
                refs.append(reference_s())
                last_ref = perf_counter()
            ref_before.append(len(refs) - 1)
            start = perf_counter()
            try:
                if tracer is None:
                    out = wl.op(wl.inputs[index])
                else:
                    out = tracer.run_op(len(results), wl.op, wl.inputs[index])
            except Exception as exc:  # a failed op is counted, never dropped
                out = exc
            raw.append(perf_counter() - start)
            if index not in first:
                first[index] = out
            elif out == first[index]:
                out = SAME
            results.append((index, out))
        done += 1
        if (done >= passes) if passes is not None else (perf_counter() - began >= seconds):
            break
    wall = perf_counter() - began
    refs.append(reference_s())
    by_input: list[list[float]] = [[] for _ in wl.inputs]
    for (index, _), t, k in zip(results, raw, ref_before):
        # The op lies between the reference taken before it and the next one.
        by_input[index].append(to_reference(t, (refs[k] + refs[k + 1]) / 2))
    return {"by_input": by_input, "passes": done, "results": results, "wall": wall}


def check_results(wl: workloads.Workload, results: list) -> tuple[list[int], list[str]]:
    """Check every op; returns (positions of failed ops, reasons of the first failures).

    The first output of each input gets the full check, and a repeat equal
    to it shares its verdict.  A repeat that differs fails.
    """
    verdict: dict[int, str | None] = {}
    failed, reasons = [], []
    for position, (index, out) in enumerate(results):
        if out is SAME:
            reason = verdict[index]
        elif isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        elif index in verdict:
            reason = "output differs from an earlier run of the same input"
        else:
            try:
                reason = wl.check(wl.inputs[index], out)
            except Exception as exc:  # a malformed output fails its check
                reason = f"check raised {type(exc).__name__}: {exc}"
        verdict.setdefault(index, reason)
        if reason is not None:
            failed.append(position)
            if len(reasons) < 5:
                reasons.append(f"input {index}: {reason}")
    return failed, reasons


def end_to_end(wl: workloads.Workload, setup_s: float, measured: dict,
               failed: list[int]) -> dict[str, float]:
    """The end-to-end metrics of one untraced run.

    Each input's latency is the median over the run's passes; ops_per_s is
    the completed share of a pass divided by the sum of those latencies.
    """
    typical_ms = [1e3 * statistics.median(times) for times in measured["by_input"]]
    completed = 1 - len(failed) / len(measured["results"])  # failed ops never complete
    return {
        "setup_s": setup_s,
        "ops_per_s": 1e3 * len(typical_ms) * completed / sum(typical_ms),
        "op_p50_ms": statistics.median(typical_ms),
        "op_p90_ms": statistics.quantiles(typical_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        log=print) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    setup_s, wl = setup(name, seed, tiny)
    log(f"workload {name}  seed {seed}  seconds {seconds}  trace {int(trace)}  "
        f"python {platform.python_version()}  pass {len(wl.inputs)} ops")
    order = random.Random(seed)
    if not trace:
        measured = run_passes(wl, seconds, order)
        results = measured["results"]
        failed, reasons = check_results(wl, results)
        values = end_to_end(wl, setup_s, measured, failed)
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        for key, value in values.items():
            log(f"  {key:<12} {value:.6g} {END_TO_END[key]}")
        log(f"  {'fail_frac':<12} {len(failed) / len(results):.6g} "
            f"({len(failed)} failed / {len(results)} attempted)")
        log(f"  {len(results)} ops: {len(wl.inputs)} inputs x {measured['passes']} passes; "
            f"latency of an input = median over passes; setup_s = median of {SETUP_REPEATS}; "
            f"times in reference seconds; raw {len(results) / measured['wall']:.6g} ops/s")
    else:
        untraced = run_passes(wl, seconds / 4, order)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_passes(wl, 0, order, passes=untraced["passes"], tracer=tracer)
        finally:
            tracer.uninstall()
        results = untraced["results"] + traced["results"]
        failed, reasons = check_results(wl, untraced["results"])
        traced_failed, traced_reasons = check_results(wl, traced["results"])
        failed += traced_failed
        reasons += traced_reasons
        overhead = (sum(map(sum, traced["by_input"])) / sum(map(sum, untraced["by_input"])))
        layer = tracer.metrics(overhead)
        metrics = {}
        for key, (unit, _) in tracing.METRICS.items():
            value, base = layer[key]
            metrics[key] = {"value": value, "unit": unit}
            log(f"  {key:<45} {value:.6g} {unit}" + (f"  (base: {base})" if base else ""))
        spans_path = REPO / ".perfbench-out" / f"spans-{name}-seed{seed}.json"
        tracer.write_spans(spans_path)
        log(f"  {len(tracer.span_start)} spans written to {spans_path.relative_to(REPO)}; "
            f"{len(failed)} failed / {len(results)} attempted; self_s is raw seconds")
    for reason in reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    return {"correct": not failed, "attempted": len(results), "failed": len(failed),
            "metrics": metrics}


def _run_all(args) -> int:
    summary, status = {}, 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary, sort_keys=True))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropmarkov" / "__init__.py").is_file():
        print(f"error: no tropmarkov package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
