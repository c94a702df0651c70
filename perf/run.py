"""Run the repository's benchmark: one workload, or all four in turn.

Usage (from the root of a checkout)::

    python3 perf/run.py --workload batch --seed 2014 --seconds 20 --trace 0
    python3 perf/run.py --seed 2014            # every workload, each in its own process
    python3 perf/run.py --seed 2014 --trace 1  # per-layer metrics and trace files

The program is imported from ``src/`` beside this directory.  Workloads,
metrics and units are those in ``BENCHMARK.json`` at the root; perf/README.md
says why each exists and how to read the numbers.

Every end-to-end metric is printed with its unit, median, quartiles and
sample count, and the last line of standard output is one JSON object::

    {"correct": true, "attempted": 92, "failed": 0,
     "metrics": {"latency_ms": {"value": 4123.4, "unit": "ms"}, ...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics instead (a layer idle in the workload reads 0) and
writes the run's spans to ``.perfcache/traces/``.  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

_PERF = Path(__file__).resolve().parent
if sys.path and Path(sys.path[0]).resolve() == _PERF:
    # Import this directory as the ``perf`` package rather than as loose
    # modules, so ``perf/trace.py`` never shadows the standard library.
    sys.path[0] = str(_PERF.parent)

from perf import batch, ingest, serve  # noqa: E402
from perf.common import CACHE, ROOT, SRC, finite, summarize  # noqa: E402
from perf.trace import write as write_trace  # noqa: E402

WORKLOADS = {
    "batch": batch.run,
    "ingest": ingest.run,
    "serve-live": serve.run_live,
    "serve-steady": serve.run_steady,
}


def _registry():
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_one(workload, seed, seconds, trace, scale, registry):
    """Run one workload in this process; returns ``(record, lines)``: the
    JSON result record and the human-readable lines describing the run."""
    result = WORKLOADS[workload](seed, seconds, trace, scale)
    lines = [f"== {workload} (seed {seed}, {seconds:g} s{', traced' if trace else ''})"]
    metrics = {}
    if trace:
        unknown = sorted(set(result.layers) - {m["name"] for m in registry["per_layer"]})
        if unknown:
            raise KeyError(f"{workload} reported unregistered per-layer metrics {unknown}")
        for metric in registry["per_layer"]:
            value = float(result.layers.get(metric["name"], 0.0))
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
            lines.append(f"  {metric['name']:<36} {value:14.4f} {metric['unit']}")
        path = CACHE / "traces" / f"{workload}-seed{seed}.json"
        write_trace(str(path), result.spans, workload=workload, seed=seed, layers=metrics)
        lines.append(f"  (spans written to {os.path.relpath(path, ROOT)})")
    else:
        for metric in registry["end_to_end"]:
            name, unit = metric["name"], metric["unit"]
            value, q1, q3, n = summarize(result.samples[name])
            metrics[name] = {"value": value, "unit": unit}
            lines.append(
                f"  {name:<14} {value:12.4f} {unit:<6} IQR {q1:.4f}-{q3:.4f}  n={n}"
            )
        for name, values in result.details.items():
            value, q1, q3, n = summarize(values)
            spread = f"  IQR {q1:.4f}-{q3:.4f}  n={n}" if n > 1 else ""
            lines.append(f"  ({name:<18} {value:12.4f}{spread})")
    for problem in result.problems[:20]:
        lines.append(f"  FAILED CHECK: {problem}")
    correct = result.failed == 0 and all(finite(m["value"]) for m in metrics.values())
    record = {
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": m["value"] if finite(m["value"]) else None, "unit": m["unit"]}
            for name, m in metrics.items()
        },
    }
    return record, lines


def run_all(args):
    """Every workload in a fresh process of its own; one combined record."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]  # fmt: skip
        if args.scale is not None:
            command += ["--scale", str(args.scale)]
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        output = done.stdout.strip().splitlines()
        print("\n".join(output[:-1]), flush=True)
        try:
            record = json.loads(output[-1])
        except (IndexError, ValueError):
            record = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            print(f"== {workload}: no result (exit {done.returncode})", flush=True)
        combined["correct"] &= record["correct"] and done.returncode == 0
        combined["attempted"] += record["attempted"]
        combined["failed"] += record["failed"]
        for name, metric in record["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload (default: all, each in its own process)")
    parser.add_argument("--seed", type=int, default=2014, help="workload seed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics and write spans")
    parser.add_argument("--scale", type=float, default=None,
                        help="override every workload's world scale (smoke tests)")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    registry = _registry()
    if args.seconds is None:
        args.seconds = registry["run_seconds"]
    if not (args.seconds > 0 and math.isfinite(args.seconds)):
        parser.error("--seconds must be positive")
    if args.workload is None:
        return run_all(args)

    sys.path.insert(1, str(SRC))
    sys.pycache_prefix = str(CACHE / "pycache")
    record, lines = run_one(
        args.workload, args.seed, args.seconds, bool(args.trace), args.scale, registry
    )
    print("\n".join(lines), flush=True)
    print(json.dumps(record), flush=True)
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
