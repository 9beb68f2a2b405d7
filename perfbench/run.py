"""Two-clock benchmark of the Boris-pusher reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload push-cpu --seed 1 --seconds 25 \
        --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` spends half the time untraced and half with spans
around each layer's entry points, prints the per-layer metrics and
writes the spans to ``.perfbench-spans/<workload>.json``.
Either way the human-readable report goes first and the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The process runs single-threaded: BLAS and
OpenMP pools are capped at one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

for _variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                  "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_variable] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Where a traced run writes its spans when it ends.
SPANS_DIR = ROOT / ".perfbench-spans"


def _import_workloads():
    """Import the workloads against the checkout's ``src``; None if absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return None
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads
    return workloads


def expected_digests(workload: str) -> dict:
    """Recorded window digests of ``workload``, keyed by seed string."""
    path = HERE / "digests.json"
    with open(path) as handle:
        return json.load(handle).get(workload, {})


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def report(name: str, result, trace: bool, out=sys.stdout) -> dict:
    """Print the human report and return the JSON summary."""
    units = declared_units(trace)
    print(f"workload {name} ({'traced' if trace else 'untraced'})",
          file=out)
    metrics = {}
    for metric, unit in units.items():
        # A failed run may end before it measures everything.
        value = float(result.metrics[metric] if not result.failed
                      else result.metrics.get(metric, 0.0))
        samples = result.samples.get(metric, 1)
        print(f"  {metric:36s} {value:.6g} {unit} (n={samples})", file=out)
        metrics[metric] = {"value": value, "unit": unit}
    for line in result.checks:
        print(f"  {line}", file=out)
    correct = result.failed == 0
    print(f"  correct={correct} attempted={result.attempted} "
          f"failed={result.failed}", file=out)
    return {"correct": correct, "attempted": result.attempted,
            "failed": result.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = _import_workloads()
    if workloads is None:
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    result = workload.run(args.seed, args.seconds, bool(args.trace),
                          expected_digests(args.workload))
    summary = report(args.workload, result, bool(args.trace))
    if workload.recorder is not None:
        SPANS_DIR.mkdir(exist_ok=True)
        workload.recorder.dump(SPANS_DIR / f"{args.workload}.json")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
