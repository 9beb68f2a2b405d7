"""Record the window digests the push and PIC gates compare against.

Run from the root of the repository::

    python3 perfbench/record_digests.py 0-10 2026

For each seed, each stepped workload is built and advanced through its
warm-up and measurement window on the fused path it is benchmarked on,
and the state digest is stored in ``perfbench/digests.json`` under
(workload, seed).  A run whose seed is not recorded re-derives the
digest through the unfused path instead.  Re-record only when a change
is meant to alter the physics, and say so.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def seeds_of(args):
    for arg in args:
        first, _, last = arg.partition("-")
        yield from range(int(first), int(last or first) + 1)


def main(args) -> None:
    path = HERE / "digests.json"
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for seed in seeds_of(args):
        for workload in (workloads.PushCpu(), workloads.PicLaserSlab()):
            state = workload.build(seed)
            state.engine.run(workload.warmup + workload.window)
            digest = workload.digest(state)
            recorded.setdefault(workload.name, {})[str(seed)] = digest
            print(f"{workload.name} seed {seed}: {digest}", flush=True)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
