"""One fresh-interpreter pass of a benchmark workload.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace

Imports treelab from the `src` directory next to this one (and fails if it
is not there), sets the workload up, and in `run` and `trace` mode runs its
commands once and checks every output.  `trace` mode installs the tracer
right after the import, so spans cover set-up and commands, and removes it
before the checks.  Prints one JSON line; `run.py` starts this script and
reads that line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"


def import_treelab():
    sys.path.insert(0, str(SRC))
    import treelab
    import treelab.cli  # noqa: F401  (loads every treelab module)

    if not Path(treelab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"treelab was imported from {treelab.__file__}, not from {SRC}")
    return treelab


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "trace"))
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    tl = import_treelab()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out: dict = {}
    try:
        t0 = time.perf_counter()
        ctx = wl.setup(tl, args.seed)
        out["t_ready"] = time.monotonic()
        out["in_process_setup_s"] = time.perf_counter() - t0
        if args.mode != "setup":
            t0 = time.perf_counter()
            latencies, outputs = wl.run(tl, ctx)
            out["wall_s"] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.restore()
    if tracer is not None:
        left = tracer.unrestored()
        if left:
            raise SystemExit(f"tracer left wrappers in place: {left}")
        out["layers"] = tracer.metrics()
        out["max_cells"] = tracer.max_cells()
    if args.mode != "setup":
        attempted, failures = wl.check(tl, ctx, outputs)
        out.update(
            op_s=latencies,
            attempted=attempted,
            failed=len(failures),
            failures=failures[:20],
        )
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
