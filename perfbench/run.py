"""treelab benchmark runner.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out PATH]

Run from the root of a checkout; treelab is imported from its `src`.  Each
pass of a workload runs in a fresh interpreter (`worker.py`), one after
another, until `--seconds` would be exceeded.

--trace 0  times untraced passes and reports the end-to-end metrics: the
           mean over passes of the commands' wall time, the median peak RSS,
           and the median set-up time over at least five fresh interpreters.
--trace 1  alternates untraced and traced passes and reports the per-layer
           metrics of the traced passes (low medians over passes) plus the
           tracing overhead.

Before timing, one untimed set-up-only pass writes treelab's bytecode cache
(unless PYTHONDONTWRITEBYTECODE is set) and fills the file cache, so no timed
pass pays for them.

Every output is checked.  The last stdout line is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
run record (code digest, seed, machine, Python and numpy versions, BLAS
thread variables, per-pass samples).  `--out PATH` also writes both to PATH.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import declared_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
MIN_SETUP_SAMPLES = 5
HARD_LIMIT_S = 170.0
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class PassFailed(RuntimeError):
    pass


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]: always a measured value."""
    xs = sorted(values)
    return xs[max(math.ceil(q * len(xs)), 1) - 1]


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.passes: list[dict] = []

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, mode: str, label: str | None = None) -> dict:
        cmd = [
            sys.executable,
            str(HERE / "worker.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--mode", mode,
        ]
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=max(1.0, HARD_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired as err:
            raise PassFailed(f"{mode} pass exceeded the {HARD_LIMIT_S:.0f} s limit") from err
        if proc.returncode != 0:
            raise PassFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["mode"] = label or mode
        out["setup_s"] = out.pop("t_ready") - t_spawn
        out["duration_s"] = time.monotonic() - t_spawn
        self.passes.append(out)
        return out

    def loop(self, modes: tuple[str, ...], seconds: float) -> None:
        """Warm up, then run rounds of passes until one more would pass `seconds`."""
        self.spawn("setup", label="warmup")
        while True:
            t0 = self.elapsed()
            for mode in modes:
                self.spawn(mode)
            if self.elapsed() + (self.elapsed() - t0) > seconds:
                return

    def of(self, mode: str) -> list[dict]:
        return [p for p in self.passes if p["mode"] == mode]


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    runs = runner.of("run")
    setups = [p["setup_s"] for p in runs]
    while len(setups) < MIN_SETUP_SAMPLES:
        setups.append(runner.spawn("setup")["setup_s"])
    ops_ms = [s * 1000 for p in runs for s in p["op_s"]]
    walls = [p["wall_s"] for p in runs]
    metrics = {
        # a mean, not a median: the host's speed switches between states that
        # last several passes, and a median of a few passes jumps between them
        "wall_s": statistics.fmean(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in runs),
    }
    extra = {
        "samples": {"wall_s": len(runs), "setup_s": len(setups), "reductions": len(ops_ms)},
        "wall_s_median": statistics.median(walls),
    }
    if ops_ms:
        extra["reduction_p50_ms"] = percentile(ops_ms, 0.5)
        extra["reduction_p90_ms"] = percentile(ops_ms, 0.9)
    return metrics, extra


def per_layer(runner: Runner) -> tuple[dict, dict]:
    traced, untraced = runner.of("trace"), runner.of("run")
    names = declared_metrics()
    # median_low keeps counts whole: every value is one traced pass's
    metrics = {
        name: statistics.median_low(p["layers"][name] for p in traced)
        for name in names
        if not name.startswith("trace.")
    }
    traced_wall = statistics.fmean(p["wall_s"] for p in traced)
    untraced_wall = statistics.fmean(p["wall_s"] for p in untraced)
    metrics["trace.setup_s"] = statistics.median(p["in_process_setup_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    max_cells = max(p["max_cells"] for p in traced)
    extra = {
        "untraced_wall_s": untraced_wall,
        "samples": {"traced": len(traced), "untraced": len(untraced)},
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
        "largest_matrix_cells": max_cells,
        "largest_matrix_dense_bytes_computed": max_cells * 8,
    }
    return metrics, extra


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "treelab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def machine_record() -> dict:
    import numpy

    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None, help="also write the record and result to this JSON file")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "treelab" / "__init__.py").is_file():
        print(f"perfbench: no treelab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            runner.loop(("run", "trace"), args.seconds)
            metrics, extra = per_layer(runner)
            units = {k: unit for k, (unit, _) in declared_metrics().items()}
        else:
            runner.loop(("run",), args.seconds)
            metrics, extra = end_to_end(runner)
            units = END_TO_END
    except PassFailed as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 1

    checked = [p for p in runner.passes if p["mode"] in ("run", "trace")]
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    for p in checked:
        for msg in p["failures"]:
            print(f"perfbench: FAILED {msg}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **machine_record(),
        "fail_ratio": failed / attempted if attempted else None,
        **extra,
        "passes": [
            {k: p[k] for k in ("mode", "setup_s", "wall_s", "rss_mb", "duration_s") if k in p}
            for p in runner.passes
        ],
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"record": record, "result": result}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
