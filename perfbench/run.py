"""Run one benchmark workload and print its result as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload batch-sst64-c --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with every instrument off;
``--trace 1`` runs the workload with a Tracer, a KernelProfiler and the
compile stage hook and reports the per-layer metrics instead.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; metric names and units come from ``BENCHMARK.json``.  Each
run also writes a full record (host stamp, host-speed probe, every
number) under ``.perfbench/records/`` for ``perfbench/compare.py``.
"""

from __future__ import annotations

import os

# One BLAS thread on both sides of every comparison: with OpenBLAS's
# default thread count the p50 of a bs=1 native call varied between 0.74
# and 1.22 ms from process to process on a 2-vCPU Xeon guest, against
# 0.66-0.71 ms pinned.  Must be set before NumPy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _command_output(cmd) -> str:
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return ""
    return proc.stdout.strip() if proc.returncode == 0 else ""


def source_digest() -> str:
    """Content hash of ``src/``: identifies the code when git is absent."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def host_stamp() -> dict:
    import numpy as np

    from repro.runtime.native import DEFAULT_CFLAGS, find_compiler

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cc = find_compiler()
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "cc": cc,
        "cc_version": (_command_output([cc, "--version"]).splitlines()
                       or [""])[0] if cc else None,
        "native_flags": list(DEFAULT_CFLAGS),
        "git_sha": _command_output(["git", "rev-parse", "HEAD"]) or None,
        "source_digest": source_digest(),
    }


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return p.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # the C compiler and tempfile write only inside the checkout
    work_dir = STATE_DIR / "tmp" / str(os.getpid())
    os.environ["TMPDIR"] = str(work_dir)

    import workloads as wl

    args = parse_args(argv, wl.WORKLOADS)
    work_dir.mkdir(parents=True, exist_ok=True)
    spec = load_spec()
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    ctx = wl.Context(seed=args.seed, seconds=args.seconds,
                     trace=bool(args.trace), work_dir=work_dir,
                     trace_dir=STATE_DIR / "traces")
    try:
        probe_before = wl.probe_ms(reps=5)
        outcome = wl.WORKLOADS[args.workload](ctx)
        probe_after = wl.probe_ms(reps=5)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    values = outcome.layers if args.trace else outcome.e2e
    missing = sorted(set(names) - set(values))
    if missing:
        print(f"perfbench: workload did not report {missing}",
              file=sys.stderr)
        return 3
    result = {
        "correct": bool(outcome.checks) and all(outcome.checks.values()),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {n: {"value": float(values[n]), "unit": units[n]}
                    for n in names},
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "time_unix": time.time(), "host": host_stamp(),
        "probe_ms": {"before": probe_before, "after": probe_after},
        "checks": outcome.checks, "e2e": outcome.e2e,
        "layers": outcome.layers, "info": outcome.info, "result": result,
    }
    rec_dir = STATE_DIR / "records"
    rec_dir.mkdir(parents=True, exist_ok=True)
    rec_path = rec_dir / (f"{args.workload}-seed{args.seed}-"
                          f"trace{args.trace}-{os.getpid()}.json")
    rec_path.write_text(json.dumps(record, indent=1, default=str))
    print(f"perfbench: {args.workload} seed={args.seed} checks="
          f"{outcome.checks} probe_ms={probe_before:.1f}/{probe_after:.1f} "
          f"record={rec_path.relative_to(ROOT)}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
