#!/usr/bin/env python3
"""ngramlm benchmark: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload mlm-short --seed 11 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a fixed
amount of the same workload untraced and then traced and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for what each metric means.
"""

import os
import sys
import time

_START = time.perf_counter()
# One BLAS thread, set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_run")
WORKLOAD_NAMES = ("mlm-short", "relation-long", "prep-cli")


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside one."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return None
    with open(head_path, encoding="utf-8") as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path, encoding="utf-8") as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "ngramlm", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def blas_info(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def environment(np, scipy, args, params) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(np),
        "threads": {v: os.environ.get(v) for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": params,
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ngramlm", "__init__.py")):
        print(f"perfbench: no ngramlm package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy as np
    import scipy

    import ngramlm
    import workloads
    if not os.path.abspath(ngramlm.__file__).startswith(SRC + os.sep):
        print(f"perfbench: ngramlm imported from {ngramlm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_span = (_START, time.perf_counter())

    w = workloads.WORKLOADS[args.workload]
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    tracer = workloads.Tracer() if args.trace else None
    try:
        if args.trace:
            run = workloads.trace_training if isinstance(w, workloads.TrainWorkload) else workloads.trace_prep
            result = run(w, args.seed, workdir, tracer)
        else:
            run = workloads.run_training if isinstance(w, workloads.TrainWorkload) else workloads.run_prep
            result = run(w, args.seed, args.seconds, workdir, import_span)
    except Exception:
        # A program failure outside the per-operation checks still yields a
        # result line, marked incorrect, with the traceback in a FAILED line.
        failed = workloads.Outcome()
        failed.error(f"{args.workload} run")
        result = workloads.Result(failed, {}, {}, {})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    header = environment(np, scipy, args, result.params)
    print(json.dumps({"environment": header}, sort_keys=True))
    out = result.outcome
    expected = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    missing = [name for name, _ in expected if name not in result.metrics]
    out.check(not missing, f"metrics not measured: {', '.join(missing)}")
    for note in out.notes:
        print(f"FAILED: {note}")
    for name, (value, unit) in result.report.items():
        print(f"{args.workload:14s} {name:28s} {value:.6g} {unit}")
    print(f"{args.workload:14s} {'ops_failed_share':28s} "
          f"{out.failed / max(out.attempted, 1):.6g} ratio ({out.failed}/{out.attempted})")
    if tracer is not None:
        path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path, header)
        unreached = workloads.not_reached(result.metrics)
        print(f"{args.workload:14s} spans written to {os.path.relpath(path, ROOT)}; "
              f"layers not reached (reported as 0): {', '.join(unreached) or 'none'}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": result.metrics[name][0], "unit": unit}
                    for name, unit in expected if name in result.metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
