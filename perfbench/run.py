"""The repository's benchmark of record: one workload, one seed, one run.

Run from the repository root::

    python3 perfbench/run.py --workload mixed_batch --seed 1 --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics with no probes installed;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  The metric names and units are the ones ``BENCHMARK.json``
lists; the last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}

The line before it records the host and the run's details (warm-up
length, tail percentile and sample counts, the open-loop ladder, the
per-layer breakdown).  A traced run also writes its spans to
``perfbench/out/spans-<workload>-seed<seed>.jsonl``.

Any answer the brute force contradicts prints ``"correct": false`` with
no metrics and exits 1.  Without the program's sources next to this
directory the run exits 2 before printing a result.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import sys
import tempfile

# One BLAS thread per process, set before NumPy loads.  With OpenBLAS's
# default two threads on a 2-core host, back-to-back passes of identical
# code differed by up to 30% in qps (one thread: 3%), and the process
# pool's workers oversubscribed the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")


def blas_record() -> dict[str, object]:
    """The BLAS NumPy links and the thread count it runs with."""
    import numpy as np

    info: dict[str, object] = {"threads": None}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["name"] = blas.get("name")
    info["version"] = blas.get("version")
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            # NumPy's own copy; SciPy may map a second OpenBLAS.
            libs = [
                path
                for path in (line.split()[-1] for line in maps)
                if "openblas" in path and "numpy" in path
            ]
    except OSError:
        libs = []
    for lib in libs[:1]:
        handle = ctypes.CDLL(lib)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                info["threads"] = int(getter())
                break
    return info


def host_record() -> dict[str, object]:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_record(),
    }


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from oracle import Violation
        from spans import SpanRecorder
        from workloads import WORKLOADS
    except (OSError, KeyError, ImportError) as exc:
        print(f"perfbench: cannot set up the run: {exc!r}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    # The process pool saves its shard artifact under the temp directory;
    # keep it inside the checkout.
    tempfile.tempdir = os.path.join(OUT, "tmp")

    host = host_record()
    recorder = SpanRecorder() if args.trace else None
    try:
        report = WORKLOADS[args.workload](args.seed, args.seconds, recorder)
    except Violation as exc:
        print(f"perfbench: correctness violation: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    if recorder is not None:
        recorder.dump(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(report.metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(report.metrics)} do not match BENCHMARK.json {sorted(units)}"
        )
    bad = [name for name, value in report.metrics.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    print(
        json.dumps(
            {
                "host": host,
                "workload": args.workload,
                "seed": args.seed,
                "trace": args.trace,
                "details": report.details,
            }
        )
    )
    print(
        json.dumps(
            {
                "correct": True,
                "attempted": report.attempted,
                "failed": report.failed,
                "metrics": {
                    name: {"value": float(report.metrics[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
