"""Benchmark of vertereg: the live frame loop, cold start and the offline batch.

Run from the root of a source checkout:

    python3 bench/run.py --workload live --seed 0 --seconds 15 --trace 0

The package is imported from ``src/`` of that checkout. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("live", "cold-start", "offline")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True,
                   help="nominal length of the measured part on the reference host")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def pin_to_one_cpu() -> int:
    """Confine this process, and every thread it starts later, to one CPU.

    On a small virtual machine the KD queries' worker threads on two vCPUs
    are slower than on one and their time moves by a fifth from one
    2-second window to the next (README.md, "Why one CPU"); on one CPU the
    same work repeats within a few per cent. The highest-numbered CPU the
    process may use is taken, away from the interrupts CPU 0 serves.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not (SRC / "vertereg" / "__init__.py").is_file():
        print(f"error: no vertereg sources under {SRC}", file=sys.stderr)
        return 2

    # before numpy starts its thread pool, so the pool inherits the mask
    print(f"pinned to CPU {pin_to_one_cpu()}")

    # set-up starts here: the cold import of the package (numpy and scipy
    # included) is paid once per process; like every time the benchmark
    # reports, it is process CPU time
    c0 = time.process_time()
    sys.path.insert(0, str(SRC))
    import vertereg.cli  # noqa: F401  (pulls in every module of the package)
    import_s = time.process_time() - c0
    if Path(vertereg.__file__).resolve().parent != SRC / "vertereg":
        print(f"error: imported vertereg from {vertereg.__file__}", file=sys.stderr)
        return 2

    import workloads
    result = workloads.run_workload(args.workload, args.seed,
                                    workloads.sizes_for(args.seconds),
                                    bool(args.trace), import_s)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
