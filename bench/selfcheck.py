"""Quick self-check of the benchmark on tiny inputs (about a minute).

    python3 bench/selfcheck.py

Runs every workload untraced and traced with a few frames and entries, and
checks that each result names exactly the metrics BENCHMARK.json declares,
with their units, that no operation failed, that every correctness check
passed, and that two runs on the same seed give the same accuracy figures.
Tail percentiles rest on too few samples here; only the shape is checked.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

TINY = workloads.Sizes(live_frames=70, live_rounds=1, cold_entries=2, cold_settle=2,
                       offline_frames=65, offline_rounds=1, setups=2,
                       warmup_frames=2, min_tail=0)
ACCURACY = ("tre_mm", "screw_traj_deg", "screw_entry_mm")


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def shape_problems(doc: dict, expected: dict[str, str], positive: bool) -> list[str]:
    out = []
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        out.append(f"result keys {sorted(doc)}")
    if doc.get("correct") is not True:
        out.append("a correctness check failed")
    if doc.get("failed") != 0 or not doc.get("attempted", 0) >= 1:
        out.append(f"attempted {doc.get('attempted')} failed {doc.get('failed')}")
    got = doc.get("metrics", {})
    if set(got) != set(expected):
        out.append(f"metric names differ: {sorted(set(got) ^ set(expected))}")
    for name, unit in expected.items():
        m = got.get(name, {})
        value = m.get("value")
        if m.get("unit") != unit or not isinstance(value, float) or not math.isfinite(value):
            out.append(f"{name}: {m}")
        elif positive and value <= 0:
            out.append(f"{name} is {value}, expected above 0")
    return out


def main() -> int:
    e2e, layers = declared("end_to_end"), declared("per_layer")
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            doc = workloads.run_workload(name, 11, TINY, trace, import_s=0.0)
            problems += [f"{name} trace={int(trace)}: {p}" for p in
                         shape_problems(doc, layers if trace else e2e, not trace)]
            if name == "live" and not trace:
                again = workloads.run_workload(name, 11, TINY, False, import_s=0.0)
                if any(doc["metrics"][k] != again["metrics"][k] for k in ACCURACY):
                    problems.append("live: accuracy differs between two runs "
                                    "of the same seed")
    for p in problems:
        print(f"selfcheck: {p}", file=sys.stderr)
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
