"""Capture range of the initial registration, as used to choose cold-start.

    python3 bench/capture_range.py [--scenes 32]

For each scene (seeds 1000, 1001, ...) at a sensor tilt drawn in +-10 deg,
the first frame is registered with the prior's orientation turned by an
exact angle about a random axis (about the anatomy, as a segmenter's error
would be) and its translation offset by an exact distance. A registration
whose mean landmark TRE exceeds 5 mm has slipped (one level is ~33 mm).
The table also gives the share of mask pixels in the largest 8-connected
component, since a split mask moves the prior's centroid by up to a level.
About a minute per ten scenes.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vertereg import geom, register, sim  # noqa: E402

import checks  # noqa: E402
from workloads import DEPTH_SIGMA, DROPOUT, largest_share  # noqa: E402

LEVELS = [(0.0, 0.0), (5.0, 5.0), (10.0, 10.0)]   # (prior deg, offset mm)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scenes", type=int, default=32)
    args = p.parse_args()
    cfg = register.RegistrationConfig()
    slips = {lvl: [0, 0] for lvl in LEVELS}    # level -> [unsplit slips, split slips]
    split_count = 0
    print("scene  tilt  share  " + "  ".join(f"{d:g}deg+{m:g}mm" for d, m in LEVELS))
    for k in range(args.scenes):
        seed = 1000 + k
        rng = np.random.default_rng([k, 99])
        tilt = float(rng.uniform(-10.0, 10.0))
        scene = sim.make_scene(seed=seed)
        spec = sim.RecordingSpec(frames=1, depth_sigma=DEPTH_SIGMA, dropout=DROPOUT,
                                 tilt_deg=tilt)
        share = largest_share(sim.render_recording(scene, spec, seed).frame(1).oracle_mask)
        split = share < 0.95
        split_count += split
        cells = []
        for lvl in LEVELS:
            frame = sim.render_recording(scene, spec, seed).frame(1)
            axis = rng.normal(size=3)
            turn = geom.axis_angle_quat(axis, math.radians(lvl[0]))
            frame.oracle_quat = geom.quat_mul(turn, frame.oracle_quat)
            d = rng.normal(size=3)
            offset = geom.RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]),
                                         d / np.linalg.norm(d) * lvl[1])
            try:
                state = register.register_initial_frame(
                    frame, scene.models, sim.oracle_segmenter, cfg,
                    initial_perturbation=offset)
                tre = float(np.mean([checks.landmark_error(
                    checks.pose_of(frame.gt_poses[m.id]),
                    checks.pose_of(state.vertebrae[m.id].pose), m.landmarks)
                    for m in scene.models]))
            except (register.NoOverlapError, register.EmptyMaskError):
                tre = math.inf
            slips[lvl][int(split)] += tre > checks.FRAME_TRE_LIMIT_MM
            cells.append(f"{tre:10.2f}")
        print(f"{seed:5d} {tilt:5.1f}  {share:5.3f}  " + "  ".join(cells), flush=True)
    unsplit = args.scenes - split_count
    for lvl in LEVELS:
        print(f"{lvl[0]:g} deg + {lvl[1]:g} mm: {slips[lvl][0]} of {unsplit} unsplit "
              f"and {slips[lvl][1]} of {split_count} split scenes slipped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
