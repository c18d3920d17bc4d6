"""Command-line interface.

Five subcommands mirror the pipeline stages: ``simulate`` writes a
synthetic recording, ``register`` runs the Full pipeline over one,
``track`` turns stereo corner observations into smoothed drill poses,
``evaluate`` scores estimated poses against ground truth and ``ablate``
compares the four pipeline variants (General, Refinement, First-60 and
Full, all derived from one Full pass). Both judge a recording-level error
over the frames numbered ``metrics.TRE_START_FRAME`` or later (all frames
when there are fewer), by frame number, with invalid rows skipped. On a
recording with the drill sleeve, ``register`` also tracks the sleeve frame
by frame and writes its row (slot ``formats.DRILL_SLOT``, the same row
``track`` writes) to ``poses.csv`` and to each frame's datagram.

The commands run the paper's one parameter set: ``register`` and
``ablate`` use ``RegistrationConfig()``, ``track`` ``PoseKalman()``,
``simulate`` one scene geometry per seed and one oracle mask rule, and
``evaluate`` the target screw ``metrics.TARGET_SCREW`` of vertebra
``metrics.TARGET_VERTEBRA``.
Library callers vary the method through ``RegistrationConfig``. Only the
telemetry destination is set per deployment, by ``register --stream`` or
``$VERTEREG_STREAM``.

All commands are deterministic given their seed: re-running produces
byte-identical output files. ``register`` writes each frame's rows to
``poses.csv`` and ``state_log.csv`` (and sends its datagram) as soon as
the frame is registered, so a run that fails part-way leaves the rows of
every frame before the failure on disk.

Errors print a machine-readable JSON object to stderr. The exit code is 0
on success, 2 for a ``format`` error (malformed input; the object names
the file) and 1 for any other error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import formats, metrics, sim, stream
from .formats import FormatError, PoseRow
from .geom import RigidTransform, quat_to_matrix
from .metrics import ABLATION_MODES
from .register import RegistrationConfig, run_recording
from .track import InsufficientMarkersError, PoseKalman, track_pose

STREAM_ENV = "VERTEREG_STREAM"


def _fail(kind: str, message: str, **extra) -> None:
    doc = {"error": kind, "message": message}
    doc.update({k: v for k, v in extra.items() if v is not None})
    print(json.dumps(doc, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# mini-DSL parsers for scene scripting flags
# ---------------------------------------------------------------------------

def _parse_vec3(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated values, got {text!r}")
    return tuple(float(p) for p in parts)


def _parse_vert_ids(text: str) -> list[int]:
    if text == "all":
        return [1, 2, 3, 4, 5]
    vid = int(text)
    if not 1 <= vid <= 5:
        raise ValueError(f"vertebra id must be 1..5 or 'all', got {text!r}")
    return [vid]


def _parse_motion(text: str) -> tuple[list[int], dict]:
    """VERT:KIND:dx,dy,dz:FREQ_HZ — e.g. all:sine:0,0,1:0.2"""
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"motion spec needs VERT:KIND:VEC:FREQ, got {text!r}")
    return _parse_vert_ids(parts[0]), {"kind": parts[1],
                                       "vector": _parse_vec3(parts[2]),
                                       "freq_hz": float(parts[3])}


def _parse_deform(text: str) -> tuple[list[int], dict]:
    """VERT:dx,dy,dz[:rx,ry,rz] — constant offset (mm) and rotation (deg)."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ValueError(f"deform spec needs VERT:VEC[:ROT], got {text!r}")
    vids = _parse_vert_ids(parts[0])
    out = {"offset_translation": _parse_vec3(parts[1])}
    if len(parts) == 3:
        rot = _parse_vec3(parts[2])
        out["offset_rotvec"] = tuple(math.radians(r) for r in rot)
    return vids, out


def _parse_occluder(text: str) -> sim.Occluder:
    """START:END:cx,cy,cz:sx,sy,sz — frames inclusive, box in sensor mm."""
    parts = text.split(":")
    if len(parts) != 4:
        raise ValueError(f"occluder spec needs START:END:CENTER:SIZE, got {text!r}")
    return sim.Occluder(int(parts[0]), int(parts[1]),
                        _parse_vec3(parts[2]), _parse_vec3(parts[3]))


def _parse_dest(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdecimal() or not 1 <= int(port) <= 65535:
        raise ValueError(f"stream destination must be host:port with a port "
                         f"in 1..65535, got {text!r}")
    return host, int(port)


def _parse_perturb(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"perturbation needs DEG:MM:SEED, got {text!r}")
    deg, mm = float(parts[0]), float(parts[1])
    if not (0.0 <= deg < math.inf and 0.0 <= mm < math.inf):
        raise ValueError(f"DEG:MM must be finite and nonnegative, got {text!r}")
    return deg, mm, int(parts[2])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    motions: dict[int, dict] = {}
    for text in args.motion or []:
        vids, fields = _parse_motion(text)
        for vid in vids:
            motions.setdefault(vid, {}).update(fields)
    for text in args.deform or []:
        vids, fields = _parse_deform(text)
        for vid in vids:
            motions.setdefault(vid, {}).update(fields)
    motion_specs = {vid: sim.MotionSpec(**fields) for vid, fields in motions.items()}

    tool = None
    if args.tool:
        base = RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]),
                              np.array([0.0, -40.0, 320.0]))
        tool = sim.ToolSpec(base_pose=base,
                            motion=sim.MotionSpec(kind="sine",
                                                  vector=(10.0, 0.0, 5.0),
                                                  freq_hz=0.25),
                            corner_sigma_px=args.tool_noise_px)

    spec = sim.RecordingSpec(
        frames=args.frames,
        fps=args.fps,
        depth_sigma=args.noise_sigma,
        dropout=args.dropout,
        occluders=[_parse_occluder(t) for t in (args.occluder or [])],
        motions=motion_specs,
        tilt_deg=args.tilt_deg,
        orientation_error_deg=args.orientation_error_deg,
        tool=tool,
    )
    rec = sim.render_recording(sim.make_scene(seed=args.seed), spec, seed=args.seed)
    formats.write_recording(rec, args.out)
    print(f"wrote {args.frames} frames to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# register
# ---------------------------------------------------------------------------

def _packet(frame: int, fps: float, rows_by_slot: dict[int, PoseRow]) -> bytes:
    """Telemetry datagram of one frame; a slot without a row is empty."""
    slots = [stream.PoseSlot(row.valid, row.updated, row.pose)
             if (row := rows_by_slot.get(k)) else stream.PoseSlot.empty()
             for k in range(1, stream.SLOT_COUNT + 1)]
    return stream.encode_packet(frame, round((frame - 1) / fps * 1e6), slots)


def cmd_register(args) -> int:
    rec = formats.LoadedRecording(args.recording)
    perturbation = None
    if args.perturb_initial:
        deg, mm, pseed = _parse_perturb(args.perturb_initial)
        perturbation = sim.perturbation(np.random.default_rng(pseed),
                                        math.radians(deg), mm)

    dest_text = args.stream or os.environ.get(STREAM_ENV)
    dest = _parse_dest(dest_text) if dest_text else None
    drill = (_drill_rows(rec, *rec.stereo()) if rec.has_tool
             else itertools.repeat(None))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    streamer = stream.PoseStreamer(*dest) if dest else None

    t_start = time.monotonic()
    with (streamer or contextlib.nullcontext(),
          open(out / "poses.csv", "w") as poses_out,
          open(out / "state_log.csv", "w") as log_out):
        poses_out.write(formats.POSES_HEADER + "\n")
        log_out.write("frame,vertebra,inliers,baseline,updated,frozen\n")
        states = run_recording(rec, rec.models, sim.oracle_segmenter,
                               RegistrationConfig(), initial_perturbation=perturbation)
        for state, drill_row in zip(states, drill):
            f, tracks = state.frame_index, sorted(state.vertebrae.items())
            rows = {vid: PoseRow(f, vid, True, tr.updated, tr.pose)
                    for vid, tr in tracks}
            if drill_row is not None:
                rows[formats.DRILL_SLOT] = drill_row
            if streamer is not None:
                streamer.send(_packet(f, rec.fps, rows))
            poses_out.writelines(map(formats.pose_line, rows.values()))
            log_out.writelines(f"{f},{vid},{tr.inliers},{tr.baseline_inliers},"
                               f"{int(tr.updated)},{int(tr.frozen)}\n"
                               for vid, tr in tracks)
    elapsed = time.monotonic() - t_start
    print(f"registered {rec.frame_count} frames in {elapsed:.2f}s "
          f"-> {out / 'poses.csv'}")
    return 0


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------

def _drill_rows(rec, rig, markers):
    """The sleeve's row of each frame of ``rec``, one frame per step.

    A frame whose markers give a pose yields the Kalman-smoothed pose; any
    other frame holds the last pose with ``updated`` 0, and before the
    first fix yields ``valid`` 0 with the identity pose.
    """
    per_frame = rec.observations()
    kalman = PoseKalman()
    dt = 1.0 / rec.fps
    last = None
    for f in range(1, rec.frame_count + 1):
        try:
            last = kalman.step(track_pose(per_frame.get(f, []), rig, markers), dt)
            updated = True
        except InsufficientMarkersError:
            updated = False
        if last is None:
            yield PoseRow(f, formats.DRILL_SLOT, False, False, RigidTransform.identity())
        else:
            yield PoseRow(f, formats.DRILL_SLOT, True, updated, last)


def cmd_track(args) -> int:
    rec = formats.LoadedRecording(args.recording)
    if not rec.has_tool:
        raise ValueError(f"recording {args.recording} has no stereo observations")
    rows = list(_drill_rows(rec, *rec.stereo()))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.write_poses(out / "drill_poses.csv", rows)
    print(f"tracked {rec.frame_count} frames -> {out / 'drill_poses.csv'}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    """Score the poses file against the recording's ground truth.

    Every figure comes from two tables of valid rows, ``(frame, tre)`` per
    vertebra and ``(frame, trajectory, entry, perforation)`` per screw, each
    tail judged by ``metrics.recording_tre``. A vertebra or screw with no
    judged row is left out; for the target that is a ``format`` error, and
    every check runs before ``--out`` is created.
    """
    rec = formats.LoadedRecording(args.recording)
    target_vid, target_screw = metrics.TARGET_VERTEBRA, metrics.TARGET_SCREW
    target_key = (target_vid, target_screw)
    by_id = {m.id: m for m in rec.models}
    if len(by_id[target_vid].screw_plans) <= target_screw:
        raise FormatError(f"vertebra {target_vid} has no screw plan {target_screw}",
                          rec.root / "models" / f"vert{target_vid}.json")
    est = formats.poses_by_frame(formats.read_poses(args.poses))

    frames = sorted(est)
    for f in frames:
        if not 1 <= f <= rec.frame_count:
            raise FormatError(f"frame {f} is outside the recording's frames "
                              f"1..{rec.frame_count}", args.poses)
    start = metrics.tre_start_frame(len(frames))

    vertebrae: dict[int, list[tuple[int, float]]] = {}
    screws: dict[tuple[int, int], list[tuple[int, float, float, float | None]]] = {}
    frame_lines = ["frame,vertebra,valid,updated,tre_mm"]
    screw_lines = ["frame,vertebra,screw,traj_err_deg,entry_err_mm,perforation_mm,safe"]
    for f in frames:
        for vid, model in sorted(by_id.items()):
            row = est[f].get(vid)
            if row is None or not row.valid:
                frame_lines.append(f"{f},{vid},0,0,")
                continue
            t, errors = metrics.vertebra_errors(model, rec.gt_pose(vid, f), row.pose)
            vertebrae.setdefault(vid, []).append((f, t))
            frame_lines.append(f"{f},{vid},1,{int(row.updated)},{t!r}")
            for sidx, (traj, entry, depth) in enumerate(errors):
                screws.setdefault((vid, sidx), []).append((f, traj, entry, depth))
                depth_txt = "" if depth is None else repr(depth)
                screw_lines.append(f"{f},{vid},{sidx},{traj!r},{entry!r},"
                                   f"{depth_txt},{int(metrics.is_safe(depth))}")

    def judged_means(table, column):
        # rows run in frame order, so the last row tells whether any is judged
        return {key: metrics.recording_tre([(r[0], r[column]) for r in rows], start)
                for key, rows in table.items() if rows[-1][0] >= start}

    tre_mm = judged_means(vertebrae, 1)
    traj_deg, entry_mm = judged_means(screws, 1), judged_means(screws, 2)
    if target_vid not in tre_mm:
        raise FormatError(f"no valid row of target vertebra {target_vid} at or "
                          f"after frame {start}", args.poses)
    judged_depths = [r[3] for rows in screws.values() for r in rows if r[0] >= start]
    success = metrics.success_rate([r[3] for r in screws[target_key]])
    updated = sum(est[f][target_vid].updated for f, _ in vertebrae[target_vid] if f > 1)
    gt1 = rec.gt_pose(target_vid, frames[0])
    coronal_normal = quat_to_matrix(gt1.q) @ np.array([0.0, 0.0, 1.0])
    vp_angle = metrics.viewpoint_angle(np.array([0.0, 0.0, 1.0]), coronal_normal)
    summary = {
        "frames": len(frames),
        "tre_start_frame": start,
        "target_vertebra": target_vid,
        "target_screw": target_screw,
        "tre_mm": {"per_vertebra": {str(vid): v for vid, v in tre_mm.items()},
                   "target": tre_mm[target_vid]},
        "trajectory_error_deg": {
            "target": traj_deg[target_key],
            "per_screw": {f"{v}:{s}": x for (v, s), x in traj_deg.items()}},
        "entry_point_error_mm": {
            "target": entry_mm[target_key],
            "per_screw": {f"{v}:{s}": x for (v, s), x in entry_mm.items()}},
        "success_rate": success,
        "updated_fraction": updated / max(1, len(frames) - 1),
        "viewpoint_angle_deg": vp_angle,
        "viewpoint_acceptable": metrics.viewpoint_acceptable(vp_angle),
        "all_screws_safe_after_start": all(map(metrics.is_safe, judged_depths)),
        "max_perforation_mm": max((d for d in judged_depths if d is not None),
                                  default=None),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "frame_metrics.csv").write_text("\n".join(frame_lines) + "\n")
    (out / "screw_metrics.csv").write_text("\n".join(screw_lines) + "\n")
    formats.write_json(out / "summary.json", summary)
    print(f"success rate {success:.3f}, target TRE "
          f"{summary['tre_mm']['target']:.3f} mm -> {out / 'summary.json'}")
    return 0


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------

def cmd_ablate(args) -> int:
    rec = formats.LoadedRecording(args.recording)
    start = metrics.tre_start_frame(rec.frame_count)

    series = metrics.run_ablation(rec, rec.models, sim.oracle_segmenter,
                                  RegistrationConfig(), rec.gt_pose)
    results = {mode: {vid: metrics.recording_tre(rows, start)
                      for vid, rows in per_vertebra.items()}
               for mode, per_vertebra in series.items()}

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["vertebra," + ",".join(ABLATION_MODES)]
    for vid in range(1, 6):
        lines.append(f"{vid}," + ",".join(repr(results[m][vid])
                                          for m in ABLATION_MODES))
    means = {m: float(np.mean([results[m][v] for v in range(1, 6)]))
             for m in ABLATION_MODES}
    lines.append("mean," + ",".join(repr(means[m]) for m in ABLATION_MODES))
    (out / "ablation.csv").write_text("\n".join(lines) + "\n")

    print(f"{'vertebra':>8} " + " ".join(f"{m:>12}" for m in ABLATION_MODES))
    for vid in range(1, 6):
        print(f"{vid:>8} " + " ".join(f"{results[m][vid]:12.4f}"
                                      for m in ABLATION_MODES))
    print(f"{'mean':>8} " + " ".join(f"{means[m]:12.4f}" for m in ABLATION_MODES))
    return 0


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertereg",
        description="simulate, register, track, evaluate, ablate and stream "
                    "vertebra poses")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic recording")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--fps", type=float, default=30.0)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--orientation-error-deg", type=float, default=0.0)
    p.add_argument("--tilt-deg", type=float, default=0.0)
    p.add_argument("--motion", action="append",
                   help="VERT:KIND:dx,dy,dz:FREQ (VERT in 1..5 or 'all')")
    p.add_argument("--deform", action="append",
                   help="VERT:dx,dy,dz[:rx,ry,rz] constant offset mm / deg")
    p.add_argument("--occluder", action="append",
                   help="START:END:cx,cy,cz:sx,sy,sz box in sensor mm")
    p.add_argument("--tool", action="store_true",
                   help="simulate the drill sleeve and stereo observations")
    p.add_argument("--tool-noise-px", type=float, default=0.0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("register", help="run the registration pipeline")
    p.add_argument("--recording", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stream", help="host:port for live pose datagrams")
    p.add_argument("--perturb-initial", metavar="DEG:MM:SEED",
                   help="corrupt the initial pose estimate (robustness testing)")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("track", help="smooth drill poses from stereo corners")
    p.add_argument("--recording", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("evaluate", help="score estimated poses vs ground truth")
    p.add_argument("--recording", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="compare the four pipeline variants")
    p.add_argument("--recording", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as e:
        _fail("format", str(e), file=e.path, offset=e.offset)
        return 2
    except (ValueError, RuntimeError) as e:
        _fail(type(e).__name__, str(e))
        return 1
    except OSError as e:
        _fail("io", str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
