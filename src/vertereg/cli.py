"""Command-line interface.

Subcommands mirror the pipeline stages: ``simulate`` writes a synthetic
recording, ``register`` runs the registration loop over one, ``track``
turns stereo corner observations into smoothed drill poses, ``evaluate``
scores estimated poses against ground truth, ``ablate`` compares the four
pipeline variants, and ``serve`` replays poses as UDP telemetry.

The commands run the paper's one parameter set: ``register`` and
``ablate`` use ``RegistrationConfig()`` and ``track`` uses ``PoseKalman()``.
Library callers vary the method through ``RegistrationConfig``. Only the
telemetry destination is set per deployment, by ``--stream`` / ``--dest``
or ``$VERTEREG_STREAM``.

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
from .register import ABLATION_MODES, RegistrationConfig, run_recording
from .track import InsufficientMarkersError, PoseKalman, track_pose

STREAM_ENV = "VERTEREG_STREAM"
DEFAULT_STREAM = "127.0.0.1:9750"


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
    vids = _parse_vert_ids(parts[0])
    kind = parts[1]
    if kind not in ("sine", "drift"):
        raise ValueError(f"motion kind must be sine or drift, got {kind!r}")
    return vids, {"kind": kind, "vector": _parse_vec3(parts[2]),
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
    return float(parts[0]), float(parts[1]), int(parts[2])


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
        mask_smooth_k=args.mask_smooth_k,
        tool=tool,
    )
    scene = sim.make_scene(seed=args.seed, scale=args.scale, spacing=args.spacing)
    rec = sim.render_recording(scene, spec, seed=args.seed)
    formats.write_recording(rec, args.out, target_vertebra=args.target_vertebra,
                            target_screw=args.target_screw)
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    streamer = stream.PoseStreamer(*dest) if dest else None

    t_start = time.monotonic()
    frames = 0
    with (streamer or contextlib.nullcontext(),
          open(out / "poses.csv", "w") as poses_out,
          open(out / "state_log.csv", "w") as log_out):
        poses_out.write(formats.POSES_HEADER + "\n")
        log_out.write("frame,vertebra,inliers,baseline,updated,frozen\n")
        for state in run_recording(rec, rec.models, sim.oracle_segmenter,
                                   RegistrationConfig(), mode=args.mode,
                                   initial_perturbation=perturbation):
            f, tracks = state.frame_index, sorted(state.vertebrae.items())
            rows = {vid: PoseRow(f, vid, True, tr.updated, tr.pose)
                    for vid, tr in tracks}
            if streamer is not None:
                streamer.send(_packet(f, rec.fps, rows))
            poses_out.writelines(map(formats.pose_line, rows.values()))
            log_out.writelines(f"{f},{vid},{tr.inliers},{tr.baseline_inliers},"
                               f"{int(tr.updated)},{int(tr.frozen)}\n"
                               for vid, tr in tracks)
            frames += 1
    elapsed = time.monotonic() - t_start
    print(f"registered {frames} frames in {elapsed:.2f}s "
          f"({args.mode} mode) -> {out / 'poses.csv'}")
    return 0


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------

def cmd_track(args) -> int:
    rec = formats.LoadedRecording(args.recording)
    if not rec.has_tool:
        raise ValueError(f"recording {args.recording} has no stereo observations")
    rig, markers = rec.stereo()
    per_frame = rec.observations()
    kalman = PoseKalman()
    dt = 1.0 / rec.fps
    rows = []
    last = None
    for f in range(1, rec.frame_count + 1):
        obs = per_frame.get(f, [])
        try:
            measured = track_pose(obs, rig, markers)
            last = kalman.step(measured, dt)
            rows.append(PoseRow(f, formats.DRILL_SLOT, True, True, last))
        except InsufficientMarkersError:
            if last is not None:
                rows.append(PoseRow(f, formats.DRILL_SLOT, True, False, last))
            else:
                rows.append(PoseRow(f, formats.DRILL_SLOT, False, False,
                                    RigidTransform.identity()))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    formats.write_poses(out / "drill_poses.csv", rows)
    print(f"tracked {rec.frame_count} frames -> {out / 'drill_poses.csv'}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def cmd_evaluate(args) -> int:
    rec = formats.LoadedRecording(args.recording)
    est = formats.poses_by_frame(formats.read_poses(args.poses))
    include_caps = not args.lateral_only

    by_id = {m.id: m for m in rec.models}
    frames = sorted(est)
    for f in frames:
        if not 1 <= f <= rec.frame_count:
            raise FormatError(f"frame {f} is outside the recording's frames "
                              f"1..{rec.frame_count}", args.poses)
    start = metrics.tre_start_frame(len(frames))

    frame_lines = ["frame,vertebra,valid,updated,tre_mm"]
    screw_lines = ["frame,vertebra,screw,traj_err_deg,entry_err_mm,perforation_mm,safe"]
    tre_series: dict[int, list[float]] = {vid: [] for vid in by_id}
    traj_series: dict[tuple[int, int], list[float]] = {}
    entry_series: dict[tuple[int, int], list[float]] = {}
    perf_series: dict[tuple[int, int], list[float | None]] = {}
    updated_count = 0

    for f in frames:
        for vid in sorted(by_id):
            row = est[f].get(vid)
            if row is None or not row.valid:
                frame_lines.append(f"{f},{vid},0,0,")
                continue
            gt = rec.gt_pose(vid, f)
            model = by_id[vid]
            t = metrics.tre(gt, row.pose, model.landmarks)
            tre_series[vid].append(t)
            frame_lines.append(f"{f},{vid},1,{int(row.updated)},{t!r}")
            if vid == rec.target_vertebra and f > 1 and row.updated:
                updated_count += 1
            for sidx, plan in enumerate(model.screw_plans):
                traj = metrics.trajectory_error(plan.direction, gt, row.pose)
                entry = metrics.entry_point_error(plan.entry, gt, row.pose)
                depth = metrics.perforation(model.pedicle_points, plan, gt,
                                            row.pose, include_caps=include_caps)
                safe = metrics.is_safe(depth)
                key = (vid, sidx)
                traj_series.setdefault(key, []).append(traj)
                entry_series.setdefault(key, []).append(entry)
                perf_series.setdefault(key, []).append(depth)
                depth_txt = "" if depth is None else repr(depth)
                screw_lines.append(f"{f},{vid},{sidx},{traj!r},{entry!r},"
                                   f"{depth_txt},{int(safe)}")

    target_key = (rec.target_vertebra, rec.target_screw)
    if target_key not in perf_series:
        raise FormatError(f"no valid row of target vertebra {rec.target_vertebra}",
                          args.poses)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "frame_metrics.csv").write_text("\n".join(frame_lines) + "\n")
    (out / "screw_metrics.csv").write_text("\n".join(screw_lines) + "\n")

    success = metrics.success_rate(perf_series[target_key])
    gt1 = rec.gt_pose(rec.target_vertebra, frames[0])
    coronal_normal = quat_to_matrix(gt1.q) @ np.array([0.0, 0.0, 1.0])
    vp_angle = metrics.viewpoint_angle(np.array([0.0, 0.0, 1.0]), coronal_normal)

    tail_perfs = [d for key, series in perf_series.items()
                  for d in series[start - 1:]]
    summary = {
        "frames": len(frames),
        "tre_start_frame": start,
        "target_vertebra": rec.target_vertebra,
        "target_screw": rec.target_screw,
        "tre_mm": {
            "per_vertebra": {str(vid): metrics.recording_tre(tre_series[vid], start)
                             for vid in sorted(tre_series) if tre_series[vid]},
            "target": metrics.recording_tre(tre_series[rec.target_vertebra], start),
        },
        "trajectory_error_deg": {
            "target": metrics.recording_tre(traj_series[target_key], start),
            "per_screw": {f"{v}:{s}": metrics.recording_tre(vals, start)
                          for (v, s), vals in sorted(traj_series.items())},
        },
        "entry_point_error_mm": {
            "target": metrics.recording_tre(entry_series[target_key], start),
            "per_screw": {f"{v}:{s}": metrics.recording_tre(vals, start)
                          for (v, s), vals in sorted(entry_series.items())},
        },
        "success_rate": success,
        "updated_fraction": updated_count / max(1, len(frames) - 1),
        "viewpoint_angle_deg": vp_angle,
        "viewpoint_acceptable": metrics.viewpoint_acceptable(vp_angle),
        "all_screws_safe_after_start": all(metrics.is_safe(d) for d in tail_perfs),
        "max_perforation_mm": max((d for d in tail_perfs if d is not None),
                                  default=None),
    }
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
    results = {mode: {vid: metrics.recording_tre(values, start)
                      for vid, values in per_vertebra.items()}
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
# serve
# ---------------------------------------------------------------------------

def cmd_serve(args) -> int:
    if args.count is not None and args.count < 1:
        raise ValueError(f"--count {args.count} is below 1")
    meta = formats.read_recording_meta(args.recording)
    fps = meta["fps"] if args.fps is None else args.fps
    if not 0.0 < fps < math.inf:
        raise ValueError(f"fps {fps!r} is not positive and finite")
    by_frame = formats.poses_by_frame(formats.read_poses(args.poses))
    drill = {}
    if args.drill_poses:
        drill = formats.poses_by_frame(formats.read_poses(args.drill_poses))

    frames = sorted(by_frame)[:args.count]
    packets = []
    for f in frames:
        rows = dict(by_frame[f])
        if formats.DRILL_SLOT in drill.get(f, {}):
            rows[formats.DRILL_SLOT] = drill[f][formats.DRILL_SLOT]
        packets.append(_packet(f, fps, rows))

    dest_text = args.dest or os.environ.get(STREAM_ENV) or DEFAULT_STREAM
    host, port = _parse_dest(dest_text)
    stamps = stream.serve_packets(packets, fps, host, port)
    jitter = stream.interval_jitter(stamps, fps)
    if args.timing_log:
        Path(args.timing_log).write_text(
            "\n".join(repr(s) for s in stamps) + "\n")
    print(f"sent {len(packets)} packets to {host}:{port} at {fps} fps "
          f"(jitter {100 * jitter:.3f}%)")
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
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--spacing", type=float, default=0.5)
    p.add_argument("--mask-smooth-k", type=int, default=15)
    p.add_argument("--motion", action="append",
                   help="VERT:KIND:dx,dy,dz:FREQ (VERT in 1..5 or 'all')")
    p.add_argument("--deform", action="append",
                   help="VERT:dx,dy,dz[:rx,ry,rz] constant offset mm / deg")
    p.add_argument("--occluder", action="append",
                   help="START:END:cx,cy,cz:sx,sy,sz box in sensor mm")
    p.add_argument("--tool", action="store_true",
                   help="simulate the drill sleeve and stereo observations")
    p.add_argument("--tool-noise-px", type=float, default=0.0)
    p.add_argument("--target-vertebra", type=int, default=3)
    p.add_argument("--target-screw", type=int, default=0)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("register", help="run the registration pipeline")
    p.add_argument("--recording", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=ABLATION_MODES, default="Full")
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
    p.add_argument("--lateral-only", action="store_true",
                   help="perforation depth ignores the cylinder end caps")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="compare the four pipeline variants")
    p.add_argument("--recording", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("serve", help="replay poses as UDP telemetry")
    p.add_argument("--recording", required=True)
    p.add_argument("--poses", required=True)
    p.add_argument("--drill-poses")
    p.add_argument("--dest", help=f"host:port (default ${STREAM_ENV} "
                                  f"or {DEFAULT_STREAM})")
    p.add_argument("--fps", type=float, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--timing-log")
    p.set_defaults(func=cmd_serve)

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
