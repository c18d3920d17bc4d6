"""On-disk formats: depth maps, masks, models, pose tables, recordings.

All binary formats are little-endian and fully specified here:

- depth: magic ``DPTH``, u32 width, u32 height, f32 mm-per-unit, then
  width*height u16 values row-major (0 = invalid pixel);
- masks: magic ``MSK1``, u32 width, u32 height, then bit-packed rows,
  each row padded to a byte boundary;
- models: a PLY file plus a JSON sidecar. The PLY header is fixed, byte
  for byte::

      ply
      format binary_little_endian 1.0
      element vertex <n>
      property double x
      property double y
      property double z
      property double nx
      property double ny
      property double nz
      end_header

  with one ``\\n`` after each line and ``<n>`` in decimal without leading
  zeros. Exactly n*48 bytes follow: one row of six f64 values per vertex,
  all finite. ASCII and float32 PLYs are rejected. The sidecar holds the id,
  landmarks, pedicle point indices, registration point indices and screw
  plans;
- poses: CSV ``frame,vertebra,valid,updated,qw,qx,qy,qz,tx,ty,tz``.

Floats in text files are written with ``repr`` and model vertices as their
f64 bytes, so write-read-write round trips are byte-identical.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import sim
from .cloud import CameraIntrinsics
from .geom import RigidTransform
from .register import ScrewPlan, VertebraModel
from .track import MarkerObservation, StereoRig

DEFAULT_DEPTH_SCALE = 0.05  # mm per u16 unit; 0.05 spans 3.27 m

DEPTH_MAGIC = b"DPTH"
MASK_MAGIC = b"MSK1"

POSES_HEADER = "frame,vertebra,valid,updated,qw,qx,qy,qz,tx,ty,tz"
DRILL_SLOT = 6


class FormatError(ValueError):
    """Malformed input file; carries the byte offset of the problem."""

    def __init__(self, message: str, path=None, offset: int | None = None):
        loc = f"{path}: " if path is not None else ""
        at = f" (at byte {offset})" if offset is not None else ""
        super().__init__(f"{loc}{message}{at}")
        self.path = str(path) if path is not None else None
        self.offset = offset

def _f(x) -> str:
    """Shortest exact decimal for a float (plain Python repr)."""
    return repr(float(x))


def write_json(path, doc) -> None:
    """``doc`` as sorted, one-space-indented JSON and a final newline."""
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=1)
        f.write("\n")


def _read_json(path, build):
    """``build(doc)`` of the JSON document in ``path``.

    Bytes that are not UTF-8, bad or too deeply nested JSON, a key
    ``build`` misses and a value it cannot convert raise FormatError naming
    ``path``.
    """
    try:
        doc = json.loads(Path(path).read_bytes().decode("utf-8"))
    except UnicodeDecodeError as e:
        raise FormatError(f"not UTF-8: {e.reason}", path, offset=e.start)
    except json.JSONDecodeError as e:
        raise FormatError(f"bad JSON: {e.msg}", path, offset=e.pos)
    except RecursionError:
        raise FormatError("JSON nested too deeply", path)
    try:
        return build(doc)
    except KeyError as e:
        raise FormatError(f"lacks key {e.args[0]!r}", path)
    except (AttributeError, OverflowError, TypeError, ValueError) as e:
        raise FormatError(f"bad value: {e}", path)


# ---------------------------------------------------------------------------
# depth maps
# ---------------------------------------------------------------------------

def write_depth(path, depth_mm: np.ndarray, scale: float = DEFAULT_DEPTH_SCALE) -> None:
    depth_mm = np.asarray(depth_mm, dtype=float)
    h, w = depth_mm.shape
    units = np.rint(depth_mm / scale)
    units = np.clip(units, 0, 65535).astype(np.uint16)
    # keep valid pixels valid after quantization
    units[(depth_mm > 0) & (units == 0)] = 1
    with open(path, "wb") as f:
        f.write(DEPTH_MAGIC)
        f.write(struct.pack("<IIf", w, h, scale))
        f.write(units.tobytes())


def read_depth(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != DEPTH_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {DEPTH_MAGIC!r}",
                          path, offset=0)
    if len(data) < 16:
        raise FormatError("truncated header", path, offset=len(data))
    w, h, scale = struct.unpack_from("<IIf", data, 4)
    expected = 16 + 2 * w * h
    if len(data) != expected:
        raise FormatError(f"expected {expected} bytes for {w}x{h}, got {len(data)}",
                          path, offset=min(len(data), expected))
    units = np.frombuffer(data, dtype="<u2", offset=16).reshape(h, w)
    return units.astype(np.float64) * np.float32(scale)


# ---------------------------------------------------------------------------
# binary masks
# ---------------------------------------------------------------------------

def write_mask(path, mask: np.ndarray) -> None:
    mask = np.asarray(mask, dtype=bool)
    h, w = mask.shape
    packed = np.packbits(mask, axis=1)
    with open(path, "wb") as f:
        f.write(MASK_MAGIC)
        f.write(struct.pack("<II", w, h))
        f.write(packed.tobytes())


def read_mask(path) -> np.ndarray:
    data = Path(path).read_bytes()
    if data[:4] != MASK_MAGIC:
        raise FormatError(f"bad magic {data[:4]!r}, expected {MASK_MAGIC!r}",
                          path, offset=0)
    if len(data) < 12:
        raise FormatError("truncated header", path, offset=len(data))
    w, h = struct.unpack_from("<II", data, 4)
    row_bytes = (w + 7) // 8
    expected = 12 + row_bytes * h
    if len(data) != expected:
        raise FormatError(f"expected {expected} bytes for {w}x{h}, got {len(data)}",
                          path, offset=min(len(data), expected))
    packed = np.frombuffer(data, dtype=np.uint8, offset=12).reshape(h, row_bytes)
    return np.unpackbits(packed, axis=1, count=w).astype(bool)


# ---------------------------------------------------------------------------
# models (binary PLY + JSON sidecar)
# ---------------------------------------------------------------------------

_PLY_PROPERTIES = ["x", "y", "z", "nx", "ny", "nz"]
_PLY_HEADER = ["ply", "format binary_little_endian 1.0", "element vertex {n}",
               *(f"property double {p}" for p in _PLY_PROPERTIES), "end_header"]
_PLY_ROW_BYTES = 8 * len(_PLY_PROPERTIES)


def write_ply(path, points: np.ndarray, normals: np.ndarray) -> None:
    rows = np.hstack([np.asarray(points, dtype=float).reshape(-1, 3),
                      np.asarray(normals, dtype=float).reshape(-1, 3)])
    if not np.isfinite(rows).all():
        raise ValueError("model points and normals must be finite")
    header = "".join(line.format(n=rows.shape[0]) + "\n" for line in _PLY_HEADER)
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(rows.astype("<f8").tobytes())


def read_ply(path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    lines = raw.split(b"\n", len(_PLY_HEADER))
    count = lines[2][len(b"element vertex "):] if len(lines) > 2 else b""
    # at most 18 digits: int() of a longer string is slow or refused, and
    # any count that long could not match the file's length anyway
    n = int(count) if count.isdigit() and len(count) <= 18 else None
    offset = 0
    for k, template in enumerate(_PLY_HEADER):
        want = template.format(n="<count>" if n is None else n)
        # the last piece of the split is the vertex data, not a header line
        got = lines[k].decode("ascii", errors="replace") if k < len(lines) - 1 else None
        if got != want or (k == 2 and n is None):
            raise FormatError(f"expected PLY header line {want!r}, got {got!r}",
                              path, offset)
        offset += len(want) + 1
    expected = n * _PLY_ROW_BYTES
    if len(raw) - offset != expected:
        raise FormatError(f"expected {expected} bytes of vertex data for {n} "
                          f"vertices, got {len(raw) - offset}",
                          path, offset=offset + min(len(raw) - offset, expected))
    rows = np.frombuffer(raw, dtype="<f8", offset=offset).reshape(n, 6)
    bad = np.flatnonzero(~np.isfinite(rows))
    if bad.size:
        raise FormatError(f"non-finite value in vertex {bad[0] // 6}", path,
                          offset=offset + 8 * int(bad[0]))
    return rows[:, :3].copy(), rows[:, 3:].copy()


def save_model(model: VertebraModel, ply_path, sidecar_path) -> None:
    write_ply(ply_path, model.points, model.normals)
    doc = {
        "id": model.id,
        "landmarks": model.landmarks.tolist(),
        "pedicle_indices": model.pedicle_indices.tolist(),
        "reg_indices": model.reg_indices.tolist(),
        "screw_plans": [
            {"entry": p.entry.tolist(), "direction": p.direction.tolist(),
             "radius_mm": p.radius_mm, "length_mm": p.length_mm}
            for p in model.screw_plans
        ],
    }
    write_json(sidecar_path, doc)


def _indices(value) -> np.ndarray:
    """A JSON list of point indices as an int64 array; anything else raises."""
    arr = np.array(value)
    if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
        raise ValueError(f"expected a list of integer indices, got {value!r:.40}")
    return arr.astype(np.int64)


def load_model(ply_path, sidecar_path) -> VertebraModel:
    """Load a model and its sidecar. A missing or malformed sidecar key, or
    an index outside the model's points, raises FormatError."""
    points, normals = read_ply(ply_path)

    def build(doc) -> VertebraModel:
        plans = tuple(ScrewPlan(np.array(p["entry"]), np.array(p["direction"]),
                                float(p["radius_mm"]), float(p["length_mm"]))
                      for p in doc["screw_plans"])
        return VertebraModel(
            id=int(doc["id"]),
            points=points,
            normals=normals,
            reg_indices=_indices(doc["reg_indices"]),
            landmarks=np.array(doc["landmarks"], dtype=float),
            pedicle_indices=_indices(doc["pedicle_indices"]),
            screw_plans=plans,
        )

    return _read_json(sidecar_path, build)


# ---------------------------------------------------------------------------
# pose tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PoseRow:
    frame: int
    slot: int          # 1..5 = vertebra level, 6 = drill sleeve
    valid: bool
    updated: bool
    pose: RigidTransform


def pose_line(r: PoseRow) -> str:
    """One row of a pose table, newline included."""
    q, t = r.pose.q, r.pose.t
    return (f"{r.frame},{r.slot},{int(r.valid)},{int(r.updated)},"
            f"{_f(q[0])},{_f(q[1])},{_f(q[2])},{_f(q[3])},"
            f"{_f(t[0])},{_f(t[1])},{_f(t[2])}\n")


def write_poses(path, rows: list[PoseRow]) -> None:
    with open(path, "w") as f:
        f.write(POSES_HEADER + "\n")
        f.writelines(map(pose_line, rows))


def _read_rows(path, header: str, n_fields: int, parse) -> list:
    """``parse(fields)`` of every nonblank row of a CSV file under ``header``.

    A wrong header, a row with other than ``n_fields`` fields, or a
    ValueError from ``parse`` raises FormatError at that row's byte offset.
    """
    lines = Path(path).read_bytes().split(b"\n")
    if lines[0].decode("ascii", errors="replace") != header:
        raise FormatError(f"bad header, expected {header!r}", path, offset=0)
    offset = len(lines[0]) + 1
    rows = []
    for line in lines[1:]:
        text = line.decode("ascii", errors="replace").strip()
        if text:
            parts = text.split(",")
            if len(parts) != n_fields:
                raise FormatError(f"expected {n_fields} fields, got {len(parts)}",
                                  path, offset)
            try:
                rows.append(parse(parts))
            except ValueError:
                raise FormatError(f"bad value in row {text!r}", path, offset)
        offset += len(line) + 1
    return rows


def _pose_row(parts: list[str]) -> PoseRow:
    vals = [float(v) for v in parts[4:]]
    return PoseRow(int(parts[0]), int(parts[1]), bool(int(parts[2])),
                   bool(int(parts[3])),
                   RigidTransform(np.array(vals[:4]), np.array(vals[4:])))


def read_poses(path) -> list[PoseRow]:
    return _read_rows(path, POSES_HEADER, 11, _pose_row)


def poses_by_frame(rows: list[PoseRow]) -> dict[int, dict[int, PoseRow]]:
    out: dict[int, dict[int, PoseRow]] = {}
    for r in rows:
        out.setdefault(r.frame, {})[r.slot] = r
    return out


# ---------------------------------------------------------------------------
# marker observations and stereo rig
# ---------------------------------------------------------------------------

_OBS_HEADER = ("frame,marker,"
               + ",".join(f"lu{k},lv{k}" for k in range(4)) + ","
               + ",".join(f"ru{k},rv{k}" for k in range(4)))


def write_observations(path, per_frame: dict[int, list[MarkerObservation]]) -> None:
    with open(path, "w") as f:
        f.write(_OBS_HEADER + "\n")
        for frame in sorted(per_frame):
            for obs in per_frame[frame]:
                vals = list(obs.left_px.ravel()) + list(obs.right_px.ravel())
                f.write(f"{frame},{obs.marker_id},"
                        + ",".join(_f(v) for v in vals) + "\n")


def _observation_row(parts: list[str]) -> tuple[int, MarkerObservation]:
    vals = np.array([float(v) for v in parts[2:]])
    return int(parts[0]), MarkerObservation(int(parts[1]), vals[:8].reshape(4, 2),
                                            vals[8:].reshape(4, 2))


def read_observations(path) -> dict[int, list[MarkerObservation]]:
    out: dict[int, list[MarkerObservation]] = {}
    for frame, obs in _read_rows(path, _OBS_HEADER, 18, _observation_row):
        out.setdefault(frame, []).append(obs)
    return out


def _intrinsics_doc(intr: CameraIntrinsics) -> dict:
    return {"fx": intr.fx, "fy": intr.fy, "cx": intr.cx, "cy": intr.cy,
            "width": intr.width, "height": intr.height}


def _intrinsics_from(doc: dict) -> CameraIntrinsics:
    return CameraIntrinsics(fx=float(doc["fx"]), fy=float(doc["fy"]),
                            cx=float(doc["cx"]), cy=float(doc["cy"]),
                            width=int(doc["width"]), height=int(doc["height"]))


def write_stereo(path, rig: StereoRig, markers: dict[int, np.ndarray]) -> None:
    doc = {
        "left": _intrinsics_doc(rig.left),
        "right": _intrinsics_doc(rig.right),
        "baseline": {"q": rig.baseline.q.tolist(), "t": rig.baseline.t.tolist()},
        "markers": {str(k): np.asarray(v).tolist() for k, v in markers.items()},
    }
    write_json(path, doc)


def _stereo_from(doc: dict) -> tuple[StereoRig, dict[int, np.ndarray]]:
    rig = StereoRig(_intrinsics_from(doc["left"]), _intrinsics_from(doc["right"]),
                    RigidTransform(np.array(doc["baseline"]["q"]),
                                   np.array(doc["baseline"]["t"])))
    markers = {int(k): np.array(v, dtype=float).reshape(4, 3)
               for k, v in doc["markers"].items()}
    return rig, markers


def read_stereo(path) -> tuple[StereoRig, dict[int, np.ndarray]]:
    return _read_json(path, _stereo_from)


# ---------------------------------------------------------------------------
# recording directories
# ---------------------------------------------------------------------------

_ORIENTATION_HEADER = "frame,qw,qx,qy,qz"


def _orientation_path(root: Path) -> Path:
    return root / "oracle_orientation.csv"


def write_recording(rec: sim.Recording, out_dir,
                    target_vertebra: int = 3, target_screw: int = 0) -> None:
    """Materialize a simulated recording: metadata, models, per-frame depth
    and oracle masks, ground-truth poses, orientation priors, and (when a
    tool is simulated) stereo observations."""
    root = Path(out_dir)
    (root / "models").mkdir(parents=True, exist_ok=True)
    (root / "frames").mkdir(exist_ok=True)

    meta = {
        "fps": rec.fps,
        "frames": rec.frame_count,
        "seed": rec.seed,
        "scale": rec.scene.scale,
        "spacing": rec.scene.spacing,
        "tilt_deg": rec.spec.tilt_deg,
        "intrinsics": _intrinsics_doc(rec.scene.intrinsics),
        "target_vertebra": target_vertebra,
        "target_screw": target_screw,
        "has_tool": rec.spec.tool is not None,
    }
    write_json(root / "recording.json", meta)

    for m in rec.scene.models:
        save_model(m, root / "models" / f"vert{m.id}.ply",
                   root / "models" / f"vert{m.id}.json")

    gt_rows: list[PoseRow] = []
    obs: dict[int, list[MarkerObservation]] = {}
    with open(_orientation_path(root), "w") as fq:
        fq.write(_ORIENTATION_HEADER + "\n")
        for frame in rec:
            stem = root / "frames" / f"f{frame.index:06d}"
            write_depth(stem.with_suffix(".dpth"), frame.depth)
            write_mask(stem.with_suffix(".msk"), frame.oracle_mask)
            q = frame.oracle_quat
            fq.write(f"{frame.index},{_f(q[0])},{_f(q[1])},{_f(q[2])},{_f(q[3])}\n")
            for vid in sorted(frame.gt_poses):
                gt_rows.append(PoseRow(frame.index, vid, True, True,
                                       frame.gt_poses[vid]))
            if frame.observations is not None:
                obs[frame.index] = frame.observations
    write_poses(root / "gt_poses.csv", gt_rows)
    if rec.spec.tool is not None:
        write_observations(root / "observations.csv", obs)
        write_stereo(root / "stereo.json", rec.stereo_rig(),
                     sim.default_marker_reference())


def read_orientations(path) -> dict[int, np.ndarray]:
    return dict(_read_rows(path, _ORIENTATION_HEADER, 5, lambda parts: (
        int(parts[0]), np.array([float(v) for v in parts[1:]]))))


def _meta_from(doc: dict) -> dict:
    return {
        "fps": float(doc["fps"]),
        "frame_count": int(doc["frames"]),
        "seed": int(doc["seed"]),
        "tilt_deg": float(doc.get("tilt_deg", 0.0)),
        "target_vertebra": int(doc.get("target_vertebra", 3)),
        "target_screw": int(doc.get("target_screw", 0)),
        "intrinsics": _intrinsics_from(doc["intrinsics"]),
        "has_tool": bool(doc.get("has_tool", False)),
    }


def read_recording_meta(root) -> dict:
    """Typed contents of a recording directory's ``recording.json``.

    Returns fps, frame_count, seed, tilt_deg, target_vertebra,
    target_screw, intrinsics and has_tool. A missing file, bytes that are
    not UTF-8 JSON, a missing or malformed key, fewer than one frame or an
    fps that is not positive and finite raises FormatError.
    """
    path = Path(root) / "recording.json"
    try:
        meta = _read_json(path, _meta_from)
    except FileNotFoundError:
        raise FormatError("recording.json missing", path)
    if meta["frame_count"] < 1:
        raise FormatError(f"recording.json has {meta['frame_count']} frames, "
                          "need at least 1", path)
    if not 0.0 < meta["fps"] < math.inf:
        raise FormatError(f"recording.json fps {meta['fps']!r} is not positive "
                          "and finite", path)
    return meta


def _require_frames(path, frames, frame_count: int, what: str) -> None:
    """FormatError naming ``path`` unless ``frames`` holds 1..frame_count."""
    # if any of those frames is missing, one of the first len(frames) + 1 is
    for f in range(1, min(frame_count, len(frames) + 1) + 1):
        if f not in frames:
            raise FormatError(f"frame {f} lacks {what}", path)


class LoadedRecording:
    """Disk-backed recording with the same frame interface as sim.Recording.

    Loading checks that the ground truth and the orientation priors cover
    every frame and that the target screw is one of the target vertebra's
    plans, and ``frame`` checks that the depth map is the size the
    intrinsics give and the mask the size of the depth map; a gap or a
    mismatch raises FormatError naming the file.
    """

    def __init__(self, root):
        self.root = Path(root)
        meta = read_recording_meta(self.root)
        self.fps = meta["fps"]
        self.frame_count = meta["frame_count"]
        self.seed = meta["seed"]
        self.tilt_deg = meta["tilt_deg"]
        self.target_vertebra = meta["target_vertebra"]
        self.target_screw = meta["target_screw"]
        self.intrinsics = meta["intrinsics"]
        self.has_tool = meta["has_tool"]
        self.models = [load_model(self.root / "models" / f"vert{i}.ply",
                                  self.root / "models" / f"vert{i}.json")
                       for i in range(1, 6)]
        for i, m in enumerate(self.models, start=1):
            if m.id != i:
                raise FormatError(f"model id {m.id}, expected {i}",
                                  self.root / "models" / f"vert{i}.json")
        meta_path = self.root / "recording.json"
        if not 1 <= self.target_vertebra <= len(self.models):
            raise FormatError(f"target_vertebra {self.target_vertebra} outside "
                              f"1..{len(self.models)}", meta_path)
        plans = self.models[self.target_vertebra - 1].screw_plans
        if not 0 <= self.target_screw < len(plans):
            raise FormatError(f"vertebra {self.target_vertebra} has {len(plans)} "
                              f"screw plans, no target_screw {self.target_screw}",
                              meta_path)
        self._orientations = read_orientations(_orientation_path(self.root))
        _require_frames(_orientation_path(self.root), self._orientations,
                        self.frame_count, "an orientation prior")
        gt_path = self.root / "gt_poses.csv"
        self._gt = poses_by_frame(read_poses(gt_path))
        _require_frames(gt_path, {f for f, row in self._gt.items()
                                  if row.keys() >= {1, 2, 3, 4, 5}},
                        self.frame_count, "a pose of each of vertebrae 1-5")
        self._obs = (read_observations(self.root / "observations.csv")
                     if self.has_tool else {})

    def gt_pose(self, vertebra_id: int, frame_index: int) -> RigidTransform:
        return self._gt[frame_index][vertebra_id].pose

    def observations(self) -> dict[int, list[MarkerObservation]]:
        return self._obs

    def stereo(self) -> tuple[StereoRig, dict[int, np.ndarray]]:
        return read_stereo(self.root / "stereo.json")

    def frame(self, f: int) -> sim.Frame:
        if not 1 <= f <= self.frame_count:
            raise IndexError(f"frame {f} outside 1..{self.frame_count}")
        stem = self.root / "frames" / f"f{f:06d}"
        depth = read_depth(stem.with_suffix(".dpth"))
        size = (self.intrinsics.height, self.intrinsics.width)
        if depth.shape != size:
            raise FormatError(f"depth shape {depth.shape} differs from the "
                              f"intrinsics' {size}", stem.with_suffix(".dpth"))
        mask = read_mask(stem.with_suffix(".msk"))
        if mask.shape != depth.shape:
            raise FormatError(f"mask shape {mask.shape} differs from depth shape "
                              f"{depth.shape}", stem.with_suffix(".msk"))
        gt = {vid: row.pose for vid, row in sorted(self._gt[f].items())}
        return sim.Frame(index=f, timestamp=(f - 1) / self.fps, depth=depth,
                         intrinsics=self.intrinsics, oracle_mask=mask,
                         oracle_quat=self._orientations[f], gt_poses=gt,
                         observations=self._obs.get(f))

    def __iter__(self):
        return (self.frame(f) for f in range(1, self.frame_count + 1))
