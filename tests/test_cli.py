import json
import math
import re
import shutil
import socket

import numpy as np
import pytest

from vertereg import cli, formats, sim, stream
from vertereg.geom import RigidTransform


@pytest.fixture(scope="module")
def recording_dir(coarse_scene, tmp_path_factory):
    root = tmp_path_factory.mktemp("rec")
    formats.write_recording(sim.render_recording(coarse_scene,
                                                 sim.RecordingSpec(frames=5), seed=0),
                            root)
    return root


@pytest.fixture(scope="module")
def tool_recording(coarse_scene, tmp_path_factory):
    """Eight frames with the drill sleeve, as ``simulate --tool`` makes them."""
    root = tmp_path_factory.mktemp("tool_rec")
    tool = sim.ToolSpec(base_pose=RigidTransform(np.array([1.0, 0.0, 0.0, 0.0]),
                                                 np.array([0.0, -40.0, 320.0])),
                        motion=sim.MotionSpec(kind="sine", vector=(10.0, 0.0, 5.0),
                                              freq_hz=0.25),
                        corner_sigma_px=0.3)
    rec = sim.render_recording(coarse_scene, sim.RecordingSpec(frames=8, tool=tool),
                               seed=0)
    formats.write_recording(rec, root)
    return root, rec


def test_register_stream_sends_one_datagram_per_frame_in_order(recording_dir, tmp_path):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(2.0)
    host, port = sock.getsockname()
    with sock:
        rc = cli.main(["register", "--recording", str(recording_dir),
                       "--out", str(tmp_path), "--stream", f"{host}:{port}"])
        assert rc == 0
        packets = [sock.recv(65536) for _ in range(5)]
        sock.settimeout(0.2)
        with pytest.raises(socket.timeout):
            sock.recv(65536)
    decoded = [stream.decode_packet(p) for p in packets]
    assert [frame for frame, _, _ in decoded] == [1, 2, 3, 4, 5]
    assert [ts for _, ts, _ in decoded] == [round(k / 30.0 * 1e6) for k in range(5)]
    poses = formats.poses_by_frame(formats.read_poses(tmp_path / "poses.csv"))
    for frame, _, slots in decoded:
        for vid in range(1, 6):
            sent, written = slots[vid - 1].pose, poses[frame][vid].pose
            assert sent.q.tolist() == written.q.tolist()
            assert sent.t.tolist() == written.t.tolist()


def test_register_keeps_the_rows_of_the_frames_before_a_truncated_frame(
        recording_dir, tmp_path, capsys):
    full = tmp_path / "full"
    assert cli.main(["register", "--recording", str(recording_dir),
                     "--out", str(full)]) == 0
    rec = tmp_path / "rec"
    shutil.copytree(recording_dir, rec)
    depth = rec / "frames" / "f000005.dpth"
    depth.write_bytes(depth.read_bytes()[:depth.stat().st_size // 2])
    out = tmp_path / "out"
    rc = cli.main(["register", "--recording", str(rec), "--out", str(out),
                   "--stream", "127.0.0.1:9"])
    assert rc == 2
    # the stream may warn first that nothing listens on the port
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["file"] == str(depth)
    for name in ("poses.csv", "state_log.csv"):
        lines = (full / name).read_text().splitlines(keepends=True)
        assert (out / name).read_text() == "".join(
            line for line in lines if not line.startswith("5,"))


def test_serve_sends_the_pose_and_drill_rows_of_each_frame(tool_recording, tmp_path):
    root, _ = tool_recording
    for cmd in ("register", "track"):
        assert cli.main([cmd, "--recording", str(root), "--out", str(tmp_path)]) == 0
    poses = formats.poses_by_frame(formats.read_poses(tmp_path / "poses.csv"))
    drill = formats.poses_by_frame(formats.read_poses(tmp_path / "drill_poses.csv"))
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(2.0)
    host, port = sock.getsockname()
    with sock:
        assert cli.main(["serve", "--recording", str(root),
                         "--poses", str(tmp_path / "poses.csv"),
                         "--drill-poses", str(tmp_path / "drill_poses.csv"),
                         "--fps", "1000", "--dest", f"{host}:{port}"]) == 0
        packets = [sock.recv(65536) for _ in range(8)]
    for k, packet in enumerate(packets, start=1):
        frame, ts_us, slots = stream.decode_packet(packet)
        assert (frame, ts_us) == (k, round((k - 1) / 1000.0 * 1e6))
        rows = [poses[k][vid] for vid in range(1, 6)] + [drill[k][formats.DRILL_SLOT]]
        for slot, row in zip(slots, rows, strict=True):
            assert (slot.valid, slot.updated) == (row.valid, row.updated)
            assert slot.pose.q.tolist() == row.pose.q.tolist()
            assert slot.pose.t.tolist() == row.pose.t.tolist()


def _format_error(capsys) -> dict:
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "format"
    return doc


def test_register_reports_missing_recording_key_as_format_error(
        recording_dir, tmp_path, capsys):
    meta = json.loads((recording_dir / "recording.json").read_text())
    del meta["intrinsics"]
    (tmp_path / "recording.json").write_text(json.dumps(meta))
    rc = cli.main(["register", "--recording", str(tmp_path), "--out",
                   str(tmp_path / "out")])
    assert rc == 2
    assert "intrinsics" in _format_error(capsys)["message"]


def test_serve_reports_missing_recording_as_format_error(tmp_path, capsys):
    rc = cli.main(["serve", "--recording", str(tmp_path / "absent"),
                   "--poses", str(tmp_path / "poses.csv"), "--dest", "127.0.0.1:9"])
    assert rc == 2
    assert _format_error(capsys)["file"].endswith("recording.json")


@pytest.mark.parametrize("text", ['{"fps": null, "frames": 1, "seed": 0}', "[]",
                                  '{"fps": 30, "frames": 1, "seed": 0, '
                                  '"intrinsics": {"fx": 1}}'])
def test_read_recording_meta_rejects_malformed_documents(tmp_path, text):
    (tmp_path / "recording.json").write_text(text)
    with pytest.raises(formats.FormatError):
        formats.read_recording_meta(tmp_path)


def _without(key):
    return lambda doc, n: {k: v for k, v in doc.items() if k != key}


def _with(key, value):
    return lambda doc, n: {**doc, key: value(n)}


# malformed sidecars: case -> (document, point count) -> new document
SIDECAR_ERRORS = {
    "missing reg_indices": _without("reg_indices"),
    "missing screw_plans": _without("screw_plans"),
    "reg index past the points": _with("reg_indices", lambda n: [0, n]),
    "negative reg index": _with("reg_indices", lambda n: [-1, 0]),
    "fractional reg index": _with("reg_indices", lambda n: [0.5, 1]),
    "nested reg indices": _with("reg_indices", lambda n: [[0, 1]]),
    "empty reg indices": _with("reg_indices", lambda n: []),
    "pedicle index past the points": _with("pedicle_indices", lambda n: [n]),
    "pedicle indices not a list": _with("pedicle_indices", lambda n: "12"),
    "two landmarks": _with("landmarks", lambda n: [[0, 0, 0], [1, 1, 1]]),
    "plan without radius": _with("screw_plans", lambda n: [
        {"entry": [0, 0, 0], "direction": [0, 0, 1], "length_mm": 40}]),
    "zero screw direction": _with("screw_plans", lambda n: [
        {"entry": [0, 0, 0], "direction": [0, 0, 0], "radius_mm": 2.5, "length_mm": 40}]),
    "id of another vertebra": _with("id", lambda n: 3),
    # json writes the float as Infinity; 1e999 reads back as the same value
    "id 1e999": _with("id", lambda n: math.inf),
    "a list, not an object": lambda doc, n: [doc],
}


@pytest.mark.parametrize("case", sorted(SIDECAR_ERRORS))
def test_register_reports_malformed_sidecar_as_format_error(
        recording_dir, tmp_path, capsys, case):
    rec = tmp_path / "rec"
    shutil.copytree(recording_dir, rec)
    sidecar = rec / "models" / "vert2.json"
    n = len(formats.read_ply(rec / "models" / "vert2.ply")[0])
    sidecar.write_text(json.dumps(SIDECAR_ERRORS[case](json.loads(sidecar.read_text()), n)))
    rc = cli.main(["register", "--recording", str(rec), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _format_error(capsys)["file"] == str(sidecar)


def test_register_reports_ascii_model_file_as_format_error(recording_dir, tmp_path,
                                                           capsys):
    rec = tmp_path / "rec"
    shutil.copytree(recording_dir, rec)
    points, normals = formats.read_ply(rec / "models" / "vert1.ply")
    lines = ["ply", "format ascii 1.0", f"element vertex {len(points)}"]
    lines += [f"property float {p}" for p in ("x", "y", "z", "nx", "ny", "nz")]
    lines += ["end_header"] + [" ".join(repr(float(v)) for v in row)
                               for row in zip(*points.T, *normals.T)]
    (rec / "models" / "vert1.ply").write_text("\n".join(lines) + "\n")
    rc = cli.main(["register", "--recording", str(rec), "--out", str(tmp_path / "out")])
    assert rc == 2
    doc = _format_error(capsys)
    assert doc["file"] == str(rec / "models" / "vert1.ply")
    assert "format binary_little_endian 1.0" in doc["message"]


def test_register_track_and_ablate_repeat_byte_for_byte(tool_recording, tmp_path):
    root, _ = tool_recording
    runs = []
    for k in range(2):
        out = tmp_path / f"run{k}"
        for cmd in ("register", "track", "ablate"):
            assert cli.main([cmd, "--recording", str(root), "--out", str(out / cmd)]) == 0
        runs.append({p.relative_to(out): p.read_bytes()
                     for p in sorted(out.rglob("*")) if p.is_file()})
    assert sorted(map(str, runs[0])) == ["ablate/ablation.csv", "register/poses.csv",
                                         "register/state_log.csv",
                                         "track/drill_poses.csv"]
    assert runs[0] == runs[1]


def _move_right_corner(root, tmp_path, frame, marker_ids):
    """Copy of the recording with corner 0 of the markers moved 60 px off
    the epipolar line in the right view of one frame."""
    broken = tmp_path / "rec"
    shutil.copytree(root, broken)
    path = broken / "observations.csv"
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[0] == str(frame) and int(fields[1]) in marker_ids:
            fields[11] = repr(float(fields[11]) + 60.0)   # rv0
            lines[i] = ",".join(fields)
    assert lines != path.read_text().splitlines()
    path.write_text("\n".join(lines) + "\n")
    return broken


def _track(recording, out):
    assert cli.main(["track", "--recording", str(recording), "--out", str(out)]) == 0
    return formats.poses_by_frame(formats.read_poses(out / "drill_poses.csv"))


def test_track_leaves_out_a_marker_with_a_misdetected_corner(tool_recording, tmp_path):
    root, rec = tool_recording
    poses = _track(_move_right_corner(root, tmp_path, 4, {0}), tmp_path / "out")
    assert sorted(poses) == list(range(1, 9))
    row, want = poses[4][formats.DRILL_SLOT], rec.tool_pose(4)
    assert row.updated
    assert np.linalg.norm(row.pose.t - want.t) < 1.0


def test_track_holds_the_last_pose_when_too_few_markers_are_reliable(
        tool_recording, tmp_path):
    root, _ = tool_recording
    poses = _track(_move_right_corner(root, tmp_path, 4, {0, 2}), tmp_path / "out")
    held, last = poses[4][formats.DRILL_SLOT], poses[3][formats.DRILL_SLOT]
    assert held.valid and not held.updated
    assert held.pose.t.tolist() == last.pose.t.tolist()
    assert held.pose.q.tolist() == last.pose.q.tolist()
    assert poses[5][formats.DRILL_SLOT].updated


def _set_json(key, text, name="recording.json"):
    """Set each value of ``key`` in the JSON file ``name`` to the literal
    JSON ``text``."""
    def apply(rec):
        path = rec / name
        path.write_text(re.sub(rf'"{key}": [^,\n]+', f'"{key}": {text}',
                               path.read_text()))
    return apply


def _drop_rows(name, *leading):
    """Delete the rows of a CSV file whose first fields are ``leading``."""
    def apply(rec):
        path = rec / name
        lines = path.read_text().splitlines()
        path.write_text("\n".join(line for line in lines
                                  if line.split(",")[:len(leading)] != list(leading))
                        + "\n")
    return apply


def _write_mask(frame, shape):
    def apply(rec):
        formats.write_mask(rec / "frames" / f"f{frame:06d}.msk", np.ones(shape, bool))
    return apply


def _edit_stereo(change):
    def apply(rec):
        path = rec / "stereo.json"
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
    return apply


# malformed recordings of eight frames: case -> (change, command, file named)
RECORDING_ERRORS = {
    "stereo without markers": (_edit_stereo(lambda doc: doc.pop("markers")), "track",
                               "stereo.json"),
    "marker with two corners": (_edit_stereo(lambda doc: doc["markers"].update(
        {"0": [[1.0, 2.0], [3.0, 4.0]]})), "track", "stereo.json"),
    "target screw past the plans": (_set_json("target_screw", "5"), "evaluate",
                                    "recording.json"),
    "target vertebra 6": (_set_json("target_vertebra", "6"), "register",
                          "recording.json"),
    "orientation row missing": (_drop_rows("oracle_orientation.csv", "5"),
                                "register", "oracle_orientation.csv"),
    "ground-truth frame missing": (_drop_rows("gt_poses.csv", "6"), "evaluate",
                                   "gt_poses.csv"),
    "ground-truth vertebra missing": (_drop_rows("gt_poses.csv", "3", "2"),
                                      "ablate", "gt_poses.csv"),
    "frame count overflows": (_set_json("frames", "1e400"), "register",
                              "recording.json"),
    "zero frames": (_set_json("frames", "0"), "register", "recording.json"),
    "more frames than recorded": (_set_json("frames", "12"), "register",
                                  "oracle_orientation.csv"),
    "zero fps": (_set_json("fps", "0"), "track", "recording.json"),
    "stereo width 1e999": (_set_json("width", "1e999", "stereo.json"), "track",
                           "stereo.json"),
    "stereo nested too deeply": (lambda rec: (rec / "stereo.json").write_text(
        "[" * 100000), "track", "stereo.json"),
    "mask smaller than its depth frame": (_write_mask(3, (10, 10)), "register",
                                          "frames/f000003.msk"),
}


@pytest.mark.parametrize("case", sorted(RECORDING_ERRORS))
def test_malformed_recording_is_a_format_error_naming_the_file(
        tool_recording, tmp_path, capsys, case):
    root, _ = tool_recording
    change, command, name = RECORDING_ERRORS[case]
    rec = tmp_path / "rec"
    shutil.copytree(root, rec)
    before = {p: p.read_bytes() for p in rec.rglob("*") if p.is_file()}
    change(rec)
    assert {p: p.read_bytes() for p in rec.rglob("*") if p.is_file()} != before
    argv = [command, "--recording", str(rec), "--out", str(tmp_path / "out")]
    if command == "evaluate":
        argv += ["--poses", str(root / "gt_poses.csv")]
    assert cli.main(argv) == 2
    assert _format_error(capsys)["file"] == str(rec / name)


def _screw_perforations(out):
    lines = (out / "screw_metrics.csv").read_text().splitlines()[1:]
    return [line.split(",")[5] for line in lines]


def test_lateral_only_perforation_is_never_below_the_capped_depth(
        recording_dir, tmp_path):
    # every estimate 10 mm off along x and z pushes the screws into the pedicles
    rows = formats.read_poses(recording_dir / "gt_poses.csv")
    shifted = [formats.PoseRow(r.frame, r.slot, True, True,
                               RigidTransform(r.pose.q, r.pose.t + [10.0, 0.0, 10.0]))
               for r in rows]
    formats.write_poses(tmp_path / "poses.csv", shifted)
    runs = {}
    for extra in ([], ["--lateral-only"]):
        out = tmp_path / ("lateral" if extra else "capped")
        assert cli.main(["evaluate", "--recording", str(recording_dir), "--poses",
                         str(tmp_path / "poses.csv"), "--out", str(out)] + extra) == 0
        runs[bool(extra)] = _screw_perforations(out)
    pairs = list(zip(runs[False], runs[True]))
    assert all((capped == "") == (lateral == "") for capped, lateral in pairs)
    deeper = [float(lateral) - float(capped) for capped, lateral in pairs if capped]
    assert deeper and min(deeper) >= 0.0 and max(deeper) > 0.0


class _Configured(Exception):
    """Carries the arguments a command handed to the stage under test."""


def _capture(*args, **kwargs):
    raise _Configured(args, kwargs)


# command -> (module and name of the stage to stop at, (config, mode) of its call)
CONFIG_USERS = {
    "register": (cli, "run_recording", lambda args, kwargs: (args[3], kwargs["mode"])),
    "ablate": (cli.metrics, "run_ablation", lambda args, kwargs: (args[3], None)),
    "track": (cli, "PoseKalman", lambda args, kwargs: (args[0], None)),
}


@pytest.mark.parametrize("command,file_text,flags,want,want_mode", [
    ("register", "", [], {"general_max_iters": 50, "update_gate": 0.9}, "Full"),
    ("register", "general_max_iters = 7\nupdate_gate = 0.8\nmode = Refinement\n",
     ["--update-gate", "0.7"],
     {"general_max_iters": 7, "update_gate": 0.7, "piecewise_inlier": 2.0},
     "Refinement"),
    ("register", "mode = Refinement\n", ["--mode", "General"], {}, "General"),
    ("ablate", "epsilon = 1e-6\npiecewise_max_iters = 9\n",
     ["--piecewise-max-iters", "3"],
     {"epsilon": 1e-6, "piecewise_max_iters": 3, "general_max_corr": 5.0}, None),
    ("track", "", [], {"sigma_a": 2.0, "sigma_m": 0.5}, None),
    ("track", "sigma_a = 3.0\nsigma_m = 0.7\n", ["--sigma-m", "0.4"],
     {"sigma_a": 3.0, "sigma_m": 0.4}, None),
])
def test_each_setting_comes_from_its_flag_then_the_file_then_the_default(
        tool_recording, tmp_path, monkeypatch, command, file_text, flags, want,
        want_mode):
    root, _ = tool_recording
    module, stage, unpack = CONFIG_USERS[command]
    monkeypatch.setattr(module, stage, _capture)
    argv = [command, "--recording", str(root), "--out", str(tmp_path / "out")]
    if file_text:
        (tmp_path / "cfg").write_text(file_text)
        argv += ["--config", str(tmp_path / "cfg")]
    with pytest.raises(_Configured) as e:
        cli.main(argv + flags)
    cfg, mode = unpack(*e.value.args)
    assert {key: getattr(cfg, key) for key in want} == want
    assert mode == want_mode


def test_a_config_file_with_an_unknown_key_is_a_format_error(recording_dir, tmp_path,
                                                         capsys):
    (tmp_path / "cfg").write_text("piecewise_force_full_iters = true\n")
    rc = cli.main(["register", "--recording", str(recording_dir), "--out",
                   str(tmp_path / "out"), "--config", str(tmp_path / "cfg")])
    assert rc == 2
    assert "unknown configuration key" in _format_error(capsys)["message"]
