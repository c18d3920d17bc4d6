import argparse
import json
import math
import re
import shutil
import socket

import numpy as np
import pytest

from vertereg import cli, formats, metrics, sim, stream
from vertereg.geom import RigidTransform, axis_angle_quat, quat_to_matrix
from vertereg.register import RegistrationConfig, run_recording


@pytest.fixture(scope="module")
def recording_dir(coarse_scene, tmp_path_factory):
    root = tmp_path_factory.mktemp("rec")
    formats.write_recording(sim.render_recording(coarse_scene,
                                                 sim.RecordingSpec(frames=5), seed=0),
                            root)
    return root


@pytest.fixture(scope="module")
def long_recording(coarse_scene, tmp_path_factory):
    """64 frames, so that evaluate judges frames 61-64."""
    root = tmp_path_factory.mktemp("long_rec")
    formats.write_recording(sim.render_recording(coarse_scene,
                                                 sim.RecordingSpec(frames=64), seed=0),
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


def _register_datagrams(recording, out) -> list[tuple[int, int, list[stream.PoseSlot]]]:
    """Run ``register --stream`` to a local socket; the decoded datagrams it sent."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(2.0)
    host, port = sock.getsockname()
    frames = formats.read_recording_meta(recording)["frame_count"]
    with sock:
        rc = cli.main(["register", "--recording", str(recording),
                       "--out", str(out), "--stream", f"{host}:{port}"])
        assert rc == 0
        packets = [sock.recv(65536) for _ in range(frames)]
        sock.settimeout(0.2)
        with pytest.raises(socket.timeout):
            sock.recv(65536)
    return [stream.decode_packet(p) for p in packets]


def _same_row(a, b) -> bool:
    """Whether two pose rows or slots agree bit for bit."""
    return ((a.valid, a.updated, a.pose.q.tobytes(), a.pose.t.tobytes())
            == (b.valid, b.updated, b.pose.q.tobytes(), b.pose.t.tobytes()))


def test_register_stream_sends_one_datagram_per_frame_in_order(recording_dir, tmp_path):
    decoded = _register_datagrams(recording_dir, tmp_path)
    assert [frame for frame, _, _ in decoded] == [1, 2, 3, 4, 5]
    assert [ts for _, ts, _ in decoded] == [round(k / 30.0 * 1e6) for k in range(5)]
    rows = formats.read_poses(tmp_path / "poses.csv")
    assert {r.slot for r in rows} == {1, 2, 3, 4, 5}
    poses = formats.poses_by_frame(rows)
    for frame, _, slots in decoded:
        for vid in range(1, 6):
            sent, written = slots[vid - 1].pose, poses[frame][vid].pose
            assert sent.q.tolist() == written.q.tolist()
            assert sent.t.tolist() == written.t.tolist()
        # a recording without the sleeve leaves the drill slot empty
        assert _same_row(slots[formats.DRILL_SLOT - 1], stream.PoseSlot.empty())


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


def _drill_lines(path) -> list[str]:
    """The drill-slot lines of a pose table, newline included."""
    return [line for line in path.read_text().splitlines(keepends=True)
            if line.split(",")[1] == str(formats.DRILL_SLOT)]


def test_register_sends_and_writes_the_drill_row_track_writes(tool_recording, tmp_path):
    root, _ = tool_recording
    decoded = _register_datagrams(root, tmp_path / "reg")
    assert cli.main(["track", "--recording", str(root), "--out", str(tmp_path / "trk")]) == 0
    poses = formats.poses_by_frame(formats.read_poses(tmp_path / "reg" / "poses.csv"))
    drill = formats.poses_by_frame(formats.read_poses(tmp_path / "trk" / "drill_poses.csv"))
    assert [frame for frame, _, _ in decoded] == list(range(1, 9))
    for frame, _, slots in decoded:
        rows = [poses[frame][slot] for slot in range(1, stream.SLOT_COUNT + 1)]
        assert all(_same_row(slot, row) for slot, row in zip(slots, rows, strict=True))
        assert _same_row(rows[-1], drill[frame][formats.DRILL_SLOT])
    assert any(row[formats.DRILL_SLOT].updated for row in drill.values())
    assert (_drill_lines(tmp_path / "reg" / "poses.csv")
            == _drill_lines(tmp_path / "trk" / "drill_poses.csv"))


def _format_error(capsys) -> dict:
    doc = json.loads(capsys.readouterr().err)
    assert doc["error"] == "format"
    return doc


def _value_error(capsys) -> dict:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ValueError"
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


@pytest.mark.parametrize("fps", ["nan", "inf", "0"])
def test_simulate_rejects_an_fps_that_is_not_positive_and_finite(
        tmp_path, capsys, fps):
    out = tmp_path / "rec"
    rc = cli.main(["simulate", "--frames", "2", "--fps", fps, "--out", str(out)])
    assert rc == 1
    assert "positive and finite" in _value_error(capsys)["message"]
    assert not (out / "recording.json").exists()


@pytest.mark.parametrize("flags, word", [
    (["--motion", "all:sine:0,0,1:nan"], "not finite"),
    (["--deform", "2:0,inf,0"], "not finite"),
    (["--occluder", "70:110:0,0,nan:40,40,20"], "not finite"),
    (["--tilt-deg", "nan"], "not finite"),
    (["--noise-sigma", "nan"], "not finite"),
    (["--orientation-error-deg", "nan"], "not finite"),
    (["--tool", "--tool-noise-px", "nan"], "not finite"),
    (["--noise-sigma", "-0.5"], "nonnegative"),
    (["--orientation-error-deg", "-3"], "nonnegative"),
    (["--tool", "--tool-noise-px", "-1"], "nonnegative"),
    (["--occluder", "3:4:0,0,5:10,10,20"], "in front of the sensor"),
    (["--motion", "all:sinus:0,0,1:0.2"], "sinus"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_simulate_rejects_a_scenario_value_that_is_not_finite_or_a_negative_noise(
        tmp_path, capsys, flags, word):
    out = tmp_path / "rec"
    rc = cli.main(["simulate", "--frames", "2", "--out", str(out)] + flags)
    assert rc == 1
    assert word in _value_error(capsys)["message"]
    assert not (out / "recording.json").exists()


def test_simulate_writes_exactly_the_keys_read_recording_meta_reads(tmp_path):
    assert cli.main(["simulate", "--frames", "1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "recording.json").read_text())
    assert sorted(doc) == ["fps", "frames", "has_tool", "intrinsics"]


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
    broken = _move_right_corner(root, tmp_path, 4, {0, 2})
    poses = _track(broken, tmp_path / "out")
    held, last = poses[4][formats.DRILL_SLOT], poses[3][formats.DRILL_SLOT]
    assert held.valid and not held.updated
    assert held.pose.t.tolist() == last.pose.t.tolist()
    assert held.pose.q.tolist() == last.pose.q.tolist()
    assert poses[5][formats.DRILL_SLOT].updated
    # register holds the sleeve by the same rule
    assert cli.main(["register", "--recording", str(broken),
                     "--out", str(tmp_path / "reg")]) == 0
    assert (_drill_lines(tmp_path / "reg" / "poses.csv")
            == _drill_lines(tmp_path / "out" / "drill_poses.csv"))


@pytest.mark.parametrize("fixes", ["..xx.x", "x..x.", "....", "xxxx"])
def test_drill_rows_yield_the_smoothed_fix_the_held_pose_or_the_identity(
        monkeypatch, fixes):
    # fixes[f - 1] is "x" when frame f's markers give a sleeve pose
    fps = 30.0
    measured = {f: RigidTransform(np.array([1.0, 0.0, 0.1 * f, 0.0]),
                                  np.array([f, -2.0 * f, 300.0]))
                for f, c in enumerate(fixes, 1) if c == "x"}
    seen = []

    def fake_track_pose(observations, rig, markers):
        assert (rig, markers) == ("rig", "markers")
        seen.append(observations)
        if not observations:
            raise cli.InsufficientMarkersError("too few markers")
        return measured[observations[0]]

    monkeypatch.setattr(cli, "track_pose", fake_track_pose)
    rec = argparse.Namespace(fps=fps, frame_count=len(fixes),
                             observations=lambda: {f: [f] for f in measured})
    rows = cli._drill_rows(rec, "rig", "markers")
    kalman, last = cli.PoseKalman(), None
    for f, c in enumerate(fixes, 1):
        row = next(rows)
        # one frame is tracked per row, so register can zip the rows with
        # its own frame loop
        assert seen == [[g] if g in measured else [] for g in range(1, f + 1)]
        assert (row.frame, row.slot) == (f, formats.DRILL_SLOT)
        if c == "x":
            last = kalman.step(measured[f], 1.0 / fps)
        assert row.updated == (c == "x")
        assert row.valid == (last is not None)
        want = RigidTransform.identity() if last is None else last
        assert row.pose.q.tobytes() == want.q.tobytes()
        assert row.pose.t.tobytes() == want.t.tobytes()
    assert next(rows, None) is None


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


def _repeat_first_row(name):
    """Append a copy of the first row of a CSV file."""
    def apply(rec):
        path = rec / name
        text = path.read_text()
        path.write_text(text + text.splitlines()[1] + "\n")
    return apply


def _write_mask(frame, shape):
    def apply(rec):
        formats.write_mask(rec / "frames" / f"f{frame:06d}.msk", np.ones(shape, bool))
    return apply


def _write_frame(frame, shape):
    def apply(rec):
        stem = rec / "frames" / f"f{frame:06d}"
        formats.write_depth(stem.with_suffix(".dpth"), np.full(shape, 400.0))
        formats.write_mask(stem.with_suffix(".msk"), np.ones(shape, bool))
    return apply


def _edit_json(name, change):
    """Apply ``change`` to the document of the JSON file ``name``."""
    def apply(rec):
        path = rec / name
        doc = json.loads(path.read_text())
        change(doc)
        path.write_text(json.dumps(doc))
    return apply


# malformed recordings of eight frames: case -> (change, command, file named)
RECORDING_ERRORS = {
    "stereo without markers": (_edit_json("stereo.json", lambda doc: doc.pop("markers")),
                               "track", "stereo.json"),
    "marker with two corners": (_edit_json("stereo.json", lambda doc: doc["markers"].update(
        {"0": [[1.0, 2.0], [3.0, 4.0]]})), "track", "stereo.json"),
    "target screw past the plans": (
        _edit_json(f"models/vert{metrics.TARGET_VERTEBRA}.json",
                   lambda doc: doc.update(screw_plans=[])),
        "evaluate", f"models/vert{metrics.TARGET_VERTEBRA}.json"),
    "stereo without markers, register": (
        _edit_json("stereo.json", lambda doc: doc.pop("markers")), "register",
        "stereo.json"),
    "has_tool missing": (_edit_json("recording.json", lambda doc: doc.pop("has_tool")),
                         "track", "recording.json"),
    "has_tool a string": (_set_json("has_tool", '"false"'), "register",
                          "recording.json"),
    "orientation row missing": (_drop_rows("oracle_orientation.csv", "5"),
                                "register", "oracle_orientation.csv"),
    "orientation row repeated": (_repeat_first_row("oracle_orientation.csv"),
                                 "register", "oracle_orientation.csv"),
    "observation repeated": (_repeat_first_row("observations.csv"), "track",
                             "observations.csv"),
    "ground-truth frame missing": (_drop_rows("gt_poses.csv", "6"), "evaluate",
                                   "gt_poses.csv"),
    "ground-truth vertebra missing": (_drop_rows("gt_poses.csv", "3", "2"),
                                      "ablate", "gt_poses.csv"),
    "ground-truth row repeated": (_repeat_first_row("gt_poses.csv"), "evaluate",
                                  "gt_poses.csv"),
    "frame count overflows": (_set_json("frames", "1e400"), "register",
                              "recording.json"),
    "zero frames": (_set_json("frames", "0"), "register", "recording.json"),
    "more frames than recorded": (_set_json("frames", "12"), "register",
                                  "oracle_orientation.csv"),
    "zero fps": (_set_json("fps", "0"), "track", "recording.json"),
    "fractional frames": (_set_json("frames", "2.7"), "register", "recording.json"),
    "frames a boolean": (_set_json("frames", "true"), "register", "recording.json"),
    "fps a boolean": (_set_json("fps", "true"), "track", "recording.json"),
    "fps a string": (_set_json("fps", '"30"'), "register", "recording.json"),
    "stereo width 1e999": (_set_json("width", "1e999", "stereo.json"), "track",
                           "stereo.json"),
    "stereo nested too deeply": (lambda rec: (rec / "stereo.json").write_text(
        "[" * 100000), "track", "stereo.json"),
    "mask smaller than its depth frame": (_write_mask(3, (10, 10)), "register",
                                          "frames/f000003.msk"),
    "frame smaller than the intrinsics": (_write_frame(3, (10, 10)), "register",
                                          "frames/f000003.dpth"),
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


class _Configured(Exception):
    """Carries the arguments a command handed to the stage under test."""


def _capture(*args, **kwargs):
    raise _Configured(args, kwargs)


def test_register_hands_the_default_config_to_the_pipeline(
        recording_dir, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_recording", _capture)
    with pytest.raises(_Configured) as e:
        cli.main(["register", "--recording", str(recording_dir),
                  "--out", str(tmp_path)])
    args, kwargs = e.value.args
    assert args[3] == RegistrationConfig()
    assert kwargs == {"initial_perturbation": None}


@pytest.mark.parametrize("flag", ["--perturb-initial=nan:0:1",
                                  "--perturb-initial=3:inf:1",
                                  "--perturb-initial=-5:0:1"])
def test_register_rejects_a_perturbation_that_is_not_finite_and_nonnegative(
        recording_dir, tmp_path, capsys, flag):
    out = tmp_path / "out"
    rc = cli.main(["register", "--recording", str(recording_dir), "--out", str(out),
                   flag])
    assert rc == 1
    assert "finite and nonnegative" in _value_error(capsys)["message"]
    assert not out.exists()


def _refuse(*args, **kwargs):
    raise AssertionError("nothing may be sent")


@pytest.mark.parametrize("port", ["0", "99999", "http"])
@pytest.mark.parametrize("route", ["register --stream", "register $VERTEREG_STREAM"])
def test_a_stream_port_outside_1_to_65535_is_an_error(
        tool_recording, tmp_path, capsys, monkeypatch, route, port):
    root, _ = tool_recording
    monkeypatch.setattr(stream, "PoseStreamer", _refuse)
    dest = f"127.0.0.1:{port}"
    out = tmp_path / "out"
    argv = ["register", "--recording", str(root), "--out", str(out)]
    if route == "register --stream":
        argv += ["--stream", dest]
    else:
        monkeypatch.setenv(cli.STREAM_ENV, dest)
    assert cli.main(argv) == 1
    assert "1..65535" in _value_error(capsys)["message"]
    assert not out.exists()


def _add_gt_frame(rec, poses):
    """``poses`` holding the ground truth plus a row of frame 999."""
    rows = formats.read_poses(rec / "gt_poses.csv")
    r = rows[0]
    formats.write_poses(poses, rows + [formats.PoseRow(999, r.slot, True, True, r.pose)])


def _drop_target(rec, poses):
    """``poses`` holding the ground truth without the target vertebra's rows."""
    rows = formats.read_poses(rec / "gt_poses.csv")
    formats.write_poses(poses, [r for r in rows if r.slot != metrics.TARGET_VERTEBRA])


def _repeat_gt_row(rec, poses):
    """``poses`` holding the ground truth with its first row appended again."""
    shutil.copy(rec / "gt_poses.csv", poses)
    _repeat_first_row(poses.name)(poses.parent)


def _invalidate_judged_target(rec, poses):
    """``poses`` holding the ground truth with the target vertebra invalid
    on every frame from ``TRE_START_FRAME`` on."""
    formats.write_poses(poses, [
        formats.PoseRow(r.frame, r.slot, False, False, r.pose)
        if r.slot == metrics.TARGET_VERTEBRA and r.frame >= metrics.TRE_START_FRAME
        else r for r in formats.read_poses(rec / "gt_poses.csv")])


@pytest.mark.parametrize("make", [_add_gt_frame, _drop_target, _repeat_gt_row,
                                  _invalidate_judged_target],
                         ids=["frame the recording lacks", "no row of the target",
                              "repeated row", "no judged row of the target"])
def test_evaluate_reports_a_malformed_pose_table_as_format_error(
        long_recording, tmp_path, capsys, make):
    poses = tmp_path / "poses.csv"
    make(long_recording, poses)
    rc = cli.main(["evaluate", "--recording", str(long_recording), "--poses", str(poses),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _format_error(capsys)["file"] == str(poses)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("table", ["--poses", "gt_poses.csv"])
@pytest.mark.parametrize("field, value", [(4, "nan"), (9, "inf"), (None, "0.0")],
                         ids=["nan quaternion", "inf translation", "zero quaternion"])
def test_a_non_finite_or_zero_quaternion_pose_is_a_format_error_at_its_row(
        long_recording, tmp_path, capsys, table, field, value):
    rec = tmp_path / "rec"
    shutil.copytree(long_recording, rec)
    poses = tmp_path / "poses.csv" if table == "--poses" else rec / "gt_poses.csv"
    lines = (long_recording / "gt_poses.csv").read_text().splitlines(keepends=True)
    # a judged row of the target vertebra
    row = next(i for i, line in enumerate(lines) if line.startswith(
        f"{metrics.TRE_START_FRAME + 1},{metrics.TARGET_VERTEBRA},"))
    parts = lines[row].rstrip("\n").split(",")
    for j in ([field] if field is not None else range(4, 8)):
        parts[j] = value
    lines[row] = ",".join(parts) + "\n"
    poses.write_text("".join(lines))
    out = tmp_path / "out"
    rc = cli.main(["evaluate", "--recording", str(rec), "--poses",
                   str(tmp_path / "poses.csv" if table == "--poses"
                       else long_recording / "gt_poses.csv"), "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    doc = json.loads(err[0])
    assert doc["error"] == "format"
    assert doc["file"] == str(poses)
    assert doc["offset"] == sum(len(line) for line in lines[:row])
    assert not out.exists()


def _perturbed_poses(rec, poses, invalid=(), held=()):
    """``poses`` holding the ground truth moved off by a frame-dependent turn
    and shift in the model frame, twice as far before frame 61 as from it
    on; the ``(frame, vertebra)`` pairs in ``invalid`` get ``valid`` 0 and
    those in ``held`` ``updated`` 0."""
    rows = []
    for r in formats.read_poses(rec / "gt_poses.csv"):
        s = (1 + (r.frame - 1) % 5) * (2 if r.frame < metrics.TRE_START_FRAME else 1)
        delta = RigidTransform(axis_angle_quat(np.array([0.0, 0.6, 0.8]),
                                               math.radians(2.0 * s)),
                               np.array([1.0 * s, -0.3 * s, 0.0]))
        key = (r.frame, r.slot)
        rows.append(formats.PoseRow(r.frame, r.slot, key not in invalid,
                                    key not in held, r.pose.compose(delta)))
    formats.write_poses(poses, rows)


def _csv_rows(path) -> list[dict[str, str]]:
    header, *lines = path.read_text().splitlines()
    return [dict(zip(header.split(","), line.split(","))) for line in lines]


def _safe(depth_text: str) -> bool:
    return depth_text == "" or float(depth_text) < metrics.SAFE_PERFORATION_MM


def _summary_from_csvs(rec, out) -> dict:
    """``summary.json`` as recomputed from evaluate's two CSVs: each tail is
    the valid rows whose frame number is at or after the start frame."""
    frame_rows = _csv_rows(out / "frame_metrics.csv")
    screw_rows = _csv_rows(out / "screw_metrics.csv")
    frames = sorted({int(r["frame"]) for r in frame_rows})
    start = metrics.TRE_START_FRAME if len(frames) >= metrics.TRE_START_FRAME else 1
    vid, sidx = str(metrics.TARGET_VERTEBRA), str(metrics.TARGET_SCREW)

    def judged_means(rows, key, column):
        judged = {}
        for r in rows:
            if int(r["frame"]) >= start and r.get("valid", "1") == "1":
                judged.setdefault(key(r), []).append(float(r[column]))
        return {k: float(np.mean(v)) for k, v in judged.items()}

    tre = judged_means(frame_rows, lambda r: r["vertebra"], "tre_mm")
    traj, entry = (judged_means(screw_rows, lambda r: f"{r['vertebra']}:{r['screw']}",
                                column) for column in ("traj_err_deg", "entry_err_mm"))
    target = [r["perforation_mm"] for r in screw_rows
              if (r["vertebra"], r["screw"]) == (vid, sidx)]
    judged_depths = [r["perforation_mm"] for r in screw_rows if int(r["frame"]) >= start]
    updated = [r for r in frame_rows
               if r["vertebra"] == vid and int(r["frame"]) > 1 and r["updated"] == "1"]
    gt = formats.poses_by_frame(formats.read_poses(rec / "gt_poses.csv"))
    normal = quat_to_matrix(gt[frames[0]][int(vid)].pose.q) @ np.array([0.0, 0.0, 1.0])
    angle = metrics.viewpoint_angle(np.array([0.0, 0.0, 1.0]), normal)
    return {
        "frames": len(frames), "tre_start_frame": start,
        "target_vertebra": int(vid), "target_screw": int(sidx),
        "tre_mm": {"per_vertebra": tre, "target": tre[vid]},
        "trajectory_error_deg": {"per_screw": traj, "target": traj[f"{vid}:{sidx}"]},
        "entry_point_error_mm": {"per_screw": entry, "target": entry[f"{vid}:{sidx}"]},
        "success_rate": sum(map(_safe, target)) / len(target),
        "updated_fraction": len(updated) / max(1, len(frames) - 1),
        "viewpoint_angle_deg": angle,
        "viewpoint_acceptable": angle < metrics.MAX_VIEWPOINT_ANGLE_DEG,
        "all_screws_safe_after_start": all(map(_safe, judged_depths)),
        "max_perforation_mm": max((float(d) for d in judged_depths if d), default=None),
    }


def _evaluate(rec, poses, out) -> dict:
    rc = cli.main(["evaluate", "--recording", str(rec), "--poses", str(poses),
                   "--out", str(out)])
    assert rc == 0
    return json.loads((out / "summary.json").read_text())


def test_evaluate_summary_is_the_recomputation_from_its_csvs(recording_dir, tmp_path):
    poses = tmp_path / "poses.csv"
    _perturbed_poses(recording_dir, poses, invalid={(2, 2)},
                     held={(4, metrics.TARGET_VERTEBRA)})
    summary = _evaluate(recording_dir, poses, tmp_path / "out")
    assert summary == _summary_from_csvs(recording_dir, tmp_path / "out")
    # the perturbation exercises every branch the figures take
    assert 0.0 < summary["success_rate"] < 1.0
    assert 0.0 < summary["updated_fraction"] < 1.0
    assert not summary["all_screws_safe_after_start"]
    # every CSV row is vertebra_errors' of its pose row
    rec = formats.LoadedRecording(recording_dir)
    est = formats.poses_by_frame(formats.read_poses(poses))
    by_id = {m.id: m for m in rec.models}
    screw_rows = iter(_csv_rows(tmp_path / "out" / "screw_metrics.csv"))
    for r in _csv_rows(tmp_path / "out" / "frame_metrics.csv"):
        f, vid = int(r["frame"]), int(r["vertebra"])
        row = est[f][vid]
        if not row.valid:
            assert (r["valid"], r["updated"], r["tre_mm"]) == ("0", "0", "")
            continue
        t, screws = metrics.vertebra_errors(by_id[vid], rec.gt_pose(vid, f), row.pose)
        assert (r["valid"], r["updated"], r["tre_mm"]) == ("1", str(int(row.updated)),
                                                           repr(t))
        for sidx, (traj, entry, depth) in enumerate(screws):
            s = next(screw_rows)
            assert s == {"frame": str(f), "vertebra": str(vid), "screw": str(sidx),
                         "traj_err_deg": repr(traj), "entry_err_mm": repr(entry),
                         "perforation_mm": "" if depth is None else repr(depth),
                         "safe": str(int(metrics.is_safe(depth)))}
    assert next(screw_rows, None) is None


@pytest.mark.parametrize("invalid", [
    {(1, 1)},
    {(f, 2) for f in range(1, 61)},
    {(f, 4) for f in range(61, 65)},
], ids=["vertebra 1 on frame 1", "vertebra 2 on frames 1-60",
        "vertebra 4 on frames 61-64"])
def test_evaluate_judges_each_tail_by_frame_number(long_recording, tmp_path, invalid):
    whole, poses = tmp_path / "whole.csv", tmp_path / "poses.csv"
    _perturbed_poses(long_recording, whole)
    _perturbed_poses(long_recording, poses, invalid=invalid)
    summary = _evaluate(long_recording, poses, tmp_path / "out")
    assert summary == _summary_from_csvs(long_recording, tmp_path / "out")
    assert summary["tre_start_frame"] == 61
    # a vertebra's rows before frame 61 do not count, so one valid on
    # frames 61-64 scores as it does with every row valid, and one invalid
    # on all of them is left out
    full = _evaluate(long_recording, whole, tmp_path / "whole")
    judged = {str(v) for v in range(1, 6)} - {str(v) for f, v in invalid if f >= 61}
    assert set(summary["tre_mm"]["per_vertebra"]) == judged
    for section, table in (("tre_mm", "per_vertebra"), ("trajectory_error_deg", "per_screw"),
                           ("entry_point_error_mm", "per_screw")):
        assert {k: v for k, v in full[section][table].items()
                if k.split(":")[0] in judged} == summary[section][table]


def test_register_perturbs_the_initial_pose_as_the_library_does(recording_dir, tmp_path):
    assert cli.main(["register", "--recording", str(recording_dir), "--out", str(tmp_path),
                     "--perturb-initial", "2:1:7"]) == 0
    rec = formats.LoadedRecording(recording_dir)
    states = run_recording(rec, rec.models, sim.oracle_segmenter, RegistrationConfig(),
                           initial_perturbation=sim.perturbation(
                               np.random.default_rng(7), math.radians(2), 1))
    want = [formats.PoseRow(s.frame_index, vid, True, tr.updated, tr.pose)
            for s in states for vid, tr in sorted(s.vertebrae.items())]
    got = formats.read_poses(tmp_path / "poses.csv")
    assert len(got) == len(want) == 25
    assert all(_same_row(a, b) for a, b in zip(got, want))
    unperturbed = tmp_path / "plain"
    assert cli.main(["register", "--recording", str(recording_dir),
                     "--out", str(unperturbed)]) == 0
    assert (unperturbed / "poses.csv").read_bytes() != (tmp_path / "poses.csv").read_bytes()


def test_simulate_deform_offsets_and_turns_that_vertebra(tmp_path):
    out = tmp_path / "rec"
    assert cli.main(["simulate", "--frames", "2", "--deform", "2:1,0,0:0,0,5",
                     "--out", str(out)]) == 0
    gt = formats.poses_by_frame(formats.read_poses(out / "gt_poses.csv"))
    offset = RigidTransform(axis_angle_quat(np.array([0.0, 0.0, 1.0]), math.radians(5)),
                            np.array([1.0, 0.0, 0.0]))
    for f in (1, 2):
        base = gt[f][1].pose
        assert all(_same_row(gt[f][vid], gt[f][1]) for vid in (1, 3, 4, 5))
        assert formats.pose_line(gt[f][2]) == formats.pose_line(
            formats.PoseRow(f, 2, True, True, offset.compose(base)))


def test_register_on_an_empty_initial_mask_writes_only_the_headers(
        recording_dir, tmp_path, capsys):
    rec = tmp_path / "rec"
    shutil.copytree(recording_dir, rec)
    mask = rec / "frames" / "f000001.msk"
    formats.write_mask(mask, np.zeros_like(formats.read_mask(mask)))
    out = tmp_path / "out"
    assert cli.main(["register", "--recording", str(rec), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "EmptyMaskError"
    assert (out / "poses.csv").read_text() == formats.POSES_HEADER + "\n"
    assert ((out / "state_log.csv").read_text()
            == "frame,vertebra,inliers,baseline,updated,frozen\n")


# every subcommand's options; adding or removing one is an edit here
CLI_OPTIONS = {
    "simulate": ["--out", "--seed", "--frames", "--fps", "--noise-sigma", "--dropout",
                 "--orientation-error-deg", "--tilt-deg", "--motion", "--deform",
                 "--occluder", "--tool", "--tool-noise-px"],
    "register": ["--recording", "--out", "--stream", "--perturb-initial"],
    "track": ["--recording", "--out"],
    "evaluate": ["--recording", "--poses", "--out"],
    "ablate": ["--recording", "--out"],
}


def test_the_cli_has_exactly_the_listed_options():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {name: [s for a in p._actions for s in a.option_strings
                  if s.startswith("--") and s != "--help"]
           for name, p in sub.choices.items()}
    assert got == CLI_OPTIONS
    assert sum(map(len, got.values())) == 24
