import json
import math
import re
import shutil
import socket

import numpy as np
import pytest

from vertereg import cli, formats, sim, stream
from vertereg.geom import RigidTransform
from vertereg.register import ABLATION_MODES, RegistrationConfig


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


def test_serve_reports_missing_recording_as_format_error(tmp_path, capsys):
    rc = cli.main(["serve", "--recording", str(tmp_path / "absent"),
                   "--poses", str(tmp_path / "poses.csv"), "--dest", "127.0.0.1:9"])
    assert rc == 2
    assert _format_error(capsys)["file"].endswith("recording.json")


@pytest.mark.parametrize("fps", ["-30", "nan"])
def test_serve_rejects_an_fps_that_is_not_positive_and_finite(
        tool_recording, capsys, fps):
    root, _ = tool_recording
    rc = cli.main(["serve", "--recording", str(root),
                   "--poses", str(root / "gt_poses.csv"), "--fps", fps,
                   "--dest", "127.0.0.1:9"])
    assert rc == 1
    _value_error(capsys)


def _serve_count(root, count) -> tuple[int, list[bytes]]:
    """Exit code of ``serve --count count`` and the datagrams it sent."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    sock.settimeout(0.2)
    host, port = sock.getsockname()
    packets = []
    with sock:
        rc = cli.main(["serve", "--recording", str(root),
                       "--poses", str(root / "gt_poses.csv"), "--fps", "1000",
                       "--count", count, "--dest", f"{host}:{port}"])
        try:
            while True:
                packets.append(sock.recv(65536))
        except socket.timeout:
            pass
    return rc, packets


def test_serve_count_sends_that_many_leading_frames(tool_recording):
    root, _ = tool_recording
    rc, packets = _serve_count(root, "3")
    assert rc == 0
    assert [stream.decode_packet(p)[0] for p in packets] == [1, 2, 3]


@pytest.mark.parametrize("count", ["-118", "0"])
def test_serve_rejects_a_count_below_one(tool_recording, capsys, count):
    root, _ = tool_recording
    rc, packets = _serve_count(root, count)
    assert rc == 1
    assert packets == []
    assert "--count" in _value_error(capsys)["message"]


@pytest.mark.parametrize("fps", ["nan", "inf", "0"])
def test_simulate_rejects_an_fps_that_is_not_positive_and_finite(
        tmp_path, capsys, fps):
    out = tmp_path / "rec"
    rc = cli.main(["simulate", "--frames", "2", "--fps", fps, "--out", str(out)])
    assert rc == 1
    assert "positive and finite" in _value_error(capsys)["message"]
    assert not (out / "recording.json").exists()


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


def _write_frame(frame, shape):
    def apply(rec):
        stem = rec / "frames" / f"f{frame:06d}"
        formats.write_depth(stem.with_suffix(".dpth"), np.full(shape, 400.0))
        formats.write_mask(stem.with_suffix(".msk"), np.ones(shape, bool))
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


@pytest.mark.parametrize("flags,want", [(["--mode", m], m) for m in ABLATION_MODES]
                         + [([], "Full")])
def test_register_hands_its_mode_and_the_default_config_to_the_pipeline(
        recording_dir, tmp_path, monkeypatch, flags, want):
    monkeypatch.setattr(cli, "run_recording", _capture)
    with pytest.raises(_Configured) as e:
        cli.main(["register", "--recording", str(recording_dir),
                  "--out", str(tmp_path)] + flags)
    args, kwargs = e.value.args
    assert args[3] == RegistrationConfig()
    assert kwargs["mode"] == want


def _refuse(*args, **kwargs):
    raise AssertionError("nothing may be sent")


@pytest.mark.parametrize("port", ["0", "99999", "http"])
@pytest.mark.parametrize("route", ["register --stream", "register $VERTEREG_STREAM",
                                   "serve --dest"])
def test_a_stream_port_outside_1_to_65535_is_an_error(
        tool_recording, tmp_path, capsys, monkeypatch, route, port):
    root, _ = tool_recording
    monkeypatch.setattr(stream, "PoseStreamer", _refuse)
    monkeypatch.setattr(stream, "serve_packets", _refuse)
    dest = f"127.0.0.1:{port}"
    out = tmp_path / "out"
    if route == "serve --dest":
        argv = ["serve", "--recording", str(root), "--poses", str(root / "gt_poses.csv"),
                "--dest", dest]
    else:
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
    target = formats.read_recording_meta(rec)["target_vertebra"]
    rows = formats.read_poses(rec / "gt_poses.csv")
    formats.write_poses(poses, [r for r in rows if r.slot != target])


@pytest.mark.parametrize("make", [_add_gt_frame, _drop_target],
                         ids=["frame the recording lacks", "no row of the target"])
def test_evaluate_reports_a_malformed_pose_table_as_format_error(
        recording_dir, tmp_path, capsys, make):
    poses = tmp_path / "poses.csv"
    make(recording_dir, poses)
    rc = cli.main(["evaluate", "--recording", str(recording_dir), "--poses", str(poses),
                   "--out", str(tmp_path / "out")])
    assert rc == 2
    assert _format_error(capsys)["file"] == str(poses)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("k", ["4", "0", "-3"])
def test_simulate_rejects_a_mask_kernel_that_is_not_a_positive_odd_integer(
        tmp_path, capsys, k):
    out = tmp_path / "rec"
    rc = cli.main(["simulate", "--frames", "2", "--mask-smooth-k", k, "--out", str(out)])
    assert rc == 1
    assert "positive odd integer" in _value_error(capsys)["message"]
    assert not (out / "recording.json").exists()
