import json
import shutil
import socket

import pytest

from vertereg import cli, formats, sim, stream


@pytest.fixture(scope="module")
def recording_dir(coarse_scene, tmp_path_factory):
    root = tmp_path_factory.mktemp("rec")
    formats.write_recording(sim.render_recording(coarse_scene,
                                                 sim.RecordingSpec(frames=5), seed=0),
                            root)
    return root


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
