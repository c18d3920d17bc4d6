import json
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
