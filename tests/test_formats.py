import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from vertereg import formats, register, sim, track
from vertereg.cloud import CameraIntrinsics
from vertereg.geom import RigidTransform

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_SETTINGS = settings(max_examples=200, deadline=None,
                     suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def small_ply(tmp_path_factory):
    """Bytes of a four-vertex model file."""
    path = tmp_path_factory.mktemp("ply") / "small.ply"
    rng = np.random.default_rng(0)
    formats.write_ply(path, rng.normal(0, 50, (4, 3)), rng.normal(size=(4, 3)))
    return path.read_bytes()


def _read_bytes(tmp_path, data):
    path = tmp_path / "model.ply"
    path.write_bytes(data)
    return formats.read_ply(path)


@_SETTINGS
@given(rows=hnp.arrays(np.float64, st.tuples(st.integers(0, 20), st.just(6)),
                       elements=_FINITE))
def test_ply_write_read_write_is_byte_identical(tmp_path, rows):
    first, second = tmp_path / "a.ply", tmp_path / "b.ply"
    formats.write_ply(first, rows[:, :3], rows[:, 3:])
    points, normals = formats.read_ply(first)
    # bit for bit, which also tells -0.0 from 0.0
    assert points.tobytes() == rows[:, :3].copy().tobytes()
    assert normals.tobytes() == rows[:, 3:].copy().tobytes()
    formats.write_ply(second, points, normals)
    assert second.read_bytes() == first.read_bytes()


def test_model_round_trip_keeps_every_array_and_the_registration_subset(
        coarse_scene, tmp_path):
    for m in coarse_scene.models:
        ply, sidecar = tmp_path / f"v{m.id}.ply", tmp_path / f"v{m.id}.json"
        formats.save_model(m, ply, sidecar)
        back = formats.load_model(ply, sidecar)
        assert back.id == m.id
        for name in ("points", "normals", "reg_indices", "reg_points",
                     "coarse_points", "landmarks", "pedicle_indices",
                     "pedicle_points"):
            assert getattr(back, name).tobytes() == getattr(m, name).tobytes(), name
        assert len(back.screw_plans) == len(m.screw_plans)
        for a, b in zip(back.screw_plans, m.screw_plans):
            assert a.entry.tolist() == b.entry.tolist()
            assert a.direction.tolist() == b.direction.tolist()
            assert (a.radius_mm, a.length_mm) == (b.radius_mm, b.length_mm)
        formats.save_model(back, tmp_path / "again.ply", tmp_path / "again.json")
        assert (tmp_path / "again.ply").read_bytes() == ply.read_bytes()
        assert (tmp_path / "again.json").read_bytes() == sidecar.read_bytes()


def test_every_truncation_of_a_model_file_is_a_format_error(small_ply, tmp_path):
    for size in range(len(small_ply)):
        with pytest.raises(formats.FormatError):
            _read_bytes(tmp_path, small_ply[:size])


@_SETTINGS
@given(data=st.data())
def test_any_change_to_a_header_byte_is_a_format_error(small_ply, tmp_path, data):
    header_len = small_ply.index(b"end_header\n") + len(b"end_header\n")
    pos = data.draw(st.integers(0, header_len - 1))
    value = data.draw(st.integers(0, 255).filter(lambda v: v != small_ply[pos]))
    changed = small_ply[:pos] + bytes([value]) + small_ply[pos + 1:]
    with pytest.raises(formats.FormatError):
        _read_bytes(tmp_path, changed)


@_SETTINGS
@given(extra=st.binary(min_size=1, max_size=100))
def test_trailing_bytes_are_a_format_error(small_ply, tmp_path, extra):
    with pytest.raises(formats.FormatError, match="bytes of vertex data"):
        _read_bytes(tmp_path, small_ply + extra)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_values_are_rejected(small_ply, tmp_path, value):
    body = len(small_ply) - 4 * 48
    # third value (z) of the second vertex
    at = body + 48 + 16
    data = small_ply[:at] + np.float64(value).astype("<f8").tobytes() + small_ply[at + 8:]
    with pytest.raises(formats.FormatError, match="non-finite value in vertex 1") as e:
        _read_bytes(tmp_path, data)
    assert e.value.offset == at
    with pytest.raises(ValueError, match="finite"):
        formats.write_ply(tmp_path / "w.ply", [[0.0, 0.0, value]], [[0.0, 0.0, 1.0]])


def test_ascii_model_file_is_rejected_with_the_expected_format(tmp_path):
    ascii_ply = ("ply\nformat ascii 1.0\nelement vertex 1\n"
                 + "".join(f"property float {p}\n" for p in ("x", "y", "z", "nx", "ny", "nz"))
                 + "end_header\n0.0 0.0 0.0 0.0 0.0 1.0\n").encode("ascii")
    with pytest.raises(formats.FormatError, match="binary_little_endian") as e:
        _read_bytes(tmp_path, ascii_ply)
    assert e.value.offset == len(b"ply\n")


@pytest.mark.parametrize("line", [b"element vertex <count>", b"element vertex 04",
                                  b"element vertex +4", b"element vertex " + b"9" * 5000])
def test_malformed_vertex_counts_are_rejected(small_ply, tmp_path, line):
    data = small_ply.replace(b"element vertex 4", line, 1)
    with pytest.raises(formats.FormatError, match="element vertex"):
        _read_bytes(tmp_path, data)


def _written(write):
    """Bytes of a file made by ``write(path)``."""
    def make(tmp_path):
        path = tmp_path / "sample"
        write(path)
        return path.read_bytes()
    return make


_POSE = RigidTransform(np.array([0.5, 0.5, -0.5, 0.5]), np.array([1.25, -2.0, 300.0]))
_INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=200.0, cy=150.0, width=400,
                               height=300)
_MODEL = register.VertebraModel(
    id=2, points=np.arange(18.0).reshape(6, 3), normals=np.zeros((6, 3)),
    reg_indices=np.array([0, 2, 3, 5]), landmarks=np.eye(3) * 10.0,
    pedicle_indices=np.array([1, 4]),
    screw_plans=(register.ScrewPlan(np.array([0.0, 1.0, 2.0]),
                                    np.array([0.0, 0.0, 1.0]), 2.5, 40.0),))


def _read_meta(path):
    """read_recording_meta of ``path`` as a recording's ``recording.json``."""
    root = path.parent / "recording"
    root.mkdir(exist_ok=True)
    (root / "recording.json").write_bytes(path.read_bytes())
    return formats.read_recording_meta(root)


def _read_sidecar(path):
    """load_model of the sidecar ``path`` next to the model ``_written`` saved."""
    return formats.load_model(path.parent / "sample.ply", path)


# reader -> (parse a file, make a valid file of its format)
READERS = {
    "depth": (formats.read_depth, _written(lambda p: formats.write_depth(
        p, np.arange(12.0).reshape(3, 4) * 100.0))),
    "mask": (formats.read_mask, _written(lambda p: formats.write_mask(
        p, np.arange(30).reshape(3, 10) % 3 == 0))),
    "poses": (formats.read_poses, _written(lambda p: formats.write_poses(
        p, [formats.PoseRow(1, 2, True, False, _POSE),
            formats.PoseRow(2, 6, False, True, _POSE)]))),
    "observations": (formats.read_observations, _written(
        lambda p: formats.write_observations(p, {3: [track.MarkerObservation(
            1, np.arange(8.0).reshape(4, 2), np.arange(8.0).reshape(4, 2) + 0.5)]}))),
    "orientations": (formats.read_orientations, _written(
        lambda p: p.write_text("frame,qw,qx,qy,qz\n1,1.0,0.0,0.0,0.0\n"
                               "2,0.5,0.5,-0.5,0.5\n"))),
    "recording.json": (_read_meta, _written(lambda p: formats.write_json(p, {
        "fps": 30.0, "frames": 2, "intrinsics": formats._intrinsics_doc(_INTRINSICS),
        "has_tool": True}))),
    "stereo.json": (formats.read_stereo, _written(lambda p: formats.write_stereo(
        p, track.StereoRig(_INTRINSICS, _INTRINSICS, RigidTransform(
            np.array([1.0, 0.0, 0.0, 0.0]), np.array([60.0, 0.0, 0.0]))),
        sim.default_marker_reference()))),
    "sidecar": (_read_sidecar, _written(lambda p: formats.save_model(
        _MODEL, p.with_suffix(".ply"), p))),
}


def _parses_or_format_error(read, path):
    try:
        read(path)
    except formats.FormatError:
        pass


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reader_accepts_its_own_files(tmp_path, reader):
    read, make = READERS[reader]
    path = tmp_path / "sample"
    path.write_bytes(make(tmp_path))
    read(path)


@pytest.mark.parametrize("reader", sorted(READERS))
@_SETTINGS
@given(data=st.data())
def test_any_prefix_and_tail_either_parses_or_is_a_format_error(tmp_path, reader,
                                                                data):
    read, make = READERS[reader]
    valid = make(tmp_path)
    # a prefix of length 0 with any tail is any byte string at all
    cut = data.draw(st.integers(0, len(valid)))
    path = tmp_path / "fuzzed"
    path.write_bytes(valid[:cut] + data.draw(st.binary(max_size=64)))
    _parses_or_format_error(read, path)


@pytest.mark.parametrize("reader", sorted(READERS))
@_SETTINGS
@given(data=st.data())
def test_any_single_byte_change_either_parses_or_is_a_format_error(tmp_path, reader,
                                                                   data):
    read, make = READERS[reader]
    valid = make(tmp_path)
    pos = data.draw(st.integers(0, len(valid) - 1))
    value = data.draw(st.integers(0, 255))
    path = tmp_path / "fuzzed"
    path.write_bytes(valid[:pos] + bytes([value]) + valid[pos + 1:])
    _parses_or_format_error(read, path)


def test_a_repeated_frame_and_slot_is_a_format_error_at_its_row(tmp_path):
    # a frame or a slot may repeat on its own, the pair may not
    path = tmp_path / "poses.csv"
    keys = [(1, 2), (1, 6), (2, 2)]
    formats.write_poses(path, [formats.PoseRow(f, s, True, True, _POSE)
                               for f, s in keys])
    assert len(formats.read_poses(path)) == 3
    offset = path.stat().st_size
    with open(path, "a") as f:
        f.write(formats.pose_line(formats.PoseRow(1, 6, False, False, _POSE)))
    with pytest.raises(formats.FormatError, match="repeated") as e:
        formats.read_poses(path)
    assert (e.value.path, e.value.offset) == (str(path), offset)
