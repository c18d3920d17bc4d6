import numpy as np
import pytest

from conftest import random_unit_quat
from vertereg import stream
from vertereg.geom import RigidTransform


def test_decode_inverts_encode_for_every_slot():
    rng = np.random.default_rng(0)
    slots = [stream.PoseSlot(bool(k % 2), bool(k % 3 == 0),
                             RigidTransform(random_unit_quat(rng),
                                            rng.normal(0.0, 300.0, 3)))
             for k in range(stream.SLOT_COUNT - 1)] + [stream.PoseSlot.empty()]
    frame_id, timestamp_us = 2**40 + 7, 123_456_789_012

    packet = stream.encode_packet(frame_id, timestamp_us, slots)
    assert len(packet) == stream.PACKET_SIZE
    got_id, got_ts, got = stream.decode_packet(packet)

    assert (got_id, got_ts) == (frame_id, timestamp_us)
    assert len(got) == len(slots)
    for a, b in zip(got, slots):
        assert (a.valid, a.updated) == (b.valid, b.updated)
        assert a.pose.q.tobytes() == np.asarray(b.pose.q, dtype=float).tobytes()
        assert a.pose.t.tobytes() == np.asarray(b.pose.t, dtype=float).tobytes()


def test_decode_rejects_a_wrong_length_or_magic():
    packet = stream.encode_packet(1, 0, [stream.PoseSlot.empty()] * stream.SLOT_COUNT)
    with pytest.raises(ValueError, match="bytes"):
        stream.decode_packet(packet[:-1])
    with pytest.raises(ValueError, match="magic"):
        stream.decode_packet(b"XRP1" + packet[4:])
    with pytest.raises(ValueError, match="slots"):
        stream.encode_packet(1, 0, [stream.PoseSlot.empty()])


def test_interval_jitter_of_exact_pacing_is_zero():
    assert stream.interval_jitter([k * 0.25 for k in range(9)], 4.0) == 0.0


def test_interval_jitter_is_the_mean_deviation_over_the_period():
    # intervals 0.3, 0.2 and 0.25 s at 4 fps deviate by 0.05, 0.05 and 0
    got = stream.interval_jitter([0.0, 0.3, 0.5, 0.75], 4.0)
    assert got == pytest.approx((0.05 + 0.05 + 0.0) / 3 / 0.25, rel=1e-12)


@pytest.mark.parametrize("stamps", [[], [12.5]])
def test_interval_jitter_of_fewer_than_two_stamps_is_zero(stamps):
    assert stream.interval_jitter(stamps, 30.0) == 0.0
