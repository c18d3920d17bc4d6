"""Binary pose telemetry over UDP.

Each frame produces one 368-byte datagram: a 4-byte magic, u64 frame id,
u64 timestamp in microseconds, then six slots (vertebra levels 1-5 and the
drill sleeve), each a valid flag, an updated flag and seven little-endian
f64 values (qw, qx, qy, qz, tx, ty, tz in mm). Delivery is fire-and-forget:
the consumer renders the freshest pose and lost datagrams are simply
superseded.
"""

from __future__ import annotations

import socket
import struct
import sys
from dataclasses import dataclass

import numpy as np

from .geom import RigidTransform

PACKET_MAGIC = b"VRP1"
SLOT_COUNT = 6
_SLOT_FMT = "BB7d"
_PACKET_FMT = "<4sQQ" + _SLOT_FMT * SLOT_COUNT
PACKET_SIZE = struct.calcsize(_PACKET_FMT)  # 368 bytes


@dataclass(frozen=True)
class PoseSlot:
    valid: bool
    updated: bool
    pose: RigidTransform

    @staticmethod
    def empty() -> "PoseSlot":
        return PoseSlot(False, False, RigidTransform.identity())


def encode_packet(frame_id: int, timestamp_us: int,
                  slots: list[PoseSlot]) -> bytes:
    if len(slots) != SLOT_COUNT:
        raise ValueError(f"expected {SLOT_COUNT} slots, got {len(slots)}")
    values: list = [PACKET_MAGIC, frame_id, timestamp_us]
    for s in slots:
        q, t = s.pose.q, s.pose.t
        values += [int(s.valid), int(s.updated),
                   float(q[0]), float(q[1]), float(q[2]), float(q[3]),
                   float(t[0]), float(t[1]), float(t[2])]
    return struct.pack(_PACKET_FMT, *values)


def decode_packet(data: bytes) -> tuple[int, int, list[PoseSlot]]:
    if len(data) != PACKET_SIZE:
        raise ValueError(f"packet must be {PACKET_SIZE} bytes, got {len(data)}")
    parts = struct.unpack(_PACKET_FMT, data)
    if parts[0] != PACKET_MAGIC:
        raise ValueError(f"bad packet magic {parts[0]!r}")
    frame_id, timestamp_us = parts[1], parts[2]
    slots = []
    for k in range(SLOT_COUNT):
        base = 3 + 9 * k
        vals = parts[base + 2:base + 9]
        slots.append(PoseSlot(bool(parts[base]), bool(parts[base + 1]),
                              RigidTransform(np.array(vals[:4]), np.array(vals[4:]))))
    return frame_id, timestamp_us, slots


class PoseStreamer:
    """Fire-and-forget datagram sender; send errors warn once and continue."""

    def __init__(self, host: str, port: int):
        self.dest = (host, port)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._warned = False

    def send(self, packet: bytes) -> None:
        try:
            self.sock.sendto(packet, self.dest)
        except OSError as e:
            if not self._warned:
                print(f"warning: pose stream to {self.dest[0]}:{self.dest[1]} "
                      f"failed ({e}); continuing", file=sys.stderr)
                self._warned = True

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "PoseStreamer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
