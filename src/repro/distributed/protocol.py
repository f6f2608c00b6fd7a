"""The sweep-orchestration wire protocol.

Framing is inherited wholesale from :mod:`repro.streaming.protocol`:
one frame is one canonically-serialised JSON object per line
(:func:`repro.streaming.protocol.encode_frame`), reassembled on the
receiving side by :class:`repro.streaming.protocol.FrameDecoder`, and
violations raise :class:`~repro.errors.ProtocolError` with a typed
``code``.  What differs is the grammar:

Worker to coordinator::

    {"type":"hello","protocol":1,"role":"worker","worker":"w0"}
    {"type":"request"}                      give me a lease
    {"type":"result","index":7,"row":{...}} one completed point
    {"type":"revoked","at":12}              stopped before index 12
    {"type":"bye"}                          clean disconnect

Coordinator to worker::

    {"type":"welcome","protocol":1,"fingerprint":...,"points":[...],
     "spec":{...}}                          full sweep description
    {"type":"lease","start":4,"stop":12}    own [start, stop) ∩ points
    {"type":"wait"}                         park; a lease may follow
    {"type":"revoke","at":12}               stop before index 12, ack
    {"type":"done"}                         sweep complete, disconnect
    {"type":"error","code":...,"error":...} sent before closing

Grammar rules:

* the first worker frame must be ``hello`` with a supported
  ``protocol`` and a non-empty ``worker`` name; the coordinator
  answers ``welcome`` (or ``error``) before anything else;
* the ``welcome`` carries the canonical point list, the compute spec
  *and* the sweep's checkpoint fingerprint; the worker recomputes the
  fingerprint from the points and spec and refuses a coordinator that
  lies about it — the same trust-but-verify handshake as the streaming
  tier;
* a ``lease`` may only follow a ``request`` (or a ``revoke`` ack on
  some other connection — leases are pushed, so a parked worker
  receives its grant without asking again);
* every ``revoke`` must be answered by exactly one ``revoked`` ack
  before the worker sends further ``result`` frames for indexes at or
  beyond the ack point.

Unlike the streaming session grammar there is no ``seq`` chain: the
transport is a trusted TCP byte stream per worker and every frame is
idempotent to reorder-free delivery, so sequence numbers would only
duplicate TCP's own guarantee.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.errors import ProtocolError
from repro.streaming.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    FrameDecoder,
    encode_frame,
)

__all__ = [
    "MAX_SWEEP_FRAME_BYTES",
    "PROTOCOL_VERSION",
    "FrameDecoder",
    "encode_frame",
    "bye_frame",
    "done_frame",
    "error_frame",
    "hello_frame",
    "lease_frame",
    "request_frame",
    "result_frame",
    "revoke_frame",
    "revoked_frame",
    "validate_hello",
    "validate_welcome",
    "wait_frame",
    "welcome_frame",
]

#: A ``welcome`` frame carries the whole point list; allow it to be
#: larger than a streaming report frame (dense sweeps reach thousands
#: of points) while still bounding a malicious peer.
MAX_SWEEP_FRAME_BYTES = 8 * MAX_FRAME_BYTES


# ----------------------------------------------------------------------
# Worker-to-coordinator frames
# ----------------------------------------------------------------------


def hello_frame(worker: str) -> Dict[str, Any]:
    """The worker handshake."""
    return {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "role": "worker",
        "worker": worker,
    }


def request_frame() -> Dict[str, Any]:
    """Ask for a lease (idle worker)."""
    return {"type": "request"}


def result_frame(index: int, row: Dict[str, Any]) -> Dict[str, Any]:
    """One completed point: the sweep index and its canonical row."""
    return {"type": "result", "index": index, "row": row}


def revoked_frame(at: int) -> Dict[str, Any]:
    """Ack a revoke: ``at`` is the first index this worker did NOT
    compute (it may exceed the requested split if results were already
    in flight)."""
    return {"type": "revoked", "at": at}


def bye_frame() -> Dict[str, Any]:
    """Clean disconnect (distinguishes a finished worker from a crash)."""
    return {"type": "bye"}


# ----------------------------------------------------------------------
# Coordinator-to-worker frames
# ----------------------------------------------------------------------


def welcome_frame(
    fingerprint: str,
    points: List[Dict[str, Any]],
    spec: Dict[str, Any],
) -> Dict[str, Any]:
    """The sweep description: canonical points, fingerprint, and the
    compute spec a worker resolves into a point function."""
    return {
        "type": "welcome",
        "protocol": PROTOCOL_VERSION,
        "fingerprint": fingerprint,
        "points": points,
        "spec": spec,
    }


def lease_frame(start: int, stop: int) -> Dict[str, Any]:
    """Grant the contiguous index range ``[start, stop)``."""
    return {"type": "lease", "start": start, "stop": stop}


def wait_frame() -> Dict[str, Any]:
    """Park: no work right now, a lease or done will be pushed."""
    return {"type": "wait"}


def revoke_frame(at: int) -> Dict[str, Any]:
    """Ask the worker to stop before index ``at`` and ack."""
    return {"type": "revoke", "at": at}


def done_frame() -> Dict[str, Any]:
    """The sweep is complete; the worker should ``bye`` and close."""
    return {"type": "done"}


def error_frame(message: str, code: str = "protocol") -> Dict[str, Any]:
    """Sent before the coordinator closes on a protocol violation."""
    return {"type": "error", "code": code, "error": message}


# ----------------------------------------------------------------------
# Handshake validation
# ----------------------------------------------------------------------


def validate_hello(frame: Dict[str, Any]) -> str:
    """Coordinator-side check of the first worker frame.

    Returns:
        The worker name.

    Raises:
        ProtocolError: when the frame is not a well-formed worker hello.
    """
    if frame.get("type") != "hello":
        raise ProtocolError(
            f"first frame must be 'hello', got {frame.get('type')!r}",
            code="handshake",
        )
    version = frame.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this coordinator speaks {PROTOCOL_VERSION})",
            code="version",
        )
    if frame.get("role") != "worker":
        raise ProtocolError(
            f"unsupported role {frame.get('role')!r}", code="handshake"
        )
    worker = frame.get("worker")
    if not isinstance(worker, str) or not worker:
        raise ProtocolError(
            f"'hello' must carry a non-empty worker name, got {worker!r}",
            code="handshake",
        )
    return worker


def validate_welcome(
    frame: Dict[str, Any],
    fingerprint_of: Any,
    expected_fingerprint: Optional[str] = None,
) -> Dict[str, Any]:
    """Worker-side check of the coordinator's welcome.

    Args:
        frame: the decoded welcome frame.
        fingerprint_of: callable mapping ``(points, spec)`` to the
            sweep's checkpoint fingerprint (the worker recomputes rather
            than trusting the wire).
        expected_fingerprint: when the worker was launched against a
            known sweep, additionally pin the fingerprint to it.

    Returns:
        The validated frame.

    Raises:
        ProtocolError: on version, shape, or fingerprint violations.
    """
    if frame.get("type") == "error":
        raise ProtocolError(
            f"coordinator refused session: {frame.get('error')!r}",
            code=str(frame.get("code", "protocol")),
        )
    if frame.get("type") != "welcome":
        raise ProtocolError(
            f"expected 'welcome', got {frame.get('type')!r}",
            code="handshake",
        )
    version = frame.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this worker speaks {PROTOCOL_VERSION})",
            code="version",
        )
    points = frame.get("points")
    if not isinstance(points, list) or not all(
        isinstance(point, dict) for point in points
    ):
        raise ProtocolError(
            "'welcome' must carry the list of point dicts", code="points"
        )
    spec = frame.get("spec")
    if not isinstance(spec, dict):
        raise ProtocolError(
            "'welcome' must carry the compute spec object", code="spec"
        )
    claimed = frame.get("fingerprint")
    actual = fingerprint_of(points, spec)
    if claimed != actual:
        raise ProtocolError(
            f"sweep fingerprint mismatch: welcome claims "
            f"{claimed!r}, points and spec hash to {actual!r}",
            code="fingerprint",
        )
    if expected_fingerprint is not None and claimed != expected_fingerprint:
        raise ProtocolError(
            f"coordinator is serving sweep {claimed!r}, but this worker "
            f"was launched for {expected_fingerprint!r}",
            code="fingerprint",
        )
    return frame
