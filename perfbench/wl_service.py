"""svc-onr: the analysis service on a real socket, one closed-loop client.

An in-process ``AnalysisService`` (1 replica x 1 worker) listens on a
localhost port; one closed-loop client, on the benchmark's main thread,
sends its next request as soon as the previous answer arrives.  One
client, not two: with two client threads, the clients, the event loop
and the replica contend for the host's two CPUs and runs flip between
two regimes (quartile spread of p50 latency 0.36 over five seeds,
against 0.10 with one client).  The service answers one request per
connection (``Connection: close``), so each request opens a connection.
Requests mix ``/analyze`` and ``/sweep`` over the ONR geometry, with a
fixed share of repeats that the response cache serves.  One operation is
one HTTP request.

Checks: every response is a 200; every probability matches the
reference recorded in ``data/references.json`` within 1e-9; every repeat of a request (cache
hit or coalesced follower) answers the same bytes as its first answer.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import threading
import time
from typing import Dict, List, Tuple

import numpy as np

import checks
import inputs
from common import Breakdown, Op, Phase, cpu_slowdown, median, reap_children

TAIL_PERCENTILE = 99
#: A request takes a few ms, far less than the CPU probe, so the probe
#: runs once per interval and corrects every request sent until the next.
PROBE_INTERVAL_S = 0.2
IMPORTS = ["repro", "repro.service"]
REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "references.json")


def _head(method: str, path: str, host: str, body: bytes) -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: {host}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def parse_response(raw: bytes) -> Tuple[int, Dict[str, str], bytes]:
    """``(status, lower-cased headers, body)`` of one HTTP/1.1 response."""
    header_block, _, payload = raw.partition(b"\r\n\r\n")
    lines = header_block.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


def http_request(
    host: str, port: int, method: str, path: str, body: bytes = b""
) -> Tuple[int, Dict[str, str], bytes]:
    """One blocking request on a fresh connection; read to EOF."""
    chunks = []
    with socket.create_connection((host, port), timeout=60) as sock:
        sock.sendall(_head(method, path, host, body))
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return parse_response(b"".join(chunks))


class ServiceHarness:
    """Runs an ``AnalysisService`` on its own event-loop thread."""

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.service = None

    def _call(self, coroutine):
        return asyncio.run_coroutine_threadsafe(coroutine, self.loop).result(60.0)

    def start(self) -> "ServiceHarness":
        from repro.service import AnalysisService, ServiceConfig

        self.thread.start()

        async def start():
            service = AnalysisService(
                ServiceConfig(host="127.0.0.1", port=0, workers=1, replicas=1)
            )
            await service.start()
            return service

        self.service = self._call(start())
        return self

    @property
    def address(self) -> Tuple[str, int]:
        return self.service.host, self.service.port

    def stop(self) -> None:
        try:
            if self.service is not None:
                self._call(self.service.stop())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30)
            self.loop.close()
            reap_children()


def reference_grids() -> checks.ServiceReference:
    """The recorded answers over the whole ONR question space."""
    with open(REFERENCES, encoding="utf-8") as handle:
        onr = json.load(handle)["onr"]
    grids = {float(speed): np.asarray(grid) for speed, grid in onr["grids"].items()}
    return checks.ServiceReference(grids, onr["n_low"], onr["k_low"])


def counter_delta(before: dict, after: dict):
    """Service and fleet counters accrued between two ``/metrics`` reads."""

    def delta(path):
        old, new = before, after
        for key in path:
            old, new = old.get(key, {}), new.get(key, {})
        return {name: value - old.get(name, 0) for name, value in new.items()}

    return delta(["counters"]), delta(["fleet", "counters"])


def _take_within(spans: list, start: float, end: float):
    """Remove and return the first span inside ``[start, end]``, if any."""
    for index, span in enumerate(spans):
        if span.start >= start and span.end <= end:
            return spans.pop(index)
        if span.start > end:
            break
    return None


class Workload:
    name = "svc-onr"
    tail_percentile = TAIL_PERCENTILE
    imports = IMPORTS

    def setup(self, seed: int) -> dict:
        import repro

        reference = reference_grids()
        # The replica forks from this process: start it with an empty cache.
        repro.clear_analysis_cache()
        harness = ServiceHarness().start()
        host, port = harness.address
        # Warm the request path on a question outside the workload's space.
        warm = json.dumps({"scenario": inputs.onr_dict(7.0, 100, 3)}).encode()
        status, _, _ = http_request(host, port, "POST", "/analyze", warm)
        if status != 200:
            harness.stop()
            raise RuntimeError(f"warm-up request answered HTTP {status}")
        return {
            "harness": harness,
            "reference": reference,
            "stream": inputs.ServiceRequestStream(seed),
        }

    def teardown(self, state: dict) -> None:
        state["harness"].stop()

    def run(self, state: dict, seconds: float, recorder=None) -> Phase:
        host, port = state["harness"].address
        stream = state["stream"]
        ops: List[Op] = []
        errors: List[str] = []
        _, _, before = http_request(host, port, "GET", "/metrics")
        start = time.perf_counter()
        probed = start - PROBE_INTERVAL_S
        # The closed-loop client: send the next request once the previous
        # answer is in.
        while time.perf_counter() < start + seconds:
            if time.perf_counter() - probed >= PROBE_INTERVAL_S:
                slowdown = cpu_slowdown()
                probed = time.perf_counter()
            request = stream.next()
            t0 = time.perf_counter()
            try:
                status, headers, body = http_request(host, port, "POST", request.path, request.body)
            except OSError as exc:
                errors.append(f"{request.path} failed: {exc!r}")
                continue
            t1 = time.perf_counter()
            points = 1
            if request.path == "/sweep":
                points = len(json.loads(request.body)["values"])
            span = recorder.root(len(ops), t0, t1) if recorder is not None else None
            ops.append(
                Op(request.path, t0, t1, points, (request, status, headers, body), span,
                   slowdown=slowdown)
            )
        wall = time.perf_counter() - start
        phase = Phase(ops, wall, failures=list(errors), errored=len(errors))
        _, _, after = http_request(host, port, "GET", "/metrics")
        phase.extra["counters"] = counter_delta(json.loads(before), json.loads(after))
        self._check(phase, state["reference"])
        return phase

    @staticmethod
    def _check(phase: Phase, reference: checks.ServiceReference) -> None:
        first: Dict[Tuple[str, bytes], bytes] = {}
        for op in phase.ops:
            request, status, headers, body = op.output
            reason = checks.check_service_response(
                request.path, request.body, status, body, reference
            )
            key = (request.path, request.body)
            if reason is None and key in first:
                reason = checks.check_same_bytes(first[key], body)
            first.setdefault(key, body)
            if reason is not None:
                phase.failures.append(reason)
            op.output = (request, headers.get("x-repro-cache", ""))

    def layers(self, untraced: Phase, traced: Phase, breakdown: Breakdown, state) -> dict:
        from repro.service import request_fingerprint
        from repro.service.handlers import ENDPOINTS

        recorder_spans = state["recorder"].spans
        dispatches = sorted(
            (s for s in recorder_spans if s.name == "svc.dispatch"), key=lambda s: s.start
        )
        submits = sorted(
            (s for s in recorder_spans if s.name == "svc.submit"), key=lambda s: s.start
        )
        # Attach each dispatch to the client op that sent the same body and
        # whose interval contains it; each submit to its dispatch by key.
        by_body: Dict[bytes, list] = {}
        for span in dispatches:
            by_body.setdefault(span.attrs.get("body"), []).append(span)
        by_key: Dict[str, list] = {}
        for span in submits:
            by_key.setdefault(span.attrs["key"], []).append(span)
        op_dispatch, dispatch_submit = {}, {}
        for op in breakdown.ops:
            request, _ = op.output
            span = _take_within(by_body.get(request.body, []), op.start, op.end)
            if span is None:
                continue
            op_dispatch[op.span.id] = span
            endpoint = ENDPOINTS[request.path]
            key = request_fingerprint(
                endpoint.path, endpoint.canonicalize(json.loads(request.body))
            )
            sub = _take_within(by_key.get(key, []), span.start, span.end)
            if sub is not None:
                dispatch_submit[span.id] = sub
        transport, server, submit_ms, misses = [], [], [], []
        for op in breakdown.ops:
            dispatch = op_dispatch.get(op.span.id)
            if dispatch is None:
                transport.append(op.seconds)
                continue
            sub = dispatch_submit.get(dispatch.id)
            transport.append(op.seconds - dispatch.duration)
            server.append(dispatch.duration - (sub.duration if sub else 0.0))
            if sub is not None:
                submit_ms.append(sub.duration)
                misses.append(sub)
        ipc = self._ipc(sorted(misses, key=lambda span: span.start))
        counters, fleet = traced.extra["counters"]
        compute_requests = counters.get("requests.analyze", 0) + counters.get("requests.sweep", 0)
        return {
            "service.transport.self_ms": 1e3 * median(transport),
            "service.server.self_ms": 1e3 * median(server),
            "service.server.cache_hit_ratio": counters.get("cache_served", 0)
            / max(compute_requests, 1),
            "service.server.requests": compute_requests,
            "service.server.coalesced": counters.get("coalesced", 0),
            "service.server.rejected": counters.get("rejected", 0),
            "service.supervisor.submit_ms": 1e3 * median(submit_ms),
            "service.supervisor.ipc_ms": 1e3 * median(ipc),
            "service.supervisor.reroutes": fleet.get("reroutes", 0),
            "service.supervisor.crashes": fleet.get("crashes", 0),
            "trace.matched_share": len(op_dispatch) / max(len(breakdown.ops), 1),
            "trace.attributed_share": sum(span.duration for span in op_dispatch.values())
            / max(sum(op.seconds for op in breakdown.ops), 1e-12),
        }

    @staticmethod
    def _ipc(misses) -> List[float]:
        """Submit time minus the same compute replayed in this process.

        The replica forked with an empty analysis cache and computed the
        misses in submit order; replaying them in that order from an
        empty cache reproduces its cache state, so the difference is the
        fleet's dispatch and inter-process cost (a derived figure).
        """
        import repro

        repro.clear_analysis_cache()
        out = []
        for sub in misses:
            fn, args = sub.attrs["fn"], sub.attrs["args"]
            t0 = time.perf_counter()
            fn(*args)
            out.append(sub.duration - (time.perf_counter() - t0))
        repro.clear_analysis_cache()
        return out
