"""Host correction divides each operation by the slowdown measured before it."""

import common
from common import Op, Phase


def test_op_on_a_slow_host_counts_at_reference_speed():
    # The same 0.3 s operation, measured once at reference speed and
    # once while the host ran twice as slow, reads the same corrected.
    fast = Op("x", 0.0, 0.3, 1, slowdown=1.0)
    slow = Op("x", 1.0, 1.6, 1, slowdown=2.0)
    assert abs(fast.corrected_seconds - 0.3) < 1e-12
    assert abs(slow.corrected_seconds - 0.3) < 1e-12


def test_end_to_end_uses_corrected_times_and_reports_wall_on_request():
    ops = [
        Op("x", 0.0, 0.1, 2, slowdown=1.0),
        Op("x", 0.2, 0.4, 2, slowdown=2.0),
        Op("x", 0.5, 0.6, 2, slowdown=1.0),
    ]
    phase = Phase(ops, 1.0)
    corrected = common.end_to_end(phase, 50)
    assert abs(corrected["latency_p50_ms"] - 100.0) < 1e-9
    assert abs(corrected["throughput_ops_per_s"] - 10.0) < 1e-9
    assert abs(corrected["points_per_s"] - 20.0) < 1e-9
    wall = common.end_to_end(phase, 50, corrected=False)
    assert abs(wall["throughput_ops_per_s"] - 7.5) < 1e-9


def test_cpu_probe_reads_a_slowdown():
    assert common.cpu_slowdown() > 0.0
