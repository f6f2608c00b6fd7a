"""Span recorder arithmetic and wrapper install/restore."""

import threading
import types

from tracing import Span, SpanRecorder, Tracer, self_times


def span(span_id, parent, start, end, name="x"):
    s = Span(span_id, parent, 0, name, start)
    s.end = end
    return s


def test_self_time_on_a_synthetic_tree():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 2, 2.0, 3.0),
        span(4, 1, 5.0, 9.0),
        span(5, 4, 5.0, 6.0),
        span(6, 4, 8.0, 9.0),
    ]
    got = self_times(spans)
    assert got == {1: 3.0, 2: 2.0, 3: 1.0, 4: 2.0, 5: 1.0, 6: 1.0}
    # Self times add up to the root's wall time.
    assert sum(got.values()) == 10.0


def test_overlapping_children_are_counted_once():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 5.0), span(3, 1, 3.0, 7.0)]
    assert self_times(spans)[1] == 4.0


def test_child_clipped_to_parent():
    spans = [span(1, None, 2.0, 6.0), span(2, 1, 1.0, 3.0)]
    assert self_times(spans)[1] == 3.0


def test_recorder_nests_per_thread_and_skips_outside_ops():
    recorder = SpanRecorder()
    assert recorder.enter("free") is None
    root = recorder.begin_op(7)
    child = recorder.enter("child")
    grandchild = recorder.enter("grandchild")
    recorder.exit(grandchild)
    recorder.exit(child)
    seen = []
    thread = threading.Thread(target=lambda: seen.append(recorder.enter("other")))
    thread.start()
    thread.join(timeout=5)
    recorder.end_op(root)
    assert seen == [None]
    assert child.parent == root.id and grandchild.parent == child.id
    assert {s.trace for s in recorder.spans} == {7}


def test_wrap_counts_and_restores():
    module = types.ModuleType("fake")
    module.double = lambda x: 2 * x
    original = module.double
    recorder = SpanRecorder()
    tracer = Tracer(recorder)
    tracer.wrap(module, "double", "fake.double", lambda args, kwargs, out: {"calls": 1})
    assert module.double(3) == 6  # outside an op: passed through, not recorded
    assert recorder.spans == []
    root = recorder.begin_op(0)
    assert module.double(4) == 8
    recorder.end_op(root)
    tracer.restore()
    assert module.double is original
    (inner,) = [s for s in recorder.spans if s.name == "fake.double"]
    assert inner.parent == root.id and inner.counts == {"calls": 1}
