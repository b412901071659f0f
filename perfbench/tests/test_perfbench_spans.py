"""Self-time arithmetic and span recording of the benchmark's tracer."""
import types

import pytest

from spans import ROOT_NAME, Span, Tracer, covered_length, self_times


def sp(name, start, end, parent=None, op=0):
    return Span(name, start, end, parent, op)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1.0, 3.0), (2.0, 5.0)], 0.0, 10.0) == 4.0
    assert covered_length([(1.0, 2.0), (4.0, 6.0)], 0.0, 10.0) == 3.0
    # Clipped to the parent interval; an interval outside it counts nothing.
    assert covered_length([(-2.0, 1.0), (9.0, 12.0), (20.0, 30.0)], 0.0, 10.0) == 2.0
    # Nested and duplicate intervals count once.
    assert covered_length([(2.0, 8.0), (3.0, 4.0), (2.0, 8.0)], 0.0, 10.0) == 6.0


def test_self_time_of_nested_spans():
    spans = [
        sp("op", 0.0, 10.0),
        sp("a.f", 1.0, 6.0, parent=0),
        sp("b.g", 2.0, 3.0, parent=1),
        sp("b.g", 4.0, 5.5, parent=1),
        sp("c.h", 7.0, 9.0, parent=0),
    ]
    st = self_times(spans)
    assert st == pytest.approx([3.0, 2.5, 1.0, 1.5, 2.0])
    # Self times partition the root interval.
    assert sum(st) == pytest.approx(spans[0].duration)


def test_self_time_with_overlapping_children():
    spans = [
        sp("op", 0.0, 10.0),
        sp("a.f", 1.0, 5.0, parent=0),
        sp("a.g", 3.0, 7.0, parent=0),   # overlaps its sibling
        sp("a.h", 8.0, 12.0, parent=0),  # runs past its parent's end
    ]
    st = self_times(spans)
    assert st[0] == pytest.approx(10.0 - 6.0 - 2.0)
    assert st[1:] == pytest.approx([4.0, 4.0, 4.0])


def test_tracer_records_parents_attrs_and_restores():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1

    def outer(x):
        return mod.inner(x) * 2

    def make_stage(k):
        return lambda x: x * k

    mod.outer = outer
    mod.make_stage = make_stage
    originals = (mod.inner, mod.outer, mod.make_stage)
    tracer = Tracer(
        [(mod, "inner", "m.inner", lambda r: {"r": r}), (mod, "outer", "m.outer", None)],
        [(mod, "make_stage", "m.stage", None)],
    )
    with tracer:
        assert tracer.operation(7, lambda: mod.outer(1) + mod.make_stage(3)(2)) == 10
        with pytest.raises(RuntimeError):
            tracer.install()
    assert (mod.inner, mod.outer, mod.make_stage) == originals
    names = [s.name for s in tracer.spans]
    assert names == [ROOT_NAME, "m.outer", "m.inner", "m.stage"]
    root, out, inn, stage = tracer.spans
    assert (root.parent, out.parent, inn.parent, stage.parent) == (None, 0, 1, 0)
    assert {s.op for s in tracer.spans} == {7}
    assert inn.attrs == {"r": 2}
    assert all(s.end >= s.start for s in tracer.spans)
    assert sum(self_times(tracer.spans)) == pytest.approx(root.duration)


def test_span_closes_when_the_call_raises():
    mod = types.SimpleNamespace(f=lambda: 1 / 0)
    tracer = Tracer([(mod, "f", "m.f", None)])
    with tracer, pytest.raises(ZeroDivisionError):
        tracer.operation(0, mod.f)
    assert [s.name for s in tracer.spans] == [ROOT_NAME, "m.f"]
    assert all(s.end >= s.start > 0 for s in tracer.spans)
