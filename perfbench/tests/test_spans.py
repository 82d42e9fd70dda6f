"""Self-time arithmetic for nested spans."""

import threading

import pytest

from perfbench.spans import Span, SpanRecorder, attribute, covered, \
    self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_nested_self_times_add_up_to_the_root():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with recorder.request("search"):
        clock.advance(1.0)                     # root's own time
        with recorder.span("index.search"):
            clock.advance(2.0)
        with recorder.span("core.match_and_score"):
            clock.advance(0.5)                 # glue
            with recorder.span("matching.name"):
                clock.advance(3.0)
            with recorder.span("matching.context"):
                clock.advance(1.5)
            clock.advance(0.25)                # tightness
    by_name = {s.name: s for s in recorder.spans}
    own = self_times(recorder.spans)
    assert own[by_name["search"].span_id] == pytest.approx(1.0)
    assert own[by_name["index.search"].span_id] == pytest.approx(2.0)
    assert own[by_name["core.match_and_score"].span_id] == \
        pytest.approx(0.75)
    assert own[by_name["matching.name"].span_id] == pytest.approx(3.0)
    assert sum(own.values()) == pytest.approx(by_name["search"].duration)

    attribution = attribute(recorder.spans, "search")
    assert attribution.requests == 1
    assert attribution.total == pytest.approx(8.25)
    assert attribution.self_seconds["search"] == pytest.approx(1.0)
    assert attribution.per_request_ms("matching.context") == \
        pytest.approx(1500.0)
    shares = sum(attribution.share(name)
                 for name in attribution.self_seconds)
    assert shares == pytest.approx(1.0)


def test_parent_and_request_ids_link_one_request():
    recorder = SpanRecorder()
    with recorder.request("search") as first:
        with recorder.span("a"):
            with recorder.span("b"):
                pass
    with recorder.request("search") as second:
        pass
    assert first != second
    spans = {s.name: s for s in recorder.spans if s.request_id == first}
    assert spans["b"].parent_id == spans["a"].span_id
    assert spans["a"].parent_id == spans["search"].span_id
    assert spans["search"].parent_id is None


def test_wrapped_calls_record_only_inside_a_request():
    recorder = SpanRecorder()
    double = recorder.wrap("layer", lambda x: 2 * x)
    assert double(2) == 4
    assert recorder.spans == []
    with recorder.request("search"):
        assert double(3) == 6
    assert [s.name for s in recorder.spans] == ["layer", "search"]


def test_span_outside_a_request_records_nothing():
    recorder = SpanRecorder()
    with recorder.span("orphan"):
        pass
    assert recorder.spans == []


def test_requests_do_not_nest():
    recorder = SpanRecorder()
    with recorder.request("search"):
        with pytest.raises(RuntimeError):
            recorder.request("search")


def test_threads_keep_separate_stacks():
    recorder = SpanRecorder()
    barrier = threading.Barrier(2)

    def work(name):
        with recorder.request(name):
            barrier.wait(timeout=10)
            with recorder.span(f"{name}.child"):
                barrier.wait(timeout=10)

    threads = [threading.Thread(target=work, args=(n,))
               for n in ("reader", "writer")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    roots = {s.name: s for s in recorder.spans if s.parent_id is None}
    for name in ("reader", "writer"):
        child = next(s for s in recorder.spans
                     if s.name == f"{name}.child")
        assert child.parent_id == roots[name].span_id
        assert child.request_id == roots[name].request_id


def test_covered_merges_overlaps_and_clips():
    assert covered((0.0, 10.0), []) == 0.0
    assert covered((0.0, 10.0), [(1.0, 3.0), (2.0, 4.0)]) == 3.0
    assert covered((0.0, 10.0), [(-5.0, 1.0), (9.0, 20.0)]) == 2.0
    assert covered((0.0, 10.0), [(4.0, 5.0), (1.0, 2.0)]) == 2.0
    assert covered((0.0, 10.0), [(11.0, 12.0)]) == 0.0


def test_overlapping_children_are_not_double_counted():
    spans = [Span(1, None, 1, "root", 0.0, 10.0),
             Span(2, 1, 1, "a", 1.0, 5.0),
             Span(3, 1, 1, "b", 4.0, 6.0)]
    assert self_times(spans)[1] == pytest.approx(5.0)
