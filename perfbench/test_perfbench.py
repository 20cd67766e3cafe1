"""Self-tests of the benchmark's own arithmetic and input generation.

    python3 -m pytest perfbench -q
"""

import filecmp
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, covered_length, percentile, samples_beyond, self_times  # noqa: E402


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))  # 1..100, unsorted
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile(values, 100) == 100
    assert percentile([7.5], 90) == 7.5
    with pytest.raises(ValueError):
        percentile([], 50)


def test_tail_needs_a_hundred_samples_for_ten_beyond_p90():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(250, 90) == 25
    assert samples_beyond(12, 90) == 1
    assert samples_beyond(1, 90) == 0


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 4)], 0, 10) == 3
    assert covered_length([(8, 12)], 0, 10) == 2
    assert covered_length([(-5, -1), (3, 3)], 0, 10) == 0
    assert covered_length([], 0, 10) == 0
    assert covered_length([(0, 2), (5, 6), (1, 3)], 0, 10) == 4


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(0, -1, 1, "step", 0.0, 10.0),
        Span(1, 0, 1, "encode", 1.0, 4.0),
        Span(2, 1, 1, "heads", 2.0, 3.0),  # grandchild: counts against encode only
        Span(3, 0, 1, "encode", 5.0, 7.0),
        Span(4, -1, 2, "step", 10.0, 12.0),
    ]
    st = self_times(spans)
    assert st["step"] == pytest.approx((10 - 3 - 2) + 2)
    assert st["encode"] == pytest.approx((3 - 1) + 2)
    assert st["heads"] == pytest.approx(1)
    assert sum(st.values()) == pytest.approx(12)  # self times partition the top-level spans


def test_tracer_records_parents_ops_and_counts():
    tracer = Tracer()
    inner = tracer.wrap(lambda x: x + 1, "inner")
    outer = tracer.wrap(lambda x: inner(x) * 2, "outer")
    counted = tracer.count_calls(lambda: None, "tiny.calls")
    tracer.new_op()
    assert outer(1) == 4
    counted()
    counted()
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["inner"].parent == by_name["outer"].span_id
    assert by_name["outer"].parent == -1
    assert {s.op_id for s in tracer.spans} == {1}
    assert tracer.counts["tiny.calls"] == 2
    assert tracer.span_calls() == {"inner": 1, "outer": 1}


def test_failed_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "boom")()
    assert [s.name for s in tracer.spans] == ["boom"]
    assert tracer.wrap(lambda: 3, "after")() == 3
    assert tracer.spans[-1].parent == -1


def _host_speed(samples):
    """A HostSpeed holding the given (start, duration) samples."""
    hs = speed.HostSpeed()
    hs.starts = [t for t, _ in samples]
    hs.ends = [t + d for t, d in samples]
    return hs


def test_scaled_time_removes_kernel_time_and_scales_by_local_speed():
    ref = speed.REFERENCE_S
    # three samples inside [0, 1], each twice the reference time: the host runs at half speed
    hs = _host_speed([(0.1, 2 * ref), (0.5, 2 * ref), (0.9, 2 * ref), (5.0, 8 * ref)])
    assert hs.reference_s(0.0, 1.0) == pytest.approx(2 * ref)
    assert hs.scaled(0.0, 1.0) == pytest.approx((1.0 - 6 * ref) / 2)
    # the median ignores one slow sample among the samples inside
    hs = _host_speed([(0.1, ref), (0.4, ref), (0.6, 9 * ref), (0.9, ref)])
    assert hs.scaled(0.0, 1.0) == pytest.approx(1.0 - 12 * ref)
    assert hs.relative() == pytest.approx(1.0)


def test_short_interval_uses_the_nearest_samples():
    ref = speed.REFERENCE_S
    hs = _host_speed([(0.0, ref), (1.0, 4 * ref), (1.1, 4 * ref), (1.3, 4 * ref), (9.0, ref)])
    # no sample inside [1.15, 1.2]: the three nearest its midpoint run at quarter speed
    assert hs.reference_s(1.15, 1.2) == pytest.approx(4 * ref)
    assert hs.scaled(1.15, 1.2) == pytest.approx(0.05 / 4)


def test_sampling_runs_on_a_timer_and_restores_the_signal_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    with speed.HostSpeed(interval_s=0.01) as hs:
        t = speed.perf_counter()
        while speed.perf_counter() - t < 0.2:
            sum(range(1000))
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(hs.starts) > 2 * speed.NEAREST  # samples at entry, exit and on the timer
    assert hs.starts == sorted(hs.starts)
    assert all(e > s for s, e in zip(hs.starts, hs.ends))


def test_a_tick_inside_a_sample_is_dropped():
    hs = _host_speed([(0.0, 0.001)])
    hs.starts.append(1.0)  # a sample that has started and not ended
    hs._tick(None, None)
    assert hs.starts == [0.0, 1.0] and len(hs.ends) == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generation_is_deterministic_for_a_seed(tmp_path, name):
    w = workloads.WORKLOADS[name]
    runs = []
    for tag, seed in (("a", 3), ("b", 3), ("c", 4)):
        d = tmp_path / tag
        d.mkdir()
        runs.append(workloads.generate_inputs(w, seed, str(d)))
    a, b, c = runs
    assert len(a.corpus) == (w.shards if isinstance(w, workloads.PrepWorkload) else 1)
    files = [*zip(a.corpus, b.corpus), (a.vocab, b.vocab)]
    if a.heldout:
        files.append((a.heldout, b.heldout))
    for f, g in files:
        assert filecmp.cmp(f, g, shallow=False), f
    assert not filecmp.cmp(a.corpus[0], c.corpus[0], shallow=False)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def test_command_line_offers_every_workload():
    import run  # sets the BLAS thread variables, which the tests do not depend on

    assert sorted(run.WORKLOAD_NAMES) == sorted(workloads.WORKLOADS)
