"""Tests of the benchmark's own machinery, on tiny inputs.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import random

from perfbench import golden as gold
from perfbench.loadgen import RequestMix, poisson_schedule
from perfbench.spans import Span, SpanRecorder, self_times
from perfbench.stats import percentile, tail_percentile


def test_tail_rule_keeps_ten_samples_beyond():
    assert tail_percentile(100) == 90.0
    assert tail_percentile(199) == 90.0
    assert tail_percentile(200) == 95.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10_000) == 99.9
    assert tail_percentile(40) == 75.0
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None


def test_percentile_interpolates():
    assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
    assert percentile(range(101), 90) == 90.0
    assert percentile([], 90) == 0.0


def test_self_time_subtracts_covered_child_intervals():
    spans = [
        Span("root", "core", 0.0, 10.0),
        Span("a", "fpga", 1.0, 4.0, parent=0),
        Span("b", "fpga", 3.0, 6.0, parent=0),  # overlaps a: union 1..6
        Span("leaf", "vm", 2.0, 3.0, parent=1),
        Span("other-root", "vm", 20.0, 21.5),
    ]
    assert self_times(spans) == [5.0, 2.0, 3.0, 1.0, 1.5]


def test_recorder_nests_spans_and_restores_patches():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 41

    recorder = SpanRecorder()
    recorder.tag = "app"
    recorder.patch(Layer, "outer", "l.outer", "l", counts=lambda r, a, k: {"value": r})
    recorder.patch(Layer, "inner", "l.inner", "l")
    assert Layer().outer() == 42
    recorder.unpatch()
    assert Layer.__dict__["outer"].__name__ == "outer"
    assert Layer().outer() == 42 and len(recorder.spans) == 2  # no new spans
    outer, inner = recorder.spans
    assert (outer.parent, inner.parent) == (None, 0)
    assert inner.tag == "app" and outer.counts == {"value": 42}
    assert outer.start <= inner.start <= inner.end <= outer.end


def _schedule(seed: int):
    mix = RequestMix(random.Random(seed), {"fft": 3, "adpcm": 2}, ["t0", "t1"])
    return mix, poisson_schedule(mix, 50.0, 4 * mix.block_size, "p")


def test_seeded_schedule_is_identical_across_calls():
    _, first = _schedule(7)
    _, again = _schedule(7)
    _, other = _schedule(8)
    assert first == again
    assert first != other


def test_schedule_has_exact_mix_rate_and_length():
    mix, plan = _schedule(3)
    assert mix.block_size == 10
    apps = [r.app for r in plan]
    assert apps.count("fft") == 24 and apps.count("adpcm") == 16
    assert sum(r.tenant == "t0" for r in plan) == 20
    dues = [r.due for r in plan]
    assert dues == sorted(dues)
    assert 0.0 <= dues[0] and dues[-1] <= len(plan) / 50.0


def _record():
    return {
        "datasets": {"train": {"output": "ab", "steps": 100, "blocks": "cd"}},
        "selected": ["main/entry/0"],
        "candidates": [{"key": "main/entry/0", "checksum": "ff", "wirelength": 12.0,
                        "stage_seconds": [1.5, 2.0]}],
        "toolflow_seconds": 3.5,
        "breakeven": {"live_aware_seconds": 1000.0, "simple_seconds": None},
    }


def test_golden_check_catches_a_perturbed_result():
    golden = {"apps": {"fft": _record()}}
    assert gold.compare(golden["apps"]["fft"], _record(), "fft") == []

    perturbed = _record()
    perturbed["datasets"]["train"]["steps"] = 101
    perturbed["candidates"][0]["stage_seconds"][1] = 2.0000001
    failures, drift = gold.split_drift(gold.compare(golden["apps"]["fft"], perturbed, "fft"))
    assert failures == [
        "fft.candidates[0].stage_seconds[1]: 2.0000001 != golden 2.0",
        "fft.datasets.train.steps: 101 != golden 100",
    ]
    assert drift == []


def test_breakeven_tolerance_and_drift_fields():
    near = _record()
    near["breakeven"]["live_aware_seconds"] = 1000.05  # rel 5e-5
    assert gold.compare(_record(), near) == []
    far = _record()
    far["breakeven"]["live_aware_seconds"] = 1000.2  # rel 2e-4
    far["candidates"][0]["wirelength"] = 13.0
    failures, drift = gold.split_drift(gold.compare(_record(), far))
    assert len(failures) == 1 and failures[0].startswith("breakeven.live_aware_seconds")
    assert drift == ["candidates[0].wirelength: 13.0 != golden 12.0"]


def test_committed_golden_covers_every_workload():
    from perfbench.workloads import EMBEDDED_APPS, SCIENTIFIC_APPS, SERVE_MIX, SERVE_TENANTS

    data = gold.load()
    assert set(data["apps"]) >= set(EMBEDDED_APPS + SCIENTIFIC_APPS)
    assert set(data["serve"]) == {f"{t}/{a}" for t in SERVE_TENANTS for a in SERVE_MIX}
    for reply in data["serve"].values():
        assert reply["status"] == "ok" and reply["cache_hits"] <= reply["candidates"]
