"""Tests for the parallel runner accelerators and the persistent cache.

Covers the cross-run realization of the paper's Section VI-A bitstream
cache (:class:`repro.core.cache.PersistentBitstreamCache`) and the
determinism contract of the parallel ASIP-SP prefetcher: ``jobs > 1`` and
a warm cache may change where wall-clock time goes, but never the
reported Table II numbers.
"""

from __future__ import annotations

import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.core.asip_sp import AsipSpecializationProcess
from repro.core.cache import PersistentBitstreamCache
from repro.fpga.device import VIRTEX4_FX20, VIRTEX4_FX100
from repro.fpga.toolflow import CadToolFlow
from repro.ise.selection import CandidateSearch
from repro.obs import (
    disable_metrics,
    disable_tracing,
    enable_metrics,
    enable_tracing,
)
from repro.obs.regress import compare_manifests


@pytest.fixture
def selected(fp_kernel_profile):
    """Selected candidate estimates of the FP kernel (non-empty)."""
    module, profile, _ = fp_kernel_profile
    result = CandidateSearch().run(module, profile)
    assert result.selected, "FP kernel should yield candidates"
    return result.selected


class TestPersistentCache:
    def test_round_trip_reattaches_candidate(self, tmp_path, selected):
        toolflow = CadToolFlow()
        est = selected[0]
        impl = toolflow.implement(est.candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        key = cache.key_for(est.candidate, toolflow.device)

        assert not cache.contains(key)
        assert cache.get(key) is None
        assert cache.misses == 1

        cache.put(key, impl)
        assert cache.contains(key)
        assert len(cache) == 1
        got = cache.get(key, est.candidate)
        assert got is not None and cache.hits == 1
        assert got.candidate is est.candidate
        assert got.entity_name == impl.entity_name
        assert got.times.total == impl.times.total
        assert got.bitstream.size_bytes == impl.bitstream.size_bytes

    def test_key_varies_with_device_and_timing_version(self, selected):
        cand = selected[0].candidate
        k100 = PersistentBitstreamCache.key_for(cand, VIRTEX4_FX100)
        k20 = PersistentBitstreamCache.key_for(cand, VIRTEX4_FX20)
        k_v2 = PersistentBitstreamCache.key_for(
            cand, VIRTEX4_FX100, timing_version=2
        )
        assert len({k100, k20, k_v2}) == 3

    def test_corrupted_index_is_ignored(self, tmp_path, selected):
        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        key = cache.key_for(selected[0].candidate, toolflow.device)
        cache.put(key, impl)

        cache.index_path.write_text("{ not json", encoding="utf-8")
        fresh = PersistentBitstreamCache(root=tmp_path / "bc")
        assert len(fresh) == 0
        assert fresh.get(key) is None and fresh.misses == 1
        # The store still works after the corruption.
        fresh.put(key, impl)
        assert fresh.contains(key)

    def test_corrupted_object_demotes_to_miss(self, tmp_path, selected):
        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        key = cache.key_for(selected[0].candidate, toolflow.device)
        cache.put(key, impl)

        cache._object_path(key).write_bytes(b"garbage")
        assert cache.get(key) is None
        assert cache.misses == 1
        # The broken entry was dropped so it is not retried forever.
        assert not cache.contains(key)

    def test_clear_empties_the_store(self, tmp_path, selected):
        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        key = cache.key_for(selected[0].candidate, toolflow.device)
        cache.put(key, impl)

        assert cache.clear() == 1
        assert len(cache) == 0
        assert cache.stats()["entries"] == 0
        assert not cache._object_path(key).exists()

    def test_eviction_keeps_newest(self, tmp_path, selected):
        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc", max_entries=1)
        cache.put("a" * 64, impl)
        cache.put("b" * 64, impl)
        assert cache.evictions == 1
        assert len(cache) == 1
        assert cache.contains("b" * 64) and not cache.contains("a" * 64)

    def test_two_writer_processes_keep_every_entry(self, tmp_path):
        """Two processes putting 40 entries each into one root keep 80."""
        script = tmp_path / "writer.py"
        script.write_text(_CACHE_WRITER, encoding="utf-8")
        src = Path(__file__).resolve().parents[1] / "src"
        procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(src), str(tmp_path), name],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for name in ("a", "b")
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
        assert len(PersistentBitstreamCache(root=tmp_path / "bc")) == 80


#: One cache writer: waits until both writers are ready, then puts 40
#: entries (argv: src dir, shared dir, writer name).
_CACHE_WRITER = """
import sys, time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, sys.argv[1])
from repro.core.cache import PersistentBitstreamCache

@dataclass
class Impl:
    candidate: object
    entity_name: str
    bitstream: object
    times: object

shared, name = Path(sys.argv[2]), sys.argv[3]
cache = PersistentBitstreamCache(root=shared / "bc")
(shared / f"ready.{name}").touch()
while len(list(shared.glob("ready.*"))) < 2:
    time.sleep(0.001)
for i in range(40):
    impl = Impl(None, f"e{i}", SimpleNamespace(size_bytes=1),
                SimpleNamespace(total=1.0))
    cache.put(f"{name}{i:02d}", impl)
"""


class TestAsipSpWithCacheAndJobs:
    def test_cold_then_warm_run_is_identical_with_fewer_cad_calls(
        self, fp_kernel_profile, tmp_path
    ):
        module, profile, _ = fp_kernel_profile
        root = tmp_path / "bc"
        registry = enable_metrics()
        try:
            cold_cache = PersistentBitstreamCache(root=root)
            r1 = AsipSpecializationProcess(bitstream_cache=cold_cache).run(
                module, profile
            )
            cold_cad = registry.snapshot()["counters"].get(
                "cad.implementations", 0
            )

            warm_cache = PersistentBitstreamCache(root=root)
            r2 = AsipSpecializationProcess(bitstream_cache=warm_cache).run(
                module, profile
            )
            warm_cad = (
                registry.snapshot()["counters"].get("cad.implementations", 0)
                - cold_cad
            )
        finally:
            disable_metrics()

        assert cold_cache.stores > 0 and warm_cache.hits > 0
        # A warm run does strictly less CAD work than a cold one ...
        assert cold_cad > 0 and warm_cad < cold_cad
        # ... and reports exactly the same Table II numbers.
        assert r2.candidate_count == r1.candidate_count
        assert r2.toolflow_seconds == r1.toolflow_seconds
        assert r2.reconfiguration_seconds == r1.reconfiguration_seconds
        assert [c.implementation.entity_name for c in r2.implementations] == [
            c.implementation.entity_name for c in r1.implementations
        ]
        assert any(c.from_cache for c in r2.implementations)
        assert not any(c.from_cache for c in r1.implementations)

    def test_parallel_jobs_matches_serial(self, fp_kernel_profile):
        module, profile, _ = fp_kernel_profile
        tracer = enable_tracing()
        try:
            serial = AsipSpecializationProcess().run(module, profile)
            serial_spans = Counter(s.name for s in tracer.spans())
            tracer.reset()
            parallel = AsipSpecializationProcess(jobs=2).run(module, profile)
            parallel_spans = Counter(s.name for s in tracer.spans())
        finally:
            disable_tracing()

        assert parallel.candidate_count == serial.candidate_count
        assert parallel.toolflow_seconds == serial.toolflow_seconds
        assert parallel.reconfiguration_seconds == serial.reconfiguration_seconds
        assert len(parallel.failed) == len(serial.failed)
        assert [
            c.implementation.entity_name for c in parallel.implementations
        ] == [c.implementation.entity_name for c in serial.implementations]
        # Span-count parity: the prefetcher must not duplicate or drop
        # CAD stage spans relative to the serial assembly loop.
        for name in set(serial_spans) | set(parallel_spans):
            if name.startswith(("cad.", "asip_sp.")):
                assert parallel_spans[name] == serial_spans[name], name


def _manifest(run_id, cad_virtual, cad_count, cache, ratio=2.0):
    """Minimal ledger manifest for regression-sentinel unit tests."""
    return {
        "run_id": run_id,
        "status": "ok",
        "wall_seconds": 1.0,
        "config": {"domain": "embedded", "jobs": 1},
        "stages": {
            "cad.map": {
                "label": "Map",
                "spans": 4,
                "real_seconds": 0.01,
                "virtual_seconds": cad_virtual,
            }
        },
        "metrics": {"counters": {"cad.implementations": cad_count}},
        "scalars": {"suite": {"asip_ratio": ratio}},
        "cache": cache,
    }


class TestRegressCacheDemotion:
    def test_cad_cells_gate_when_cache_state_matches(self):
        report = compare_manifests(
            _manifest("a", 100.0, 5, None),
            _manifest("b", 90.0, 4, None),
        )
        assert not report.ok
        assert {d.cell for d in report.regressions} == {
            "stages.cad.map.virtual_seconds",
            "metrics.counters.cad.implementations",
        }

    def test_cad_cells_demote_when_cache_hits_differ(self):
        warm = {"hits": 22, "misses": 0, "stores": 0, "entries": 21}
        report = compare_manifests(
            _manifest("a", 100.0, 5, None),
            _manifest("b", 90.0, 0, warm),
        )
        assert report.ok
        # The demotion is surfaced as a (non-fatal) config note.
        assert any("cache" in note for note in report.config_mismatches)

    def test_demotion_never_covers_result_cells(self):
        warm = {"hits": 22, "misses": 0, "stores": 0, "entries": 21}
        report = compare_manifests(
            _manifest("a", 100.0, 5, None, ratio=2.0),
            _manifest("b", 90.0, 0, warm, ratio=1.5),
        )
        assert not report.ok
        assert {d.cell for d in report.regressions} == {
            "scalars.suite.asip_ratio"
        }

    def test_cache_cells_are_informational(self):
        cold = {"hits": 1, "misses": 21, "stores": 21, "entries": 21}
        warm = {"hits": 22, "misses": 0, "stores": 0, "entries": 21}
        report = compare_manifests(
            _manifest("a", 100.0, 5, cold),
            _manifest("b", 100.0, 5, warm),
        )
        assert report.ok
        cache_cells = [
            d for d in report.deltas if d.cell.startswith("cache.")
        ]
        assert cache_cells and not any(d.checked for d in cache_cells)


class TestCacheCli:
    def test_stats_and_clear(self, tmp_path, capsys, selected):
        from repro.cli import main

        toolflow = CadToolFlow()
        impl = toolflow.implement(selected[0].candidate)
        cache = PersistentBitstreamCache(root=tmp_path / "bc")
        cache.put(cache.key_for(selected[0].candidate, toolflow.device), impl)

        assert main(["cache", "stats", "--dir", str(tmp_path / "bc")]) == 0
        out = capsys.readouterr().out
        assert "entries:   1" in out

        assert main(["cache", "clear", "--dir", str(tmp_path / "bc")]) == 0
        out = capsys.readouterr().out
        assert "cleared 1" in out

        assert main(["cache", "stats", "--dir", str(tmp_path / "bc")]) == 0
        out = capsys.readouterr().out
        assert "entries:   0" in out

    def test_parser_accepts_parallel_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["analyze", "--domain", "embedded", "--jobs", "4", "--cache"]
        )
        assert args.jobs == 4 and args.cache == ".repro-cache"
        args = build_parser().parse_args(
            ["tables", "1", "--jobs", "2", "--backend", "thread"]
        )
        assert args.jobs == 2 and args.backend == "thread"
        args = build_parser().parse_args(["bench", "--jobs", "3"])
        assert args.jobs == 3 and args.out == "BENCH_parallel.json"


class TestSuiteLedgerDeterminism:
    def test_jobs4_manifest_is_cell_identical_to_serial(
        self, tmp_path, capsys
    ):
        """The acceptance criterion, end to end: a ledger-recorded
        ``analyze --domain embedded --jobs 4`` run must pass the
        regression sentinel against a serial baseline run."""
        from repro.cli import main
        from repro.experiments.runner import clear_cache

        ledger = str(tmp_path / "runs")
        clear_cache()
        assert (
            main(["analyze", "--domain", "embedded", "--ledger", ledger]) == 0
        )
        clear_cache()
        assert (
            main(
                [
                    "analyze",
                    "--domain",
                    "embedded",
                    "--jobs",
                    "4",
                    "--ledger",
                    ledger,
                ]
            )
            == 0
        )
        capsys.readouterr()

        manifests = sorted((tmp_path / "runs").glob("*/manifest.json"))
        assert len(manifests) == 2
        baseline, current = (
            json.loads(p.read_text(encoding="utf-8")) for p in manifests
        )
        assert current["config"].get("jobs") == 4
        report = compare_manifests(baseline, current)
        assert report.ok, report.render()
        # `jobs` is a volatile config key: parallel vs. serial runs are
        # comparable baselines without warnings.
        assert not report.config_mismatches


def test_docs_lint_passes():
    """The committed tree satisfies its own documentation lint."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "docs_lint.py"
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_docs_lint_resolves_vm_doc_symbols():
    """Check 5 flags code symbols the VM guide names but the tree lacks."""
    import importlib.util

    script = Path(__file__).resolve().parent.parent / "scripts" / "docs_lint.py"
    spec = importlib.util.spec_from_file_location("docs_lint", script)
    lint = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(lint)
    modules = lint.repro_modules()
    resolves = {
        name: lint.symbol_resolves(name, modules)
        for name in (
            "_compile_block",
            "_compiled",
            "Interpreter._call",
            "CompiledApp.fusion_plan()",
            "vm.fusion.FusionPlan",
            "repro.vm",
            "repro.vm.Interpreter",
            "repro.vm.Interpreter._call",
            "obs.vmprof.FUSION_EXCLUDED",
            "repro.vm.Interpreter._call_fused",
            "_call_fused",
            "Interpreter._call_sampled",
            "vm.fusion.NoSuchPlan",
            "vm.nosuch",
            "BENCH_vm.json",
            "self.x",
            "sampler.tick",
        )
    }
    assert resolves == {
        "_compile_block": True,
        "_compiled": True,
        "Interpreter._call": True,
        "CompiledApp.fusion_plan()": True,
        "vm.fusion.FusionPlan": True,
        "repro.vm": True,
        "repro.vm.Interpreter": True,
        "repro.vm.Interpreter._call": True,
        "obs.vmprof.FUSION_EXCLUDED": True,
        "repro.vm.Interpreter._call_fused": False,
        "_call_fused": False,
        "Interpreter._call_sampled": False,
        "vm.fusion.NoSuchPlan": False,
        "vm.nosuch": False,
        "BENCH_vm.json": None,
        "self.x": None,
        "sampler.tick": None,
    }
