"""Tests for the run ledger, regression sentinel, and event log."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs.ledger import (
    RunLedger,
    fold_stages,
    render_manifest,
    render_run_list,
)
from repro.obs.log import EventLog, read_log, render_tail
from repro.obs import regress
from repro.obs.regress import (
    EXACT,
    MEASURED,
    MODELLED,
    CellDelta,
    cell_kind,
    compare_manifests,
    flatten_cells,
    median_mad,
    parse_tolerances,
    resolve_tolerance,
)
from repro.obs.tracer import Tracer


def _manifest(run_id="r0001-test", **overrides) -> dict:
    base = {
        "schema": "repro-run/1",
        "run_id": run_id,
        "timestamp": "2026-08-06T12:00:00+0000",
        "command": "analyze",
        "argv": ["analyze", "sor"],
        "config": {"app": "sor", "command": "analyze"},
        "git_rev": "deadbeef",
        "environment": {"python": "3.12.0"},
        "status": 0,
        "wall_seconds": 3.5,
        "stages": {
            "cad.par": {
                "label": "PAR",
                "spans": 3,
                "real_seconds": 1.25,
                "virtual_seconds": 1336.9,
            },
            "search": {
                "label": None,
                "spans": 1,
                "real_seconds": 0.02,
                "virtual_seconds": 0.02,
            },
        },
        "metrics": {"counters": {"icap.reconfigurations": 3}},
        "scalars": {
            "per_app": {
                "sor": {
                    "candidates": 3,
                    "asip_pruned_ratio": 2.35,
                    "toolflow_seconds": 2625.8,
                    "break_even_seconds": 1940.7,
                }
            },
            "aggregate": {"apps": 1, "candidates_total": 3},
        },
        "fidelity": None,
        "artifacts": {},
    }
    base.update(overrides)
    return base


class TestRunLedger:
    def test_reserve_load_and_order(self, tmp_path):
        ledger = RunLedger(tmp_path / "runs")
        first = ledger.reserve_run("analyze")
        second = ledger.reserve_run("fidelity check")
        assert first.startswith("r0001-analyze-")
        assert second.startswith("r0002-fidelity-check-")
        # Only finished runs (with a manifest) are listed.
        assert ledger.run_ids() == []
        for run_id in (first, second):
            with open(ledger.run_dir(run_id) / "manifest.json", "w") as fh:
                json.dump(_manifest(run_id), fh)
        assert ledger.run_ids() == [first, second]
        assert ledger.load(first)["run_id"] == first

    def test_resolve_specs(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ids = []
        for _ in range(3):
            run_id = ledger.reserve_run("analyze")
            with open(ledger.run_dir(run_id) / "manifest.json", "w") as fh:
                json.dump(_manifest(run_id), fh)
            ids.append(run_id)
        assert ledger.resolve("latest") == ids[-1]
        assert ledger.resolve("latest~1") == ids[-2]
        assert ledger.resolve("latest~2") == ids[0]
        assert ledger.resolve(ids[1]) == ids[1]
        assert ledger.resolve("r0002") == ids[1]  # unique prefix
        with pytest.raises(LookupError, match="out of range"):
            ledger.resolve("latest~3")
        with pytest.raises(LookupError, match="ambiguous"):
            ledger.resolve("r000")
        with pytest.raises(LookupError, match="unknown run"):
            ledger.resolve("r9999")

    def test_resolve_empty_ledger_mentions_recording(self, tmp_path):
        with pytest.raises(LookupError, match="--ledger"):
            RunLedger(tmp_path / "missing").resolve("latest")

    def test_recorder_writes_manifest_schema(self, tmp_path):
        tracer = Tracer()
        with tracer.span("cad.par") as sp:
            sp.set_attr("virtual_seconds", 100.0)
        recorder = obs.start_run(
            tmp_path, command="analyze", config={"app": "sor"}, argv=["analyze"]
        )
        assert obs.current_run() is recorder
        recorder.attach_scalars({"per_app": {}, "aggregate": {"apps": 0}})
        manifest_path = obs.finish_run(tracer=tracer, status=0)
        assert obs.current_run() is None
        manifest = json.loads(manifest_path.read_text())
        assert manifest["schema"] == "repro-run/1"
        for key in (
            "run_id", "timestamp", "command", "argv", "config", "git_rev",
            "environment", "status", "wall_seconds", "stages", "metrics",
            "scalars", "fidelity", "artifacts",
        ):
            assert key in manifest
        assert manifest["stages"]["cad.par"]["virtual_seconds"] == 100.0
        assert manifest["artifacts"]["trace"] == "trace.jsonl"
        assert (recorder.run_dir / "trace.jsonl").is_file()

    def test_start_run_refuses_nested_runs(self, tmp_path):
        obs.start_run(tmp_path, command="analyze")
        try:
            with pytest.raises(RuntimeError, match="already active"):
                obs.start_run(tmp_path, command="analyze")
        finally:
            obs.abandon_run()

    def test_fold_stages_sums_both_clocks(self):
        tracer = Tracer()
        for seconds in (10.0, 20.0):
            with tracer.span("cad.map") as sp:
                sp.set_attr("virtual_seconds", seconds)
        with tracer.span("analysis.run"):
            pass
        stages = fold_stages(obs.tracer_records(tracer))
        assert stages["cad.map"]["spans"] == 2
        assert stages["cad.map"]["virtual_seconds"] == pytest.approx(30.0)
        assert stages["cad.map"]["label"] == "Map"
        assert stages["analysis.run"]["virtual_seconds"] is None

    def test_renderings_contain_key_cells(self):
        manifest = _manifest()
        listing = render_run_list([manifest])
        assert "r0001-test" in listing and "analyze" in listing
        shown = render_manifest(manifest)
        assert "cad.par" in shown and "PAR" in shown
        assert "sor" in shown and "2.35" in shown

    def test_attach_block_merges_and_persists(self, tmp_path):
        ledger = RunLedger(tmp_path)
        run_id = ledger.reserve_run("analyze")
        with open(ledger.run_dir(run_id) / "manifest.json", "w") as fh:
            json.dump(_manifest(run_id), fh)
        ledger.attach_block(run_id, "whatif", {"grid": {"cells": {"h0.s0": 1.0}}})
        ledger.attach_block(run_id, "whatif", {"scenario": {"break_even_mean": 2.0}})
        manifest = ledger.load(run_id)
        # Merge keeps the grid recorded before the scenario.
        assert manifest["whatif"]["grid"]["cells"]["h0.s0"] == 1.0
        assert manifest["whatif"]["scenario"]["break_even_mean"] == 2.0
        assert not list(tmp_path.glob("**/*.tmp"))

    def _finished_runs(self, ledger, count):
        ids = []
        for _ in range(count):
            run_id = ledger.reserve_run("analyze")
            with open(ledger.run_dir(run_id) / "manifest.json", "w") as fh:
                json.dump(_manifest(run_id), fh)
            ids.append(run_id)
        return ids

    def test_prune_keeps_newest_runs(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ids = self._finished_runs(ledger, 4)
        assert obs.prune_runs(ledger, keep=2) == ids[:2]
        assert ledger.run_ids() == ids[2:]
        assert not (ledger.run_dir(ids[0])).exists()
        # Pruning below the count is a no-op.
        assert ledger.prune(keep=5) == []

    def test_prune_accepts_a_path(self, tmp_path):
        ledger = RunLedger(tmp_path)
        ids = self._finished_runs(ledger, 2)
        assert obs.prune_runs(tmp_path, keep=1) == ids[:1]

    def test_prune_rejects_negative_keep(self, tmp_path):
        with pytest.raises(ValueError, match="keep"):
            RunLedger(tmp_path).prune(keep=-1)

    def test_prune_refuses_the_active_run(self, tmp_path):
        ledger = RunLedger(tmp_path)
        recorder = obs.start_run(tmp_path, command="analyze")
        try:
            # Give the active run a manifest so it is enumerated at all.
            with open(recorder.run_dir / "manifest.json", "w") as fh:
                json.dump(_manifest(recorder.run_id), fh)
            assert ledger.prune(keep=0) == []
            assert recorder.run_dir.exists()
        finally:
            obs.abandon_run()


#: Representative cells of every manifest block and the kind each has.
_CELL_KINDS = [
    ("status", EXACT),
    ("wall_seconds", MEASURED),
    ("stages.cad.par.virtual_seconds", EXACT),
    ("stages.cad.par.spans", EXACT),
    ("stages.cad.par.real_seconds", MEASURED),
    ("stages.search.virtual_seconds", MEASURED),
    ("stages.pipeline.compile.spans", MEASURED),
    ("stages.store.dedup.wait.spans", MEASURED),
    ("scalars.per_app.sor.candidates", EXACT),
    ("scalars.per_app.sor.break_even_seconds", MODELLED),
    ("scalars.aggregate.break_even_seconds_mean", MODELLED),
    ("scalars.per_app.sor.search_ms", MEASURED),
    ("fidelity.failed", EXACT),
    ("fidelity.I/II/AVG-E/asip_pruned_ratio.actual", EXACT),
    ("fidelity.I/II/AVG-E/search_ms.actual", MEASURED),
    ("fidelity.struct/adpcm/search [s].passed", MEASURED),
    ("fidelity.I/II/AVG-E/break_even_s.actual", MODELLED),
    ("cache.hits", MEASURED),
    ("serve.requests.completed", EXACT),
    ("serve.phases.cold.requests.failed", EXACT),
    ("serve.phases.cold.unresolved", EXACT),
    ("serve.warm_p95_lower", EXACT),
    ("serve.requests.total", MEASURED),
    ("serve.requests.rejected", MEASURED),
    ("serve.latency.break_even.p95", MEASURED),
    ("serve.dedup.saved", MEASURED),
    ("serve.phases.cold.retries", MEASURED),
    ("serve.comparison.break_even_p95_cold", MEASURED),
    ("metrics.counters.icap.reconfigurations", EXACT),
    ("metrics.counters.cad.implementations", EXACT),
    ("metrics.counters.cache.hits", MEASURED),
    ("metrics.counters.serve.requests.completed", MEASURED),
    ("metrics.counters.slots.evictions.breakeven", MEASURED),
    ("metrics.counters.store.cross_app_hits", MEASURED),
    ("critpath.virtual.makespan", MODELLED),
    ("critpath.virtual.stages.bitgen.nodes", MODELLED),
    ("critpath.virtual.stages.search.total", MEASURED),
    ("critpath.real.makespan", MEASURED),
    ("critpath.headroom.stages.bitgen.break_even.x2", MODELLED),
    ("critpath.table3.bitgen_share", MODELLED),
    ("whatif.grid.cells.h0.s0", MODELLED),
    ("whatif.scenario.apps.sor.break_even", MODELLED),
    ("whatif.check.flagged", MEASURED),
    ("whatif.mix.cells.uniform.lru.c04.fleet_break_even_seconds", EXACT),
    ("slo.break_even_p95.budget_remaining_pct", MEASURED),
    ("vm.steps", EXACT),
    ("vm.virtual_cycles", EXACT),
    ("vm.fusion.fused_instructions", EXACT),
    ("vm.fusion.dispatches_removed", EXACT),
    ("vm.fusion.virtual_identical", EXACT),
    ("vm.wall_seconds", MEASURED),
    ("vm.instructions_per_second", MEASURED),
    ("vm.dispatch.store_ns", MEASURED),
    ("vm.superinsn.load+gep+load.saved_ms", MEASURED),
    ("vm.sampled.samples", MEASURED),
    ("vm.fused.speedup", MEASURED),
    ("mix.cells.uniform.lru.c04.fleet_break_even_seconds", EXACT),
    ("mix.cells.uniform.lru.c04.slot_loads", EXACT),
    ("mix.wall_seconds", MEASURED),
]


class TestCellKinds:
    @pytest.mark.parametrize("cell,kind", _CELL_KINDS)
    def test_cell_kind(self, cell, kind):
        assert cell_kind(cell) == kind
        assert resolve_tolerance(cell, []) == regress.KIND_TOLERANCES[kind]

    def test_every_block_is_listed(self):
        blocks = {cell.split(".")[0] for cell, _ in _CELL_KINDS}
        assert blocks == set(regress.CELL_KINDS)

    def test_declaration_order_does_not_matter(self, monkeypatch):
        reversed_table = {
            block: (default, dict(reversed(list(keys.items()))))
            for block, (default, keys) in reversed(
                list(regress.CELL_KINDS.items())
            )
        }
        monkeypatch.setattr(regress, "CELL_KINDS", reversed_table)
        for cell, kind in _CELL_KINDS:
            assert cell_kind(cell) == kind, cell


class TestRegressionSentinel:
    def test_parse_tolerances(self):
        parsed = parse_tolerances(["stages.*=0.5", "wall_seconds=info"])
        assert parsed == [("stages.*", 0.5), ("wall_seconds", None)]
        for bad in ("no-equals", "=0.5", "x=abc", "x=-1"):
            with pytest.raises(ValueError):
                parse_tolerances([bad])

    def test_resolve_tolerance_first_match_wins(self):
        tols = [("stages.*", 0.5), ("*", 1e-9)]
        assert resolve_tolerance("stages.cad.par.spans", tols) == 0.5
        assert resolve_tolerance("wall_seconds", tols) == 1e-9

    def test_flatten_cells(self):
        cells = flatten_cells(_manifest())
        assert cells["wall_seconds"] == 3.5
        assert cells["stages.cad.par.virtual_seconds"] == 1336.9
        assert cells["scalars.per_app.sor.candidates"] == 3.0
        assert cells["metrics.counters.icap.reconfigurations"] == 3.0

    def test_median_mad(self):
        median, mad = median_mad([1.0, 2.0, 100.0])
        assert median == 2.0 and mad == 1.0
        median, mad = median_mad([4.0])
        assert median == 4.0 and mad == 0.0

    def test_identical_manifests_pass(self):
        report = compare_manifests(_manifest(), _manifest(run_id="r0002-test"))
        assert report.ok
        assert report.checked  # deterministic cells were actually gated

    def test_changed_deterministic_cell_fails_by_name(self):
        current = _manifest(run_id="r0002-test")
        current["scalars"]["per_app"]["sor"]["candidates"] = 2
        report = compare_manifests(_manifest(), current)
        assert not report.ok
        assert [d.cell for d in report.regressions] == [
            "scalars.per_app.sor.candidates"
        ]
        assert "candidates" in report.regressions[0].describe()

    def test_noisy_cells_are_informational_by_default(self):
        current = _manifest(run_id="r0002-test", wall_seconds=9.9)
        current["stages"]["search"]["real_seconds"] = 0.5
        current["stages"]["search"]["virtual_seconds"] = 0.5
        report = compare_manifests(_manifest(), current)
        assert report.ok
        # ... until an explicit tolerance tightens them into checked cells.
        report = compare_manifests(
            _manifest(), current, tolerances=[("wall_seconds", 0.01)]
        )
        assert [d.cell for d in report.regressions] == ["wall_seconds"]

    def test_disappeared_checked_cell_regresses(self):
        current = _manifest(run_id="r0002-test")
        del current["stages"]["cad.par"]
        report = compare_manifests(_manifest(), current)
        assert not report.ok
        assert any("disappeared" in d.describe() for d in report.regressions)

    def test_config_mismatch_is_reported(self):
        current = _manifest(run_id="r0002-test")
        current["config"] = {"app": "fft", "command": "analyze"}
        report = compare_manifests(_manifest(), current)
        assert any("config.app" in w for w in report.config_mismatches)

    def _critpath_block(self, makespan=76.0):
        return {
            "virtual": {
                "makespan": makespan,
                "serial_seconds": 111.0,
                "dominant_stage": "bitgen",
                "dominant_share": 0.53,
                "stages": {"bitgen": {"total": 60.0, "nodes": 2,
                                      "slack_min": 0.0, "on_path": 1}},
            },
            "real": {"makespan": 1.0, "serial_seconds": 2.0,
                     "dominant_stage": "search", "stages": {}},
        }

    def test_critpath_cells_flatten_and_gate(self):
        baseline = _manifest(critpath=self._critpath_block())
        cells = flatten_cells(baseline)
        assert cells["critpath.virtual.makespan"] == pytest.approx(76.0)
        assert cells["critpath.virtual.stages.bitgen.total"] == 60.0
        current = _manifest(
            run_id="r0002-test", critpath=self._critpath_block(makespan=80.0)
        )
        report = compare_manifests(baseline, current)
        assert [d.cell for d in report.regressions] == [
            "critpath.virtual.makespan"
        ]
        # Real-clock cells are informational: timing noise never gates.
        current = _manifest(run_id="r0002-test", critpath=self._critpath_block())
        current["critpath"]["real"]["makespan"] = 99.0
        assert compare_manifests(baseline, current).ok

    def test_onesided_critpath_block_is_demoted(self):
        baseline = _manifest()
        current = _manifest(
            run_id="r0002-test", critpath=self._critpath_block()
        )
        report = compare_manifests(baseline, current)
        assert report.ok  # appeared cells do not regress...
        assert any(
            "critpath block recorded in only one" in w
            for w in report.config_mismatches
        )  # ...but the workflow difference is called out.

    def test_whatif_grid_cells_gate_and_check_is_informational(self):
        block = {
            "grid": {"workers": 1, "cache_hit_rates": [0], "cad_speedups": [0],
                     "cells": {"h0.s0": 6389.0}},
            "check": {"tolerance": 0.05, "checked": 1, "flagged": 0,
                      "flagged_cells": []},
        }
        baseline = _manifest(whatif=block)
        drifted = json.loads(json.dumps(block))
        drifted["grid"]["cells"]["h0.s0"] = 7000.0
        report = compare_manifests(
            baseline, _manifest(run_id="r0002-test", whatif=drifted)
        )
        assert [d.cell for d in report.regressions] == [
            "whatif.grid.cells.h0.s0"
        ]
        # check.* counters stay informational (tooling detail, not result).
        counted = json.loads(json.dumps(block))
        counted["check"]["flagged"] = 1
        assert compare_manifests(
            baseline, _manifest(run_id="r0002-test", whatif=counted)
        ).ok

    def test_repeat_history_widens_allowance(self):
        baseline = _manifest()
        # Three repeat samples of a noisy cell scattered around 3.5: the
        # median (3.5) matches the baseline and the MAD band absorbs the
        # scatter, so a tight explicit tolerance still passes...
        history = [
            _manifest(run_id=f"r000{i}-test", wall_seconds=w)
            for i, w in enumerate((3.4, 3.5, 3.6), start=2)
        ]
        report = compare_manifests(
            baseline,
            history[-1],
            tolerances=[("wall_seconds", 1e-6)],
            history=history,
        )
        assert report.ok
        # ... while without the history the unlucky sample fails.
        report = compare_manifests(
            baseline, history[-1], tolerances=[("wall_seconds", 1e-6)]
        )
        assert not report.ok

    def test_render_marks_failures(self):
        current = _manifest(run_id="r0002-test")
        current["scalars"]["per_app"]["sor"]["candidates"] = 2
        text = compare_manifests(_manifest(), current).render()
        assert "FAIL" in text and "scalars.per_app.sor.candidates" in text


class TestEventLog:
    def test_emit_levels_and_payload(self):
        log = EventLog(level="info")
        assert log.emit("skipped", level="debug") is None
        record = log.emit("cad.stage", stage="par", virtual_seconds=1.5)
        assert record["level"] == "info"
        assert record["stage"] == "par"
        assert record["run_id"] is None and record["span_id"] is None
        assert log.records() == [record]

    def test_disabled_log_drops_everything(self):
        log = EventLog(enabled=False)
        assert log.emit("anything") is None
        assert log.records() == []

    def test_span_id_defaults_to_open_span(self):
        log = EventLog()
        tracer = obs.enable_tracing()
        try:
            with tracer.span("search") as sp:
                record = log.emit("search.candidate", decision="accept")
            assert record["span_id"] == sp.span_id
        finally:
            obs.disable_tracing()

    def test_jsonl_round_trip_and_bad_lines(self, tmp_path):
        path = tmp_path / "log.jsonl"
        log = EventLog()
        log.open(path)
        log.emit("a", x=1)
        log.emit("b", level="warning")
        log.close()
        records = read_log(path)
        assert [r["event"] for r in records] == ["a", "b"]
        path.write_text('{"event": "ok"}\nnot json\n')
        with pytest.raises(ValueError, match="log line 2"):
            read_log(path)

    def test_pipeline_emits_phase_boundary_events(self, fp_kernel):
        from repro.core import JitIseSystem

        obs.enable_logging()
        try:
            JitIseSystem().run_application(
                fp_kernel, dataset_size=16, dataset_seed=3
            )
            phases = [
                r["phase"]
                for r in obs.get_log().records()
                if r["event"] == "pipeline.phase"
            ]
        finally:
            obs.disable_logging()
        assert phases == ["baseline", "specialize", "adapt", "verify"]

    def test_render_tail_filters_and_truncates(self):
        records = [
            {"ts": 1000.0 + i, "level": "debug" if i % 2 else "info",
             "event": f"e{i}", "run_id": None, "span_id": i or None, "k": i}
            for i in range(6)
        ]
        text = render_tail(records, limit=3)
        assert "(3 earlier records)" in text
        assert "e5" in text and "e0" not in text
        assert "[span 5]" in text
        info_only = render_tail(records, level="info")
        assert "e1" not in info_only and "e2" in info_only
        assert render_tail([], limit=5) == "(empty event log)"


@pytest.fixture(scope="module")
def recorded_runs(tmp_path_factory):
    """Two identical ledger-recorded CLI runs of `analyze sor`."""
    from repro.cli import main

    ledger_dir = tmp_path_factory.mktemp("ledger")
    for _ in range(2):
        assert main(["analyze", "sor", "--ledger", str(ledger_dir)]) == 0
    return ledger_dir


class TestCliEndToEnd:
    def test_self_diff_passes(self, recorded_runs):
        from repro.cli import main

        assert (
            main(
                ["regress", "--baseline", "latest~1", "--ledger",
                 str(recorded_runs)]
            )
            == 0
        )

    def test_tightened_tolerance_fails_naming_cell(
        self, recorded_runs, capsys
    ):
        from repro.cli import main

        status = main(
            ["regress", "--baseline", "latest~1", "--ledger",
             str(recorded_runs), "--tol", "stages.search.real_seconds=1e-9"]
        )
        assert status == 1
        captured = capsys.readouterr()
        assert "REGRESSION stages.search.real_seconds" in captured.err

    def test_log_records_resolve_against_saved_trace(self, recorded_runs):
        ledger = RunLedger(recorded_runs)
        run_dir = ledger.run_dir(ledger.resolve("latest"))
        records = read_log(run_dir / "log.jsonl")
        assert records, "a recorded analyze run must emit log events"
        trace_ids = {
            rec.span_id for rec in obs.read_jsonl(run_dir / "trace.jsonl")
        }
        run_id = run_dir.name
        for rec in records:
            assert rec["run_id"] == run_id
            assert rec["span_id"] in trace_ids
        events = {rec["event"] for rec in records}
        # (pipeline.phase is only emitted by the end-to-end `jit` flow.)
        assert {"search.candidate", "cad.stage", "asip.candidate",
                "icap.reconfigure"} <= events

    def test_manifest_records_scalars_and_argv(self, recorded_runs):
        ledger = RunLedger(recorded_runs)
        manifest = ledger.load(ledger.resolve("latest"))
        assert manifest["command"] == "analyze"
        assert manifest["argv"][0] == "analyze"
        assert manifest["scalars"]["per_app"]["sor"]["candidates"] >= 1
        assert manifest["stages"]["cad.par"]["virtual_seconds"] > 0

    def test_runs_list_show_and_diff(self, recorded_runs, capsys):
        from repro.cli import main

        assert main(["runs", "list", "--ledger", str(recorded_runs)]) == 0
        assert "analyze" in capsys.readouterr().out
        assert main(
            ["runs", "show", "latest", "--ledger", str(recorded_runs)]
        ) == 0
        assert "Per-stage totals" in capsys.readouterr().out
        assert main(
            ["runs", "diff", "latest~1", "latest", "--ledger",
             str(recorded_runs)]
        ) == 0

    def test_runs_list_empty_ledger_is_clean(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["runs", "list", "--ledger", str(tmp_path / "none")]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_runs_gc_keeps_newest(self, tmp_path, capsys):
        from repro.cli import main

        ledger = RunLedger(tmp_path)
        ids = []
        for _ in range(3):
            run_id = ledger.reserve_run("analyze")
            with open(ledger.run_dir(run_id) / "manifest.json", "w") as fh:
                json.dump(_manifest(run_id), fh)
            ids.append(run_id)
        assert main(["runs", "gc", "--keep", "1", "--ledger", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "removed 2 run(s)" in out
        assert ledger.run_ids() == ids[-1:]
        assert main(["runs", "gc", "--keep", "1", "--ledger", str(tmp_path)]) == 0
        assert "nothing to remove" in capsys.readouterr().out
        assert main(["runs", "gc", "--keep", "-1", "--ledger", str(tmp_path)]) == 2

    def test_tail_renders_recorded_log(self, recorded_runs, capsys):
        from repro.cli import main

        ledger = RunLedger(recorded_runs)
        run_dir = ledger.run_dir(ledger.resolve("latest"))
        assert main(["tail", str(run_dir / "log.jsonl"), "-n", "5"]) == 0
        assert "[span" in capsys.readouterr().out

    def test_unknown_baseline_is_an_error(self, recorded_runs, capsys):
        from repro.cli import main

        status = main(
            ["regress", "--baseline", "r9999", "--ledger", str(recorded_runs)]
        )
        assert status == 2
        assert "unknown run" in capsys.readouterr().err
