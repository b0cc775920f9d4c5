"""Tests for the command-line interface."""

import json
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_tables_choices(self):
        args = build_parser().parse_args(["tables", "3"])
        assert args.which == "3"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "9"])

    def test_app_commands_require_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["jit"])
        # analyze's app became optional (--domain analyzes a whole suite),
        # so bare `analyze` is a runtime error instead of a parse error.
        assert main(["analyze"]) == 2
        with pytest.raises(SystemExit):
            build_parser().parse_args(["analyze", "--domain", "bogus"])

    def test_profile_requires_target_and_valid_clock(self):
        args = build_parser().parse_args(["profile", "sor", "--clock", "virtual"])
        assert args.target == "sor" and args.clock == "virtual"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile", "sor", "--clock", "wall"])

    def test_fidelity_rejects_unknown_domain(self):
        args = build_parser().parse_args(["fidelity"])
        assert args.domain == "embedded" and not args.full
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fidelity", "--domain", "bogus"])


class TestCommands:
    def test_apps_lists_suite(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "164.gzip" in out and "whetstone" in out
        assert "datasets:" in out

    def test_figures(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Candidate Search" in out and "Virtual Machine" in out

    def test_analyze_app(self, capsys):
        assert main(["analyze", "sor"]) == 0
        out = capsys.readouterr().out
        assert "ASIP ratio" in out
        assert "break-even" in out

    def test_timeline_app(self, capsys):
        assert main(["timeline", "sor"]) == 0
        out = capsys.readouterr().out
        assert "bitstream" in out
        assert "dedicated-host break-even" in out

    def test_jit_app(self, capsys):
        assert main(["jit", "sor"]) == 0
        out = capsys.readouterr().out
        assert "patched output identical: True" in out

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            main(["analyze", "999.bogus"])


@pytest.mark.trace_smoke
class TestTraceCommands:
    def test_jit_trace_metrics_round_trip(self, tmp_path, capsys):
        """One embedded app, traced end to end, then replayed."""
        from repro import obs

        trace_file = tmp_path / "out.jsonl"
        assert main(["jit", "sor", "--trace", str(trace_file), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert f"wrote" in out and "metrics snapshot:" in out
        assert "vm.instructions" in out
        assert not obs.tracing_enabled() and not obs.metrics_enabled()

        records = obs.read_jsonl(trace_file)
        assert obs.validate_trace(records) == []
        names = {r.name for r in records}
        assert "search" in names and "icap.reconfigure" in names
        assert set(obs.TABLE3_SPAN_NAMES) <= names

        assert main(["trace", str(trace_file), "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "Per-stage times" in out
        for label in ("C2V", "Syn", "Xst", "Tra", "Map", "PAR", "Bitgen"):
            assert label in out
        assert "pipeline.run" in out  # timeline section

    def test_trace_rejects_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"name": "", "span_id": 1, "t0": 0, "t1": 1}\n')
        assert main(["trace", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_trace_chrome_export(self, tmp_path, capsys):
        import json

        from repro import obs

        trace_file = tmp_path / "out.jsonl"
        tracer = obs.Tracer()
        with tracer.span("cad.map") as sp:
            sp.set_attr("virtual_seconds", 40.0)
        obs.export_tracer(tracer, trace_file)

        chrome_file = tmp_path / "chrome.json"
        assert main(["trace", str(trace_file), "--chrome", str(chrome_file)]) == 0
        doc = json.loads(chrome_file.read_text())
        assert doc["traceEvents"][0]["name"] == "Map"

    def test_profile_app_collapsed_stdout(self, capsys):
        """The end-to-end pipeline profiled on the virtual clock carries
        one collapsed frame per Table III CAD stage."""
        from repro import obs

        assert main(["profile", "sor", "--clock", "virtual",
                     "--collapsed", "-", "--tree"]) == 0
        out = capsys.readouterr().out
        assert "Hot paths (virtual time)" in out
        assert "profile (virtual time)" in out  # --tree section
        assert not obs.tracing_enabled()  # switched back off after the run
        collapsed = [l for l in out.splitlines() if ";" in l and l[-1].isdigit()]
        for stage in obs.TABLE3_SPAN_NAMES:
            assert any(stage in line for line in collapsed), stage


class TestTraceEdgeCases:
    def test_trace_replays_empty_span_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["trace", str(empty)]) == 0
        out = capsys.readouterr().out
        assert "Per-stage times" in out

    def test_chrome_export_of_zero_duration_span(self, tmp_path):
        import json

        trace_file = tmp_path / "zero.jsonl"
        trace_file.write_text(
            json.dumps(
                {
                    "name": "cad.map",
                    "span_id": 1,
                    "parent_id": None,
                    "t0": 2.5,
                    "t1": 2.5,
                    "thread": 0,
                    "attrs": {"virtual_seconds": 40.0},
                }
            )
            + "\n"
        )
        chrome_file = tmp_path / "chrome.json"
        assert main(["trace", str(trace_file), "--chrome", str(chrome_file)]) == 0
        (event,) = json.loads(chrome_file.read_text())["traceEvents"]
        assert event["name"] == "Map"
        assert event["dur"] == 0.0
        assert event["ts"] == pytest.approx(2.5e6)


class TestProfileCommand:
    @pytest.fixture()
    def saved_trace(self, tmp_path):
        from repro import obs

        tracer = obs.Tracer()
        with tracer.span("pipeline"):
            with tracer.span("cad.map") as sp:
                sp.set_attr("virtual_seconds", 40.0)
        trace_file = tmp_path / "trace.jsonl"
        obs.export_tracer(tracer, trace_file)
        return trace_file

    def test_profile_from_saved_trace(self, saved_trace, capsys):
        assert main(["profile", str(saved_trace), "--clock", "virtual",
                     "--collapsed", "-"]) == 0
        out = capsys.readouterr().out
        assert "Hot paths (virtual time)" in out
        assert "pipeline;cad.map 40000000" in out

    def test_profile_collapsed_to_file(self, saved_trace, tmp_path, capsys):
        collapsed = tmp_path / "stacks.txt"
        assert main(["profile", str(saved_trace), "--clock", "virtual",
                     "--collapsed", str(collapsed)]) == 0
        assert "wrote 1 collapsed stacks" in capsys.readouterr().out
        assert collapsed.read_text() == "pipeline;cad.map 40000000\n"

    def test_profile_rejects_invalid_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["profile", str(bad)]) == 1
        assert "invalid trace" in capsys.readouterr().err

    def test_profile_of_empty_trace(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["profile", str(empty)]) == 0
        assert "nothing to profile" in capsys.readouterr().out


class TestHeatCommand:
    def test_heat_annotates_kernel_blocks(self, capsys):
        assert main(["heat", "sor"]) == 0
        out = capsys.readouterr().out
        assert "Hottest blocks" in out
        assert "[kernel]" in out
        assert "define" in out  # annotated IR listing

    def test_heat_unknown_function(self, capsys):
        assert main(["heat", "sor", "--function", "nope"]) == 1
        assert "no function" in capsys.readouterr().err


class TestFidelityCommand:
    def test_fidelity_writes_report(self, tmp_path, capsys):
        import json

        out_file = tmp_path / "BENCH_fidelity_embedded.json"
        assert main(["fidelity", "--domain", "embedded",
                     "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "Fidelity vs. paper" in out
        assert f"wrote fidelity report: {out_file}" in out
        doc = json.loads(out_file.read_text())
        assert doc["ok"] is True and doc["failed"] == 0


REPO_ROOT = Path(__file__).resolve().parents[1]


class TestBenchReports:
    @pytest.mark.parametrize("kind", ["parallel", "vm", "mix", "serve"])
    def test_committed_report_is_in_the_envelope(self, kind):
        from repro.obs.bench import BENCH_SCHEMA

        report = json.loads((REPO_ROOT / f"BENCH_{kind}.json").read_text())
        assert report["schema"] == BENCH_SCHEMA == "repro-bench/2"
        assert report["kind"] == kind
        for key in ("generated", "host", "gates"):
            assert key in report
        for name, gate in report["gates"].items():
            assert gate["ok"] is True, f"{name}: {gate['message']}"

    def test_failed_gate_exits_1_with_its_message(
        self, monkeypatch, tmp_path, capsys
    ):
        import repro.obs.bench as bench

        out = tmp_path / "BENCH_parallel.json"

        def failing_bench(**kwargs):
            gates = {
                "passes": bench.gate(True, "this check holds"),
                "fails": bench.gate(False, "this check must hold"),
            }
            return bench.bench_report("parallel", {}, gates, kwargs["out"])

        monkeypatch.setattr(bench, "run_parallel_bench", failing_bench)
        assert main(["bench", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"wrote parallel benchmark report: {out}" in captured.out
        assert captured.err.splitlines() == [
            "FAIL: fails: this check must hold"
        ]
        assert json.loads(out.read_text())["gates"]["fails"]["ok"] is False

    def test_perfbench_wrapped_names_resolve_and_unpatch(self):
        """Every attribute the repository benchmark wraps still exists."""
        sys.path.insert(0, str(REPO_ROOT))
        try:
            from perfbench import layers
            from perfbench.spans import SpanRecorder
        finally:
            sys.path.remove(str(REPO_ROOT))

        def current(owner, attr):
            return (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )

        recorder = SpanRecorder()
        try:
            layers.install(recorder)
            patches = list(recorder._patches)
            assert patches
            for owner, attr, original in patches:
                assert current(owner, attr) is not original
        finally:
            recorder.unpatch()
        for owner, attr, original in patches:
            assert current(owner, attr) is original
