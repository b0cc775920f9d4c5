"""Tests for the fleet workload-mix simulator (repro mix)."""

import math

import pytest

from repro.mix import (
    MIX_PRESETS,
    MixTraceConfig,
    build_profile,
    build_trace,
    empirical_entropy,
    mix_entropy,
    preset_config,
    simulate_cell,
)

#: A warm FP kernel alpha and beta share verbatim: structurally equal
#: candidate subgraphs get the same signature, so the fleet store can
#: serve one app's CAD run to the other (satellite cross-app sharing).
#: Each app's *unique* kernel runs hotter, so the shared configuration
#: ranks second — small slot pools then contend on the unique tops while
#: the shared entry migrates through the store under eviction pressure.
_SHARED_KERNEL = """
    for (int it = 0; it < 10; it++)
        for (int i = 1; i < 63; i++) {
            c[i] = a[i] * b[i] + a[i - 1] * 0.5;
            s += c[i] * (a[i] - b[i]) * 0.125;
        }
"""

_PRELUDE = """
double a[64]; double b[64]; double c[64];
int main() {
    for (int i = 0; i < 64; i++) { a[i] = 0.01 * (double)i; b[i] = 2.0; }
    double s = 0.0;
"""

_EPILOGUE = """
    print_f64(s);
    return 0;
}
"""


def _alpha_src(hot: int) -> str:
    return (
        _PRELUDE
        + """
    for (int it = 0; it < %d; it++)
        for (int i = 1; i < 63; i++)
            s += (a[i] * a[i] - b[i] * 0.75 + c[i] * 0.5) * (a[i] - b[i]) + a[i] * 0.125;
"""
        % hot
        + _SHARED_KERNEL
        + _EPILOGUE
    )


def _beta_src(hot: int) -> str:
    return (
        _PRELUDE
        + """
    for (int it = 0; it < %d; it++)
        for (int i = 1; i < 63; i++)
            s += ((a[i] + b[i]) * (a[i] - c[i]) + b[i] * 0.375) * b[i] - c[i] * 0.25;
"""
        % hot
        + _SHARED_KERNEL
        + _EPILOGUE
    )


def _gamma_src(hot: int) -> str:
    # gamma shares nothing: its events flush the shared configuration
    # out of small pools, forcing alpha/beta back to the fleet store.
    return (
        _PRELUDE
        + """
    for (int it = 0; it < %d; it++)
        for (int i = 1; i < 63; i++) {
            c[i] = (a[i] * 0.5 + b[i] * 0.25) * (b[i] - a[i] * 0.125);
            s += c[i] * a[i] * 0.0625 - b[i] * 0.5;
        }
"""
        % hot
        + _EPILOGUE
    )


@pytest.fixture(scope="module")
def fleet_profiles():
    """Three synthetic apps; alpha and beta share one warm kernel.

    Each app is profiled on two "datasets" (different hot-loop trip
    counts, like the registry's train/ref pairs) so coverage classifies
    the hot blocks LIVE and the Table IV break-even stays finite.
    """
    from repro.frontend import compile_source
    from repro.profiling import classify_blocks
    from repro.vm import Interpreter

    profiles = {}
    sources = (("alpha", _alpha_src), ("beta", _beta_src), ("gamma", _gamma_src))
    for name, src_of in sources:
        module = compile_source(src_of(80), name).module
        train = Interpreter(module).run("main").profile
        ref_module = compile_source(src_of(96), name + "_ref").module
        ref = Interpreter(ref_module).run("main").profile
        coverage = classify_blocks(module, [train, ref])
        profiles[name] = build_profile(name, module, train, coverage)
    return profiles


@pytest.fixture(scope="module")
def fleet_trace():
    config = MixTraceConfig(
        name="synthetic",
        mix=(("alpha", 1.0), ("beta", 1.0), ("gamma", 1.0)),
        events=30,
        seed=1,
    )
    return build_trace(config)


class TestTrace:
    def test_bit_identical_rebuild(self):
        config = preset_config("uniform", events=200, seed=3)
        assert build_trace(config) == build_trace(config)

    def test_seed_changes_trace(self):
        a = build_trace(preset_config("uniform", events=200, seed=0))
        b = build_trace(preset_config("uniform", events=200, seed=1))
        assert a != b

    def test_sequence_numbers(self):
        trace = build_trace(preset_config("skewed", events=10))
        assert [e.seq for e in trace] == list(range(10))

    def test_skew_dominates(self):
        trace = build_trace(preset_config("skewed", events=400))
        counts: dict[str, int] = {}
        for event in trace:
            counts[event.app] = counts.get(event.app, 0) + 1
        # fft has weight 8 of 12: it must dominate the draw.
        assert counts["fft"] > max(
            v for k, v in counts.items() if k != "fft"
        )

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown mix preset"):
            preset_config("nope")

    def test_config_validation(self):
        with pytest.raises(ValueError, match="events"):
            MixTraceConfig(name="x", mix=(("a", 1.0),), events=0)
        with pytest.raises(ValueError, match="at least one"):
            MixTraceConfig(name="x", mix=())
        with pytest.raises(ValueError, match="non-positive weight"):
            MixTraceConfig(name="x", mix=(("a", 0.0),))


class TestEntropy:
    def test_uniform_is_one(self):
        assert mix_entropy(MIX_PRESETS["uniform"]) == pytest.approx(1.0)

    def test_single_app_is_zero(self):
        assert mix_entropy((("fft", 1.0),)) == 0.0

    def test_skewed_between(self):
        h = mix_entropy(MIX_PRESETS["skewed"])
        assert 0.0 < h < 1.0

    def test_empirical_matches_counts(self):
        trace = build_trace(
            MixTraceConfig(name="t", mix=(("a", 1.0), ("b", 1.0)), events=64)
        )
        h = empirical_entropy(trace)
        counts: dict[str, int] = {}
        for event in trace:
            counts[event.app] = counts.get(event.app, 0) + 1
        p = counts["a"] / 64
        expected = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        assert h == pytest.approx(expected)


class TestProfiles:
    def test_candidates_sorted_by_value(self, fleet_profiles):
        for profile in fleet_profiles.values():
            values = [c.value for c in profile.candidates]
            assert values == sorted(values, reverse=True)
            assert len(profile.candidates) >= 2

    def test_shared_signature_across_apps(self, fleet_profiles):
        alpha = {c.signature for c in fleet_profiles["alpha"].candidates}
        beta = {c.signature for c in fleet_profiles["beta"].candidates}
        assert alpha & beta, "identical kernels must fold to one signature"

    def test_wanted_caps_at_capacity(self, fleet_profiles):
        profile = fleet_profiles["alpha"]
        assert len(profile.wanted(1)) == 1
        assert profile.wanted(1)[0] is profile.candidates[0]
        assert profile.wanted(10_000) == profile.candidates

    def test_reload_cost_is_milliseconds(self, fleet_profiles):
        for profile in fleet_profiles.values():
            for cand in profile.candidates:
                assert 0.0 < cand.reload_seconds < 1.0


class TestSimulator:
    def test_cell_bit_identical(self, fleet_profiles, fleet_trace, tmp_path):
        a = simulate_cell(
            fleet_profiles, fleet_trace, "lru", 2, tmp_path / "a"
        ).as_dict()
        b = simulate_cell(
            fleet_profiles, fleet_trace, "lru", 2, tmp_path / "b"
        ).as_dict()
        assert a == b

    def test_uncontended_accounting(self, fleet_profiles, fleet_trace, tmp_path):
        capacity = sum(len(p.candidates) for p in fleet_profiles.values())
        cell = simulate_cell(
            fleet_profiles, fleet_trace, "lru", capacity, tmp_path / "u"
        )
        assert cell.slots["evictions"] == 0
        assert cell.slots["reloads"] == 0
        unique_sigs = {
            c.signature
            for p in fleet_profiles.values()
            for c in p.candidates
        }
        # Every signature is CAD'd exactly once fleet-wide; all later
        # wants are slot hits (the pool never evicts).
        total_misses = sum(s.store_misses for s in cell.apps.values())
        assert total_misses == cell.slots["loads"] <= len(unique_sigs)
        for name, stats in cell.apps.items():
            wants = stats.slot_hits + stats.slot_loads
            assert wants == stats.events * len(
                fleet_profiles[name].wanted(capacity)
            )

    def test_contended_cell_reloads(self, fleet_profiles, fleet_trace, tmp_path):
        cell = simulate_cell(
            fleet_profiles, fleet_trace, "lru", 1, tmp_path / "c"
        )
        assert cell.slots["evictions"] > 0
        assert cell.slots["reloads"] > 0
        assert set(cell.slots["evictions_by_reason"]) == {"lru"}
        # Reloads pay ICAP again but never re-run the CAD flow: the
        # store serves every repeat lookup.
        total_misses = sum(s.store_misses for s in cell.apps.values())
        total_hits = sum(s.store_hits for s in cell.apps.values())
        assert total_hits > total_misses

    def test_cross_app_store_sharing(self, fleet_profiles, fleet_trace, tmp_path):
        # Pick the smallest capacity at which the shared signature is in
        # both sharers' want set: gamma's events then flush it from the
        # pool, and the next sharer's reload hits the store entry the
        # *other* app produced — the satellite's cross_app_hits proof.
        alpha_sigs = [c.signature for c in fleet_profiles["alpha"].candidates]
        beta_sigs = [c.signature for c in fleet_profiles["beta"].candidates]
        shared = set(alpha_sigs) & set(beta_sigs)
        if not shared:
            pytest.skip("no structurally shared kernel between sharers")
        capacity = min(
            max(alpha_sigs.index(s), beta_sigs.index(s)) + 1 for s in shared
        )
        cell = simulate_cell(
            fleet_profiles, fleet_trace, "lru", capacity, tmp_path / "x"
        )
        assert cell.store["cross_app_hits"] > 0

    def test_break_even_finite_and_positive(
        self, fleet_profiles, fleet_trace, tmp_path
    ):
        cell = simulate_cell(
            fleet_profiles, fleet_trace, "lru", 2, tmp_path / "be"
        )
        assert cell.fleet_break_even_seconds is not None
        assert cell.fleet_break_even_seconds > 0
        for stats in cell.apps.values():
            assert 0.0 <= stats.store_hit_rate <= 1.0
            assert 0.0 <= stats.slot_hit_rate <= 1.0

    def test_store_scrubbed_of_host_detail(
        self, fleet_profiles, fleet_trace, tmp_path
    ):
        cell = simulate_cell(
            fleet_profiles, fleet_trace, "lru", 2, tmp_path / "s"
        )
        assert "root" not in cell.store
        assert "bytes" not in cell.store


class TestManifestBlock:
    def _report(self):
        cell = {
            "fleet_break_even_seconds": 100.0,
            "mean_occupancy_pct": 50.0,
            "slots": {"loads": 3, "reloads": 1, "evictions": 2},
            "store": {"hits": 4, "misses": 2, "cross_app_hits": 1},
        }
        return {
            "events": 10,
            "seed": 0,
            "entropy": {"uniform": {"configured": 1.0, "empirical": 0.9}},
            "gates": {"breakeven_beats_lru": {"ok": True, "message": ""}},
            "contended": {"preset": "uniform", "capacity": 4},
            "wall_seconds": 1.5,
            "cells": {"uniform": {"lru": {"c04": cell}}},
        }

    def test_nested_dicts_flatten(self):
        from repro.obs.bench import mix_manifest_block
        from repro.obs.regress import flatten_cells

        block = mix_manifest_block(self._report())
        cells = flatten_cells({"mix": block})
        assert cells["mix.cells.uniform.lru.c04.fleet_break_even_seconds"] == 100.0
        assert cells["mix.cells.uniform.lru.c04.cross_app_hits"] == 1.0
        assert cells["mix.events"] == 10.0
        assert cells["mix.gate.breakeven_beats_lru"] == 1.0

    def test_block_without_contended_cell(self):
        """A grid where LRU never evicts has no contended cell and no
        break-even-vs-LRU gate; the ledger block still records."""
        from repro.obs.bench import mix_manifest_block

        report = self._report()
        report["contended"] = None
        report["gates"] = {}
        assert mix_manifest_block(report)["gate"] == {
            "breakeven_beats_lru": None,
            "contended_preset": None,
            "contended_capacity": None,
        }

    def test_break_even_cells_gated_exactly(self):
        from repro.obs.bench import mix_manifest_block
        from repro.obs.regress import compare_manifests

        def manifest(run_id, break_even, wall):
            report = self._report()
            report["cells"]["uniform"]["lru"]["c04"][
                "fleet_break_even_seconds"
            ] = break_even
            report["wall_seconds"] = wall
            return {"run_id": run_id, "mix": mix_manifest_block(report)}

        baseline = manifest("r1", 100.0, 1.5)
        assert compare_manifests(baseline, manifest("r2", 100.0, 9.0)).ok
        report = compare_manifests(baseline, manifest("r2", 100.001, 1.5))
        assert [d.cell for d in report.regressions] == [
            "mix.cells.uniform.lru.c04.fleet_break_even_seconds"
        ]

    def test_whatif_mix_break_even_change_regresses(self):
        """`repro whatif --slots` re-simulates the fleet on the virtual
        clock, so its attached cells are gated exactly."""
        from repro.obs.regress import compare_manifests, flatten_cells

        def manifest(run_id, break_even):
            cell = {"fleet_break_even_seconds": break_even, "slot_loads": 3}
            whatif = {
                "mix": {
                    "events": 10,
                    "overrides": {"slots": 2, "policy": None},
                    "cells": {"uniform": {"lru": {"c02": cell}}},
                }
            }
            return {"run_id": run_id, "whatif": whatif}

        name = "whatif.mix.cells.uniform.lru.c02.fleet_break_even_seconds"
        baseline = manifest("r1", 100.0)
        assert flatten_cells(baseline)[name] == 100.0
        assert compare_manifests(baseline, manifest("r2", 100.0)).ok
        report = compare_manifests(baseline, manifest("r2", 100.001))
        assert [d.cell for d in report.regressions] == [name]


class TestCli:
    def test_invalid_slots_spec(self, capsys):
        from repro.cli import main

        assert main(["mix", "--slots", "abc"]) == 2
        assert "invalid --slots" in capsys.readouterr().err

    def test_empty_axes_rejected(self, capsys):
        from repro.cli import main

        assert main(["mix", "--policies", ","]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_nonpositive_capacity_rejected(self, capsys):
        from repro.cli import main

        assert main(["mix", "--slots", "0,4"]) == 2
        assert "must be >= 1" in capsys.readouterr().err

    def test_whatif_mix_needs_mix_run(self, tmp_path, capsys):
        from repro.cli import main

        assert (
            main(
                [
                    "whatif",
                    "--ledger",
                    str(tmp_path),
                    "--slots",
                    "4",
                ]
            )
            == 2
        )
