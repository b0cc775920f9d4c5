"""Wall-clock benchmark of the parallel runner and the persistent cache.

Section VI-A of the paper argues that a bitstream cache (and, in VI-B, a
faster CAD flow) is what moves the break-even times of Table IV; this
module measures the two mechanisms this reproduction actually implements —
worker-pool sharding (``--jobs``) and the persistent bitstream cache
(``--cache``) — against the serial cold baseline, and writes the evidence
as ``BENCH_parallel.json`` so the repository carries measured numbers, not
claims.

Four phases, each a full ``analyze_suite`` run with the in-process memo
cleared:

1. ``serial_cold`` — jobs=1, no persistent cache (the paper-faithful run);
2. ``parallel_cold`` — jobs=N, no persistent cache;
3. ``cache_cold`` — jobs=1 against an empty persistent cache (populates);
4. ``cache_warm`` — jobs=1 against the now-warm cache (every candidate a
   hit; the ``cad.implementations`` counter drops to the failures only).

Per phase we record the wall seconds, the ``cad.implementations`` counter
(virtual CAD work actually performed), and the cache hit/miss statistics.
Speedups are computed from the recorded wall times. On a single-core host
the honest parallel speedup is ~1x — the cache speedup is the headline
number there.

:func:`run_vm_bench` is the interpreter-side sibling (``BENCH_vm.json``):
per-app interpreter wall time, instructions/sec, dynamic opcode counts,
top digrams, superinstruction candidates and the calibrated dispatch-cost
table — the committed baseline the ROADMAP's dispatch-optimization work
is measured against, with the PPC405 virtual clock checked bit-identical
between the sampled and unsampled runs.

Every BENCH report (``parallel``, ``vm``, ``mix`` and the ``serve``
report of :func:`repro.serve.loadgen.run_loadgen`) leaves through
:func:`bench_report`: one ``repro-bench/2`` envelope with the report
``kind``, the host, and its pass/fail checks as ``gates`` —
``{name: {"ok": bool, "message": str}}``. ``repro`` exits 1 when any
gate fails.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from repro.obs.ledger import host_fingerprint
from repro.obs.metrics import disable_metrics, enable_metrics

#: The one schema of every BENCH report (bump on breaking changes).
BENCH_SCHEMA = "repro-bench/2"

#: Committed report locations at the repository root.
DEFAULT_BENCH_OUT = "BENCH_parallel.json"
DEFAULT_VM_BENCH_OUT = "BENCH_vm.json"
DEFAULT_MIX_BENCH_OUT = "BENCH_mix.json"


def gate(ok: bool, message: str) -> dict:
    """One pass/fail check of a report; *message* states what must hold."""
    return {"ok": bool(ok), "message": message}


def bench_report(
    kind: str,
    body: dict,
    gates: dict | None = None,
    out: str | os.PathLike | None = None,
) -> dict:
    """Wrap *body* in the BENCH envelope; write it as JSON when *out* is set."""
    report = {
        "schema": BENCH_SCHEMA,
        "kind": kind,
        "generated": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": host_fingerprint(),
        **body,
        "gates": gates or {},
    }
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    return report


def _phase(domain: str, jobs: int, backend: str, cache) -> dict:
    """One timed ``analyze_suite`` run with fresh metrics and memo."""
    from repro.core.cache import PersistentBitstreamCache
    from repro.experiments.runner import analyze_suite, clear_cache

    clear_cache()
    if cache is not None and not isinstance(cache, PersistentBitstreamCache):
        cache = PersistentBitstreamCache(root=cache)
    registry = enable_metrics()
    try:
        t0 = time.perf_counter()
        analyses = analyze_suite(domain, jobs=jobs, backend=backend, cache=cache)
        wall = time.perf_counter() - t0
        counters = registry.snapshot()["counters"]
    finally:
        disable_metrics()
    result = {
        "jobs": jobs,
        "backend": backend if jobs > 1 else None,
        "wall_seconds": round(wall, 3),
        "apps": len(analyses),
        "cad_implementations": counters.get("cad.implementations", 0),
    }
    if cache is not None:
        result["cache"] = cache.stats()
    return result


def run_parallel_bench(
    domain: str = "embedded",
    jobs: int = 4,
    backend: str = "process",
    out: str | os.PathLike | None = DEFAULT_BENCH_OUT,
    cache_dir: str | os.PathLike | None = None,
) -> dict:
    """Run the four-phase benchmark; returns (and optionally writes) the report.

    *cache_dir* defaults to a temporary directory that is removed
    afterwards, so the benchmark never pollutes (or is polluted by) the
    working tree's ``.repro-cache/``.
    """
    owns_cache_dir = cache_dir is None
    if owns_cache_dir:
        cache_dir = tempfile.mkdtemp(prefix="repro-bench-cache-")
    try:
        phases = {
            "serial_cold": _phase(domain, 1, backend, None),
            "parallel_cold": _phase(domain, jobs, backend, None),
            "cache_cold": _phase(domain, 1, backend, cache_dir),
            "cache_warm": _phase(domain, 1, backend, cache_dir),
        }
    finally:
        if owns_cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)

    def speedup(a: str, b: str) -> float:
        return round(
            phases[a]["wall_seconds"] / max(1e-9, phases[b]["wall_seconds"]), 3
        )

    body = {
        "domain": domain,
        "jobs": jobs,
        "backend": backend,
        "phases": phases,
        "speedups": {
            "parallel_vs_serial": speedup("serial_cold", "parallel_cold"),
            "warm_cache_vs_cold": speedup("cache_cold", "cache_warm"),
            "warm_cache_vs_serial": speedup("serial_cold", "cache_warm"),
        },
    }
    return bench_report("parallel", body, out=out)


def run_vm_bench(
    apps: list[str] | None = None,
    sample_interval: int = 64,
    out: str | os.PathLike | None = DEFAULT_VM_BENCH_OUT,
    calibration_iters: int = 6000,
    top_digrams_n: int = 10,
    top_candidates: int = 10,
    pairs: int = 3,
    fuse: int = 12,
) -> dict:
    """Interpreter macro benchmark over the embedded suite (BENCH_vm.json).

    Each app runs on its train set as *pairs* back-to-back (plain,
    sampled) run pairs. Wall time is the min over the plain runs; the
    sampler overhead is the **median of the per-pair ratios**, which
    cancels the slow host drift that makes a difference of two
    independent minima unusable on a shared machine. The PPC405 virtual
    cycles of the two phases must be bit-identical — profiling may never
    bend the virtual clock (gate ``sampled_virtual_identical``).

    Each app also mines its own top-*fuse* superinstruction sequences
    from a profiling run, splices them in via :mod:`repro.vm.fusion`, and
    every pair gains a third *fused* phase. The fused speedup is again the
    median of the per-pair plain/fused ratios (per app, and pooled across
    apps in ``totals``), and the fused phase must leave steps, block counts
    and the virtual clock bit-identical — fusion may only move the real
    clock (gate ``fused_identical``, checked by
    :func:`repro.obs.vmprof.fusion_report`). *fuse* must be at least 1.
    """
    if fuse < 1:
        raise ValueError(f"fuse must be >= 1, got {fuse}")
    from repro.apps import EMBEDDED_APPS, compile_app, get_app
    from repro.obs.ledger import current_run
    from repro.obs.vmprof import (
        build_profile,
        fusion_report,
        top_digrams,
        vm_manifest_block,
    )
    from repro.vm.costmodel import PPC405_COST_MODEL
    from repro.vm.dispatchcost import measure_dispatch_costs
    from repro.vm.profiler import BlockTimeSampler

    def median(values) -> float:
        values = sorted(values)
        return values[len(values) // 2]

    if apps is None:
        apps = [spec.name for spec in EMBEDDED_APPS]
    dispatch = measure_dispatch_costs(iters=calibration_iters)

    app_reports: dict[str, dict] = {}
    sampled_drift: list[str] = []
    fused_drift: list[str] = []
    fused_all_ratios: list[float] = []
    for name in apps:
        spec = get_app(name)
        compiled = compile_app(spec)

        # Mine the plan from a dedicated profiling run, then time the fused
        # phase inside the same pairs as plain/sampled so the speedup is a
        # paired ratio, not a cross-drift difference.
        profiling = compiled.run(spec.train)
        plan = compiled.fusion_plan(top=fuse, profile=profiling.profile)

        walls = {"plain": [], "sampled": [], "fused": []}
        runs = {}
        for _ in range(max(1, pairs)):
            sampler = BlockTimeSampler(interval=sample_interval)
            for phase, kwargs in (
                ("plain", {}),
                ("sampled", {"sampler": sampler}),
                ("fused", {"fusion": plan}),
            ):
                t0 = time.perf_counter()
                runs[phase] = compiled.run(spec.train, **kwargs)
                walls[phase].append(time.perf_counter() - t0)
        plain, sampled = runs["plain"], runs["sampled"]
        wall_plain = min(walls["plain"])
        sampler_ratio = median(
            s / max(p, 1e-9) for p, s in zip(walls["plain"], walls["sampled"])
        )
        fused_ratios = [
            p / max(f, 1e-9) for p, f in zip(walls["plain"], walls["fused"])
        ]
        fused_all_ratios.extend(fused_ratios)

        plain_cycles = plain.profile.total_cycles(
            compiled.module, PPC405_COST_MODEL
        )
        virtual_identical = plain_cycles == sampled.profile.total_cycles(
            compiled.module, PPC405_COST_MODEL
        )
        prof = build_profile(
            app=spec.name,
            dataset=spec.train.name,
            module=compiled.module,
            profile=sampled.profile,
            steps=sampled.steps,
            wall_seconds=wall_plain,
            sampler=sampler,
            dispatch=dispatch,
            max_candidates=top_candidates,
        )
        prof.fusion = fusion_report(
            compiled.module,
            plan,
            plain,
            runs["fused"],
            top=fuse,
            wall_seconds=min(walls["fused"]),
            speedup=median(fused_ratios),
        )
        if not virtual_identical:
            sampled_drift.append(spec.name)
        if not prof.fusion.identical:
            fused_drift.append(spec.name)
        app_reports[spec.name] = {
            "wall_seconds": round(wall_plain, 6),
            "sampled_wall_seconds": round(min(walls["sampled"]), 6),
            "sampler_overhead_pct": round(100.0 * (sampler_ratio - 1.0), 2),
            "instructions": sampled.steps,
            "instructions_per_second": round(
                sampled.steps / max(wall_plain, 1e-9), 1
            ),
            "block_executions": prof.block_executions,
            "virtual_cycles": plain_cycles,
            "virtual_seconds": PPC405_COST_MODEL.seconds(plain_cycles),
            "virtual_identical": virtual_identical,
            "opcodes": dict(sorted(prof.opcode_counts.items())),
            "top_digrams": {
                "+".join(pair): count
                for pair, count in top_digrams(prof, top_digrams_n)
            },
            "superinsn": [
                {
                    "sequence": candidate.name,
                    "dynamic_count": candidate.dynamic_count,
                    "static_sites": candidate.static_sites,
                    "est_saved_ms": round(
                        candidate.est_saved_seconds * 1e3, 3
                    ),
                }
                for candidate in prof.candidates
            ],
            "fused": prof.fusion.as_dict(),
        }
        # Feed the current ledger run (if any): the vm block of the last
        # profiled app wins, which is what the regress-vm single-app leg
        # uses; multi-app wall data lives in this report instead.
        recorder = current_run()
        if recorder is not None:
            recorder.attach_extra("vm", vm_manifest_block(prof))

    reports = app_reports.values()
    totals = {
        "wall_seconds": round(sum(a["wall_seconds"] for a in reports), 3),
        "instructions": sum(a["instructions"] for a in reports),
        "mean_sampler_overhead_pct": round(
            sum(a["sampler_overhead_pct"] for a in reports)
            / max(len(reports), 1),
            2,
        ),
        "fused_speedup": (
            round(median(fused_all_ratios), 3) if fused_all_ratios else 0.0
        ),
        "fused_wall_seconds": round(
            sum(a["fused"]["wall_seconds"] for a in reports), 3
        ),
    }

    def identity_gate(drifted: list[str], message: str) -> dict:
        if drifted:
            message += f" (drifted: {', '.join(drifted)})"
        return gate(not drifted, message)

    gates = {
        "sampled_virtual_identical": identity_gate(
            sampled_drift,
            "the virtual clock must stay bit-identical under sampling",
        ),
        "fused_identical": identity_gate(
            fused_drift,
            "fusion must keep steps, block counts and the virtual clock "
            "bit-identical",
        ),
    }
    body = {
        "sample_interval": sample_interval,
        "fuse_top": fuse,
        "dispatch_cost": dispatch.to_dict(),
        "apps": app_reports,
        "totals": totals,
    }
    return bench_report("vm", body, gates, out)


def render_vm_bench(report: dict) -> str:
    """ASCII rendering of a VM benchmark report for the CLI."""
    from repro.util.tables import Table

    table = Table(
        columns=[
            "app",
            "wall [s]",
            "M instr/s",
            "sampler ovh %",
            "fused [s]",
            "fused x",
            "virt clock",
        ],
        title=(
            "VM interpreter benchmark "
            f"(sample interval {report.get('sample_interval')}, "
            f"fuse top-{report.get('fuse_top')})"
        ),
    )
    for name, app in (report.get("apps") or {}).items():
        fused = app["fused"]
        identical = (
            app["virtual_identical"]
            and fused["steps_identical"]
            and fused["blocks_identical"]
            and fused["virtual_identical"]
        )
        table.add_row(
            [
                name,
                f"{app.get('wall_seconds', 0.0):.2f}",
                f"{app.get('instructions_per_second', 0.0) / 1e6:.2f}",
                f"{app.get('sampler_overhead_pct', 0.0):+.1f}",
                f"{fused.get('wall_seconds', 0.0):.2f}",
                f"{fused.get('speedup', 0.0):.2f}",
                "identical" if identical else "DRIFTED",
            ]
        )
    lines = [table.render()]
    dispatch = (report.get("dispatch_cost") or {}).get("classes_ns") or {}
    if dispatch:
        costs = ", ".join(
            f"{name}={ns:.0f}ns"
            for name, ns in sorted(dispatch.items(), key=lambda kv: -kv[1])[:5]
        )
        lines.append(f"dispatch cost (top classes): {costs}")
    totals = report.get("totals") or {}
    gates = report["gates"]
    if totals:
        lines.append(
            f"total: {totals.get('wall_seconds', 0.0):.2f}s for "
            f"{totals.get('instructions', 0):,} instructions; "
            "virtual clock "
            + (
                "bit-identical under sampling"
                if gates["sampled_virtual_identical"]["ok"]
                else "DRIFTED under sampling"
            )
        )
        lines.append(
            f"fusion: {totals.get('fused_speedup', 0.0):.2f}x "
            "median-of-paired-ratios; "
            + (
                "blocks + virtual clock bit-identical under fusion"
                if gates["fused_identical"]["ok"]
                else "fused accounting DRIFTED"
            )
        )
    return "\n".join(lines)


def render_bench(report: dict) -> str:
    """ASCII rendering of a benchmark report for the CLI."""
    from repro.util.tables import Table

    table = Table(
        columns=["phase", "jobs", "wall [s]", "CAD impls", "cache hits"],
        title=(
            f"Parallel/cache benchmark: {report.get('domain')} suite "
            f"({report.get('host', {}).get('cpus', '?')} cpu)"
        ),
    )
    for name, phase in (report.get("phases") or {}).items():
        cache = phase.get("cache") or {}
        table.add_row(
            [
                name,
                phase.get("jobs", 1),
                f"{phase.get('wall_seconds', 0.0):.2f}",
                phase.get("cad_implementations", 0),
                cache.get("hits", "-") if cache else "-",
            ]
        )
    lines = [table.render()]
    speedups = report.get("speedups") or {}
    if speedups:
        lines.append(
            "speedups: "
            + ", ".join(f"{k}={v}x" for k, v in speedups.items())
        )
    return "\n".join(lines)

# -- fleet workload-mix benchmark (repro mix) --------------------------------

#: Default grid axes: >=2 entropies x >=3 policies x >=3 slot counts.
DEFAULT_MIX_PRESETS = ("uniform", "skewed")
DEFAULT_MIX_POLICIES = ("lru", "lfu", "breakeven")
DEFAULT_MIX_CAPACITIES = (4, 8, 16)


def _mix_cell_key(capacity: int) -> str:
    return f"c{capacity:02d}"


def mix_manifest_block(report: dict) -> dict:
    """The nested-dict ``mix`` block a ledger manifest carries.

    Dicts all the way down (the regression sentinel's flattener walks
    dicts, not lists): ``mix.cells.<preset>.<policy>.c<NN>.<metric>``.
    Virtual-clock cells compare at 1e-9; ``wall_seconds`` and the
    profile-building ``search`` times are informational.
    """
    contended = report["contended"] or {}
    beats_lru = report["gates"].get("breakeven_beats_lru")
    block: dict = {
        "events": report["events"],
        "seed": report["seed"],
        "entropy": dict(report["entropy"]),
        "gate": {
            "breakeven_beats_lru": beats_lru["ok"] if beats_lru else None,
            "contended_preset": contended.get("preset"),
            "contended_capacity": contended.get("capacity"),
        },
        "wall_seconds": report["wall_seconds"],
        "cells": {},
    }
    for preset, policies in report["cells"].items():
        for policy, caps in policies.items():
            for ckey, cell in caps.items():
                dest = (
                    block["cells"]
                    .setdefault(preset, {})
                    .setdefault(policy, {})
                    .setdefault(ckey, {})
                )
                dest["fleet_break_even_seconds"] = cell[
                    "fleet_break_even_seconds"
                ]
                dest["mean_occupancy_pct"] = cell["mean_occupancy_pct"]
                slots = cell["slots"]
                dest["slot_loads"] = slots["loads"]
                dest["slot_reloads"] = slots["reloads"]
                dest["slot_evictions"] = slots["evictions"]
                store = cell["store"]
                dest["store_hits"] = store["hits"]
                dest["store_misses"] = store["misses"]
                dest["cross_app_hits"] = store["cross_app_hits"]
    return block


def run_mix_bench(
    presets=DEFAULT_MIX_PRESETS,
    policies=DEFAULT_MIX_POLICIES,
    capacities=DEFAULT_MIX_CAPACITIES,
    events: int = 120,
    seed: int = 0,
    out: str | os.PathLike | None = DEFAULT_MIX_BENCH_OUT,
    store_root: str | os.PathLike | None = None,
    apps=None,
) -> dict:
    """Sweep the fleet grid (mix entropy x policy x slot count).

    Specialization profiles are built once (the only measured wall time
    that matters); every grid cell then replays the preset's trace on the
    virtual clock against a cold per-cell fleet store, so identical
    (presets, policies, capacities, events, seed) inputs reproduce every
    deterministic cell bit-identically. The *contended* cell — the
    (preset, capacity) pair where plain LRU evicts most — gates the
    break-even-aware policy: it must strictly beat LRU there (gate
    ``breakeven_beats_lru``, listed only when such a cell exists), and a
    rerun of that cell must reproduce it (gate ``determinism``).
    """
    from repro.mix.profiles import DEFAULT_APPS, build_app_profiles
    from repro.mix.simulator import simulate_cell
    from repro.mix.trace import (
        build_trace,
        empirical_entropy,
        mix_entropy,
        preset_config,
    )

    apps = tuple(apps) if apps else DEFAULT_APPS
    t0 = time.perf_counter()
    profiles = build_app_profiles(apps)
    profile_wall = time.perf_counter() - t0

    owns_store = store_root is None
    if owns_store:
        store_root = tempfile.mkdtemp(prefix="repro-mix-store-")
    store_root = os.fspath(store_root)

    traces = {}
    entropy = {}
    for preset in presets:
        config = preset_config(preset, events=events, seed=seed)
        traces[preset] = build_trace(config)
        entropy[preset] = {
            "configured": round(mix_entropy(config.mix), 9),
            "empirical": round(empirical_entropy(traces[preset]), 9),
        }

    def run_cell(preset: str, policy: str, capacity: int) -> dict:
        cell_root = os.path.join(
            store_root, f"{preset}-{policy}-{capacity}"
        )
        return simulate_cell(
            profiles,
            traces[preset],
            policy,
            capacity,
            cell_root,
            mix_name=preset,
        ).as_dict()

    t1 = time.perf_counter()
    cells: dict = {}
    try:
        for preset in presets:
            for policy in policies:
                for capacity in capacities:
                    cells.setdefault(preset, {}).setdefault(policy, {})[
                        _mix_cell_key(capacity)
                    ] = run_cell(preset, policy, capacity)

        # Contended cell: the (preset, capacity) pair where plain LRU
        # evicts most — deterministic, so the gate targets the same cell
        # on every host.
        contended = None
        if "lru" in policies:
            best = (-1, "", 0)
            for preset in presets:
                for capacity in capacities:
                    evictions = cells[preset]["lru"][_mix_cell_key(capacity)][
                        "slots"
                    ]["evictions"]
                    if evictions > best[0]:
                        best = (evictions, preset, capacity)
            if best[0] > 0:
                contended = {
                    "preset": best[1],
                    "capacity": best[2],
                    "lru_evictions": best[0],
                }

        gates = {}
        if contended is not None and "breakeven" in policies:
            ckey = _mix_cell_key(contended["capacity"])
            lru_be = cells[contended["preset"]]["lru"][ckey][
                "fleet_break_even_seconds"
            ]
            be_be = cells[contended["preset"]]["breakeven"][ckey][
                "fleet_break_even_seconds"
            ]
            contended["lru_break_even_seconds"] = lru_be
            contended["breakeven_break_even_seconds"] = be_be
            gates["breakeven_beats_lru"] = gate(
                lru_be is not None and be_be is not None and be_be < lru_be,
                "break-even-aware eviction must beat LRU on the contended "
                f"cell {contended['preset']}/{ckey} "
                f"({be_be} s vs {lru_be} s)",
            )

        # Determinism self-check: re-simulate the contended (or first)
        # cell from the same frozen inputs and require bit-identity.
        check_preset = contended["preset"] if contended else presets[0]
        check_capacity = contended["capacity"] if contended else capacities[0]
        check_policy = policies[0]
        rerun_root = os.path.join(store_root, "determinism-rerun")
        rerun = simulate_cell(
            profiles,
            traces[check_preset],
            check_policy,
            check_capacity,
            rerun_root,
            mix_name=check_preset,
        ).as_dict()
        ckey = _mix_cell_key(check_capacity)
        first = cells[check_preset][check_policy][ckey]
        gates["determinism"] = gate(
            json.dumps(rerun, sort_keys=True)
            == json.dumps(first, sort_keys=True),
            f"re-simulating {check_preset}/{check_policy}/{ckey} from "
            "identical inputs must reproduce it bit-identically",
        )
    finally:
        if owns_store:
            shutil.rmtree(store_root, ignore_errors=True)

    grid_wall = time.perf_counter() - t1
    body = {
        "apps": list(apps),
        "presets": list(presets),
        "policies": list(policies),
        "capacities": list(capacities),
        "events": events,
        "seed": seed,
        "entropy": entropy,
        "profile": {
            "wall_seconds": round(profile_wall, 3),
            "search_seconds": {
                name: round(p.search_seconds, 3) for name, p in profiles.items()
            },
            "configurations": {
                name: len(p.candidates) for name, p in profiles.items()
            },
        },
        "cells": cells,
        "contended": contended,
        "wall_seconds": round(profile_wall + grid_wall, 3),
    }
    report = bench_report("mix", body, gates, out)

    from repro.obs.ledger import current_run

    recorder = current_run()
    if recorder is not None:
        recorder.attach_extra("mix", mix_manifest_block(report))
    return report


def render_mix_bench(report: dict) -> str:
    """Human-readable fleet-grid table for the ``repro mix`` CLI."""
    from repro.util.tables import Table

    table = Table(
        columns=[
            "mix",
            "H",
            "policy",
            "slots",
            "occ%",
            "loads",
            "reloads",
            "evict",
            "store-hit%",
            "xapp",
            "fleet-BE(s)",
        ],
        title="Fleet workload-mix grid (break-even vs policy vs capacity)",
    )
    for preset, policies in report["cells"].items():
        h = report["entropy"][preset]["configured"]
        for policy, caps in policies.items():
            for ckey in sorted(caps):
                cell = caps[ckey]
                slots = cell["slots"]
                store = cell["store"]
                lookups = store["hits"] + store["misses"]
                hit_pct = 100.0 * store["hits"] / lookups if lookups else 0.0
                be = cell["fleet_break_even_seconds"]
                table.add_row(
                    [
                        preset,
                        f"{h:.2f}",
                        policy,
                        cell["capacity"],
                        f"{cell['mean_occupancy_pct']:.1f}",
                        slots["loads"],
                        slots["reloads"],
                        slots["evictions"],
                        f"{hit_pct:.1f}",
                        store["cross_app_hits"],
                        f"{be:.1f}" if be is not None else "-",
                    ]
                )
    lines = [table.render()]
    gates = report["gates"]
    contended = report.get("contended")
    if contended:
        verdict = (gates.get("breakeven_beats_lru") or {}).get("ok")
        lines.append(
            f"contended cell: mix={contended['preset']} "
            f"slots={contended['capacity']} "
            f"(lru evictions={contended['lru_evictions']}) -- "
            f"breakeven {contended.get('breakeven_break_even_seconds')}s vs "
            f"lru {contended.get('lru_break_even_seconds')}s: "
            + ("breakeven wins" if verdict else "breakeven does NOT win")
        )
    else:
        lines.append("contended cell: none (no LRU evictions anywhere in grid)")
    lines.append(
        "determinism rerun: "
        + ("bit-identical" if gates["determinism"]["ok"] else "MISMATCH")
    )
    return "\n".join(lines)
