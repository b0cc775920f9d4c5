"""Which public calls a traced run wraps, and the per-layer metrics they give.

Layers are the ``repro`` packages. A call's span belongs to the package
that defines the call. ``apps.run`` (``CompiledApp.run``) is glue outside
the named layers; its self time, and the time no span covers (the runner's
own loop), is what the named layers do not cover.
"""

from __future__ import annotations

from collections import defaultdict

from perfbench.spans import Span, SpanRecorder, self_times

#: Named layers, in the order the self-time table prints them.
LAYERS = ("frontend", "vm", "profiling", "ise", "pivpav", "fpga", "core",
          "woolcano", "serve")

#: fpga stages folded into ``fpga.other_s``.
OTHER_FPGA = ("fpga.syntax", "fpga.synthesis", "fpga.translate", "fpga.map")


def _steps(result, args, kwargs):
    return {"steps": result.steps}


def _moves(result, args, kwargs):
    return {"attempted": result.moves_attempted, "accepted": result.moves_accepted}


def _selected(result, args, kwargs):
    return {"candidates": len(result.selected)}


def _request_tag(args, kwargs):
    return args[0].get("request_id") or None


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer's public entry points (restored by ``unpatch``)."""
    import repro.apps.base as apps_base
    import repro.experiments.runner as runner
    import repro.serve.server as server
    import repro.serve.worker as worker
    from repro.core.asip_sp import AsipSpecializationProcess
    from repro.core.breakeven import BreakEvenModel
    from repro.core.cache import PersistentBitstreamCache
    from repro.fpga.bitgen import BitstreamGenerator
    from repro.fpga.placer import Placer
    from repro.fpga.router import Router
    from repro.fpga.synthesis import Synthesizer
    from repro.fpga.syntax import VhdlSyntaxChecker
    from repro.fpga.techmap import Mapper
    from repro.fpga.toolflow import CadToolFlow
    from repro.fpga.translate import Translator
    from repro.ise.selection import CandidateSearch
    from repro.pivpav.netlistcache import NetlistCache
    from repro.pivpav.vhdlgen import DatapathGenerator
    from repro.serve.store import TenantCache
    from repro.vm.interpreter import Interpreter
    from repro.vm.jitruntime import JitRuntimeModel
    from repro.woolcano.machine import WoolcanoMachine
    from repro.woolcano.reconfig import IcapModel

    p = recorder.patch
    p(apps_base.CompiledApp, "run", "apps.run", "apps")
    p(apps_base, "compile_files", "frontend.compile", "frontend")
    p(Interpreter, "run", "vm.run", "vm", counts=_steps)
    p(JitRuntimeModel, "estimate", "vm.jitruntime", "vm")
    for module in (runner, worker):
        p(module, "classify_blocks", "profiling.classify", "profiling")
    p(runner, "compute_kernel", "profiling.kernel", "profiling")
    p(CandidateSearch, "run", "ise.search", "ise", counts=_selected)
    p(DatapathGenerator, "generate", "pivpav.vhdlgen", "pivpav")
    p(NetlistCache, "extract_all", "pivpav.netlist", "pivpav")
    p(CadToolFlow, "implement", "fpga.implement", "fpga")
    p(VhdlSyntaxChecker, "check", "fpga.syntax", "fpga")
    p(Synthesizer, "synthesize", "fpga.synthesis", "fpga")
    p(Translator, "translate", "fpga.translate", "fpga")
    p(Mapper, "map", "fpga.map", "fpga")
    p(Placer, "place", "fpga.place", "fpga", counts=_moves)
    p(Router, "route", "fpga.route", "fpga")
    p(BitstreamGenerator, "generate", "fpga.bitgen", "fpga")
    p(AsipSpecializationProcess, "run", "core.asip_sp", "core")
    p(PersistentBitstreamCache, "get", "core.cache.get", "core")
    p(PersistentBitstreamCache, "put", "core.cache.put", "core")
    p(BreakEvenModel, "analyze", "core.breakeven", "core")
    p(WoolcanoMachine, "speedup", "woolcano.speedup", "woolcano")
    p(IcapModel, "reconfigure", "woolcano.reconfigure", "woolcano")
    p(server, "execute_specialize", "serve.execute", "serve", tag=_request_tag)
    p(worker, "app_context", "serve.app_context", "serve")
    p(TenantCache, "get", "serve.store.get", "serve")
    p(TenantCache, "put", "serve.store.put", "serve")
    p(server.SpecializationServer, "drain", "serve.drain", "serve")


def by_phase(recorder: SpanRecorder, phase: str) -> tuple[list[Span], list[float]]:
    """One phase's spans with their self times."""
    pairs = [(span, own) for span, own in zip(recorder.spans, self_times(recorder.spans))
             if span.phase == phase]
    return [span for span, _ in pairs], [own for _, own in pairs]


def layer_table(spans, selfs) -> dict[str, float]:
    """Self seconds per layer (glue layers included under their own name)."""
    table: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, selfs):
        table[span.layer] += own
    return dict(table)


def call_metrics(spans, selfs) -> dict[str, float]:
    """Inclusive seconds and exact counts per wrapped call."""
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, int] = defaultdict(int)
    asip_self = 0.0
    for span, own in zip(spans, selfs):
        seconds[span.name] += span.seconds
        calls[span.name] += 1
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
        if span.name == "core.asip_sp":
            asip_self += own
    place_s = seconds["fpga.place"]
    attempted = counts["fpga.place.attempted"]
    vm_s = seconds["vm.run"]
    return {
        "frontend.compile_s": seconds["frontend.compile"],
        "vm.run_s": vm_s,
        "vm.steps": counts["vm.run.steps"],
        "vm.steps_per_s": counts["vm.run.steps"] / vm_s if vm_s else 0.0,
        "profiling.s": seconds["profiling.classify"] + seconds["profiling.kernel"],
        "ise.search_s": seconds["ise.search"],
        "ise.candidates": counts["ise.search.candidates"],
        "pivpav.c2v_s": seconds["pivpav.vhdlgen"] + seconds["pivpav.netlist"],
        "fpga.implementations": calls["fpga.implement"],
        "fpga.place_s": place_s,
        "fpga.place_moves_per_s": attempted / place_s if place_s else 0.0,
        "fpga.place_accept_ratio": (
            counts["fpga.place.accepted"] / attempted if attempted else 0.0
        ),
        "fpga.route_s": seconds["fpga.route"],
        "fpga.bitgen_s": seconds["fpga.bitgen"],
        "fpga.other_s": sum(seconds[name] for name in OTHER_FPGA),
        "core.cache.put_s": seconds["core.cache.put"],
        "core.breakeven_s": seconds["core.breakeven"],
        "core.asip_sp.self_s": asip_self,
        "woolcano.speedup_s": seconds["woolcano.speedup"],
        "serve.store.get_s": seconds["serve.store.get"],
        "serve.drain_s": seconds["serve.drain"],
    }
