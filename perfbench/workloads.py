"""The three workloads: two batch analyses and one warm serving run.

Each workload has a set-up part (not timed by ``run_s``) and a timed part,
and returns a :class:`Result` with its operations checked against the
golden reference. The seed permutes the app order of the batch workloads
and drives the request schedule of ``serve-warm``; the program only ever
sees the generated app names and requests.
"""

from __future__ import annotations

import gc
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench import golden as gold
from perfbench.loadgen import RequestMix, closed_loop, open_loop, poisson_schedule
from perfbench.stats import cpu_seconds, percentile

EMBEDDED_APPS = ("adpcm", "fft", "sor", "whetstone")
SCIENTIFIC_APPS = ("164.gzip", "183.equake", "429.mcf", "473.astar")

SERVE_MIX = {"fft": 3, "adpcm": 2, "sor": 2}  # integer weights
SERVE_TENANTS = ("tenant00", "tenant01")
SERVE_WORKERS = 2
LOW_RATE = 20.0  # requests/s
HIGH_RATE = 50.0
PEAK_LATENCY_LIMIT = 0.200  # seconds: the workload's p90 limit
MIN_PHASE_REQUESTS = 100  # so that at least 10 samples lie beyond p90
#: A phase whose generator sent its p90 request later than this is marked
#: generator-late: its latencies then measure the client as well.
LAG_LIMIT_MS = 20.0
MAX_RETRIES = 5
WARMUP_SECONDS = 1.0


@dataclass
class Op:
    """One operation: an app analysis or one request."""

    name: str
    seconds: float
    mismatches: list[str] = field(default_factory=list)
    drift: list[str] = field(default_factory=list)  # see golden.DRIFT_FIELDS

    @property
    def failed(self) -> bool:
        return bool(self.mismatches)


@dataclass
class Result:
    ops: list[Op]
    run_s: float
    cpu_s: float
    latency: dict[str, float]  # the lat_* and peak_rps load metrics
    extra: dict[str, float] = field(default_factory=dict)  # per-layer extras
    notes: list[str] = field(default_factory=list)
    records: dict = field(default_factory=dict)  # fresh golden records


def _shuffled(apps, workload: str, seed: int) -> list[str]:
    order = list(apps)
    random.Random(f"perfbench/{workload}/{seed}").shuffle(order)
    return order


def _whole_blocks(count: float, mix: RequestMix) -> int:
    """*count* rounded up to whole mix blocks, so the phase mix is exact."""
    return mix.block_size * math.ceil(count / mix.block_size)


def _dir_bytes(root: Path) -> int:
    return sum(f.stat().st_size for f in root.rglob("*") if f.is_file())


class VmCapture:
    """Keeps each ``CompiledApp.run`` result, which the analysis discards.

    Three calls per app, so its cost is far below the timing noise; the
    golden check needs the VM output and step count it returns.
    """

    def __init__(self) -> None:
        from repro.apps.base import CompiledApp

        self.cls = CompiledApp
        self.runs: dict[str, dict] = {}

    def __enter__(self):
        original = self.original = self.cls.__dict__["run"]
        runs = self.runs

        def run(compiled, dataset=None, *args, **kwargs):
            result = original(compiled, dataset, *args, **kwargs)
            name = getattr(dataset, "name", dataset) or compiled.spec.train.name
            runs.setdefault(compiled.spec.name, {})[name] = result
            return result

        self.cls.run = run
        return self

    def __exit__(self, *exc) -> None:
        self.cls.run = self.original


# -- batch ---------------------------------------------------------------------


@dataclass
class Batch:
    """``analyze_app`` over a seeded permutation of *apps*, serially."""

    name: str
    apps: tuple[str, ...]
    fresh_cache: bool  # a fresh, empty PersistentBitstreamCache per analysis

    def setup(self, workdir: Path) -> None:
        import repro.experiments.runner  # noqa: F401 - import is set-up work

        self.workdir = workdir

    def run(self, seed: int, seconds: float, golden: dict | None, recorder=None) -> Result:
        from repro.core.cache import PersistentBitstreamCache
        from repro.experiments import runner

        order = _shuffled(self.apps, self.name, seed)
        analyses, caches, per_app = {}, [], {}
        with VmCapture() as capture:
            start, cpu0 = time.perf_counter(), cpu_seconds()
            runner.clear_cache()
            for app in order:
                cache = None
                if self.fresh_cache:
                    root = self.workdir / "cache" / app
                    shutil.rmtree(root, ignore_errors=True)
                    cache = PersistentBitstreamCache(root=root)
                    caches.append(root)
                if recorder is not None:
                    recorder.tag = app
                t0 = time.perf_counter()
                analyses[app] = runner.analyze_app(app, bitstream_cache=cache)
                per_app[app] = time.perf_counter() - t0
            run_s = time.perf_counter() - start
            cpu_s = cpu_seconds() - cpu0
        records = {app: gold.analysis_record(analyses[app], capture.runs[app]) for app in order}
        ops = []
        for app in order:
            mismatches, drift = [], []
            if golden is not None:
                mismatches, drift = gold.split_drift(
                    gold.compare(golden["apps"].get(app), records[app], app)
                )
            ops.append(Op(app, per_app[app], mismatches, drift))
        # One closed-loop client: every analysis is due when its predecessor
        # ends, so its latency is its own wall time; there is one load level.
        lat_ms = [op.seconds * 1000.0 for op in ops]
        p50, p90 = percentile(lat_ms, 50), percentile(lat_ms, 90)
        latency = {
            "lat_low_p50_ms": p50, "lat_low_p90_ms": p90,
            "lat_high_p50_ms": p50, "lat_high_p90_ms": p90,
            "peak_rps": len(ops) / run_s,
        }
        extra = {f"apps.{app}.s": s for app, s in per_app.items()}
        extra["core.cache.bytes_written"] = sum(_dir_bytes(root) for root in caches)
        return Result(ops, run_s, cpu_s, latency, extra, records=records)

    def close(self) -> None:
        pass


# -- serve ---------------------------------------------------------------------


class ServeWarm:
    """A warm in-process ``SpecializationServer`` under open and closed loops."""

    server = None

    def setup(self, workdir: Path) -> None:
        from repro.serve import worker
        from repro.serve.server import ServerConfig, SpecializationServer
        from repro.serve.store import SharedBitstreamStore

        store_root = workdir / "store"
        shutil.rmtree(store_root, ignore_errors=True)
        self.store = SharedBitstreamStore(store_root)
        for app in SERVE_MIX:
            worker.app_context(app)
        first, *others = SERVE_TENANTS
        for app in SERVE_MIX:
            request = worker.parse_specialize_request(
                {"op": "specialize", "tenant": first, "app": app}
            )
            worker.execute_specialize(request, self.store.tenant(first, app=app))
        # The other tenants' namespaces get a copy of the first one's entries:
        # the same warm state without running every CAD flow once per tenant.
        for tenant in others:
            shutil.copytree(self.store.tenant(first).cache.root,
                            self.store.tenant(tenant).cache.root)
        self.server = SpecializationServer(
            ServerConfig(workers=SERVE_WORKERS, store_root=str(store_root)),
            store=self.store,
            record_run=False,
        )
        self.server.start()
        self.drained = False
        # Warm the request path itself (first connections, lazily built
        # server state) and collect set-up garbage before timing starts.
        warm = RequestMix(random.Random("perfbench/serve-warm/warmup"), SERVE_MIX,
                          list(SERVE_TENANTS))
        closed_loop(warm, self._send, os.cpu_count() or 1, WARMUP_SECONDS, "warmup")
        gc.collect()

    def _send(self, req):
        from repro.serve.protocol import ServeClient

        client = ServeClient(host="127.0.0.1", port=self.server.port, timeout=60.0)
        retries = 0
        while True:
            reply = client.specialize(req.tenant, req.app, request_id=req.rid)
            if reply.get("status") != "rejected" or retries >= MAX_RETRIES:
                return reply, retries
            retries += 1
            time.sleep((reply.get("retry_after_ms") or 25.0) / 1000.0)

    def record_golden(self) -> dict:
        """One reply per (tenant, app) through the socket protocol."""
        from perfbench.loadgen import Request

        return {
            f"{t}/{a}": gold.reply_record(self._send(Request(f"golden-{t}-{a}", t, a))[0])
            for t in SERVE_TENANTS for a in SERVE_MIX
        }

    def run(self, seed: int, seconds: float, golden: dict, recorder=None) -> Result:
        rng = random.Random(f"perfbench/serve-warm/{seed}")
        mix = RequestMix(rng, SERVE_MIX, list(SERVE_TENANTS))
        connections = os.cpu_count() or 1
        n_low = _whole_blocks(max(MIN_PHASE_REQUESTS, LOW_RATE * 0.35 * seconds), mix)
        n_high = _whole_blocks(max(MIN_PHASE_REQUESTS, HIGH_RATE * 0.2 * seconds), mix)
        low_plan = poisson_schedule(mix, LOW_RATE, n_low, "low")
        high_plan = poisson_schedule(mix, HIGH_RATE, n_high, "high")
        peak_seconds = 0.15 * seconds
        before = self.store.combined_stats()

        start, cpu0 = time.perf_counter(), cpu_seconds()
        low = open_loop(low_plan, self._send, connections)
        high = open_loop(high_plan, self._send, connections)
        peak, peak_wall = closed_loop(mix, self._send, connections, peak_seconds, "peak")
        self.server.drain()
        self.drained = True
        run_s = time.perf_counter() - start
        cpu_s = cpu_seconds() - cpu0

        after = self.store.combined_stats()
        ops = []
        for outcome in low + high + peak:
            key = f"{outcome.request.tenant}/{outcome.request.app}"
            if outcome.error is not None:
                mismatches = [f"{outcome.request.rid}: {outcome.error}"]
            else:
                mismatches = gold.compare(
                    golden["serve"].get(key), gold.reply_record(outcome.reply),
                    f"{outcome.request.rid}({key})",
                )
            ops.append(Op(outcome.request.rid, outcome.latency, mismatches))

        def ms(values):
            return [v * 1000.0 for v in values]

        low_lat = ms(o.latency for o in low)
        high_lat = ms(o.latency for o in high)
        ok_peak = [o for o in peak if o.error is None and (o.reply or {}).get("status") == "ok"]
        within = sum(1 for o in ok_peak if o.latency <= PEAK_LATENCY_LIMIT)
        latency = {
            "lat_low_p50_ms": percentile(low_lat, 50),
            "lat_low_p90_ms": percentile(low_lat, 90),
            "lat_high_p50_ms": percentile(high_lat, 50),
            "lat_high_p90_ms": percentile(high_lat, 90),
            "peak_rps": within / peak_wall,
        }

        notes = [
            f"phases: low {len(low)} req @ {LOW_RATE:g}/s, high {len(high)} req @ "
            f"{HIGH_RATE:g}/s, peak {len(peak)} req over {peak_wall:.2f} s closed loop "
            f"x{connections} connections ({within} within {PEAK_LATENCY_LIMIT * 1000:.0f} ms)"
        ]
        for label, phase in (("low", low), ("high", high)):
            lag = percentile(ms(o.lag for o in phase), 90)
            if lag > LAG_LIMIT_MS:
                notes.append(
                    f"GENERATOR-LATE: phase {label} sent its p90 request {lag:.1f} ms late "
                    f"(limit {LAG_LIMIT_MS:g} ms); its latencies include client delay"
                )
        records = [r for r in self.server.request_records()
                   if not (r["request_id"] or "").startswith("warmup")]
        queue_wait = [r["queue_wait_ms"] for r in records if r["queue_wait_ms"] is not None]
        service = [r["service_ms"] for r in records if r["service_ms"] is not None]
        lookups = (after["hits"] - before["hits"]) + (after["misses"] - before["misses"])
        extra = {
            "serve.queue_wait_p90_ms": percentile(queue_wait, 90),
            "serve.service_p50_ms": percentile(service, 50),
            "serve.service_p90_ms": percentile(service, 90),
            "serve.store.hit_ratio": (after["hits"] - before["hits"]) / lookups if lookups else 0.0,
            "serve.retries": sum(o.retries for o in low + high + peak),
            "serve.gen_lag_p90_ms": percentile(ms(o.lag for o in low + high), 90),
        }
        return Result(ops, run_s, cpu_s, latency, extra, notes)

    def close(self) -> None:
        if self.server is not None and not self.drained:
            self.server.drain()
            self.drained = True


WORKLOADS = {
    "embedded-cold": lambda: Batch("embedded-cold", EMBEDDED_APPS, fresh_cache=True),
    "scientific-vm": lambda: Batch("scientific-vm", SCIENTIFIC_APPS, fresh_cache=False),
    "serve-warm": ServeWarm,
}
