"""Repository benchmark: analyze and serve, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload embedded-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` wraps each layer's public calls (see ``layers.py``), prints a
per-layer self-time table, writes the spans under ``.perfbench-out/`` and
reports the per-layer metrics. Every run checks its outputs against
``golden.json``; the last stdout line is the JSON result. ``--record-golden``
rewrites the golden reference from the current program. See README.md.
"""

from __future__ import annotations

import time

_T_BOOT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

from perfbench import golden as gold  # noqa: E402
from perfbench.stats import max_rss_mb  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT_DIR = ROOT / ".perfbench-out"

#: Fresh-interpreter set-ups per batch run; setup_s is their median.
SETUP_REPEATS = 3

#: End-to-end metrics measured untraced and bounded in BENCHMARK.json.
E2E_UNITS = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "max_rss_mb": "MB"}

#: Latency and throughput under load: printed on every run and reported as
#: per-layer metrics of the traced run, unbounded, because their run-to-run
#: spread on a shared host exceeds any bound the benchmark may set (README).
LOAD_METRICS = {"lat_low_p50_ms": "ms", "lat_low_p90_ms": "ms", "lat_high_p50_ms": "ms",
                "lat_high_p90_ms": "ms", "peak_rps": "req/s"}

#: Exact counts printed beside each layer's self time.
LAYER_COUNTS = {
    "vm": ("vm.steps",),
    "ise": ("ise.candidates",),
    "fpga": ("fpga.implementations", "fpga.place_accept_ratio"),
    "core": ("core.cache.bytes_written",),
    "serve": ("serve.retries",),
}


def per_layer_units(name: str) -> str:
    if name in LOAD_METRICS:
        return LOAD_METRICS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("bytes_written"):
        return "B"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


def import_program() -> None:
    """Fail fast (exit 2, no result line) when the program is not present."""
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported repro from {repro.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        sys.exit(2)


def setup_probe(workload_name: str) -> float:
    """Time one fresh-interpreter set-up of *workload_name* (batch only)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload_name]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import layers
    from perfbench.spans import SpanRecorder, wrapper_cost_seconds

    golden = gold.load()
    workdir = OUT_DIR / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    recorder = SpanRecorder() if trace else None
    if recorder is not None:
        layers.install(recorder)
    workload = WORKLOADS[workload_name]()
    try:
        workload.setup(workdir)
        setup_s = time.perf_counter() - _T_BOOT
        if workload_name != "serve-warm":
            setup_s = statistics.median(
                [setup_s] + [setup_probe(workload_name) for _ in range(SETUP_REPEATS - 1)]
            )
        if recorder is not None:
            recorder.phase = "timed"
        result = workload.run(seed, seconds, golden, recorder)
    finally:
        workload.close()
        if recorder is not None:
            recorder.unpatch()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(op.failed for op in result.ops)
    attempted = len(result.ops)
    for line in result.notes:
        print(line)
    drift = sum(len(op.drift) for op in result.ops)
    for op in result.ops:
        for mismatch in op.mismatches[:5]:
            print(f"GOLDEN MISMATCH {op.name}: {mismatch}")
    if drift:
        print(f"placement drift: {drift} checksum/wirelength fields differ from golden "
              "(known program nondeterminism, see README; not counted as failures)")
    e2e = {
        "run_s": result.run_s,
        "setup_s": setup_s,
        "cpu_s": result.cpu_s,
        "max_rss_mb": max_rss_mb(),
    }
    print(f"== {workload_name} seed={seed} trace={int(trace)} host: nproc={os.cpu_count()} "
          f"python={platform.python_version()} {platform.platform()}")
    print(f"{'failed_ratio':<26} {failed / attempted:>14.6f} 1   ({failed}/{attempted} ops)")
    for name, value in e2e.items():
        print(f"{name:<26} {value:>14.6f} {E2E_UNITS[name]}")
    for name, unit in LOAD_METRICS.items():
        print(f"{name:<26} {result.latency[name]:>14.6f} {unit}")
    if recorder is None:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    else:
        per_layer = layer_metrics(recorder, result, workload_name, seed, wrapper_cost_seconds())
        per_layer["golden.placement_drift"] = drift
        per_layer.update({name: result.latency[name] for name in LOAD_METRICS})
        metrics = {k: {"value": v, "unit": per_layer_units(k)} for k, v in per_layer.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_metrics(recorder, result, workload_name: str, seed: int, span_cost: float) -> dict:
    """Per-layer metrics of the timed part, with the self-time table printed."""
    from perfbench import layers
    from perfbench.workloads import EMBEDDED_APPS, SCIENTIFIC_APPS

    spans, selfs = layers.by_phase(recorder, "timed")
    table = layers.layer_table(spans, selfs)
    metrics = layers.call_metrics(spans, selfs)
    metrics.update({name: result.extra.get(name, 0) for name in (
        "serve.queue_wait_p90_ms", "serve.service_p50_ms", "serve.service_p90_ms",
        "serve.store.hit_ratio", "serve.retries", "serve.gen_lag_p90_ms",
        "core.cache.bytes_written")})
    named = sum(table.get(layer, 0.0) for layer in layers.LAYERS)
    overhead = len(spans) * span_cost
    print(f"-- self time per layer, timed part ({len(spans)} spans, run_s {result.run_s:.3f} s)")
    for layer in layers.LAYERS + tuple(sorted(set(table) - set(layers.LAYERS))):
        own = table.get(layer, 0.0)
        counts = "  ".join(f"{k}={metrics[k]!r}" for k in LAYER_COUNTS.get(layer, ()))
        print(f"{layer:<12} {own:>10.3f} s {100.0 * own / result.run_s:6.1f}%  {counts}")
    print(f"{'(no span)':<12} {result.run_s - sum(table.values()):>10.3f} s")
    setup_table = layers.layer_table(*layers.by_phase(recorder, "setup"))
    if setup_table:
        print("-- self time per layer, set-up part: " + ", ".join(
            f"{layer} {own:.3f} s" for layer, own in sorted(setup_table.items())))

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
    recorder.write_jsonl(spans_path)
    print(f"spans written to {spans_path.relative_to(ROOT)}")

    metrics.update({f"{layer}.self_s": table.get(layer, 0.0) for layer in layers.LAYERS})
    metrics["layers.cover_pct"] = 100.0 * named / result.run_s
    for app in EMBEDDED_APPS + SCIENTIFIC_APPS:
        metrics[f"apps.{app}.s"] = result.extra.get(f"apps.{app}.s", 0.0)
    metrics["trace.overhead_pct"] = 100.0 * overhead / (result.run_s - overhead)
    return metrics


def record_golden() -> None:
    """Rewrite golden.json from the program as it is now (seed 0)."""
    from perfbench.workloads import EMBEDDED_APPS, SCIENTIFIC_APPS, Batch, ServeWarm

    workdir = OUT_DIR / f"golden-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        batch = Batch("golden", EMBEDDED_APPS + SCIENTIFIC_APPS, fresh_cache=True)
        batch.setup(workdir)
        apps = batch.run(0, 0.0, None).records
        serve = ServeWarm()
        serve.setup(workdir)
        try:
            replies = serve.record_golden()
        finally:
            serve.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gold.save({"apps": apps, "serve": replies})
    print(f"wrote {gold.GOLDEN_PATH.relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    import_program()
    if args.record_golden:
        record_golden()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        workload = WORKLOADS[args.workload]()
        workload.setup(OUT_DIR)
        print(time.perf_counter() - _T_BOOT)
        return 0
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
