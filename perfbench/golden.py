"""Golden correctness reference: record program outputs, compare every run.

Exact fields (VM output digests, steps, block-count digests, candidate
keys, virtual-clock stage seconds, reply counts) must match bit for bit. Break-even includes the real-clock
candidate-search time, so it is compared at a relative tolerance.

Placement wirelength and bitstream checksum are recorded and compared too,
but the program does not reproduce them across processes yet: the
candidate's port order follows object addresses
(``DataFlowGraph.inputs_of``/``outputs_of`` iterate a set of instructions),
so the net order, the annealing path and the bitstream drift with the
process's allocation history. Their mismatches are reported as *drift*, an
exact count printed on every run, instead of failing the operation; once the
program is deterministic, emptying :data:`DRIFT_FIELDS` makes them strict.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

GOLDEN_SCHEMA = "perfbench-golden/1"
GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: Per-candidate fields whose mismatches count as drift, not failure.
DRIFT_FIELDS = ("checksum", "wirelength")

#: Relative tolerance for fields that include real-clock search time.
BREAKEVEN_REL_TOL = 1e-4


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def block_digest(profile) -> str:
    """Digest of one execution profile's per-block counts."""
    rows = sorted(f"{f}/{b}={p.count}" for (f, b), p in profile.blocks.items())
    return _digest("\n".join(rows))


def _key(candidate) -> str:
    function, block, index = candidate.key
    return f"{function}/{block}/{index}"


def _finite(x: float):
    return x if math.isfinite(x) else None


def analysis_record(analysis, vm_runs: dict) -> dict:
    """Golden record of one ``AppAnalysis``.

    *vm_runs* maps dataset name -> ``ExecutionResult`` of that app's VM runs
    (captured by the workload, because the analysis keeps only profiles).
    """
    spec = analysis.compiled.spec
    datasets = {}
    for ds in spec.datasets:
        result = vm_runs[ds.name]
        datasets[ds.name] = {
            "output": _digest(repr(result.output)),
            "steps": result.steps,
            "blocks": block_digest(analysis.profiles[ds.name]),
        }
    report = analysis.specialization
    candidates = []
    for ci in report.implementations:
        impl = ci.implementation
        t = ci.times
        candidates.append(
            {
                "key": _key(ci.estimate.candidate),
                "checksum": impl.bitstream.checksum,
                "wirelength": impl.placement.final_wirelength,
                "stage_seconds": [t.c2v, t.syn, t.xst, t.tra, t.map, t.par, t.bitgen],
            }
        )
    return {
        "datasets": datasets,
        "selected_full": [_key(e.candidate) for e in analysis.search_full.selected],
        "selected": [_key(e.candidate) for e in analysis.search_pruned.selected],
        "failed": [_key(est.candidate) for est, _ in report.failed],
        "candidates": candidates,
        "toolflow_seconds": report.toolflow_seconds,
        "reconfiguration_seconds": report.reconfiguration_seconds,
        "breakeven": {
            "live_aware_seconds": _finite(analysis.breakeven.live_aware_seconds),
            "simple_seconds": _finite(analysis.breakeven.simple_seconds),
        },
    }


def reply_record(reply: dict) -> dict:
    """Golden record of one ``specialize`` reply."""
    result = reply.get("result") or {}
    return {
        "status": reply.get("status"),
        "candidates": result.get("candidates"),
        "cache_hits": result.get("cache_hits"),
    }


def compare(expected, actual, path: str = "") -> list[str]:
    """Mismatches between a golden record and a fresh one (empty = equal)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        out = []
        for key in sorted(set(expected) | set(actual)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in expected or key not in actual:
                out.append(f"{sub}: present on one side only")
            else:
                out.extend(compare(expected[key], actual[key], sub))
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(actual)} != golden {len(expected)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out.extend(compare(e, a, f"{path}[{i}]"))
        return out
    if path.startswith("breakeven") or ".breakeven." in path:
        if expected is None or actual is None:
            equal = expected is actual
        else:
            equal = math.isclose(actual, expected, rel_tol=BREAKEVEN_REL_TOL)
        return [] if equal else [f"{path}: {actual!r} != golden {expected!r} (rel 1e-4)"]
    if expected != actual or type(expected) is not type(actual):
        return [f"{path}: {actual!r} != golden {expected!r}"]
    return []


def split_drift(mismatches: list[str]) -> tuple[list[str], list[str]]:
    """Separate (failures, drift) among :func:`compare` mismatches."""
    failures, drift = [], []
    for m in mismatches:
        field = m.split(":", 1)[0].rsplit(".", 1)[-1]
        (drift if field in DRIFT_FIELDS else failures).append(m)
    return failures, drift


def load(path: Path = GOLDEN_PATH) -> dict:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if data.get("schema") != GOLDEN_SCHEMA:
        raise ValueError(f"{path}: unknown golden schema {data.get('schema')!r}")
    return data


def save(data: dict, path: Path = GOLDEN_PATH) -> None:
    data = {"schema": GOLDEN_SCHEMA, **data}
    Path(path).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
