"""Regression sentinel: compare two run manifests cell by cell.

A ledger manifest (:mod:`repro.obs.ledger`) flattens into named numeric
cells — per-stage virtual CAD seconds, span counts, per-app speedups and
break-even times, candidate counts, fidelity cell outcomes, metrics
counters. The sentinel compares a baseline manifest against a candidate
manifest and exits non-zero on any regression, so CI can gate on
``repro regress --baseline <run>``. The paper's numbers (Tables I–IV,
break-even) come from the virtual clock; this gate keeps them
reproducible from run to run.

Every cell has one of three kinds, and each kind has one rule:

- **exact** — counts, status and the virtual clock (CAD stage seconds,
  VM cycles, the fleet-mix simulation): bit-reproducible for a fixed
  config, compared at relative 1e-9, so any drift names the cell;
- **modelled** — break-even times and the virtual-clock critpath/whatif
  cells: they fold the measured search milliseconds into a minutes-scale
  model, so they are deterministic to ~1e-6 and compared at 1e-4;
- **measured** — the host clock and everything scheduled by threads
  (``wall_seconds``, ``*.real_seconds``, search/compile milliseconds,
  serve latencies and admission): informational, until history noise
  bands (``--history N``) or an explicit ``--tol PATTERN=REL`` gate them.

:data:`CELL_KINDS` gives each top-level block a default kind and the few
keys that differ from it. A key matches whole dotted segments of the
cell name below the block; a ``*word*`` key matches any substring there
(the clock words in ``search_ms`` or ``break_even_seconds_mean``). When
several keys match, the longest wins, so declaration order never matters.

Noise bands: with repeat runs available (``--repeat N``), the candidate
value of each cell is the **median** over the N most recent runs and the
allowance is widened by ``3 x MAD`` (median absolute deviation), so a
flaky cell needs a real shift — not one unlucky sample — to fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fnmatch import fnmatchcase

from repro.util.tables import Table

EXACT, MODELLED, MEASURED = "exact", "modelled", "measured"

#: Relative tolerance per kind; ``None`` marks a cell informational.
KIND_TOLERANCES: dict[str, float | None] = {
    EXACT: 1e-9,
    MODELLED: 1e-4,
    MEASURED: None,
}

#: Host-clock words that mark a cell measured wherever they appear.
_CLOCK = {"*search*": MEASURED, "*compile*": MEASURED, "real_seconds": MEASURED}

#: Top-level block -> (default kind, {key: kind that differs}).
CELL_KINDS: dict[str, tuple[str, dict[str, str]]] = {
    "status": (EXACT, {}),
    "wall_seconds": (MEASURED, {}),
    # A dedup wait counts requests that raced an in-flight CAD run.
    "stages": (EXACT, {**_CLOCK, "dedup": MEASURED}),
    "scalars": (EXACT, {**_CLOCK, "*break_even*": MODELLED}),
    "fidelity": (EXACT, {**_CLOCK, "*break_even*": MODELLED}),
    # Hit/miss counts depend on what earlier runs left in the store.
    "cache": (MEASURED, {}),
    # Only the request outcomes are fixed by the load schedule.
    "serve": (
        MEASURED,
        {
            "requests.completed": EXACT,
            "requests.failed": EXACT,
            "unresolved": EXACT,
            "warm_p95_lower": EXACT,
        },
    ),
    # Serve, slot and cross-app counters sum over admitted requests, so
    # they inherit the admission's scheduling noise.
    "metrics": (
        EXACT,
        {
            **_CLOCK,
            "counters.cache": MEASURED,
            "counters.serve": MEASURED,
            "counters.slots": MEASURED,
            "counters.store.cross_app_hits": MEASURED,
        },
    ),
    "critpath": (MODELLED, {**_CLOCK, "real": MEASURED}),
    # whatif.mix re-simulates the fleet on the virtual clock.
    "whatif": (MODELLED, {**_CLOCK, "check": MEASURED, "mix": EXACT}),
    "slo": (MEASURED, {}),
    "vm": (
        EXACT,
        {
            **_CLOCK,
            "wall_seconds": MEASURED,
            "instructions_per_second": MEASURED,
            "dispatch": MEASURED,
            "saved_ms": MEASURED,
            "sampled": MEASURED,
            "fused": MEASURED,
        },
    ),
    "mix": (EXACT, {**_CLOCK, "*wall*": MEASURED}),
}


def cell_kind(cell: str) -> str:
    """The kind of *cell*: its block's default unless one of its keys matches.

    Plain keys match whole dotted segments below the block, ``*word*``
    keys any substring there. The longest matching key wins (ties by
    name), so the table's declaration order never matters.
    """
    block, _, rest = cell.partition(".")
    default, keys = CELL_KINDS.get(block, (EXACT, _CLOCK))
    path = f".{rest}."
    matches = [
        key
        for key in keys
        if (key.strip("*") in rest if key[0] == "*" else f".{key}." in path)
    ]
    if not matches:
        return default
    return keys[max(matches, key=lambda key: (len(key), key))]


#: Checked after any user tolerances, ahead of the cell kinds, when the
#: two compared runs used the persistent bitstream cache differently: a
#: warm run legitimately skips CAD work, so the per-stage span counts and
#: the implementation counter become informational. The *results* cells
#: (toolflow seconds, speedups, break-even) stay gated — cached stage
#: times are bit-identical to recomputed ones.
CACHE_DEMOTED_TOLERANCES: tuple[tuple[str, float | None], ...] = (
    ("stages.cad.*", None),
    ("metrics.counters.cad.*", None),
)

#: MAD multiplier for the repeat-run noise band.
NOISE_BAND_MADS = 3.0

#: Relative floor applied when a measured cell is promoted to *checked*
#: by a history-derived noise band (repro regress --history N): the
#: allowance is ``HISTORY_NOISE_REL_FLOOR * |baseline| + 3 x MAD``, so a
#: cell whose fleet history happens to be constant still tolerates small
#: drift instead of becoming an exact gate.
HISTORY_NOISE_REL_FLOOR = 0.05

#: Manifest config keys that are expected to differ between runs. ``jobs``,
#: ``backend``, and ``cache`` are execution strategy, not experiment
#: configuration: a parallel or cache-warmed run must remain comparable
#: against a serial baseline.
_VOLATILE_CONFIG_KEYS = frozenset(
    {
        "ledger",
        "log",
        "trace",
        "metrics",
        "out",
        "jobs",
        "backend",
        "cache",
        # Serve plane: the store directory is per-invocation scratch and
        # the listen address is bind-time detail, not experiment config.
        "store",
        "port",
        "host",
    }
)


def parse_tolerances(specs: list[str]) -> list[tuple[str, float | None]]:
    """Parse ``PATTERN=REL`` CLI specs (``REL`` = float, or ``info``)."""
    parsed: list[tuple[str, float | None]] = []
    for spec in specs:
        pattern, sep, value = spec.partition("=")
        if not sep or not pattern:
            raise ValueError(
                f"invalid tolerance {spec!r} (expected PATTERN=REL)"
            )
        if value.strip().lower() in ("info", "none"):
            parsed.append((pattern, None))
            continue
        try:
            rel = float(value)
        except ValueError:
            raise ValueError(
                f"invalid tolerance {spec!r}: {value!r} is not a number"
            ) from None
        if rel < 0:
            raise ValueError(f"invalid tolerance {spec!r}: must be >= 0")
        parsed.append((pattern, rel))
    return parsed


def resolve_tolerance(
    cell: str, tolerances: list[tuple[str, float | None]]
) -> float | None:
    """First matching ``(pattern, rel)`` override, else the cell kind's."""
    for pattern, tol in tolerances:
        if fnmatchcase(cell, pattern):
            return tol
    return KIND_TOLERANCES[cell_kind(cell)]


def flatten_cells(manifest: dict) -> dict[str, float]:
    """Flat ``cell-name -> numeric value`` view of one manifest."""
    cells: dict[str, float] = {}

    def put(name: str, value) -> None:
        if isinstance(value, bool):
            cells[name] = float(value)
        elif isinstance(value, (int, float)) and math.isfinite(value):
            cells[name] = float(value)

    put("wall_seconds", manifest.get("wall_seconds"))
    put("status", manifest.get("status"))

    for name, stage in (manifest.get("stages") or {}).items():
        for key in ("spans", "real_seconds", "virtual_seconds"):
            put(f"stages.{name}.{key}", stage.get(key))

    def walk(prefix: str, value) -> None:
        if prefix == "serve.config":
            return  # the daemon's config echo, compared as manifest config
        if isinstance(value, dict):
            for k, v in value.items():
                walk(f"{prefix}.{k}", v)
        else:
            put(prefix, value)

    fidelity = manifest.get("fidelity") or {}
    put("fidelity.failed", fidelity.get("failed"))
    for key, cell in (fidelity.get("cells") or {}).items():
        put(f"fidelity.{key}.actual", cell.get("actual"))
        if cell.get("passed") is not None:
            put(f"fidelity.{key}.passed", cell.get("passed"))

    for key, value in (manifest.get("cache") or {}).items():
        put(f"cache.{key}", value)

    metrics = manifest.get("metrics") or {}
    for name, value in (metrics.get("counters") or {}).items():
        put(f"metrics.counters.{name}", value)

    for block in ("scalars", "serve", "critpath", "whatif", "slo", "vm", "mix"):
        walk(block, manifest.get(block) or {})
    return cells


def median_mad(values: list[float]) -> tuple[float, float]:
    """Median and median-absolute-deviation of *values* (non-empty)."""
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    median = (
        ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])
    )
    deviations = sorted(abs(v - median) for v in ordered)
    mad = (
        deviations[mid] if n % 2 else 0.5 * (deviations[mid - 1] + deviations[mid])
    )
    return median, mad


@dataclass
class CellDelta:
    """One cell compared between baseline and candidate manifests."""

    cell: str
    baseline: float | None
    current: float | None
    tolerance: float | None  # None = informational
    noise: float = 0.0  # absolute allowance from the repeat-run MAD band
    samples: int = 1  # repeat runs folded into `current`

    @property
    def abs_delta(self) -> float | None:
        if self.baseline is None or self.current is None:
            return None
        return self.current - self.baseline

    @property
    def rel_delta(self) -> float | None:
        delta = self.abs_delta
        if delta is None:
            return None
        denom = max(abs(self.baseline), 1e-12)
        return delta / denom

    @property
    def checked(self) -> bool:
        return self.tolerance is not None

    @property
    def regressed(self) -> bool:
        if not self.checked:
            return False
        if self.baseline is None or self.current is None:
            return True  # a checked cell appeared or disappeared
        allowance = self.tolerance * max(abs(self.baseline), 1e-12)
        allowance += NOISE_BAND_MADS * self.noise
        return abs(self.current - self.baseline) > allowance

    def describe(self) -> str:
        if self.baseline is None:
            return f"{self.cell}: new cell (current {self.current:g})"
        if self.current is None:
            return f"{self.cell}: cell disappeared (baseline {self.baseline:g})"
        rel = self.rel_delta
        return (
            f"{self.cell}: baseline {self.baseline:g} -> current "
            f"{self.current:g} (delta {100.0 * rel:+.3f}%, "
            f"tol {self.tolerance:g}"
            + (f", noise band {NOISE_BAND_MADS:g}*MAD={self.noise:g}" if self.noise else "")
            + ")"
        )


@dataclass
class RegressionReport:
    """Cell-by-cell comparison of two run manifests."""

    baseline_id: str
    current_id: str
    deltas: list[CellDelta] = field(default_factory=list)
    config_mismatches: list[str] = field(default_factory=list)
    repeat_ids: list[str] = field(default_factory=list)
    #: Measured cells promoted to checked by history-derived noise bands.
    noise_banded: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[CellDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def checked(self) -> list[CellDelta]:
        return [d for d in self.deltas if d.checked]

    def render(self, show_all: bool = False) -> str:
        table = Table(
            columns=["cell", "baseline", "current", "delta %", "tol", "status"],
            title=(
                f"Regression check: {self.baseline_id} (baseline) vs "
                f"{self.current_id}"
            ),
        )
        shown = 0
        for d in sorted(
            self.deltas, key=lambda d: (not d.regressed, d.cell)
        ):
            changed = d.abs_delta is None or d.abs_delta != 0.0
            if not show_all and not changed and not d.regressed:
                continue
            status = (
                "FAIL" if d.regressed else ("ok" if d.checked else "info")
            )
            rel = d.rel_delta
            table.add_row(
                [
                    d.cell,
                    f"{d.baseline:g}" if d.baseline is not None else "-",
                    f"{d.current:g}" if d.current is not None else "-",
                    f"{100.0 * rel:+.3f}" if rel is not None else "-",
                    f"{d.tolerance:g}" if d.tolerance is not None else "info",
                    status,
                ]
            )
            shown += 1
        checked = self.checked
        passed = sum(1 for d in checked if not d.regressed)
        table.add_footer(
            [
                "total",
                f"{len(self.deltas)} cells",
                f"{shown} shown",
                "",
                "",
                f"{passed}/{len(checked)} pass",
            ]
        )
        return table.render()


def compare_manifests(
    baseline: dict,
    current: dict,
    tolerances: list[tuple[str, float | None]] | None = None,
    history: list[dict] | None = None,
    noise_bands: dict[str, dict] | None = None,
) -> RegressionReport:
    """Compare *current* against *baseline* cell by cell.

    *tolerances* are ``(pattern, rel)`` overrides checked in order before
    the demotions and the cell kinds (first match wins). *history* is an
    optional list of repeat-run manifests (the candidate included): each
    cell's candidate value becomes the median over the history and its
    allowance is widened by ``3 x MAD``.

    *noise_bands* maps cell names to ``{"median", "mad", "samples"}``
    dicts derived from fleet history (:func:`repro.obs.history.
    derive_noise_bands`). A banded cell whose resolved tolerance is
    ``None`` (i.e. measured/informational by default and not explicitly
    configured) is promoted to *checked* with allowance
    ``HISTORY_NOISE_REL_FLOOR * |baseline| + 3 x MAD`` — measured-cell
    tolerances come from observed history instead of hand tuning, while
    deterministic (virtual-clock) cells keep their exact gates untouched.
    """
    resolved = list(tolerances or [])
    base_cache = baseline.get("cache") or {}
    cur_cache = current.get("cache") or {}
    cache_differs = bool(base_cache) != bool(cur_cache) or base_cache.get(
        "hits", 0
    ) != cur_cache.get("hits", 0)
    if cache_differs:
        # User tolerances still win (they come first); the demotions
        # outrank only the cell kinds.
        resolved += list(CACHE_DEMOTED_TOLERANCES)
    # critpath / whatif blocks are attached post hoc (repro critpath /
    # repro whatif): a run analyzed only on one side is a workflow
    # difference, not a result drift, so demote the whole block instead of
    # failing on appeared/disappeared cells.
    onesided_blocks = [
        block
        for block in ("critpath", "whatif", "mix")
        if bool(baseline.get(block)) != bool(current.get(block))
    ]
    resolved += [(f"{block}.*", None) for block in onesided_blocks]
    base_cells = flatten_cells(baseline)
    cur_cells = flatten_cells(current)

    history_cells: list[dict[str, float]] = []
    repeat_ids: list[str] = []
    if history and len(history) > 1:
        history_cells = [flatten_cells(m) for m in history]
        repeat_ids = [str(m.get("run_id")) for m in history]

    report = RegressionReport(
        baseline_id=str(baseline.get("run_id", "baseline")),
        current_id=str(current.get("run_id", "current")),
        repeat_ids=repeat_ids,
    )

    base_config = {
        k: v
        for k, v in (baseline.get("config") or {}).items()
        if k not in _VOLATILE_CONFIG_KEYS
    }
    cur_config = {
        k: v
        for k, v in (current.get("config") or {}).items()
        if k not in _VOLATILE_CONFIG_KEYS
    }
    for key in sorted(set(base_config) | set(cur_config)):
        if base_config.get(key) != cur_config.get(key):
            report.config_mismatches.append(
                f"config.{key}: baseline {base_config.get(key)!r} != "
                f"current {cur_config.get(key)!r}"
            )
    for block in onesided_blocks:
        report.config_mismatches.append(
            f"{block} block recorded in only one of the runs; "
            f"{block}.* cells demoted to informational"
        )
    if cache_differs:
        report.config_mismatches.append(
            "bitstream-cache usage differs between runs: "
            f"baseline hits={base_cache.get('hits', 0)} vs "
            f"current hits={cur_cache.get('hits', 0)}; "
            "stages.cad.* and metrics.counters.cad.* demoted to informational"
        )

    for cell in sorted(set(base_cells) | set(cur_cells)):
        value = cur_cells.get(cell)
        noise = 0.0
        samples = 1
        if history_cells:
            values = [h[cell] for h in history_cells if cell in h]
            if len(values) > 1:
                value, mad = median_mad(values)
                noise = mad
                samples = len(values)
        tolerance = resolve_tolerance(cell, resolved)
        if tolerance is None and noise_bands:
            band = noise_bands.get(cell)
            if band and int(band.get("samples", 0)) >= 2:
                tolerance = HISTORY_NOISE_REL_FLOOR
                noise = max(noise, float(band.get("mad", 0.0)))
                report.noise_banded.append(cell)
        report.deltas.append(
            CellDelta(
                cell=cell,
                baseline=base_cells.get(cell),
                current=value,
                tolerance=tolerance,
                noise=noise,
                samples=samples,
            )
        )
    return report
