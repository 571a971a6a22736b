"""Aggregation of telemetry JSONL streams → per-phase breakdown tables.

``repro stats run.jsonl [more.jsonl ...]`` reads every record, merges
the ``summary`` records (counters and span totals add; gauges keep the
last value seen), counts heartbeats and verdicts, and renders a table
grouping span wall time by *phase* — the first dot-separated segment of
the span name.  The four phases the engine emits are always shown, even
at zero, so a missing phase is visible instead of silently absent:

* ``explore`` — the bounded-search loops,
* ``reduction`` — partial-order-reduction table builds,
* ``cache`` — verdict-cache get/put latency,
* ``worker`` — parallel fan-out task time, queue wait, and idle time.

Anything else (future spans) lands in its own group after the four.
"""

from __future__ import annotations

import json

__all__ = [
    "KNOWN_PHASES",
    "TelemetryAggregate",
    "aggregate_files",
    "aggregate_records",
    "read_records",
    "render_phase_table",
    "render_counters",
]

#: Phase groups always present in the breakdown, in display order.
KNOWN_PHASES = ("explore", "reduction", "cache", "worker", "serve", "campaign")

#: Counters inlined into the phase table under their phase group (the
#: first dotted segment), so search-shape numbers — how much the packed
#: engine pruned, merged, and batched — read next to the wall time they
#: explain instead of hiding in the raw ``--counters`` dump.
PHASE_COUNTERS = (
    "explore.frontier_batches",
    "explore.orbits_merged",
    "explore.edges",
    "explore.menus_built",
    "explore.expansions_built",
    "explore.entries_folded",
    "explore.states_pruned",
    "explore.search_reused",
    "explore.plan_built",
    "reduction.table_builds",
    "reduction.table_hits",
    "cache.mem_hit",
    "cache.mem_evicted",
    "serve.requests",
    "serve.hot_hits",
    "serve.inflight_joins",
    "serve.batches",
    "serve.shed",
    "serve.retries",
    "serve.breaker.opened",
    "campaign.lease.claimed",
    "campaign.lease.reclaimed",
    "campaign.lease.completed",
    "campaign.lease.lost",
    "campaign.complete.duplicate",
    "campaign.shard.failed",
    "campaign.shard.quarantined",
)


class TelemetryAggregate:
    """Merged view over any number of telemetry record streams."""

    def __init__(self) -> None:
        self.runs = 0
        self.heartbeats = 0
        self.verdicts = 0
        self.summaries = 0
        self.trace_spans = 0
        self.elapsed_s = 0.0
        self.counters: dict = {}
        self.gauges: dict = {}
        self.spans: dict = {}  # name → {"calls", "total_s", "max_s"}
        # (host, pid) pairs seen on run records.  Multi-host campaign
        # streams (or one stream appended from several machines) merge
        # into one aggregate; this keeps the origins distinguishable so
        # the merge is visibly a merge, not a collision.
        self.sources: set = set()
        self.traces: set = set()
        # Mid-shard lease losses, verbatim: ``{"shard", "worker",
        # "elapsed_s"}`` per event.  These are the ones worth a warning
        # line — a worker stalled past the TTL and its shard was handed
        # to someone else while it kept computing.
        self.lease_losses: list = []

    def add_record(self, record: dict) -> None:
        kind = record.get("type")
        if kind == "campaign.lease.lost":
            self.lease_losses.append(
                {
                    "shard": record.get("shard"),
                    "worker": record.get("worker"),
                    "elapsed_s": record.get("elapsed_s"),
                }
            )
        if kind == "run":
            self.runs += 1
            self.sources.add((record.get("host"), record.get("pid")))
        elif kind == "heartbeat":
            self.heartbeats += 1
        elif kind == "verdict":
            self.verdicts += 1
        elif kind == "span":
            self.trace_spans += 1
            if record.get("trace"):
                self.traces.add(record["trace"])
        elif kind == "summary":
            self.summaries += 1
            self.elapsed_s += record.get("elapsed_s", 0.0)
            for name, value in record.get("counters", {}).items():
                self.counters[name] = self.counters.get(name, 0) + value
            self.gauges.update(record.get("gauges", {}))
            for name, cell in record.get("spans", {}).items():
                merged = self.spans.setdefault(
                    name, {"calls": 0, "total_s": 0.0, "max_s": 0.0}
                )
                merged["calls"] += cell.get("calls", 0)
                merged["total_s"] += cell.get("total_s", 0.0)
                merged["max_s"] = max(merged["max_s"], cell.get("max_s", 0.0))

    # -- grouping -------------------------------------------------------
    def phases(self) -> dict:
        """Span totals grouped by phase (first dotted segment).

        Returns ``{phase: {"total_s", "calls", "spans": {name: cell}}}``
        with the :data:`KNOWN_PHASES` always present.
        """
        groups: dict = {
            phase: {"total_s": 0.0, "calls": 0, "spans": {}}
            for phase in KNOWN_PHASES
        }
        for name, cell in sorted(self.spans.items()):
            phase = name.split(".", 1)[0]
            group = groups.setdefault(
                phase, {"total_s": 0.0, "calls": 0, "spans": {}}
            )
            group["total_s"] += cell["total_s"]
            group["calls"] += cell["calls"]
            group["spans"][name] = cell
        return groups

    def hosts(self) -> dict:
        """``{host: run count}`` over the merged streams."""
        counts: dict = {}
        for host, _pid in self.sources:
            key = host or "(unknown)"
            counts[key] = counts.get(key, 0) + 1
        return dict(sorted(counts.items()))

    def events_dropped(self) -> int:
        """Events lost to failed sinks, per the degraded writers' counts."""
        return self.counters.get("telemetry.events_dropped", 0)

    def as_dict(self) -> dict:
        return {
            "runs": self.runs,
            "heartbeats": self.heartbeats,
            "verdicts": self.verdicts,
            "summaries": self.summaries,
            "trace_spans": self.trace_spans,
            "traces": len(self.traces),
            "hosts": self.hosts(),
            "events_dropped": self.events_dropped(),
            "elapsed_s": round(self.elapsed_s, 6),
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "phases": self.phases(),
            "lease_losses": list(self.lease_losses),
        }


def read_records(path) -> list:
    """Parse one JSONL file, skipping blank or torn lines."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # a torn tail line from a killed writer
            if isinstance(record, dict):
                records.append(record)
    return records


def aggregate_records(records) -> TelemetryAggregate:
    aggregate = TelemetryAggregate()
    for record in records:
        aggregate.add_record(record)
    return aggregate


def aggregate_files(paths) -> TelemetryAggregate:
    aggregate = TelemetryAggregate()
    for path in paths:
        for record in read_records(path):
            aggregate.add_record(record)
    return aggregate


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _mean_ms(cell: dict) -> float:
    calls = cell["calls"]
    return (cell["total_s"] / calls * 1000.0) if calls else 0.0


def render_phase_table(aggregate: TelemetryAggregate) -> str:
    """The per-phase wall-time breakdown table."""
    groups = aggregate.phases()
    grand_total = sum(group["total_s"] for group in groups.values())
    header = (
        f"runs: {aggregate.runs}   heartbeats: {aggregate.heartbeats}   "
        f"verdicts: {aggregate.verdicts}   "
        f"wall clock: {aggregate.elapsed_s:.3f}s"
    )
    hosts = aggregate.hosts()
    if len(hosts) > 1:
        header += "   hosts: " + ", ".join(
            f"{host}×{count}" for host, count in hosts.items()
        )
    if aggregate.trace_spans:
        header += (
            f"   trace spans: {aggregate.trace_spans}"
            f" ({len(aggregate.traces)} trace(s))"
        )
    lines = [header]
    dropped = aggregate.events_dropped()
    if dropped:
        lines.append(
            f"WARNING: {dropped} event(s) dropped by degraded telemetry "
            f"sink(s) — the stream is incomplete"
        )
    for loss in aggregate.lease_losses:
        elapsed = loss.get("elapsed_s")
        elapsed_text = (
            f" after {elapsed:.1f}s" if isinstance(elapsed, (int, float)) else ""
        )
        lines.append(
            f"WARNING: lease lost mid-shard on shard {loss.get('shard')} "
            f"(worker {loss.get('worker') or '?'}){elapsed_text} — the "
            "shard re-ran elsewhere; duplicate completion is harmless"
        )
    duplicates = aggregate.counters.get("campaign.complete.duplicate", 0)
    if duplicates:
        lines.append(
            f"note: {duplicates} duplicate shard completion(s) — "
            "write-once checkpoints kept exactly one copy"
        )
    if aggregate.runs > aggregate.summaries:
        lines.append(
            f"note: {aggregate.runs - aggregate.summaries} of "
            f"{aggregate.runs} run(s) have no summary record (stream "
            f"truncated or writer still live)"
        )
    lines += [
        "",
        "phase / span              |  calls |   total s |  mean ms |  share",
        "-" * 68,
    ]
    ordered = list(KNOWN_PHASES) + sorted(
        phase for phase in groups if phase not in KNOWN_PHASES
    )
    for phase in ordered:
        group = groups[phase]
        share = group["total_s"] / grand_total if grand_total else 0.0
        lines.append(
            f"{phase:<25} | {group['calls']:>6} | {group['total_s']:>9.3f} | "
            f"{'':>8} | {share:>6.1%}"
        )
        for name, cell in group["spans"].items():
            lines.append(
                f"  {name:<23} | {cell['calls']:>6} | {cell['total_s']:>9.3f} "
                f"| {_mean_ms(cell):>8.2f} | {'':>6}"
            )
        for name in PHASE_COUNTERS:
            if name.split(".", 1)[0] != phase:
                continue
            if name not in aggregate.counters:
                continue
            value = aggregate.counters[name]
            lines.append(
                f"  {name + ' (count)':<23} | {value:>6} | {'':>9} "
                f"| {'':>8} | {'':>6}"
            )
    return "\n".join(lines)


def render_counters(aggregate: TelemetryAggregate) -> str:
    """The counter/gauge registry as aligned ``name = value`` lines."""
    lines = []
    for name, value in sorted(aggregate.counters.items()):
        lines.append(f"{name:<28} = {value}")
    for name, value in sorted(aggregate.gauges.items()):
        lines.append(f"{name:<28} = {value}  (gauge)")
    return "\n".join(lines) if lines else "(no counters recorded)"
