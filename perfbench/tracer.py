"""In-memory span tracing of the program's layers, from outside the program.

The traced run wraps public entry points of each layer (module
functions and class methods) for the duration of one workload pass,
records one span per call in memory, and restores the originals
afterwards.  Nothing under ``src/`` is modified; the program's own
telemetry registry is switched to an in-memory instance for the pass so
counters that are not visible at a public boundary (reduction table
builds, orbit merges, cache tiers, retries) can be read back.

A layer's self time is the summed duration of its spans minus the part
covered by child spans recorded on the same thread.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict


class Tracer:
    """Spans recorded in memory, folded per layer as they end: calls,
    total time, self time, and engine time inside fan-out spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: dict = defaultdict(float)
        self.total_s: dict = defaultdict(float)
        self.calls: dict = defaultdict(int)
        self.counts: dict = defaultdict(int)
        #: Engine time (set-up + search) contained in each parallel span.
        self.engine_in_parallel_s = 0.0
        self.root_s: dict = defaultdict(float)  # thread name -> root span time
        self._patches: list = []

    # -- recording ----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, layer: str, function, *args, **kwargs):
        """Call ``function`` inside a span named ``layer``."""
        stack = self._stack()
        frame = [layer, 0.0, 0.0]  # name, child time, engine time inside
        stack.append(frame)
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            engine = duration if layer.startswith("engine.") else frame[2]
            with self._lock:
                self.calls[layer] += 1
                self.total_s[layer] += duration
                self.self_s[layer] += duration - frame[1]
                if layer == "parallel":
                    self.engine_in_parallel_s += frame[2]
                if not stack:
                    self.root_s[threading.current_thread().name] += duration
            if stack:
                stack[-1][1] += duration
                stack[-1][2] += engine

    def count(self, name: str, value: int = 1) -> None:
        with self._lock:
            self.counts[name] += value

    # -- patching ------------------------------------------------------------
    def wrap(self, owner, attribute: str, layer: str, after=None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper.

        ``after(result, args, kwargs)`` runs outside the span and may
        record counts from the call's result.
        """
        original = getattr(owner, attribute)
        tracer = self

        def traced(*args, **kwargs):
            result = tracer.span(layer, original, *args, **kwargs)
            if after is not None:
                after(result, args, kwargs)
            return result

        traced.__wrapped__ = original
        setattr(owner, attribute, traced)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()


def install_layers(tracer: Tracer) -> None:
    """Wrap the in-process layers: canonical, engine, reduction,
    parallel, cache and the campaign joiner/coordinator."""
    from repro.campaign import queue as queue_module
    from repro.campaign import runner, worker
    from repro.engine import cache, compiled, packed, parallel

    # core.canonical, at the bindings its consumers call through.
    def hashed(result, args, kwargs):
        tracer.count("canonical.hash_calls")

    tracer.wrap(cache, "canonical_hash", "canonical.hash", after=hashed)
    tracer.wrap(packed, "automorphisms", "canonical.automorphisms")

    # engine.packed: construction is set-up, explore() is the search.
    def searched(result, args, kwargs):
        tracer.count("engine.states", result.states_explored)
        tracer.count("engine.states_pruned", result.states_pruned)
        tracer.count("engine.complete", int(result.complete))

    tracer.wrap(packed.PackedExplorer, "__init__", "engine.setup")
    tracer.wrap(packed.PackedExplorer, "explore", "engine.search", after=searched)

    # engine.reduction tables, as the compiled codec (which the packed
    # engine builds on) requests them.
    tracer.wrap(compiled, "representative_tables", "reduction.tables")

    # engine.parallel: the fan-out of fig7-certify and of campaign shards.
    def fanned(result, args, kwargs):
        tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
        tracer.count("parallel.tasks", len(tasks))

    tracer.wrap(parallel, "parallel_map", "parallel", after=fanned)
    tracer.wrap(runner, "parallel_map_retrying", "parallel", after=fanned)

    # engine.cache.
    tracer.wrap(cache.VerdictCache, "get", "cache.get")
    tracer.wrap(cache.VerdictCache, "get_payload", "cache.get")
    tracer.wrap(cache.VerdictCache, "put", "cache.put")

    # campaign: joiner round trips, coordinator-side work, queue claims.
    def completed(result, args, kwargs):
        tracer.count("campaign.shards")

    tracer.wrap(worker.CoordinatorClient, "claim", "campaign.claim")
    tracer.wrap(worker.CoordinatorClient, "complete", "campaign.complete", after=completed)
    tracer.wrap(worker, "compute_shard_records", "campaign.compute")
    tracer.wrap(runner.Campaign, "write_shard_checkpoint", "campaign.checkpoint")
    tracer.wrap(runner.Campaign, "write_report", "campaign.report")
    tracer.wrap(queue_module.SQLiteWorkQueue, "claim", "queue.claim")


#: Program telemetry counters read back after a traced pass.
TELEMETRY_COUNTERS = {
    "reduction.table_builds": "reduction.table_builds",
    "reduction.table_hits": "reduction.table_hits",
    "engine.orbits_merged": "explore.orbits_merged",
    "cache.mem_hits": "cache.mem_hit",
    "cache.hits": "cache.hit",
    "cache.misses": "cache.miss",
    "cache.writes": "cache.write",
    "parallel.retries": "parallel.task.retry",
    "campaign.leases_lost": "campaign.lease.lost.midshard",
}


class TracedPass:
    """Context manager: layers wrapped and an in-memory telemetry
    registry active for the duration of one workload pass."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.counters: dict = {}
        self._previous = None

    def __enter__(self) -> Tracer:
        from repro.obs import telemetry

        self._telemetry = telemetry.Telemetry()
        self._previous = telemetry.install(self._telemetry)
        install_layers(self.tracer)
        return self.tracer

    def telemetry_counter(self, name: str) -> int:
        return self._telemetry.counters.get(name, 0)

    def __exit__(self, *exc_info) -> None:
        from repro.obs import telemetry

        self.tracer.restore()
        telemetry.install(self._previous)
        self.counters = dict(self._telemetry.counters)


def layer_metrics(traced: TracedPass, wall_s: float) -> dict:
    """Per-layer metrics of one traced in-process pass (name -> value)."""
    tracer = traced.tracer
    counters = traced.counters
    out: dict = {}
    for name, source in TELEMETRY_COUNTERS.items():
        out[name] = counters.get(source, 0)
    out["canonical.hash_calls"] = tracer.counts["canonical.hash_calls"]
    out["canonical.hash_s"] = tracer.self_s["canonical.hash"]
    out["canonical.automorphisms_s"] = tracer.self_s["canonical.automorphisms"]
    out["engine.setups"] = tracer.calls["engine.setup"]
    out["engine.setup_s"] = tracer.self_s["engine.setup"]
    out["engine.searches"] = tracer.calls["engine.search"]
    out["engine.search_s"] = tracer.self_s["engine.search"]
    for name in ("engine.states", "engine.states_pruned", "engine.complete"):
        out[name] = tracer.counts[name]
    search_s = tracer.total_s["engine.search"]
    out["engine.states_per_s"] = out["engine.states"] / search_s if search_s else 0.0
    out["reduction.tables_s"] = tracer.self_s["reduction.tables"]
    out["parallel.tasks"] = tracer.counts["parallel.tasks"]
    out["parallel.overhead_s"] = max(
        0.0, tracer.total_s["parallel"] - tracer.engine_in_parallel_s
    )
    out["cache.get_s"] = tracer.self_s["cache.get"]
    out["cache.put_s"] = tracer.self_s["cache.put"]
    out["cache.disk_hits"] = out["cache.hits"] - out["cache.mem_hits"]
    lookups = out["cache.hits"] + out["cache.misses"]
    out["cache.hit_ratio"] = out["cache.hits"] / lookups if lookups else 0.0
    for layer in ("claim", "compute", "checkpoint", "complete", "report"):
        out[f"campaign.{layer}_s"] = tracer.self_s[f"campaign.{layer}"]
    out["campaign.shards"] = tracer.counts["campaign.shards"]
    out["queue.claim_s"] = tracer.self_s["queue.claim"]
    main = tracer.root_s.get(threading.main_thread().name, 0.0)
    out["trace.unattributed_s"] = max(0.0, wall_s - main)
    return out
