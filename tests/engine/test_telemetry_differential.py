"""Telemetry is observation-only: verdicts are identical on and off.

The whole ``repro.obs`` layer must be differentially safe — enabling
the sink changes no verdict, witness, state count, or cache key.  These
tests run the canonical gadget explorations twice, with telemetry
disabled and enabled, and assert the ``ExplorationResult`` values are
equal (dataclass equality covers oscillation, completeness, state and
pruning counts, and the witness itself), for both engines and both
reducers.  They also pin the event stream the enabled runs produce:
one run record, per-exploration verdict records, heartbeats past the
first checkpoint, and a final summary.
"""

import json

import pytest

from repro import obs
from repro.core.instances import bad_gadget, disagree, fig6_gadget
from repro.engine.explorer import can_oscillate
from repro.models.taxonomy import model


@pytest.fixture(autouse=True)
def _restore_active():
    previous = obs.active()
    yield
    obs.install(previous)


def explore_both_ways(instance, model_name, tmp_path, **kwargs):
    """Run one exploration with telemetry off, then on; return both."""
    plain = can_oscillate(instance, model(model_name), **kwargs)
    obs.configure(tmp_path / "t.jsonl", run={"command": "test"})
    try:
        instrumented = can_oscillate(instance, model(model_name), **kwargs)
    finally:
        obs.shutdown()
    return plain, instrumented


class TestVerdictsUnchanged:
    @pytest.mark.parametrize("model_name", ["R1O", "REA", "RMS", "U1A"])
    @pytest.mark.parametrize("engine", ["compiled", "reference"])
    def test_disagree(self, model_name, engine, tmp_path):
        plain, instrumented = explore_both_ways(
            disagree(), model_name, tmp_path, queue_bound=2, engine=engine
        )
        assert plain == instrumented

    @pytest.mark.parametrize("reduction", ["ample", "none"])
    def test_bad_gadget_across_reducers(self, reduction, tmp_path):
        plain, instrumented = explore_both_ways(
            bad_gadget(), "R1O", tmp_path, queue_bound=2, reduction=reduction
        )
        assert plain == instrumented
        assert plain.oscillates

    def test_fig6_safety_with_heartbeats(self, tmp_path):
        """A search past the first checkpoint: heartbeats fire, verdict
        still matches the uninstrumented run."""
        plain, instrumented = explore_both_ways(
            fig6_gadget(), "REA", tmp_path, queue_bound=2, reduction="none"
        )
        assert plain == instrumented
        assert not plain.oscillates
        assert plain.states_explored > 1024

    def test_cached_verdict_unchanged(self, tmp_path):
        """Telemetry neither perturbs the cache key nor the round-trip:
        a hit equals the fresh result (``cache_hit`` is compare=False)."""
        cache_dir = tmp_path / "cache"
        kwargs = dict(queue_bound=2, cache=str(cache_dir))
        cold, warm = explore_both_ways(
            disagree(), "R1O", tmp_path, **kwargs
        )
        assert cold == warm
        assert cold.cache_hit is False
        assert warm.cache_hit is True


class TestEventStream:
    def read(self, path):
        with open(path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]

    def test_explore_emits_run_verdict_summary(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path, run={"command": "test"})
        try:
            result = can_oscillate(disagree(), model("R1O"), queue_bound=2)
        finally:
            obs.shutdown()
        records = self.read(path)
        kinds = [record["type"] for record in records]
        assert kinds[0] == "run" and kinds[-1] == "summary"
        verdict = next(r for r in records if r["type"] == "verdict")
        assert verdict["model"] == "R1O"
        assert verdict["instance"] == "DISAGREE"
        assert verdict["oscillates"] is True
        assert verdict["states"] == result.states_explored
        summary = records[-1]
        assert summary["counters"]["explore.runs"] >= 1
        assert summary["counters"]["explore.states"] >= result.states_explored
        assert "explore.search" in summary["spans"]

    @pytest.mark.parametrize("engine", ["compiled", "packed"])
    def test_heartbeats_carry_search_shape(self, engine, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.configure(path, run={"command": "test"})
        try:
            can_oscillate(
                fig6_gadget(),
                model("REA"),
                queue_bound=2,
                reduction="none",
                engine=engine,
            )
        finally:
            obs.shutdown()
        beats = [
            record
            for record in self.read(path)
            if record["type"] == "heartbeat"
        ]
        assert beats, "search past 1024 states must heartbeat"
        for beat in beats:
            assert beat["phase"] == "explore"
            assert beat["engine"] == engine
            assert beat["states"] >= 1024
            assert beat["elapsed_s"] >= 0.0
        states = [beat["states"] for beat in beats]
        assert states == sorted(states)  # geometric checkpoints in order

    def test_cache_counters_recorded(self, tmp_path):
        path = tmp_path / "t.jsonl"
        cache_dir = str(tmp_path / "cache")
        obs.configure(path, run={"command": "test"})
        try:
            can_oscillate(disagree(), model("R1O"), cache=cache_dir)
            can_oscillate(disagree(), model("R1O"), cache=cache_dir)
        finally:
            obs.shutdown()
        summary = self.read(path)[-1]
        assert summary["counters"]["cache.miss"] == 1
        assert summary["counters"]["cache.hit"] == 1
        assert summary["counters"]["cache.write"] == 1
        assert summary["spans"]["cache.get"]["calls"] == 2
        assert summary["spans"]["cache.put"]["calls"] == 1
