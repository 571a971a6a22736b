"""Differential tests: the compiled engine ≡ the reference engine.

``engine="compiled"`` runs the packed search (``repro.engine.packed``)
over the identity automorphism group, on states interned by
``repro.engine.compiled``.  Nothing in these tests knows *how* — they
only demand that every observable artifact is bit-identical to the
didactic reference implementation: trace states, final assignments,
explorer verdicts, state counts, and oscillation witnesses.  Symmetric
instances are included on purpose: they are where the identity group
differs from packed's orbit quotient.  Seeded hypothesis sweeps keep
the comparison honest on instances nobody hand-picked.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import instances as canonical
from repro.core.canonical import automorphisms
from repro.core.generators import random_instance
from repro.engine.compiled import apply_packed, codec_for
from repro.engine.execution import Execution
from repro.engine.explorer import Explorer, can_oscillate
from repro.engine.packed import PackedExplorer
from repro.engine.schedulers import RandomScheduler
from repro.engine.state import NetworkState
from repro.models.taxonomy import ALL_MODELS, model

from ..conftest import record_random_schedule

model_indexes = st.integers(min_value=0, max_value=len(ALL_MODELS) - 1)
seeds = st.integers(min_value=0, max_value=10_000)

SLOW = dict(max_examples=25, deadline=None)

#: A generated 4-node instance with a nontrivial automorphism group.
SYMMETRIC_SEED = 2


def result_tuple(result):
    return (
        result.model_name,
        result.instance_name,
        result.oscillates,
        result.complete,
        result.states_explored,
        result.truncated_states,
    )


def witness_tuple(witness):
    if witness is None:
        return None
    return (witness.prefix, witness.cycle, witness.assignments)


def replay_schedule(instance, schedule, initial_state=None):
    """Run a finite schedule through :func:`apply_packed`.

    Returns the post-step :class:`NetworkState` snapshots — the packed
    twin of ``Execution(instance).run(schedule).states`` under the
    default export-everything policy.
    """
    codec = codec_for(instance)
    packed = (
        codec.initial_packed()
        if initial_state is None
        else codec.pack_state(initial_state)
    )
    states = []
    for entry in schedule:
        node_ids, combo = codec.compile_entry(entry)
        packed = apply_packed(codec, packed, node_ids, combo)
        states.append(codec.unpack_state(packed))
    return states


class TestCodecRoundTrip:
    @settings(**SLOW)
    @given(seeds, model_indexes)
    def test_pack_unpack_identity_along_random_runs(self, seed, model_index):
        instance = random_instance(seed % 50, n_nodes=3)
        codec = codec_for(instance)
        execution = Execution(instance)
        scheduler = RandomScheduler(
            instance, ALL_MODELS[model_index], seed=seed, drop_prob=0.25
        )
        assert codec.unpack_state(codec.initial_packed()) == NetworkState.initial(
            instance
        )
        for _ in range(25):
            execution.step(scheduler.next_entry(execution.state))
            packed = codec.pack_state(execution.state)
            assert codec.unpack_state(packed) == execution.state

    def test_packing_is_injective_on_explored_states(self, disagree):
        codec = codec_for(disagree)
        explorer = Explorer(disagree, model("RMS"), engine="reference")
        seen = {}
        frontier = [explorer.canonicalize(NetworkState.initial(disagree))]
        visited = {frontier[0]}
        while frontier and len(visited) < 200:
            state = frontier.pop()
            packed = codec.pack_state(state)
            assert seen.setdefault(packed, state) == state
            for _, nxt in explorer.successors(state):
                nxt = explorer.canonicalize(nxt)
                if nxt not in visited:
                    visited.add(nxt)
                    frontier.append(nxt)


class TestCompiledStepEquivalence:
    @settings(**SLOW)
    @given(seeds, model_indexes)
    def test_replay_matches_execution_on_random_instances(
        self, seed, model_index
    ):
        instance = random_instance(seed % 50, n_nodes=3)
        model_ = ALL_MODELS[model_index]
        schedule = record_random_schedule(
            instance, model_.name, seed=seed, steps=40, drop_prob=0.25
        )
        reference = Execution(instance).run(schedule).states
        compiled = replay_schedule(instance, schedule)
        assert compiled == reference

    def test_replay_matches_on_canonical_gadgets(self):
        for factory in (
            canonical.disagree,
            canonical.fig6_gadget,
            canonical.fig7_gadget,
            canonical.bad_gadget,
            canonical.good_gadget,
        ):
            instance = factory()
            for model_name in ("R1O", "REA", "UMS"):
                schedule = record_random_schedule(
                    instance, model_name, seed=3, steps=50
                )
                reference = Execution(instance).run(schedule).states
                assert replay_schedule(instance, schedule) == reference

    def test_replay_from_mid_run_state(self, disagree):
        schedule = record_random_schedule(disagree, "RMS", seed=5, steps=30)
        reference = Execution(disagree).run(schedule).states
        resumed = replay_schedule(
            disagree, schedule[10:], initial_state=reference[9]
        )
        assert resumed == reference[10:]


class TestExplorerEquivalence:
    def assert_engines_agree(
        self, instance, model_name, queue_bound=2, max_states=20_000
    ):
        reference = Explorer(
            instance,
            model(model_name),
            queue_bound=queue_bound,
            max_states=max_states,
            engine="reference",
        ).explore()
        compiled = Explorer(
            instance,
            model(model_name),
            queue_bound=queue_bound,
            max_states=max_states,
            engine="compiled",
        ).explore()
        assert result_tuple(compiled) == result_tuple(reference)
        assert witness_tuple(compiled.witness) == witness_tuple(reference.witness)

    def test_disagree_all_single_node_models(self, disagree):
        for m in ALL_MODELS:
            if m.concurrency.name != "ONE":
                continue
            self.assert_engines_agree(disagree, m.name, queue_bound=3)

    def test_fig6_truncated_and_complete_searches(self, fig6):
        # Includes truncated searches, checkpoint-triggered early exits,
        # and the max_states overflow path.
        for name in ("R1O", "REO", "RMS", "REA", "UMS"):
            self.assert_engines_agree(
                fig6, name, queue_bound=2, max_states=5_000
            )

    def test_fig7_verdicts(self, fig7):
        for name in ("R1O", "REA", "U1S"):
            self.assert_engines_agree(
                fig7, name, queue_bound=2, max_states=5_000
            )

    @settings(**SLOW)
    @given(seeds, model_indexes)
    def test_random_instances_identical_results(self, seed, model_index):
        model_ = ALL_MODELS[model_index]
        if model_.concurrency.name != "ONE":
            return
        instance = random_instance(seed % 40, n_nodes=3)
        self.assert_engines_agree(
            instance, model_.name, queue_bound=2, max_states=3_000
        )

    def assert_symmetric_instance_agrees(self, instance, queue_bound):
        # A nontrivial group is what separates compiled (identity group)
        # from packed (orbit quotient); compiled must still equal the
        # reference result field for field, pruning counts and
        # witnesses included.
        assert len(automorphisms(instance)) > 1
        for m in ALL_MODELS:
            if m.concurrency.name != "ONE":
                continue
            compiled, reference = (
                Explorer(
                    instance,
                    m,
                    queue_bound=queue_bound,
                    max_states=3_000,
                    engine=engine,
                ).explore()
                for engine in ("compiled", "reference")
            )
            assert compiled == reference, m.name

    def test_disagree_grid_all_single_node_models(self):
        self.assert_symmetric_instance_agrees(
            canonical.disagree_grid(2), queue_bound=1
        )

    def test_seeded_random_symmetric_instance(self):
        self.assert_symmetric_instance_agrees(
            random_instance(SYMMETRIC_SEED, n_nodes=4), queue_bound=2
        )

    def test_compiled_merges_no_orbits(self):
        merged = {}
        for engine in ("compiled", "packed"):
            telemetry = obs.Telemetry()
            previous = obs.install(telemetry)
            try:
                Explorer(
                    canonical.disagree_grid(2),
                    model("R1O"),
                    queue_bound=2,
                    engine=engine,
                ).explore()
            finally:
                obs.install(previous)
            merged[engine] = telemetry.counters["explore.orbits_merged"]
        assert merged["compiled"] == 0
        assert merged["packed"] > 0

    def test_can_oscillate_engine_parameter(self, disagree):
        for name in ("R1O", "REA", "UMS", "UEA"):
            compiled = can_oscillate(
                disagree, model(name), queue_bound=3, engine="compiled"
            )
            reference = can_oscillate(
                disagree, model(name), queue_bound=3, engine="reference"
            )
            assert result_tuple(compiled) == result_tuple(reference)
            assert witness_tuple(compiled.witness) == witness_tuple(
                reference.witness
            )

    def test_packed_explorer_rejects_multi_node_models(self, disagree):
        import pytest

        from repro.models.dimensions import NodeConcurrency

        multi = model("R1A").with_concurrency(NodeConcurrency.UNRESTRICTED)
        for symmetry in ("none", "orbit"):
            with pytest.raises(ValueError):
                PackedExplorer(disagree, multi, symmetry=symmetry)

    def test_unknown_engine_rejected(self, disagree):
        import pytest

        with pytest.raises(ValueError):
            Explorer(disagree, model("R1O"), engine="vectorized")
