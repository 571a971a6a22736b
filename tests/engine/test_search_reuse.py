"""One search per (instance, model, bounds), one table build per instance.

``can_oscillate`` memoizes every search result on the instance object,
so the reliable-twin pre-pass of an unreliable model (Prop. 3.3(1):
every Rxy activation sequence is a Uxy sequence) and the reliable
model's own task share one search.  ``PackedExplorer`` adopts the
model-independent tables (bit layout, append constants, node masks,
automorphism group) from a per-instance memo.  Both are pure
performance changes: nothing here may tell a shared instance object
from a fresh one, or one run order from another.
"""

import random

import pytest

from repro import obs
from repro.analysis.experiments import matrix_certification
from repro.config import RunConfig
from repro.core import instances as canonical
from repro.core.generators import random_instance
from repro.engine import packed
from repro.engine.explorer import Explorer, can_oscillate
from repro.models.dimensions import Reliability
from repro.models.taxonomy import ALL_MODELS, CommunicationModel, model

#: Instance factories: each call returns a fresh object.
INSTANCES = {
    "disagree": canonical.disagree,
    "fig7": canonical.fig7_gadget,
    "disagree-grid-2": lambda: canonical.disagree_grid(2),
}
for _seed in range(8):
    INSTANCES[f"random-{_seed}"] = lambda seed=_seed: random_instance(seed)

#: The reference engine runs where its 24-model certification takes a
#: fraction of a second; on the others it takes seconds to minutes.
REFERENCE_CASES = ("disagree", "random-0", "random-2", "random-4")

#: A state budget small enough that some searches truncate, so the
#: memo is exercised on incomplete results too.
MAX_STATES = 2_000

UNRELIABLE = [m for m in ALL_MODELS if m.reliability is Reliability.UNRELIABLE]


def config(engine, queue_bound=2, **fields):
    return RunConfig(
        engine=engine, queue_bound=queue_bound, step_bound=MAX_STATES,
        cache=False, **fields,
    )


def twin(unreliable):
    return CommunicationModel(
        Reliability.RELIABLE, unreliable.scope, unreliable.count
    )


def certify_shared(make, cfg, models=ALL_MODELS):
    instance = make()
    return {m.name: can_oscillate(instance, m, config=cfg) for m in models}


def certify_fresh(make, cfg):
    return {m.name: can_oscillate(make(), m, config=cfg) for m in ALL_MODELS}


CASES = [
    (name, engine, queue_bound)
    for name in INSTANCES
    for engine in ("compiled", "packed", "reference")
    if engine != "reference" or name in REFERENCE_CASES
    for queue_bound in (1, 2)
]


@pytest.mark.parametrize("name,engine,queue_bound", CASES)
def test_shared_object_equals_fresh_objects(name, engine, queue_bound):
    cfg = config(engine, queue_bound)
    shared = certify_shared(INSTANCES[name], cfg)
    fresh = certify_fresh(INSTANCES[name], cfg)
    # ExplorationResult equality covers every field, witness included.
    assert shared == fresh


@pytest.mark.parametrize("name", ["disagree", "disagree-grid-2", "random-1"])
@pytest.mark.parametrize("engine", ["compiled", "packed"])
def test_run_order_does_not_matter(name, engine):
    cfg = config(engine)
    runs = []
    for seed in (1, 2):
        order = list(ALL_MODELS)
        random.Random(seed).shuffle(order)
        runs.append(certify_shared(INSTANCES[name], cfg, order))
    assert runs[0] == runs[1]


class Counting:
    """Telemetry plus a count of explorer constructions."""

    def __init__(self, monkeypatch, engine):
        self.constructions = 0
        owner = Explorer if engine == "reference" else packed.PackedExplorer
        original = owner.__init__

        def counted(explorer, *args, **kwargs):
            self.constructions += 1
            original(explorer, *args, **kwargs)

        monkeypatch.setattr(owner, "__init__", counted)
        self.telemetry = obs.Telemetry()

    def __enter__(self):
        self.previous = obs.install(self.telemetry)
        return self

    def __exit__(self, *exc_info):
        obs.install(self.previous)

    def counter(self, name):
        return self.telemetry.counters.get(name, 0)


@pytest.mark.parametrize("engine", ["compiled", "packed", "reference"])
@pytest.mark.parametrize("name", ["disagree", "random-0"])
def test_each_distinct_search_runs_once(monkeypatch, engine, name):
    with Counting(monkeypatch, engine) as counting:
        results = matrix_certification(
            instance=INSTANCES[name](), config=config(engine, workers=1)
        )
    # Every unreliable model's twin pre-pass is the search its reliable
    # twin's own task runs: one reuse each, whichever runs first.
    assert counting.counter("explore.search_reused") == len(UNRELIABLE)
    # Distinct searches: every reliable model, plus the lossy search of
    # each unreliable model whose twin found no oscillation.
    distinct = len(ALL_MODELS) - len(UNRELIABLE) + sum(
        1 for m in UNRELIABLE if not results[twin(m).name].oscillates
    )
    assert counting.constructions == distinct
    # One table build for the whole certification (none for reference).
    assert counting.counter("explore.plan_built") == (engine != "reference")


@pytest.mark.parametrize(
    "field,first,second",
    [
        ("step_bound", 40, MAX_STATES),
        ("engine", "compiled", "packed"),
        ("engine", "compiled", "reference"),
        ("engine", "packed", "reference"),
        ("reduction", "ample", "none"),
        ("queue_bound", 1, 2),
    ],
)
def test_keys_differing_in_one_bound_share_nothing(monkeypatch, field, first, second):
    make = INSTANCES["disagree-grid-2"]
    instance = make()
    bounds = dict(engine="compiled", queue_bound=2, step_bound=MAX_STATES)
    results = []
    for value in (first, second):
        bounds[field] = value
        with Counting(monkeypatch, bounds["engine"]) as counting:
            result = can_oscillate(
                instance, model("R1O"), config=RunConfig(cache=False, **bounds)
            )
        assert counting.counter("explore.search_reused") == 0
        assert counting.constructions == 1
        assert result == can_oscillate(
            make(), model("R1O"), config=RunConfig(cache=False, **bounds)
        )
        results.append(result)
    if {first, second} != {"compiled", "reference"}:
        # The results themselves differ too (compiled and reference are
        # bit-identical by contract; the orbit quotient merges states on
        # this symmetric instance).
        assert results[0] != results[1]


def test_repeated_call_reuses_the_search(monkeypatch):
    instance = canonical.disagree()
    cfg = config("compiled")
    first = can_oscillate(instance, model("UEO"), config=cfg)
    assert not first.oscillates
    with Counting(monkeypatch, "compiled") as counting:
        second = can_oscillate(instance, model("UEO"), config=cfg)
    assert second == first
    assert counting.constructions == 0
    # UEO is safe: both its twin pre-pass (REO) and its lossy search.
    assert counting.counter("explore.search_reused") == 2


class TestSharedTables:
    def test_explorers_of_one_instance_share_tables_not_memos(self):
        instance = canonical.disagree_grid(2)
        a = packed.PackedExplorer(instance, model("R1O"), queue_bound=2)
        b = packed.PackedExplorer(instance, model("UEA"), queue_bound=2)
        for attribute in ("_wval", "_ap", "_cv", "_node_mask", "_nperms"):
            assert getattr(a, attribute) is getattr(b, attribute)
        assert a._gsize > 1
        for attribute in ("_menus", "_node_memo", "_omemo", "_ops"):
            assert getattr(a, attribute) is not getattr(b, attribute)
        assert a._collapse is False and a._e_nodes == ()
        assert b._count_all is True and b._e_nodes != ()

    def test_tables_are_keyed_by_bounds_and_symmetry(self):
        instance = canonical.disagree_grid(2)
        base = packed.PackedExplorer(instance, model("R1O"), queue_bound=2)
        for kwargs in (
            dict(queue_bound=3),
            dict(queue_bound=2, reduction="none"),
            dict(queue_bound=2, symmetry="none"),
        ):
            other = packed.PackedExplorer(instance, model("R1O"), **kwargs)
            assert other._ap is not base._ap
        identity = packed.PackedExplorer(
            instance, model("R1O"), queue_bound=2, symmetry="none"
        )
        assert identity._gsize == 1

    def test_one_build_per_key(self):
        instance = canonical.disagree()
        telemetry = obs.Telemetry()
        previous = obs.install(telemetry)
        try:
            for m in ALL_MODELS:
                packed.PackedExplorer(instance, m, queue_bound=2)
            packed.PackedExplorer(instance, model("R1O"), queue_bound=1)
        finally:
            obs.install(previous)
        assert telemetry.counters["explore.plan_built"] == 2
