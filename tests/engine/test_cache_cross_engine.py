"""A cached verdict depends only on its key, never on who filled it.

Packed's orbit quotient changes state counts (and may strengthen
``complete``), so a cache filled by one engine must never answer
another engine with different observables.  For every ordered engine
pair, on DISAGREE and ``disagree_grid(2)``, the cache is filled with
one engine and queried with the other; the answer must equal a cold
run of the querying engine, in process and over HTTP through
:class:`~repro.serve.VerdictService`.
"""

import itertools

import pytest

from repro.config import RunConfig
from repro.core import instances as gadgets
from repro.engine.explorer import ENGINE_SYMMETRY, can_oscillate
from repro.models.taxonomy import ALL_MODELS
from repro.serve import ReproServer, ServeConfig, VerdictService
from repro.serve.client import ServeClient

ENGINES = ("compiled", "packed", "reference")
PAIRS = list(itertools.permutations(ENGINES, 2))
INSTANCES = {
    "disagree": gadgets.disagree,
    "grid2": lambda: gadgets.disagree_grid(2),
}
QUEUE_BOUND = 2
MAX_STATES = 2_000


def certify(instance, engine, cache):
    config = RunConfig(
        engine=engine,
        cache=cache,
        workers=1,
        queue_bound=QUEUE_BOUND,
        step_bound=MAX_STATES,
    )
    return {m.name: can_oscillate(instance, m, config=config) for m in ALL_MODELS}


@pytest.fixture(scope="module")
def cold():
    return {
        (name, engine): certify(factory(), engine, cache=False)
        for name, factory in INSTANCES.items()
        for engine in ENGINES
    }


@pytest.mark.parametrize("instance_name", INSTANCES)
def test_packed_counts_differ_from_compiled(cold, instance_name):
    # Without a difference to leak, the isolation tests below would
    # pass vacuously.
    compiled = cold[instance_name, "compiled"]
    packed = cold[instance_name, "packed"]
    assert compiled == cold[instance_name, "reference"]
    assert any(
        packed[name].states_explored != compiled[name].states_explored
        for name in compiled
    )


@pytest.mark.parametrize("instance_name", INSTANCES)
@pytest.mark.parametrize("filler,querier", PAIRS)
def test_in_process(cold, tmp_path, instance_name, filler, querier):
    instance = INSTANCES[instance_name]()
    cache_dir = str(tmp_path / "cache")
    certify(instance, filler, cache_dir)
    answered = certify(instance, querier, cache_dir)
    assert answered == cold[instance_name, querier]
    shared = ENGINE_SYMMETRY[filler] == ENGINE_SYMMETRY[querier]
    assert all(result.cache_hit is shared for result in answered.values())


@pytest.mark.parametrize("instance_name", INSTANCES)
@pytest.mark.parametrize("filler,querier", PAIRS)
def test_over_http(cold, tmp_path, instance_name, filler, querier):
    # The daemon runs the querying engine by default; the fill names
    # the other engine explicitly in its request.
    instance = INSTANCES[instance_name]()
    service = VerdictService(
        ServeConfig(cache_dir=str(tmp_path / "cache"), engine=querier)
    )
    bounds = dict(queue_bound=QUEUE_BOUND, max_states=MAX_STATES)
    with ReproServer(service) as server, ServeClient(server.url) as client:
        client.query(instance, engine=filler, **bounds)
        response = client.query(instance, **bounds)
    assert response.results(instance) == cold[instance_name, querier]
