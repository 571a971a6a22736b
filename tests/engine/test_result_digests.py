"""Pinned digests of packed-search results over a bounds grid.

Each digest is the sha256 (first 16 hex digits) of the ``repr`` of
every ``ExplorationResult`` one instance yields over symmetry mode ×
reduction × (queue bound, state budget) × the 24 single-node models,
in that loop order: verdicts, state counts, ``truncated_states``,
``states_pruned``, ``complete`` and witnesses.  The reprs depend on
neither the hash seed nor the numpy/scipy path, so one table serves
both CI runs.  A search-loop change that claims identical results must
leave every digest in place; one that changes results on purpose
reprints the table with ``PYTHONPATH=src python
tests/engine/test_result_digests.py``.
"""

import hashlib

import pytest

from repro.core import instances as gadgets
from repro.core.generators import random_instance
from repro.engine.packed import PackedExplorer
from repro.models.taxonomy import ALL_MODELS

SINGLE_NODE_MODELS = [m for m in ALL_MODELS if m.concurrency.name == "ONE"]

#: Truncation by the total bound alone, by both budgets, and by neither.
BOUNDS = ((1, 4_000), (2, 300), (2, 6_000))

#: Trivial groups (Fig. 7) and symmetric ones, with and without
#: witnesses; about 25 s in all on a 2-core x86-64 VM.
INSTANCES = {
    "disagree": gadgets.disagree,
    "fig7": gadgets.fig7_gadget,
    "bad-gadget": gadgets.bad_gadget,
    "disagree-grid": gadgets.disagree_grid,
    "random-1-4": lambda: random_instance(1, n_nodes=4),
    "random-5-4": lambda: random_instance(5, n_nodes=4),
}

DIGESTS = {
    "disagree": "32de8dcc1a2b6c1e",
    "fig7": "2ec187a8c1d149bb",
    "bad-gadget": "70df3e513cbd26b3",
    "disagree-grid": "028268f241da653f",
    "random-1-4": "25d9a14afa690a46",
    "random-5-4": "d7e7b739825919b9",
}


def grid_digest(factory):
    digest = hashlib.sha256()
    for symmetry in ("none", "orbit"):
        for reduction in ("ample", "none"):
            for queue_bound, max_states in BOUNDS:
                # One instance object per bounds, shared by the models,
                # as a certification shares it.
                instance = factory()
                for m in SINGLE_NODE_MODELS:
                    result = PackedExplorer(
                        instance, m, queue_bound=queue_bound,
                        max_states=max_states, reduction=reduction,
                        symmetry=symmetry,
                    ).explore()
                    digest.update(repr(result).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_results_match_the_pinned_digest(name):
    assert grid_digest(INSTANCES[name]) == DIGESTS[name]


if __name__ == "__main__":
    for name, factory in INSTANCES.items():
        print(f'    "{name}": "{grid_digest(factory)}",')
