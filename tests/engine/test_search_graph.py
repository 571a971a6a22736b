"""The packed search graph: one int64 per edge and per parent link.

``PackedExplorer.explore`` stores each edge as ``label << W | target``
with ``label = uid * |G| + tau`` (just ``uid`` on the trivial group),
each parent link the same way (``-1`` at the root), and no edge
sources: an expanded state owns the ``[adj_start, adj_end)`` range of
its out-edges, so the numpy passes rebuild sources from the ranges.
``W`` is the bit width of ``min(max_states, 2**32) - 1``, at least 1.

These tests pin the layout itself: the codes round-trip through every
decoder at the boundaries, each stored range is exactly the state's
re-expanded successors in order, derived sources match the ranges, and
the scipy and stdlib SCC screens agree on the same graph.  The
observable contract (bit-identical results) is pinned by the
differential and search-reuse suites.
"""

from array import array

import pytest

from repro import obs
from repro.core import instances as gadgets
from repro.core.generators import random_instance
from repro.engine.compiled import apply_packed
from repro.engine.explorer import Explorer
from repro.engine.packed import PackedExplorer
from repro.models.taxonomy import ALL_MODELS, model

SINGLE_NODE_MODELS = [m for m in ALL_MODELS if m.concurrency.name == "ONE"]

#: Instance factories: trivial group (fig7) and symmetric ones.
INSTANCES = {
    "disagree": gadgets.disagree,
    "fig7": gadgets.fig7_gadget,
    "disagree-grid-2": lambda: gadgets.disagree_grid(2),
}

#: Enough of the taxonomy to cover every scope, count and reliability.
MODELS = SINGLE_NODE_MODELS[::3]


class _Everything:
    """A member set containing every state index."""

    def __contains__(self, item):
        return True


def search(instance, m, symmetry="orbit", queue_bound=2, max_states=3_000):
    """``(explorer, result, graph)``: the graph as the final fairness
    pass saw it."""
    explorer = PackedExplorer(
        instance, m, queue_bound=queue_bound, max_states=max_states,
        symmetry=symmetry,
    )
    seen = []
    find = explorer._find_fair_oscillation

    def capture(graph):
        seen.append(graph)
        return find(graph)

    explorer._find_fair_oscillation = capture
    result = explorer.explore()
    return explorer, result, seen[-1]


def decode_edge(explorer, code):
    """``(uid, tau, target)`` through ``_threaded_adjacency``."""
    graph = ([0], None, array("q", [0]), array("q", [1]), array("q", [code]),
             None)
    tadj = explorer._threaded_adjacency([0], _Everything(), graph)
    [((target, thread), uid)] = tadj[(0, 0)]
    # Thread 0 is the identity, so the lifted thread is tau's inverse.
    return uid, explorer._inv_tab[thread], target


def decode_edges(explorer, graph, s):
    """The decoded ``(uid, tau, target)`` sequence of state s's range."""
    _, _, adj_start, adj_end, edges, _ = graph
    return [decode_edge(explorer, code)
            for code in edges[adj_start[s]:adj_end[s]]]


def encode(explorer, uid, tau, target):
    return ((uid * explorer._gsize + tau) << explorer._w) | target


@pytest.mark.parametrize("max_states,width", [
    (1, 1), (2, 1), (3, 2), (4, 2), (5, 3), (200_000, 18),
    (2 ** 32, 32), (2 ** 32 + 1, 32), (2 ** 40, 32),
])
def test_index_width(max_states, width):
    explorer = PackedExplorer(gadgets.disagree(), model("R1O"),
                              max_states=max_states)
    assert explorer._w == width


@pytest.mark.parametrize("max_states", [1, 2, 2 ** 32])
@pytest.mark.parametrize("factory,symmetry", [
    (gadgets.fig7_gadget, "none"),
    (lambda: random_instance(2, n_nodes=4), "orbit"),
], ids=["fig7-trivial", "random-2-symmetric"])
def test_codes_round_trip_at_the_boundaries(factory, symmetry, max_states):
    explorer, _, _ = search(factory(), model("UES"), symmetry=symmetry,
                            queue_bound=1, max_states=max_states)
    if symmetry == "orbit":
        assert explorer._gsize == 2
    top_uid = len(explorer._ops) - 1
    assert top_uid >= 0
    top_tau = explorer._gsize - 1
    top_target = min(max_states, 2 ** 32) - 1
    for uid in {0, top_uid}:
        for tau in {0, top_tau}:
            for target in {0, top_target}:
                code = encode(explorer, uid, tau, target)
                assert array("q", [code])[0] == code
                assert decode_edge(explorer, code) == (uid, tau, target)
            # A parent link decodes to (uid, tau) and walks to its
            # parent, here the root.
            parent = array("q", [-1, encode(explorer, uid, tau, 0)])
            graph = (None, None, None, None, None, parent)
            assert explorer._prefix_uids(1, graph) == [(uid, tau)]


def test_largest_registered_label_fits_beside_the_widest_index():
    explorer, _, _ = search(gadgets.disagree_grid(2), model("UES"),
                            max_states=2 ** 40)
    assert explorer._w == 32
    label = len(explorer._ops) * explorer._gsize - 1
    code = (label << 32) | (2 ** 32 - 1)
    assert array("q", [code])[0] == code


def test_a_label_too_wide_for_int64_raises():
    explorer = PackedExplorer(gadgets.disagree(), model("UES"),
                              symmetry="none")
    # With 62-bit indices only labels 0 and 1 fit: registering the
    # third op must fail loudly rather than wrap.
    explorer._w = 62
    with pytest.raises(OverflowError, match="int64 edge code"):
        explorer.explore()
    assert len(explorer._ops) == 2
    with pytest.raises(OverflowError):
        array("q").append(3 << 62)


def expected_sources(graph):
    _, _, adj_start, adj_end, edges, _ = graph
    sources = [None] * len(edges)
    for s, a in enumerate(adj_start):
        if a >= 0:
            for k in range(a, adj_end[s]):
                assert sources[k] is None
                sources[k] = s
    assert None not in sources
    return sources


@pytest.mark.parametrize("symmetry", ["none", "orbit"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_sources_derived_from_the_csr_ranges(name, symmetry):
    np = pytest.importorskip("numpy")
    for m in MODELS:
        explorer, _, graph = search(INSTANCES[name](), m, symmetry=symmetry)
        explorer._np = np
        order, counts = explorer._expansion_order(graph)
        assert np.repeat(order, counts).tolist() == expected_sources(graph)


def reexpand(explorer, graph, s):
    """State s's successors as ``(uid, tau, target)``, in the order the
    search emits them, rebuilt from the memoized expansion helpers.

    A menu entry is ``(base, delta, dtot, mult)``: parallel ops already
    folded into one entry, so each entry is one edge."""
    states, totals, _, _, _, _ = graph
    index_of = {word: i for i, word in enumerate(states)}
    gsize = explorer._gsize
    word = states[s]
    out = []

    def emit(uid, succ):
        tau = 0
        if gsize > 1:
            succ, tau = explorer._omemo.get(succ) or explorer._orbit_min(succ)
        # A successor not stored now was dropped by the state budget.
        if succ in index_of:
            out.append((uid, tau, index_of[succ]))

    forced = explorer._absorption_succ(word) if explorer._absorb else None
    if forced is not None:
        emit(forced[0].uid, forced[1])
        return out
    announced = (word >> explorer._ann_dest_off) & explorer._rmask
    if announced != explorer.codec.dest_route_id:
        kick = explorer._kickoff_succ(word)
        if kick is not None:
            emit(kick[0].uid, kick[1])
    for nid in range(explorer._n_nodes):
        if not word & explorer._in_qmask[nid]:
            continue
        key = word & explorer._node_mask[nid]
        entries, _ = explorer._node_entries(nid, key)
        for base, delta, dtot, _mult in entries:
            if totals[s] + dtot <= explorer._total_bound:
                emit((base >> explorer._w) // gsize, word + delta)
    return out


@pytest.mark.parametrize("symmetry", ["none", "orbit"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_each_range_is_the_reexpanded_successors_in_order(name, symmetry):
    for m in MODELS:
        explorer, _, graph = search(INSTANCES[name](), m, symmetry=symmetry)
        states, _, adj_start, _, _, parent = graph
        expanded = [s for s in range(len(states)) if adj_start[s] >= 0]
        assert expanded, m.name
        for s in expanded:
            assert decode_edges(explorer, graph, s) == \
                reexpand(explorer, graph, s), (m.name, s)
        # Each parent link is the edge that first reached the state.
        assert parent[0] == -1
        for child in range(1, len(states)):
            code = parent[child]
            source = code & explorer._tmask
            uid, tau = divmod(code >> explorer._w, explorer._gsize)
            assert (uid, tau, child) in decode_edges(explorer, graph, source)


def members_of(explorer):
    """Folded op uid -> the uids of the menu ops it stands for."""
    return {op.uid: key for key, op in explorer._fold_ops.items()}


@pytest.mark.parametrize("symmetry", ["none", "orbit"])
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_each_edge_is_one_successor_of_all_its_members(name, symmetry):
    """An edge's op, or each op folded into it, steps the decoded state
    through ``apply_packed`` to the edge's target and τ, and no range
    holds two edges from one node's menu to the same (τ, target)."""
    folded = 0
    for m in MODELS:
        explorer, _, graph = search(INSTANCES[name](), m, symmetry=symmetry)
        states, _, adj_start, _, _, _ = graph
        members = members_of(explorer)
        ops = explorer._ops
        for s in range(len(states)):
            if adj_start[s] < 0:
                continue
            packed = explorer._decode(states[s])
            edges = decode_edges(explorer, graph, s)
            for uid, tau, target in edges:
                for member in members.get(uid, (uid,)):
                    succ = explorer._encode(explorer._canonical(apply_packed(
                        explorer.codec, packed, *ops[member].entry
                    )))
                    if explorer._gsize > 1:
                        succ = explorer._orbit_min(succ)
                    else:
                        succ = (succ, 0)
                    assert succ == (states[target], tau), (m.name, s, uid)
            heads = [(ops[uid].nid, tau, target) for uid, tau, target in edges]
            assert len(heads) == len(set(heads)), (m.name, s)
        folded += len(members)
    assert folded  # the unreliable models fold some entries


def test_a_folded_op_ors_its_members_masks():
    explorer, _, _ = search(gadgets.fig7_gadget(), model("UES"),
                            symmetry="none", max_states=20_000)
    assert explorer._fold_ops
    widened = 0
    for key, op in explorer._fold_ops.items():
        assert len(key) >= 2
        ops = [explorer._ops[uid] for uid in key]
        first = ops[0]
        assert op.entry == first.entry
        assert op.nid == first.nid and {o.nid for o in ops} == {op.nid}
        attempts = dropped = delivered = 0
        for o in ops:
            attempts |= o.attempts_mask
            dropped |= o.dropped_mask
            delivered |= o.delivered_mask
        assert (op.attempts_mask, op.dropped_mask, op.delivered_mask) == \
            (attempts, dropped, delivered)
        assert op.full_flag == any(o.full_flag for o in ops)
        widened += (dropped, delivered) != \
            (first.dropped_mask, first.delivered_mask)
    # Some fold unions masks its first member lacks.
    assert widened


#: The reference engine's (states, truncated_states) on Fig. 7 at
#: queue bound 2 with a 200k-state budget.  Only the queue bound
#: truncates there; the reference search takes minutes, so its figures
#: are pinned (rerun ``Explorer(..., engine="reference")`` to check).
REFERENCE_FIG7_QB2 = {"RES": (13_040, 3_915), "UES": (41_973, 6_660)}


@pytest.mark.parametrize("name", sorted(REFERENCE_FIG7_QB2))
def test_truncation_counts_every_folded_entry(name):
    """A folded entry the state budget drops counts ``mult`` times.

    At 300 states the state budget and the queue bound both truncate,
    and the reference engine runs live; at 200k only the queue bound
    does."""
    packed = PackedExplorer(gadgets.fig7_gadget(), model(name),
                            queue_bound=2, max_states=300,
                            symmetry="none").explore()
    reference = Explorer(gadgets.fig7_gadget(), model(name), queue_bound=2,
                         max_states=300, engine="reference").explore()
    assert packed.truncated_states == reference.truncated_states
    assert packed.states_explored == reference.states_explored == 300
    packed = PackedExplorer(gadgets.fig7_gadget(), model(name),
                            queue_bound=2, max_states=200_000,
                            symmetry="none").explore()
    assert (packed.states_explored, packed.truncated_states) == \
        REFERENCE_FIG7_QB2[name]


SCREEN_CASES = [
    ("fig7", gadgets.fig7_gadget, "none", "UES", 1),
    ("fig7", gadgets.fig7_gadget, "none", "RES", 2),
    ("fig6", gadgets.fig6_gadget, "none", "UES", 2),
    ("bad-gadget", gadgets.bad_gadget, "orbit", "UES", 2),
    ("bad-gadget", gadgets.bad_gadget, "orbit", "RES", 3),
]


@pytest.mark.parametrize(
    "factory,symmetry,name,queue_bound",
    [case[1:] for case in SCREEN_CASES],
    ids=[f"{c[0]}-{c[3]}-qb{c[4]}" for c in SCREEN_CASES],
)
def test_scipy_and_stdlib_screens_agree(factory, symmetry, name, queue_bound):
    np = pytest.importorskip("numpy")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    from scipy.sparse import csr_matrix

    explorer, _, graph = search(factory(), model(name), symmetry=symmetry,
                                queue_bound=queue_bound, max_states=20_000)
    assert len(graph[0]) > 512  # the scipy screen's threshold
    explorer._np, explorer._sp = np, (csr_matrix, csgraph.connected_components)
    fast, ordered = explorer._candidate_components(graph)
    assert not ordered
    explorer._np = explorer._sp = None
    slow, ordered = explorer._candidate_components(graph)
    assert ordered
    assert sorted(sorted(c) for c in fast) == sorted(sorted(c) for c in slow)
    if explorer._gsize > 1:
        # Self-loop singletons are kept on the quotient.
        assert any(len(c) == 1 for c in slow)


def test_numpy_and_stdlib_inner_masks_agree():
    np = pytest.importorskip("numpy")
    explorer, _, graph = search(gadgets.fig7_gadget(), model("UES"),
                                symmetry="none", queue_bound=1,
                                max_states=20_000)
    n = len(graph[0])
    for comp in (list(range(n)), list(range(0, n, 3)), list(range(n // 2))):
        assert len(comp) >= 2048  # the numpy path's threshold
        members = set(comp)
        explorer._np = np
        fast = explorer._collect_inner_masks(comp, members, graph)
        explorer._np = None
        slow = explorer._collect_inner_masks(comp, members, graph)
        assert fast == slow
        assert fast[0]  # some inner edge was seen


@pytest.mark.parametrize("symmetry", ["none", "orbit"])
def test_edges_counter_is_the_stored_edge_count(symmetry):
    telemetry = obs.Telemetry()
    previous = obs.install(telemetry)
    try:
        _, _, graph = search(gadgets.disagree_grid(2), model("UES"),
                             symmetry=symmetry)
    finally:
        obs.install(previous)
    assert telemetry.counters["explore.edges"] == len(graph[4]) > 0


@pytest.mark.parametrize("symmetry", ["none", "orbit"])
def test_build_counters_count_memo_misses(symmetry):
    telemetry = obs.Telemetry()
    previous = obs.install(telemetry)
    try:
        explorer, _, _ = search(gadgets.disagree_grid(2), model("UES"),
                                symmetry=symmetry)
    finally:
        obs.install(previous)
    counters = telemetry.counters
    expansions = [entry for memo in explorer._node_memo
                  for entry in memo.values()]
    assert counters["explore.menus_built"] == len(explorer._menus) > 0
    assert counters["explore.expansions_built"] == len(expansions)
    assert counters["explore.entries_folded"] == sum(
        mult - 1 for entries, _ in expansions for *_, mult in entries
    ) > 0
