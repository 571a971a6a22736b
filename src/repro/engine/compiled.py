"""Integer-interned instances and the packed Def. 2.3 step.

The reference engine (:mod:`repro.engine.execution`,
:mod:`repro.engine.explorer`) manipulates rich values — node names,
path tuples, repr-sorted snapshot dictionaries.  That is the semantics
of Def. 2.1–2.3 written down as directly as possible, and it stays the
source of truth.  This module is the interning layer under the fast
engine (:mod:`repro.engine.packed`): an :class:`InstanceCodec` interns
every node, channel, and permitted path of an
:class:`~repro.core.spp.SPPInstance` into dense integer ids and
precomputes flat lookup tables —

* ``ext[channel_id][route_id]`` — the feasible extension of a known
  route through the channel's receiver (Def. 2.3 step 2 candidates),
* ``pref_index[node_id][route_id]`` — the position of a path in the
  node's total preference order ``(λ_v, repr)`` (Def. 2.1's ranking
  with the engine's deterministic tie-break), and
* fixed in/out channel iteration orders matching the instance's
  canonical (repr-sorted) orders,

so that one algorithm step is a handful of list copies and integer
table lookups.  A **packed state** is the 4-tuple

    ``(π, ρ, channels, last_announced)``

where π and last_announced are tuples of route ids indexed by node id,
ρ is a tuple of route ids indexed by channel id, and channels is a
tuple of per-channel FIFO tuples of route ids.  Packing is a bijection
onto the reference :class:`~repro.engine.state.NetworkState` value
space (every route that can ever appear in a snapshot is ε or a
permitted path, hence interned), so hashing/equality of packed states
induce exactly the reference equivalence classes — the property the
bounded model checker relies on.

There is no search loop here.  ``engine="compiled"`` names the packed
engine run over the identity automorphism group (see
:meth:`repro.engine.explorer.Explorer.explore`); it and the reference
engine are pinned bit-identical by
``tests/engine/test_compiled_differential.py``, which also checks
:func:`apply_packed` against :class:`~repro.engine.execution.Execution`
trace by trace.
"""

from __future__ import annotations

from ..core.paths import EPSILON
from ..core.spp import SPPInstance
from .activation import INFINITY, ActivationEntry
from .reduction import representative_tables
from .state import NetworkState

__all__ = [
    "InstanceCodec",
    "apply_packed",
    "codec_for",
    "write_tables",
]

_NO_DROPS = frozenset()


class InstanceCodec:
    """Dense integer interning of one SPP instance, plus flat tables.

    Ids follow the instance's canonical orders: node id = index into
    ``instance.sorted_nodes``, channel id = index into
    ``instance.channels``, route id = index into :attr:`routes` (ε is
    always id 0).  The codec is immutable and safe to share.
    """

    __slots__ = (
        "instance",
        "nodes",
        "node_id",
        "dest_id",
        "dest_route_id",
        "channels",
        "channel_id",
        "routes",
        "route_id",
        "eps_id",
        "no_choice",
        "ext",
        "pref_index",
        "route_by_pref",
        "in_ch",
        "out_ch",
        "dest_in",
    )

    def __init__(self, instance: SPPInstance) -> None:
        self.instance = instance
        self.nodes = instance.sorted_nodes
        self.node_id = {node: i for i, node in enumerate(self.nodes)}
        self.dest_id = self.node_id[instance.dest]
        self.channels = instance.channels
        self.channel_id = {c: i for i, c in enumerate(self.channels)}

        # Route universe: ε plus every permitted path of every node.
        # Everything a snapshot can hold (π, ρ, messages, announcements)
        # is drawn from this set, so the interning is total.
        route_id: dict = {EPSILON: 0}
        routes: list = [EPSILON]
        for node in self.nodes:
            for path in instance.permitted_at(node):
                if path not in route_id:
                    route_id[path] = len(routes)
                    routes.append(path)
        self.routes = tuple(routes)
        self.route_id = route_id
        self.eps_id = 0
        self.dest_route_id = route_id[(instance.dest,)]

        # Per-channel extension table: route announced on (u, v) → the
        # feasible extension v·route (ε when looping / not permitted).
        self.ext = tuple(
            tuple(
                route_id[instance.feasible_extension(channel[1], route)]
                for route in self.routes
            )
            for channel in self.channels
        )

        # Total preference order per node: (rank, repr) ascending —
        # exactly the order `best_choice` minimizes over.
        n_routes = len(self.routes)
        self.no_choice = n_routes + 1
        pref_index: list = []
        route_by_pref: list = []
        for node in self.nodes:
            order = sorted(
                instance.permitted_at(node),
                key=lambda p: (instance.rank_of(node, p), repr(p)),
            )
            index = [self.no_choice] * n_routes
            table = []
            for position, path in enumerate(order):
                index[route_id[path]] = position
                table.append(route_id[path])
            pref_index.append(tuple(index))
            route_by_pref.append(tuple(table))
        self.pref_index = tuple(pref_index)
        self.route_by_pref = tuple(route_by_pref)

        self.in_ch = tuple(
            tuple(self.channel_id[c] for c in instance.in_channels(node))
            for node in self.nodes
        )
        self.out_ch = tuple(
            tuple(self.channel_id[c] for c in instance.out_channels(node))
            for node in self.nodes
        )
        self.dest_in = tuple(
            cid
            for cid, channel in enumerate(self.channels)
            if channel[1] == instance.dest
        )

    # ------------------------------------------------------------------
    # State packing
    # ------------------------------------------------------------------
    def initial_packed(self) -> tuple:
        """The packed t = 0 state of Def. 2.1."""
        pi = [self.eps_id] * len(self.nodes)
        pi[self.dest_id] = self.dest_route_id
        rho = (self.eps_id,) * len(self.channels)
        channels = ((),) * len(self.channels)
        announced = (self.eps_id,) * len(self.nodes)
        return (tuple(pi), rho, channels, announced)

    def pack_state(self, state: NetworkState) -> tuple:
        """Intern a reference snapshot (raises ``KeyError`` on routes
        outside the instance's permitted universe)."""
        rid = self.route_id
        pi_map = state.pi
        rho_map = state.rho
        channel_map = state.channels
        announced_map = state.announced
        return (
            tuple(rid[pi_map[node]] for node in self.nodes),
            tuple(rid[rho_map[c]] for c in self.channels),
            tuple(
                tuple(rid[m] for m in channel_map[c]) for c in self.channels
            ),
            tuple(rid[announced_map[node]] for node in self.nodes),
        )

    def unpack_state(self, packed: tuple) -> NetworkState:
        """Decode a packed state back to the reference representation."""
        pi, rho, channels, announced = packed
        routes = self.routes
        return NetworkState.from_instance_order(
            self.instance,
            pi={n: routes[r] for n, r in zip(self.nodes, pi)},
            rho={c: routes[r] for c, r in zip(self.channels, rho)},
            channels={
                c: tuple(routes[m] for m in queue)
                for c, queue in zip(self.channels, channels)
            },
            announced={n: routes[r] for n, r in zip(self.nodes, announced)},
        )

    # ------------------------------------------------------------------
    # Entry packing
    # ------------------------------------------------------------------
    def compile_entry(self, entry: ActivationEntry) -> tuple:
        """Intern an activation entry as ``(node_ids, combo)`` where
        ``combo`` is a tuple of ``(channel_id, f, drop_set)``."""
        node_ids = tuple(sorted(self.node_id[n] for n in entry.nodes))
        reads = entry.reads
        drops = entry.drops
        combo = tuple(
            (
                self.channel_id[channel],
                count,
                drops.get(channel, _NO_DROPS),
            )
            for channel, count in reads.items()
        )
        return (node_ids, combo)

    def entry_of(self, packed_entry: tuple) -> ActivationEntry:
        """Decode a packed entry into a reference :class:`ActivationEntry`."""
        node_ids, combo = packed_entry
        channels = [self.channels[cid] for cid, _, _ in combo]
        reads = {self.channels[cid]: count for cid, count, _ in combo}
        drops = {
            self.channels[cid]: dropped
            for cid, _, dropped in combo
            if dropped
        }
        return ActivationEntry(
            nodes=[self.nodes[i] for i in node_ids],
            channels=channels,
            reads=reads,
            drops=drops,
        )

    def assignment_key(self, packed_pi: tuple) -> tuple:
        """The reference ``NetworkState.assignment_key`` of a packed π."""
        routes = self.routes
        return tuple(
            (node, routes[r]) for node, r in zip(self.nodes, packed_pi)
        )


def codec_for(instance: SPPInstance) -> InstanceCodec:
    """The (memoized) codec of an instance.

    The codec is attached to the instance object itself, so repeated
    explorations — and every worker process after unpickling — build
    the tables exactly once per instance.
    """
    codec = instance.__dict__.get("_codec_cache")
    if codec is None:
        codec = InstanceCodec(instance)
        object.__setattr__(instance, "_codec_cache", codec)
    return codec


def write_tables(instance: SPPInstance, reduction: str) -> tuple:
    """``tables[cid][rid]``: the route id stored when route ``rid``
    lands on channel ``cid``.

    Under ``reduction="ample"`` that is ``rid``'s ext-class
    representative (:func:`~repro.engine.reduction.representative_tables`);
    unreduced, every route is stored as itself.
    """
    if reduction == "ample":
        return representative_tables(instance)
    identity = tuple(range(len(codec_for(instance).routes)))
    return (identity,) * len(instance.channels)


def apply_packed(codec: InstanceCodec, state: tuple, node_ids, combo) -> tuple:
    """One Def. 2.3 step on a packed state (export-everything policy).

    Mirrors :func:`repro.engine.execution.apply_entry`: all reads happen
    against the step's initial channel contents, then every updating
    node re-selects, then changed selections are appended to the
    node's outgoing channels.
    """
    pi, rho, channels, announced = state
    channels = list(channels)
    rho_list = None

    # Step 1 — process the selected channels.
    for cid, count, drops in combo:
        queue = channels[cid]
        pending = len(queue)
        take = pending if count is INFINITY else min(count, pending)
        if not take:
            continue
        channels[cid] = queue[take:]
        if drops:
            surviving = 0
            for index in range(take, 0, -1):
                if index not in drops:
                    surviving = index
                    break
            if not surviving:
                continue
            new_route = queue[surviving - 1]
        else:
            new_route = queue[take - 1]
        if rho_list is None:
            rho_list = list(rho)
        rho_list[cid] = new_route
    rho_out = rho if rho_list is None else tuple(rho_list)

    # Step 2 — best responses over the (updated) known routes.
    pi_list = list(pi)
    dest_id = codec.dest_id
    ext = codec.ext
    no_choice = codec.no_choice
    for nid in node_ids:
        if nid == dest_id:
            pi_list[nid] = codec.dest_route_id
            continue
        best = no_choice
        pref = codec.pref_index[nid]
        for cid in codec.in_ch[nid]:
            position = pref[ext[cid][rho_out[cid]]]
            if position < best:
                best = position
        pi_list[nid] = (
            codec.route_by_pref[nid][best] if best < no_choice else codec.eps_id
        )

    # Step 3 — announce changed selections.
    announced_list = None
    for nid in node_ids:
        new_route = pi_list[nid]
        if new_route != announced[nid]:
            if announced_list is None:
                announced_list = list(announced)
            announced_list[nid] = new_route
            for ocid in codec.out_ch[nid]:
                channels[ocid] = channels[ocid] + (new_route,)
    return (
        tuple(pi_list),
        rho_out,
        tuple(channels),
        announced if announced_list is None else tuple(announced_list),
    )
