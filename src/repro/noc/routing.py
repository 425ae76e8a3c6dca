"""Routing functions: deterministic XY and a fault-tolerant detour mode.

The paper implements Power Punch on top of deterministic XY routing
(Sec. 4, "Without loss of generality, we implement Power Punch assuming
a 2D mesh network with XY routing").  XY routing fully determines the
path of every packet, which is what lets punch signals know exactly
which routers lie on a packet's imminent path, and its turn
restrictions (no Y-to-X turns) are what shrink the number of wakeup
signal sources per link from nine to three (Sec. 4.1 step 3).

:class:`FaultTolerantRouting` extends XY with a deadlock-free detour
mode for the graceful-degradation policy (``NoCConfig.degradation ==
"reroute"``): while no router is dead it is bit-identical to XY; once
the network declares routers dead it switches to an up*/down*
turn-model restriction (the same family as west-first/odd-even: a
static total order on channels with one prohibited turn class) that
routes around the dead set.  Punch targets and punch relays always
stay on the static XY relation (:attr:`XYRouting.static_view`), so the
punch fabric's memoized decompositions remain valid across deaths.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .errors import InvariantViolation, SimulationError
from .topology import Direction, MeshTopology

#: Sentinel distance for "no pure-down path exists".
_INF = 1 << 30


class XYRouting:
    """Deterministic XY dimension-order routing on a mesh.

    Packets first travel in the X dimension until the destination
    column is reached, then in the Y dimension.  Y-to-X turns are
    therefore illegal, which avoids deadlock without any VC
    restriction.

    Route lookups sit on the simulator's hottest paths (switch
    allocation and punch relaying), so both lookups are memoized.  The
    caches are injectable (pass pre-warmed dicts) and clearable
    (:meth:`clear_caches`) so a routing mode whose answers change —
    e.g. fault-driven reroutes — can never serve stale next hops.
    """

    def __init__(
        self,
        topology: MeshTopology,
        *,
        direction_cache: Optional[dict] = None,
        next_hop_cache: Optional[dict] = None,
    ) -> None:
        self.topology = topology
        # A fabric has at most N^2 (current, destination) pairs.
        self._direction_cache: dict = (
            {} if direction_cache is None else direction_cache
        )
        self._next_hop_cache: dict = {} if next_hop_cache is None else next_hop_cache

    # ------------------------------------------------------------------
    # Cache control
    # ------------------------------------------------------------------
    def clear_caches(self) -> None:
        """Drop every memoized route (both lookup caches)."""
        self._direction_cache.clear()
        self._next_hop_cache.clear()

    @property
    def static_view(self) -> "XYRouting":
        """The static routing relation behind this routing function.

        Punch targets and punch-fabric relays are computed against this
        view: the paper's punch encoding is derived from the static
        turn restrictions, and the scheme layer memoizes decompositions
        under the assumption that they never change.
        """
        return self

    # ------------------------------------------------------------------
    # Next-hop computation
    # ------------------------------------------------------------------
    def output_direction(self, current: int, destination: int) -> Direction:
        """Output port a packet at ``current`` takes toward ``destination``."""
        key = (current, destination)
        cached = self._direction_cache.get(key)
        if cached is not None:
            return cached
        direction = self._xy_direction(current, destination)
        self._direction_cache[key] = direction
        return direction

    def _xy_direction(self, current: int, destination: int) -> Direction:
        """Pure (uncached) XY output-port computation."""
        cur = self.topology.coord(current)
        dst = self.topology.coord(destination)
        if cur.x < dst.x:
            return Direction.XPOS
        if cur.x > dst.x:
            return Direction.XNEG
        if cur.y < dst.y:
            return Direction.YPOS
        if cur.y > dst.y:
            return Direction.YNEG
        return Direction.LOCAL

    def next_hop(self, current: int, destination: int) -> Optional[int]:
        """Next router on the path, or ``None`` when already there."""
        key = (current, destination)
        try:
            return self._next_hop_cache[key]
        except KeyError:
            pass
        direction = self.output_direction(current, destination)
        nxt = (
            None
            if direction == Direction.LOCAL
            else self.topology.neighbor(current, direction)
        )
        self._next_hop_cache[key] = nxt
        return nxt

    # ------------------------------------------------------------------
    # Whole-path computation
    # ------------------------------------------------------------------
    def path(self, source: int, destination: int) -> List[int]:
        """Full router path, inclusive of both endpoints."""
        nodes = [source]
        current = source
        # Any deterministic routing function on a finite network either
        # reaches the destination or revisits a node; the bound turns
        # an inconsistent routing table into a loud error instead of an
        # infinite loop.
        limit = 2 * self.topology.num_nodes
        while current != destination:
            nxt = self.next_hop(current, destination)
            if nxt is None or len(nodes) > limit:
                raise SimulationError(
                    f"routing path {source}->{destination} failed to "
                    f"converge (walked {nodes[:8]}...)",
                    router=current,
                )
            nodes.append(nxt)
            current = nxt
        return nodes

    def reachable(self, source: int, destination: int) -> bool:
        """Whether this routing function can deliver source→destination."""
        return True

    def router_ahead(self, current: int, destination: int, hops: int) -> int:
        """Router ``hops`` hops downstream on the XY path toward ``destination``.

        If the destination is closer than ``hops``, the destination
        itself is returned.  This is the paper's *targeted router*
        (Sec. 4.1 step 1): e.g. for a packet at R3 destined to R7 in an
        8x8 mesh, the 3-hop targeted router is R6.
        """
        if hops < 0:
            raise ValueError("hops must be non-negative")
        node = current
        for _ in range(hops):
            nxt = self.next_hop(node, destination)
            if nxt is None:
                break
            node = nxt
        return node

    # ------------------------------------------------------------------
    # Turn legality
    # ------------------------------------------------------------------
    @staticmethod
    def is_turn_legal(incoming: Direction, outgoing: Direction) -> bool:
        """Whether a packet may enter on ``incoming`` and leave on ``outgoing``.

        ``incoming`` is the port the packet arrived on (e.g. a packet
        moving in X+ arrives on the XNEG port of the next router).  XY
        routing forbids Y-to-X turns; traffic from the local port may
        go anywhere, and any traffic may eject.
        """
        if incoming == Direction.LOCAL or outgoing == Direction.LOCAL:
            return True
        # Arrival port XNEG means the packet travels in the X+ direction, etc.
        travelling_y = incoming.is_y
        turning_to_x = outgoing.is_x
        if travelling_y and turning_to_x:
            return False
        # A packet never reverses direction (e.g. in on XNEG, out on XNEG
        # would send it back where it came from).
        if incoming == outgoing:
            return False
        return True


@lru_cache(maxsize=8)
def _static_tables(spec: str) -> Tuple[dict, dict]:
    """The (direction, next-hop) memos of the static XY relation.

    XY's answers depend on the mesh ``spec`` alone, so every network of
    the process on that mesh fills and reads the same two dicts (at
    most N^2 entries each) instead of re-deriving them per network.
    Falling out of this cache only ends the sharing: the routings
    holding the dicts keep them.
    """
    return {}, {}


def default_routing(topology: MeshTopology) -> XYRouting:
    """XY routing on ``topology``, on the mesh's shared route memos."""
    direction_cache, next_hop_cache = _static_tables(topology.spec)
    return XYRouting(
        topology, direction_cache=direction_cache, next_hop_cache=next_hop_cache
    )


def _raise_on_cdg_cycle(deps: Dict, context: str) -> None:
    """Iterative 3-color DFS over a channel-dependency graph."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict = {}
    for start in deps:
        if color.get(start, WHITE) is not WHITE:
            continue
        stack = [(start, 0)]
        color[start] = GREY
        trail = [start]
        while stack:
            channel, index = stack[-1]
            followers = deps.get(channel, ())
            if index < len(followers):
                stack[-1] = (channel, index + 1)
                nxt = followers[index]
                state = color.get(nxt, WHITE)
                if state == GREY:
                    cycle = trail[trail.index(nxt):] + [nxt]
                    raise InvariantViolation(
                        "cdg-acyclic",
                        f"channel-dependency cycle ({context}): {cycle}",
                    )
                if state == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, 0))
                    trail.append(nxt)
            else:
                color[channel] = BLACK
                stack.pop()
                trail.pop()


class FaultTolerantRouting(XYRouting):
    """XY routing with a deadlock-free up*/down* detour mode.

    With an empty dead set every query delegates to plain XY, so the
    default behavior (and every golden number derived from it) is
    bit-identical to :class:`XYRouting`.  Once :meth:`set_dead`
    installs a non-empty dead set, routes are recomputed from an
    up*/down* orientation of the live subgraph:

    * The live component containing the lowest-numbered live router is
      BFS-leveled from that root; every node gets the total order key
      ``ord(n) = (level, n)``.  A directed link ``a -> b`` is *down*
      when ``ord(b) > ord(a)`` and *up* otherwise.
    * The routing function is memoryless per (node, destination): a
      node with a pure-down path to the destination always takes the
      down link that shortens it (committing the packet to down links
      forever); otherwise it takes the up link minimizing the best
      remaining up*-then-down* cost.  Up moves strictly decrease
      ``ord`` and down moves strictly increase it, so the only
      prohibited turn class is *down-to-up* — the same shape of static
      turn restriction as west-first or odd-even — and no realized
      path can take it.  :meth:`verify_deadlock_free` checks the
      resulting channel-dependency graph for cycles explicitly.

    The BFS tree gives the root a pure-down path to every node and
    every node an up chain to the root, so any (source, destination)
    pair inside the live component is routable for *any* dead set that
    leaves the component connected — in particular for every
    single-region fault.  Nodes outside the root component are
    reported unreachable (:meth:`reachable`) so the network can refuse
    them explicitly instead of hanging.

    Punch targets (:meth:`router_ahead`) and the :attr:`static_view`
    handed to the punch fabric always stay on the static XY relation.
    """

    def __init__(self, topology: MeshTopology, **caches) -> None:
        super().__init__(topology, **caches)
        #: Routers currently declared permanently dead.
        self.dead: FrozenSet[int] = frozenset()
        #: Live component containing the root (== all nodes while the
        #: dead set is empty).
        self._component: FrozenSet[int] = frozenset(range(topology.num_nodes))
        self._ord: Dict[int, Tuple[int, int]] = {}
        self._up: Dict[int, List[int]] = {}
        self._down: Dict[int, List[int]] = {}
        #: Per-destination (down_dist, best_cost) tables, built lazily.
        self._tables: Dict[int, Tuple[Dict[int, int], Dict[int, int]]] = {}
        #: Static-XY twin for punch-target/relay computation, on the
        #: fabric's shared tables.  This object's own caches stay
        #: private: they hold detour entries under the same (current,
        #: destination) keys and are cleared when routers die.
        self._xy = default_routing(topology)

    # ------------------------------------------------------------------
    @property
    def static_view(self) -> XYRouting:
        """Static XY relation for punch targets/relays (never detours)."""
        return self._xy

    def set_dead(self, dead: Iterable[int]) -> bool:
        """Install a new dead-router set; returns whether it changed.

        Clears both route caches (stale XY or previous-detour answers
        must never survive a death event) and rebuilds the up*/down*
        orientation of the live subgraph.
        """
        dead = frozenset(dead)
        if dead == self.dead:
            return False
        self.dead = dead
        self.clear_caches()
        self._tables.clear()
        self._build_orientation()
        return True

    def _build_orientation(self) -> None:
        topo = self.topology
        if not self.dead:
            self._component = frozenset(range(topo.num_nodes))
            self._ord = {}
            self._up = {}
            self._down = {}
            return
        live = [v for v in range(topo.num_nodes) if v not in self.dead]
        if not live:
            self._component = frozenset()
            self._ord = {}
            self._up = {}
            self._down = {}
            return
        # Root the spanning orientation in the LARGEST live component:
        # a fault can strand a low-numbered node in a tiny fragment
        # (dead {1, 4} isolates corner 0 of a 4x4 mesh), and rooting
        # there would declare the healthy majority unreachable.  Ties
        # break toward the component holding the smallest id, keeping
        # the choice deterministic.
        unseen = set(live)
        largest: List[int] = []
        for seed in live:
            if seed not in unseen:
                continue
            members = [seed]
            unseen.discard(seed)
            cursor = 0
            while cursor < len(members):
                for _direction, v in topo.neighbors(members[cursor]):
                    if v in unseen:
                        unseen.discard(v)
                        members.append(v)
                cursor += 1
            if len(members) > len(largest):
                largest = members
        root = min(largest)
        level = {root: 0}
        frontier = [root]
        while frontier:
            nxt_frontier: List[int] = []
            for u in frontier:
                for _direction, v in topo.neighbors(u):
                    if v in self.dead or v in level:
                        continue
                    level[v] = level[u] + 1
                    nxt_frontier.append(v)
            frontier = nxt_frontier
        component = frozenset(level)
        self._component = component
        order = {v: (level[v], v) for v in component}
        self._ord = order
        up: Dict[int, List[int]] = {v: [] for v in component}
        down: Dict[int, List[int]] = {v: [] for v in component}
        for u in component:
            key = order[u]
            for _direction, v in topo.neighbors(u):
                if v in component:
                    (down[u] if order[v] > key else up[u]).append(v)
        self._up = up
        self._down = down

    # ------------------------------------------------------------------
    def reachable(self, source: int, destination: int) -> bool:
        """Both endpoints live and inside the root component."""
        if not self.dead:
            return True
        component = self._component
        return source in component and destination in component

    def _table_for(self, destination: int) -> Tuple[Dict[int, int], Dict[int, int]]:
        """(pure-down distance, best legal-path cost) maps for one dest."""
        table = self._tables.get(destination)
        if table is not None:
            return table
        component = self._component
        down_dist = {v: _INF for v in component}
        if destination in component:
            down_dist[destination] = 0
            frontier = [destination]
            while frontier:
                nxt_frontier: List[int] = []
                for v in frontier:
                    dist = down_dist[v] + 1
                    # u -> v is a down edge exactly when u is an
                    # up-neighbor of v (smaller ord).
                    for u in self._up[v]:
                        if dist < down_dist[u]:
                            down_dist[u] = dist
                            nxt_frontier.append(u)
                frontier = nxt_frontier
        best = dict(down_dist)
        # Up-neighbors have strictly smaller ord, so ascending-ord order
        # finalizes every up-neighbor's cost before it is consumed.
        for v in sorted(component, key=self._ord.__getitem__):
            cost = best[v]
            for u in self._up[v]:
                via = best[u] + 1
                if via < cost:
                    cost = via
            best[v] = cost
        table = (down_dist, best)
        self._tables[destination] = table
        return table

    def _detour_next(self, current: int, destination: int) -> int:
        """Next live router on the up*/down* path (memoryless)."""
        component = self._component
        if current not in component or destination not in component:
            raise SimulationError(
                f"no live route {current}->{destination} "
                f"(dead routers: {sorted(self.dead)})",
                router=current,
            )
        down_dist, best = self._table_for(destination)
        here = down_dist[current]
        if here < _INF:
            # Pure-down phase: committing here is what keeps the
            # routing function suffix-consistent (a down hop's
            # successor also sees a finite down distance and never
            # turns back up).
            target = here - 1
            choice = None
            for v in self._down[current]:
                if down_dist[v] == target and (choice is None or v < choice):
                    choice = v
            if choice is None:  # pragma: no cover - table construction bug
                raise SimulationError(
                    f"down-distance table inconsistent at {current}->{destination}",
                    router=current,
                )
            return choice
        target = best[current] - 1
        choice = None
        for u in self._up[current]:
            if best[u] == target and (choice is None or u < choice):
                choice = u
        if choice is None:  # pragma: no cover - table construction bug
            raise SimulationError(
                f"up-phase cost table inconsistent at {current}->{destination}",
                router=current,
            )
        return choice

    # ------------------------------------------------------------------
    def output_direction(self, current: int, destination: int) -> Direction:
        key = (current, destination)
        cached = self._direction_cache.get(key)
        if cached is not None:
            return cached
        if not self.dead:
            direction = self._xy_direction(current, destination)
        elif current == destination:
            direction = Direction.LOCAL
        else:
            direction = self.topology.direction_to_neighbor(
                current, self._detour_next(current, destination)
            )
        self._direction_cache[key] = direction
        return direction

    def router_ahead(self, current: int, destination: int, hops: int) -> int:
        """Punch targets stay on the static XY walk (see class docstring)."""
        return self._xy.router_ahead(current, destination, hops)

    # ------------------------------------------------------------------
    # Deadlock-freedom certification
    # ------------------------------------------------------------------
    def channel_dependencies(self) -> Dict[Tuple[int, int], List[Tuple[int, int]]]:
        """The realized channel-dependency graph of the current tables.

        Nodes are directed live links ``(a, b)``; an edge
        ``(u, v) -> (v, w)`` exists when some destination's routing
        enters ``v`` over the first link and leaves over the second.
        Only dependencies the memoryless routing function can actually
        realize are included.
        """
        deps: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
        if not self.dead:
            return deps
        component = self._component
        for destination in component:
            for u in component:
                if u == destination:
                    continue
                v = self._detour_next(u, destination)
                if v == destination:
                    continue
                w = self._detour_next(v, destination)
                first, second = (u, v), (v, w)
                bucket = deps.setdefault(first, [])
                if second not in bucket:
                    bucket.append(second)
        return deps

    def verify_deadlock_free(self) -> int:
        """Prove the channel-dependency graph acyclic; return its size.

        Raises :class:`InvariantViolation` carrying a witness cycle if
        one exists.  Called by the network's strict-invariant path on
        every death event, and directly by tests over exhaustive fault
        placements.
        """
        deps = self.channel_dependencies()
        _raise_on_cdg_cycle(deps, f"under dead set {sorted(self.dead)}")
        return sum(len(v) for v in deps.values())
