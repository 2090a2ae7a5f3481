"""Synchronous round engine: wake-up, observation, transition, movement.

Each round proceeds in lockstep: dormant agents wake (by schedule, or one
round after an active agent shares their start node), every active agent
reads an observation of its node as of the end of the previous round,
all transitions run, and all moves apply simultaneously.  Two agents
crossing one edge in opposite directions never observe each other.

Stepping is lazy where a stepper allows it.  A protocol stepper with a
``wait()`` method is asked, right after each step that did not
terminate, ``(due, wants, walk)``: ``due`` is the next own count that
must be stepped (None: none is), ``wants(view)`` the predicate under
which an earlier changed view acts (None: none does), and ``walk =
(base, offsets)`` the moves it makes until then.  Each lazy agent has one
record: its due round in a heap, its predicate, asked once per change of
its node, and, after a step that moved and named a walk, an entry in the
walks.  The engine moves a walker itself, with no ``step()`` call, each
own count c through ``exit_port(offsets[c - base], entry, degree)``,
until its due round or until ``wants`` holds.  A walker's node changes
every round, so its predicate is asked every round; by the lone-view
rule it is False on a view that shows only the walker, so a lone walker
costs one move per round and no view.  The rule is for walkers only: a
watcher's predicate may hold on its own changed view.  A Byzantine
strategy with ``static = True`` is stepped once, in its wake round.
Every other stepper is stepped every round.  When a round changes
nothing, no every-round stepper is active and nobody walks, the engine
jumps straight to the next due round or scheduled wake.

A view costs what its readers use: its ``ids`` and its two columns,
``order`` (true ids in id order) and ``states`` (their presented
states), are taken with it, and ``view.memo`` holds values derived from
it that every co-located reader would otherwise recompute.  A round in
which nothing is due, changed or woken, and no every-round stepper is
active, steps nobody: the engine only moves its walkers.

The engine is protocol-agnostic, and the stepper, not the seat, picks
how it is called.  A protocol stepper (one with ``build_presented()``)
is fed only its node's observation and entry port, in either seat; any
other stepper is a Byzantine strategy fed the full world state.  The
seat decides only what counts: a faulty agent's events never reach the
trace, and its termination halts it without a termination record.
Presented states are paired with engine-held true ids, so a faulty agent
can forge every field except its identity.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterable, NamedTuple

from .exploration import exit_port
from .portgraph import PortGraph

DORMANT, ACTIVE, TERMINATED = 0, 1, 2

STA_CI = "S_CI"
STA_MG_SA = "S_MG_SA"
STA_MG_TA = "S_MG_TA"
STA_G_EG = "S_G_EG"
STA_G_WG = "S_G_WG"


class _Terminate:
    __slots__ = ()

    def __repr__(self) -> str:
        return "TERMINATE"


#: Action sentinel: the agent halts on its node with its final state.
TERMINATE = _Terminate()


class PresentedState(NamedTuple):
    """What one agent shows the agents sharing its node.

    Byzantine agents may fabricate any of these fields; the true id is
    attached by the engine and is not part of the presented tuple.
    """

    sta: str
    end_ci: bool
    in_mgst: bool
    estf: int | None
    tar: int | None
    gid: int | None
    il: frozenset[int]
    flag_t: bool
    terminated: bool


def initial_presented(agent_id: int) -> PresentedState:
    return PresentedState(STA_CI, False, False, None, None, None, frozenset((agent_id,)), False, False)


class ObservationView:
    """Shared per-node observation: degree plus all co-located agents.

    A view is read by column.  ``order`` lists the true ids of every
    visible agent on the node (observer included, terminated agents
    included, dormant agents not yet visible) in id order, and ``states``
    their presented states in the same order; both are taken when the view
    is built, so a view kept across a presented update still shows the
    states it was built with.  ``ids`` is the set of true ids.
    ``version`` is drawn when the view is built, from a clock shared by
    all nodes, so two views never share one; the engine builds a new view
    only after the node's composition or an occupant's presented state
    changed.  The entry port is per-agent and passed to steppers
    separately.

    ``memo`` holds values derived from the view, keyed by name, so that
    co-located readers compute each once: ``memo.get(key)``, and on a
    miss compute and store it.
    """

    __slots__ = ("degree", "order", "states", "ids", "version", "memo")

    def __init__(self, degree: int, order: list[int], states: list[PresentedState],
                 ids: frozenset[int], version: int):
        self.degree = degree
        self.order = order
        self.states = states
        self.ids = ids
        self.version = version
        self.memo: dict = {}


class AgentSpec(NamedTuple):
    agent_id: int
    is_byzantine: bool
    stepper: object
    start_node: int
    wake_round: int | None  # None: woken only by visits


class Trace:
    """Deterministic record of one run: wakes, moves, events, terminations."""

    def __init__(self, scenario_id: str, variant: str, x_n: int,
                 graph: PortGraph, good_ids: frozenset[int], byz_ids: frozenset[int]):
        self.scenario_id = scenario_id
        self.variant = variant
        self.x_n = x_n
        self.graph = graph
        self.good_ids = good_ids
        self.byz_ids = byz_ids
        self.wake_round: dict[int, int] = {}
        self.position_log: dict[int, list[tuple[int, int]]] = {}
        self.termination: dict[int, tuple[int, int]] = {}
        self.events: list[tuple[int, int, str, object]] = []
        self.rounds = 0
        self.capped = False

    @property
    def p_n(self) -> int:
        """Phase length: ``3*x_n + 1`` rounds."""
        return 3 * self.x_n + 1

    @property
    def agent_ids(self) -> list[int]:
        return sorted(self.good_ids | self.byz_ids)

    def first_good_wake(self) -> int | None:
        rounds = [r for aid, r in self.wake_round.items() if aid in self.good_ids]
        return min(rounds) if rounds else None

    def last_good_termination(self) -> int | None:
        rounds = [rn for aid, (rn, _) in self.termination.items() if aid in self.good_ids]
        return max(rounds) if len(rounds) == len(self.good_ids) else None

    def node_at(self, agent_id: int, round_no: int) -> int | None:
        """Node occupied at the start of ``round_no``; None while dormant."""
        log = self.position_log.get(agent_id)
        if not log or round_no < log[0][0]:
            return None
        i = bisect_right(log, (round_no, self.graph.node_count)) - 1
        return log[i][1]

    def events_of(self, kind: str) -> list[tuple[int, int, object]]:
        return [(r, aid, payload) for r, aid, k, payload in self.events if k == kind]

    def export_lines(self) -> Iterable[str]:
        """Change-only export, one "round,agent,kind,value" record per change.

        ``wake,<node>`` and ``at,<node>`` name the node an agent stands on
        from that round on, each protocol event follows as
        ``<kind>,<payload>``, and ``terminate,<node>`` names the node it
        halted on.  Records are sorted by round, then agent; one agent's
        records of one round keep that order, events in engine order.
        Node indices appear only here, never in observations.
        """
        records = []
        for aid, ((wake, node), *moves) in self.position_log.items():
            records.append((wake, aid, f"wake,{node}"))
            records.extend((r, aid, f"at,{u}") for r, u in moves)
        records.extend((r, aid, f"{kind},{_payload_text(payload)}")
                       for r, aid, kind, payload in self.events)
        records.extend((r, aid, f"terminate,{node}") for aid, (r, node) in self.termination.items())
        records.sort(key=itemgetter(0, 1))
        yield f"# scenario {self.scenario_id} variant {self.variant} x_n {self.x_n} rounds {self.rounds}"
        for r, aid, text in records:
            yield f"{r},{aid},{text}"


def _payload_text(payload) -> str:
    """An event payload as text: tuple fields joined by ";", id collections by spaces, sets sorted."""
    if not isinstance(payload, tuple):
        payload = (payload,)
    fields = []
    for value in payload:
        if isinstance(value, frozenset):
            value = sorted(value)
        fields.append(" ".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value))
    return ";".join(fields)


class WorldView:
    """Full-knowledge facade handed to Byzantine strategies."""

    def __init__(self, engine: "Engine"):
        self._e = engine

    @property
    def round(self) -> int:
        return self._e.round

    @property
    def graph(self) -> PortGraph:
        return self._e.graph

    @property
    def x_n(self) -> int:
        return self._e.trace.x_n

    @property
    def p_n(self) -> int:
        return self._e.trace.p_n

    def ids(self) -> list[int]:
        return list(self._e.ids)

    def good_ids(self) -> list[int]:
        e = self._e
        return [aid for i, aid in enumerate(e.ids) if not e.is_byz[i]]

    def status(self, agent_id: int) -> int:
        e = self._e
        return e.status[e.index_of[agent_id]]

    def position(self, agent_id: int) -> int:
        e = self._e
        return e.pos[e.index_of[agent_id]]

    def stepper(self, agent_id: int):
        e = self._e
        return e.steppers[e.index_of[agent_id]]

    def presented(self, agent_id: int) -> PresentedState:
        e = self._e
        return e.presented[e.index_of[agent_id]]

    def degree(self, node: int) -> int:
        return self._e.graph.degree(node)

    def view_of(self, agent_id: int):
        """(ObservationView, entry_port) exactly as a good agent would see."""
        e = self._e
        idx = e.index_of[agent_id]
        return e.node_view(e.pos[idx]), e.entry[idx]


class Engine:
    """Runs one scenario round-by-round, producing a deterministic Trace.

    The ``WorldView`` handed to world-fed strategies lives only as long
    as ``run()``, so an engine is in no reference cycle and is freed by
    reference counting.  A ``GatheringAgent``'s phase plan holds bound
    methods of the agent, so each such agent is a small cycle of its own.
    """

    def __init__(self, graph: PortGraph, specs: list[AgentSpec], round_cap: int,
                 scenario_id: str = "adhoc", variant: str = "NS",
                 x_n: int = 0):
        specs = sorted(specs, key=lambda s: s.agent_id)
        ids = [s.agent_id for s in specs]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")
        self.graph = graph
        self.round_cap = round_cap
        self.ids = ids
        self.index_of = {aid: i for i, aid in enumerate(ids)}
        self.is_byz = [s.is_byzantine for s in specs]
        self.steppers = [s.stepper for s in specs]
        # Protocol: a stepper fed its node's view, in either seat.
        # Lazy: a protocol stepper with the wait() hook.
        # Static: a Byzantine strategy that never acts after its first step.
        self._protocol = [hasattr(s.stepper, "build_presented") for s in specs]
        self._lazy = [p and hasattr(s.stepper, "wait") for p, s in zip(self._protocol, specs)]
        self._static = [s.is_byzantine and getattr(s.stepper, "static", False) for s in specs]
        self.pos = [s.start_node for s in specs]
        self.schedule = [s.wake_round for s in specs]
        self.status = [DORMANT] * len(specs)
        self.entry: list[int | None] = [None] * len(specs)
        self.presented: list[PresentedState | None] = [None] * len(specs)
        self.occupants: list[list[int]] = [[] for _ in range(graph.node_count)]
        self._degree = [graph.degree(v) for v in range(graph.node_count)]
        # A view's version is drawn from one clock when it is built, so a
        # version never repeats across nodes.  A node's cached view is
        # dropped where the node enters the dirty set.
        self._vclock = 0
        self._view_cache: list[ObservationView | None] = [None] * graph.node_count
        self.round = 0
        good = frozenset(aid for aid, b in zip(ids, self.is_byz) if not b)
        byz = frozenset(aid for aid, b in zip(ids, self.is_byz) if b)
        self.trace = Trace(scenario_id, variant, x_n, graph, good, byz)
        self._wake: list[int | None] = [None] * len(specs)
        self._every: list[int] = []  # active steppers stepped every round, sorted
        # Due rounds of lazy and static agents; heap entries whose round no
        # longer matches _due_round are stale and skipped.
        self._due: list[tuple[int, int]] = []
        self._due_round: list[int | None] = [None] * len(specs)
        # Per lazy agent, the predicate its last wait() answered; None for
        # every other agent and once an agent has terminated: no change wakes it.
        self._watch: list = [None] * len(specs)
        # Walkers, agent -> (round of offset 0, offsets); see the module doc.
        self._walks: dict[int, tuple] = {}
        self._dirty: set[int] = set()  # nodes changed since the last _changed()
        self._dormant = list(range(len(specs)))
        self._good_left = len(good)

    def node_view(self, node: int) -> ObservationView:
        view = self._view_cache[node]
        if view is not None:
            return view
        occ = self.occupants[node]
        all_ids, presented = self.ids, self.presented
        ids = [all_ids[j] for j in occ]
        self._vclock += 1
        view = self._view_cache[node] = ObservationView(
            self._degree[node], ids, [presented[j] for j in occ], frozenset(ids), self._vclock)
        return view

    def _set_due(self, idx: int, r: int | None) -> None:
        if r is not None and r != self._due_round[idx]:
            heappush(self._due, (r, idx))
        self._due_round[idx] = r

    def _activate(self, idx: int, r: int) -> None:
        self.status[idx] = ACTIVE
        aid = self.ids[idx]
        self._wake[idx] = r
        self.trace.wake_round[aid] = r
        self.trace.position_log[aid] = [(r, self.pos[idx])]
        self.presented[idx] = initial_presented(aid)
        node = self.pos[idx]
        insort(self.occupants[node], idx)
        self._dirty.add(node)
        self._view_cache[node] = None
        if self._lazy[idx] or self._static[idx]:
            self._set_due(idx, r)
        else:
            insort(self._every, idx)
        self._dormant.remove(idx)

    def _next_round(self, r: int) -> int:
        """Earliest round from ``r`` at which a due agent or a scheduled wake acts."""
        due, due_round = self._due, self._due_round
        while due and (due_round[due[0][1]] != due[0][0] or self.status[due[0][1]] != ACTIVE):
            heappop(due)
        nxt = self.round_cap + 1
        if due:
            nxt = min(nxt, due[0][0])
        for idx in self._dormant:
            w = self.schedule[idx]
            if w is not None and r <= w < nxt:
                nxt = w
        return nxt

    def _changed(self) -> set[int]:
        """Active lazy agents on nodes changed since the last call whose predicate holds.

        Each predicate is asked on the node's current view, built at most
        once per node; a lone walker's is not asked (the lone-view rule).
        """
        changed: set[int] = set()
        watch, walks = self._watch, self._walks
        for node in self._dirty:
            occ = self.occupants[node]
            view = None
            for j in occ:
                w = watch[j]
                if w is None or (len(occ) == 1 and j in walks):
                    continue
                if view is None:
                    view = self.node_view(node)
                if w(view):
                    changed.add(j)
        self._dirty.clear()
        return changed

    def _walk(self, r: int, moves: list[tuple[int, int]], stepped: list[int]) -> None:
        """Add round ``r``'s move of every walker not stepped in it to ``moves``;
        a stepped walker stops walking."""
        walks, pos, entry, degree = self._walks, self.pos, self.entry, self._degree
        for idx in walks.keys() & stepped:
            del walks[idx]
        for idx, (base, offsets) in walks.items():
            moves.append((idx, exit_port(offsets[r - base], entry[idx], degree[pos[idx]])))

    def _to_step(self, r: int, changed: set[int]) -> list[int]:
        """Active agents stepped in round ``r``, in id order."""
        chosen = set(changed)
        if self._dirty:  # the nodes of agents woken now
            chosen |= self._changed()
        chosen.update(self._every)
        due, due_round, status = self._due, self._due_round, self.status
        while due and due[0][0] <= r:
            rd, j = heappop(due)
            if due_round[j] == rd and status[j] == ACTIVE:
                chosen.add(j)
        return sorted(chosen)

    def _finish(self, rounds: int) -> Trace:
        # Lazy agents' clocks read as if they had been stepped every round.
        for idx, stepper in enumerate(self.steppers):
            if self._lazy[idx] and self.status[idx] == ACTIVE:
                stepper.state.count = rounds + 1 - self._wake[idx]
        self.trace.rounds = rounds
        return self.trace

    def run(self) -> Trace:
        trace = self.trace
        ids = self.ids
        steppers = self.steppers
        status = self.status
        is_byz = self.is_byz
        protocol = self._protocol
        lazy = self._lazy
        wake = self._wake
        watch = self._watch
        walks = self._walks
        pos = self.pos
        entry = self.entry
        presented = self.presented
        occupants = self.occupants
        view_cache = self._view_cache
        dirty = self._dirty
        pending_visit: list[int] = []
        neighbor = self.graph.neighbor
        world = WorldView(self)
        while True:
            changed = self._changed()
            r = self.round + 1
            if not (changed or pending_visit or self._every or walks):
                r = self._next_round(r)
            self.round = r
            if r > self.round_cap:
                trace.capped = True
                return self._finish(r - 1)

            if self._dormant:
                for idx in list(self._dormant):
                    if self.schedule[idx] == r:
                        self._activate(idx, r)
                for idx in pending_visit:
                    if status[idx] == DORMANT:
                        self._activate(idx, r)
                pending_visit = []

            terminations: list[int] = []
            moves: list[tuple[int, int]] = []
            pres_updates: list[tuple[int, PresentedState]] = []
            due = self._due
            if changed or dirty or self._every or (due and due[0][0] <= r):
                to_step = self._to_step(r, changed)
            else:
                to_step = ()  # a round of walk moves only
            if walks:
                self._walk(r, moves, to_step)
            for idx in to_step:
                stepper = steppers[idx]
                if not protocol[idx]:
                    new_presented, action = stepper.step(world, ids[idx])
                    if new_presented is not None:
                        pres_updates.append((idx, new_presented))
                else:
                    if lazy[idx]:
                        stepper.state.count = r - wake[idx]
                    node = pos[idx]
                    action = stepper.step(view_cache[node] or self.node_view(node), entry[idx])
                    ev = stepper.events
                    if ev:
                        if not is_byz[idx]:
                            aid = ids[idx]
                            for kind, payload in ev:
                                trace.events.append((r, aid, kind, payload))
                        ev.clear()
                    if stepper.presented_dirty:
                        stepper.presented_dirty = False
                        pres_updates.append((idx, stepper.build_presented()))
                if action is None:
                    entry[idx] = None
                elif action is TERMINATE:
                    terminations.append(idx)
                    entry[idx] = None
                else:
                    moves.append((idx, action))
                if lazy[idx] and action is not TERMINATE:
                    count, watch[idx], walk = stepper.wait()
                    shift = wake[idx] - 1  # own count c falls in round c + shift
                    self._set_due(idx, None if count is None else count + shift)
                    if walk is not None and action is not None:
                        walks[idx] = (walk[0] + shift, walk[1])

            for idx in terminations:
                status[idx] = TERMINATED
                watch[idx] = None
                if not lazy[idx]:
                    self._every.remove(idx)
                if not is_byz[idx]:
                    trace.termination[ids[idx]] = (r, pos[idx])
                    self._good_left -= 1
                stepper = steppers[idx]
                stepper.terminated = True
                pres_updates.append((idx, stepper.build_presented()))

            for idx, port in moves:
                old = pos[idx]
                u, q = neighbor(old, port)
                occupants[old].remove(idx)
                insort(occupants[u], idx)
                dirty.add(old)
                dirty.add(u)
                view_cache[old] = view_cache[u] = None
                pos[idx] = u
                entry[idx] = q
                trace.position_log[ids[idx]].append((r + 1, u))

            for idx, p in pres_updates:
                presented[idx] = p
                node = pos[idx]
                dirty.add(node)
                view_cache[node] = None

            if self._good_left == 0:
                return self._finish(r)

            if self._dormant:
                for idx in self._dormant:
                    for j in occupants[pos[idx]]:
                        if status[j] == ACTIVE:
                            pending_visit.append(idx)
                            break

