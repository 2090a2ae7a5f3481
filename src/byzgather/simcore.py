"""Synchronous round engine: wake-up, observation, transition, movement.

Each round proceeds in lockstep: dormant agents wake (by schedule, or one
round after an active agent shares their start node), every active agent
reads an observation of its node as of the end of the previous round,
all transitions run, and all moves apply simultaneously.  Two agents
crossing one edge in opposite directions never observe each other.

Stepping is lazy where a stepper allows it.  A good stepper with
``next_due()`` and ``watches_view()`` methods is stepped only when its
own clock reaches the count ``next_due()`` named, or when its node's
observation changed since its last step and it watches its view; a
Byzantine strategy with ``static = True`` is stepped once, in its wake
round.  Every other stepper is stepped every round.  When a round changes
nothing and no every-round stepper is active, the engine jumps straight
to the next due round or scheduled wake.

The engine is protocol-agnostic: good agents are driven by stepper
objects fed only observations, Byzantine agents by strategy objects fed
the full world state.  Presented states are paired with engine-held true
ids, so a faulty agent can forge every field except its identity.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from heapq import heappop, heappush
from operator import itemgetter
from typing import Iterable, NamedTuple

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


class ViewEntry(NamedTuple):
    id: int
    presented: PresentedState


class ObservationView:
    """Shared per-node observation: degree plus all co-located agents.

    ``entries`` lists every visible agent on the node (observer included,
    terminated agents included, dormant agents not yet visible), sorted
    by true id.  ``ids`` is the set of true ids.  ``version`` changes
    whenever the node's composition or any occupant's presented state
    changes; the engine keys its per-node view cache on it.  The entry
    port is per-agent and passed to steppers separately.
    """

    __slots__ = ("degree", "entries", "ids", "version", "memo")

    def __init__(self, degree: int, entries: tuple[ViewEntry, ...], ids: frozenset[int], version: int):
        self.degree = degree
        self.entries = entries
        self.ids = ids
        self.version = version
        self.memo: dict = {}  # scratch for derived values shared by co-located observers


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
    """Runs one scenario round-by-round, producing a deterministic Trace."""

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
        # Lazy: a good stepper with the next_due() and watches_view() hooks.
        # Static: a Byzantine strategy that never acts after its first step.
        self._lazy = [not s.is_byzantine and hasattr(s.stepper, "next_due")
                      and hasattr(s.stepper, "watches_view") for s in specs]
        self._static = [s.is_byzantine and getattr(s.stepper, "static", False) for s in specs]
        self.pos = [s.start_node for s in specs]
        self.schedule = [s.wake_round for s in specs]
        self.status = [DORMANT] * len(specs)
        self.entry: list[int | None] = [None] * len(specs)
        self.presented: list[PresentedState | None] = [None] * len(specs)
        self.occupants: list[list[int]] = [[] for _ in range(graph.node_count)]
        self._lazy_at: list[list[int]] = [[] for _ in range(graph.node_count)]  # active lazy agents
        # Versions are drawn from one clock so a version value never repeats
        # across nodes: an agent's versions compare even after it moves.
        self._vclock = 0
        self.node_version = [0] * graph.node_count
        self._view_cache: list[ObservationView | None] = [None] * graph.node_count
        self.round = 0
        good = frozenset(aid for aid, b in zip(ids, self.is_byz) if not b)
        byz = frozenset(aid for aid, b in zip(ids, self.is_byz) if b)
        self.trace = Trace(scenario_id, variant, x_n, graph, good, byz)
        self.world = WorldView(self)
        self._wake: list[int | None] = [None] * len(specs)
        self._every: list[int] = []  # active steppers stepped every round, sorted
        # Due rounds of lazy and static agents; heap entries whose round no
        # longer matches _due_round are stale and skipped.
        self._due: list[tuple[int, int]] = []
        self._due_round: list[int | None] = [None] * len(specs)
        # Per lazy agent, watches_view() since its last step (None: not asked).
        self._watch: list[bool | None] = [None] * len(specs)
        self._dirty: set[int] = set()  # nodes bumped since the last _changed()
        self._dormant = list(range(len(specs)))
        self._good_left = len(good)

    def node_view(self, node: int) -> ObservationView:
        ver = self.node_version[node]
        cached = self._view_cache[node]
        if cached is not None and cached.version == ver:
            return cached
        occ = self.occupants[node]
        entries = tuple(ViewEntry(self.ids[j], self.presented[j]) for j in occ)
        view = ObservationView(self.graph.degree(node), entries,
                               frozenset(self.ids[j] for j in occ), ver)
        self._view_cache[node] = view
        return view

    def _bump(self, node: int) -> None:
        self._vclock += 1
        self.node_version[node] = self._vclock
        self._dirty.add(node)

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
        insort(self.occupants[self.pos[idx]], idx)
        self._bump(self.pos[idx])
        if self._lazy[idx]:
            self._lazy_at[self.pos[idx]].append(idx)
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
        """Active lazy agents on nodes bumped since the last call that watch their view."""
        changed: set[int] = set()
        watch = self._watch
        for node in self._dirty:
            for j in self._lazy_at[node]:
                w = watch[j]
                if w is None:
                    w = watch[j] = self.steppers[j].watches_view()
                if w:
                    changed.add(j)
        self._dirty.clear()
        return changed

    def _reschedule(self, stepped: list[int], changed: set[int]) -> None:
        """Due rounds for lazy agents stepped last round and not stepped now on a change.

        An agent in ``changed`` is stepped this round anyway, and computes
        its due round after that step; an older due entry of it can only
        fall on a round in which it is stepped regardless.
        """
        for idx in set(stepped).difference(changed):
            if self.status[idx] == ACTIVE:
                due = self.steppers[idx].next_due()
                self._set_due(idx, None if due is None else self._wake[idx] + due - 1)

    def _to_step(self, r: int, changed: set[int]) -> list[int]:
        """Active agents stepped in round ``r``, in id order."""
        chosen = changed | self._changed()  # the latter: nodes of agents woken now
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
        lazy = self._lazy
        wake = self._wake
        watch = self._watch
        pos = self.pos
        entry = self.entry
        pending_visit: list[int] = []
        stepped_lazy: list[int] = []
        neighbor = self.graph.neighbor
        while True:
            changed = self._changed()
            self._reschedule(stepped_lazy, changed)
            r = self.round + 1
            if not (changed or pending_visit or self._every):
                r = self._next_round(r)
            self.round = r
            if r > self.round_cap:
                trace.capped = True
                return self._finish(r - 1)

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
            stepped_lazy = []
            for idx in self._to_step(r, changed):
                stepper = steppers[idx]
                if self.is_byz[idx]:
                    new_presented, action = stepper.step(self.world, ids[idx])
                    if new_presented is not None:
                        pres_updates.append((idx, new_presented))
                    if action is TERMINATE:
                        action = None
                else:
                    if lazy[idx]:
                        stepper.state.count = r - wake[idx]
                        stepped_lazy.append(idx)
                    action = stepper.step(self.node_view(pos[idx]), entry[idx])
                    if lazy[idx]:
                        # An extra step is always safe, and a mover's walk
                        # usually goes on: count it as watching unasked.
                        watch[idx] = True if action is not None else None
                    ev = stepper.events
                    if ev:
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

            for idx in terminations:
                status[idx] = TERMINATED
                if lazy[idx]:
                    self._lazy_at[pos[idx]].remove(idx)
                else:
                    self._every.remove(idx)
                aid = ids[idx]
                trace.termination[aid] = (r, pos[idx])
                if not self.is_byz[idx]:
                    self._good_left -= 1
                stepper = steppers[idx]
                stepper.terminated = True
                pres_updates.append((idx, stepper.build_presented()))

            for idx, port in moves:
                old = pos[idx]
                u, q = neighbor(old, port)
                self.occupants[old].remove(idx)
                insort(self.occupants[u], idx)
                if lazy[idx]:
                    self._lazy_at[old].remove(idx)
                    self._lazy_at[u].append(idx)
                self._bump(old)
                self._bump(u)
                pos[idx] = u
                entry[idx] = q
                trace.position_log[ids[idx]].append((r + 1, u))

            for idx, p in pres_updates:
                self.presented[idx] = p
                self._bump(pos[idx])

            if self._good_left == 0:
                return self._finish(r)

            if self._dormant:
                for idx in self._dormant:
                    for j in self.occupants[pos[idx]]:
                        if status[j] == ACTIVE:
                            pending_visit.append(idx)
                            break


def run(graph: PortGraph, specs: list[AgentSpec], round_cap: int, **meta) -> Trace:
    """Build an engine and run it; the round cap yields a capped trace, not an error."""
    return Engine(graph, specs, round_cap, **meta).run()
