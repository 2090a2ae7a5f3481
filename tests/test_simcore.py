import gc
import hashlib
import weakref
from dataclasses import replace

import pytest
from conftest import ScriptedAgent, presented, worlds
from hypothesis import given, settings
from hypothesis import strategies as st

from byzgather.exploration import exit_port
from byzgather.portgraph import GraphFamily, PortOutOfRange, build, generate
from byzgather.gathering import schedule_slot
from byzgather.simcore import (ACTIVE, TERMINATE, TERMINATED, AgentSpec, Engine, UnknownId,
                               initial_presented)


def two_node():
    return build(2, [(0, 1)])


def test_crossing_agents_do_not_meet():
    g = two_node()
    a = ScriptedAgent([1])
    b = ScriptedAgent([1])
    Engine(g, [AgentSpec(1, False, a, 0, 1), AgentSpec(2, False, b, 1, 1)], round_cap=2).run()
    # Round 1: both see both (co-located with nobody else, each alone actually
    # on its own node). Round 2: they swapped along the same edge, so each is
    # alone again and nobody ever observed a meeting.
    assert a.seen[0][0] == (1,)
    assert b.seen[0][0] == (2,)
    assert a.seen[1][0] == (1,)
    assert b.seen[1][0] == (2,)


def test_entry_port_is_reported_after_a_move_only():
    g = two_node()
    a = ScriptedAgent([1, None])
    trace = Engine(g, [AgentSpec(1, False, a, 0, 1)], round_cap=3).run()
    assert [e for _, e in a.seen] == [None, 1, None]
    assert trace.node_at(1, 1) == 0
    assert trace.node_at(1, 2) == 1
    assert trace.node_at(1, 3) == 1


def test_scheduled_wake_steps_same_round():
    g = two_node()
    a = ScriptedAgent()
    trace = Engine(g, [AgentSpec(1, False, a, 0, 3)], round_cap=4).run()
    assert trace.wake_round[1] == 3
    assert len(a.seen) == 2  # rounds 3 and 4


def test_visit_wake_steps_next_round():
    g = build(3, [(0, 1), (1, 2)])
    mover = ScriptedAgent([1, 2])  # 0 -> 1 -> 2
    sleeper = ScriptedAgent()
    trace = Engine(
        g,
        [AgentSpec(1, False, mover, 0, 1), AgentSpec(2, False, sleeper, 1, None)],
        round_cap=4,
    ).run()
    # The mover reaches node 1 during round 1; the sleeper's first step is
    # round 2, which keeps every wake within one walk length of the first.
    assert trace.wake_round[2] == 2
    assert sleeper.seen[0][0] == (1, 2)


def test_dormant_agents_are_invisible_until_woken():
    g = two_node()
    a = ScriptedAgent([None, None, 1])  # walks over to node 1 in round 3
    b = ScriptedAgent()
    trace = Engine(g, [AgentSpec(1, False, a, 0, 1), AgentSpec(2, False, b, 1, 3)],
                round_cap=4).run()
    assert a.seen[0][0] == (1,)
    assert trace.wake_round[2] == 3
    assert a.seen[3][0] == (1, 2)  # sees it only after arriving/waking


def test_visit_preempts_a_later_schedule():
    g = two_node()
    a = ScriptedAgent()
    b = ScriptedAgent()
    trace = Engine(g, [AgentSpec(1, False, a, 0, 1), AgentSpec(2, False, b, 0, 9)],
                round_cap=3).run()
    # Sharing a node with an awake agent wakes the sleeper the next round,
    # ahead of its scheduled round 9.
    assert trace.wake_round[2] == 2
    assert a.seen[0][0] == (1,)
    assert a.seen[1][0] == (1, 2)


def test_co_located_agents_share_one_view():
    g = two_node()
    a = ScriptedAgent()
    b = ScriptedAgent()
    Engine(g, [AgentSpec(1, False, a, 0, 1), AgentSpec(2, False, b, 0, 1)], round_cap=1).run()
    assert a.seen[0][0] == (1, 2) and b.seen[0][0] == (1, 2)


def test_terminated_agents_remain_observable():
    g = two_node()
    quitter = ScriptedAgent([TERMINATE], presented_state=presented(sta="S_G_WG", gid=7))
    watcher = ScriptedAgent()
    trace = Engine(
        g,
        [AgentSpec(1, False, quitter, 0, 1), AgentSpec(2, False, watcher, 0, 1)],
        round_cap=3,
    ).run()
    assert trace.termination[1] == (1, 0)
    assert watcher.seen[1][0] == (1, 2)
    assert watcher.seen[2][0] == (1, 2)
    assert len(quitter.seen) == 1  # never stepped again


def test_round_cap_yields_capped_trace_not_crash():
    g = two_node()
    trace = Engine(g, [AgentSpec(1, False, ScriptedAgent(), 0, 1)], round_cap=5).run()
    assert trace.capped
    assert trace.rounds == 5
    assert not trace.termination


def test_byzantine_presented_keeps_true_id():
    g = two_node()

    class Forger:
        def step(self, world, agent_id):
            return presented(sta="S_MG_TA", tar=999), None

        def wait(self):
            return None, None, None

    observer = ScriptedAgent()
    Engine(g, [AgentSpec(1, False, observer, 0, 1), AgentSpec(9, True, Forger(), 0, 1)],
        round_cap=3).run()
    ids_seen, _ = observer.seen[2]
    assert ids_seen == (1, 9)  # the forged fields never touch the id


class _HaltingProtocolStepper:
    """A protocol stepper with the wait() hook: due every third count,
    logs each step, halts at count 10."""

    def __init__(self):
        self.state = type("S", (), {"count": 0})()
        self.events = []
        self.presented_dirty = False
        self.terminated = False
        self.stepped = []

    def step(self, view_, entry_port):
        self.state.count += 1
        self.stepped.append(self.state.count)
        self.events.append(("tick", self.state.count))
        return TERMINATE if self.state.count == 10 else None

    def wait(self):
        return self.state.count + 3, None, None

    def build_presented(self):
        return presented(terminated=self.terminated)


@pytest.mark.parametrize("faulty", [False, True], ids=["good-seat", "faulty-seat"])
def test_a_protocol_stepper_is_driven_alike_in_either_seat(faulty):
    # The stepper picks how it is called; the seat only decides whether its
    # events and its termination count.
    class Watcher(ScriptedAgent):
        def step(self, view_, entry_port):
            self.shown.append(dict(zip(view_.order, view_.states)))
            return super().step(view_, entry_port)

    g = two_node()
    halting, watcher = _HaltingProtocolStepper(), Watcher()
    watcher.shown = []
    trace = Engine(g, [AgentSpec(1, False, watcher, 0, 1), AgentSpec(9, faulty, halting, 0, 2)],
                round_cap=15).run()
    # Awake from round 2, halted in round 11: stepped in 4 of those 10
    # rounds, never after, with the full own-clock count.
    assert halting.stepped == [1, 4, 7, 10]
    assert halting.state.count == 10
    assert [s[9].terminated for s in watcher.shown[1:]] == [False] * 10 + [True] * 4
    assert trace.capped and trace.rounds == 15  # the good watcher never halts
    if faulty:
        assert trace.events == []
        assert trace.termination == {}
    else:
        assert trace.events == [(r + 1, 9, "tick", r) for r in (1, 4, 7, 10)]
        assert trace.termination == {9: (11, 0)}


class _WorldFedQuitter:
    """A world-fed stepper: shows ``pose`` in round 1, halts in round 2."""

    def __init__(self, pose):
        self.pose = pose
        self.rounds = []

    def step(self, world, agent_id):
        self.rounds.append(world.round)
        return (self.pose, None) if world.round == 1 else (None, TERMINATE)

    def wait(self):
        return 2, None, None  # due at own count 2: round 2 when woken in round 1


def test_a_world_fed_strategy_halts_like_any_faulty_agent():
    class Watcher(ScriptedAgent):
        def step(self, view_, entry_port):
            self.shown.append(dict(zip(view_.order, view_.states)))
            return super().step(view_, entry_port)

    g = two_node()
    pose = presented(sta="S_MG_TA", tar=7)
    quitter, watcher = _WorldFedQuitter(pose), Watcher()
    watcher.shown = []
    engine = Engine(g, [AgentSpec(1, False, watcher, 0, 1), AgentSpec(7, True, quitter, 0, 1)],
                    round_cap=5)
    trace = engine.run()
    assert quitter.rounds == [1, 2]  # never stepped after halting
    assert engine.status == [ACTIVE, TERMINATED]
    # Its last presented state stays on show, marked terminated.
    assert [s[7] for s in watcher.shown[2:]] == [pose._replace(terminated=True)] * 3
    assert trace.termination == {}
    assert trace.capped and trace.rounds == 5


class _PredicateWatcher:
    """A protocol stepper with the wait() hook: never due again after its
    wake round, it wants a changed view only while agent 2 stands on it."""

    def __init__(self):
        self.state = type("S", (), {"count": 0})()
        self.events = []
        self.presented_dirty = False
        self.terminated = False
        self.stepped = []

    def step(self, view_, entry_port):
        self.state.count += 1
        self.stepped.append((self.state.count, 2 in view_.ids))
        return None

    def wait(self):
        return None, lambda view_: 2 in view_.ids, None

    def build_presented(self):
        return presented(terminated=self.terminated)


def test_a_predicate_watcher_is_stepped_only_where_its_predicate_holds():
    # A walker bounces between the two nodes, so the watcher's node changes
    # every round, but the watcher wants only the views that show the walker.
    g = two_node()
    watcher = _PredicateWatcher()
    trace = Engine(g, [AgentSpec(1, False, watcher, 0, 1),
                       AgentSpec(2, False, ScriptedAgent([1] * 12), 1, 1)], round_cap=12).run()
    present = [r for r in range(2, 13) if trace.node_at(2, r) == 0]
    assert present == [2, 4, 6, 8, 10, 12]
    # Wake round 1 is due; after it, every round that shows the walker.
    assert watcher.stepped == [(1, False)] + [(r, True) for r in present]
    assert watcher.state.count == 12


class _LoneWatcher:
    """A protocol stepper with the wait() hook: never due again after its
    wake round, it raises its flag in that step and wants a view that
    shows a raised flag, its own included, until a step has noted one."""

    def __init__(self):
        self.state = type("S", (), {"count": 0})()
        self.events = []
        self.presented_dirty = False
        self.terminated = False
        self.stepped = []
        self.noted = False

    def step(self, view_, entry_port):
        self.state.count += 1
        self.stepped.append(self.state.count)
        self.presented_dirty = self.state.count == 1
        self.noted = any(p.flag_t for p in view_.states)
        return None

    def wait(self):
        return None, lambda view_: not self.noted and any(p.flag_t for p in view_.states), None

    def build_presented(self):
        return presented(flag_t=True, terminated=self.terminated)


def test_a_lone_watcher_is_asked_on_its_own_changed_view():
    # Only a walker's predicate is taken to be False on a view that shows
    # the walker alone; a watcher's may hold there (a lone target's vote).
    watcher = _LoneWatcher()
    Engine(two_node(), [AgentSpec(1, False, watcher, 0, 1)], round_cap=5).run()
    # Its flag changes its node once, after the wake round; the step that
    # notes it leaves a predicate that no later view satisfies.
    assert watcher.stepped == [1, 2]
    assert watcher.state.count == 5


class _CountedUnknownId(UnknownId):
    """An ``UnknownId`` that logs each ask in ``asked``."""

    def __init__(self, known, asked):
        super().__init__(known)
        self.asked = asked

    def __call__(self, view_):
        self.asked.append(sorted(view_.ids))
        return super().__call__(view_)


class _IdWatcher:
    """A protocol stepper with the wait() hook: never due again after its
    wake round, it collects the ids it sees and watches for an unknown one."""

    def __init__(self, known):
        self.state = type("S", (), {"count": 0})()
        self.events = []
        self.presented_dirty = False
        self.terminated = False
        self.known = set(known)
        self.stepped = []
        self.asked = []

    def step(self, view_, entry_port):
        self.state.count += 1
        self.stepped.append(self.state.count)
        self.known |= view_.ids
        return None

    def wait(self):
        return None, _CountedUnknownId(self.known, self.asked), None

    def build_presented(self):
        return presented(terminated=self.terminated)


@pytest.mark.parametrize("known", [{1, 2}, {1}], ids=["knows-every-id", "one-id-left"])
def test_an_id_watcher_is_asked_only_while_an_id_is_unknown(known):
    # Agent 2 bounces between the nodes, so the watcher's node changes
    # every round.  Once the watcher knows every id in the run, no view
    # can show it an unknown one, and its predicate is never asked.
    watcher = _IdWatcher(known)
    Engine(two_node(), [AgentSpec(1, False, watcher, 0, 1),
                        AgentSpec(2, False, ScriptedAgent([1] * 9), 1, 1)], round_cap=10).run()
    if known == {1, 2}:
        assert watcher.asked == []
        assert watcher.stepped == [1]
    else:
        # Asked on the end-of-round-1 view, where agent 2 has arrived; the
        # step that learns id 2 reaches the horizon.
        assert watcher.asked == [[1, 2]]
        assert watcher.stepped == [1, 2]
    assert watcher.known == {1, 2}


class _IdsReader:
    """A protocol stepper that reads only ``ids``, due in every round; it
    keeps its first view and changes its presented state in its second step."""

    def __init__(self):
        self.state = type("S", (), {"count": 0})()
        self.events = []
        self.presented_dirty = False
        self.terminated = False
        self.views = []

    def step(self, view_, entry_port):
        self.state.count += 1
        self.views.append((view_, view_.ids))
        self.presented_dirty = len(self.views) == 2
        return TERMINATE if len(self.views) == 3 else None

    def wait(self):
        return self.state.count + 1, None, None

    def build_presented(self):
        return presented(sta="S_G_WG", terminated=self.terminated)


def test_a_kept_view_shows_its_build_time_columns_in_id_order():
    g = two_node()
    readers = {aid: _IdsReader() for aid in (7, 3, 5)}
    engine = Engine(g, [AgentSpec(aid, False, r, 0, 1) for aid, r in readers.items()],
                    round_cap=10)
    trace = engine.run()
    # Readers of ids alone are driven like any other protocol stepper.
    assert trace.termination == {aid: (3, 0) for aid in readers}
    # A view kept across a presented update shows the states it was taken with.
    first, ids = readers[3].views[0]
    assert ids == {3, 5, 7}
    assert first.order == [3, 5, 7]
    assert first.states == [initial_presented(aid) for aid in (3, 5, 7)]
    # The columns are sorted by true id, terminated agents included.
    last = engine.node_view(0)
    assert last.order == [3, 5, 7]
    assert last.states == [presented(sta="S_G_WG", terminated=True)] * 3


def test_run_is_deterministic_by_export():
    from byzgather.harness import ScenarioConfig, default_agent_ids, export_trace_text, run_scenario

    ids, byz = default_agent_ids(17, 1, 0)
    cfg = ScenarioConfig(
        scenario_id="det", variant="NS", family="random-tree", n=5, graph_seed=0,
        N=5, ids=ids, byzantine_ids=byz, strategy="random_walk",
        wake_policy="adversarial_stagger", seed=0)
    _, t1 = run_scenario(cfg)
    _, t2 = run_scenario(cfg)
    assert export_trace_text(t1, cfg) == export_trace_text(t2, cfg)


def test_degenerate_single_node_world():
    # Engine plumbing only: one agent on one node of degree 0 runs a walk of
    # X_1 = 8 moves that cannot move, and idles through phases alone until
    # the cap.
    from byzgather.exploration import build_sequence
    from byzgather.gathering import GatheringAgent

    g = build(1, [])
    seq = build_sequence(1, 0, [g])
    assert seq.length == 8
    agent = GatheringAgent(1, seq)
    trace = Engine(g, [AgentSpec(1, False, agent, 0, 1)], round_cap=410).run()
    assert trace.capped
    assert agent.state.count == 410
    assert trace.position_log[1] == [(1, 0)]
    # Id collection's six main phases, one in three, end the 16th phase of
    # 25 rounds after the walk: round 8 + 16 * 25 = 408.
    assert agent.state.end_ci


def test_every_stepper_answers_wait_and_is_stepped_only_when_due():
    from byzgather.adversary import STRATEGY_NAMES, make_strategy
    from byzgather.exploration import build_sequence

    # The engine has one stepping contract: it asks every stepper wait().
    seq = build_sequence(3, 0, [build(3, [(0, 1), (1, 2)])])
    for variant in ("NS", "SIM"):
        for name in STRATEGY_NAMES:
            assert callable(make_strategy(name, 1, 0, 1, variant=variant, seq=seq).wait), name

    class Still:
        def __init__(self):
            self.rounds = []

        def step(self, world, agent_id):
            self.rounds.append(world.round)
            return None, None

        def wait(self):
            return len(self.rounds) + 1, None, None  # due at its next own count

    class Static(Still):
        def wait(self):
            return None, None, None  # a held pose: never due again

    scripted, still, static = ScriptedAgent(), Still(), Static()
    Engine(two_node(), [AgentSpec(1, False, scripted, 0, 1), AgentSpec(2, True, still, 1, 1),
                        AgentSpec(3, True, static, 1, 2)], round_cap=6).run()
    assert len(scripted.seen) == 6  # nothing changes, yet it is due each round
    assert still.rounds == [1, 2, 3, 4, 5, 6]
    assert static.rounds == [2]  # a held pose only in its wake round


def test_lazy_stepper_skips_idle_rounds_but_keeps_its_clock():
    from byzgather.exploration import build_sequence
    from byzgather.gathering import GatheringAgent

    class Counting(GatheringAgent):
        def step(self, view, entry_port):
            action = super().step(view, entry_port)
            stepped.append(self.state.count)
            return action

    stepped = []
    g = build(3, [(0, 1), (1, 2)])
    seq = build_sequence(3, 0, [g])
    agent = Counting(1, seq)
    lazy = Engine(g, [AgentSpec(1, False, agent, 0, 1)], round_cap=400).run()
    eager = _EagerEngine(g, [AgentSpec(1, False, GatheringAgent(1, seq), 0, 1)],
                         round_cap=400).run()
    X, P = agent.X, agent.P
    # The wake round, and the first and last rounds of the first phase.
    assert {1, X + 1, X + P} <= set(stepped)
    assert lazy.position_log == eager.position_log
    # A lone walker's leg moves are not steps: of its initial walk only
    # the first count is stepped.
    assert not set(range(2, X + 1)) & set(stepped)
    assert len(stepped) < 66 // 2  # stepping every walk count took 66 steps
    assert agent.state.count == 400


def test_a_predicate_free_walk_fast_forwards_to_the_next_due_round():
    # A lone agent knows every id in the run, so it never holds a
    # predicate, and each of its walks is moved in one pass up to its due
    # round: the engine runs only the rounds in which the agent is stepped.
    from byzgather.exploration import build_sequence
    from byzgather.gathering import GatheringAgent

    class Counting(GatheringAgent):
        def step(self, view, entry_port):
            stepped.append(self.state.count + 1)
            return super().step(view, entry_port)

    stepped = []
    g = build(4, [(0, 1), (1, 2), (1, 3)])
    seq = build_sequence(4, 0, [g])
    engine = Engine(g, [AgentSpec(1, False, Counting(1, seq), 2, 1)], round_cap=700)
    lazy = engine.run()
    eager = _EagerEngine(g, [AgentSpec(1, False, GatheringAgent(1, seq), 2, 1)],
                         round_cap=700).run()
    assert lazy.position_log == eager.position_log
    assert lazy.rounds == eager.rounds == 700
    # The initial walk and the first main phase's walk (label bit 1).
    assert len(lazy.position_log[1]) == 1 + 2 * seq.length
    assert engine.rounds_processed == len(stepped) < 700 // 50


def test_a_stepped_move_through_a_missing_port_raises():
    # Walk moves are looked up in the engine's neighbour table; a port
    # that a stepper names still goes through the graph's range check.
    with pytest.raises(PortOutOfRange):
        Engine(two_node(), [AgentSpec(1, False, ScriptedAgent([2]), 0, 1)], round_cap=3).run()


def test_a_walker_is_stepped_only_where_its_leg_meets_an_unknown_id():
    # Agent 1 collects ids on its walk in the first main phase (label bit 1
    # is 1).  Agent 2 waits on node 0, which the walk passes several times;
    # only the first pass of the walk window shows an id it does not know.
    from byzgather.exploration import build_sequence
    from byzgather.gathering import GatheringAgent

    class Counting(GatheringAgent):
        def step(self, view, entry_port):
            action = super().step(view, entry_port)
            stepped.append(self.state.count)
            return action

    stepped = []
    g = build(3, [(0, 1), (1, 2)])
    seq = build_sequence(3, 0, [g])
    X = seq.length
    cap = 3 * X + 1  # through the walk window's last round, rp 2X+1
    agent = Counting(1, seq)
    lazy = Engine(g, [AgentSpec(1, False, agent, 0, 1),
                      AgentSpec(2, False, ScriptedAgent(), 0, 1)], round_cap=cap).run()
    eager = _EagerEngine(g, [AgentSpec(1, False, GatheringAgent(1, seq), 0, 1),
                             AgentSpec(2, False, ScriptedAgent(), 0, 1)], round_cap=cap).run()
    assert lazy.position_log == eager.position_log
    assert agent.state.il == {1, 2}
    # The initial walk passes node 0 unstepped: it reads no view.
    assert [c for c in range(2, X + 1) if lazy.node_at(1, c) == 0]
    assert not set(range(2, X + 1)) & set(stepped)
    # The window's leg, rp X+2..2X, is own counts 2X+2..3X (wake round 1).
    leg = range(2 * X + 2, 3 * X + 1)
    meets = [c for c in leg if lazy.node_at(1, c) == 0]
    assert len(meets) > 1
    assert [c for c in stepped if c in leg] == meets[:1]


class _ConvoyWalker:
    """A protocol stepper with the wait() hook: it walks ``offsets`` from its
    wake round on, watching with a predicate that logs each ask in
    ``asked`` and never holds, and then stays."""

    def __init__(self, offsets):
        self.state = type("S", (), {"count": 0})()
        self.events = []
        self.presented_dirty = False
        self.terminated = False
        self.offsets = offsets
        self.asked = []

    def step(self, view_, entry_port):
        c = self.state.count = self.state.count + 1
        if c > len(self.offsets):
            return None
        return exit_port(self.offsets[c - 1], None if c == 1 else entry_port, view_.degree)

    def wait(self):
        if self.state.count >= len(self.offsets):
            return None, None, None
        return len(self.offsets) + 1, self.wants, (1, self.offsets)

    def wants(self, view_):
        self.asked.append(tuple(view_.order))
        return False

    def build_presented(self):
        return presented(terminated=self.terminated)


def test_walkers_on_one_walk_move_as_a_convoy_asked_once_alone():
    # Agents 1 and 2 wake on node 0 and walk one offsets object in step,
    # so the engine moves them as one convoy.  A view of the convoy alone
    # shows the same agents and states each round: their predicates are
    # asked on the first such view only, and again on each view that also
    # shows agent 3.
    offsets = (0, 1, 0, 0, 1, 1, 0, 1, 0, 0)
    walkers = {aid: _ConvoyWalker(offsets) for aid in (1, 2)}

    def specs(walker_of):
        return [AgentSpec(aid, False, walker_of(aid), 0, 1) for aid in (1, 2)] + [
            AgentSpec(3, False, ScriptedAgent(), 2, 1)]

    g = build(3, [(0, 1), (1, 2)])
    lazy = Engine(g, specs(walkers.get), round_cap=12).run()
    eager = _EagerEngine(g, specs(lambda aid: _ConvoyWalker(offsets)), round_cap=12).run()
    assert lazy.position_log == eager.position_log
    met = [r for r in range(2, len(offsets) + 2) if lazy.node_at(1, r) == 2]
    assert met and lazy.position_log[1] == lazy.position_log[2]
    for walker in walkers.values():
        assert walker.asked.count((1, 2)) == 1
        assert walker.asked.count((1, 2, 3)) == len(met)
        assert len(walker.asked) == 1 + len(met)


def test_finished_engine_is_freed_without_the_cycle_collector():
    from byzgather.adversary import make_strategy
    from byzgather.exploration import build_sequence

    g = build(3, [(0, 1), (1, 2)])
    seq = build_sequence(3, 0, [g])
    specs = [AgentSpec(1, False, make_strategy("mimic_good", 1, 0, 1, seq=seq), 0, 1),
             AgentSpec(2, True, make_strategy("random_walk", 2, 0, 1, seq=seq), 2, 1)]
    gc.disable()
    try:
        engine = Engine(g, specs, round_cap=200)
        trace = engine.run()
        ref = weakref.ref(engine)
        del engine
        assert ref() is None
        assert trace.rounds > 0
    finally:
        gc.enable()


def _pinned_config(variant, family, n, f, rule, strategy, wake, seed, cap=None):
    from byzgather.harness import (ScenarioConfig, default_agent_ids,
                                   hypothesis_team_size, strict_team_size)

    k = strict_team_size(f) if rule == "strict" else hypothesis_team_size(f)
    ids, byz = default_agent_ids(k, f, seed)
    return ScenarioConfig(
        scenario_id=f"pin-{variant}-{family}-f{f}-{strategy}", variant=variant,
        family=family, n=n, graph_seed=seed % 3, N=n, ids=ids, byzantine_ids=byz,
        strategy=strategy, wake_policy=wake, seed=seed, team_rule=rule, round_cap=cap)


def _read_records(text):
    """The sparse export parsed back: config fields, header, and per-agent records."""
    cfg, header = {}, None
    wake, log, term, first = {}, {}, {}, {"end_ci": {}, "sim_mode": {}}
    for line in text.splitlines():
        if line.startswith("#cfg "):
            key, _, value = line[5:].partition(" = ")
            cfg[key] = value
        elif line.startswith("# scenario "):
            header = line.split()
        else:
            r, aid, kind, value = line.split(",", 3)
            r, aid = int(r), int(aid)
            if kind == "wake":
                wake[aid] = r
            if kind in ("wake", "at"):
                log.setdefault(aid, []).append((r, int(value)))
            elif kind == "terminate":
                term[aid] = (r, int(value))
            elif kind in first:
                first[kind][aid] = r
    return cfg, header, wake, log, term, first


def _dense_export(text):
    """The dense "round,agent,node,status,stage" export the sparse records stand for.

    It is what the export wrote before it became change-only, so the pinned
    digests below hash this expansion.
    """
    cfg, header, _, log, term, first = _read_records(text)
    x, rounds = int(header[header.index("x_n") + 1]), int(header[-1])
    p = 3 * x + 1
    byz = set(map(int, cfg["byzantine_ids"].split()))
    end_ci, sim = first["end_ci"], first["sim_mode"]
    lines = [line for line in text.splitlines() if line.startswith("#")]
    agents = [(aid, log.get(aid), term.get(aid, (rounds,))[0])
              for aid in sorted(map(int, cfg["ids"].split()))]
    cursor = {}
    for r in range(1, rounds + 1):
        for aid, moves, last in agents:
            if moves is None or r < moves[0][0]:
                lines.append(f"{r},{aid},-,dormant,-")
                continue
            i = cursor.get(aid, 0)
            while i + 1 < len(moves) and moves[i + 1][0] <= r:
                i += 1
            cursor[aid] = i
            node = moves[i][1]
            if r > last:
                lines.append(f"{r},{aid},{node},terminated,done")
                continue
            if aid in byz:
                stage = "byz"
            elif aid in sim and r >= sim[aid]:
                stage = "simterm"
            else:
                pos = schedule_slot(r - moves[0][0] + 1, x, p)
                if pos is None:
                    stage = "explo"
                elif pos[0] == 0:
                    stage = "mgst" if aid in end_ci and r > end_ci[aid] else "cist"
                else:
                    stage = "gst1" if pos[0] == 1 else "gst2"
            lines.append(f"{r},{aid},{node},active,{stage}")
    return "\n".join(lines) + "\n"


# SHA-256 of the dense expansion of export_trace_text, recorded from the
# engine that stepped every agent in every round, when the export itself
# was dense.  Together: both variants, f = 0, 1, 2, held-pose and every-round
# strategies, all three wake policies, and a capped run.
PINNED_TRACES = [
    (("NS", "ring", 3, 0, "strict", "crash", "all_at_once", 0),
     "9b259ff4d5f60e6aadd419ccf0ea89f6e02cf80cd3211da2d06c129e6cf244a0"),
    (("SIM", "path", 4, 0, "strict", "crash", "single_good_first", 1),
     "8f0793e5f5e70fb6718dcef07b689c6757b4618151cbda77f3925b73a28dd978"),
    (("NS", "random-tree", 4, 1, "hypothesis", "lure", "adversarial_stagger", 0),
     "810e58afc7a413cc7766fec288d7bbf4a40c720bf2e7e789349b101032c68a9f"),
    (("SIM", "complete", 4, 1, "strict", "id_inflator", "adversarial_stagger", 1),
     "4bd69c5d814a62343e4ee518760ac864ba799ef35d24f799ecc718de2944511e"),
    (("NS", "random-connected", 3, 2, "hypothesis", "fake_group", "single_good_first", 2),
     "12ac0d4e85d83387c59dd967ffa0f7a35630857afcca39630f8a8456c78b7484"),
    (("SIM", "ring", 3, 2, "hypothesis", "mimic_good", "all_at_once", 0),
     "d558818fbd9f33373a0abb0896c701b34617826bb0128bec9af496d96a6ff066"),
    (("NS", "complete", 5, 1, "strict", "estf_liar", "adversarial_stagger", 2),
     "f6047b3a99d4620395719244d33831ec0939a457506203f2d1617b5a78bbaa80"),
    (("SIM", "random-tree", 3, 1, "hypothesis", "random_walk", "single_good_first", 0),
     "9c86c6c3d584c54c3ed0016a7ded1c42357e60addde928b44931f6830ebfa71e"),
    (("NS", "ring", 3, 0, "strict", "crash", "adversarial_stagger", 1, 700),
     "a238c17c1b4afaeba07b06a2dfbabe7c89147b241d87970c25adce769709cf46"),
]


@pytest.mark.parametrize("case,digest", PINNED_TRACES,
                         ids=["-".join(map(str, case)) for case, _ in PINNED_TRACES])
def test_trace_exports_match_pinned_digests(case, digest):
    from byzgather.harness import export_trace_text, run_scenario

    cfg = _pinned_config(*case)
    _, trace = run_scenario(cfg)
    text = export_trace_text(trace, cfg)
    _, _, wake, log, term, _ = _read_records(text)
    assert wake == trace.wake_round
    assert log == trace.position_log
    assert term == trace.termination
    assert hashlib.sha256(_dense_export(text).encode()).hexdigest() == digest


class _EagerEngine(Engine):
    """The every-round reference: whatever wait() answers, every active
    agent, in either seat, is due in every round, so none is skipped."""

    def _set_due(self, idx, r):
        # Due now on waking, else in the next round.
        nxt = self.round + 1
        super()._set_due(idx, nxt if r is None else min(r, nxt))


def _hook_cells():
    from byzgather.harness import acceptance_matrix

    return [cfg for variant in ("NS", "SIM") for cfg in acceptance_matrix(variant)
            if cfg.family == "random-tree" and cfg.f == 1 and cfg.team_rule == "hypothesis"
            and cfg.wake_policy == "adversarial_stagger" and cfg.seed == 0]


def _wide_cells():
    # k = 38 at f = 2: where the view predicates skip the most steps.
    from byzgather.harness import acceptance_matrix

    return [cfg for variant in ("NS", "SIM") for cfg in acceptance_matrix(variant)
            if cfg.family == "random-connected" and cfg.f == 2 and cfg.k == 38
            and cfg.strategy in ("random_walk", "estf_liar")
            and cfg.wake_policy == "adversarial_stagger" and cfg.seed == 0]


def _walker_cells():
    # n = 10, k = 4, f = 0: lone walkers on walks of up to 320 moves, where
    # walk legs skip the most steps.
    from byzgather.harness import baseline_matrix

    return [cfg for cfg in baseline_matrix() if cfg.n == 10]


def _single_node_cells():
    # n = 1: the one node has degree 0, so a step that wait() answers with a
    # walk did not move, and the engine must not make that walk.  At N = 1
    # the walk is X_1 = 8 moves long.  A scenario id does not name N, so
    # those cells' ids end in "-N1".
    from byzgather.harness import parse_matrix_text

    cells = []
    for N, suffix in ((3, ""), (1, "-N1")):
        for variant in ("NS", "SIM"):
            for cfg in parse_matrix_text(
                    f"variant = {variant}\nn = 1\nN = {N}\nfamilies = path\nf = 1\n"
                    "strategies = lure\nwake_policies = adversarial_stagger\nseeds = 0, 1, 2"):
                cfg.scenario_id += suffix
                cells.append(cfg)
    return cells


# Cells where a searcher finds a target that stands still and does not
# claim itself: its new watch already holds on the view it stays on, so
# the engine must ask it although its node does not change.
FOUND_TARGET_IDS = [f"{v}-complete-n5-f1-k17-{s}-all_at_once-s0" for v in ("NS", "SIM")
                    for s in ("crash", "fake_group", "id_inflator")] + [
    f"{v}-complete-n5-f1-k17-lure-single_good_first-s0" for v in ("NS", "SIM")]


# Lure cells: at k = 38 and f = 2 hunters find the lure and it flips; in
# the odd-seed sibling of each HOOK_CELLS lure cell its faulty id, 63, is
# above every good id, so no good agent can hunt it.
LURE_IDS = [f"{v}-random-connected-n5-f2-k38-lure-adversarial_stagger-s0" for v in ("NS", "SIM")] + [
    f"{v}-random-tree-n5-f1-k16-lure-adversarial_stagger-s1" for v in ("NS", "SIM")]


# Convoys of up to 29 agents form where all 38 wake at once, and the
# faulty honest stepper walks inside them.
CONVOY_IDS = [f"{v}-random-connected-n5-f2-k38-mimic_good-all_at_once-s0" for v in ("NS", "SIM")]


def _acceptance_cells(scenario_ids):
    from byzgather.harness import acceptance_matrix

    cells = {cfg.scenario_id: cfg for variant in ("NS", "SIM") for cfg in acceptance_matrix(variant)}
    return [cells[sid] for sid in scenario_ids]


HOOK_CELLS = _hook_cells()
WIDE_CELLS = _wide_cells()
WALKER_CELLS = _walker_cells()
SINGLE_NODE_CELLS = _single_node_cells()
FOUND_TARGET_CELLS = _acceptance_cells(FOUND_TARGET_IDS)
LURE_CELLS = _acceptance_cells(LURE_IDS)
CONVOY_CELLS = _acceptance_cells(CONVOY_IDS)
LAZY_CELLS = (HOOK_CELLS + WIDE_CELLS + WALKER_CELLS + SINGLE_NODE_CELLS + FOUND_TARGET_CELLS
              + LURE_CELLS + CONVOY_CELLS)


def test_hook_cells_cover_both_variants_and_every_strategy():
    from byzgather.adversary import STRATEGY_NAMES

    assert len(HOOK_CELLS) == 16
    assert {(c.variant, c.strategy) for c in HOOK_CELLS} == {
        (v, s) for v in ("NS", "SIM") for s in STRATEGY_NAMES}


def test_wide_cells_are_the_k38_walker_and_liar_cells_of_both_variants():
    assert sorted((c.variant, c.strategy) for c in WIDE_CELLS) == [
        (v, s) for v in ("NS", "SIM") for s in ("estf_liar", "random_walk")]


def test_walker_cells_are_the_n10_baseline_cells_of_every_family():
    assert sorted((c.family, c.graph_seed) for c in WALKER_CELLS) == sorted(
        [("complete", 0), ("path", 0), ("ring", 0)]
        + [(fam, seed) for fam in ("random-connected", "random-tree") for seed in (0, 1, 2)])
    assert {(c.variant, c.f, len(c.ids), c.N) for c in WALKER_CELLS} == {("NS", 0, 4, 10)}


def test_odd_seed_lure_cells_have_a_faulty_id_above_every_good_id():
    for cfg in LURE_CELLS:
        if cfg.f == 1:
            assert cfg.byzantine_ids == (63,) and max(set(cfg.ids) - {63}) < 63


@pytest.mark.parametrize("cfg", LAZY_CELLS, ids=[c.scenario_id for c in LAZY_CELLS])
def test_lazy_stepping_matches_stepping_every_round(cfg, monkeypatch):
    # wait() may only skip steps that change nothing.
    from byzgather import harness

    _, lazy = harness.run_scenario(cfg)
    monkeypatch.setattr(harness, "Engine", _EagerEngine)
    _, eager = harness.run_scenario(cfg)
    assert harness.export_trace_text(lazy, cfg) == harness.export_trace_text(eager, cfg)


@settings(max_examples=60, deadline=None)
@given(worlds(max_n=4, max_N=4, max_f=1, explicit_ids=False), st.none() | st.integers(1, 400))
def test_lazy_stepping_matches_stepping_every_round_on_small_worlds(cfg, round_cap):
    # The drawn round cap also covers runs cut short.
    from byzgather import harness

    cfg.round_cap = round_cap
    _, lazy = harness.run_scenario(cfg)
    engine = harness.Engine
    harness.Engine = _EagerEngine
    try:
        _, eager = harness.run_scenario(cfg)
    finally:
        harness.Engine = engine
    assert harness.export_trace_text(lazy, cfg) == harness.export_trace_text(eager, cfg)


def _moved(trace, d=0):
    """A trace's round count, wakes, positions, events and terminations, each round moved by ``d``."""
    return (trace.rounds + d, {aid: w + d for aid, w in trace.wake_round.items()},
            {aid: [(r + d, v) for r, v in log] for aid, log in trace.position_log.items()},
            [(r + d, *rest) for r, *rest in trace.events],
            {aid: (r + d, v) for aid, (r, v) in trace.termination.items()})


@settings(max_examples=60, deadline=None)
@given(worlds())
def test_a_wake_shift_shifts_the_whole_run(cfg):
    # Agents read their own clocks only, so scheduling every wake d rounds
    # later, with the round cap moved alike, moves every record by d.
    # estf_liar's pose is keyed by global parity, so for it the law holds
    # for even shifts only.
    from byzgather import harness

    _, base = harness.run_scenario(cfg)
    cap = 4 * harness.theorem2_bound(base.x_n, cfg.f, cfg.lambda_all)
    schedule = harness.wake_schedule
    for d in (2,) if cfg.strategy == "estf_liar" else (1, 2):
        def later(*args, d=d):
            return {aid: None if w is None else w + d for aid, w in schedule(*args).items()}

        harness.wake_schedule = later
        try:
            _, shifted = harness.run_scenario(replace(cfg, round_cap=cap + d))
        finally:
            harness.wake_schedule = schedule
        assert _moved(shifted) == _moved(base, d)


@pytest.mark.parametrize("cfg", [
    next(c for c in WIDE_CELLS if c.variant == "NS" and c.strategy == "estf_liar"),
    _pinned_config(*PINNED_TRACES[7][0])], ids=["k38-estf_liar", "small-random_walk"])
def test_the_reference_engine_steps_every_active_agent_in_every_round(cfg, monkeypatch):
    # Nothing else keeps the reference from turning lazy: step() calls
    # must equal agent-rounds, from each wake through the agent's
    # termination or the run's end (no faulty agent here terminates).
    from byzgather import harness

    steps = 0

    class Counted(_EagerEngine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for stepper in self.steppers:
                def counting(*args, step=stepper.step):
                    nonlocal steps
                    steps += 1
                    return step(*args)
                stepper.step = counting

    monkeypatch.setattr(harness, "Engine", Counted)
    _, trace = harness.run_scenario(cfg)
    end = {aid: r for aid, (r, _) in trace.termination.items()}
    assert steps == sum(end.get(aid, trace.rounds) + 1 - w for aid, w in trace.wake_round.items())


# Outermost step() calls of the good agents on the k = 38 estf_liar cell,
# as measured with every watcher answering a predicate and the rendezvous
# phases before the end of id collection skipped: 2,596 on the NS cell
# (9,788 when each watcher answered True and every phase's first round was
# due), 2,705 SimGatheringAgent.step calls on the SIM cell.  Step counts
# repeat exactly, so a lost skip fails here in seconds.
GUARD_STEPS = {"NS": 2_596, "SIM": 2_705}


@pytest.mark.parametrize("variant", sorted(GUARD_STEPS))
def test_good_step_calls_stay_within_the_guard(variant, monkeypatch):
    from byzgather import gathering, harness, simgather

    calls = 0
    cls = gathering.GatheringAgent if variant == "NS" else simgather.SimGatheringAgent
    step = cls.step

    def counting(self, view_, entry_port):
        nonlocal calls
        calls += 1
        return step(self, view_, entry_port)

    monkeypatch.setattr(cls, "step", counting)
    cfg = next(c for c in WIDE_CELLS if c.variant == variant and c.strategy == "estf_liar")
    verdict, _ = harness.run_scenario(cfg)
    assert verdict.ok
    assert calls <= GUARD_STEPS[variant]


# Round-loop iterations summed over the n = 10 baseline cells, whose
# 340,191 rounds are mostly lone walks and idle waits: 21,789 with id
# watches dropped at the id horizon and predicate-free walks moved to the
# next due round in one pass (42,271 when the loop ran for every walk
# round).  Iteration counts repeat exactly, so a lost fast-forward fails
# here in seconds.
GUARD_LOOPS = 21_789


def test_round_loop_iterations_stay_within_the_guard(monkeypatch):
    from byzgather import harness

    engines = []

    class Recorded(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(harness, "Engine", Recorded)
    for cfg in WALKER_CELLS:
        verdict, _ = harness.run_scenario(cfg)
        assert verdict.ok
    assert sum(e.rounds_processed for e in engines) <= GUARD_LOOPS


# Predicate asks summed over the n = 10 baseline cells, where agents that
# met walk on together: 10,145 with each convoy asked once per change of
# its members on views of it alone (36,513 when each walker sharing its
# node was asked every round).  Ask counts repeat exactly, so a lost
# convoy-view rule fails here in seconds.
GUARD_ASKS = 10_145


def test_predicate_asks_stay_within_the_guard(monkeypatch):
    from byzgather import harness

    asks = 0

    class Counted(list):
        """A watch list whose predicates count each ask."""

        def __getitem__(self, i):
            wants = super().__getitem__(i)
            if wants is None:
                return None

            def asked(view_):
                nonlocal asks
                asks += 1
                return wants(view_)
            return asked

    class Recorded(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._watch = Counted(self._watch)

    monkeypatch.setattr(harness, "Engine", Recorded)
    for cfg in WALKER_CELLS:
        verdict, _ = harness.run_scenario(cfg)
        assert verdict.ok
    assert 0 < asks <= GUARD_ASKS


def test_held_poses_are_stepped_once_per_faulty_wake(monkeypatch):
    # A held pose, and estf_liar's round-keyed pose, answer wait() with
    # never due again, so a world-fed step runs once per faulty agent that
    # wakes, in its wake round.
    from byzgather import adversary, harness

    calls = 0
    for cls in (adversary.HeldPose, adversary.EstfLiar):
        def counting(self, world, agent_id, step=cls.step):
            nonlocal calls
            calls += 1
            return step(self, world, agent_id)

        monkeypatch.setattr(cls, "step", counting)
    held = {name for name in adversary.STRATEGY_NAMES if name != "mimic_good"
            and isinstance(adversary.make_strategy(name, 1, 0, 1), adversary.HeldPose)}
    assert held == {"crash", "fake_target", "fake_group", "id_inflator"}
    woke = 0
    for cfg in HOOK_CELLS:
        if cfg.strategy in held | {"estf_liar"}:
            _, trace = harness.run_scenario(cfg)
            woke += len(trace.byz_ids & trace.wake_round.keys())
    assert woke > 0
    assert calls == woke


# Rounds the round loop runs on the k = 38 estf_liar cells, of 5,853
# (NS) and 6,616 (SIM) simulated: 1,652 and 2,416 with the liar's pose
# keyed by round and shown by the engine (every simulated round when the
# liar was stepped every round).  Round counts repeat exactly, so a return to
# stepping the liar every round fails here in seconds.
GUARD_LIAR_ROUNDS = {"NS": 1_652, "SIM": 2_416}


@pytest.mark.parametrize("variant", sorted(GUARD_LIAR_ROUNDS))
def test_liar_cells_run_rounds_within_the_guard(variant, monkeypatch):
    from byzgather import harness

    engines = []

    class Recorded(Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            engines.append(self)

    monkeypatch.setattr(harness, "Engine", Recorded)
    cfg = next(c for c in WIDE_CELLS if c.variant == variant and c.strategy == "estf_liar")
    verdict, _ = harness.run_scenario(cfg)
    assert verdict.ok
    assert engines[0].rounds_processed <= GUARD_LIAR_ROUNDS[variant]


# World-fed step() calls on the random_walk and lure cells of HOOK_CELLS,
# as measured with walks drawn in legs of 64 moves and hunters read from
# the lure's view: 162 and 62 (10,279 each, one per simulated round of a
# faulty agent, when both were stepped every round).  Step counts repeat
# exactly, so a return to stepping every round fails here in seconds.
GUARD_WORLD_STEPS = {"random_walk": 162, "lure": 62}


def test_walkers_and_lures_are_stepped_within_the_guard(monkeypatch):
    from byzgather import adversary, harness

    calls = dict.fromkeys(GUARD_WORLD_STEPS, 0)
    for cls in (adversary.RandomWalk, adversary.Lure):
        def counting(self, world, agent_id, step=cls.step):
            calls[self.name] += 1
            return step(self, world, agent_id)

        monkeypatch.setattr(cls, "step", counting)
    for cfg in HOOK_CELLS:
        if cfg.strategy in calls:
            verdict, _ = harness.run_scenario(cfg)
            assert verdict.ok
    for name, limit in GUARD_WORLD_STEPS.items():
        assert 0 < calls[name] <= limit


def test_a_good_agent_targets_no_id_above_its_own(monkeypatch):
    # Its target is its own id or the least id it collected and did not
    # blacklist.  The lazy lure rests on this: only agents stepped after
    # it in a round can hunt it.
    from byzgather import gathering, harness

    plan = gathering.GatheringAgent._plan
    targeted = 0

    def checked(self, slot):
        nonlocal targeted
        plan(self, slot)
        tar = self.state.tar
        assert tar is None or tar <= self.state.id
        targeted += tar is not None

    monkeypatch.setattr(gathering.GatheringAgent, "_plan", checked)
    for cfg in HOOK_CELLS:
        harness.run_scenario(cfg)
    assert targeted > 0


class _ClaimObserver(ScriptedAgent):
    """Stays, and records the target that agent 1 shows in each round's view."""

    def __init__(self):
        super().__init__()
        self.claims = []

    def step(self, view_, entry_port):
        self.claims.append(view_.states[view_.order.index(1)].tar)
        return super().step(view_, entry_port)


# A good hunter shows the lure's id as its target from its first step on.
# "returns": it meets the lure in round 2, leaves, and stays with it from
# round 5, so the lure's streak starts over and it flips in round 6 for a
# stretch of X = 2 rounds; "halts": it terminates beside the lure in round
# 2, and a halted agent hunts nobody.
LURE_RUNS = {
    "returns": ([1, 1, None, 1], [None, 1, 1, 1, 1, 1, 0, 0, 0, 1]),
    "halts": ([1, TERMINATE], [None] + [1] * 9),
}


@pytest.mark.parametrize("engine_cls", [Engine, _EagerEngine], ids=["lazy", "eager"])
@pytest.mark.parametrize("run", sorted(LURE_RUNS))
def test_a_lure_flips_after_two_hunted_rounds_in_a_row(run, engine_cls):
    from byzgather.adversary import Lure

    actions, claims = LURE_RUNS[run]
    hunter = ScriptedAgent(actions, presented(tar=1, il={2}))
    hunter.presented_dirty = True
    observer = _ClaimObserver()
    engine_cls(two_node(), [AgentSpec(1, True, Lure(1, 0, 1), 0, 1), AgentSpec(2, False, hunter, 1, 1),
                            AgentSpec(3, False, observer, 0, 1)], round_cap=10, x_n=2).run()
    assert observer.claims == claims


class _EstfReader(ScriptedAgent):
    """Stays, and records the estimate agent 9 shows at each of its steps.
    It is due every ``every`` own counts; where ``every`` is None it is
    never due again after waking and wants a view where agent 9 shows 0."""

    def __init__(self, every):
        super().__init__()
        self.every = every
        self.shown = []

    def step(self, view_, entry_port):
        self.shown.append((self.state.count + 1, view_.states[view_.order.index(9)].estf))
        return super().step(view_, entry_port)

    def wait(self):
        if self.every is None:
            return None, lambda view_: view_.states[view_.order.index(9)].estf == 0, None
        return self.state.count + self.every, None, None


# Agent 9, an estf_liar, wakes with its reader in round 1 and shows its
# wake-round state, then in round r the pose of round r - 1: estf 0 after
# even rounds, 99 after odd ones.  A reader due every third count is
# skipped ahead to, and must see the pose of the round before; a watcher
# beside the liar blocks the skip and acts on each pose of 0.  The
# exports of the acceptance matrices do not depend on the liar's flips,
# so only views pin them.  (reader's every, (round, estf) per step,
# rounds processed.)
EVERY_ROUND = [(1, None)] + [(r, 0 if r % 2 else 99) for r in range(2, 11)]
KEYED_RUNS = {
    "every-round": (1, EVERY_ROUND, 10),
    "every-third": (3, [(1, None), (4, 99), (7, 0), (10, 99)], 4),
    "watcher": (None, [(1, None), (3, 0), (5, 0), (7, 0), (9, 0)], 10),
}


@pytest.mark.parametrize("engine_cls", [Engine, _EagerEngine], ids=["lazy", "eager"])
@pytest.mark.parametrize("run", sorted(KEYED_RUNS))
def test_a_round_keyed_pose_shows_the_pose_of_the_round_just_ended(run, engine_cls):
    from byzgather.adversary import EstfLiar

    every, shown, processed = KEYED_RUNS[run]
    reader = _EstfReader(every)
    engine = engine_cls(two_node(), [AgentSpec(1, False, reader, 0, 1),
                                     AgentSpec(9, True, EstfLiar(9, 0, 1), 0, 1)], round_cap=10)
    engine.run()
    if engine_cls is Engine:
        assert reader.shown == shown
        assert engine.rounds_processed == processed
    else:  # the reference steps the reader in every round
        assert reader.shown == EVERY_ROUND
