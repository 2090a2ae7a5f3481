import hashlib

import pytest
from conftest import ScriptedAgent, presented

from byzgather.portgraph import GraphFamily, build, generate
from byzgather.gathering import schedule_slot
from byzgather.simcore import TERMINATE, AgentSpec, Engine, run


def two_node():
    return build(2, [(0, 1)])


def test_crossing_agents_do_not_meet():
    g = two_node()
    a = ScriptedAgent([1])
    b = ScriptedAgent([1])
    run(g, [AgentSpec(1, False, a, 0, 1), AgentSpec(2, False, b, 1, 1)], round_cap=2)
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
    trace = run(g, [AgentSpec(1, False, a, 0, 1)], round_cap=3)
    assert [e for _, e in a.seen] == [None, 1, None]
    assert trace.node_at(1, 1) == 0
    assert trace.node_at(1, 2) == 1
    assert trace.node_at(1, 3) == 1


def test_scheduled_wake_steps_same_round():
    g = two_node()
    a = ScriptedAgent()
    trace = run(g, [AgentSpec(1, False, a, 0, 3)], round_cap=4)
    assert trace.wake_round[1] == 3
    assert len(a.seen) == 2  # rounds 3 and 4


def test_visit_wake_steps_next_round():
    g = build(3, [(0, 1), (1, 2)])
    mover = ScriptedAgent([1, 2])  # 0 -> 1 -> 2
    sleeper = ScriptedAgent()
    trace = run(
        g,
        [AgentSpec(1, False, mover, 0, 1), AgentSpec(2, False, sleeper, 1, None)],
        round_cap=4,
    )
    # The mover reaches node 1 during round 1; the sleeper's first step is
    # round 2, which keeps every wake within one walk length of the first.
    assert trace.wake_round[2] == 2
    assert sleeper.seen[0][0] == (1, 2)


def test_dormant_agents_are_invisible_until_woken():
    g = two_node()
    a = ScriptedAgent([None, None, 1])  # walks over to node 1 in round 3
    b = ScriptedAgent()
    trace = run(g, [AgentSpec(1, False, a, 0, 1), AgentSpec(2, False, b, 1, 3)],
                round_cap=4)
    assert a.seen[0][0] == (1,)
    assert trace.wake_round[2] == 3
    assert a.seen[3][0] == (1, 2)  # sees it only after arriving/waking


def test_visit_preempts_a_later_schedule():
    g = two_node()
    a = ScriptedAgent()
    b = ScriptedAgent()
    trace = run(g, [AgentSpec(1, False, a, 0, 1), AgentSpec(2, False, b, 0, 9)],
                round_cap=3)
    # Sharing a node with an awake agent wakes the sleeper the next round,
    # ahead of its scheduled round 9.
    assert trace.wake_round[2] == 2
    assert a.seen[0][0] == (1,)
    assert a.seen[1][0] == (1, 2)


def test_co_located_agents_share_one_view():
    g = two_node()
    a = ScriptedAgent()
    b = ScriptedAgent()
    run(g, [AgentSpec(1, False, a, 0, 1), AgentSpec(2, False, b, 0, 1)], round_cap=1)
    assert a.seen[0][0] == (1, 2) and b.seen[0][0] == (1, 2)


def test_terminated_agents_remain_observable():
    g = two_node()
    quitter = ScriptedAgent([TERMINATE], presented_state=presented(sta="S_G_WG", gid=7))
    watcher = ScriptedAgent()
    trace = run(
        g,
        [AgentSpec(1, False, quitter, 0, 1), AgentSpec(2, False, watcher, 0, 1)],
        round_cap=3,
    )
    assert trace.termination[1] == (1, 0)
    assert watcher.seen[1][0] == (1, 2)
    assert watcher.seen[2][0] == (1, 2)
    assert len(quitter.seen) == 1  # never stepped again


def test_round_cap_yields_capped_trace_not_crash():
    g = two_node()
    trace = run(g, [AgentSpec(1, False, ScriptedAgent(), 0, 1)], round_cap=5)
    assert trace.capped
    assert trace.rounds == 5
    assert trace.last_good_termination() is None


def test_byzantine_presented_keeps_true_id():
    g = two_node()

    class Forger:
        def step(self, world, agent_id):
            return presented(sta="S_MG_TA", tar=999), None

    observer = ScriptedAgent()
    run(g, [AgentSpec(1, False, observer, 0, 1), AgentSpec(9, True, Forger(), 0, 1)],
        round_cap=3)
    ids_seen, _ = observer.seen[2]
    assert ids_seen == (1, 9)  # the forged fields never touch the id


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
    # Engine plumbing only: one agent on one node runs a zero-move walk and
    # idles through phases alone until the cap.
    from byzgather.exploration import build_sequence
    from byzgather.gathering import GatheringAgent

    g = build(1, [])
    seq = build_sequence(1, 0, [g])
    agent = GatheringAgent(1, seq)
    trace = run(g, [AgentSpec(1, False, agent, 0, 1)], round_cap=25)
    assert trace.capped
    assert agent.state.count == 25
    assert trace.position_log[1] == [(1, 0)]
    assert agent.state.end_ci  # six one-round collection phases fit in 25 rounds


def test_steppers_without_the_hook_are_stepped_every_round():
    g = two_node()

    class Still:
        def __init__(self):
            self.rounds = []

        def step(self, world, agent_id):
            self.rounds.append(world.round)
            return None, None

    class Static(Still):
        static = True

    scripted, still, static = ScriptedAgent(), Still(), Static()
    run(g, [AgentSpec(1, False, scripted, 0, 1), AgentSpec(2, True, still, 1, 1),
            AgentSpec(3, True, static, 1, 2)], round_cap=6)
    assert len(scripted.seen) == 6  # nothing changes, yet it is stepped each round
    assert still.rounds == [1, 2, 3, 4, 5, 6]
    assert static.rounds == [2]  # a static strategy only in its wake round


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
    run(g, [AgentSpec(1, False, agent, 0, 1)], round_cap=400)
    X, P = agent.X, agent.P
    assert stepped[:X] == list(range(1, X + 1))  # the whole initial walk
    assert X + P in stepped  # the last round of the first phase
    assert len(stepped) < 400
    assert agent.state.count == 400


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
# was dense.  Together: both variants, f = 0, 1, 2, static and every-round
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
    """The engine with lazy stepping off: every agent is stepped every round."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._lazy = [False] * len(self._lazy)


def _hook_cells():
    from byzgather.harness import acceptance_matrix

    return [cfg for variant in ("NS", "SIM") for cfg in acceptance_matrix(variant)
            if cfg.family == "random-tree" and cfg.f == 1 and cfg.team_rule == "hypothesis"
            and cfg.wake_policy == "adversarial_stagger" and cfg.seed == 0]


HOOK_CELLS = _hook_cells()


def test_hook_cells_cover_both_variants_and_every_strategy():
    from byzgather.adversary import STRATEGY_NAMES

    assert len(HOOK_CELLS) == 16
    assert {(c.variant, c.strategy) for c in HOOK_CELLS} == {
        (v, s) for v in ("NS", "SIM") for s in STRATEGY_NAMES}


@pytest.mark.parametrize("cfg", HOOK_CELLS, ids=[c.scenario_id for c in HOOK_CELLS])
def test_lazy_stepping_matches_stepping_every_round(cfg, monkeypatch):
    # next_due() and watches_view() may only skip steps that change nothing.
    from byzgather import harness

    _, lazy = harness.run_scenario(cfg)
    monkeypatch.setattr(harness, "Engine", _EagerEngine)
    _, eager = harness.run_scenario(cfg)
    assert harness.export_trace_text(lazy, cfg) == harness.export_trace_text(eager, cfg)
