import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import entry, seq_of, view

from byzgather.exploration import exit_port
from byzgather.gathering import (
    AgentState,
    GatheringAgent,
    TooFewIdsCollected,
    cist_length,
    estimate_f,
    extended_label_bit,
    extended_label_block,
    most_frequent_smallest,
    reliable_gids,
    schedule_slot,
)
from byzgather.simcore import TERMINATE
from byzgather.simgather import SimGatheringAgent


# -- label and formula units --------------------------------------------------

def test_extended_label_block_examples():
    assert extended_label_block(1) == "1011"
    assert extended_label_block(2) == "101100"


def test_extended_label_bits_of_id_1():
    assert [extended_label_bit(1, x) for x in range(1, 9)] == [1, 0, 1, 1, 1, 0, 1, 1]


def test_extended_label_bit_of_id_2_position_5():
    assert extended_label_bit(2, 5) == 0


def test_extended_labels_of_1_and_2_first_differ_at_5():
    diff = next(x for x in range(1, 20)
                if extended_label_bit(1, x) != extended_label_bit(2, x))
    assert diff == 5
    assert diff <= 2 * 0 + 6


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=200))
def test_distinct_labels_differ_within_the_promised_window(a, b):
    if a == b:
        return
    window = 2 * (min(a, b).bit_length() - 1) + 6
    assert any(extended_label_bit(a, x) != extended_label_bit(b, x)
               for x in range(1, window + 1))


def test_cist_length_examples():
    assert cist_length(1) == 6
    assert cist_length(8) == 12
    assert cist_length(5) == 10


def test_estimate_f_examples():
    assert estimate_f(16) == 1
    assert estimate_f(36) == 2
    assert estimate_f(17) == 1


def test_estimate_f_requires_four_ids():
    with pytest.raises(TooFewIdsCollected):
        estimate_f(3)


def test_estimate_f_against_enumeration_oracle():
    for size in range(4, 300):
        expect = max(y for y in range(size) if (4 * y + 4) * (y + 1) <= size)
        assert estimate_f(size) == expect


def test_reliable_gids_examples():
    assert reliable_gids(set(), 3) == set()
    assert reliable_gids({(5, 1), (5, 2), (5, 3), (9, 4)}, 2) == {5}
    assert reliable_gids({(5, 1)}, 1) == set()  # duplicates collapse in a set


def test_most_frequent_smallest():
    assert most_frequent_smallest([1] * 5 + [2] * 3) == 1
    assert most_frequent_smallest([1] * 4 + [2] * 4) == 1
    assert most_frequent_smallest([7]) == 7


# -- driving the stepper directly ----------------------------------------------

def fresh_agent(agent_id=5, offsets=(2, 0, 1, 0), bound=5):
    return GatheringAgent(agent_id, seq_of(offsets, bound))


def test_first_step_after_wake_is_a_walk_move():
    agent = fresh_agent(offsets=(2, 0, 1, 0))
    action = agent.step(view([entry(5)], degree=5), None)
    assert action == 3  # virtual entry port 1 shifted by the first offset


def test_walk_follows_entry_ports():
    agent = fresh_agent(offsets=(0, 1))
    assert agent.step(view([entry(5)], degree=2), None) == 1
    assert agent.step(view([entry(5)], degree=3), 2) == 3


def test_zero_degree_node_never_moves():
    agent = fresh_agent(offsets=(1, 1))
    assert agent.step(view([entry(5)], degree=0), None) is None


def advance_to_phases(agent):
    # Burn the initial walk so the next step is phase round 1.
    for _ in range(agent.X):
        agent.step(view([entry(agent.state.id)], degree=1), 1)


def test_waiting_collection_phase_records_and_stays():
    agent = fresh_agent(agent_id=5, offsets=(0,) * 4)  # bit 1 of ID* is 1... use x bit
    # id 5 -> block "10" + "11 00 11"; bit 1 = 1 (walk phase), so force a
    # waiting phase by checking a 0 bit instead: bit 2 of every label is 0.
    advance_to_phases(agent)
    agent.state.x = 2
    X, P = agent.X, agent.P
    actions = []
    for rp in range(1, P + 1):
        others = [entry(9), entry(4)] if rp == 2 else []
        actions.append(agent.step(view([entry(5)] + others, degree=3), None))
    assert all(a is None for a in actions)
    assert {9, 4} <= agent.state.il
    assert agent.state.x == 3


def test_exploring_collection_phase_walks_and_records_mid_walk_only():
    agent = fresh_agent(agent_id=5, offsets=(0,) * 4)
    advance_to_phases(agent)
    assert extended_label_bit(5, 1) == 1
    X, P = agent.X, agent.P
    seen_actions = []
    for rp in range(1, P + 1):
        others = [entry(30)] if rp == 1 else ([entry(31)] if rp == X + 1 else [])
        seen_actions.append(agent.step(view([entry(5)] + others, degree=2), 1))
    moves = [a for a in seen_actions if a is not None]
    assert len(moves) == X
    assert 30 not in agent.state.il  # met while waiting in a walking phase
    assert 31 in agent.state.il      # met during the walk


def test_collection_finishes_with_estimate_and_reset():
    agent = fresh_agent(agent_id=1, offsets=(0,))  # shortest schedule: 6 phases
    advance_to_phases(agent)
    others = [entry(i) for i in range(40, 55)]  # 15 peers + self = 16 ids
    rounds = 0
    while not agent.state.end_ci:
        agent.step(view([entry(1)] + others, degree=2), 1)
        rounds += 1
        assert rounds < 20 * agent.P
    assert agent.state.estf == 1  # (4*1+4)*(1+1) = 16 <= 16
    assert agent.state.x == 1
    assert ("end_ci", (frozenset(agent.state.il), 1)) in agent.events


def make_mgst_agent(agent_id, il, estf, offsets=(0, 0, 0, 0)):
    agent = GatheringAgent(agent_id, seq_of(offsets, 5))
    st = agent.state
    st.end_ci = True
    st.estf = estf
    st.il = set(il)
    st.x = 1
    st.count = agent.X  # next step is phase round 1 of the first main phase
    return agent


def test_role_assignment_small_id_becomes_target():
    agent = make_mgst_agent(5, {3, 5, 8, 11, 13, 17, 19, 23}, estf=1)
    agent.step(view([entry(5)], degree=2), None)
    assert agent.state.sta == "S_MG_TA"
    assert agent.state.tar == 5


def test_role_assignment_large_id_becomes_searcher():
    agent = make_mgst_agent(8, {3, 5, 8, 11, 13, 17, 19, 23}, estf=1)
    agent.step(view([entry(8)], degree=2), None)
    assert agent.state.sta == "S_MG_SA"
    assert agent.state.tar == 3  # smallest non-blacklisted id


def test_searcher_blacklists_unfound_target():
    agent = make_mgst_agent(8, {3, 8, 30, 40}, estf=0)
    X, P = agent.X, agent.P
    for _ in range(P):
        agent.step(view([entry(8)], degree=2), 1)
    assert 3 in agent.state.bl
    assert ("bl_add", 3) in agent.events


def test_searcher_stops_with_found_target_and_keeps_it():
    agent = make_mgst_agent(8, {3, 8, 30, 40}, estf=0)
    X, P = agent.X, agent.P
    actions = []
    for rp in range(1, P + 1):
        entries = [entry(8)]
        if rp >= X + 1:
            entries.append(entry(3, sta="S_MG_TA", end_ci=True, in_mgst=True, estf=0, tar=3))
        actions.append(agent.step(view(entries, degree=2), 1))
    assert all(a is None for a in actions)  # found at the first walk round
    assert 3 not in agent.state.bl


def test_watcher_blacklists_target_that_walks_away():
    agent = make_mgst_agent(8, {3, 8, 30, 40}, estf=0)
    X, P = agent.X, agent.P
    for rp in range(1, P + 1):
        entries = [entry(8)]
        if rp == X + 1:  # present at the find, gone the next round
            entries.append(entry(3, sta="S_MG_TA", end_ci=True, in_mgst=True, estf=0, tar=3))
        agent.step(view(entries, degree=2), 1)
    assert 3 in agent.state.bl


def test_watcher_blacklists_target_with_flipped_claim():
    agent = make_mgst_agent(8, {3, 8, 30, 40}, estf=0)
    X, P = agent.X, agent.P
    for rp in range(1, P + 1):
        tar_claim = 3 if rp == X + 1 else 0
        agent.step(view([entry(8), entry(3, sta="S_MG_TA", in_mgst=True, tar=tar_claim)],
                        degree=2), 1)
    assert 3 in agent.state.bl


def consensus_entries(estf_values, tar, target_id):
    out = []
    for i, ef in enumerate(estf_values):
        aid = target_id if i == 0 else 50 + i
        out.append(entry(aid, sta="S_MG_TA" if aid == target_id else "S_MG_SA",
                         end_ci=True, in_mgst=True, estf=ef, tar=tar))
    return out


def test_consensus_votes_most_frequent_estimate():
    agent = make_mgst_agent(3, {3, 8, 30, 40}, estf=1)
    agent.state.sta = "S_MG_TA"
    agent.state.tar = 3
    agent.state.x = 2
    peers = consensus_entries([1] * 5 + [2] * 3, tar=3, target_id=3)
    agent.step(view(peers, degree=2), None)
    assert agent.state.gef == 1
    assert agent.state.gid == 3  # 8 same-target agents reach 4*1+4


def test_consensus_tie_breaks_to_smaller_estimate():
    agent = make_mgst_agent(3, {3, 8, 30, 40}, estf=1)
    agent.state.sta = "S_MG_TA"
    agent.state.tar = 3
    agent.state.x = 2
    peers = consensus_entries([1] * 4 + [2] * 4, tar=3, target_id=3)
    agent.step(view(peers, degree=2), None)
    assert agent.state.gef == 1


def test_consensus_needs_full_quorum():
    agent = make_mgst_agent(3, {3, 8, 30, 40}, estf=1)
    agent.state.sta = "S_MG_TA"
    agent.state.tar = 3
    agent.state.x = 2
    peers = consensus_entries([1] * 7, tar=3, target_id=3)  # |GC| = 7 < 8
    agent.step(view(peers, degree=2), None)
    assert agent.state.gid is None


def test_consensus_needs_the_target_itself():
    agent = make_mgst_agent(3, {3, 8, 30, 40}, estf=1)
    agent.state.sta = "S_MG_SA"
    agent.state.tar = 9  # hunting a ghost: nobody presents tar equal to its own id 9
    peers = consensus_entries([1] * 8, tar=9, target_id=77)
    agent._consensus(view(peers, degree=2))
    assert agent.state.gid is None


def test_consensus_splits_group_by_smallest_ids():
    agent = make_mgst_agent(3, {3, 8, 30, 40}, estf=1)
    agent.state.sta = "S_MG_TA"
    agent.state.tar = 3
    agent.state.x = 2
    peers = consensus_entries([1] * 8, tar=3, target_id=3)
    agent.step(view(peers, degree=2), None)
    # Members are 3 and 51..57; the 2*1+2 = 4 smallest contain id 3.
    assert agent.state.sta == "S_G_EG"
    gid, gef, members = [p for k, p in agent.events if k == "gid_set"][0]
    assert (gid, gef) == (3, 1)
    assert members == (3, 51, 52, 53, 54, 55, 56, 57)


def test_searcher_that_joins_a_group_stops_watching_its_target():
    agent = make_mgst_agent(8, {3, 5, 8, 30}, estf=1)
    X, P = agent.X, agent.P
    for rp in range(1, P + 1):
        entries = [entry(8)]
        if rp == X + 1:  # the target and its group, gone the next round
            entries += consensus_entries([1] * 8, tar=3, target_id=3)
        agent.step(view(entries, degree=2), 1)
    assert agent.state.gid == 3
    assert agent.state.bl == set()


def test_gathering_stage_waits_before_collection_finishes():
    agent = fresh_agent(agent_id=5, offsets=(0,) * 4)
    advance_to_phases(agent)
    agent.state.count += agent.P  # skip the first main phase entirely
    for _ in range(2 * agent.P):
        assert agent.step(view([entry(5)], degree=3), None) is None


def test_gathering_stage_records_group_evidence_while_walking():
    agent = make_mgst_agent(8, {3, 8, 30, 40}, estf=1)
    agent.state.sta = "S_MG_SA"
    agent.state.count += agent.P  # into the first rendezvous phase
    X, P = agent.X, agent.P
    for rp in range(1, P + 1):
        entries = [entry(8)]
        if rp == X + 1:
            entries.append(entry(51, sta="S_G_WG", gid=3))
        if rp == 1:
            entries.append(entry(52, sta="S_G_WG", gid=4))  # met while waiting
        agent.step(view(entries, degree=2), 1)
    assert (3, 51) in agent.state.gl
    assert (4, 52) not in agent.state.gl


def test_second_gathering_phase_terminates_waiting_group_member():
    agent = make_mgst_agent(9, {3, 9, 30, 40}, estf=1)
    st = agent.state
    st.sta = "S_G_WG"
    st.gid = 3
    st.gl = {(3, 51), (3, 52)}
    st.count += 2 * agent.P  # jump to the second rendezvous phase
    actions = [agent.step(view([entry(9)], degree=2), None) for _ in range(agent.P)]
    assert actions[-1] is TERMINATE
    assert all(a is None for a in actions[:-1])


def test_second_gathering_phase_searches_for_smallest_reliable_group():
    agent = make_mgst_agent(9, {3, 9, 30, 40}, estf=1)
    st = agent.state
    st.sta = "S_MG_SA"
    st.gl = {(3, 51), (3, 52), (7, 53), (7, 54)}
    st.count += 2 * agent.P
    X, P = agent.X, agent.P
    actions = []
    for rp in range(1, P + 1):
        entries = [entry(9)]
        if rp >= X + 2:
            entries += [entry(51, sta="S_G_WG", gid=3), entry(52, sta="S_G_WG", gid=3)]
        actions.append(agent.step(view(entries, degree=2), 1))
    assert actions[X] is not None      # still hunting at walk round 1
    assert actions[X + 1] is None      # two vouching members: found, stop
    assert actions[-1] is TERMINATE


def test_second_gathering_phase_ignores_underwitnessed_group():
    agent = make_mgst_agent(9, {3, 9, 30, 40}, estf=1)
    st = agent.state
    st.sta = "S_MG_SA"
    st.gl = {(3, 51)}  # one witness is not enough at estf 1
    st.count += 2 * agent.P
    actions = [agent.step(view([entry(9)], degree=2), 1) for _ in range(agent.P)]
    assert all(a is None for a in actions)  # sat the phase out, no terminate


def test_searcher_target_never_decreases_across_phases():
    agent = make_mgst_agent(8, {3, 5, 8, 30, 40}, estf=1)
    targets = []
    # Three full main+rendezvous blocks with nobody ever found: the hunt
    # target climbs as the blacklist grows, never revisiting a smaller id.
    for _ in range(3):
        for _ in range(agent.P):
            agent.step(view([entry(8)], degree=2), 1)
            if agent.state.sta == "S_MG_SA" and agent.state.tar is not None:
                targets.append(agent.state.tar)
        for _ in range(2 * agent.P):
            agent.step(view([entry(8)], degree=2), 1)
    assert targets == sorted(targets)
    assert agent.state.bl == {3, 5}


def test_main_phase_variables_frozen_during_gathering_phases():
    agent = make_mgst_agent(8, {3, 8, 30, 40}, estf=1)
    agent.state.sta = "S_MG_SA"
    agent.state.count += agent.P
    before = (agent.state.x, set(agent.state.il), set(agent.state.bl), agent.state.tar)
    for _ in range(2 * agent.P):
        agent.step(view([entry(8), entry(2)], degree=2), 1)
    after = (agent.state.x, set(agent.state.il), set(agent.state.bl), agent.state.tar)
    assert before == after


# -- the wait() hook ------------------------------------------------------------

def snapshot(agent):
    """Presented state plus every field a later step reads."""
    st = agent.state
    return (agent.build_presented(), st.sta, st.x, st.estf, frozenset(st.il), frozenset(st.bl),
            st.tar, st.gef, st.gid, frozenset(st.gl), agent._look, agent._watch, agent._end,
            agent._group)


def assert_idle_until_due(agent, v, fresh_views=False):
    """Step a copy up to the count before wait()'s due one; every step must
    be a no-op, but for exactly the move of the walk, where one is named.

    The copy sees the view ``v`` of the agent's last step throughout, or,
    with ``fresh_views``, a different view every round.  Returns the due
    count and the copy, stepped up to just before it.
    """
    agent.events.clear()
    agent.presented_dirty = False
    due, _, walk = agent.wait()
    assert due > agent.state.count
    twin = copy.deepcopy(agent)
    before = snapshot(twin)
    while twin.state.count + 1 < due:
        if fresh_views:
            other = 60 + twin.state.count % 7
            v = view([entry(agent.state.id),
                      entry(other, sta="S_G_WG", end_ci=True, in_mgst=True, estf=0, tar=3, gid=2)],
                     degree=3)
        move = None
        if walk is not None:
            base, offsets = walk
            move = exit_port(offsets[twin.state.count + 1 - base], 2, v.degree)
        assert twin.step(v, 2) == move
        assert twin.events == []
        assert not twin.presented_dirty
        assert snapshot(twin) == before
    return due, twin


def stage_walk():
    agent = fresh_agent()
    v = view([entry(5)], degree=2)
    agent.step(v, None)
    return agent, v


def stage_cist(bit):
    def build():
        agent = fresh_agent(agent_id=5, offsets=(0,) * 4)
        advance_to_phases(agent)
        agent.state.x = 1 if bit else 2  # bit 1 of every label is 1, bit 2 is 0
        v = view([entry(5), entry(9)], degree=2)
        agent.step(v, None)
        return agent, v
    return build


def stage_mgst(agent_id):
    def build():
        agent = make_mgst_agent(agent_id, {3, 5, 8, 11, 13, 17, 19, 23}, estf=1)
        v = view([entry(agent_id), entry(30)], degree=2)
        agent.step(v, None)
        return agent, v
    return build


def stage_gst(sta, phase, gl=frozenset()):
    def build():
        agent = make_mgst_agent(9, {3, 9, 30, 40}, estf=1)
        st = agent.state
        st.sta = sta
        st.gid = 3 if sta in ("S_G_WG", "S_G_EG") else None
        st.gl = set(gl)
        st.count += phase * agent.P
        v = view([entry(9), entry(30)], degree=2)
        agent.step(v, None)
        return agent, v
    return build


def stage_mgst_found():
    # The target shows up at the first walk round: stop and watch it.
    agent = make_mgst_agent(8, {3, 8, 30, 40}, estf=0)
    for _ in range(agent.X):
        agent.step(view([entry(8)], degree=2), 1)
    v = view([entry(8), entry(3, sta="S_MG_TA", end_ci=True, in_mgst=True, estf=0, tar=3)],
             degree=2)
    assert agent.step(v, 1) is None and agent.state.sta == "S_MG_SA"
    return agent, v


def stage_mgst_gave_up():
    # The walk ends at round 2X+1 without meeting the target.
    agent = make_mgst_agent(8, {3, 8, 30, 40}, estf=0)
    v = view([entry(8)], degree=2)
    for _ in range(2 * agent.X + 1):
        agent.step(v, 1)
    assert agent.state.bl == {3}
    return agent, v


def stage_gst2_found():
    # The hunted group waits at the first walk round: stop until the phase ends.
    agent, _ = stage_gst("S_MG_SA", 2, REL)()
    for _ in range(agent.X - 1):
        agent.step(view([entry(9)], degree=2), 1)
    v = view([entry(9), entry(51, sta="S_G_WG", gid=3), entry(52, sta="S_G_WG", gid=3)],
             degree=2)
    assert agent.step(v, 1) is None
    return agent, v


def stage_gst_before_cist_ends():
    agent = fresh_agent(agent_id=5, offsets=(0,) * 4)
    advance_to_phases(agent)
    agent.state.count += agent.P  # the first rendezvous phase, id collection unfinished
    v = view([entry(5), entry(9)], degree=2)
    agent.step(v, None)
    return agent, v


REL = {(3, 51), (3, 52)}

# stage -> (builder, phase round the agent is due at next; "1": the next phase's first)
HOOK_STAGES = {
    "walk": (stage_walk, "1"),
    "cist-bit0": (stage_cist(0), "P"),
    "cist-bit1": (stage_cist(1), "X+1"),
    "mgst-target": (stage_mgst(5), "P"),
    "mgst-searcher": (stage_mgst(8), "X+1"),
    "mgst-found": (stage_mgst_found, "P"),
    "mgst-gave-up": (stage_mgst_gave_up, "P"),
    "gst1-waiting": (stage_gst("S_G_WG", 1), "1"),
    "gst1-exploring": (stage_gst("S_G_EG", 1), "X+1"),
    "gst2-mode0": (stage_gst("S_G_EG", 2), "P"),
    "gst2-mode1": (stage_gst("S_G_WG", 2, REL), "P"),
    "gst2-mode2": (stage_gst("S_MG_SA", 2, REL), "X+1"),
    "gst2-found": (stage_gst2_found, "P"),
    "gst-before-cist-ends": (stage_gst_before_cist_ends, "1"),
}


@pytest.mark.parametrize("stage", sorted(HOOK_STAGES))
def test_next_due_skips_only_idle_counts(stage):
    build, due_at = HOOK_STAGES[stage]
    agent, v = build()
    due, _ = assert_idle_until_due(agent, v)
    X, P = agent.X, agent.P
    pos = schedule_slot(due, X, P)
    assert pos is not None and pos[1] == {"1": 1, "X+1": X + 1, "P": P}[due_at]


@pytest.mark.parametrize("stage", sorted(HOOK_STAGES))
def test_next_due_is_a_count_that_acts(stage):
    # At the due count the same view yields a move, a termination, a
    # presented-state change, the phase counter's bump or a new plan.
    # Before id collection ends, the rendezvous phases that plan nothing
    # are skipped, so the due count plans the next main phase.
    agent, v = HOOK_STAGES[stage][0]()
    _, twin = assert_idle_until_due(agent, v)
    x = twin.state.x
    plan = (twin._look, twin._watch, twin._end)
    action = twin.step(v, 1)  # the entry port matters only to a walk
    assert (action is not None or twin.presented_dirty or twin.state.x != x
            or (twin._look, twin._watch, twin._end) != plan)


# The initial walk watches nothing: it names a walk up to count X, which
# the engine moves.  A watcher (a waiting id collector, a target, a
# searcher that found its target, a waiting group member) answers as
# ``wants`` the predicate under which its watch acts.
PREDICATE = {"cist-bit0", "mgst-target", "mgst-found", "gst1-waiting"}


@pytest.mark.parametrize("stage", sorted(HOOK_STAGES))
def test_watches_view_only_where_a_step_reads_it(stage):
    # A stage that does not watch ignores every view until its due count.
    agent, v = HOOK_STAGES[stage][0]()
    wants = agent.wait()[1]
    if stage in PREDICATE:
        assert callable(wants) and not wants(v)
    else:
        assert wants is None
        assert_idle_until_due(agent, v, fresh_views=True)


def assert_watch_wants(agent, quiet, acting):
    """The watcher's predicate is False on each ``quiet`` view, where every
    step up to the due count is idle (``gef`` included), and holds on each
    ``acting`` view, where the next step acts."""
    wants = agent.wait()[1]
    assert callable(wants)
    for v in quiet:
        assert not wants(v)
        assert_idle_until_due(agent, v)
    for v in acting:
        assert wants(v)
        twin = copy.deepcopy(agent)
        before = snapshot(twin)
        action = twin.step(v, None)
        assert action is not None or twin.events or twin.presented_dirty or snapshot(twin) != before


def mgst_peer(agent_id, estf, tar):
    return entry(agent_id, sta="S_MG_SA", end_ci=True, in_mgst=True, estf=estf, tar=tar)


def test_target_wants_only_a_new_vote_or_its_group():
    # Target 5 at estf 1 has voted gef 1 on four agents hunting target 3.
    agent, _ = HOOK_STAGES["mgst-target"][0]()
    me = entry(5, sta="S_MG_TA", end_ci=True, in_mgst=True, estf=1, tar=5)
    agent.step(view([me] + [mgst_peer(50 + i, 1, 3) for i in range(4)]), None)
    assert agent.state.gef == 1 and agent.state.gid is None
    quiet = [view([me, entry(30)]),  # too few agents in group making to vote
             view([me] + [mgst_peer(60 + i, 2, 3) for i in range(2)]),  # three: still too few
             view([me] + [mgst_peer(60 + i, 1, 5) for i in range(6)])]  # the same vote, 7 of 8
    acting = [view([me] + [mgst_peer(50 + i, 2, 3) for i in range(4)]),  # a new vote: 2
              view([me] + [mgst_peer(60 + i, 1, 5) for i in range(7)])]  # its group forms
    assert_watch_wants(agent, quiet, acting)


def test_found_target_watch_wants_only_a_suspect_target_or_consensus():
    # Searcher 8 at estf 0 stands at its target 3 and has voted gef 0.
    agent, _ = HOOK_STAGES["mgst-found"][0]()
    assert agent.state.gef == 0
    target = entry(3, sta="S_MG_TA", end_ci=True, in_mgst=True, estf=0, tar=3)
    quiet = [view([entry(8), target]),
             view([entry(8), target, entry(30), mgst_peer(40, 0, 9)])]  # the same vote, no group
    acting = [view([entry(8)]),  # the target left
              view([entry(8), (3, target[1]._replace(tar=30))]),
              view([entry(8), target] + [mgst_peer(50 + i, 1, 9) for i in range(3)]),  # vote 1
              view([entry(8), target] + [mgst_peer(50 + i, 0, 3) for i in range(3)])]  # group
    assert_watch_wants(agent, quiet, acting)
    # Once the target is blacklisted, its absence alone is quiet.
    gone = view([entry(8)])
    agent.step(gone, None)
    assert agent.state.bl == {3}
    assert_watch_wants(agent, quiet=[gone, view([entry(8), entry(30)])], acting=[])


def test_waiting_member_wants_only_a_new_pair():
    # Member 9 of waiting group 3 has recorded the pair (3, 51).
    agent, _ = HOOK_STAGES["gst1-waiting"][0]()
    agent.step(view([entry(9, sta="S_G_WG", gid=3), entry(51, sta="S_G_WG", gid=3)]), None)
    assert agent.state.gl == {(3, 51)}
    quiet = [view([entry(9, sta="S_G_WG", gid=3), entry(51, sta="S_G_EG", gid=3)]),
             view([entry(9, sta="S_G_WG", gid=3), entry(30)])]  # its own pair is never recorded
    acting = [view([entry(9, sta="S_G_WG", gid=3), entry(51, sta="S_G_WG", gid=4)])]
    assert_watch_wants(agent, quiet, acting)


@pytest.mark.parametrize("cls", [GatheringAgent, SimGatheringAgent])
def test_id_collector_skips_the_rendezvous_phases_that_plan_nothing(cls):
    # After a main phase of id collection, both rendezvous phases plan
    # nothing: the next main phase's first round is due, and no view is
    # watched until then.
    agent = cls(5, seq_of((0,) * 4, 5))
    advance_to_phases(agent)
    v = view([entry(5), entry(9)], degree=2)
    for _ in range(agent.P):
        agent.step(v, None)
    X, P = agent.X, agent.P
    assert schedule_slot(agent.state.count, X, P) == (0, P) and not agent.state.end_ci
    assert agent.wait()[1:] == (None, None)
    due, twin = assert_idle_until_due(agent, v, fresh_views=True)
    assert due == agent.state.count + 1 + 2 * P
    assert schedule_slot(due, X, P) == (0, 1)
    assert twin.wait()[1:] == (None, None)
    twin.step(v, None)
    assert twin._end == twin._end_main_phase


def test_waiting_id_collector_wants_only_views_with_an_unknown_id():
    # It knows 5 and 9; a view of known ids only is stepped on idly.
    agent, _ = HOOK_STAGES["cist-bit0"][0]()
    wants = agent.wait()[1]
    gone = view([entry(5)], degree=2)
    restyled = view([entry(5), entry(9, sta="S_MG_TA", end_ci=True, in_mgst=True, estf=1, tar=9)],
                    degree=2)
    for known in (gone, restyled):
        assert not wants(known)
        assert_idle_until_due(agent, known)
    arrival = view([entry(5), entry(9), entry(12)], degree=2)
    assert wants(arrival)
    assert agent.step(arrival, None) is None
    assert agent.presented_dirty and agent.state.il == {5, 9, 12}


# -- walks ---------------------------------------------------------------------------

LEG_OFFSETS = (1, 2, 0, 2)  # X = 4: a window walks in rp 5..8, the engine moves rp 6..8


def lone(agent, degree=3):
    """The view of a walker alone on its node: itself, as it presents itself."""
    return view([(agent.state.id, agent.build_presented())], degree=degree)


def into_leg(agent, v):
    """Step on ``v`` through the walk window's first move; return what
    wait() then answers, with the events and presented update drained."""
    for _ in range(agent.P):
        if agent.step(v, 2) is not None:
            break
    agent.events.clear()
    agent.presented_dirty = False
    leg = agent.wait()
    X, P = agent.X, agent.P
    assert schedule_slot(agent.state.count, X, P)[1] == X + 1
    assert schedule_slot(leg[0], X, P)[1] == 2 * X + 1  # where _hunt blacklists
    return leg


def assert_leg_moves_until(agent, leg, quiet, meeting):
    """The walk's predicate is False on the lone view and on each ``quiet``
    view, where every count before the due one is a move through
    ``exit_port`` that logs no event, leaves ``presented_dirty`` unset and
    changes no state; it holds on ``meeting``, where the step acts otherwise."""
    due, wants, (base, offsets) = leg
    for v in (lone(agent), *quiet):
        assert not wants(v)
        for count in range(agent.state.count + 1, due):
            twin = copy.deepcopy(agent)
            before = snapshot(twin)
            twin.state.count = count - 1
            assert twin.step(v, 2) == exit_port(offsets[count - base], 2, v.degree)
            assert twin.events == []
            assert not twin.presented_dirty
            assert snapshot(twin) == before
    assert wants(meeting)
    twin = copy.deepcopy(agent)
    before = snapshot(twin)
    move = exit_port(offsets[twin.state.count + 1 - base], 2, meeting.degree)
    assert (twin.step(meeting, 2) != move or twin.presented_dirty
            or snapshot(twin) != before)


def test_initial_walk_is_one_leg_with_no_predicate():
    agent = fresh_agent(offsets=LEG_OFFSETS)
    agent.step(lone(agent), None)
    assert agent.wait() == (agent.X + 1, None, (1, LEG_OFFSETS))


def test_id_collection_leg_acts_only_on_an_unknown_id():
    agent = fresh_agent(agent_id=5, offsets=LEG_OFFSETS)
    advance_to_phases(agent)  # label bit 1 is 1: the first main phase walks
    leg = into_leg(agent, view([entry(5), entry(9)], degree=3))
    assert agent.state.il == {5, 9}
    restyled = entry(9, sta="S_MG_TA", end_ci=True, in_mgst=True, estf=1, tar=9)
    assert_leg_moves_until(agent, leg, quiet=[view([entry(5), restyled], degree=2)],
                           meeting=view([entry(5), entry(12)], degree=3))


def test_hunt_leg_acts_only_at_the_target():
    agent = make_mgst_agent(8, {3, 5, 8, 11, 13, 17, 19, 23}, estf=1, offsets=LEG_OFFSETS)
    leg = into_leg(agent, view([entry(8), entry(30)], degree=3))
    assert agent.state.tar == 3
    target = dict(sta="S_MG_TA", end_ci=True, in_mgst=True, estf=1)
    quiet = [view([entry(8), entry(5, tar=5, **target)], degree=3),
             view([entry(8), entry(30, tar=3, **target)], degree=2)]
    assert_leg_moves_until(agent, leg, quiet,
                           meeting=view([entry(8), entry(3, tar=3, **target)], degree=3))


def test_group_evidence_leg_acts_only_on_a_new_pair():
    agent = make_mgst_agent(9, {3, 9, 30, 40}, estf=1, offsets=LEG_OFFSETS)
    agent.state.sta, agent.state.gid = "S_G_EG", 3
    agent.state.count += agent.P  # the first rendezvous phase
    leg = into_leg(agent, view([entry(9), entry(51, sta="S_G_WG", gid=3)], degree=3))
    assert agent.state.gl == {(3, 51)}
    quiet = [view([entry(9), entry(51, sta="S_G_WG", gid=3)], degree=2),
             view([entry(9), entry(30)], degree=3)]
    assert_leg_moves_until(agent, leg, quiet,
                           meeting=view([entry(9), entry(51, sta="S_G_WG", gid=4)], degree=3))


def test_group_hunt_leg_acts_only_at_the_waiting_group():
    # Agent 9 waits in group 4, but the smallest reliable group is 3.
    agent = make_mgst_agent(9, {3, 9, 30, 40}, estf=1, offsets=LEG_OFFSETS)
    st = agent.state
    st.sta, st.gid, st.gl = "S_G_WG", 4, {(3, 51), (3, 52)}
    st.count += 2 * agent.P  # the second rendezvous phase
    leg = into_leg(agent, view([entry(9), entry(30)], degree=3))
    assert agent._group == 3
    quiet = [view([entry(9), entry(51, sta="S_G_WG", gid=3)], degree=3),
             view([entry(9), entry(51, sta="S_G_EG", gid=3), entry(52, sta="S_G_EG", gid=3)],
                  degree=2),
             view([entry(9), entry(51, sta="S_G_WG", gid=4), entry(52, sta="S_G_WG", gid=4)],
                  degree=3)]
    assert_leg_moves_until(agent, leg, quiet, meeting=view(
        [entry(9), entry(51, sta="S_G_WG", gid=3), entry(52, sta="S_G_WG", gid=3)], degree=3))
