"""Good-agent gathering protocol with non-simultaneous termination.

An agent's life is one initial exploration walk followed by an endless
pattern of phases, each 3X+1 rounds long (X is the certified walk
length): one main phase, then two rendezvous phases, repeating.  Main
phases first run the id-collection schedule driven by the agent's
extended label, then, once that completes, the group-making protocol.
The two rendezvous phases gather evidence about formed groups and
converge on the waiting group with the smallest group id.

The transition function reads nothing but its own state and the node
observation, so the protocol never learns true node identities.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from .exploration import ExplorationSequence, exit_port
from .simcore import (
    STA_CI,
    STA_G_EG,
    STA_G_WG,
    STA_MG_SA,
    STA_MG_TA,
    TERMINATE,
    ObservationView,
    PresentedState,
    schedule_slot,
)


class TooFewIdsCollected(ValueError):
    def __init__(self, il_size: int):
        super().__init__(f"need at least 4 collected ids to estimate faults, have {il_size}")
        self.il_size = il_size


def extended_label_block(agent_id: int) -> str:
    """One period of the agent's extended label: "10" then each binary digit doubled."""
    if agent_id < 1:
        raise ValueError("agent ids are integers >= 1")
    return "10" + "".join(b + b for b in format(agent_id, "b"))


def extended_label_bit(agent_id: int, x: int) -> int:
    """x-th bit (1-indexed) of the infinite periodic extended label."""
    if x < 1:
        raise ValueError("bit positions are 1-indexed")
    block = extended_label_block(agent_id)
    return int(block[(x - 1) % len(block)])


def cist_length(agent_id: int) -> int:
    """Number of id-collection phases: 2*floor(log2 id) + 6."""
    if agent_id < 1:
        raise ValueError("agent ids are integers >= 1")
    return 2 * (agent_id.bit_length() - 1) + 6


def estimate_f(il_size: int) -> int:
    """Largest y with (4y+4)(y+1) <= il_size."""
    if il_size < 4:
        raise TooFewIdsCollected(il_size)
    y = 0
    while (4 * (y + 1) + 4) * (y + 2) <= il_size:
        y += 1
    return y


def reliable_gids(gl: Iterable[tuple[int, int]], estf: int) -> set[int]:
    """Group ids vouched for by at least estf+1 distinct agent ids."""
    witnesses: dict[int, set[int]] = {}
    for gid, aid in gl:
        witnesses.setdefault(gid, set()).add(aid)
    return {gid for gid, ids in witnesses.items() if len(ids) >= estf + 1}


def most_frequent_smallest(values: Iterable[int]) -> int:
    """Most frequent value; ties break toward the smallest."""
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


class AgentState:
    """Protocol variables of one agent (plus the round counter)."""

    __slots__ = ("id", "sta", "end_ci", "count", "x", "estf", "il", "bl",
                 "tar", "gef", "gid", "gl")

    def __init__(self, agent_id: int):
        self.id = agent_id
        self.sta = STA_CI
        self.end_ci = False
        self.count = 0
        self.x = 1
        self.estf: int | None = None
        self.il: set[int] = {agent_id}
        self.bl: set[int] = set()
        self.tar: int | None = None
        self.gef: int | None = None
        self.gid: int | None = None
        self.gl: set[tuple[int, int]] = set()


class GatheringAgent:
    """Stepper for one good agent.

    ``step(view, entry_port)`` consumes the observation for the current
    round and returns a stay (None), a move (exit port), or TERMINATE.
    Events of interest to the verification harness are appended to
    ``events`` as (kind, payload) pairs and drained by the engine.
    """

    def __init__(self, agent_id: int, seq: ExplorationSequence):
        self.seq = seq
        self.X = seq.length
        self.P = 3 * self.X + 1
        self.state = AgentState(agent_id)
        self.events: list[tuple[str, object]] = []
        self.presented_dirty = False
        self.terminated = False
        self.flag_t = False  # only the simultaneous variant ever sets this
        self._offsets = seq.offsets
        self._bit = 1
        self._found_rp: int | None = None
        self._gave_up = False
        self._g2_mode = 0
        self._g2_min: int | None = None
        self._g2_found = False
        self._in_mgst_next = False
        self._cons_ver = -1
        self._gl_ver = -1
        self._rec_ver = -1

    # -- wire format ------------------------------------------------------

    def build_presented(self) -> PresentedState:
        st = self.state
        return PresentedState(
            st.sta, st.end_ci, self._in_mgst_next and not self.terminated,
            st.estf, st.tar, st.gid, frozenset(st.il), self.flag_t, self.terminated,
        )

    # -- transition -------------------------------------------------------

    def step(self, view: ObservationView, entry_port: int | None):
        st = self.state
        st.count += 1
        c = st.count
        X, P = self.X, self.P
        pos = schedule_slot(c, X, P)
        if pos is None:
            action = self._walk_move(view, entry_port, c - 1)
        else:
            slot, rp = pos
            if slot == 0:
                if st.end_ci:
                    action = self._mgst_round(view, entry_port, rp)
                else:
                    action = self._cist_round(view, entry_port, rp)
            elif slot == 1:
                action = self._gst1_round(view, entry_port, rp)
            else:
                action = self._gst2_round(view, entry_port, rp)
        in_mgst = False
        if st.end_ci:
            nxt = schedule_slot(c + 1, X, P)
            in_mgst = nxt is not None and nxt[0] == 0
        if in_mgst != self._in_mgst_next:
            self._in_mgst_next = in_mgst
            self.presented_dirty = True
        return action

    def next_due(self) -> int:
        """First own-clock count after the current one that must be stepped.

        Stepping at any count strictly between the current one and the
        returned one, on the view seen at the last step, would return a
        stay, log no event, leave ``presented_dirty`` unset and change no
        state a later step reads (the round counter aside).  Due are every
        initial-walk count, each phase's first and last round, and the
        middle third ``X+1..2X+1`` of phases in which the agent walks or
        watches.
        """
        st = self.state
        c = st.count + 1
        X, P = self.X, self.P
        pos = schedule_slot(c, X, P)
        if pos is None:
            return c
        slot, rp = pos
        if rp == 1:
            return c
        if slot == 0:
            acts = st.sta == STA_MG_SA if st.end_ci else self._bit == 1
        elif slot == 1:
            acts = st.end_ci and st.sta != STA_G_WG
        else:
            acts = st.end_ci and self._g2_mode == 2
        if acts and rp <= 2 * X + 1:
            return c + max(0, min(X + 1, P) - rp)
        return c + P - rp

    def watches_view(self) -> bool:
        """False if every step before ``next_due()`` ignores the view.

        Such steps, on any view, return a stay, log no event, leave
        ``presented_dirty`` unset and change no state a later step reads,
        so a changed view need not be stepped on until the due count.  The
        views read between due counts are the ones recorded every round:
        collected ids in a waiting id-collection phase, the group-making
        vote of a target or of a searcher that found its target, and the
        group evidence a waiting group member gathers.
        """
        st = self.state
        pos = schedule_slot(st.count + 1, self.X, self.P)
        if pos is None:
            return True
        slot, rp = pos
        if slot == 0:
            if not st.end_ci:
                return self._bit == 0
            if st.sta == STA_MG_TA:
                return True
            return st.sta == STA_MG_SA and rp > 2 * self.X + 1 and not self._gave_up
        return slot == 1 and st.end_ci and st.sta == STA_G_WG

    def _walk_move(self, view: ObservationView, entry_port: int | None, i: int):
        d = view.degree
        if d == 0:
            return None
        return exit_port(self._offsets[i], None if i == 0 else entry_port, d)

    def _record_ids(self, view: ObservationView) -> None:
        if view.version == self._rec_ver:
            return
        self._rec_ver = view.version
        st = self.state
        if not view.ids <= st.il:
            st.il |= view.ids
            self.presented_dirty = True

    # -- id collection stage ----------------------------------------------

    def _cist_round(self, view: ObservationView, entry_port: int | None, rp: int):
        st = self.state
        X = self.X
        if rp == 1:
            self._bit = extended_label_bit(st.id, st.x)
        action = None
        if self._bit == 0:
            # Stationary all phase; every co-located agent counts as met.
            self._record_ids(view)
        else:
            if X < rp <= 2 * X:
                self._record_ids(view)
                action = self._walk_move(view, entry_port, rp - X - 1)
            elif rp == 2 * X + 1:
                # The node reached by the walk's final move is part of it.
                self._record_ids(view)
        if rp == self.P:
            if st.x == cist_length(st.id):
                try:
                    st.estf = estimate_f(len(st.il))
                except TooFewIdsCollected:
                    st.estf = 0  # only reachable in sub-minimum unit-test teams
                st.x = 1
                st.end_ci = True
                self.presented_dirty = True
                self.events.append(("end_ci", (frozenset(st.il), st.estf)))
            else:
                st.x += 1
        return action

    # -- group-making stage -------------------------------------------------

    def _mgst_round(self, view: ObservationView, entry_port: int | None, rp: int):
        st = self.state
        X = self.X
        if rp == 1:
            if st.x == 1:
                smallest = sorted(st.il)[: st.estf + 1]
                st.sta = STA_MG_TA if st.id in smallest else STA_MG_SA
                self.presented_dirty = True
                self.events.append(("mgst_role", st.sta))
            if st.sta == STA_MG_TA:
                if st.tar != st.id:
                    st.tar = st.id
                    self.presented_dirty = True
            elif st.sta == STA_MG_SA:
                tar = min(st.il - st.bl)
                if st.tar != tar:
                    st.tar = tar
                    self.presented_dirty = True
                self._found_rp = None
                self._gave_up = False
                self._cons_ver = -1
        action = None
        if st.sta == STA_MG_TA:
            self._consensus(view)
        elif st.sta == STA_MG_SA:
            tar = st.tar
            if rp <= X:
                pass
            elif rp <= 2 * X:
                if self._found_rp is None:
                    if tar in view.ids and tar != st.id:
                        self._found_rp = rp
                        self._consensus(view)
                    else:
                        action = self._walk_move(view, entry_port, rp - X - 1)
                else:
                    # Watch window: rounds strictly after the find, up to 2X.
                    if tar not in st.bl and self._target_suspicious(view, tar):
                        self._blacklist(tar)
                    self._consensus(view)
            elif rp == 2 * X + 1:
                if self._found_rp is None:
                    if tar in view.ids and tar != st.id:
                        self._found_rp = rp
                        self._consensus(view)
                    else:
                        # Walk complete without a meeting: the target cannot
                        # be a waiting good agent.
                        self._blacklist(tar)
                        self._gave_up = True
                else:
                    self._consensus(view)
            else:
                if not self._gave_up:
                    self._consensus(view)
        # else: the agent already belongs to a group; it holds position so
        # the group stays findable (unreachable before its termination in
        # fault-free timing, defensive otherwise).
        if rp == self.P:
            st.x += 1
        return action

    def _target_suspicious(self, view: ObservationView, tar: int) -> bool:
        for e in view.entries:
            if e.id == tar:
                return e.presented.tar != tar
        return True  # gone: it moved away

    def _blacklist(self, tar: int) -> None:
        st = self.state
        if tar != st.id and tar not in st.bl:
            st.bl.add(tar)
            self.events.append(("bl_add", tar))

    def _consensus(self, view: ObservationView) -> None:
        """Vote on the fault estimate and detect a formed group, at most once."""
        st = self.state
        if st.gid is not None or st.estf is None:
            return
        if view.version == self._cons_ver:
            return
        self._cons_ver = view.version
        mg = [e for e in view.entries if e.presented.in_mgst]
        if len(mg) < 4 * st.estf:
            return
        vals = [e.presented.estf for e in mg if e.presented.estf is not None]
        if not vals:
            return
        st.gef = most_frequent_smallest(vals)
        tar = st.tar
        gc = [e for e in mg if e.presented.tar == tar]
        if len(gc) < 4 * st.gef + 4:
            return
        if not any(e.id == tar and e.presented.tar == tar for e in gc):
            return
        st.gid = tar
        member_ids = sorted(e.id for e in gc)
        st.sta = STA_G_EG if st.id in member_ids[: 2 * st.gef + 2] else STA_G_WG
        self.presented_dirty = True
        self.events.append(("gid_set", (st.gid, st.gef, tuple(member_ids))))

    # -- gathering stage ----------------------------------------------------

    def _record_pairs(self, view: ObservationView) -> None:
        if view.version == self._gl_ver:
            return
        self._gl_ver = view.version
        st = self.state
        own = st.id
        gl = st.gl
        for e in view.entries:
            g = e.presented.gid
            if g is not None and e.id != own:
                gl.add((g, e.id))

    def _gst1_round(self, view: ObservationView, entry_port: int | None, rp: int):
        st = self.state
        if not st.end_ci:
            return None
        X = self.X
        if rp == 1:
            self._gl_ver = -1
        if st.sta == STA_G_WG:
            self._record_pairs(view)
            return None
        if rp <= X:
            return None
        if rp <= 2 * X:
            self._record_pairs(view)
            return self._walk_move(view, entry_port, rp - X - 1)
        if rp == 2 * X + 1:
            self._record_pairs(view)
        return None

    def _gst2_round(self, view: ObservationView, entry_port: int | None, rp: int):
        st = self.state
        if not st.end_ci:
            return None
        X = self.X
        if rp == 1:
            rel = reliable_gids(st.gl, st.estf)
            if not rel:
                self._g2_mode = 0
            elif st.sta == STA_G_WG and st.gid == min(rel):
                self._g2_mode = 1
            else:
                self._g2_mode = 2
                self._g2_min = min(rel)
                self._g2_found = False
        mode = self._g2_mode
        action = None
        if mode == 1:
            if rp == self.P:
                return TERMINATE
        elif mode == 2:
            if rp <= X:
                pass
            elif rp <= 2 * X:
                if not self._g2_found:
                    if self._waiting_group_here(view):
                        self._g2_found = True
                    else:
                        action = self._walk_move(view, entry_port, rp - X - 1)
            elif rp == 2 * X + 1:
                if not self._g2_found and self._waiting_group_here(view):
                    self._g2_found = True
            if rp == self.P:
                return TERMINATE
        return action

    def _waiting_group_here(self, view: ObservationView) -> bool:
        """A waiting group is recognized by estf+1 distinct vouching members."""
        st = self.state
        gid = self._g2_min
        seen = 0
        for e in view.entries:
            p = e.presented
            if p.sta == STA_G_WG and p.gid == gid:
                seen += 1
                if seen > st.estf:
                    return True
        return False
