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
    UnknownId,
)


def schedule_slot(count: int, x: int, p: int) -> tuple[int, int] | None:
    """Where own-clock round ``count`` (1-based) falls in a good agent's schedule.

    None during the initial walk (counts ``1..x``); afterwards ``(slot,
    rp)``, where ``slot`` 0 is a main phase and 1, 2 the two rendezvous
    phases that follow it, and ``rp`` is the 1-based round within the
    ``p``-round phase.
    """
    if count <= x:
        return None
    q, rp = divmod(count - x - 1, p)
    return q % 3, rp + 1


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
    counts: dict[int, int] = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    best = max(counts.values())
    return min(v for v, c in counts.items() if c == best)


def _mgst_tally(view: ObservationView) -> tuple[int, int | None, dict]:
    """Per view, memoised: the number of agents showing ``in_mgst``, their
    estimate vote (None: no estimate shown) and their count per ``tar``."""
    tally = view.memo.get("mgst")
    if tally is None:
        vals = []
        tar_counts: dict = {}
        n_mg = 0
        for p in view.states:
            if p.in_mgst:
                n_mg += 1
                if p.estf is not None:
                    vals.append(p.estf)
                tar_counts[p.tar] = tar_counts.get(p.tar, 0) + 1
        tally = view.memo["mgst"] = (n_mg, most_frequent_smallest(vals) if vals else None, tar_counts)
    return tally


def _pairs(view: ObservationView) -> frozenset[tuple[int, int]]:
    """Per view, memoised: the (group id, agent id) pair of every agent showing a group id."""
    pairs = view.memo.get("pairs")
    if pairs is None:
        pairs = view.memo["pairs"] = frozenset(
            (p.gid, aid) for aid, p in zip(view.order, view.states) if p.gid is not None)
    return pairs


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

    ``_plan`` fixes each phase's plan in the phase's first round: three
    callables, each None when the phase does without it.  ``_look(view,
    rp)`` is called in each round of the walk window ``X+1..2X+1``, and
    the agent moves in rounds up to ``2X`` until it returns True;
    ``_watch(view, rp)`` is called in every other round, including the
    window rounds after that; ``_end()`` is called in the phase's last
    round and returns its action.
    """

    def __init__(self, agent_id: int, seq: ExplorationSequence):
        self.X = seq.length
        self.P = 3 * self.X + 1
        self.state = AgentState(agent_id)
        self.events: list[tuple[str, object]] = []
        self.presented_dirty = False
        self.terminated = False
        self.flag_t = False  # only the simultaneous variant ever sets this
        self._offsets = seq.offsets
        self._in_mgst_next = False
        self._look = self._watch = self._end = None
        self._group: int | None = None  # the group a second rendezvous phase hunts

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
        X, P = self.X, self.P
        pos = schedule_slot(st.count, X, P)
        if pos is None:
            action = self._walk_move(view, entry_port, st.count - 1)
            in_mgst = st.end_ci and st.count == X
        else:
            slot, rp = pos
            if rp == 1:
                self._plan(slot)
            action = None
            if self._look is not None and X < rp <= 2 * X + 1:
                if self._look(view, rp):
                    self._look = None
                elif rp <= 2 * X:
                    action = self._walk_move(view, entry_port, rp - X - 1)
            elif self._watch is not None:
                self._watch(view, rp)
            if rp == P and self._end is not None:
                action = self._end()
            # Whether the next round falls in a main phase.
            in_mgst = st.end_ci and (slot if rp < P else slot + 1) % 3 == 0
        if in_mgst != self._in_mgst_next:
            self._in_mgst_next = in_mgst
            self.presented_dirty = True
        return action

    def wait(self):
        """After a step: ``(due, wants, walk)``, the counts it may skip.

        ``due`` is the first own count after the current one that must be
        stepped.  Each count before it, on a view where ``wants`` is False
        (None: on any view), is a step that returns a stay, or, where
        ``walk = (base, offsets)`` is given, the move ``exit_port(offsets[count
        - base], entry, degree)``; it logs no event, leaves
        ``presented_dirty`` unset and changes no state a later step reads
        (the round counter aside).  Due are each phase's first round (it
        plans the phase), the first round of the walk window ``X+1..2X+1``
        while the plan's ``_look`` is set, the window's rp 2X+1, where
        ``_hunt`` blacklists, and the phase's last round when the plan's
        ``_end`` is set or the next phase is a main phase after id
        collection (``in_mgst`` rises).  Before id collection ends both
        rendezvous phases plan nothing, so after a main phase the next main
        phase's first round is due.

        The initial walk reads no view, so it names a walk up to count X.
        A walk window names one up to rp 2X, and its look's predicate
        (``_wants``) as ``wants``; outside a walk, a plan's ``_watch`` is
        the only part that reads views between due counts, and ``wants``
        is its predicate.  Each reads only ``ids``, ``order`` and
        ``states``, and is False on a view of the walker alone.
        """
        st, X, P = self.state, self.X, self.P
        c = st.count + 1
        if c <= X:
            return X + 1, None, (1, self._offsets)
        slot, rp = schedule_slot(c, X, P)
        look = self._look is not None and rp <= 2 * X + 1
        if look and X + 1 < rp <= 2 * X:
            return c + 2 * X + 1 - rp, self._wants(self._look), (c + X + 1 - rp, self._offsets)
        if slot and not st.end_ci:
            due = c + (3 - slot) * P - rp + 1
        elif rp == 1:
            due = c
        elif look:
            due = c + max(0, X + 1 - rp)
        elif self._end is not None or (slot == 2 and st.end_ci):
            due = c + P - rp
        else:
            due = c + P - rp + 1
        return due, None if self._watch is None else self._wants(self._watch), None

    def _wants(self, part):
        """The predicate that holds wherever plan part ``part``, a look or a
        watch, may act on a view.  ``_record_ids`` acts only on an id
        outside ``il`` (the walker's own id is always in it), so it is
        watched through an ``UnknownId`` on the live ``il``, which the
        engine drops once ``il`` holds every id.  ``_waiting_group_here``
        is pure, so it is its own."""
        return (UnknownId(self.state.il) if part == self._record_ids
                else self._meets_new_pairs if part == self._record_pairs
                else self._meets_target if part == self._hunt
                else self._consensus_acts if part == self._consensus
                else self._watch_target_acts if part == self._watch_target
                else part)

    def _walk_move(self, view: ObservationView, entry_port: int | None, i: int):
        d = view.degree
        if d == 0:
            return None
        return exit_port(self._offsets[i], None if i == 0 else entry_port, d)

    # -- phase plans --------------------------------------------------------

    def _plan(self, slot: int) -> None:
        st = self.state
        self._look = self._watch = self._end = None
        if slot == 0:
            self._end = self._end_main_phase
            if not st.end_ci:
                # Id collection: walk on label bit 1, else wait; every agent
                # met on the way, or at the waiting node, counts as collected.
                if extended_label_bit(st.id, st.x):
                    self._look = self._record_ids
                else:
                    self._watch = self._record_ids
                return
            # Group making: targets wait and vote, searchers hunt their target.
            if st.x == 1:
                smallest = sorted(st.il)[: st.estf + 1]
                st.sta = STA_MG_TA if st.id in smallest else STA_MG_SA
                self.presented_dirty = True
                self.events.append(("mgst_role", st.sta))
            if st.sta == STA_MG_TA or st.sta == STA_MG_SA:
                tar = st.id if st.sta == STA_MG_TA else min(st.il - st.bl)
                if st.tar != tar:
                    st.tar = tar
                    self.presented_dirty = True
                if st.sta == STA_MG_TA:
                    self._watch = self._consensus
                else:
                    self._look = self._hunt
            # else: the agent already belongs to a group; it holds position so
            # the group stays findable (unreachable before its termination in
            # fault-free timing, defensive otherwise).
        elif not st.end_ci:
            pass  # rendezvous phases before id collection ends: wait
        elif slot == 1:
            # Gather group evidence, waiting if in a waiting group, else walking.
            if st.sta == STA_G_WG:
                self._watch = self._record_pairs
            else:
                self._look = self._record_pairs
        else:
            rel = reliable_gids(st.gl, st.estf)
            if rel:
                # Hunt the smallest reliable group unless waiting in it; either
                # way the agent terminates where it stands at the phase's end.
                if not (st.sta == STA_G_WG and st.gid == min(rel)):
                    self._group = min(rel)
                    self._look = self._waiting_group_here
                self._end = self._halt

    def _end_main_phase(self):
        st = self.state
        # The plan is finished; before id collection ends, the two
        # rendezvous phases that follow are never stepped to replace it.
        self._look = self._watch = self._end = None
        if st.end_ci or st.x != cist_length(st.id):
            st.x += 1
            return
        try:
            st.estf = estimate_f(len(st.il))
        except TooFewIdsCollected:
            st.estf = 0  # only reachable in sub-minimum unit-test teams
        st.x = 1
        st.end_ci = True
        self.presented_dirty = True
        self.events.append(("end_ci", (frozenset(st.il), st.estf)))

    def _halt(self):
        return TERMINATE

    # -- id collection ------------------------------------------------------

    def _record_ids(self, view: ObservationView, rp: int) -> bool:
        """Collect the co-located ids; as a ``_look`` it walks the whole window."""
        st = self.state
        if not view.ids <= st.il:
            st.il |= view.ids
            self.presented_dirty = True
        return False

    # -- group making -------------------------------------------------------

    def _hunt(self, view: ObservationView, rp: int) -> bool:
        """A searcher's walk: stop at the target, or blacklist it when the walk ends."""
        if self._meets_target(view):
            self._watch = self._watch_target
            self._consensus(view)
            return True
        if rp == 2 * self.X + 1:
            # Walk complete without a meeting: the target cannot be a waiting
            # good agent.
            self._blacklist(self.state.tar)
        return False

    def _meets_target(self, view: ObservationView) -> bool:
        """False if ``_hunt`` before rp 2X+1 would walk on: it then only
        compares.  A walker never finds itself, even when its target is
        its own id."""
        tar = self.state.tar
        return tar in view.ids and tar != self.state.id

    def _watch_target(self, view: ObservationView, rp: int) -> None:
        """After the find: blacklist a target that leaves or drops its claim by round 2X."""
        if rp <= 2 * self.X and self._target_suspicious(view):
            self._blacklist(self.state.tar)
        self._consensus(view)

    def _watch_target_acts(self, view: ObservationView) -> bool:
        """False if ``_watch_target`` would neither blacklist nor let
        ``_consensus`` act on ``view``: it then only compares, so the step
        is idle."""
        return self._target_suspicious(view) or self._consensus_acts(view)

    def _target_suspicious(self, view: ObservationView) -> bool:
        """The target is not blacklisted yet, and it is gone or no longer
        claims itself."""
        st = self.state
        tar = st.tar
        if tar in st.bl:
            return False
        if tar not in view.ids:
            return True  # gone: it moved away
        return view.states[view.order.index(tar)].tar != tar

    def _blacklist(self, tar: int) -> None:
        st = self.state
        if tar != st.id and tar not in st.bl:
            st.bl.add(tar)
            self.events.append(("bl_add", tar))

    def _consensus(self, view: ObservationView, rp: int | None = None) -> None:
        """Vote on the fault estimate and detect a formed group, at most once.

        ``rp`` is unused; it lets a target take this as its ``_watch``.
        """
        gef = self._consensus_vote(view)
        if gef is None:
            return
        st = self.state
        st.gef = gef
        if not self._forms_group(view, gef):
            return
        tar = st.tar
        member_ids = [aid for aid, p in zip(view.order, view.states)
                      if p.in_mgst and p.tar == tar]  # in id order
        st.gid = tar
        st.sta = STA_G_EG if st.id in member_ids[: 2 * gef + 2] else STA_G_WG
        self._watch = None  # a group member watches nothing more this phase
        self.presented_dirty = True
        self.events.append(("gid_set", (st.gid, st.gef, tuple(member_ids))))

    def _consensus_acts(self, view: ObservationView) -> bool:
        """False if ``_consensus`` on ``view`` would store the ``gef`` it
        already holds, or none, and form no group: the step is then idle."""
        gef = self._consensus_vote(view)
        return gef is not None and (gef != self.state.gef or self._forms_group(view, gef))

    def _consensus_vote(self, view: ObservationView) -> int | None:
        """The estimate vote ``_consensus`` stores on ``view``; None where it
        stores nothing: the agent is in a group already or has no
        estimate, fewer than ``4*estf`` agents show ``in_mgst``, or none
        of them shows an estimate."""
        st = self.state
        if st.gid is not None or st.estf is None:
            return None
        n_mg, gef, _ = _mgst_tally(view)
        return None if n_mg < 4 * st.estf else gef

    def _forms_group(self, view: ObservationView, gef: int) -> bool:
        """At least ``4*gef+4`` agents show ``in_mgst`` and the agent's
        target, the target among them."""
        tar = self.state.tar
        if _mgst_tally(view)[2].get(tar, 0) < 4 * gef + 4 or tar not in view.ids:
            return False
        p = view.states[view.order.index(tar)]
        return p.in_mgst and p.tar == tar

    # -- rendezvous -----------------------------------------------------------

    def _record_pairs(self, view: ObservationView, rp: int) -> bool:
        """Collect (group id, agent id) evidence; as a ``_look`` it walks the whole window."""
        own = self.state.id
        self.state.gl.update(pair for pair in _pairs(view) if pair[1] != own)
        return False

    def _meets_new_pairs(self, view: ObservationView) -> bool:
        """False if ``_record_pairs`` would add nothing to ``gl``.  The only
        pair a lone walker shows is its own, which it never records."""
        own = self.state.id
        return any(aid != own for _, aid in _pairs(view).difference(self.state.gl))

    def _waiting_group_here(self, view: ObservationView, rp: int | None = None) -> bool:
        """A waiting group is recognized by estf+1 distinct vouching members.

        Pure, so it is also its walk's predicate.  The walker is never
        one of the members: it hunts a group only when it does not wait in it.
        """
        st = self.state
        gid = self._group
        seen = 0
        for p in view.states:
            if p.sta == STA_G_WG and p.gid == gid:
                seen += 1
                if seen > st.estf:
                    return True
        return False
