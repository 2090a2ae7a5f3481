"""Simultaneous-termination extension of the gathering protocol.

An agent runs the base protocol up to, but not through, its terminate
step.  From the next round (its round r_i) it stays on the gathering
node and, every round: re-votes the fault estimate, terminates if at
least gef+1 co-located agents show a raised termination flag, recomputes
the trusted maximum id (ids vouched for by at least gef+1 observed id
lists, which a lone liar cannot inflate), and raises its own flag once
both X rounds have passed since r_i and its own round counter reaches
the waiting threshold for that maximum id.  Flags raised in a round
become visible the next round, so all good agents on the node see the
same quorum and stop together.
"""

from __future__ import annotations

from .exploration import ExplorationSequence
from .gathering import GatheringAgent, cist_length, most_frequent_smallest
from .simcore import TERMINATE, ObservationView


def termination_threshold(x_n: int, idm: int) -> int:
    """Rounds (on an agent's own clock) to wait for the slowest possible peer."""
    if idm < 1:
        raise ValueError("ids are integers >= 1")
    return 2 * x_n + 3 * cist_length(idm) * (3 * x_n + 1)


def trusted_max_id(view: ObservationView, gef: int) -> int | None:
    """Largest id appearing in at least gef+1 of the presented id lists."""
    counts: dict[int, int] = {}
    for e in view.entries:
        for aid in e.presented.il:
            counts[aid] = counts.get(aid, 0) + 1
    need = gef + 1
    best = None
    for aid, c in counts.items():
        if c >= need and (best is None or aid > best):
            best = aid
    return best


class SimGatheringAgent(GatheringAgent):
    """Stepper for the simultaneous-termination variant.

    State on top of the base agent: ``flag_t`` (monotone), ``idm`` (the
    per-round trusted maximum id), ``r_i`` (own round right after the
    base protocol completed), and ``sim_active``.
    """

    def __init__(self, agent_id: int, seq: ExplorationSequence):
        super().__init__(agent_id, seq)
        self.sim_active = False
        self.r_i: int | None = None
        self.idm: int | None = None
        self.idm_max: int | None = None
        self._sthreshold: int | None = None

    def step(self, view: ObservationView, entry_port: int | None):
        if self.sim_active:
            return self._sim_round(view)
        action = super().step(view, entry_port)
        if action is TERMINATE:
            # Swallow the base protocol's terminate: checking starts next round.
            self.sim_active = True
            self.r_i = self.state.count + 1
            self.events.append(("sim_mode", self.r_i))
            return None
        return action

    def next_due(self) -> int | None:
        """Like the base hook; while waiting, the first wait round and the
        count at which the flag rises on an unchanged view are due (None:
        nothing is due until the view changes)."""
        if not self.sim_active:
            return super().next_due()
        c = self.state.count
        if c < self.r_i:
            return c + 1
        if self.flag_t or self._sthreshold is None:
            return None
        return max(c + 1, self.r_i + self.X, self._sthreshold)

    def watches_view(self) -> bool:
        return self.sim_active or super().watches_view()

    def _sim_round(self, view: ObservationView):
        st = self.state
        st.count += 1
        # Identical for every observer of this view; compute once, share.
        memo = view.memo.get("simterm")
        if memo is None:
            vals = []
            flags = 0
            for e in view.entries:
                p = e.presented
                if p.estf is not None:
                    vals.append(p.estf)
                if p.flag_t:
                    flags += 1
            gef = most_frequent_smallest(vals) if vals else 0
            memo = (gef, flags, trusted_max_id(view, gef))
            view.memo["simterm"] = memo
        gef, flags, idm = memo
        st.gef = gef
        self.idm = idm
        self._sthreshold = None if idm is None else termination_threshold(self.X, idm)
        if idm is not None and (self.idm_max is None or idm > self.idm_max):
            self.idm_max = idm
            self.events.append(("idm", idm))
        if flags >= gef + 1:
            return TERMINATE
        if (not self.flag_t and self._sthreshold is not None
                and st.count >= self.r_i + self.X
                and st.count >= self._sthreshold):
            self.flag_t = True
            self.presented_dirty = True
            self.events.append(("flag_t", st.count))
        return None
