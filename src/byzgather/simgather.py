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

from collections import Counter
from itertools import chain

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
    counts = Counter(chain.from_iterable(p.il for p in view.states))
    need = gef + 1
    return max((aid for aid, c in counts.items() if c >= need), default=None)


def simterm(view: ObservationView) -> tuple[int, int, int | None]:
    """Per view, memoised: the estimate vote ``gef`` (0 when no estimate is
    shown), the number of raised flags, and the trusted maximum id."""
    memo = view.memo.get("simterm")
    if memo is None:
        vals = []
        flags = 0
        for p in view.states:
            if p.estf is not None:
                vals.append(p.estf)
            if p.flag_t:
                flags += 1
        gef = most_frequent_smallest(vals) if vals else 0
        memo = view.memo["simterm"] = (gef, flags, trusted_max_id(view, gef))
    return memo


class SimGatheringAgent(GatheringAgent):
    """Stepper for the simultaneous-termination variant.

    State on top of the base agent: ``flag_t`` (monotone), ``idm`` (the
    per-round trusted maximum id), ``r_i`` (own round right after the
    base protocol completed), ``sim_active``, and the ``simterm`` triple
    of its last wait round.
    """

    def __init__(self, agent_id: int, seq: ExplorationSequence):
        super().__init__(agent_id, seq)
        self.sim_active = False
        self.r_i: int | None = None
        self.idm: int | None = None
        self.idm_max: int | None = None
        self._sthreshold: int | None = None
        self._seen: tuple | None = None  # simterm(view) at the last wait round

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

    def wait(self):
        """Like the base hook; while waiting, the first wait round and the
        count at which the flag rises on an unchanged view are due (None:
        nothing is due until the view changes), and after the first wait
        round only a view where ``_sees_new_triple`` holds acts."""
        if not self.sim_active:
            return super().wait()
        c = self.state.count
        if c < self.r_i:
            return c + 1, None, None
        if self.flag_t or self._sthreshold is None:
            return None, self._sees_new_triple, None
        return max(c + 1, self.r_i + self.X, self._sthreshold), self._sees_new_triple, None

    def _sees_new_triple(self, view: ObservationView) -> bool:
        """False if ``view`` shows the ``simterm`` triple of the last wait
        round.  A wait round then sets the same ``gef``, ``idm`` and
        threshold, logs no new ``idm`` (it is no larger than ``idm_max``)
        and does not terminate (it did not last time); the flag can only
        rise at a due count."""
        return simterm(view) != self._seen

    def _sim_round(self, view: ObservationView):
        st = self.state
        st.count += 1
        gef, flags, idm = self._seen = simterm(view)
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
