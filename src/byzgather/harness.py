"""Scenario loading, bound checking, verification suites, and the CLI.

A scenario pins everything an adversarial run needs: graph family and
size, the walk-length bound N, the id assignment, which agents are
faulty and how they behave, the wake policy, and the protocol variant
(NS: non-simultaneous termination, SIM: simultaneous).  The harness
certifies an exploration sequence for the scenario's N, runs the round
engine, and checks the trace against the gathering contract, the two
round-count bounds, and a battery of structural invariants.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import multiprocessing
import os
import random
import sys
from dataclasses import dataclass, field

from .adversary import STRATEGY_NAMES, WAKE_POLICIES, make_strategy, wake_schedule
from .exploration import ExplorationSequence, build_sequence, save_sequence
from .gathering import GatheringAgent, cist_length
from .portgraph import FAMILY_KINDS, GraphFamily, PortGraph, generate
from .simcore import AgentSpec, Engine, Trace
from .simgather import SimGatheringAgent


class ParseError(ValueError):
    pass


class InvalidScenario(ValueError):
    def __init__(self, violations: list[str]):
        super().__init__("invalid scenario: " + "; ".join(violations))
        self.violations = violations


# -- bounds ----------------------------------------------------------------

def theorem1_bound(x_n: int, f: int, lambda_good: int) -> int:
    """Round bound for the non-simultaneous variant, on one agent's own clock.

    The value is the length of a good agent's schedule counted from its
    own wake round: the initial walk of ``x_n`` rounds, then
    ``cist_length(lambda_good) + f + 1`` phase triples of three phases of
    ``3*x_n + 1`` rounds each, i.e.
    ``x_n + 3*(cist_length(lambda_good) + f + 1)*(3*x_n + 1)``.  No term
    refers to when any other agent woke, so the bound applies to each
    agent's termination round minus its own wake round; the span from
    the first good wake to the last good termination also contains the
    wake offset between good agents (up to ``x_n``).
    """
    if x_n < 0 or f < 0 or lambda_good < 1:
        raise ValueError("bound arguments out of range")
    return x_n + 3 * (cist_length(lambda_good) + f + 1) * (3 * x_n + 1)


def theorem2_bound(x_n: int, f: int, lambda_all: int) -> int:
    """Round bound for the simultaneous variant, on the global clock.

    The bound covers the span from the first good wake to the common
    termination round.  Its leading ``3*x_n`` includes the wake offset
    between good agents (up to ``x_n``) on top of the schedule itself.
    """
    if x_n < 0 or f < 0 or lambda_all < 1:
        raise ValueError("bound arguments out of range")
    return 3 * x_n + 3 * (cist_length(lambda_all) + f + 1) * (3 * x_n + 1) + 1


def strict_team_size(f: int) -> int:
    return 4 * f * f + 9 * f + 4


def hypothesis_team_size(f: int) -> int:
    return (4 * f + 4) * (f + 1)


_TEAM_SIZE = {"strict": strict_team_size, "hypothesis": hypothesis_team_size}


# -- scenario configuration --------------------------------------------------

@dataclass
class ScenarioConfig:
    scenario_id: str
    variant: str                      # "NS" or "SIM"
    family: str
    n: int
    graph_seed: int
    N: int
    ids: tuple[int, ...]
    byzantine_ids: tuple[int, ...]
    strategy: str
    wake_policy: str
    seed: int
    exploration_seed: int = 0
    round_cap: int | None = None
    team_rule: str = "strict"         # "strict" or "hypothesis"

    @property
    def k(self) -> int:
        return len(self.ids)

    @property
    def f(self) -> int:
        return len(self.byzantine_ids)

    @property
    def good_ids(self) -> tuple[int, ...]:
        byz = set(self.byzantine_ids)
        return tuple(sorted(a for a in self.ids if a not in byz))

    @property
    def lambda_good(self) -> int:
        return max(self.good_ids)

    @property
    def lambda_all(self) -> int:
        return max(self.ids)

    def violations(self) -> list[str]:
        out = []
        if self.variant not in ("NS", "SIM"):
            out.append(f"unknown variant {self.variant!r}")
        if self.family not in FAMILY_KINDS:
            out.append(f"unknown graph family {self.family!r}")
        if self.n < 1:
            out.append("n must be >= 1")
        if self.family == "ring" and self.n < 3:
            out.append("ring needs n >= 3")
        if self.n > self.N:
            out.append(f"n={self.n} exceeds the walk bound N={self.N}")
        if len(set(self.ids)) != len(self.ids):
            out.append("agent ids must be distinct")
        if any(a < 1 for a in self.ids):
            out.append("agent ids must be positive integers")
        if not set(self.byzantine_ids) <= set(self.ids):
            out.append("byzantine_ids must be a subset of ids")
        if self.team_rule not in _TEAM_SIZE:
            out.append(f"unknown team_rule {self.team_rule!r}")
        elif self.k < (need := _TEAM_SIZE[self.team_rule](self.f)):
            out.append(f"k={self.k} below the required team size {need} for f={self.f}")
        if self.f > 0 and self.strategy not in STRATEGY_NAMES:
            out.append(f"unknown Byzantine strategy {self.strategy!r}")
        if self.wake_policy not in WAKE_POLICIES:
            out.append(f"unknown wake policy {self.wake_policy!r}")
        if self.round_cap is not None and self.round_cap < 1:
            out.append("round_cap must be positive")
        if len(self.ids) == len(self.byzantine_ids):
            out.append("at least one good agent is required")
        return out

    def validated(self) -> "ScenarioConfig":
        bad = self.violations()
        if bad:
            raise InvalidScenario(bad)
        return self


def default_agent_ids(k: int, f: int, seed: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Deterministic id assignment: distinct ids in [1, 64].

    Byzantine ids straddle the good range: ids below the good minimum
    exercise the hunt-the-impostor path, ids above the good maximum
    exercise the trusted-maximum vote.  For f=1 the side alternates with
    the seed.
    """
    if not 0 <= f < k:
        raise InvalidScenario([f"need 0 <= f < k, got f={f}, k={k}"])
    if f == 0:
        lows, highs = [], []
    elif f == 1:
        lows, highs = ([1], []) if seed % 2 == 0 else ([], [63])
    else:
        n_low = (f + 1) // 2
        lows = list(range(1, n_low + 1))
        highs = [64 - i for i in range(f - n_low)]
    n_good = k - f
    lo = len(lows) + 2
    hi = lo + max(n_good + 6, 16)
    if highs and hi > min(highs):
        raise InvalidScenario([f"cannot place {n_good} good ids between the byzantine ids"])
    rng = random.Random(f"ids:{seed}")
    good = rng.sample(range(lo, hi), n_good)
    ids = tuple(sorted(good + lows + highs))
    return ids, tuple(sorted(lows + highs))


# -- scenario text -------------------------------------------------------------
#
# Scenario files, matrix files and the "#cfg" header of a trace export share
# one grammar: "key = value" lines, read by _read_fields and turned into a
# validated ScenarioConfig by _config.

def _read_fields(lines) -> dict[str, str]:
    fields = {}
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ParseError(f"line {lineno}: expected 'key = value', got {line!r}")
        fields[key.strip()] = value.strip()
    return fields


def _int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(f"bad value for {key}: {value!r}") from None


def _config(fields: dict[str, str], draw_ids=default_agent_ids) -> ScenarioConfig:
    """Validated scenario from string fields; unset optional fields take defaults.

    Ids are listed in ``ids`` (and ``byzantine_ids``), or drawn by
    ``draw_ids`` from ``k``, ``f`` and the seed.
    """
    def num(key, default=None):
        value = fields.get(key)
        return default if value is None else _int(key, value)

    def id_list(key):
        return tuple(_int(key, tok) for tok in fields.get(key, "").replace(",", " ").split())

    seed = num("seed", 0)
    if "ids" in fields:
        ids, byz = id_list("ids"), id_list("byzantine_ids")
    elif "k" in fields:
        ids, byz = draw_ids(num("k"), num("f", 0), seed)
    else:
        raise ParseError("scenario needs either 'ids' or 'k' (optionally with 'f')")
    for key in ("family", "n"):
        if key not in fields:
            raise ParseError(f"missing required field {key!r}")
    n = num("n")
    return ScenarioConfig(
        scenario_id=fields.get("scenario_id", "scenario"),
        variant=fields.get("variant", "NS"),
        family=fields["family"],
        n=n,
        graph_seed=num("graph_seed", seed % 3),
        N=num("N", n),
        ids=ids,
        byzantine_ids=byz,
        strategy=fields.get("strategy", "crash"),
        wake_policy=fields.get("wake_policy", "all_at_once"),
        seed=seed,
        exploration_seed=num("exploration_seed", 0),
        round_cap=num("round_cap"),
        team_rule=fields.get("team_rule", "strict"),
    ).validated()


def parse_scenario_text(text: str) -> ScenarioConfig:
    return _config(_read_fields(text.splitlines()))


def load_scenario(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


# -- benchmark graphs and certified sequences --------------------------------

BENCHMARK_SEEDS = (0, 1, 2)


def benchmark_families(N: int) -> list[GraphFamily]:
    fams: list[GraphFamily] = []
    if N == 1:
        return [GraphFamily("path", 1, 0)]
    if N == 2:
        kinds = ("path", "complete", "random-tree", "random-connected")
        return [GraphFamily(kind, 2, s) for kind in kinds for s in BENCHMARK_SEEDS]
    for n in range(3, N + 1):
        for kind in FAMILY_KINDS:
            for s in BENCHMARK_SEEDS:
                fams.append(GraphFamily(kind, n, s))
    return fams


@functools.cache
def _benchmark_graph(fam: GraphFamily) -> PortGraph:
    # The corpora for different N share their smaller graphs; generate each once.
    return generate(fam)


@functools.cache
def benchmark_graphs(N: int) -> list[tuple[GraphFamily, PortGraph]]:
    """Registered corpus for bound N, deduplicated by labeled-graph identity."""
    seen = set()
    corpus = []
    for fam in benchmark_families(N):
        g = _benchmark_graph(fam)
        if g not in seen:
            seen.add(g)
            corpus.append((fam, g))
    return corpus


def certified_sequence(N: int, seed: int, extra_graphs: tuple[PortGraph, ...] = ()) -> ExplorationSequence:
    registered = {g for _, g in benchmark_graphs(N)}
    return _certified_sequence(N, seed, tuple(g for g in extra_graphs if g not in registered))


@functools.cache
def _certified_sequence(N: int, seed: int, extras: tuple[PortGraph, ...]) -> ExplorationSequence:
    # Looks build_sequence up as a module global at call time, so a tracer may rebind it.
    return build_sequence(N, seed, [g for _, g in benchmark_graphs(N)] + list(extras))


# -- running one scenario -----------------------------------------------------

def run_scenario(config: ScenarioConfig) -> tuple["Verdict", Trace]:
    config.validated()
    graph = generate(GraphFamily(config.family, config.n, config.graph_seed))
    seq = certified_sequence(config.N, config.exploration_seed, (graph,))
    X = seq.length
    byz = set(config.byzantine_ids)
    schedule = wake_schedule(config.wake_policy, list(config.ids), byz, config.seed, X)
    rng = random.Random(f"place:{config.seed}")
    specs = []
    for aid in sorted(config.ids):
        start = rng.randrange(graph.node_count)
        if aid in byz:
            stepper = make_strategy(config.strategy, aid, config.seed, config.f,
                                    variant=config.variant, seq=seq)
        else:
            cls = SimGatheringAgent if config.variant == "SIM" else GatheringAgent
            stepper = cls(aid, seq)
        specs.append(AgentSpec(aid, aid in byz, stepper, start, schedule[aid]))
    cap = config.round_cap or 4 * theorem2_bound(X, config.f, config.lambda_all)
    engine = Engine(graph, specs, cap, scenario_id=config.scenario_id,
                    variant=config.variant, x_n=X)
    trace = engine.run()
    return check(trace, config), trace


# -- verdicts -----------------------------------------------------------------

@dataclass
class Verdict:
    config: ScenarioConfig
    x_n: int
    gathered: bool
    same_round: bool | None
    capped: bool
    first_wake: int | None
    last_termination: int | None
    measured_rounds: int | None
    bound: int
    bound_satisfied: bool
    lemma_checks: dict[str, bool] = field(default_factory=dict)
    notes: tuple[str, ...] = ()
    metrics: dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        if not (self.gathered and self.bound_satisfied):
            return False
        if self.config.variant == "SIM" and self.same_round is not True:
            return False
        return all(self.lemma_checks.values())

    def csv_row(self) -> str:
        c = self.config
        rounds = self.measured_rounds if self.measured_rounds is not None else -1
        return (f"{c.scenario_id},{c.variant},{c.n},{c.N},{c.k},{c.f},"
                f"{c.strategy},{c.wake_policy},{self.x_n},{rounds},{self.bound},"
                f"{'pass' if self.ok else 'FAIL'}")


CSV_HEADER = "scenario_id,variant,n,N,k,f,strategy,wake_policy,x_n,rounds,bound,pass"


def check(trace: Trace, config: ScenarioConfig) -> Verdict:
    """Evaluate one trace against the gathering contract, bound, and invariants."""
    good = trace.good_ids
    f = config.f
    X, P = trace.x_n, trace.p_n

    term = {aid: rn for aid, (rn, _) in trace.termination.items() if aid in good}
    last_term = trace.last_good_termination()
    all_term = last_term is not None
    final_nodes = {trace.termination[aid][1] for aid in term}
    gathered = all_term and len(final_nodes) == 1
    same_round: bool | None = None
    if config.variant == "SIM":
        same_round = all_term and len(set(term.values())) == 1

    first_wake = trace.first_good_wake()
    measured = (last_term - first_wake) if (all_term and first_wake is not None) else None
    own_clock = max(rn - trace.wake_round[aid] for aid, rn in term.items()) if all_term else None
    if config.variant == "NS":
        bound = theorem1_bound(X, f, config.lambda_good)
    else:
        bound = theorem2_bound(X, f, config.lambda_all)
    bound_satisfied = bool(gathered and measured is not None and measured <= bound)

    end_ci = {}
    for r, aid, payload in trace.events_of("end_ci"):
        end_ci[aid] = (r, payload[0], payload[1])
    roles = {aid: payload for _, aid, payload in trace.events_of("mgst_role")}
    bl_adds = [(r, aid, payload) for r, aid, payload in trace.events_of("bl_add")]
    gid_sets = [(r, aid, payload) for r, aid, payload in trace.events_of("gid_set")]
    idm_events = [(r, aid, payload) for r, aid, payload in trace.events_of("idm")]

    good_set = set(good)
    checks: dict[str, bool] = {}

    # Meeting completeness: every finished id list holds every good id.
    checks["collect_all_good_ids"] = all(good_set <= il for _, il, _ in end_ci.values())

    # Fault estimate: at least f, and consistent with the team size.
    checks["estf_at_least_f"] = all(
        estf >= f and (4 * estf + 4) * (estf + 1) <= config.k
        for _, _, estf in end_ci.values()
    )

    estfs = [estf for _, _, estf in end_ci.values()]
    checks["estf_spread_at_most_1"] = (max(estfs) - min(estfs) <= 1) if estfs else True
    efm = max(estfs) if estfs else f

    a_min = min(good)
    target_roles = [aid for aid, sta in roles.items() if sta == "S_MG_TA"]
    ok_min = roles.get(a_min, "S_MG_TA") == "S_MG_TA"
    checks["smallest_good_is_target"] = ok_min and len(target_roles) <= efm + 1

    checks["blacklists_stay_good_free"] = all(tar not in good_set for _, _, tar in bl_adds)

    checks["group_formation_agreement"] = _check_group_agreement(trace, gid_sets)

    checks["group_within_f_plus_1_phases"] = _check_group_deadline(
        trace, end_ci, gid_sets, f, P)

    wakes = [trace.wake_round[aid] for aid in good if aid in trace.wake_round]
    checks["wake_spread_within_x"] = (max(wakes) - min(wakes) <= X) if wakes else True

    if config.variant == "SIM":
        true_max = max(config.ids)
        checks["trusted_max_id_bounded"] = all(v <= true_max for _, _, v in idm_events)

    notes = [f"team_rule={config.team_rule}"]
    if trace.capped:
        notes.append("RoundCapExceeded")
    if measured is not None:
        notes.append(f"slack={bound - measured}")
    if own_clock is not None:
        notes.append(f"own_clock_slack={bound - own_clock}")

    first_gid = min((r for r, _, _ in gid_sets), default=None)
    per_agent_bl: dict[int, int] = {}
    for _, aid, _ in bl_adds:
        per_agent_bl[aid] = per_agent_bl.get(aid, 0) + 1
    if first_gid is not None and end_ci:
        last_collect = max(r for r, _, _ in end_ci.values())
        hunt_phases = max(0, -(-(first_gid - last_collect) // (3 * P)))
    else:
        hunt_phases = None
    metrics = {
        "group_round": first_gid,
        "mgst_phases_to_group": hunt_phases,
        "bl_insertions": len(bl_adds),
        "bl_max_per_agent": max(per_agent_bl.values(), default=0),
        "max_idm": max((v for _, _, v in idm_events), default=None),
        "wake_spread": (max(wakes) - min(wakes)) if wakes else None,
        "own_clock_rounds": own_clock,
    }

    return Verdict(
        config=config, x_n=X, gathered=gathered,
        same_round=same_round, capped=trace.capped,
        first_wake=first_wake, last_termination=last_term,
        measured_rounds=measured, bound=bound, bound_satisfied=bound_satisfied,
        lemma_checks=checks, notes=tuple(notes), metrics=metrics,
    )


def _check_group_agreement(trace: Trace, gid_sets) -> bool:
    """Simultaneous setters on one node must agree, with a real quorum present."""
    by_site: dict[tuple[int, int], list] = {}
    for r, aid, (gid, gef, _members) in gid_sets:
        node = trace.node_at(aid, r)
        by_site.setdefault((r, node), []).append((gid, gef))
    agent_ids = trace.agent_ids
    for (r, node), entries in by_site.items():
        if len({e for e in entries}) != 1:
            return False
        gef = entries[0][1]
        occupancy = sum(1 for aid in agent_ids if trace.node_at(aid, r) == node)
        if occupancy < 4 * gef + 4:
            return False
    return True


def _check_group_deadline(trace: Trace, end_ci, gid_sets, f: int, P: int) -> bool:
    """A group must exist before the last finisher ends its (f+1)-th hunt phase."""
    if not end_ci:
        return True
    last_end = max((r, aid) for aid, (r, _, _) in end_ci.items())
    deadline = last_end[0] + 3 * P * (f + 1)
    first_gid = min((r for r, _, _ in gid_sets), default=None)
    if first_gid is not None:
        return first_gid <= deadline
    return trace.rounds < deadline


# -- suites -------------------------------------------------------------------

def _suite_worker(config: ScenarioConfig) -> Verdict:
    return run_scenario(config)[0]


@dataclass
class SuiteResult:
    verdicts: list[Verdict]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def failures(self) -> list[Verdict]:
        return [v for v in self.verdicts if not v.ok]

    def csv(self) -> str:
        lines = [CSV_HEADER]
        lines.extend(v.csv_row() for v in self.verdicts)
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        total = len(self.verdicts)
        bad = self.failures()
        lines = [f"{total - len(bad)}/{total} scenarios passed"]
        for v in bad[:20]:
            why = []
            if not v.gathered:
                why.append("not gathered")
            if v.gathered and not v.bound_satisfied:
                why.append(f"rounds {v.measured_rounds} > bound {v.bound}")
            if v.config.variant == "SIM" and v.same_round is False:
                why.append("termination rounds differ")
            why.extend(name for name, okc in v.lemma_checks.items() if not okc)
            lines.append(f"  FAIL {v.config.scenario_id}: {', '.join(why)}")
        if len(bad) > 20:
            lines.append(f"  ... and {len(bad) - 20} more failures")
        return "\n".join(lines)


def run_suite(configs: list[ScenarioConfig], workers: int | None = None) -> SuiteResult:
    """Run a scenario matrix; results are sorted, so reports are order-stable."""
    for cfg in configs:
        cfg.validated()
    if workers is None:
        workers = min(os.cpu_count() or 1, len(configs)) or 1
    if workers > 1 and len(configs) > 1:
        with multiprocessing.Pool(workers) as pool:
            verdicts = list(pool.imap_unordered(_suite_worker, configs, chunksize=4))
    else:
        verdicts = [_suite_worker(cfg) for cfg in configs]
    verdicts.sort(key=lambda v: v.config.scenario_id)
    return SuiteResult(verdicts)


# -- default matrices ---------------------------------------------------------

#: Axes of a matrix file and their defaults; any other key is a scenario field.
_AXES = {"families": ", ".join(FAMILY_KINDS), "f": "0", "k_rules": "strict",
         "strategies": "crash", "wake_policies": "all_at_once", "seeds": "0"}

_ACCEPTANCE_MATRIX = """
n = 5
families = ring, complete, path, random-tree, random-connected
f = 0, 1, 2
k_rules = strict, hypothesis
strategies = crash, random_walk, fake_target, lure, fake_group, estf_liar, id_inflator, mimic_good
wake_policies = all_at_once, single_good_first, adversarial_stagger
seeds = 0, 1, 2
"""


def parse_matrix_text(text: str) -> list[ScenarioConfig]:
    """Cross-product matrix: comma-separated axes over shared scenario fields.

    Axes expand in the order family, f, k rule, strategy, wake policy,
    seed; ``n`` defaults to 5.  With f = 0 every strategy coincides, so
    only the first one runs, and among k rules that give the same k the
    first one listed wins.  Ids are drawn once per distinct (k, f, seed).
    """
    fields = {"n": "5", **_read_fields(text.splitlines())}
    axes = {key: [tok.strip() for tok in fields.pop(key, default).split(",") if tok.strip()]
            for key, default in _AXES.items()}
    teams = []
    for f in (_int("f", value) for value in axes["f"]):
        k_rules: dict[int, str] = {}
        for rule in axes["k_rules"]:
            if rule not in _TEAM_SIZE:
                raise ParseError(f"unknown k rule {rule!r}")
            k_rules.setdefault(_TEAM_SIZE[rule](f), rule)
        teams.extend((f, k, rule) for k, rule in k_rules.items())
    draw_ids = functools.lru_cache(maxsize=None)(default_agent_ids)
    strategies = axes["strategies"]
    configs = []
    for family, (f, k, rule) in itertools.product(axes["families"], teams):
        for strategy, policy, seed in itertools.product(
                strategies if f else strategies[:1], axes["wake_policies"], axes["seeds"]):
            cfg = _config({**fields, "family": family, "f": str(f), "k": str(k), "team_rule": rule,
                           "strategy": strategy, "wake_policy": policy, "seed": seed}, draw_ids)
            cfg.scenario_id = (f"{cfg.variant}-{family}-n{cfg.n}-f{f}-k{k:02d}-"
                               f"{strategy}-{policy}-s{cfg.seed}")
            configs.append(cfg)
    return configs


def acceptance_matrix(variant: str) -> list[ScenarioConfig]:
    """Family x fault-count x team-size x strategy x wake-policy x seed grid.

    Every graph seed used here is one of the registered benchmark seeds,
    so one certified sequence per N covers the whole grid.
    """
    return parse_matrix_text(f"variant = {variant}\n{_ACCEPTANCE_MATRIX}")


def baseline_matrix() -> list[ScenarioConfig]:
    """f=0, k=4 honest runs over the benchmark corpus for N = 10 (n in 3..10)."""
    configs = []
    for fam, _ in benchmark_graphs(10):
        n, seed = fam.node_count, fam.seed
        ids, byz = default_agent_ids(4, 0, seed)
        configs.append(ScenarioConfig(
            scenario_id=f"NS-{fam.kind}-n{n}-f0-k04-baseline-all_at_once-s{seed}",
            variant="NS", family=fam.kind, n=n, graph_seed=seed, N=n, ids=ids,
            byzantine_ids=byz, strategy="crash", wake_policy="all_at_once", seed=seed,
        ))
    return configs


# -- trace export and replay ---------------------------------------------------

_CFG_FIELDS = ("scenario_id", "variant", "family", "n", "graph_seed", "N",
               "strategy", "wake_policy", "seed", "exploration_seed", "team_rule")


def export_trace_text(trace: Trace, config: ScenarioConfig) -> str:
    lines = []
    for name in _CFG_FIELDS:
        lines.append(f"#cfg {name} = {getattr(config, name)}")
    lines.append(f"#cfg ids = {' '.join(map(str, config.ids))}")
    lines.append(f"#cfg byzantine_ids = {' '.join(map(str, config.byzantine_ids))}")
    if config.round_cap is not None:
        lines.append(f"#cfg round_cap = {config.round_cap}")
    lines.extend(trace.export_lines())
    return "\n".join(lines) + "\n"


def config_from_trace_text(text: str) -> ScenarioConfig:
    fields = _read_fields(line[5:] for line in text.splitlines() if line.startswith("#cfg "))
    if not fields:
        raise ParseError("trace file carries no embedded scenario")
    return _config(fields)


def replay_trace_file(path: str) -> tuple[bool, str]:
    with open(path, "r", encoding="utf-8") as fh:
        original = fh.read()
    config = config_from_trace_text(original)
    _, trace = run_scenario(config)
    fresh = export_trace_text(trace, config)
    if fresh == original:
        return True, f"replay of {config.scenario_id} is byte-identical"
    return False, f"replay of {config.scenario_id} DIVERGED"


# -- CLI ------------------------------------------------------------------------

def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    if args.cap:
        config.round_cap = args.cap
    verdict, trace = run_scenario(config)
    print(f"{config.scenario_id}: {'PASS' if verdict.ok else 'FAIL'}")
    print(f"  gathered={verdict.gathered}"
          + (f" same_round={verdict.same_round}" if config.variant == "SIM" else ""))
    print(f"  rounds={verdict.measured_rounds} bound={verdict.bound} x_n={verdict.x_n}")
    for name, okc in sorted(verdict.lemma_checks.items()):
        print(f"  {name}: {'pass' if okc else 'FAIL'}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out = os.path.join(args.out, f"{config.scenario_id}.trace")
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(export_trace_text(trace, config))
        print(f"  trace written to {out}")
    if args.csv:
        print(CSV_HEADER)
        print(verdict.csv_row())
    return 0 if verdict.ok else 1


def _cmd_suite(args) -> int:
    name = args.matrix
    if name == "acceptance-ns":
        configs = acceptance_matrix("NS")
    elif name == "acceptance-sim":
        configs = acceptance_matrix("SIM")
    elif name == "baseline-f0":
        configs = baseline_matrix()
    else:
        with open(name, "r", encoding="utf-8") as fh:
            configs = parse_matrix_text(fh.read())
    if args.cap:
        for cfg in configs:
            cfg.round_cap = args.cap
    result = run_suite(configs, workers=args.workers)
    print(result.summary())
    if args.csv or args.out:
        outdir = args.out or "."
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, "suite.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(result.csv())
        print(f"csv written to {path}")
    return 0 if result.ok else 1


def _cmd_certify(args) -> int:
    seq = certified_sequence(args.n, args.seed)
    print(f"certified sequence for N={args.n}, seed={args.seed}: X_N={seq.length}")
    if args.out:
        save_sequence(seq, args.out)
        print(f"written to {args.out}")
    return 0


def _cmd_replay(args) -> int:
    ok, message = replay_trace_file(args.trace)
    print(message)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="byzgather",
        description="Simulate and verify Byzantine-tolerant mobile-agent gathering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file and check it")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="directory for the trace export")
    p_run.add_argument("--cap", type=int, default=None, help="round cap override")
    p_run.add_argument("--csv", action="store_true")
    p_run.set_defaults(fn=_cmd_run)

    p_suite = sub.add_parser("suite", help="run a scenario matrix")
    p_suite.add_argument("matrix",
                         help="matrix file, or acceptance-ns | acceptance-sim | baseline-f0")
    p_suite.add_argument("--out", default=None)
    p_suite.add_argument("--cap", type=int, default=None)
    p_suite.add_argument("--csv", action="store_true")
    p_suite.add_argument("--workers", type=int, default=None)
    p_suite.set_defaults(fn=_cmd_suite)

    p_cert = sub.add_parser("certify", help="build and certify an exploration sequence")
    p_cert.add_argument("--n", type=int, required=True, dest="n")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--out", default=None)
    p_cert.set_defaults(fn=_cmd_certify)

    p_replay = sub.add_parser("replay", help="re-run an exported trace and compare")
    p_replay.add_argument("trace")
    p_replay.set_defaults(fn=_cmd_replay)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
