import hashlib
import re

import pytest
from conftest import worlds
from hypothesis import given, settings
from hypothesis import strategies as st

from byzgather.adversary import STRATEGY_NAMES, WAKE_POLICIES
from byzgather.exploration import certify
from byzgather.harness import (
    InvalidScenario,
    ParseError,
    ScenarioConfig,
    acceptance_matrix,
    baseline_matrix,
    benchmark_graphs,
    certified_sequence,
    check,
    config_from_trace_text,
    default_agent_ids,
    export_trace_text,
    hypothesis_team_size,
    load_scenario,
    main,
    parse_matrix_text,
    parse_scenario_text,
    run_scenario,
    run_suite,
    strict_team_size,
    theorem1_bound,
    theorem2_bound,
)
from byzgather.portgraph import FAMILY_KINDS, GraphError


def test_theorem1_bound_examples():
    assert theorem1_bound(10, 1, 8) == 1312
    assert theorem1_bound(1, 0, 1) == 85


def test_theorem2_bound_examples():
    assert theorem2_bound(10, 1, 8) == 1333
    assert theorem2_bound(1, 0, 1) == 88


def test_bounds_are_monotone_in_every_argument():
    for x, f, lam in [(3, 1, 5), (10, 2, 17), (40, 0, 63)]:
        assert theorem1_bound(x + 1, f, lam) > theorem1_bound(x, f, lam)
        assert theorem1_bound(x, f + 1, lam) > theorem1_bound(x, f, lam)
        assert theorem1_bound(x, f, 2 * lam) > theorem1_bound(x, f, lam)
        assert theorem2_bound(x + 1, f, lam) > theorem2_bound(x, f, lam)
        assert theorem2_bound(x, f + 1, lam) > theorem2_bound(x, f, lam)
        assert theorem2_bound(x, f, 2 * lam) > theorem2_bound(x, f, lam)


def test_team_sizes():
    assert [strict_team_size(f) for f in (0, 1, 2)] == [4, 17, 38]
    assert [hypothesis_team_size(f) for f in (0, 1, 2)] == [4, 16, 36]


def test_default_ids_are_distinct_and_straddle():
    for k, f in [(4, 0), (17, 1), (16, 1), (38, 2), (36, 2)]:
        for seed in (0, 1, 2):
            ids, byz = default_agent_ids(k, f, seed)
            assert len(ids) == k and len(byz) == f
            assert len(set(ids)) == k
            assert all(1 <= a <= 64 for a in ids)
            good = sorted(set(ids) - set(byz))
            if f >= 2:
                assert min(byz) < good[0] and max(byz) > good[-1]


def test_scenario_roundtrip_minimal_file():
    text = """
    scenario_id = demo
    variant = NS
    family = ring
    n = 5
    N = 5
    ids = 2, 3, 5, 9
    byzantine_ids =
    strategy = crash
    wake_policy = all_at_once
    seed = 0
    """
    cfg = parse_scenario_text(text)
    assert cfg.scenario_id == "demo"
    assert cfg.ids == (2, 3, 5, 9)
    assert cfg.k == 4 and cfg.f == 0
    assert cfg.lambda_good == 9


def test_scenario_with_generated_ids():
    cfg = parse_scenario_text("family = ring\nn = 5\nk = 17\nf = 1\nseed = 0\n")
    assert cfg.k == 17 and cfg.f == 1


def test_scenario_rejects_small_team():
    with pytest.raises(InvalidScenario) as err:
        parse_scenario_text("family = ring\nn = 5\nids = 1,2,3,4,5,6,7,8,9,10\n"
                            "byzantine_ids = 1\nseed = 0\n")
    assert "required team size 17" in str(err.value)


def test_scenario_accepts_theorem_hypothesis_team():
    cfg = parse_scenario_text("family = ring\nn = 5\nk = 16\nf = 1\nseed = 0\n"
                              "team_rule = hypothesis\n")
    assert cfg.k == 16


def test_scenario_rejects_n_above_bound():
    with pytest.raises(InvalidScenario):
        parse_scenario_text("family = ring\nn = 6\nN = 5\nk = 4\nseed = 0\n")


def test_scenario_collects_every_violation():
    try:
        ScenarioConfig(
            scenario_id="bad", variant="XX", family="moebius", n=9, graph_seed=0,
            N=5, ids=(1, 1), byzantine_ids=(2,), strategy="teleport",
            wake_policy="nope", seed=0).validated()
    except InvalidScenario as err:
        text = str(err)
        for needle in ("variant", "family", "exceeds", "distinct", "subset",
                       "strategy", "wake policy"):
            assert needle in text
    else:
        raise AssertionError("expected InvalidScenario")


def test_scenario_parse_error_is_not_a_scenario_error():
    with pytest.raises(ParseError):
        parse_scenario_text("family ring\n")
    with pytest.raises(ParseError):
        parse_scenario_text("family = ring\nn = five\n")


@pytest.mark.parametrize("parse, text", [
    (parse_matrix_text, "n = five\n"),
    (parse_matrix_text, "f = x\n"),
    (config_from_trace_text, "#cfg scenario_id = a\n"),
    (parse_scenario_text, "family = complete\nn = 1\nk = 4\n"),
])
def test_parsers_raise_only_documented_errors(parse, text):
    with pytest.raises((ParseError, InvalidScenario, GraphError)):
        parse(text)


@pytest.mark.parametrize("parse, text, message", [
    (parse_scenario_text, "family = ring\nn = 5\nk = 4\nstrategyy = lure\n", "unknown key 'strategyy'"),
    (config_from_trace_text, "#cfg family = ring\n#cfg n = 5\n#cfg k = 4\n#cfg colour = red\n",
     "unknown key 'colour'"),
    (parse_matrix_text, "families = ring\nf = 1\nstrategy = lure\n", "the 'strategies' axis"),
    (parse_matrix_text, "families = ring\nf = 1\nk = 40\n", "the 'k_rules' axis"),
    (parse_matrix_text, "families = ring\nids = 5 6 7 8\n", "the 'f' and 'k_rules' axes"),
    (parse_matrix_text, "families = ring\nscenario_id = mine\n", "the matrix itself"),
    (parse_matrix_text, "families = ring\nstrategyy = lure\n", "unknown key 'strategyy'"),
    (parse_matrix_text, "families =\n", "matrix expands to no scenarios"),
], ids=["scenario-typo", "trace-header-typo", "matrix-strategy", "matrix-k", "matrix-ids",
        "matrix-scenario-id", "matrix-typo", "matrix-empty"])
def test_keys_the_grammar_would_ignore_are_rejected(parse, text, message):
    # Ignored, each would run something other than what it says: crash for
    # lure, k = 17 for k = 40, or no scenario at all.
    with pytest.raises(ParseError, match=re.escape(message)):
        parse(text)


_GRAMMAR_KEYS = (*ScenarioConfig.__dataclass_fields__, "k", "f")
_AXIS_KEYS = ("families", "f", "k_rules", "strategies", "wake_policies", "seeds")
_MATRIX_KEYS = (*_AXIS_KEYS, "variant", "n", "graph_seed", "N", "exploration_seed", "round_cap")
_ALL_KEYS = (*_GRAMMAR_KEYS, *_AXIS_KEYS, "strategyy", "K", "colour", "")
_WORDS = (*FAMILY_KINDS, *STRATEGY_NAMES, *WAKE_POLICIES, "NS", "SIM", "strict", "hypothesis",
          "junk")
# Small ints only: default_agent_ids samples a range about k wide, so a k
# near 10**9 would allocate about a billion ids; that case is not drawn.
_SMALL = st.integers(-3, 70)
_VALUES = st.one_of(
    _SMALL.map(str),
    st.lists(_SMALL, max_size=6).map(lambda xs: ", ".join(map(str, xs))),
    st.sampled_from(_WORDS),
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(", ".join),
    st.just(""),
)
_PARSERS = {  # parser, its keys, and the prefix of its key lines
    "scenario": (parse_scenario_text, _GRAMMAR_KEYS, ""),
    "matrix": (parse_matrix_text, _MATRIX_KEYS, ""),
    "trace": (config_from_trace_text, _GRAMMAR_KEYS, "#cfg "),
}


@st.composite
def _parser_inputs(draw):
    """A parser and lines of its own keys, plus at most one stray line of any
    key; scenario and trace lines start from a family, an n and a k."""
    form = draw(st.sampled_from(sorted(_PARSERS)))
    parse, keys, prefix = _PARSERS[form]
    lines = []
    if form != "matrix":
        lines = [("family", draw(st.sampled_from(FAMILY_KINDS))), ("n", draw(_SMALL)),
                 ("k", draw(_SMALL))]
    lines += draw(st.lists(st.tuples(st.sampled_from(keys), _VALUES), max_size=8))
    if draw(st.booleans()):
        stray = (draw(st.sampled_from(_ALL_KEYS)), draw(_VALUES))
        lines.insert(draw(st.integers(0, len(lines))), stray)
    text = "".join(f"{prefix}{key} = {value}\n" for key, value in lines)
    return parse, text + ("1,2,wake,0\n" if prefix else "")


@settings(max_examples=200, deadline=None)
@given(_parser_inputs())
def test_parsers_raise_only_documented_errors_on_any_lines(parser_input):
    parse, text = parser_input
    try:
        parse(text)
    except (ParseError, GraphError, InvalidScenario):
        pass


def _meets_contract(verdict) -> bool:
    """Criteria 2-4: gathered, every lemma check holds, and the variant's
    bound (NS on each agent's own clock, SIM on the global span, in one round)."""
    if not (verdict.gathered and all(verdict.lemma_checks.values())):
        return False
    if verdict.config.variant == "NS":
        return verdict.metrics["own_clock_rounds"] <= verdict.bound
    return verdict.same_round is True and verdict.bound_satisfied


def test_one_node_world_gathers_within_the_bound():
    # With X_1 = 0 a phase was one round long and this run hit its round cap
    # of 160 without terminating.
    cfg = parse_scenario_text("variant = NS\nfamily = path\nn = 1\nN = 1\nids = 5 6 7 8\n"
                              "strategy = crash\nwake_policy = single_good_first\nseed = 0\n")
    verdict, trace = run_scenario(cfg)
    assert not trace.capped
    assert _meets_contract(verdict)


@settings(max_examples=100, deadline=None)
@given(worlds())
def test_gathering_contract_holds_on_random_worlds(cfg):
    verdict, _ = run_scenario(cfg)
    assert _meets_contract(verdict), verdict


def test_load_scenario_file(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("family = path\nn = 4\nk = 4\nseed = 1\n", encoding="utf-8")
    cfg = load_scenario(str(path))
    assert cfg.family == "path" and cfg.n == 4


def test_benchmark_corpus_is_deduplicated_and_certifiable():
    corpus = benchmark_graphs(4)
    fps = [g.fingerprint() for _, g in corpus]
    assert len(fps) == len(set(fps))
    seq = certified_sequence(4, 0)
    for _, g in corpus:
        assert certify(seq, g).passed


def test_certified_sequence_is_cached():
    a = certified_sequence(4, 0)
    b = certified_sequence(4, 0)
    assert a is b


def _tiny_config(variant="NS", cap=None, wake_policy="all_at_once"):
    ids, byz = default_agent_ids(4, 0, 0)
    return ScenarioConfig(
        scenario_id=f"tiny-{variant}", variant=variant, family="path", n=4,
        graph_seed=0, N=4, ids=ids, byzantine_ids=byz, strategy="crash",
        wake_policy=wake_policy, seed=0, round_cap=cap)


def test_round_cap_produces_failing_verdict_not_crash():
    verdict, trace = run_scenario(_tiny_config(cap=50))
    assert trace.capped
    assert not verdict.gathered
    assert "RoundCapExceeded" in verdict.notes
    assert not verdict.ok


def test_suite_summary_lists_each_failure_with_its_reasons():
    result = run_suite([_tiny_config(), _tiny_config(cap=50), _tiny_config("SIM", cap=50)],
                       workers=1)
    assert result.summary() == ("1/3 scenarios passed\n"
                                "  FAIL tiny-NS: not gathered\n"
                                "  FAIL tiny-SIM: not gathered, termination rounds differ")
    assert [v.reasons() for v in result.verdicts if v.ok] == [[]]


def test_check_passing_run_reports_slack_and_metrics():
    verdict, _ = run_scenario(_tiny_config())
    assert verdict.ok
    assert verdict.measured_rounds <= verdict.bound
    assert verdict.metrics["group_round"] is not None
    assert any(note.startswith("slack=") for note in verdict.notes)


def test_ns_bound_holds_on_own_clock_and_fails_one_round_past_it():
    cfg = _tiny_config(wake_policy="single_good_first")
    verdict, trace = run_scenario(cfg)
    spread = verdict.metrics["wake_spread"]
    own = verdict.metrics["own_clock_rounds"]
    assert verdict.gathered and spread > 1
    assert own <= verdict.bound
    assert f"own_clock_slack={verdict.bound - own}" in verdict.notes
    # The global span also holds the wake offset, which the bound leaves out.
    assert verdict.measured_rounds - verdict.bound == spread - 1

    aid = max(trace.good_ids, key=lambda a: trace.termination[a][0] - trace.wake_round[a])
    _, node = trace.termination[aid]
    budget_end = trace.wake_round[aid] + verdict.bound
    # Here every agent stops one round inside its budget; one round later uses
    # it up exactly, and one round past it breaks the bound.
    trace.termination[aid] = (budget_end, node)
    assert check(trace, cfg).metrics["own_clock_rounds"] == verdict.bound
    trace.termination[aid] = (budget_end + 1, node)
    late = check(trace, cfg)
    assert late.gathered
    assert late.metrics["own_clock_rounds"] > late.bound


def _deadline(trace, cfg):
    """Last round a first group may form: the last end_ci plus f+1 hunt phases."""
    return max(r for r, _, _ in trace.events_of("end_ci")) + 3 * trace.p_n * (cfg.f + 1)


def _late_group(trace, cfg):
    late = _deadline(trace, cfg) + 1
    trace.events = [(late if kind == "gid_set" else r, aid, kind, payload)
                    for r, aid, kind, payload in trace.events]


def _no_group_by_the_deadline(trace, cfg):
    trace.events = [e for e in trace.events if e[2] != "gid_set"]
    trace.rounds = _deadline(trace, cfg)


def _split_group(trace, cfg):
    r, aid, (gid, gef, members) = trace.events_of("gid_set")[0]
    other = next(b for b in trace.position_log
                 if b != aid and trace.node_at(b, r) == trace.node_at(aid, r))
    trace.events.append((r, other, "gid_set", (gid + 1, gef, members)))


def _thin_quorum(trace, cfg):
    # Every setter agrees on a gef whose quorum, 4*gef + 4, exceeds the team.
    trace.events = [(r, aid, kind, (p[0], p[1] + cfg.k, p[2]) if kind == "gid_set" else p)
                    for r, aid, kind, p in trace.events]


def _good_blacklisted(trace, cfg):
    r, aid, _ = trace.events_of("end_ci")[0]
    trace.events.append((r, aid, "bl_add", max(trace.good_ids - {aid})))


def _late_good_wake(trace, cfg):
    first = min(trace.wake_round[aid] for aid in trace.good_ids)
    trace.wake_round[max(trace.good_ids)] = first + trace.x_n + 1


def _inflated_idm(trace, cfg):
    r, aid, _ = trace.events_of("idm")[0]
    trace.events.append((r, aid, "idm", max(cfg.ids) + 1))


@pytest.mark.parametrize("variant, name, edit", [
    ("NS", "group_within_f_plus_1_phases", _late_group),
    ("NS", "group_within_f_plus_1_phases", _no_group_by_the_deadline),
    ("NS", "group_formation_agreement", _split_group),
    ("NS", "group_formation_agreement", _thin_quorum),
    ("NS", "blacklists_stay_good_free", _good_blacklisted),
    ("NS", "wake_spread_within_x", _late_good_wake),
    ("SIM", "trusted_max_id_bounded", _inflated_idm),
], ids=lambda p: p.__name__.strip("_") if callable(p) else None)
def test_each_lemma_check_fails_on_a_trace_that_breaks_it(variant, name, edit):
    cfg = _tiny_config(variant)
    verdict, trace = run_scenario(cfg)
    assert verdict.lemma_checks[name]
    edit(trace, cfg)
    broken = check(trace, cfg)
    assert broken.lemma_checks[name] is False
    assert name in broken.reasons()


def test_suite_runs_and_csv_is_stable():
    configs = [_tiny_config(), _tiny_config("SIM")]
    r1 = run_suite(configs, workers=1)
    r2 = run_suite(configs, workers=1)
    assert r1.csv() == r2.csv()
    assert r1.ok
    assert r1.csv().splitlines()[0].startswith("scenario_id,")
    assert len(r1.csv().splitlines()) == 3


def test_trace_export_embeds_config_and_replays():
    cfg = _tiny_config()
    _, trace = run_scenario(cfg)
    text = export_trace_text(trace, cfg)
    back = config_from_trace_text(text)
    assert back == cfg


def test_matrix_file_expands_cross_product():
    base = """
    variant = NS
    families = ring, path
    f = 0, 1
    strategies = crash, lure
    wake_policies = all_at_once
    seeds = 0, 1
    """
    # ring/path x (f0: one strategy) x 2 seeds + ring/path x f1 x 2 strategies x 2 seeds;
    # both k rules give k = 4 at f = 0, where the first one listed wins.
    for rules, expected in (("strict", 2 * 1 * 2 + 2 * 2 * 2),
                            ("strict, hypothesis", 2 * 1 * 2 + 2 * 2 * 2 * 2)):
        configs = parse_matrix_text(f"{base}\nk_rules = {rules}\n")
        assert len(configs) == expected
        assert len({c.scenario_id for c in configs}) == len(configs)
        assert {c.team_rule for c in configs if c.f == 0} == {"strict"}


def test_builtin_matrices_keep_their_order():
    # bench/run.py shuffles these lists by seed, so their order is benchmark input.
    pins = {
        "NS": "ee0ad6d6ec6a7917059e8db4f95f63f8c130614e527092708acd1e9f6cc9b1ac",
        "SIM": "5f38d5b36f49a24b45fe9bdf96ad5769008489affdd29b795142ccdcb0a1a8f3",
        "baseline": "96f7d26488122c3271b32fb2ecf1240f0f8c822561d4eb04d3cd41bdc67b5ae7",
    }
    matrices = {"NS": acceptance_matrix("NS"), "SIM": acceptance_matrix("SIM"),
                "baseline": baseline_matrix()}
    for name, configs in matrices.items():
        listing = repr([(c.scenario_id, c.ids, c.byzantine_ids) for c in configs])
        assert hashlib.sha256(listing.encode()).hexdigest() == pins[name], name


def test_cli_suite_with_matrix_file(tmp_path, capsys):
    matrix = tmp_path / "m.txt"
    matrix.write_text(
        "variant = NS\nfamilies = path\nf = 0\nk_rules = strict\n"
        "strategies = crash\nwake_policies = all_at_once\nseeds = 0\nn = 4\n",
        encoding="utf-8")
    code = main(["suite", str(matrix), "--out", str(tmp_path), "--workers", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1 scenarios passed" in out
    csv_text = (tmp_path / "suite.csv").read_text(encoding="utf-8")
    assert csv_text.splitlines()[0].startswith("scenario_id,")
    assert ",pass" in csv_text.splitlines()[1]


def test_cli_cap_zero_is_rejected_not_ignored(tmp_path, capsys):
    scenario = tmp_path / "s.txt"
    scenario.write_text("family = path\nn = 4\nk = 4\nseed = 0\n", encoding="utf-8")
    for argv in (["run", str(scenario), "--cap", "0"],
                 ["suite", "baseline-f0", "--cap", "0", "--workers", "1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("byzgather: error: invalid scenario: ")
        assert "round_cap must be positive" in err and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["run", "{dir}/no-k.txt"], "scenario needs either 'ids' or 'k'"),
    (["replay", "{dir}/no-cfg.trace"], "trace file carries no embedded scenario"),
    (["run", "{dir}/missing.txt"], "No such file or directory"),
    (["suite", "{dir}/empty.matrix"], "matrix expands to no scenarios"),
], ids=["scenario-without-k", "trace-without-cfg", "missing-file", "empty-matrix"])
def test_cli_input_errors_end_in_one_line(tmp_path, capsys, argv, message):
    (tmp_path / "no-k.txt").write_text("family = path\nn = 4\nseed = 0\n", encoding="utf-8")
    (tmp_path / "empty.matrix").write_text("families =\n", encoding="utf-8")
    (tmp_path / "no-cfg.trace").write_text("1,2,wake,0\n", encoding="utf-8")
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("byzgather: error: ") and message in err and err.count("\n") == 1


def test_cli_certify_and_run(tmp_path, capsys):
    assert main(["certify", "--n", "3", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "X_N=" in out

    scenario = tmp_path / "s.txt"
    scenario.write_text(
        "scenario_id = cli\nfamily = path\nn = 4\nk = 4\nseed = 0\n",
        encoding="utf-8")
    code = main(["run", str(scenario), "--out", str(tmp_path), "--csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out
    trace_file = tmp_path / "cli.trace"
    assert trace_file.exists()

    assert main(["replay", str(trace_file)]) == 0
    assert "byte-identical" in capsys.readouterr().out

    lines = trace_file.read_text(encoding="utf-8").splitlines()
    i = next(i for i, line in enumerate(lines) if ",at," in line)
    r, aid, _, node = lines[i].split(",")
    lines[i] = f"{r},{aid},at,{int(node) + 1}"
    trace_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["replay", str(trace_file)]) == 1
    assert "DIVERGED" in capsys.readouterr().out
