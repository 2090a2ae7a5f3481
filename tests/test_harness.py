import hashlib

import pytest

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
from byzgather.portgraph import GraphError, parse_graph_file


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
    (parse_graph_file, "3\n0 1 2\n"),
    (parse_graph_file, "2\n0 a\n"),
    (parse_graph_file, "2\n0 1\nports\nx: 1\n"),
])
def test_parsers_raise_only_documented_errors(parse, text):
    with pytest.raises((ParseError, InvalidScenario, GraphError)):
        parse(text)


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
