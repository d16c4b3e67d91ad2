"""Tests of the benchmark itself: every workload runs end to end at a tiny
size, traced and untraced, and every correctness check rejects a corrupted
output."""

import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
for path in (str(ROOT / "src"), str(BENCH_DIR)):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import pipeline  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from agentcfg import analysis, core, policy, train  # noqa: E402
from agentcfg.env import compact_atom_library, default_atom_library  # noqa: E402
from agentcfg.reward import RewardConfig, shaped_reward  # noqa: E402
from agentcfg.runtime import BackendEndpoint, execute_real  # noqa: E402

REWARD = RewardConfig()

TINY = dict(dpo_epochs=1, guarantee_samples=1, decode_repeats=1,
            rollout_episodes=4, grid_evals=2, greedy_evals=2, sampled_evals=1,
            episodes_per_eval=1, flat_episodes=2, real_repeats=1)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Every phase of every workload at the least work that still runs it,
    so these tests add only seconds to the test suite. The checks that the
    smaller sizes exercise less (finite differences, the oracle, SFT) are
    shown to reject corrupted outputs by the tests further down."""
    profiles = {
        name: dataclasses.replace(
            profile, ppo_episodes=32 if profile.reduced else 16, **TINY)
        for name, profile in pipeline.PROFILES.items()
    }
    monkeypatch.setattr(pipeline, "PROFILES", profiles)
    monkeypatch.setattr(pipeline, "ORACLE_QUERIES", 1)
    monkeypatch.setattr(pipeline, "REDUCED_SFT_UPDATE",
                        dataclasses.replace(pipeline.REDUCED_SFT_UPDATE, epochs=2))
    fd = checks.max_fd_error
    monkeypatch.setattr(checks, "max_fd_error",
                        lambda nets, loss, n_coords, seed: fd(nets, loss, 1, seed))
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path)
    return tmp_path


def _run(capsys, *argv):
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", list(pipeline.PROFILES))
def test_workload_runs_untraced_and_traced(workload, tiny, capsys):
    declared = _declared()
    result = _run(capsys, "--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())

    traced = _run(capsys, "--workload", workload, "--seed", "1", "--seconds", "0",
                  "--trace", "1")
    assert traced["correct"] and traced["failed"] == 0
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: v["unit"] for k, v in traced["metrics"].items()}
    metrics = traced["metrics"]
    assert metrics["numeric.forward_rows_per_call"]["value"] == 1.0
    assert all(metrics[k]["value"] > 0 for k in metrics if k.endswith("_s"))
    report = json.loads((tiny / f"trace-{workload}-seed1.json").read_text())
    assert report["traced_rounds"] == 1 and "tracing_overhead" in report
    assert not list(tiny.glob(f"{workload}-seed1-*"))


def test_unknown_workload_is_refused(tiny, capsys):
    assert run.main(["--workload", "nope", "--seed", "0", "--seconds", "1"]) == 2


def test_benchmark_json_matches_the_code():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(pipeline.PROFILES)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: unit for k, (unit, _) in tracing.PER_LAYER.items()}


# ---------------------------------------------------------------------------
# Each check rejects a corrupted output
# ---------------------------------------------------------------------------


def _record(workflow=0, tools2=0, prompts=((0,),), correct=True, reward_shift=0.0):
    outcome = core.ExecutionOutcome("x", correct, 1, 300, 0, 1)
    reward, terms = shaped_reward(outcome, REWARD)
    terms = (terms[0] + reward_shift,) + terms[1:]
    structure = core.StructureAction(workflow, 1, tools2, (0, 0, 0))
    return core.EpisodeRecord(
        state=core.StateEmbedding(np.arange(4.0), np.ones(5)),
        structure_action=structure, prompt_actions=prompts, outcome=outcome,
        reward=reward + reward_shift, reward_breakdown=terms, seed=3)


def test_reward_check_rejects_a_wrong_reward():
    rules, lib = checks.Rules(), default_atom_library()
    assert checks.bad_records([_record()], REWARD, rules, lib) == 0
    assert checks.bad_records([_record(), _record(reward_shift=0.5)], REWARD, rules, lib) == 1


def test_validity_check_rejects_masked_actions_and_prompts():
    rules, lib = checks.Rules(), default_atom_library()
    # Direct has no second tool-bearing agent: tools2 is masked.
    assert checks.bad_records([_record(tools2=2)], REWARD, rules, lib) == 1
    # atom 4 is a verifier atom, chosen by the reasoner slot
    assert checks.bad_records([_record(prompts=((4,),))], REWARD, rules, lib) == 1
    reduced = checks.Rules(pipeline.REDUCED_RULES)
    assert not reduced.structure_ok(core.StructureAction(1, 0, 0, (0, 0, 0)))
    assert not reduced.structure_ok(core.StructureAction(0, 5, 0, (0, 0, 0)))
    assert not reduced.structure_ok(core.StructureAction(0, 1, 0, (1, 0, 0)))


def test_rebuilt_rules_agree_with_the_mask_tables():
    for overrides, table in ((None, policy.default_mask_table()),
                             (pipeline.REDUCED_RULES,
                              policy.mask_table_from_config(pipeline.REDUCED_RULES))):
        rules = checks.Rules(overrides)
        for index in range(0, core.STRUCT_SPACE_SIZE, 7):
            a = core.decode_structure_action(index)
            assert rules.structure_ok(a) == table.is_valid(a)


def test_gradient_check_rejects_a_perturbed_gradient():
    struct = policy.StructurePolicy(9, hidden=(8,), rng=np.random.default_rng(0))
    prompt = policy.PromptPolicy(9, compact_atom_library(), hidden=(8,),
                                 rng=np.random.default_rng(1))
    table = policy.default_mask_table()
    records = [_record(prompts=((0,),))]
    records = [dataclasses.replace(records[0], state=core.StateEmbedding(
        np.array([0.1, -0.2, 0.3, 0.0]), np.array([30.0, 6.0, 0.1, 1.0, 0.0])))]

    def loss():
        return train.sft_loss_and_grads(struct, prompt, table, records, 0.01)[0]

    _, grads = train.sft_loss_and_grads(struct, prompt, table, records, 0.01)
    nets = [(struct.trunk, grads["struct_trunk"]), (prompt.net, grads["prompt_net"])]
    assert checks.max_fd_error(nets, loss, n_coords=5, seed=0) < 1e-4
    bad = [g + 1e-3 for g in grads["struct_trunk"]]
    assert checks.max_fd_error([(struct.trunk, bad)], loss, n_coords=5, seed=0) > 1e-4


def test_oracle_and_monte_carlo_checks_reject_wrong_values(tmp_path):
    assert checks.greedy_above_oracle([1.0, 2.0], [1.0, 2.0]) == 0
    assert checks.greedy_above_oracle([1.0, 2.0 + 1e-9], [1.0, 2.0]) == 1
    inp = pipeline.setup("oracle-reduced", 0, tmp_path)
    q = inp.env.queries[0]
    config = next(iter(pipeline.OracleSpace(inp.oracle_table, inp.library)))
    value = inp.env.expected_reward(q, config, REWARD)
    assert checks.monte_carlo_gap(inp.env, q, config, value, REWARD, 1000, 0) is None
    assert checks.monte_carlo_gap(inp.env, q, config, value + 1.0, REWARD, 1000, 0)
    exact = float(np.mean([inp.env.expected_reward(x, config, REWARD)
                           for x in inp.env.queries]))
    assert checks.harness_gap(inp.env, config, REWARD, exact, exact, 200, 0) is None
    assert checks.harness_gap(inp.env, config, REWARD, exact + 1.0, exact, 200, 0)


def test_persistence_and_analysis_checks_reject_corruption():
    a, b = _record(), _record(workflow=1, prompts=((0,), ()), correct=False)
    assert checks.reload_mismatches([a, b], [a, b]) == 0
    assert checks.reload_mismatches([a, b], [a, dataclasses.replace(b, seed=4)]) == 1
    assert checks.reload_mismatches([a, b], [a]) == 1
    assert not checks.same_buffers([a, b], [b, a])

    report = analysis.diversity_report([1, 1, 0, 0, 0, 0, 0, 0, 0])
    assert checks.diversity_error([a, b], report) is None
    wrong = analysis.DiversityReport(2, math.log(2) + 1e-6, report.gini)
    assert checks.diversity_error([a, b], wrong)

    p, q = analysis.ParetoPoint(1.0, 0.5, "p"), analysis.ParetoPoint(2.0, 0.4, "q")
    assert checks.dominated_points([p], [p, q]) == 0
    assert checks.dominated_points([p, q], [p, q]) == 1


def test_real_mode_check_rejects_wrong_counts():
    lib = compact_atom_library()
    query = core.Query("q", "What is 2+2?", "4")
    for config in pipeline.real_configurations(lib):
        wf = config.structure.workflow_id
        backend = pipeline.ScriptedBackend(wf, "4")
        out = execute_real(query, config, BackendEndpoint(), lib, transport=backend,
                           sleep=lambda s: None)
        assert checks.real_mismatch(wf, out, backend.usage) is None
        assert checks.real_mismatch(wf, dataclasses.replace(out, n_tokens=out.n_tokens + 1),
                                    backend.usage)
        assert checks.real_mismatch(wf, dataclasses.replace(out, n_steps=out.n_steps + 1),
                                    backend.usage)


def test_compare_flags_a_regression_beyond_the_bound():
    import compare

    parent = [10.0, 10.2, 9.9, 10.1, 10.0]
    assert compare.verdict(parent, [v * 0.95 for v in parent], "higher", 0.1) == "same"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1) == "worse"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1) == "better"


def test_count_check_rejects_a_wrong_count():
    rnd = pipeline.Round({}, {}, [], 1, 0, [], {}, {}, {"env.execute_calls": 5}, [])
    ok = {"env.execute_calls": {"value": 5.0, "unit": "count"}}
    assert run.check_counts(ok, [rnd]) == []
    bad = {"env.execute_calls": {"value": 6.0, "unit": "count"}}
    assert run.check_counts(bad, [rnd])


def test_tracer_sees_functions_imported_by_name():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        from agentcfg import numeric

        assert train.log_prob is numeric.log_prob is policy.log_prob
        tracer.enabled = True
        struct = policy.StructurePolicy(9, hidden=(8,), rng=np.random.default_rng(0))
        state = core.StateEmbedding(np.zeros(4), np.zeros(5))
        action = policy.sample_structure(struct, policy.default_mask_table(), state,
                                         np.random.default_rng(0))[0]
        policy.log_prob_structure(struct, policy.default_mask_table(), state, action)
        tracer.enabled = False
        summary = tracer.summary()
        assert summary["policy.sample_structure"]["calls"] == 1
        assert summary["numeric.log_prob"]["calls"] == 6 + 6
        assert summary["numeric.DenseNet.forward"]["calls"] == 2
        outer = summary["policy.log_prob_structure"]
        assert 0 <= outer["self_s"] <= outer["total_s"]
    finally:
        tracer.uninstall()
    assert train.log_prob.__module__ == "agentcfg.numeric"
    assert not hasattr(train.log_prob, "__wrapped__")
