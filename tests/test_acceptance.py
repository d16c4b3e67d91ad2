"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single PASS/FAIL line so
the run log doubles as an acceptance report.  Criteria:

 1. action-space arithmetic (62,208 and the constrained count)
 2. masking soundness (sampling, log-prob rejection, normalization)
 3. gradient correctness against central finite differences
 4. reward worked examples and monotonicity
 5. learning-to-oracle convergence on the reduced space
 6. elite-distillation guarantees (support, reward floor, tabular KL)
 7. distillation direction check (utility does not decrease)
 8. baseline sanity (grid vs exhaustive, greedy separable/non-separable)
 9. diversity and frontier metrics
10. error-taxonomy labeled cases
11. determinism, lossless persistence, and the mocked live-backend contract
"""

import itertools
import math
import time

import numpy as np
import pytest

from agentcfg.core import (
    WORKFLOWS,
    Configuration,
    EpisodeRecord,
    ExecutionOutcome,
    ExperienceBuffer,
    PromptAtom,
    Query,
    StateEmbedding,
    StructureAction,
)
from agentcfg.env import (
    QueryDistribution,
    SyntheticEnv,
    SyntheticQuerySpec,
    brute_force_best,
    build_env,
    compact_atom_library,
    single_atom_prompt_options,
)
from agentcfg.errors import InvalidActionError
from agentcfg.baselines import Harness, SearchBudget, default_grid, greedy_search, grid_search
from agentcfg.analysis import (
    ErrorLabel,
    ParetoPoint,
    categorize_error,
    gini,
    pareto_frontier,
    workflow_entropy,
)
from agentcfg.policy import (
    MaskTable,
    PromptPolicy,
    StructurePolicy,
    all_ones_mask_table,
    default_mask_table,
    enumerate_valid,
    enumerate_valid_exhaustive,
    greedy_configuration,
    iter_valid_actions,
    log_prob_structure,
    mask_table_from_config,
    sample_structure,
)
from agentcfg.reward import RewardConfig, shaped_reward
from agentcfg.runtime import (
    BackendEndpoint,
    EnvConfig,
    RunConfig,
    chat_call,
    execute_real,
    load_buffer,
    persist_buffer,
    run_training,
)
from agentcfg.train import (
    PPOConfig,
    SFTConfig,
    collect_episodes,
    collect_rollouts,
    compute_advantages,
    filter_elite,
    kl_to_empirical,
    ppo_loss_and_grads,
    sft_loss_and_grads,
    sft_update,
    train_policies,
    verify_reward_floor,
    verify_support_restriction,
)

REWARD = RewardConfig()
LIB = compact_atom_library()


@pytest.fixture
def report(request):
    """One pass/fail line per criterion, emitted outside output capture so
    the acceptance report is visible in plain `pytest -v` logs."""
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def _report(number, name, passed):
        line = f"[criterion {number:2d}] {name}: {'PASS' if passed else 'FAIL'}"
        if capman is not None:
            with capman.global_and_fixture_disabled():
                print(f"\n{line}", flush=True)
        else:
            print(line)
        assert passed, f"criterion {number} ({name}) failed"

    return _report


# ---------------------------------------------------------------------------
# Reduced space shared by criteria 5 and 7: 3 workflows x 4 agent-1 tool
# subsets x 2 budget tiers per active agent, 4-atom library.
# ---------------------------------------------------------------------------

REDUCED_RULES = {
    "workflows": ["Direct", "ReasonVerifyAns", "AutonomousAgent"],
    "Direct": {"tools1": [0, 1, 2, 3], "budgets": [[0, 2], [0], [0]]},
    "ReasonVerifyAns": {"tools1": [0, 1, 2, 3], "tools2": [0],
                        "budgets": [[0, 2], [0, 2], [0, 2]]},
    "AutonomousAgent": {"tools1": [0, 1, 2, 3], "tools2": [0],
                        "budgets": [[0, 2], [0], [0]]},
}


def reduced_env():
    return build_env(
        QueryDistribution(tool_prob=0.5, depth_probs=(0.5, 0.25, 0.25),
                          difficulty_low=0.0, difficulty_high=0.3),
        4, seed=100, library=LIB, semantic_dim=16,
    )


def oracle_for(env, table, query):
    spec = env.spec_for(query)
    subspace = (
        Configuration(a, p)
        for a in iter_valid_actions(table)
        for p in single_atom_prompt_options(a.workflow.agents_active, LIB)
    )
    return brute_force_best(spec, subspace, env.model, LIB, REWARD)


def pipeline_run(seed, env, table):
    """PPO with default hyperparameters, then elite distillation.

    Returns (utility ratio before refinement, ratio after, CPU seconds).
    CPU time is the single-core budget measure; wall time on a shared box
    varies with unrelated load.
    """
    state_dim = 16 + 5
    struct = StructurePolicy(state_dim, hidden=(32,),
                             rng=np.random.default_rng([seed, 1]))
    prompt = PromptPolicy(state_dim, LIB, hidden=(32,),
                          rng=np.random.default_rng([seed, 2]))
    t0 = time.process_time()
    buffer, _ = train_policies(struct, prompt, table, env,
                               PPOConfig(total_episodes=5000), REWARD, seed)

    oracles = {q.id: oracle_for(env, table, q)[1] for q in env.queries}

    def ratio():
        num = sum(
            env.expected_reward(
                q, greedy_configuration(struct, prompt, table, env.embed(q)), REWARD
            )
            for q in env.queries
        )
        return num / sum(oracles.values())

    pre = ratio()
    # distill only the sharpest elite slice (top 6% of episodes) so many
    # refinement epochs stay cheap
    elite = filter_elite(buffer, SFTConfig(elite_fraction=0.06))
    sft_update(struct, prompt, table, elite,
               SFTConfig(epochs=120, lr_struct=1e-3, lr_prompt=5e-5))
    post = ratio()
    return pre, post, time.process_time() - t0


@pytest.fixture(scope="module")
def pipeline_results():
    env = reduced_env()
    table = mask_table_from_config(REDUCED_RULES)
    return [pipeline_run(seed, env, table) for seed in range(5)]


# ---------------------------------------------------------------------------
# 1. Action-space arithmetic
# ---------------------------------------------------------------------------


class TestCriterion1:
    def test_action_space_counts(self, report):
        t0 = time.process_time()
        unconstrained = enumerate_valid(all_ones_mask_table())
        table = default_mask_table()
        closed_form = enumerate_valid(table)
        exhaustive = enumerate_valid_exhaustive(table)
        # independent brute force: validity-check all 62,208 actions
        brute = sum(
            table.is_valid(StructureAction(wf, t1, t2, b))
            for wf in range(9)
            for t1 in range(16)
            for t2 in range(16)
            for b in itertools.product(range(3), repeat=3)
        )
        elapsed = time.process_time() - t0

        ok = (
            unconstrained == 62_208
            and closed_form == exhaustive == brute == 31_056
            and elapsed < 1.0
        )
        report(1, "action-space arithmetic", ok)


# ---------------------------------------------------------------------------
# 2. Masking soundness
# ---------------------------------------------------------------------------


class TestCriterion2:
    def test_masking_soundness(self, report):
        table = default_mask_table()
        state = StateEmbedding(np.zeros(16), np.zeros(5))
        struct = StructurePolicy(21, hidden=(16,), rng=np.random.default_rng(0))

        # force workflow=Direct by masking all other workflows
        direct_only = MaskTable(
            workflow_mask=np.eye(9)[0],
            tools1=table.tools1,
            tools2=table.tools2,
            budget1=table.budget1,
            budget2=table.budget2,
            budget3=table.budget3,
        )
        rng = np.random.default_rng(1)
        no_agent2_tools = True
        # one state under fixed parameters: the trunk runs once, then its cache serves
        for _ in range(100_000):
            action, _, _ = sample_structure(struct, direct_only, state, rng)
            if action.tools2 != 0:
                no_agent2_tools = False
                break

        # reduced space: exhaustive scan, invalid actions rejected,
        # masked probabilities sum to one
        reduced = mask_table_from_config(REDUCED_RULES)
        valid = set()
        for a in iter_valid_actions(reduced):
            valid.add((a.workflow_id, a.tools1, a.tools2, a.budgets))
        total = 0.0
        rejects_all_invalid = True
        for wf in range(9):
            for t1 in range(16):
                for t2 in range(16):
                    for b in itertools.product(range(3), repeat=3):
                        a = StructureAction(wf, t1, t2, b)
                        if (wf, t1, t2, b) in valid:
                            total += math.exp(
                                log_prob_structure(struct, reduced, state, a)
                            )
                        else:
                            try:
                                log_prob_structure(struct, reduced, state, a)
                                rejects_all_invalid = False
                            except InvalidActionError:
                                pass

        ok = no_agent2_tools and rejects_all_invalid and abs(total - 1.0) <= 1e-9
        report(2, "masking soundness", ok)


# ---------------------------------------------------------------------------
# 3. Gradient correctness
# ---------------------------------------------------------------------------


def max_relative_fd_error(nets_and_grads, loss_fn, n_coords=20, h=1e-5, seed=0):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for net, flat_g in nets_and_grads:
        flat0 = net.get_flat()
        idx = rng.choice(net.n_params, size=min(n_coords, net.n_params),
                         replace=False)
        for i in idx:
            flat = flat0.copy()
            flat[i] += h
            net.set_flat(flat)
            hi = loss_fn()
            flat[i] -= 2 * h
            net.set_flat(flat)
            lo = loss_fn()
            net.set_flat(flat0)
            fd = (hi - lo) / (2 * h)
            g = flat_g[i]
            if abs(fd - g) < 1e-9:  # both effectively zero: FD noise floor
                continue
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g), 1e-7))
    return worst


class TestCriterion3:
    def test_gradient_correctness(self, report):
        t0 = time.process_time()
        table = default_mask_table()
        env = build_env(QueryDistribution(), 6, seed=0, library=LIB, semantic_dim=8)
        struct = StructurePolicy(13, hidden=(32,), rng=np.random.default_rng([3, 1]))
        prompt = PromptPolicy(13, LIB, hidden=(32,), rng=np.random.default_rng([3, 2]))

        cfg = PPOConfig(batch_size=4, total_episodes=4)
        rollouts = collect_rollouts(struct, prompt, table, env, 4, REWARD, run_seed=2)
        compute_advantages(rollouts, struct, prompt, cfg.gamma)
        _, grads, _ = ppo_loss_and_grads(struct, prompt, table, rollouts, cfg)
        nets = [
            (struct.trunk, np.concatenate([g.ravel() for g in grads["struct_trunk"]])),
            (struct.value_net,
             np.concatenate([g.ravel() for g in grads["struct_value"]])),
            (prompt.net, np.concatenate([g.ravel() for g in grads["prompt_net"]])),
            (prompt.value_net,
             np.concatenate([g.ravel() for g in grads["prompt_value"]])),
        ]
        ppo_err = max_relative_fd_error(
            nets, lambda: ppo_loss_and_grads(struct, prompt, table, rollouts, cfg)[0]
        )

        records = [r.record for r in rollouts]
        _, sgrads = sft_loss_and_grads(struct, prompt, table, records,
                                       entropy_reg=0.01)
        snets = [
            (struct.trunk,
             np.concatenate([g.ravel() for g in sgrads["struct_trunk"]])),
            (prompt.net, np.concatenate([g.ravel() for g in sgrads["prompt_net"]])),
        ]
        sft_err = max_relative_fd_error(
            snets,
            lambda: sft_loss_and_grads(struct, prompt, table, records,
                                       entropy_reg=0.01)[0],
            seed=1,
        )
        elapsed = time.process_time() - t0

        ok = ppo_err < 1e-4 and sft_err < 1e-4 and elapsed < 60.0
        print(f"\n    ppo max rel err {ppo_err:.2e}, sft {sft_err:.2e}, "
              f"{elapsed:.1f}s")
        report(3, "gradient correctness", ok)


# ---------------------------------------------------------------------------
# 4. Reward oracle
# ---------------------------------------------------------------------------


class TestCriterion4:
    def test_reward_worked_examples_and_monotonicity(self, report):
        def r(correct, steps, tokens, used, allocated):
            outcome = ExecutionOutcome("a", correct, steps, tokens, used,
                                       allocated)
            value, _ = shaped_reward(outcome, REWARD)
            return value

        examples_ok = (
            abs(r(True, 3, 1200, 2, 2) - 5.3312109375) <= 1e-9
            and abs(r(False, 0, 0, 0, 0) - 0.0) <= 1e-9
            and abs(r(True, 0, 0, 0, 0) - 5.0) <= 1e-9
        )

        rng = np.random.default_rng(4)
        monotone = True
        for _ in range(10_000):
            correct = bool(rng.integers(2))
            steps = int(rng.integers(0, 8))
            tokens = int(rng.integers(0, 5000))
            used = int(rng.integers(0, 5))
            allocated = int(rng.integers(used, 5))
            base = r(correct, steps, tokens, used, allocated)
            if (r(correct, steps + 1, tokens, used, allocated) >= base
                    or r(correct, steps, tokens + 100, used, allocated) >= base):
                monotone = False
                break

        report(4, "reward oracle", examples_ok and monotone)


# ---------------------------------------------------------------------------
# 5 + 7. Learning-to-oracle convergence and distillation direction
# ---------------------------------------------------------------------------


class TestCriterion5:
    def test_convergence_to_oracle(self, pipeline_results, report):
        for seed, (pre, post, secs) in enumerate(pipeline_results):
            print(f"\n    seed {seed}: pre {pre:.4f} post {post:.4f} {secs:.0f}s")
        ok = all(post >= 0.90 and secs < 300.0
                 for _, post, secs in pipeline_results)
        report(5, "learning-to-oracle convergence (>=90% on 5 seeds)", ok)


class TestCriterion7:
    def test_distillation_does_not_hurt(self, pipeline_results, report):
        pre_mean = float(np.mean([pre for pre, _, _ in pipeline_results]))
        post_mean = float(np.mean([post for _, post, _ in pipeline_results]))
        print(f"\n    mean utility ratio pre {pre_mean:.4f} post {post_mean:.4f}")
        report(7, "distillation direction", post_mean >= pre_mean - 1e-6)


# ---------------------------------------------------------------------------
# 6. Elite-distillation guarantees
# ---------------------------------------------------------------------------


def make_record(reward, workflow, prompts, semantic, seed):
    a = StructureAction(workflow, 0, 0, (0,) * 3 if workflow == 0 else (0, 0, 0))
    return EpisodeRecord(
        state=StateEmbedding(semantic=np.asarray(semantic, float),
                             features=np.zeros(5)),
        structure_action=a,
        prompt_actions=prompts,
        outcome=ExecutionOutcome("x", True, 1, 100, 0, 0),
        reward=reward,
        reward_breakdown=(reward, 0.0, 0.0, 0.0),
        seed=seed,
    )


class TestCriterion6:
    def test_distillation_guarantees(self, report):
        table = default_mask_table()
        # tabular regime: two mutually distinguishable states, one target
        # configuration each; rewards place tau_eff at the 70th percentile
        s_a = np.array([1.0, 0.0, 0.0, 0.0])
        s_b = np.array([0.0, 1.0, 0.0, 0.0])
        buf = ExperienceBuffer()
        rewards = [5.0, 5.2, 5.4, 5.6, 5.8, 6.0, 4.0, 4.1, 4.2, 4.3]
        for i, r in enumerate(rewards):
            semantic = s_a if i % 2 == 0 else s_b
            workflow = 0 if i % 2 == 0 else 1
            prompts = ((0,),) if i % 2 == 0 else ((1,), ())
            buf.append(make_record(r, workflow, prompts, semantic, seed=i))

        cfg = SFTConfig(elite_fraction=0.30, tau=0.0)
        elite = filter_elite(buf, cfg)
        tau_70 = float(np.quantile(rewards, 0.70, method="higher"))
        threshold_ok = elite.tau_eff == pytest.approx(tau_70)

        struct = StructurePolicy(9, hidden=(32,), rng=np.random.default_rng([6, 1]))
        prompt = PromptPolicy(9, LIB, hidden=(32,), rng=np.random.default_rng([6, 2]))
        heavy = SFTConfig(lr_struct=0.08, lr_prompt=0.08, entropy_reg=0.0,
                          epochs=800, tau=0.0, elite_fraction=0.30)
        sft_update(struct, prompt, table, elite, heavy)

        rng = np.random.default_rng(60)
        support_ok, violations = verify_support_restriction(
            struct, prompt, table, elite, n_samples=10_000, rng=rng
        )
        estimate, floor_ok, _ = verify_reward_floor(
            struct, prompt, table, elite, n_samples=10_000, rng=rng
        )
        kl = kl_to_empirical(struct, prompt, table, elite)
        print(f"\n    tau_eff {elite.tau_eff}, floor est {estimate:.4f}, "
              f"kl {kl:.2e}, violations {len(violations)}")
        ok = (threshold_ok and support_ok and floor_ok
              and estimate >= elite.tau_eff and kl <= 1e-2)
        report(6, "elite-distillation guarantees", ok)


# ---------------------------------------------------------------------------
# 8. Baseline sanity
# ---------------------------------------------------------------------------


SMALL_RULES = {
    "workflows": ["Direct", "AutonomousAgent"],
    "Direct": {"tools1": [0, 1], "budgets": [[0], [0], [0]]},
    "AutonomousAgent": {"tools1": [0, 1], "tools2": [0], "budgets": [[0], [0], [0]]},
}


def one_query_env(spec, library):
    query = Query(id="q", text="a test question", gold_answer="42")
    return SyntheticEnv(queries=[query], specs={"q": spec},
                        library=tuple(library), semantic_dim=8)


class TestCriterion8:
    def test_baseline_sanity(self, report):
        # grid search equals exhaustive best over the full reduced space
        table = mask_table_from_config(REDUCED_RULES)
        spec = SyntheticQuerySpec(0.2, 0b01, 2)
        env = one_query_env(spec, LIB)
        full = [
            Configuration(a, p)
            for a in iter_valid_actions(table)
            for p in single_atom_prompt_options(a.workflow.agents_active, LIB)
        ]
        harness = Harness(env=env, reward_cfg=REWARD)
        _, grid_value, _ = grid_search(harness, full,
                                       SearchBudget(max_evaluations=len(full)))
        _, oracle_value = brute_force_best(spec, full, env.model, LIB, REWARD)
        grid_ok = grid_value == pytest.approx(oracle_value, abs=1e-12)

        # canonical 50-configuration grid respects its evaluation budget
        canonical = default_grid(default_mask_table(), LIB)
        h50 = Harness(env=env, reward_cfg=REWARD)
        grid_search(h50, canonical, SearchBudget(max_evaluations=50))
        budget_ok = h50.n_evaluations <= 50

        # greedy finds the optimum on a separable instance
        small = mask_table_from_config(SMALL_RULES)
        sep_spec = SyntheticQuerySpec(0.0, 0, 1)
        sep_env = one_query_env(sep_spec, LIB)
        sep_h = Harness(env=sep_env, reward_cfg=REWARD)
        _, greedy_value, _ = greedy_search(sep_h, small, LIB,
                                           SearchBudget(max_evaluations=500))
        sep_space = [
            Configuration(a, p)
            for a in iter_valid_actions(small)
            for p in single_atom_prompt_options(a.workflow.agents_active, LIB)
        ]
        _, sep_oracle = brute_force_best(sep_spec, sep_space, sep_env.model,
                                         LIB, REWARD)
        separable_ok = greedy_value == pytest.approx(sep_oracle, abs=1e-12)

        # and is strictly worse on the crafted non-separable instance
        trap_lib = (PromptAtom(0, "reasoner", "Think about the question."),)
        trap_spec = SyntheticQuerySpec(0.0, 0b01, 1)
        trap_env = one_query_env(trap_spec, trap_lib)
        trap_h = Harness(env=trap_env, reward_cfg=REWARD)
        _, trap_value, _ = greedy_search(trap_h, small, trap_lib,
                                         SearchBudget(max_evaluations=500))
        trap_space = [
            Configuration(a, p)
            for a in iter_valid_actions(small)
            for p in single_atom_prompt_options(a.workflow.agents_active, LIB)
            if all(atom == 0 for seq in p for atom in seq)
        ]
        _, trap_oracle = brute_force_best(trap_spec, trap_space, trap_env.model,
                                          trap_lib, REWARD)
        trap_ok = trap_oracle > trap_value + 1e-6

        ok = grid_ok and budget_ok and separable_ok and trap_ok
        report(8, "baseline sanity", ok)


# ---------------------------------------------------------------------------
# 9. Metrics
# ---------------------------------------------------------------------------


class TestCriterion9:
    def test_metrics(self, report):
        entropy_ok = abs(workflow_entropy(np.ones(9)) - math.log(9)) <= 1e-9
        gini_ok = (
            gini(np.ones(9)) == pytest.approx(0.0, abs=1e-12)
            and abs(gini([1, 0, 0, 0, 0, 0, 0, 0, 0]) - 8 / 9) <= 1e-9
        )

        pts = [ParetoPoint(1.0, 0.5, "a"), ParetoPoint(2.0, 0.6, "b"),
               ParetoPoint(3.0, 0.55, "c")]
        three_ok = [p.label for p in pareto_frontier(pts)] == ["a", "b"]

        rng = np.random.default_rng(9)
        consistent = True
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            cloud = [
                ParetoPoint(float(rng.uniform(0, 10)), float(rng.uniform()), f"p{i}")
                for i in range(n)
            ]
            frontier = pareto_frontier(cloud)
            costs = [p.cost for p in frontier]
            if not frontier or costs != sorted(costs):
                consistent = False
                break
            for p in frontier:
                for q in cloud:
                    if (q.cost <= p.cost and q.accuracy >= p.accuracy
                            and (q.cost < p.cost or q.accuracy > p.accuracy)):
                        consistent = False
            if not consistent:
                break

        report(9, "diversity and frontier metrics",
               entropy_ok and gini_ok and three_ok and consistent)


# ---------------------------------------------------------------------------
# 10. Error taxonomy
# ---------------------------------------------------------------------------


def failed_record(answer, workflow=1, tools1=0, budgets=(1, 1, 0)):
    a = StructureAction(workflow, tools1, 0, budgets)
    prompts = tuple(() for _ in range(a.workflow.agents_active))
    return EpisodeRecord(
        state=StateEmbedding(np.zeros(4), np.zeros(5)),
        structure_action=a,
        prompt_actions=prompts,
        outcome=ExecutionOutcome(answer, False, 2, 400, 0, 1),
        reward=0.0,
        reward_breakdown=(0.0, 0.0, 0.0, 0.0),
        seed=0,
    )


class TestCriterion10:
    def test_labeled_failure_cases(self, report):
        cases = [
            (
                failed_record("John has 5 + 2 = 7 apples."),
                "John has 5 apples. He gives 2 to Mary. How many does John have left?",
                "3",
                ErrorLabel("Reasoning", "wrong_operation"),
            ),
            (
                failed_record("I could not find the director of that film.",
                              tools1=0b0010),
                "Who directed the 2014 film?",
                "John Doe",
                ErrorLabel("KnowledgeGap", "retrieval_failure"),
            ),
            (
                failed_record("The total is ½ x 5 x 12 = 25 dollars.",
                              tools1=0b0001),
                "Calculate the total cost of 5 boxes at 12 dollars each, half off.",
                "30",
                ErrorLabel("Execution", "arithmetic_error"),
            ),
            (
                failed_record("x = 8", workflow=0, budgets=(0, 0, 0)),
                "Find x such that log_2(x) + log_2(x - 7) = 3.",
                "8",
                ErrorLabel("PolicyConfiguration", "workflow_mismatch"),
            ),
        ]
        ok = all(
            categorize_error(record, query, gold) == expected
            for record, query, gold, expected in cases
        )
        report(10, "error-taxonomy labeled cases", ok)


# ---------------------------------------------------------------------------
# 11. Determinism, persistence, mocked live backend
# ---------------------------------------------------------------------------


class ScriptedTransport:
    def __init__(self, contents):
        self.contents = list(contents)
        self.payloads = []

    def __call__(self, payload, endpoint):
        self.payloads.append(payload)
        content = self.contents[min(len(self.payloads) - 1,
                                    len(self.contents) - 1)]
        return {
            "choices": [{"message": {"content": content}}],
            "usage": {"total_tokens": 10},
        }


class TestCriterion11:
    def test_determinism_persistence_and_live_contract(self, tmp_path, report):
        # same seed -> bit-identical buffers and parameters
        cfg = RunConfig(seed=5, env=EnvConfig(n_queries=4, semantic_dim=8),
                        ppo=PPOConfig(batch_size=8, total_episodes=16),
                        sft=SFTConfig(epochs=2))
        runs = [run_training(cfg) for _ in range(2)]
        buffers_equal = (
            [r.to_json_dict() for r in runs[0].buffer]
            == [r.to_json_dict() for r in runs[1].buffer]
        )
        params_equal = all(
            np.array_equal(a, b)
            for a, b in zip(
                (runs[0].struct_policy.trunk.get_flat(),
                 runs[0].prompt_policy.net.get_flat()),
                (runs[1].struct_policy.trunk.get_flat(),
                 runs[1].prompt_policy.net.get_flat()),
            )
        )

        # 1,000-episode lossless persistence roundtrip
        table = default_mask_table()
        env = build_env(QueryDistribution(), 8, seed=3, library=LIB,
                        semantic_dim=8)
        struct = StructurePolicy(13, hidden=(16,),
                                 rng=np.random.default_rng([11, 1]))
        prompt = PromptPolicy(13, LIB, hidden=(16,),
                              rng=np.random.default_rng([11, 2]))
        buffer = collect_episodes(struct, prompt, table, env, 1000, REWARD,
                                  run_seed=11)
        path = tmp_path / "episodes.jsonl"
        persist_buffer(buffer, path)
        loaded = load_buffer(path)
        roundtrip_ok = (
            len(loaded) == 1000
            and [r.to_json_dict() for r in loaded]
            == [r.to_json_dict() for r in buffer]
        )
        persist_buffer(loaded, tmp_path / "again.jsonl")
        roundtrip_ok = roundtrip_ok and (
            (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()
        )

        # mocked live-backend contract: Direct issues exactly 1 call
        query = Query(id="q", text="What is 2+2?", gold_answer="4")
        direct = ScriptedTransport(["4"])
        out = execute_real(
            query, Configuration(StructureAction(0, 0, 0, (0, 0, 0)), ((),)),
            BackendEndpoint(), LIB, transport=direct, sleep=lambda s: None,
        )
        direct_ok = out.n_steps == 1 and len(direct.payloads) == 1

        # voting issues exactly 4 calls (3 voters + aggregator)
        vote_query = Query(id="v", text="pick", gold_answer="a")
        voting = ScriptedTransport(["A", "A", "B", "done"])
        out = execute_real(
            vote_query,
            Configuration(StructureAction(5, 0, 0, (0, 0, 0)), ((), ())),
            BackendEndpoint(), LIB, transport=voting, sleep=lambda s: None,
        )
        voting_ok = (out.n_steps == 4 and len(voting.payloads) == 4
                     and out.correct)

        # retry cap honored: max_retries=3 means at most 4 transport attempts
        attempts = []

        def failing(payload, endpoint):
            attempts.append(1)
            raise ConnectionError("no network")

        try:
            chat_call(BackendEndpoint(max_retries=3), [], 100, failing,
                      sleep=lambda s: None)
            retry_ok = False
        except Exception:
            retry_ok = len(attempts) == 4

        ok = (buffers_equal and params_equal and roundtrip_ok
              and direct_ok and voting_ok and retry_ok)
        report(11, "determinism, persistence, live-backend contract", ok)
