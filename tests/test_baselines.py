"""Search and flat-policy baselines over the shared evaluation harness."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from agentcfg.core import (
    EVALUATOR_OPTIMIZER_ID,
    ROLES,
    Configuration,
    PromptAtom,
    Query,
    StructureAction,
)
from agentcfg import baselines
from agentcfg.baselines import (
    BanditPolicy,
    FlatEpisodePolicy,
    Harness,
    SearchBudget,
    bandit_policy_train,
    default_grid,
    flat_episode_policy_train,
    greedy_search,
    grid_search,
    random_policy_utility,
)
from agentcfg.env import (
    QueryDistribution,
    SyntheticEnv,
    SyntheticQuerySpec,
    brute_force_best,
    build_env,
    compact_atom_library,
    rank_key,
)
from agentcfg.errors import ContractError
from agentcfg.numeric import AdamState, score_choices, score_vjp
from agentcfg.policy import (
    HEAD_NAMES,
    PromptPolicy,
    StructurePolicy,
    all_ones_mask_table,
    default_mask_table,
    iter_valid_actions,
    mask_table_from_config,
)
from agentcfg.reward import RewardConfig, shaped_reward
from agentcfg.train import (
    PPOConfig,
    _normalize,
    _ppo_terms,
    _value_regression,
    collect_rollouts,
)

REWARD = RewardConfig()


def single_query_env(spec: SyntheticQuerySpec, library) -> SyntheticEnv:
    query = Query(id="q", text="a test question", gold_answer="42")
    return SyntheticEnv(queries=[query], specs={"q": spec}, library=tuple(library),
                        semantic_dim=8)


def prompt_options(library, n_agents):
    """Per-agent {empty} plus every single role-matching atom, crossed."""
    per_agent = []
    for agent in range(n_agents):
        opts = [()]
        opts += [(a.id,) for a in library if a.role == ROLES[agent]]
        per_agent.append(opts)
    return [tuple(combo) for combo in itertools.product(*per_agent)]


def full_subspace(table, library):
    for action in iter_valid_actions(table):
        for prompts in prompt_options(library, action.workflow.agents_active):
            yield Configuration(action, prompts)


class _KeepsNothing(dict):
    """A draw memo that stores nothing: every execution draws afresh."""

    def __setitem__(self, key, value):
        pass


class TestHarness:
    def test_counts_evaluations(self):
        env = single_query_env(SyntheticQuerySpec(0.0, 0, 1), compact_atom_library())
        harness = Harness(env=env, reward_cfg=REWARD)
        c = Configuration(StructureAction(0, 0, 0, (0, 0, 0)), ((),))
        v1 = harness.evaluate(c)
        v2 = harness.evaluate(c)
        assert harness.n_evaluations == 2
        assert v1 == v2
        assert v1 == pytest.approx(env.expected_reward(env.queries[0], c, REWARD))

    def test_sampled_mode_deterministic(self):
        env = single_query_env(SyntheticQuerySpec(0.4, 0, 2), compact_atom_library())
        c = Configuration(StructureAction(1, 0, 0, (1, 1, 0)), ((), ()))
        values = []
        for _ in range(2):
            h = Harness(env=env, reward_cfg=REWARD, seed=7, expected_mode=False)
            values.append(h.evaluate(c, episodes_per_evaluation=50))
        assert values[0] == values[1]
        exact = env.expected_reward(env.queries[0], c, REWARD)
        assert abs(values[0] - exact) < 1.5  # sampled estimate is in the ballpark

    def test_sampled_mode_matches_hand_computed_episodes(self):
        # episode i of query qi runs with SeedSequence([seed, qi]).generate_state(E)[i],
        # whatever block length the harness hashed before
        env = build_env(QueryDistribution(noise_scale=2.0), 3, seed=1,
                        library=compact_atom_library(), semantic_dim=8)
        c = Configuration(StructureAction(7, 1, 0, (1, 0, 0)), ((1,), ()))
        h = Harness(env=env, reward_cfg=REWARD, seed=7, expected_mode=False)
        for episodes in (3, 6, 4):
            draws = [
                shaped_reward(env.execute(q, c, int(s)), REWARD)[0]
                for qi, q in enumerate(env.queries)
                for s in np.random.SeedSequence([7, qi]).generate_state(episodes)
            ]
            assert h.evaluate(c, episodes) == sum(draws) / len(draws)

    def test_sampled_mode_uses_common_random_numbers(self):
        env = build_env(QueryDistribution(), 4, seed=0, semantic_dim=8)
        c1 = Configuration(StructureAction(2, 1, 0, (1, 1, 1)), ((), (), ()))
        c2 = Configuration(StructureAction(0, 0, 0, (0, 0, 0)), ((),))
        h = Harness(env=env, reward_cfg=REWARD, seed=3, expected_mode=False)
        first, _, again = (h.evaluate(c, 10) for c in (c1, c2, c1))
        assert first == again

    @staticmethod
    def _plain_and_jittered(n_queries):
        """One env and a copy whose queries draw token jitter: a harness
        moved from one to the other reuses its seeds under another jitter."""
        env = build_env(QueryDistribution(), n_queries, seed=3,
                        library=compact_atom_library(), semantic_dim=8)
        specs = {k: dataclasses.replace(s, noise_scale=3.0) for k, s in env.specs.items()}
        return env, dataclasses.replace(env, specs=specs)

    def test_sampled_searches_same_with_and_without_the_draw_memo(self):
        # the default grid mixes EvaluatorOptimizer and other workflows, so
        # every seed's draws are taken with and without extra iterations
        library = compact_atom_library()
        table = default_mask_table()
        grid = default_grid(table, library)
        budget = SearchBudget(max_evaluations=40, episodes_per_evaluation=6)
        traces = []
        for memo in (True, False):
            h = Harness(env=None, reward_cfg=REWARD, seed=5, expected_mode=False)
            if not memo:
                h._draws = _KeepsNothing()
            runs = []
            for env in self._plain_and_jittered(3):
                h.env = env
                runs.append(grid_search(h, grid, budget))
                runs.append(greedy_search(h, table, library, budget))
            traces.append(runs)
        assert traces[0] == traces[1]

    def test_reused_harness_scores_like_a_fresh_one(self):
        library = compact_atom_library()
        grid = default_grid(default_mask_table(), library)
        assert {c.structure.workflow_id == EVALUATOR_OPTIMIZER_ID for c in grid} == {True, False}
        h = Harness(env=None, reward_cfg=REWARD, seed=2, expected_mode=False)
        for env in self._plain_and_jittered(2):
            h.env = env
            for episodes in (2, 7):
                for c in grid:
                    fresh = Harness(env=env, reward_cfg=REWARD, seed=2, expected_mode=False)
                    assert h.evaluate(c, episodes) == fresh.evaluate(c, episodes)

    def test_draw_memo_holds_two_entries_per_seed(self):
        library = compact_atom_library()
        table = default_mask_table()
        env, jittered = self._plain_and_jittered(3)
        h = Harness(env=env, reward_cfg=REWARD, seed=1, expected_mode=False)
        for episodes in (4, 9, 5):
            budget = SearchBudget(max_evaluations=30, episodes_per_evaluation=episodes)
            grid_search(h, default_grid(table, library), budget)
            greedy_search(h, table, library, budget)
            # Q x largest E seeds, each with and without extra iterations
            assert len(h._draws) <= 3 * 9 * 2
        assert len(h._draws) == 3 * 9 * 2
        # the same seeds under another jitter are drawn apart
        h.env = jittered
        greedy_search(h, table, library, budget)
        assert len(h._draws) == 3 * 9 * 2 + 3 * 5 * 2

    def test_expected_mode_is_the_mean_expected_reward(self):
        env = build_env(QueryDistribution(), 5, seed=4, semantic_dim=8)
        h = Harness(env=env, reward_cfg=REWARD)
        grid = default_grid(default_mask_table(), env.library)
        for c in grid:
            assert h.evaluate(c) == float(np.mean(
                [env.expected_reward(q, c, REWARD) for q in env.queries]))
        assert h.n_evaluations == len(grid)

    def test_budget_validation(self):
        with pytest.raises(ContractError):
            SearchBudget(max_evaluations=0)
        with pytest.raises(ContractError):
            SearchBudget(episodes_per_evaluation=0)


class TestGridSearch:
    def test_singleton_grid(self):
        env = single_query_env(SyntheticQuerySpec(0.0, 0, 1), compact_atom_library())
        harness = Harness(env=env, reward_cfg=REWARD)
        only = Configuration(StructureAction(0, 0, 0, (0, 0, 0)), ((),))
        best, value, trace = grid_search(harness, [only], SearchBudget())
        assert best == only
        assert len(trace) == 1
        assert value == pytest.approx(env.expected_reward(env.queries[0], only, REWARD))

    def test_matches_brute_force_on_own_grid(self):
        library = compact_atom_library()
        spec = SyntheticQuerySpec(0.2, 0b01, 2)
        env = single_query_env(spec, library)
        table = default_mask_table()
        grid = default_grid(table, library)
        harness = Harness(env=env, reward_cfg=REWARD)
        best, value, _ = grid_search(harness, grid, SearchBudget(max_evaluations=len(grid)))
        oracle, oracle_value = brute_force_best(spec, grid, env.model, library, REWARD)
        assert value == pytest.approx(oracle_value, abs=1e-12)
        assert best == oracle

    def test_respects_budget(self):
        library = compact_atom_library()
        env = single_query_env(SyntheticQuerySpec(0.1, 0, 1), library)
        grid = default_grid(default_mask_table(), library)
        assert len(grid) > 50
        harness = Harness(env=env, reward_cfg=REWARD)
        _, _, trace = grid_search(harness, grid, SearchBudget(max_evaluations=50))
        assert harness.n_evaluations == 50
        assert len(trace) == 50

    def test_empty_grid_rejected(self):
        env = single_query_env(SyntheticQuerySpec(0.0, 0, 1), compact_atom_library())
        with pytest.raises(ContractError):
            grid_search(Harness(env=env, reward_cfg=REWARD), [], SearchBudget())


SMALL_RULES = {
    "workflows": ["Direct", "AutonomousAgent"],
    "Direct": {"tools1": [0, 1], "budgets": [[0], [0], [0]]},
    "AutonomousAgent": {"tools1": [0, 1], "tools2": [0], "budgets": [[0], [0], [0]]},
}


class TestGreedySearch:
    def test_separable_instance_finds_optimum(self):
        library = compact_atom_library()
        spec = SyntheticQuerySpec(0.0, 0, 1)  # easy general query
        env = single_query_env(spec, library)
        table = mask_table_from_config(SMALL_RULES)
        harness = Harness(env=env, reward_cfg=REWARD)
        best, value, trace = greedy_search(harness, table, library,
                                           SearchBudget(max_evaluations=500))
        oracle, oracle_value = brute_force_best(
            spec, full_subspace(table, library), env.model, library, REWARD
        )
        assert value == pytest.approx(oracle_value, abs=1e-12)
        assert best.structure == oracle.structure
        assert trace[0][0] == "start"

    def test_non_separable_trap(self):
        # Calculator required, but the only library atom never triggers tool
        # use: coordinate ascent commits to Direct before tools are in play
        # and cannot reach the AutonomousAgent + calculator optimum.
        library = (PromptAtom(0, "reasoner", "Think about the question."),)
        spec = SyntheticQuerySpec(0.0, 0b01, 1)
        env = single_query_env(spec, library)
        table = mask_table_from_config(SMALL_RULES)
        harness = Harness(env=env, reward_cfg=REWARD)
        best, value, _ = greedy_search(harness, table, library,
                                       SearchBudget(max_evaluations=500))
        oracle, oracle_value = brute_force_best(
            spec, full_subspace(table, library), env.model, library, REWARD
        )
        assert best.structure.workflow_id == 0       # stuck on Direct
        assert oracle.structure.workflow_id == 8     # AutonomousAgent
        assert oracle.structure.tools1 == 0b01
        assert oracle_value > value + 0.1

    def test_trace_and_budget_bookkeeping(self):
        library = compact_atom_library()
        env = single_query_env(SyntheticQuerySpec(0.3, 0, 2), library)
        table = default_mask_table()
        harness = Harness(env=env, reward_cfg=REWARD)
        budget = SearchBudget(max_evaluations=50)
        best, value, trace = greedy_search(harness, table, library, budget)
        assert harness.n_evaluations <= 50
        assert harness.n_evaluations == len(trace)
        assert trace[0][0] == "start"
        assert all(dim in ("start",) + tuple(
            ("workflow", "tools1", "tools2", "budget1", "budget2", "budget3", "atoms")
        ) for dim, _, _ in trace)
        # the reported value is the best seen along the trace
        assert value == pytest.approx(max(v for _, _, v in trace))

    def test_budget_counts_from_the_call(self):
        # a harness that already scored other candidates still gets the
        # whole budget, and the same trace as a fresh one
        library = compact_atom_library()
        env = single_query_env(SyntheticQuerySpec(0.3, 0b01, 2), library)
        table = default_mask_table()
        budget = SearchBudget(max_evaluations=12)
        used = Harness(env=env, reward_cfg=REWARD)
        grid_search(used, default_grid(table, library), SearchBudget(max_evaluations=10))
        fresh = Harness(env=env, reward_cfg=REWARD)
        _, _, trace = greedy_search(used, table, library, budget)
        assert used.n_evaluations == 10 + 12
        assert trace == greedy_search(fresh, table, library, budget)[2]
        assert fresh.n_evaluations == 12

    @pytest.mark.parametrize("table", [all_ones_mask_table(), default_mask_table()])
    def test_head_candidates_change_exactly_their_head(self, table):
        library = compact_atom_library()
        env = build_env(QueryDistribution(), 4, seed=2, library=library, semantic_dim=8)
        _, _, trace = greedy_search(Harness(env=env, reward_cfg=REWARD), table, library,
                                    SearchBudget(max_evaluations=500))
        _, current, current_value = trace[0]
        bases, counts = {}, {}
        for dim, candidate, value in trace[1:]:
            # every candidate of a dimension derives from the configuration
            # current when the dimension began
            base = bases.setdefault(dim, current)
            if dim in HEAD_NAMES[1:]:
                changed = [i for i, (x, y) in enumerate(zip(candidate.structure.heads,
                                                            base.structure.heads)) if x != y]
                assert changed == [HEAD_NAMES.index(dim)]
                assert candidate.prompts == base.prompts
                counts[dim] = counts.get(dim, 0) + 1
            if rank_key(value, candidate) < rank_key(current_value, current):
                current, current_value = candidate, value
        assert {"tools1", "budget1"} <= set(counts)
        for dim, n in counts.items():
            support = table.supports(bases[dim].structure.workflow_id)[HEAD_NAMES.index(dim)]
            assert n == len(support) - 1

    def test_bad_dimension_order_rejected(self):
        library = compact_atom_library()
        env = single_query_env(SyntheticQuerySpec(0.0, 0, 1), library)
        with pytest.raises(ContractError):
            greedy_search(Harness(env=env, reward_cfg=REWARD), default_mask_table(),
                          library, SearchBudget(), dimension_order=("workflow",))


class TestBanditPolicy:
    def test_assigns_mass_to_hierarchically_invalid_combos(self):
        policy = BanditPolicy(13, 4, hidden=(16,), rng=np.random.default_rng(0))
        s_vec = np.zeros(13)
        # Direct with a non-empty agent-2 toolset is masked out by the
        # hierarchical policy but reachable for the flat bandit.
        invalid = Configuration(
            StructureAction(0, 0, 7, (0, 2, 2)), ((),)
        )
        assert policy.probability_of(s_vec, invalid, atom=None) > 0.0

    def test_training_runs_and_is_deterministic(self):
        env = build_env(QueryDistribution(), 4, seed=0,
                        library=compact_atom_library(), semantic_dim=8)
        cfg = PPOConfig(batch_size=8, total_episodes=16)
        finals = []
        for _ in range(2):
            policy, diagnostics = bandit_policy_train(env, cfg, REWARD, run_seed=1,
                                                      hidden=(16,))
            assert len(diagnostics) == 2
            assert math.isfinite(diagnostics[-1]["loss"])
            finals.append(policy.net.get_flat())
        assert np.array_equal(finals[0], finals[1])

    def test_update_matches_seven_row_reference(self, monkeypatch):
        env = build_env(QueryDistribution(), 4, seed=3,
                        library=compact_atom_library(), semantic_dim=8)
        policy = BanditPolicy(13, len(env.library), hidden=(16,),
                              rng=np.random.default_rng(4))
        episodes = baselines._flat_collect(policy, env, 12, REWARD, 5, 0, 0.0)
        assert all(len(ep.decisions) == 1 for ep in episodes)
        # move the policy off the sampling parameters so ratios differ from 1
        for p in policy.net.params:
            p += np.random.default_rng(6).normal(0.0, 0.1, size=p.shape)
        cfg = PPOConfig(clip_eps=0.05, epochs_per_batch=1, max_grad_norm=1e9)
        ref_loss, ref_grads = _seven_row_reference(policy, episodes, cfg)
        steps = []
        monkeypatch.setattr(baselines, "adam_step",
                            lambda params, grads, state, lr: steps.append(grads))
        diag = baselines._flat_ppo_update(policy, episodes, cfg,
                                          AdamState.for_params(policy.net.params),
                                          AdamState.for_params(policy.value_net.params))
        assert abs(diag["loss"] - ref_loss) <= 1e-10 * abs(ref_loss)
        assert len(steps) == 2  # one step of the policy net, one of the value net
        for got, want in zip(steps, ref_grads):
            a = np.concatenate([g.ravel() for g in got])
            b = np.concatenate([g.ravel() for g in want])
            assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_flat_collect_draws_the_rollout_episode_stream(monkeypatch):
    env = build_env(QueryDistribution(), 6, seed=3, library=compact_atom_library(),
                    semantic_dim=8)
    executed = []
    execute = env.execute
    monkeypatch.setattr(env, "execute", lambda query, config, seed: (
        executed.append((query.id, seed)) or execute(query, config, seed)))
    struct = StructurePolicy(13, hidden=(8,), rng=np.random.default_rng(1))
    prompt = PromptPolicy(13, env.library, hidden=(8,), rng=np.random.default_rng(2))
    rollouts = collect_rollouts(struct, prompt, default_mask_table(), env, 10, REWARD,
                                run_seed=7, start_episode=3)
    states = [r.record.state.as_vector() for r in rollouts]
    want, executed[:] = list(executed), []
    for policy in (BanditPolicy(13, len(env.library), hidden=(8,)),
                   FlatEpisodePolicy(13, env.library, hidden=(8,))):
        episodes = baselines._flat_collect(policy, env, 10, REWARD, 7, 3, 0.0)
        assert executed == want  # same queries, same execution seeds
        for ep, s_vec in zip(episodes, states, strict=True):
            assert np.array_equal(ep.decisions[0].input_vec[:13], s_vec)
        executed.clear()


def _seven_row_reference(policy, episodes, cfg):
    """The bandit objective laid out as seven decision rows per episode, one
    per head, each over the whole output with a mask that keeps only that
    head's slice. Returns (loss, (net grads, value-net grads))."""
    offsets = np.cumsum((0,) + policy.head_sizes)
    rows = []
    for ep in episodes:
        (d,) = ep.decisions
        for head, (choice, lp) in enumerate(zip(d.action, d.log_prob)):
            mask = np.zeros(offsets[-1])
            mask[offsets[head]:offsets[head + 1]] = 1.0
            rows.append((d.input_vec, mask, offsets[head] + choice, lp, d.target))
    inputs, masks, actions, old_lp, targets = (np.array(col) for col in zip(*rows))
    advs = _normalize(targets - policy.value_net.forward_batch(inputs)[0][:, 0])
    new_lp, ent, cache = score_choices(policy.net, inputs, masks, actions)
    loss, dlogp, dent, _ = _ppo_terms(new_lp, ent, old_lp, advs, cfg)
    scale = cfg.value_coef / len(rows)
    sq, g_value = _value_regression(policy.value_net, inputs, targets, scale)
    return loss + scale * sq, (score_vjp(cache, dlogp, dent), g_value)


class TestFlatEpisodePolicy:
    def test_decision_structure(self):
        library = compact_atom_library()
        policy = FlatEpisodePolicy(13, library, hidden=(16,),
                                   rng=np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for _ in range(200):
            ep = policy.act(np.zeros(13), rng)
            n_agents = ep.config.structure.workflow.agents_active
            n_atom_steps = sum(len(seq) + 1 for seq in ep.config.prompts)
            assert len(ep.decisions) == 6 + n_atom_steps
            assert len(ep.config.prompts) == n_agents
            for seq in ep.config.prompts:
                assert len(seq) <= 4 and len(set(seq)) == len(seq)

    def test_unmasked_policy_leaves_hierarchical_support(self):
        library = compact_atom_library()
        policy = FlatEpisodePolicy(13, library, hidden=(16,),
                                   rng=np.random.default_rng(3))
        table = default_mask_table()
        rng = np.random.default_rng(4)
        seen_invalid = any(
            not table.is_valid(policy.act(np.zeros(13), rng).config.structure)
            for _ in range(500)
        )
        assert seen_invalid

    def test_injected_masks_match_hierarchical_support(self):
        library = compact_atom_library()
        policy = FlatEpisodePolicy(13, library, hidden=(16,),
                                   rng=np.random.default_rng(5))
        table = default_mask_table()
        rng = np.random.default_rng(6)
        for _ in range(500):
            ep = policy.act(np.zeros(13), rng, table=table)
            assert table.is_valid(ep.config.structure)

    def test_training_runs(self):
        env = build_env(QueryDistribution(), 4, seed=1,
                        library=compact_atom_library(), semantic_dim=8)
        cfg = PPOConfig(batch_size=8, total_episodes=16)
        policy, diagnostics = flat_episode_policy_train(env, cfg, REWARD, run_seed=2,
                                                        hidden=(16,))
        assert len(diagnostics) == 2
        assert all(math.isfinite(d["loss"]) for d in diagnostics)


class TestRandomPolicy:
    def test_deterministic_finite(self):
        env = build_env(QueryDistribution(), 8, seed=2,
                        library=compact_atom_library(), semantic_dim=8)
        v1 = random_policy_utility(env, REWARD, 200, run_seed=3)
        v2 = random_policy_utility(env, REWARD, 200, run_seed=3)
        assert v1 == v2
        assert math.isfinite(v1)
