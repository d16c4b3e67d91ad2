"""Training machinery: advantages, clipped surrogate, elite SFT, DPO, and the
executable concentration checks."""

import copy
import math

import numpy as np
import pytest

from agentcfg.core import (
    Configuration,
    EpisodeRecord,
    ExecutionOutcome,
    ExperienceBuffer,
    StateEmbedding,
    StructureAction,
)
from agentcfg.env import QueryDistribution, build_env, compact_atom_library
from agentcfg.errors import (
    ConfigError,
    ContractError,
    EmptyEliteError,
    NoPairsError,
    TrainingDivergenceError,
)
from agentcfg.policy import (
    PromptPolicy,
    ReplayBatch,
    StructurePolicy,
    default_mask_table,
    log_prob_prompts,
    log_prob_structure,
    mask_table_from_config,
    sample_prompts,
    sample_structure,
)
from agentcfg.reward import RewardConfig, shaped_reward
from agentcfg.train import (
    DPOConfig,
    OptimizerSet,
    PPOConfig,
    Rollout,
    SFTConfig,
    _config_log_prob,
    _episode_seed,
    _grad_buffers,
    _surrogate_and_coeff,
    action_key,
    collect_episodes,
    collect_rollouts,
    compute_advantages,
    dpo_loss_and_grads,
    dpo_update,
    filter_elite,
    grpo_advantages,
    kl_to_empirical,
    ppo_batch,
    ppo_loss_and_grads,
    ppo_update,
    sft_loss_and_grads,
    sft_update,
    train_policies,
    verify_reward_floor,
    verify_support_restriction,
)

LIB = compact_atom_library()
TABLE = default_mask_table()
REWARD = RewardConfig()
HIDDEN = (16,)


def small_env(seed=0, n=6):
    return build_env(QueryDistribution(), n, seed=seed, library=LIB, semantic_dim=8)


def make_policies(seed=0, state_dim=13):
    return (
        StructurePolicy(state_dim, hidden=HIDDEN, rng=np.random.default_rng([seed, 1])),
        PromptPolicy(state_dim, LIB, hidden=HIDDEN, rng=np.random.default_rng([seed, 2])),
    )


def zero_value_nets(struct_policy, prompt_policy):
    for net in (struct_policy.value_net, prompt_policy.value_net):
        for p in net.params:
            p[...] = 0.0


def make_record(reward, correct=True, seed=0, workflow=0, prompts=((),),
                tools1=0, budgets=(0, 0, 0), semantic=None):
    state = StateEmbedding(
        semantic=semantic if semantic is not None else np.full(8, float(seed)),
        features=np.zeros(5),
    )
    return EpisodeRecord(
        state=state,
        structure_action=StructureAction(workflow, tools1, 0, budgets),
        prompt_actions=prompts,
        outcome=ExecutionOutcome("x", correct, 1, 100, 0, 0),
        reward=reward,
        reward_breakdown=(reward, 0.0, 0.0, 0.0),
        seed=seed,
    )


class TestAdvantages:
    def test_worked_example(self):
        struct, prompt = make_policies(0)
        zero_value_nets(struct, prompt)
        rollouts = [
            Rollout(record=make_record(r), struct_log_prob=0.0, prompt_steps=[])
            for r in (1.0, 2.0, 3.0)
        ]
        compute_advantages(rollouts, struct, prompt, gamma=0.95)
        advs = [r.struct_adv for r in rollouts]
        expected = math.sqrt(1.5)  # (3-2)/std([1,2,3]) with population std
        assert advs == pytest.approx([-expected, 0.0, expected], abs=1e-4)
        assert advs[2] == pytest.approx(1.2247, abs=1e-3)

    def test_all_equal_rewards_give_zero(self):
        struct, prompt = make_policies(1)
        zero_value_nets(struct, prompt)
        rollouts = [
            Rollout(record=make_record(2.0, seed=i), struct_log_prob=0.0, prompt_steps=[])
            for i in range(4)
        ]
        compute_advantages(rollouts, struct, prompt, gamma=0.95)
        assert all(r.struct_adv == pytest.approx(0.0) for r in rollouts)

    def test_ranking_preserved(self):
        struct, prompt = make_policies(2)
        zero_value_nets(struct, prompt)
        rewards = [0.3, 4.1, 2.2, 5.0, 1.7]
        rollouts = [
            Rollout(record=make_record(r), struct_log_prob=0.0, prompt_steps=[])
            for r in rewards
        ]
        compute_advantages(rollouts, struct, prompt, gamma=0.95)
        order = np.argsort(rewards)
        advs = np.array([r.struct_adv for r in rollouts])
        assert np.all(np.diff(advs[order]) > 0)

    def test_empty_batch_rejected(self):
        struct, prompt = make_policies(3)
        with pytest.raises(ContractError):
            compute_advantages([], struct, prompt, gamma=0.95)

    def test_step_targets_discounted(self):
        struct, prompt = make_policies(4)
        env = small_env()
        rollouts = collect_rollouts(struct, prompt, TABLE, env, 8, REWARD, run_seed=9)
        compute_advantages(rollouts, struct, prompt, gamma=0.5)
        for r in rollouts:
            k = len(r.prompt_steps)
            for j, target in enumerate(r.step_targets):
                assert target == pytest.approx(0.5 ** (k - 1 - j) * r.record.reward)

    def test_grpo_examples(self):
        advs = grpo_advantages([1.0, 2.0, 3.0])
        assert advs == pytest.approx([-math.sqrt(1.5), 0.0, math.sqrt(1.5)], abs=1e-6)
        assert grpo_advantages([5.0]) == pytest.approx([0.0])
        assert grpo_advantages([2.0, 2.0]) == pytest.approx([0.0, 0.0])
        with pytest.raises(ContractError):
            grpo_advantages([])


class TestClippedSurrogate:
    def test_clip_example(self):
        surr, coeff = _surrogate_and_coeff(ratio=2.0, adv=1.0, clip_eps=0.2)
        assert surr == pytest.approx(1.2)
        assert coeff == 0.0  # clipped branch: no gradient

    def test_ratio_one(self):
        surr, coeff = _surrogate_and_coeff(ratio=1.0, adv=0.7, clip_eps=0.2)
        assert surr == pytest.approx(0.7)
        assert coeff == pytest.approx(0.7)

    def test_negative_advantage_pessimism(self):
        surr, coeff = _surrogate_and_coeff(ratio=0.5, adv=-1.0, clip_eps=0.2)
        assert surr == pytest.approx(-0.8)  # min(-0.5, -0.8)
        assert coeff == 0.0


class TestPPOGradients:
    def test_full_loss_finite_differences(self):
        struct, prompt = make_policies(5)
        env = small_env(1)
        cfg = PPOConfig(batch_size=4, total_episodes=4)
        rollouts = collect_rollouts(struct, prompt, TABLE, env, 4, REWARD, run_seed=2)
        compute_advantages(rollouts, struct, prompt, cfg.gamma)

        def loss_fn():
            loss, _, _ = ppo_loss_and_grads(struct, prompt, TABLE, rollouts, cfg)
            return loss

        _, grads, _ = ppo_loss_and_grads(struct, prompt, TABLE, rollouts, cfg)
        rng = np.random.default_rng(3)
        nets = {
            "struct_trunk": struct.trunk,
            "struct_value": struct.value_net,
            "prompt_net": prompt.net,
            "prompt_value": prompt.value_net,
        }
        h = 1e-5
        for name, net in nets.items():
            flat_g = np.concatenate([g.ravel() for g in grads[name]])
            flat0 = net.get_flat()
            idx = rng.choice(net.n_params, size=min(25, net.n_params), replace=False)
            for i in idx:
                for sign in (+1, -1):
                    flat = flat0.copy()
                    flat[i] += sign * h
                    net.set_flat(flat)
                    if sign > 0:
                        hi = loss_fn()
                    else:
                        lo = loss_fn()
                net.set_flat(flat0)
                fd = (hi - lo) / (2 * h)
                err = abs(fd - flat_g[i])
                denom = max(abs(fd), abs(flat_g[i]), 1e-7)
                assert err < 1e-9 or err / denom < 1e-3, (name, i)

    @pytest.mark.parametrize("use_value_loss", [True, False])
    def test_laid_out_batch_scores_as_its_rollouts(self, use_value_loss, monkeypatch):
        struct, prompt = make_policies(7)
        cfg = PPOConfig(batch_size=6, total_episodes=6, epochs_per_batch=3)
        rollouts = collect_rollouts(struct, prompt, TABLE, small_env(3), 6, REWARD, run_seed=4)
        compute_advantages(rollouts, struct, prompt, cfg.gamma)
        got = ppo_loss_and_grads(struct, prompt, TABLE, ppo_batch(prompt, TABLE, rollouts), cfg,
                                 use_value_loss)
        want = ppo_loss_and_grads(struct, prompt, TABLE, rollouts, cfg, use_value_loss)
        assert got[0] == want[0] and got[2] == want[2]
        assert got[1].keys() == want[1].keys()
        for name in want[1]:
            assert all(np.array_equal(g, w) for g, w in zip(got[1][name], want[1][name]))
        # an update lays its batch out once for all of its epochs
        builds = []
        monkeypatch.setattr(ReplayBatch, "build", lambda *a, _build=ReplayBatch.build:
                            builds.append(1) or _build(*a))
        ppo_update(struct, prompt, TABLE, rollouts, cfg, OptimizerSet.create(struct, prompt),
                   use_value_loss)
        assert len(builds) == 1

    def test_update_moves_toward_high_advantage(self):
        struct, prompt = make_policies(6)
        env = small_env(2)
        cfg = PPOConfig(batch_size=8, total_episodes=8, lr_struct=1e-2, lr_prompt=1e-2)
        rollouts = collect_rollouts(struct, prompt, TABLE, env, 8, REWARD, run_seed=5)
        compute_advantages(rollouts, struct, prompt, cfg.gamma)
        best = max(rollouts, key=lambda r: r.struct_adv)
        lp_before = log_prob_structure(struct, TABLE, best.state, best.record.structure_action)
        opt = OptimizerSet.create(struct, prompt)
        diag = ppo_update(struct, prompt, TABLE, rollouts, cfg, opt)
        lp_after = log_prob_structure(struct, TABLE, best.state, best.record.structure_action)
        assert lp_after > lp_before
        assert set(diag) >= {"loss", "clip_fraction", "mean_entropy",
                             "value_loss", "mean_reward"}

    def test_update_without_value_loss_leaves_value_nets_alone(self):
        struct, prompt = make_policies(24)
        cfg = PPOConfig(batch_size=8, total_episodes=8)
        rollouts = collect_rollouts(struct, prompt, TABLE, small_env(9), 8, REWARD, run_seed=6)
        for r, a in zip(rollouts, grpo_advantages([r.record.reward for r in rollouts])):
            r.struct_adv = float(a)
            r.step_advs = [float(a)] * len(r.prompt_steps)
        _, grads, _ = ppo_loss_and_grads(struct, prompt, TABLE, rollouts, cfg,
                                         use_value_loss=False)
        assert set(grads) == {"struct_trunk", "prompt_net"}
        nets = (struct.trunk, struct.value_net, prompt.net, prompt.value_net)
        before = [net.get_flat() for net in nets]
        opt = OptimizerSet.create(struct, prompt)
        ppo_update(struct, prompt, TABLE, rollouts, cfg, opt, use_value_loss=False)
        assert opt.struct_value.t == 0 and opt.prompt_value.t == 0
        assert opt.struct_trunk.t == opt.prompt_net.t == cfg.epochs_per_batch
        for state in (opt.struct_value, opt.prompt_value):
            assert not any(a.any() for a in state.m + state.v)
        after = [net.get_flat() for net in nets]
        assert np.array_equal(after[1], before[1]) and np.array_equal(after[3], before[3])
        assert not np.array_equal(after[0], before[0])
        assert not np.array_equal(after[2], before[2])


class TestCollection:
    def test_deterministic_bit_identical(self):
        for builder in (lambda: make_policies(7), lambda: make_policies(7)):
            pass
        s1, p1 = make_policies(7)
        s2, p2 = make_policies(7)
        env = small_env(3)
        b1 = collect_episodes(s1, p1, TABLE, env, 40, REWARD, run_seed=11)
        b2 = collect_episodes(s2, p2, TABLE, env, 40, REWARD, run_seed=11)
        assert [r.to_json_dict() for r in b1] == [r.to_json_dict() for r in b2]

    def test_different_seed_differs(self):
        s, p = make_policies(8)
        env = small_env(4)
        b1 = collect_episodes(s, p, TABLE, env, 20, REWARD, run_seed=1)
        b2 = collect_episodes(s, p, TABLE, env, 20, REWARD, run_seed=2)
        assert [r.to_json_dict() for r in b1] != [r.to_json_dict() for r in b2]

    def test_zero_episodes_empty(self):
        s, p = make_policies(9)
        assert len(collect_episodes(s, p, TABLE, small_env(), 0, REWARD, 0)) == 0

    def test_lockstep_batch_matches_per_episode_reference(self):
        struct, prompt = make_policies(12)
        env = small_env(6)
        rollouts = collect_rollouts(struct, prompt, TABLE, env, 24, REWARD, run_seed=5,
                                    start_episode=3)
        for episode, r in enumerate(rollouts, start=3):
            rng = np.random.default_rng([5, episode, 0])
            query = env.queries[int(rng.integers(0, len(env.queries)))]
            state = env.embed(query)
            action, struct_lp, _ = sample_structure(struct, TABLE, state, rng)
            prompts, steps = sample_prompts(prompt, state, action, rng)
            seed = _episode_seed(5, episode)
            outcome = env.execute(query, Configuration(action, prompts), seed)
            reward, _ = shaped_reward(outcome, REWARD)
            record = r.record
            assert (record.structure_action, record.prompt_actions, record.reward,
                    record.seed) == (action, prompts, reward, seed)
            assert r.struct_log_prob == struct_lp
            assert [st.action for st in r.prompt_steps] == [st.action for st in steps]
            assert np.allclose([st.log_prob for st in r.prompt_steps],
                               [st.log_prob for st in steps], rtol=0, atol=1e-12)

    def test_split_batches_collect_the_same_episodes(self):
        struct, prompt = make_policies(13)
        env = small_env(7)
        whole = collect_rollouts(struct, prompt, TABLE, env, 8, REWARD, run_seed=4)
        parts = (collect_rollouts(struct, prompt, TABLE, env, 5, REWARD, run_seed=4)
                 + collect_rollouts(struct, prompt, TABLE, env, 3, REWARD, run_seed=4,
                                    start_episode=5))
        assert [r.record.to_json_dict() for r in whole] == [
            r.record.to_json_dict() for r in parts]
        for a, b in zip(whole, parts):
            assert a.struct_log_prob == b.struct_log_prob
            assert np.allclose([st.log_prob for st in a.prompt_steps],
                               [st.log_prob for st in b.prompt_steps], rtol=0, atol=1e-12)

    def test_warm_caches_collect_as_fresh_copies(self):
        # later batches on one policy read the structure and prompt-step
        # entries the earlier ones left in its caches; the one-episode
        # batches walk through the prompt net's cache
        struct, prompt = make_policies(15)
        env = small_env(8, n=3)
        batches = [(24, 0), (1, 24), (24, 25), (1, 24)]
        for n, start in batches:
            fresh = copy.deepcopy((struct, prompt))
            got = collect_rollouts(struct, prompt, TABLE, env, n, REWARD, 6, start)
            want = collect_rollouts(*fresh, TABLE, env, n, REWARD, 6, start)
            assert [r.record.to_json_dict() for r in got] == [
                r.record.to_json_dict() for r in want]
            for a, b in zip(got, want):
                assert a.struct_log_prob == b.struct_log_prob
                assert len(a.prompt_steps) == len(b.prompt_steps)
                for x, y in zip(a.prompt_steps, b.prompt_steps):
                    assert (x.agent, x.action, x.log_prob) == (y.agent, y.action, y.log_prob)
                    assert np.array_equal(x.input_vec, y.input_vec)
                    assert np.array_equal(x.mask, y.mask)
        assert struct.trunk.params.cache and prompt.net.params.cache

    def test_non_finite_prompt_net_raises_divergence(self):
        struct, prompt = make_policies(14)
        for p in prompt.net.params:
            p[...] = np.nan
        with pytest.raises(TrainingDivergenceError):
            collect_rollouts(struct, prompt, TABLE, small_env(), 4, REWARD, run_seed=0)

    def test_all_rollouts_respect_masks(self):
        s, p = make_policies(10)
        env = small_env(5)
        rollouts = collect_rollouts(s, p, TABLE, env, 1000, REWARD, run_seed=13)
        for r in rollouts:
            a = r.record.structure_action
            assert TABLE.is_valid(a)
            assert len(r.record.prompt_actions) == a.workflow.agents_active
            assert all(len(seq) <= 4 for seq in r.record.prompt_actions)


class TestEliteFiltering:
    def test_worked_example(self):
        buf = ExperienceBuffer()
        for reward, correct in ((5.0, True), (4.5, True), (4.2, False), (1.0, True)):
            buf.append(make_record(reward, correct=correct, seed=int(reward * 10)))
        elite = filter_elite(buf, SFTConfig(elite_fraction=1.0))
        assert elite.tau_eff == pytest.approx(4.0)
        assert sorted(r.reward for r in elite.records) == [4.5, 5.0]

    def test_quantile_tightens_threshold(self):
        buf = ExperienceBuffer()
        for reward, correct in ((5.0, True), (4.5, True), (4.2, False), (1.0, True)):
            buf.append(make_record(reward, correct=correct, seed=int(reward * 10)))
        elite = filter_elite(buf, SFTConfig(elite_fraction=0.25))
        assert elite.tau_eff == pytest.approx(5.0)
        assert [r.reward for r in elite.records] == [5.0]

    def test_fraction_bounds_elite_size(self):
        buf = ExperienceBuffer()
        rng = np.random.default_rng(0)
        for i in range(100):
            buf.append(make_record(float(rng.uniform(4.1, 6.0)), seed=i))
        elite = filter_elite(buf, SFTConfig(tau=0.0, elite_fraction=0.30))
        assert len(elite) <= 30

    def test_empty_elite_raises(self):
        buf = ExperienceBuffer()
        buf.append(make_record(5.0, correct=False))
        with pytest.raises(EmptyEliteError):
            filter_elite(buf, SFTConfig())
        with pytest.raises(ContractError):
            filter_elite(ExperienceBuffer(), SFTConfig())

    def test_counts_and_p_hat(self):
        buf = ExperienceBuffer()
        for _ in range(3):
            buf.append(make_record(5.0, workflow=0, prompts=((0,),)))
        buf.append(make_record(5.0, workflow=1, prompts=((0,), ())))
        elite = filter_elite(buf, SFTConfig(elite_fraction=1.0))
        (s_key,) = elite.state_counts
        p_hat = elite.p_hat(s_key)
        assert sorted(p_hat.values()) == pytest.approx([0.25, 0.75])
        assert len(elite.elite_actions(s_key)) == 2
        assert sorted(len(elite.rewards_for(*key)) for key in elite.action_counts) == [1, 3]


def _converge_sft(records, seed=11, epochs=400, lr=0.05):
    struct, prompt = make_policies(seed)
    buf = ExperienceBuffer()
    for r in records:
        buf.append(r)
    elite = filter_elite(buf, SFTConfig(elite_fraction=1.0, tau=0.0))
    cfg = SFTConfig(lr_struct=lr, lr_prompt=lr, entropy_reg=0.0, epochs=epochs,
                    tau=0.0, elite_fraction=1.0)
    losses = sft_update(struct, prompt, TABLE, elite, cfg)
    return struct, prompt, elite, losses


class TestSFT:
    def test_gradient_finite_differences(self):
        struct, prompt = make_policies(12)
        records = [
            make_record(5.0, workflow=2, prompts=((0,), (2,), (3,)), seed=1),
            make_record(4.5, workflow=0, prompts=((1,),), seed=2),
        ]
        _, grads = sft_loss_and_grads(struct, prompt, TABLE, records, entropy_reg=0.01)
        rng = np.random.default_rng(1)
        h = 1e-5
        for name, net in (("struct_trunk", struct.trunk), ("prompt_net", prompt.net)):
            flat_g = np.concatenate([g.ravel() for g in grads[name]])
            flat0 = net.get_flat()
            idx = rng.choice(net.n_params, size=25, replace=False)
            for i in idx:
                vals = {}
                for sign in (+1, -1):
                    flat = flat0.copy()
                    flat[i] += sign * h
                    net.set_flat(flat)
                    vals[sign], _ = sft_loss_and_grads(
                        struct, prompt, TABLE, records, entropy_reg=0.01
                    )
                net.set_flat(flat0)
                fd = (vals[1] - vals[-1]) / (2 * h)
                denom = max(abs(fd), abs(flat_g[i]), 1e-7)
                assert abs(fd - flat_g[i]) / denom < 1e-3, (name, i)

    def test_losses_decrease(self):
        records = [make_record(5.0, workflow=0, prompts=((0,),))]
        _, _, _, losses = _converge_sft(records, epochs=50, lr=0.01)
        assert losses[-1] < losses[0]

    def test_point_mass_concentration(self):
        record = make_record(5.0, workflow=0, prompts=((0,),))
        struct, prompt, _, _ = _converge_sft([record], epochs=600, lr=0.05)
        p = math.exp(_config_log_prob(struct, prompt, TABLE, record))
        assert p >= 0.99

    def test_fifty_fifty_split(self):
        a = make_record(5.0, workflow=0, prompts=((),), budgets=(0, 0, 0))
        b = make_record(5.0, workflow=0, prompts=((),), budgets=(2, 0, 0))
        struct, prompt, _, _ = _converge_sft([a, b], epochs=600, lr=0.05)
        p_a = math.exp(_config_log_prob(struct, prompt, TABLE, a))
        p_b = math.exp(_config_log_prob(struct, prompt, TABLE, b))
        assert abs(p_a - 0.5) <= 0.05 and abs(p_b - 0.5) <= 0.05

    def test_empty_elite_rejected(self):
        struct, prompt = make_policies(13)
        from agentcfg.train import EliteSet

        empty = EliteSet([], 4.0, {}, {}, {}, {})
        with pytest.raises(EmptyEliteError):
            sft_update(struct, prompt, TABLE, empty, SFTConfig())


class TestVerification:
    def test_converged_policy_passes(self):
        record = make_record(5.0, workflow=0, prompts=((0,),))
        struct, prompt, elite, _ = _converge_sft([record], epochs=800, lr=0.08)
        rng = np.random.default_rng(0)
        passed, violations = verify_support_restriction(
            struct, prompt, TABLE, elite, n_samples=300, rng=rng
        )
        assert passed and not violations
        estimate, floor_ok, n_bad = verify_reward_floor(
            struct, prompt, TABLE, elite, n_samples=300, rng=rng
        )
        assert floor_ok and n_bad == 0
        assert estimate == pytest.approx(5.0)
        assert kl_to_empirical(struct, prompt, TABLE, elite) < 1e-2

    def test_random_policy_fails(self):
        record = make_record(5.0, workflow=0, prompts=((0,),))
        buf = ExperienceBuffer()
        buf.append(record)
        elite = filter_elite(buf, SFTConfig(elite_fraction=1.0, tau=0.0))
        struct, prompt = make_policies(14)
        rng = np.random.default_rng(1)
        passed, violations = verify_support_restriction(
            struct, prompt, TABLE, elite, n_samples=200, rng=rng
        )
        assert not passed and violations
        assert kl_to_empirical(struct, prompt, TABLE, elite) > 1.0

    # non-integers and bools are refused too: 2.5 would fail deep in the
    # sampling loop with a raw TypeError, and True would count as 1 sample
    @pytest.mark.parametrize("n_samples", [0, -1, 2.5, 3.0, "3", True, None])
    def test_too_few_samples_raise(self, n_samples):
        buf = ExperienceBuffer()
        buf.append(make_record(5.0, workflow=0, prompts=((0,),)))
        elite = filter_elite(buf, SFTConfig(elite_fraction=1.0, tau=0.0))
        struct, prompt = make_policies(14)
        for check in (verify_support_restriction, verify_reward_floor):
            rng = np.random.default_rng(2)
            with pytest.raises(ContractError, match="n_samples"):
                check(struct, prompt, TABLE, elite, n_samples, rng)
            assert rng.bit_generator.state == np.random.default_rng(2).bit_generator.state

    def test_any_integer_type_counts_samples(self):
        buf = ExperienceBuffer()
        buf.append(make_record(5.0, workflow=0, prompts=((0,),)))
        elite = filter_elite(buf, SFTConfig(elite_fraction=1.0, tau=0.0))
        struct, prompt = make_policies(14)
        for check in (verify_support_restriction, verify_reward_floor):
            got, want = (check(struct, prompt, TABLE, elite, n, np.random.default_rng(3))
                         for n in (np.int64(4), 4))
            assert got == want

    def test_empty_elite_gives_no_evidence(self):
        from agentcfg.train import EliteSet

        struct, prompt = make_policies(14)
        empty = EliteSet([], 4.0, {}, {}, {}, {})
        for check in (verify_support_restriction, verify_reward_floor):
            rng = np.random.default_rng(2)
            with pytest.raises(EmptyEliteError):
                check(struct, prompt, TABLE, empty, 10, rng)
            assert rng.bit_generator.state == np.random.default_rng(2).bit_generator.state
        with pytest.raises(EmptyEliteError):
            kl_to_empirical(struct, prompt, TABLE, empty)

    def test_kl_decreases_under_sft(self):
        record = make_record(5.0, workflow=0, prompts=((0,),))
        buf = ExperienceBuffer()
        buf.append(record)
        elite = filter_elite(buf, SFTConfig(elite_fraction=1.0, tau=0.0))
        struct, prompt = make_policies(15)
        kls = [kl_to_empirical(struct, prompt, TABLE, elite)]
        cfg = SFTConfig(lr_struct=0.02, lr_prompt=0.02, entropy_reg=0.0,
                        epochs=50, tau=0.0, elite_fraction=1.0)
        for _ in range(4):
            sft_update(struct, prompt, TABLE, elite, cfg)
            kls.append(kl_to_empirical(struct, prompt, TABLE, elite))
        assert kls[-1] < kls[0]
        assert all(k >= -1e-9 for k in kls)


REDUCED_TABLE_RULES = {
    "workflows": ["Direct", "ReasonVerifyAns"],
    "Direct": {"tools1": [0, 1, 2, 3], "budgets": [[0, 2], [0], [0]]},
    "ReasonVerifyAns": {"tools1": [0, 1], "tools2": [0], "budgets": [[0, 2], [0, 2], [0, 2]]},
}


@pytest.mark.parametrize("table", [TABLE, mask_table_from_config(REDUCED_TABLE_RULES)],
                         ids=["default", "reduced"])
def test_guarantee_checks_match_an_uncached_reference(table, monkeypatch):
    from agentcfg import train

    env = small_env(3)
    struct, prompt = make_policies(40)
    buffer = collect_episodes(struct, prompt, table, env, 64, REWARD, run_seed=5)
    elite = filter_elite(buffer, SFTConfig(elite_fraction=0.3))
    sft_update(struct, prompt, table, elite,
               SFTConfig(lr_struct=0.01, lr_prompt=0.01, epochs=15, elite_fraction=0.3))
    assert len(elite.state_examples) > 1

    def checks(seed):
        rng = np.random.default_rng(seed)
        support = verify_support_restriction(struct, prompt, table, elite, 25, rng)
        floor = verify_reward_floor(struct, prompt, table, elite, 25, rng)
        return support, floor, rng.bit_generator.state

    cached = [checks(seed) for seed in range(10)]
    # the reference draws every sample on a fresh copy of the policy
    monkeypatch.setattr(train, "sample_prompts",
                        lambda policy, s, a, rng: sample_prompts(copy.deepcopy(policy), s, a, rng))
    monkeypatch.setattr(train, "sample_structure",
                        lambda policy, t, s, rng: sample_structure(copy.deepcopy(policy), t, s, rng))
    for seed, got in enumerate(cached):
        assert got == checks(seed)
    assert any(support[1] for support, _, _ in cached)  # the samples leave the support
    assert any(floor[0] > 0 for _, floor, _ in cached)  # and hit it


@pytest.mark.parametrize("table", [TABLE, mask_table_from_config(REDUCED_TABLE_RULES)],
                         ids=["default", "reduced"])
def test_guarantee_checks_in_turn_match_each_on_a_fresh_copy(table):
    # the floor check reads the entries the support check left in the caches
    struct, prompt = make_policies(43)
    buffer = collect_episodes(struct, prompt, table, small_env(4), 64, REWARD, run_seed=7)
    elite = filter_elite(buffer, SFTConfig(elite_fraction=0.3))
    sft_update(struct, prompt, table, elite,
               SFTConfig(lr_struct=0.01, lr_prompt=0.01, epochs=15, elite_fraction=0.3))
    assert len(elite.state_examples) > 1
    rng, twin = np.random.default_rng(44), np.random.default_rng(44)
    support = verify_support_restriction(struct, prompt, table, elite, 25, rng)
    floor = verify_reward_floor(struct, prompt, table, elite, 25, rng)
    assert support == verify_support_restriction(*copy.deepcopy((struct, prompt)), table,
                                                 elite, 25, twin)
    assert floor == verify_reward_floor(*copy.deepcopy((struct, prompt)), table, elite, 25,
                                        twin)
    assert rng.bit_generator.state == twin.bit_generator.state
    assert support[1] and floor[0] > 0  # the samples leave the support and hit it


@pytest.mark.parametrize("table", [TABLE, mask_table_from_config(REDUCED_TABLE_RULES)],
                         ids=["default", "reduced"])
def test_dpo_matches_an_unmemoized_reference(table, monkeypatch):
    from agentcfg import train

    struct, prompt = make_policies(41)
    buffer = collect_episodes(struct, prompt, table, small_env(3), 64, REWARD, run_seed=6)
    cfg = DPOConfig(lr_struct=1e-2, lr_prompt=1e-2, epochs=3)
    members = [r for pair in train._dpo_pairs(buffer, cfg) for r in pair]
    configs = {(r.state.key(), action_key(r.structure_action, r.prompt_actions))
               for r in members}
    assert len({r.state.key() for r in members}) < len(configs)  # the caches are read

    def refine():
        s, p = copy.deepcopy(struct), copy.deepcopy(prompt)
        losses = dpo_update(s, p, table, buffer, cfg)
        return losses, np.concatenate([s.trunk.get_flat(), p.net.get_flat()])

    cached = refine()
    # the reference scores every configuration on a fresh copy of the policy
    monkeypatch.setattr(train, "log_prob_structure",
                        lambda policy, t, s, a: log_prob_structure(copy.deepcopy(policy), t, s, a))
    monkeypatch.setattr(train, "log_prob_prompts",
                        lambda policy, s, a, seqs: log_prob_prompts(copy.deepcopy(policy), s, a,
                                                                    seqs))
    plain = refine()
    assert cached[0] == plain[0]
    assert np.array_equal(cached[1], plain[1])
    assert not np.array_equal(cached[1], np.concatenate([struct.trunk.get_flat(),
                                                           prompt.net.get_flat()]))


class TestDPO:
    def _pair_buffer(self):
        buf = ExperienceBuffer()
        buf.append(make_record(5.0, correct=True, workflow=0, prompts=((0,),), seed=1))
        buf.append(make_record(1.0, correct=False, workflow=1,
                               prompts=((), ()), seed=1))
        return buf

    def test_identical_policy_loss_is_ln2(self):
        struct, prompt = make_policies(16)
        from agentcfg.train import _dpo_pairs

        cfg = DPOConfig()
        pairs = _dpo_pairs(self._pair_buffer(), cfg)
        ref_lps = [
            (
                _config_log_prob(struct, prompt, TABLE, pos),
                _config_log_prob(struct, prompt, TABLE, neg),
            )
            for pos, neg in pairs
        ]
        loss, _ = dpo_loss_and_grads(struct, prompt, TABLE, pairs, ref_lps, cfg)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_update_widens_margin(self):
        struct, prompt = make_policies(17)
        buf = self._pair_buffer()
        pos, neg = buf[0], buf[1]
        before = (
            _config_log_prob(struct, prompt, TABLE, pos)
            - _config_log_prob(struct, prompt, TABLE, neg)
        )
        losses = dpo_update(struct, prompt, TABLE, buf,
                            DPOConfig(lr_struct=1e-2, lr_prompt=1e-2, epochs=10))
        after = (
            _config_log_prob(struct, prompt, TABLE, pos)
            - _config_log_prob(struct, prompt, TABLE, neg)
        )
        assert after > before
        assert losses[-1] < losses[0] < math.log(2.0) + 1e-9

    def test_gradient_finite_differences(self):
        struct, prompt = make_policies(23)
        pairs = [
            (make_record(5.0, workflow=2, prompts=((0,), (2,), (3,)), seed=1),
             make_record(1.0, correct=False, workflow=0, prompts=((1,),), seed=2)),
            (make_record(4.5, workflow=1, prompts=((0, 1), ()), seed=3),
             make_record(0.5, correct=False, workflow=0, prompts=((),), seed=4)),
        ]
        # a reference away from the policy, so the margins are not zero
        ref_lps = [(-9.0, -2.0), (-4.0, -6.0)]
        cfg = DPOConfig(beta=0.5)
        _, grads = dpo_loss_and_grads(struct, prompt, TABLE, pairs, ref_lps, cfg)
        rng = np.random.default_rng(2)
        h = 1e-5
        worst = 0.0
        for name, net in (("struct_trunk", struct.trunk), ("prompt_net", prompt.net)):
            flat_g = np.concatenate([g.ravel() for g in grads[name]])
            flat0 = net.get_flat()
            for i in rng.choice(net.n_params, size=25, replace=False):
                vals = {}
                for sign in (+1, -1):
                    flat = flat0.copy()
                    flat[i] += sign * h
                    net.set_flat(flat)
                    vals[sign], _ = dpo_loss_and_grads(struct, prompt, TABLE, pairs,
                                                       ref_lps, cfg)
                net.set_flat(flat0)
                fd = (vals[1] - vals[-1]) / (2 * h)
                if abs(fd - flat_g[i]) < 1e-9:  # both effectively zero: FD noise floor
                    continue
                worst = max(worst, abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-7))
        assert worst < 1e-4

    def test_reference_log_prob_once_per_configuration(self, monkeypatch):
        from agentcfg import train

        # two positives of one state and configuration, both nearest to one
        # negative: three pair members, two reference log-probs
        buf = ExperienceBuffer()
        for _ in range(2):
            buf.append(make_record(5.0, workflow=0, prompts=((0,),), seed=1))
        buf.append(make_record(1.0, correct=False, workflow=1, prompts=((), ()), seed=1))
        scored = []

        def counted(struct, prompt, table, record):
            scored.append(record)
            return _config_log_prob(struct, prompt, table, record)

        monkeypatch.setattr(train, "_config_log_prob", counted)
        struct, prompt = make_policies(20)
        losses = dpo_update(struct, prompt, TABLE, buf, DPOConfig(epochs=1))
        assert scored == [buf[0], buf[2]]
        assert losses == [pytest.approx(math.log(2.0), abs=1e-12)]

    def test_thresholds_must_separate_positives_from_negatives(self):
        # a correct reward-3.0 record would be its own nearest negative
        buf = ExperienceBuffer()
        buf.append(make_record(3.0, correct=True, seed=1))
        buf.append(make_record(0.5, correct=False, seed=2))
        for pos, neg in ((1.0, 4.0), (3.0, 3.0)):
            with pytest.raises(ConfigError, match=r"dpo\.positive_reward.*dpo\.negative_reward"):
                DPOConfig(positive_reward=pos, negative_reward=neg)
        cfg = DPOConfig()
        assert (cfg.positive_reward, cfg.negative_reward) == (4.0, 2.0)
        struct, prompt = make_policies(21)
        with pytest.raises(NoPairsError):   # 3.0 is neither a positive nor a negative
            dpo_update(struct, prompt, TABLE, buf, cfg)

    def test_missing_side_raises(self):
        struct, prompt = make_policies(18)
        buf = ExperienceBuffer()
        buf.append(make_record(5.0, correct=True))
        with pytest.raises(NoPairsError):
            dpo_update(struct, prompt, TABLE, buf, DPOConfig())


class TestTrainPolicies:
    def test_zero_episodes_rejected(self):
        struct, prompt = make_policies(19)
        with pytest.raises(ContractError):
            train_policies(struct, prompt, TABLE, small_env(), PPOConfig(total_episodes=0),
                           REWARD, 0)
        with pytest.raises(ContractError):
            train_policies(struct, prompt, TABLE, small_env(), PPOConfig(total_episodes=8),
                           REWARD, 0, objective="nope")

    def test_short_run_bookkeeping(self):
        struct, prompt = make_policies(20)
        cfg = PPOConfig(batch_size=8, total_episodes=24)
        buffer, diagnostics = train_policies(struct, prompt, TABLE, small_env(6),
                                             cfg, REWARD, run_seed=3)
        assert len(buffer) == 24
        assert len(diagnostics) == 3
        assert diagnostics[-1]["episodes"] == 24
        assert all(math.isfinite(d["loss"]) for d in diagnostics)

    def test_grpo_objective_runs(self):
        struct, prompt = make_policies(21)
        cfg = PPOConfig(batch_size=8, total_episodes=16)
        buffer, diagnostics = train_policies(struct, prompt, TABLE, small_env(7),
                                             cfg, REWARD, run_seed=4, objective="grpo")
        assert len(buffer) == 16
        assert diagnostics[-1]["value_loss"] == 0.0

    def test_deterministic_final_parameters(self):
        results = []
        for _ in range(2):
            struct, prompt = make_policies(22)
            cfg = PPOConfig(batch_size=8, total_episodes=16)
            train_policies(struct, prompt, TABLE, small_env(8), cfg, REWARD, run_seed=5)
            results.append(np.concatenate([struct.trunk.get_flat(),
                                           prompt.net.get_flat()]))
        assert np.array_equal(results[0], results[1])


# ---------------------------------------------------------------------------
# The batched scoring core against a per-row reference
# ---------------------------------------------------------------------------


def _row_categorical(logits, mask, action, dlogp, dentropy):
    """Per-row reference of one masked categorical, written out here:
    (log p(action), entropy, gradient of dlogp * log p + dentropy * H)."""
    valid = mask > 0
    p = np.zeros_like(logits)
    e = np.exp(logits[valid] - logits[valid].max())
    p[valid] = e / e.sum()
    logp = np.zeros_like(logits)
    logp[valid] = np.log(p[valid])
    h = -float(np.sum(p * logp))
    onehot = np.zeros_like(logits)
    onehot[action] = 1.0
    return float(logp[action]), h, dlogp * (onehot - p) - dentropy * p * (logp + h)


def _row_config_terms(struct, prompt, table, record, dlogp, dentropy, grads):
    """Per-row reference: log-prob and entropy of one configuration, one
    decision at a time, adding the gradient of dlogp * logp + dentropy * H
    (per decision) into grads. Returns (struct logp, struct H, step logps,
    step Hs)."""
    from agentcfg.core import ROLES
    from agentcfg.policy import HEAD_SIZES, head_slice

    s_vec = record.state.as_vector()
    a = record.structure_action
    out = struct.trunk.forward(s_vec)
    masks = [table.workflow_mask] + table.masks_for(a.workflow_id)
    choices = (a.workflow_id, a.tools1, a.tools2, *a.budgets)
    dlogits = np.zeros(sum(HEAD_SIZES))
    s_lp = s_h = 0.0
    for head, (m, c) in enumerate(zip(masks, choices)):
        lp, h, dlogits[head_slice(head)] = _row_categorical(
            out[head_slice(head)], m, c, dlogp[0], dentropy[0])
        s_lp += lp
        s_h += h
    for acc, g in zip(grads["struct_trunk"], struct.trunk.backward(s_vec, dlogits)):
        acc += g
    step_lps, step_hs, j = [], [], 0
    for agent, seq in enumerate(record.prompt_actions):
        chosen = []
        for atom in list(seq) + [prompt.stop_index]:
            x = prompt.step_input(s_vec, a.workflow_id, chosen)
            lp, h, g = _row_categorical(
                prompt.net.forward(x), prompt.step_mask(ROLES[agent], chosen, len(chosen)),
                atom, dlogp[1][j], dentropy[1][j])
            for acc, gg in zip(grads["prompt_net"], prompt.net.backward(x, g)):
                acc += gg
            step_lps.append(lp)
            step_hs.append(h)
            j += 1
            if atom != prompt.stop_index:
                chosen.append(atom)
    return s_lp, s_h, step_lps, step_hs


def _zero_grads(struct, prompt):
    nets = {"struct_trunk": struct.trunk, "struct_value": struct.value_net,
            "prompt_net": prompt.net, "prompt_value": prompt.value_net}
    return {name: [np.zeros_like(p) for p in net.params] for name, net in nets.items()}


def _n_steps(record):
    return sum(len(seq) + 1 for seq in record.prompt_actions)


def reference_ppo(struct, prompt, table, rollouts, cfg, use_value_loss):
    """PPO loss and gradients one decision and one row at a time."""
    grads = _zero_grads(struct, prompt)
    n_struct = len(rollouts)
    n_steps = sum(len(r.prompt_steps) for r in rollouts)
    loss = 0.0
    for r in rollouts:
        k = len(r.prompt_steps)
        # first pass: log-probs only, to get the surrogate coefficients
        s_lp, _, step_lps, _ = _row_config_terms(
            struct, prompt, table, r.record, (0.0, [0.0] * k), (0.0, [0.0] * k),
            _zero_grads(struct, prompt))
        surr, coeff = _surrogate_and_coeff(math.exp(s_lp - r.struct_log_prob), r.struct_adv,
                                           cfg.clip_eps)
        step_terms = [_surrogate_and_coeff(math.exp(lp - st.log_prob), adv, cfg.clip_eps)
                      for lp, st, adv in zip(step_lps, r.prompt_steps, r.step_advs)]
        _, s_h, _, step_hs = _row_config_terms(
            struct, prompt, table, r.record,
            (-coeff / n_struct, [-c / n_steps for _, c in step_terms]),
            (-cfg.entropy_coef / n_struct, [-cfg.entropy_coef / n_steps] * k), grads)
        loss += (-surr - cfg.entropy_coef * s_h) / n_struct
        loss += sum((-sv - cfg.entropy_coef * h) / n_steps for (sv, _), h in zip(step_terms, step_hs))
        if use_value_loss:
            pairs = [(struct.value_net, r.state.as_vector(), r.struct_target, n_struct,
                      "struct_value")]
            pairs += [(prompt.value_net, st.input_vec, t, n_steps, "prompt_value")
                      for st, t in zip(r.prompt_steps, r.step_targets)]
            for net, x, target, n, name in pairs:
                err = net.forward(x)[0] - target
                loss += cfg.value_coef * err * err / n
                for acc, g in zip(grads[name], net.backward(
                        x, np.array([2.0 * cfg.value_coef * err / n]))):
                    acc += g
    return loss, grads


def reference_sft(struct, prompt, table, records, entropy_reg):
    grads = _zero_grads(struct, prompt)
    n = len(records)
    loss = 0.0
    for r in records:
        k = _n_steps(r)
        s_lp, s_h, lps, hs = _row_config_terms(
            struct, prompt, table, r, (-1.0 / n, [-1.0 / n] * k),
            (-entropy_reg / n, [-entropy_reg / n] * k), grads)
        loss += (-s_lp - entropy_reg * s_h - sum(lps) - entropy_reg * sum(hs)) / n
    return loss, grads


def reference_dpo(struct, prompt, table, pairs, ref_lps, beta):
    grads = _zero_grads(struct, prompt)
    n = len(pairs)
    loss = 0.0
    def config_lp(record):
        k = _n_steps(record)
        s_lp, _, lps, _ = _row_config_terms(struct, prompt, table, record, (0.0, [0.0] * k),
                                            (0.0, [0.0] * k), _zero_grads(struct, prompt))
        return s_lp + sum(lps)

    for (pos, neg), (ref_pos, ref_neg) in zip(pairs, ref_lps):
        margin = beta * ((config_lp(pos) - ref_pos) - (config_lp(neg) - ref_neg))
        loss += math.log1p(math.exp(-margin)) / n
        coeff = -beta / (1.0 + math.exp(margin)) / n
        for record, sign in ((pos, 1.0), (neg, -1.0)):
            k = _n_steps(record)
            _row_config_terms(struct, prompt, table, record, (sign * coeff, [sign * coeff] * k),
                              (0.0, [0.0] * k), grads)
    return loss, grads


def _max_rel_diff(got, want):
    worst = 0.0
    for name, ref in want.items():
        if name not in got:
            continue
        a = np.concatenate([g.ravel() for g in got[name]])
        b = np.concatenate([g.ravel() for g in ref])
        worst = max(worst, float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300))
    return worst


class TestScoringCore:
    @pytest.fixture(scope="class")
    def default_batch(self):
        from agentcfg.runtime import RunConfig, build_components

        cfg = RunConfig()
        env, table, _, struct, prompt = build_components(cfg)
        rollouts = collect_rollouts(struct, prompt, table, env, 6, cfg.reward, run_seed=4)
        compute_advantages(rollouts, struct, prompt, cfg.ppo.gamma)
        # move the policy off the sampling parameters so ratios differ from 1
        for net in (struct.trunk, prompt.net):
            for p in net.params:
                p += np.random.default_rng(0).normal(0.0, 0.05, size=p.shape)
        return cfg, table, struct, prompt, rollouts

    @pytest.mark.parametrize("use_value_loss", [True, False])
    def test_ppo_matches_per_row_reference(self, default_batch, use_value_loss):
        cfg, table, struct, prompt, rollouts = default_batch
        ppo = PPOConfig(clip_eps=0.05)
        loss, grads, _ = ppo_loss_and_grads(struct, prompt, table, rollouts, ppo,
                                            use_value_loss)
        ref_loss, ref_grads = reference_ppo(struct, prompt, table, rollouts, ppo,
                                            use_value_loss)
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        assert _max_rel_diff(grads, ref_grads) <= 1e-10

    def test_sft_matches_per_row_reference(self, default_batch):
        cfg, table, struct, prompt, rollouts = default_batch
        records = [r.record for r in rollouts]
        loss, grads = sft_loss_and_grads(struct, prompt, table, records, 0.01)
        ref_loss, ref_grads = reference_sft(struct, prompt, table, records, 0.01)
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        assert _max_rel_diff(grads, ref_grads) <= 1e-10

    def test_dpo_matches_per_row_reference(self, default_batch):
        cfg, table, struct, prompt, rollouts = default_batch
        records = [r.record for r in rollouts]
        pairs = list(zip(records[:3], records[3:]))
        ref_lps = [(-3.0 - i, -4.0 + i) for i in range(3)]
        loss, grads = dpo_loss_and_grads(struct, prompt, table, pairs, ref_lps, cfg.dpo)
        ref_loss, ref_grads = reference_dpo(struct, prompt, table, pairs, ref_lps, cfg.dpo.beta)
        assert abs(loss - ref_loss) <= 1e-10 * abs(ref_loss)
        assert _max_rel_diff(grads, ref_grads) <= 1e-10

    def test_objectives_overwrite_given_gradient_buffers(self, default_batch):
        cfg, table, struct, prompt, rollouts = default_batch
        records = [r.record for r in rollouts]
        pairs = list(zip(records[:3], records[3:]))
        ref_lps = [(-3.0 - i, -4.0 + i) for i in range(3)]
        out = _grad_buffers(struct_trunk=struct.trunk, struct_value=struct.value_net,
                            prompt_net=prompt.net, prompt_value=prompt.value_net)
        objectives = [
            lambda out=None: ppo_loss_and_grads(struct, prompt, table, rollouts,
                                                PPOConfig(clip_eps=0.05), True, out)[:2],
            lambda out=None: sft_loss_and_grads(struct, prompt, table, records, 0.01, out),
            lambda out=None: dpo_loss_and_grads(struct, prompt, table, pairs, ref_lps, cfg.dpo,
                                                out),
        ]
        for objective in objectives:
            loss, fresh = objective()
            for grads in out.values():
                grads.vector[...] = np.nan  # stale contents must all be overwritten
            got_loss, got = objective(out)
            assert got_loss == loss
            for name, grads in fresh.items():
                assert got[name] is out[name]
                assert np.array_equal(got[name].vector, grads.vector)
