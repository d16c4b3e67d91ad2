"""Synthetic environment: logistic ground truth, cost model, exact oracle."""

import itertools
import math

import numpy as np
import pytest

from agentcfg.core import (
    Configuration,
    PromptAtom,
    Query,
    StructureAction,
    extract_features,
)
from agentcfg.env import (
    QueryDistribution,
    SuccessModel,
    SyntheticEnv,
    SyntheticQuerySpec,
    atom_class,
    brute_force_best,
    build_env,
    compact_atom_library,
    default_atom_library,
    execute_synthetic,
    expected_reward,
    generate_query,
    hash_embed,
    prompt_relevance,
    query_class,
    success_probability,
    tool_usage,
)
from agentcfg.errors import ContractError
from agentcfg.reward import RewardConfig, shaped_reward

MODEL = SuccessModel()
REWARD = RewardConfig()
LIB = compact_atom_library()
QUERY = Query(id="q", text="What is known about the old treaty?", gold_answer="yes")


def cfg(wf, t1=0, t2=0, budgets=(0, 0, 0), prompts=None):
    a = StructureAction(wf, t1, t2, budgets)
    if prompts is None:
        prompts = tuple(() for _ in range(a.workflow.agents_active))
    return Configuration(a, prompts)


class TestSuccessProbability:
    def test_sigmoid_worked_example(self):
        # depth ok, no tools required (coverage 0), full adequacy, full
        # relevance, difficulty 0: logit = -1 + 2 + 1.5 + 1 = 3.5
        spec = SyntheticQuerySpec(difficulty=0.0, required_tools=0, required_depth=1)
        c = cfg(0, budgets=(2, 0, 0), prompts=((0,),))  # High budget, general atom
        p = success_probability(spec, c, MODEL, LIB)
        assert p == pytest.approx(1 / (1 + math.exp(-3.5)), abs=1e-12)
        assert p == pytest.approx(0.9707, abs=1e-4)

    def test_partial_coverage(self):
        spec = SyntheticQuerySpec(difficulty=0.0, required_tools=0b11, required_depth=1)
        half = cfg(0, t1=0b01, budgets=(2, 0, 0))
        full = cfg(0, t1=0b11, budgets=(2, 0, 0))
        none = cfg(0, budgets=(2, 0, 0))
        p_half = success_probability(spec, half, MODEL, LIB)
        p_none = success_probability(spec, none, MODEL, LIB)
        # logit gap between half and zero coverage is w_coverage * 0.5
        assert math.log(p_half / (1 - p_half)) - math.log(p_none / (1 - p_none)) == (
            pytest.approx(MODEL.w_coverage * 0.5, abs=1e-12)
        )
        assert success_probability(spec, full, MODEL, LIB) > p_half > p_none

    def test_adequacy_is_min_over_active_agents(self):
        spec = SyntheticQuerySpec(difficulty=0.5, required_tools=0, required_depth=3)
        needed = 256 * (1 + 2 * 0.5)  # 512 tokens needed
        lo = cfg(2, budgets=(2, 2, 0))   # one Low slot drags adequacy to 256/512
        hi = cfg(2, budgets=(2, 2, 2))
        p_lo = success_probability(spec, lo, MODEL, LIB)
        p_hi = success_probability(spec, hi, MODEL, LIB)
        gap = math.log(p_hi / (1 - p_hi)) - math.log(p_lo / (1 - p_lo))
        assert gap == pytest.approx(MODEL.w_adequacy * (1.0 - 256 / needed), abs=1e-12)

    def test_monotone_in_difficulty(self):
        c = cfg(2, budgets=(2, 2, 2))
        last = 1.0
        for d in np.linspace(0.0, 1.0, 21):
            spec = SyntheticQuerySpec(difficulty=float(d), required_tools=0,
                                      required_depth=1)
            p = success_probability(spec, c, MODEL, LIB)
            assert p < last
            last = p

    def test_depth_mismatch_drops_term(self):
        spec = SyntheticQuerySpec(difficulty=0.0, required_tools=0, required_depth=3)
        shallow = cfg(0, budgets=(2, 0, 0))
        deep = cfg(2, budgets=(2, 2, 2))
        p_s = success_probability(spec, shallow, MODEL, LIB)
        p_d = success_probability(spec, deep, MODEL, LIB)
        assert math.log(p_d / (1 - p_d)) - math.log(p_s / (1 - p_s)) == (
            pytest.approx(MODEL.w_depth, abs=1e-12)
        )


class TestRelevanceAndClasses:
    def test_atom_classes(self):
        assert atom_class("Use the available tools whenever they can help.") == "tool"
        assert atom_class("Decompose the problem into smaller steps.") == "multi_step"
        assert atom_class("Keep the reasoning concise.") == "general"

    def test_query_classes(self):
        assert query_class(SyntheticQuerySpec(0.1, 0b01, 1)) == "tool"
        assert query_class(SyntheticQuerySpec(0.1, 0, 2)) == "multi_step"
        assert query_class(SyntheticQuerySpec(0.1, 0, 1)) == "general"

    def test_relevance_fraction(self):
        spec = SyntheticQuerySpec(0.0, 0b01, 1)  # tool-class query
        # atom 1 is the reasoner tool atom (relevant); atom 0 is general
        both = cfg(0, prompts=((0, 1),))
        assert prompt_relevance(spec, both, LIB) == pytest.approx(0.5)
        assert prompt_relevance(spec, cfg(0, prompts=((1,),)), LIB) == 1.0
        assert prompt_relevance(spec, cfg(0), LIB) == 0.0


class TestToolUsage:
    def test_requires_gate(self):
        spec = SyntheticQuerySpec(0.0, 0b01, 1)
        # allocated + required but no tool atom and a non-looping workflow
        assert tool_usage(spec, cfg(1, t1=0b01, prompts=((), ())), LIB) == 0
        # tool-class atom opens the gate
        assert tool_usage(spec, cfg(1, t1=0b01, prompts=((1,), ())), LIB) == 1
        # inherently tool-looping workflows open it too
        assert tool_usage(spec, cfg(8, t1=0b01), LIB) == 1
        assert tool_usage(spec, cfg(6, t1=0b01), LIB) == 1

    def test_requires_allocation_and_requirement(self):
        assert tool_usage(SyntheticQuerySpec(0.0, 0b01, 1), cfg(8), LIB) == 0
        assert tool_usage(SyntheticQuerySpec(0.0, 0, 1), cfg(8, t1=0b01), LIB) == 0

    def test_counts_overlap_only(self):
        spec = SyntheticQuerySpec(0.0, 0b11, 1)
        assert tool_usage(spec, cfg(8, t1=0b01), LIB) == 1
        assert tool_usage(spec, cfg(8, t1=0b1111), LIB) == 2


class TestExecution:
    def test_deterministic(self):
        spec = SyntheticQuerySpec(0.3, 0b01, 2)
        c = cfg(7, t1=0b01, budgets=(1, 1, 0), prompts=((1,), ()))
        a = execute_synthetic(QUERY, spec, c, MODEL, LIB, seed=123)
        b = execute_synthetic(QUERY, spec, c, MODEL, LIB, seed=123)
        assert a == b
        diff = execute_synthetic(QUERY, spec, c, MODEL, LIB, seed=124)
        assert isinstance(diff.correct, bool)

    def test_token_accounting(self):
        spec = SyntheticQuerySpec(0.5, 0b01, 1)
        c = cfg(1, t1=0b01, budgets=(1, 0, 0), prompts=((1,), ()))
        out = execute_synthetic(QUERY, spec, c, MODEL, LIB, seed=0)
        base = round(1024 * 0.75) + round(256 * 0.75)  # two agents, d=0.5
        assert out.n_tokens == base + 150 * 1  # one invoked tool
        assert out.n_steps == 2
        assert out.n_tools_allocated == 1

    def test_eo_step_range(self):
        spec = SyntheticQuerySpec(0.2, 0, 1)
        c = cfg(7, budgets=(0, 0, 0))
        steps = {
            execute_synthetic(QUERY, spec, c, MODEL, LIB, seed=s).n_steps
            for s in range(200)
        }
        assert steps == {4, 5, 6, 7}

    def test_env_methods_match_the_module_functions(self):
        # the env keeps the last configuration's terms: interleaved
        # configurations and queries, and a swapped library, must not see
        # stale ones
        env = build_env(QueryDistribution(noise_scale=2.0), 3, seed=2, library=LIB,
                        semantic_dim=8)
        configs = [cfg(7, t1=0b01, budgets=(1, 2, 0), prompts=((1,), (2,))),
                   cfg(0, budgets=(2, 0, 0), prompts=((0,),)), cfg(8, t1=0b11)]
        for library in (LIB, default_atom_library()):
            env.library = library
            for c in configs + configs[::-1]:
                for q in env.queries:
                    spec = env.spec_for(q)
                    assert env.execute(q, c, 11) == execute_synthetic(
                        q, spec, c, MODEL, library, 11)
                    assert env.expected_reward(q, c, REWARD) == expected_reward(
                        spec, c, MODEL, library, REWARD)

    def test_execute_memo_matches_fresh_draws(self):
        # one memo across EvaluatorOptimizer and other configurations, and
        # queries with and without token jitter, run on the same seeds: each
        # of the two changes which numbers a seed's execution draws
        queries = [Query(id=f"q{j}", text=QUERY.text, gold_answer="yes") for j in range(2)]
        specs = {"q0": SyntheticQuerySpec(0.4, 0b01, 2, noise_scale=0.0),
                 "q1": SyntheticQuerySpec(0.4, 0b01, 2, noise_scale=3.0)}
        env = SyntheticEnv(queries=queries, specs=specs, library=LIB, semantic_dim=8)
        configs = [cfg(7, t1=0b01, budgets=(1, 2, 0), prompts=((1,), (2,))),
                   cfg(0, budgets=(2, 0, 0), prompts=((0,),)),
                   cfg(7), cfg(8, t1=0b11)]
        memo = {}
        for seed in range(40):
            for c in configs[seed % 2:] + configs[: seed % 2]:
                for q in queries[::1 - 2 * (seed % 2)]:
                    assert env.execute(q, c, seed, memo) == execute_synthetic(
                        q, specs[q.id], c, MODEL, LIB, seed)
        assert len(memo) == 40 * 2 * 2   # seeds x EvaluatorOptimizer or not x jitter

    def test_expected_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        for spec, c in [
            (SyntheticQuerySpec(0.3, 0b01, 2), cfg(8, t1=0b01, budgets=(1, 1, 1))),
            (SyntheticQuerySpec(0.6, 0, 3), cfg(2, budgets=(2, 1, 0), prompts=((0,), (2,), (3,)))),
            (SyntheticQuerySpec(0.1, 0b10, 1), cfg(0, t1=0b10, prompts=((1,),))),
            (SyntheticQuerySpec(0.4, 0, 1), cfg(7, budgets=(1, 1, 1))),
        ]:
            exact = expected_reward(spec, c, MODEL, LIB, REWARD)
            n = 4000
            samples = np.empty(n)
            for i in range(n):
                out = execute_synthetic(QUERY, spec, c, MODEL, LIB,
                                        int(rng.integers(0, 2**31)))
                samples[i] = shaped_reward(out, REWARD)[0]
            se = samples.std(ddof=1) / math.sqrt(n)
            assert abs(samples.mean() - exact) <= 3 * se + 1e-6


class TestBruteForce:
    def test_hand_enumerated_small_space(self):
        spec = SyntheticQuerySpec(0.0, 0, 1)
        subspace = [
            cfg(0, budgets=(b, 0, 0), prompts=(p,))
            for b in (0, 2)
            for p in ((), (0,))
        ]
        (best, value) = brute_force_best(spec, subspace, MODEL, LIB, REWARD)
        by_hand = max(subspace, key=lambda c: expected_reward(spec, c, MODEL, LIB, REWARD))
        assert expected_reward(spec, best, MODEL, LIB, REWARD) == pytest.approx(
            expected_reward(spec, by_hand, MODEL, LIB, REWARD)
        )
        assert value == pytest.approx(expected_reward(spec, best, MODEL, LIB, REWARD))
        # easy general query: Direct + Low + the matching general atom wins
        assert best.structure.workflow_id == 0
        assert best.structure.budgets == (0, 0, 0)
        assert best.prompts == ((0,),)

    def test_unneeded_tool_lowers_utility(self):
        spec = SyntheticQuerySpec(0.0, 0, 1)
        bare = cfg(0, prompts=((0,),))
        with_tool = cfg(0, t1=0b01, prompts=((0,),))
        assert expected_reward(spec, with_tool, MODEL, LIB, REWARD) < (
            expected_reward(spec, bare, MODEL, LIB, REWARD)
        )

    def test_tie_break_prefers_smaller_index_and_shorter_prompts(self):
        # identical expected rewards: same structure value, shorter prompt wins
        spec = SyntheticQuerySpec(0.0, 0, 1)
        a = cfg(0, prompts=((0,),))
        duplicates = [a, cfg(0, prompts=((0,),))]
        (best, _) = brute_force_best(spec, duplicates, MODEL, LIB, REWARD)
        assert best == a

    def test_empty_subspace_rejected(self):
        with pytest.raises(ContractError):
            brute_force_best(SyntheticQuerySpec(0.0, 0, 1), [], MODEL, LIB, REWARD)


class TestHashEmbed:
    def test_empty_is_zero(self):
        assert np.allclose(hash_embed("", 16), 0.0)

    def test_deterministic_unit_norm(self):
        a = hash_embed("calculate the sum of 3 and 4", 64)
        b = hash_embed("calculate the sum of 3 and 4", 64)
        assert np.array_equal(a, b)
        assert np.linalg.norm(a) == pytest.approx(1.0)

    def test_distinct_texts_differ(self):
        assert not np.array_equal(hash_embed("red apples", 64),
                                  hash_embed("blue coins", 64))


class TestQueryGeneration:
    def test_build_env_deterministic(self):
        e1 = build_env(QueryDistribution(), 16, seed=3)
        e2 = build_env(QueryDistribution(), 16, seed=3)
        assert [q.text for q in e1.queries] == [q.text for q in e2.queries]
        assert e1.specs == e2.specs

    def test_calculator_queries_set_tool_flag(self):
        rng = np.random.default_rng(4)
        dist = QueryDistribution(tool_prob=1.0)
        hits = 0
        total = 0
        for i in range(200):
            q, spec = generate_query(dist, rng, f"q{i}")
            if spec.required_tools & 0b01:
                total += 1
                hits += extract_features(q.text).tool_flag
        assert total > 0
        assert hits / total >= 0.95

    def test_embedding_dim(self):
        env = build_env(QueryDistribution(), 4, seed=5, semantic_dim=32)
        s = env.embed(env.queries[0])
        assert s.semantic.shape == (32,)
        assert s.dim == 37

    def test_embedding_computed_once_and_read_only(self):
        env = build_env(QueryDistribution(), 4, seed=5, semantic_dim=32)
        s = env.embed(env.queries[0])
        assert env.embed(env.queries[0]) is s
        fresh = SyntheticEnv(queries=env.queries, specs=env.specs, semantic_dim=32)
        assert fresh.embed(env.queries[0]).key() == s.key()
        for arr in (s.semantic, s.features):
            with pytest.raises(ValueError):
                arr[0] = 1.0
