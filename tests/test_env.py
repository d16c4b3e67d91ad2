"""Synthetic environment: logistic ground truth, cost model, exact oracle."""

import copy
import dataclasses
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcfg.core import (
    MAX_PROMPT_LEN,
    Configuration,
    PromptAtom,
    Query,
    StructureAction,
    extract_features,
)
from agentcfg.env import (
    ARRAY_PASS_MIN_QUERIES,
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
    rank_key,
    single_atom_prompt_options,
    success_probability,
    tool_usage,
)
from agentcfg.errors import ContractError
from agentcfg.policy import default_mask_table, iter_valid_actions, mask_table_from_config
from agentcfg.reward import RewardConfig, shaped_reward

MODEL = SuccessModel()
REWARD = RewardConfig()
LIB = compact_atom_library()
QUERY = Query(id="q", text="What is known about the old treaty?", gold_answer="yes")
# The reduced space of the acceptance suite's criteria 5 and 7.
REDUCED_RULES = {
    "workflows": ["Direct", "ReasonVerifyAns", "AutonomousAgent"],
    "Direct": {"tools1": [0, 1, 2, 3], "budgets": [[0, 2], [0], [0]]},
    "ReasonVerifyAns": {"tools1": [0, 1, 2, 3], "tools2": [0],
                        "budgets": [[0, 2], [0, 2], [0, 2]]},
    "AutonomousAgent": {"tools1": [0, 1, 2, 3], "tools2": [0],
                        "budgets": [[0, 2], [0], [0]]},
}


def cfg(wf, t1=0, t2=0, budgets=(0, 0, 0), prompts=None):
    a = StructureAction(wf, t1, t2, budgets)
    if prompts is None:
        prompts = tuple(() for _ in range(a.workflow.agents_active))
    return Configuration(a, prompts)


def reduced_space(library):
    """The reduced rules' structures crossed with the single-atom options."""
    return [
        Configuration(a, p)
        for a in iter_valid_actions(mask_table_from_config(REDUCED_RULES))
        for p in single_atom_prompt_options(a.workflow.agents_active, library)
    ]


def plain_best(spec, subspace, library=LIB):
    """The first configuration of smallest `rank_key`, each scored by a
    memo-less `expected_reward`."""
    scored = [(rank_key(expected_reward(spec, c, MODEL, library, REWARD), c), c)
              for c in subspace]
    key, config = min(scored, key=lambda kc: kc[0])
    return config, -key[0]


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
        # configurations and queries must not see stale ones, and an env
        # replaced with another library scores with it
        built = build_env(QueryDistribution(noise_scale=2.0), 3, seed=2, library=LIB,
                          semantic_dim=8)
        configs = [cfg(7, t1=0b01, budgets=(1, 2, 0), prompts=((1,), (2,))),
                   cfg(0, budgets=(2, 0, 0), prompts=((0,),)), cfg(8, t1=0b11)]
        for library in (LIB, default_atom_library()):
            env = dataclasses.replace(built, library=library)
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
        assert len(memo) == 40 * 2 * 2   # seeds x refinement rounds (3 or 0) x jitter

    @staticmethod
    def _twin_gold_env():
        """Three generated queries with token jitter, plus two queries of
        one spec whose gold answers differ."""
        env = build_env(QueryDistribution(noise_scale=2.0), 3, seed=5, library=LIB,
                        semantic_dim=8)
        twins = tuple(Query(id=qid, text="Calculate the total of 2 and 2.", gold_answer=gold)
                      for qid, gold in (("a", "4"), ("b", "6")))
        spec = SyntheticQuerySpec(0.0, 0, 1)
        return dataclasses.replace(env, queries=env.queries + twins,
                                   specs={**env.specs, **{q.id: spec for q in twins}})

    def test_execute_equals_execute_synthetic_on_every_outcome_class(self):
        # the env shares one outcome per (query, configuration, outcome
        # class): over the default grid, every query and 50 seeds, with and
        # without a draw memo, each equals a fresh execution field for field,
        # the gold answer of twin-spec queries included
        from agentcfg.baselines import default_grid
        from agentcfg.policy import default_mask_table

        env = self._twin_gold_env()
        grid = default_grid(default_mask_table(), LIB)
        answers = set()
        for memo in (None, {}):
            for c in grid:
                for seed in range(50):
                    for q in env.queries:
                        outcome = env.execute(q, c, seed, memo)
                        assert outcome == execute_synthetic(q, env.spec_for(q), c, MODEL,
                                                            LIB, seed)
                        answers.add((q.id, outcome.answer_text))
        assert {("a", "4"), ("b", "6")} <= answers

    def test_a_repeated_outcome_class_is_the_same_object(self):
        env = self._twin_gold_env()
        env = dataclasses.replace(env, specs={
            k: SyntheticQuerySpec(0.4, s.required_tools, s.required_depth, noise_scale=1.0)
            for k, s in env.specs.items()})
        correct = set()
        for c in (cfg(0, budgets=(2, 0, 0)), cfg(7, t1=0b01, budgets=(1, 2, 0))):
            for q in env.queries:
                outcomes = [env.execute(q, c, seed) for seed in range(60)]
                distinct = set(outcomes)
                correct |= {o.correct for o in distinct}
                # one object per distinct outcome
                assert len({id(o) for o in outcomes}) == len(distinct) < len(outcomes)
                assert env.execute(q, c, 0) is outcomes[0]
        assert correct == {True, False}

    @pytest.mark.parametrize("noise_scale", [-1.0, 0.5, 0.9, 1.5, float("nan"), float("inf")])
    def test_noise_scale_must_be_whole_tokens(self, noise_scale):
        # the jitter is a half-width in whole tokens: a fraction would be
        # truncated away
        with pytest.raises(ContractError, match="noise_scale"):
            SyntheticQuerySpec(0.4, 0b01, 2, noise_scale=noise_scale)
        with pytest.raises(ContractError, match="noise_scale"):
            build_env(QueryDistribution(noise_scale=noise_scale), 2, seed=0, library=LIB,
                      semantic_dim=8)

    @pytest.mark.parametrize("tools", [16, -1, 1.0, 0.5, True, False, "1", None])
    def test_required_tools_must_be_a_tool_subset(self, tools):
        # 16 would be a tool query no allocation covers, -1 one requiring all four
        with pytest.raises(ContractError, match="required_tools"):
            SyntheticQuerySpec(0.2, tools, 1)

    def test_required_tools_takes_every_subset(self):
        for tools in [*range(16), np.int64(3)]:
            assert SyntheticQuerySpec(0.2, tools, 1).terms.required_tools == tools

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

    @pytest.mark.parametrize("library", [LIB, default_atom_library()], ids=["compact", "default"])
    def test_matches_a_plain_scan_on_shuffled_and_duplicated_spaces(self, library):
        # the memo and the skipped keys must not change the winner: shuffled
        # orders move the first of several tied configurations, duplicates
        # repeat it, and the default library's atoms of one class tie
        rng = np.random.default_rng(3)
        full = reduced_space(library)
        env = build_env(QueryDistribution(tool_prob=0.5), 6, seed=4, library=library,
                        semantic_dim=8)
        for spec in env.specs.values():
            for subspace in (full, list(rng.permutation(full)),
                             [full[i] for i in rng.integers(0, len(full), 3 * len(full))]):
                best, value = brute_force_best(spec, subspace, MODEL, library, REWARD)
                want, want_value = plain_best(spec, subspace, library)
                assert best is want and value == want_value

    def test_matches_a_plain_scan_on_tie_heavy_spaces(self):
        # inactive agents' budgets and tools, and atoms of one class, change
        # nothing: every value below comes many times over
        library = default_atom_library()
        spec = SyntheticQuerySpec(0.3, 0, 1)
        subspace = [
            Configuration(StructureAction(wf, t1, t2, (b1, b2, b3)), p)
            for wf in (0, 8)
            for t1 in (0, 1)
            for t2 in (0, 3)
            for b1, b2, b3 in itertools.product((0, 2), repeat=3)
            for p in single_atom_prompt_options(1, library)
        ]
        rng = np.random.default_rng(5)
        for order in (subspace, subspace[::-1], list(rng.permutation(subspace))):
            best, value = brute_force_best(spec, order, MODEL, library, REWARD)
            want, want_value = plain_best(spec, order, library)
            assert best is want and value == want_value
        a = cfg(0, prompts=((0,),))
        duplicates = [a, cfg(0, prompts=((0,),))]
        assert brute_force_best(spec, duplicates, MODEL, LIB, REWARD)[0] is a
        assert plain_best(spec, duplicates)[0] is a

    def test_scores_each_configuration_once(self, monkeypatch):
        # one expected_reward call per configuration the subspace yields
        import agentcfg.env as envmod
        calls = []
        scored = envmod.expected_reward

        def counting(*args, **kwargs):
            calls.append(args[1])
            return scored(*args, **kwargs)

        monkeypatch.setattr(envmod, "expected_reward", counting)
        subspace = reduced_space(LIB)
        brute_force_best(SyntheticQuerySpec(0.2, 0b01, 2), subspace, MODEL, LIB, REWARD)
        assert calls == subspace


class TestSingleAtomOptions:
    def test_counts(self):
        # Direct: () or one of two reasoner atoms; ReasonVerifyAns crosses
        # in one verifier and one answerer atom
        assert single_atom_prompt_options(1, LIB) == [((),), ((0,),), ((1,),)]
        assert len(single_atom_prompt_options(3, LIB)) == 3 * 2 * 2
        assert len(single_atom_prompt_options(3, default_atom_library())) == 5 * 4 * 4

    def test_best_equals_best_over_every_prompt_sequence(self):
        # every ordered sequence of distinct atoms of any role, up to the
        # length cap: 1 + 4 + 12 + 24 + 24 = 65 per agent
        sequences = [seq for n in range(len(LIB) + 1)
                     for seq in itertools.permutations(range(len(LIB)), n)]
        assert len(sequences) == 65
        rng = np.random.default_rng(11)
        for _ in range(24):
            spec = SyntheticQuerySpec(float(rng.uniform(0, 1)), int(rng.integers(0, 16)),
                                      int(rng.integers(1, 4)))
            wf = int(rng.choice([0, 1, 5, 7, 8]))   # at most two active agents
            a = StructureAction(wf, int(rng.integers(0, 16)), int(rng.integers(0, 16)),
                                tuple(int(b) for b in rng.integers(0, 3, 3)))
            n = a.workflow.agents_active
            every = [Configuration(a, p) for p in itertools.product(sequences, repeat=n)]
            single = [Configuration(a, p) for p in single_atom_prompt_options(n, LIB)]
            assert (brute_force_best(spec, single, MODEL, LIB, REWARD)[1]
                    == brute_force_best(spec, every, MODEL, LIB, REWARD)[1])


class TestRewardMemo:
    @pytest.mark.parametrize("library", [LIB, default_atom_library()], ids=["compact", "default"])
    def test_same_value_bit_for_bit(self, library):
        space = reduced_space(library)
        for seed in range(3):
            env = build_env(QueryDistribution(tool_prob=0.5, noise_scale=2.0), 4, seed=seed,
                            library=library, semantic_dim=8)
            for spec in env.specs.values():
                memo = {}
                for c in space + space[::-1]:   # the second pass reads the memo
                    assert expected_reward(spec, c, MODEL, library, REWARD, memo) == (
                        expected_reward(spec, c, MODEL, library, REWARD))

    def test_one_memo_serves_one_set_of_inputs(self):
        # a memo passed with another spec, model, library or reward config
        # starts over: every value equals the memo-less one, bit for bit,
        # and so do the first inputs' values when they come back. Equal
        # inputs, even other objects, keep it.
        def score(inputs, c, memo=None):
            spec, model, library, reward_cfg = inputs
            return expected_reward(spec, c, model, library, reward_cfg, memo)

        inputs = (SyntheticQuerySpec(0.2, 0, 1), MODEL, LIB, REWARD)
        space = reduced_space(LIB)
        memo = {}
        for c in space:
            score(inputs, c, memo)
        values = memo["values"]
        score((SyntheticQuerySpec(0.2, 0, 1), SuccessModel(), tuple(LIB), RewardConfig()),
              space[0], memo)
        assert memo["values"] is values
        others = (SyntheticQuerySpec(0.6, 0b10, 1), SuccessModel(w_relevance=2.0),
                  default_atom_library(), RewardConfig(eta=0.0))
        for position, other in enumerate(others):
            changed = inputs[:position] + (other,) + inputs[position + 1:]
            for args in (changed, inputs):
                assert [score(args, c, memo) for c in space] == [score(args, c) for c in space]
            # the other input changes some value, so a stale memo would show
            assert [score(changed, c) for c in space] != [score(inputs, c) for c in space]


_weights = st.floats(-6.0, 6.0)
_penalties = st.just(0.0) | st.floats(0.0, 6.0)


@st.composite
def _configurations(draw, library):
    """A valid configuration of the default table: any workflow, each head
    from its support, and per active agent up to MAX_PROMPT_LEN distinct
    atoms of any role, or none."""
    table = default_mask_table()
    wf = draw(st.sampled_from(np.flatnonzero(table.workflow_mask).tolist()))
    heads = [wf] + [draw(st.sampled_from(s)) for s in table.supports(wf)[1:]]
    structure = StructureAction.from_heads(heads)
    prompts = tuple(
        tuple(draw(st.lists(st.integers(0, len(library) - 1), max_size=MAX_PROMPT_LEN,
                            unique=True)))
        for _ in range(structure.workflow.agents_active))
    return Configuration(structure, prompts)


@st.composite
def _scored_envs(draw):
    """An env of a random query distribution, success model and size (on
    both sides of the array pass's threshold), a random reward config, and
    configurations to score on it."""
    library = draw(st.sampled_from([LIB, default_atom_library()]))
    low, high = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
    dist = QueryDistribution(
        tool_prob=draw(st.floats(0.0, 1.0)),
        depth_probs=tuple(draw(st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))),
        difficulty_low=low, difficulty_high=high,
        noise_scale=float(draw(st.integers(0, 4))))
    model = SuccessModel(*draw(st.lists(_weights, min_size=6, max_size=6)))
    reward_cfg = RewardConfig(
        *draw(st.lists(_penalties, min_size=7, max_size=7)),
        t_max=draw(st.sampled_from([1, 7, 300, 4096]) | st.integers(1, 10_000)))
    n_queries = draw(st.integers(1, 2 * ARRAY_PASS_MIN_QUERIES + 4))
    env = build_env(dist, n_queries, seed=draw(st.integers(0, 2**16)), model=model,
                    library=library, semantic_dim=4)
    configs = draw(st.lists(_configurations(library), min_size=1, max_size=4))
    return env, reward_cfg, configs


class TestExpectedRewards:
    @settings(max_examples=300, deadline=None)
    @given(_scored_envs())
    def test_equals_the_scalar_kernel_bit_for_bit(self, scored):
        env, reward_cfg, configs = scored
        for c in configs:
            values = env.expected_rewards(c, reward_cfg)
            scalar = [env.expected_reward(q, c, reward_cfg) for q in env.queries]
            assert [v.hex() for v in values] == [v.hex() for v in scalar]


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
        assert s.as_vector().shape == (37,)

    def test_embedding_computed_once_and_read_only(self):
        env = build_env(QueryDistribution(), 4, seed=5, semantic_dim=32)
        s = env.embed(env.queries[0])
        assert env.embed(env.queries[0]) is s
        fresh = SyntheticEnv(queries=env.queries, specs=env.specs, semantic_dim=32)
        assert fresh.embed(env.queries[0]).key() == s.key()
        for arr in (s.semantic, s.features):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestEnvValue:
    def test_env_is_a_frozen_value(self):
        env = build_env(QueryDistribution(tool_prob=0.5), ARRAY_PASS_MIN_QUERIES, seed=6,
                        semantic_dim=8)
        for name in ("queries", "specs", "model", "library", "semantic_dim"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(env, name, getattr(env, name))
        with pytest.raises(TypeError):
            env.specs["q0000"] = SyntheticQuerySpec(0.5, 0, 1)
        assert isinstance(env.queries, tuple) and isinstance(env.library, tuple)
        # the env keeps its own copy of the specs it was built from
        specs = dict(env.specs)
        kept = SyntheticEnv(queries=env.queries, specs=specs, semantic_dim=8)
        specs["q0000"] = SyntheticQuerySpec(0.5, 0, 1)
        assert kept == env
        c = cfg(7, t1=0b01, budgets=(1, 2, 0))
        want = env.expected_rewards(c, REWARD)
        for twin in (copy.deepcopy(env), pickle.loads(pickle.dumps(env))):
            assert twin == env and twin is not env
            assert twin.expected_rewards(c, REWARD) == want
            assert [twin.execute(q, c, 3) for q in twin.queries] == [
                env.execute(q, c, 3) for q in env.queries]
            with pytest.raises(TypeError):
                twin.specs["q0000"] = SyntheticQuerySpec(0.5, 0, 1)

    def test_env_refuses_a_query_without_a_spec(self):
        queries = [Query(id=qid, text="Describe the art museum.") for qid in ("a", "b", "c")]
        with pytest.raises(ContractError, match=r"\['a', 'c'\]"):
            SyntheticEnv(queries=queries, specs={"b": SyntheticQuerySpec(0.5, 0, 1)})

    def test_unknown_query_id_names_it(self):
        env = build_env(QueryDistribution(), 2, seed=6, semantic_dim=8)
        stranger = Query(id="q9999", text="Describe the art museum.")
        c = cfg(0)
        for call in (lambda: env.spec_for(stranger), lambda: env.execute(stranger, c, 0),
                     lambda: env.expected_reward(stranger, c, REWARD)):
            with pytest.raises(ContractError, match="'q9999'"):
                call()
