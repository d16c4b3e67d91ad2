"""Domain types: featurization, action indexing, episode schema."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcfg.core import (
    MAX_PROMPT_LEN,
    N_TIERS,
    N_TOOL_SUBSETS,
    N_WORKFLOWS,
    STRUCT_SPACE_SIZE,
    TIER_TOKENS,
    TOOL_REGISTRY,
    WORKFLOWS,
    Configuration,
    EpisodeRecord,
    ExecutionOutcome,
    ExperienceBuffer,
    PromptAtom,
    StateEmbedding,
    StructureAction,
    decode_structure_action,
    extract_features,
    index_structure_action,
    toolset_from_names,
    toolset_members,
    toolset_size,
    validate_library,
    validate_prompt_sequence,
)
from agentcfg.errors import ContractError


class TestWorkflowRegistry:
    def test_exactly_nine_workflows(self):
        assert len(WORKFLOWS) == 9
        assert [wf.id for wf in WORKFLOWS] == list(range(9))

    def test_call_counts(self):
        expected = {
            "Direct": (1, 1), "ReasonAns": (2, 2), "ReasonVerifyAns": (3, 3),
            "Routing": (3, 3), "ParallelSectioning": (4, 4), "ParallelVoting": (4, 4),
            "OrchestratorWorkers": (4, 4), "EvaluatorOptimizer": (4, 7),
            "AutonomousAgent": (4, 4),
        }
        for wf in WORKFLOWS:
            assert (wf.min_calls, wf.max_calls) == expected[wf.name]

    def test_agent2_tools_allowed(self):
        denied = {wf.name for wf in WORKFLOWS if not wf.agent2_tools_allowed}
        assert denied == {"Direct", "ReasonAns", "ParallelVoting"}

    def test_agents_active_range(self):
        for wf in WORKFLOWS:
            assert 1 <= wf.agents_active <= 3


class TestToolsets:
    def test_registry(self):
        assert TOOL_REGISTRY == ("calculator", "web_search", "python_exec", "lookup")
        assert N_TOOL_SUBSETS == 16

    def test_membership_bijective(self):
        seen = set()
        for mask in range(16):
            members = toolset_members(mask)
            assert toolset_size(mask) == len(members)
            assert toolset_from_names(members) == mask
            seen.add(members)
        assert len(seen) == 16

    def test_tier_tokens_monotone(self):
        assert TIER_TOKENS == (256, 1024, 4096)
        assert list(TIER_TOKENS) == sorted(TIER_TOKENS)


class TestExtractFeatures:
    def test_appendix_example_query(self):
        f = extract_features(
            "John has 5 apples. He gives 2 to Mary. How many does John have left?"
        )
        assert f.word_count == 15
        assert f.numerical_density == pytest.approx(2 / 15)
        assert f.multi_step_flag is True
        assert f.tool_flag is True

    def test_empty_text(self):
        f = extract_features("")
        assert f.word_count == 0
        assert f.numerical_density == 0.0
        assert f.multi_step_flag is False and f.tool_flag is False

    def test_short_arithmetic(self):
        f = extract_features("What is 2+2?")
        assert f.word_count == 3
        assert f.numerical_density == pytest.approx(1 / 3)

    @given(st.text(max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_density_in_unit_interval_and_pure(self, text):
        f1 = extract_features(text)
        f2 = extract_features(text)
        assert 0.0 <= f1.numerical_density <= 1.0
        assert f1 == f2

    def test_vector_shape(self):
        assert extract_features("hi there").as_vector().shape == (5,)


class TestActionIndexing:
    def test_space_size(self):
        assert STRUCT_SPACE_SIZE == 62208
        assert N_WORKFLOWS * N_TOOL_SUBSETS**2 * N_TIERS**3 == 62208

    def test_minimal_element(self):
        a = StructureAction(0, 0, 0, (0, 0, 0))
        assert index_structure_action(a) == 0
        assert decode_structure_action(0) == a

    def test_maximal_element(self):
        a = decode_structure_action(62207)
        assert a == StructureAction(8, 15, 15, (2, 2, 2))
        assert index_structure_action(a) == 62207

    def test_roundtrip_exhaustive(self):
        for i in range(STRUCT_SPACE_SIZE):
            assert index_structure_action(decode_structure_action(i)) == i

    @given(
        st.integers(0, 8), st.integers(0, 15), st.integers(0, 15),
        st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)),
    )
    def test_roundtrip_from_action(self, wf, t1, t2, budgets):
        a = StructureAction(wf, t1, t2, budgets)
        assert decode_structure_action(index_structure_action(a)) == a
        assert StructureAction.from_heads(a.heads) == a

    def test_out_of_range_decode(self):
        with pytest.raises(ContractError):
            decode_structure_action(62208)
        with pytest.raises(ContractError):
            decode_structure_action(-1)

    def test_invalid_action_fields(self):
        with pytest.raises(ContractError):
            StructureAction(9, 0, 0, (0, 0, 0))
        with pytest.raises(ContractError):
            StructureAction(0, 16, 0, (0, 0, 0))
        with pytest.raises(ContractError):
            StructureAction(0, 0, 0, (0, 0, 3))


class TestPromptSequences:
    def test_validation(self):
        validate_prompt_sequence((0, 1, 2, 3), 10)
        with pytest.raises(ContractError):
            validate_prompt_sequence((0, 1, 2, 3, 4), 10)  # too long
        with pytest.raises(ContractError):
            validate_prompt_sequence((1, 1), 10)  # repeat
        with pytest.raises(ContractError):
            validate_prompt_sequence((11,), 10)  # out of range
        assert MAX_PROMPT_LEN == 4

    def test_library_ids_dense(self):
        atoms = [PromptAtom(0, "reasoner", "a"), PromptAtom(1, "verifier", "b")]
        validate_library(atoms)
        with pytest.raises(ContractError):
            validate_library([PromptAtom(1, "reasoner", "a")])

    def test_atom_role_checked(self):
        with pytest.raises(ContractError):
            PromptAtom(0, "oracle", "x")


class TestConfiguration:
    def test_prompt_arity_must_match_active_agents(self):
        direct = StructureAction(0, 0, 0, (0, 0, 0))
        Configuration(direct, ((),))
        with pytest.raises(ContractError):
            Configuration(direct, ((), ()))


def _make_record(reward_terms=(5.0, -0.02, -0.001, 0.0), seed=7):
    state = StateEmbedding(semantic=np.zeros(4), features=np.zeros(5))
    action = StructureAction(1, 3, 0, (1, 0, 0))
    outcome = ExecutionOutcome("42", True, 2, 300, 1, 2)
    return EpisodeRecord(
        state=state,
        structure_action=action,
        prompt_actions=((0,), ()),
        outcome=outcome,
        reward=sum(reward_terms),
        reward_breakdown=tuple(reward_terms),
        seed=seed,
    )


class TestEpisodeRecord:
    def test_reward_must_match_breakdown(self):
        with pytest.raises(ContractError):
            EpisodeRecord(
                state=StateEmbedding(np.zeros(4), np.zeros(5)),
                structure_action=StructureAction(0, 0, 0, (0, 0, 0)),
                prompt_actions=((),),
                outcome=ExecutionOutcome("x", False, 1, 10, 0, 0),
                reward=1.0,
                reward_breakdown=(0.0, 0.0, 0.0, 0.0),
                seed=0,
            )

    def test_json_schema_field_names(self):
        d = _make_record().to_json_dict()
        assert list(d.keys()) == [
            "state_semantic", "state_features", "workflow", "tools1", "tools2",
            "budgets", "prompts", "answer_text", "correct", "n_steps", "n_tokens",
            "n_tools_used", "n_tools_allocated", "reward", "reward_terms", "seed",
        ]

    def test_json_roundtrip(self):
        r = _make_record()
        r2 = EpisodeRecord.from_json_dict(r.to_json_dict())
        assert r2.to_json_dict() == r.to_json_dict()

    def test_buffer_order(self):
        buf = ExperienceBuffer()
        records = [_make_record(seed=i) for i in range(5)]
        for r in records:
            buf.append(r)
        assert list(buf) == records
        assert len(buf) == 5


class TestStateEmbedding:
    def test_key_quantization(self):
        a = StateEmbedding(np.array([0.1234567]), np.zeros(5))
        b = StateEmbedding(np.array([0.12345672]), np.zeros(5))
        assert a.key() == b.key()

    def test_nonfinite_rejected(self):
        with pytest.raises(ContractError):
            StateEmbedding(np.array([np.nan]), np.zeros(5))

    def test_dim(self):
        s = StateEmbedding(np.zeros(64), np.zeros(5))
        assert s.as_vector().shape == (69,)

    def test_vector_is_built_once_and_read_only(self):
        rng = np.random.default_rng(4)
        s = StateEmbedding(rng.normal(size=8), rng.normal(size=5) * 50)
        v = s.as_vector()
        assert s.as_vector() is v and not v.flags.writeable
        want = np.concatenate([s.semantic, s.features / np.array([100.0, 20.0, 1.0, 1.0, 1.0])])
        assert v.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            v[0] = 1.0
        with pytest.raises(ValueError):
            v += 1.0
        assert v.tobytes() == want.tobytes()

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_build_an_equal_read_only_vector(self, clone):
        rng = np.random.default_rng(5)
        s = StateEmbedding(rng.normal(size=8), rng.normal(size=5))
        for touched in (False, True):
            if touched:
                s.as_vector()
            c = clone(s)
            v = c.as_vector()
            assert v.tobytes() == s.as_vector().tobytes()
            assert c.as_vector() is v and not v.flags.writeable

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda s: pickle.loads(pickle.dumps(s))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_key_is_built_once_and_rebuilt_by_copies(self, clone):
        rng = np.random.default_rng(6)
        s = StateEmbedding(rng.normal(size=8), rng.normal(size=5))
        k = s.key()
        assert s.key() is k and k == tuple(np.round(s.as_vector(), 6).tolist())
        c = clone(s)
        assert "_key" not in vars(c) and "_vector" not in vars(c)
        assert c.key() == k and c.key() is c.key()
