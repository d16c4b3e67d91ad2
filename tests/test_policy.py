"""Hierarchical policy: mask tables, structure sampling, prompt sequences."""

import copy
import dataclasses
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcfg.core import (
    MAX_PROMPT_LEN,
    N_TIERS,
    N_TOOL_SUBSETS,
    N_WORKFLOWS,
    ROLES,
    STRUCT_SPACE_SIZE,
    Configuration,
    PromptAtom,
    StateEmbedding,
    StructureAction,
    WORKFLOWS,
)
from agentcfg.env import compact_atom_library, default_atom_library
from agentcfg.errors import (ContractError, InvalidActionError, InvalidMaskError,
                             PersistenceError, ShapeError, TrainingDivergenceError)
from agentcfg.numeric import (MaskedCategorical, entropy, log_prob, masked_categorical,
                              masked_softmax, sample)
from agentcfg import numeric
from agentcfg import policy as policy_module
from agentcfg.numeric import DEFAULT_HIDDEN, AdamState, DenseNet, adam_step
from agentcfg.policy import (
    HEAD_NAMES,
    HEAD_SIZES,
    MaskTable,
    PromptPolicy,
    StructurePolicy,
    all_ones_mask_table,
    default_mask_table,
    enumerate_valid,
    enumerate_valid_exhaustive,
    greedy_configuration,
    iter_valid_actions,
    log_prob_prompts,
    log_prob_structure,
    mask_table_from_config,
    sample_prompts,
    sample_prompts_lockstep,
    sample_structure,
)


def reference_structure(policy, table, s, pick):
    """Per-head reference: one MaskedCategorical per head, workflow first;
    pick(dist) returns (choice, log-prob). Returns (action, joint log-prob,
    per-head entropies)."""
    out = policy.trunk.forward(s.as_vector())
    logits = [out[policy_module.head_slice(i)] for i in range(len(HEAD_SIZES))]
    wf_dist = MaskedCategorical(logits[0], table.workflow_mask)
    wf, joint_lp = pick(wf_dist)
    dists = [wf_dist] + [MaskedCategorical(z, m)
                         for z, m in zip(logits[1:], table.masks_for(wf))]
    choices = [wf]
    for d in dists[1:]:
        c, lp = pick(d)
        joint_lp += lp
        choices.append(c)
    action = StructureAction(wf, choices[1], choices[2], tuple(choices[3:]))
    return action, joint_lp, [entropy(d) for d in dists]


def reference_prompts(policy, s, a_struct, pick):
    """Per-row reference of the prompt walk: one step input, mask and
    forward pass at a time. Returns (sequences, steps as (agent, input,
    mask, action, log-prob))."""
    s_vec = s.as_vector()
    sequences, steps = [], []
    for agent in range(a_struct.workflow.agents_active):
        chosen = []
        while True:
            x = policy.step_input(s_vec, a_struct.workflow_id, chosen)
            mask = policy.step_mask(ROLES[agent], chosen, len(chosen))
            action, lp = pick(MaskedCategorical(policy.net.forward(x), mask))
            steps.append((agent, x, mask, action, lp))
            if action == policy.stop_index:
                break
            chosen.append(action)
        sequences.append(tuple(chosen))
    return tuple(sequences), steps


def mode(d):
    return int(np.argmax(masked_softmax(d))), 0.0


def sequential_greedy(struct, prompt, table, s):
    """Reference greedy decode, one agent after another: the argmax of every
    head's `masked_categorical` probabilities, then each agent's prompt walk
    in turn, one one-row prompt-net pass per step."""
    def probs_mode(logits, mask):
        probs = masked_categorical(logits, mask)[0]
        assert np.isfinite(probs.sum())
        return probs.argmax(axis=-1)

    s_vec = s.as_vector()
    logits = struct.trunk.forward(s_vec)
    wf = int(probs_mode(logits[policy_module.head_slice(0)], table.workflow_mask))
    rest = probs_mode(*policy_module._conditioned_heads(logits, table.layout(), wf))
    action = StructureAction.from_heads([wf, *rest])
    sequences = []
    for agent in range(action.workflow.agents_active):
        chosen = []
        while True:
            x = prompt.step_input(s_vec, action.workflow_id, chosen)
            mask = prompt.step_mask(ROLES[agent], chosen, len(chosen))
            atom = int(probs_mode(prompt.net.forward_batch(x[None])[0], mask[None])[0])
            if atom == prompt.stop_index:
                break
            chosen.append(atom)
        sequences.append(tuple(chosen))
    return Configuration(action, tuple(sequences))


def make_state(seed=0, dim=8):
    rng = np.random.default_rng(seed)
    return StateEmbedding(semantic=rng.normal(size=dim), features=rng.normal(size=5))


def ones_head_masks():
    """Editable all-ones masks of the five heads after the workflow head,
    keyed by MaskTable field."""
    return {name: np.ones((N_WORKFLOWS, n)) for name, n in zip(HEAD_NAMES[1:], HEAD_SIZES[1:])}


STATE_DIM = 13  # 8 semantic + 5 features
PROMPT = PromptPolicy(STATE_DIM, compact_atom_library(), hidden=(16,),
                      rng=np.random.default_rng(25))


class TestMaskTable:
    def test_all_ones_count(self):
        assert enumerate_valid(all_ones_mask_table()) == STRUCT_SPACE_SIZE

    def test_default_count_matches_exhaustive(self):
        table = default_mask_table()
        n = enumerate_valid(table)
        assert n == enumerate_valid_exhaustive(table)
        assert n == 31056

    def test_default_direct_row(self):
        # Direct: 16 tools1 x 1 tools2 x 3 budget1 x 1 x 1 = 48 valid actions
        table = default_mask_table()
        direct = [a for a in iter_valid_actions(table) if a.workflow_id == 0]
        assert len(direct) == 48
        assert all(a.tools2 == 0 for a in direct)
        assert all(a.budgets[1] == 0 and a.budgets[2] == 0 for a in direct)

    def test_iter_matches_count(self):
        table = default_mask_table()
        actions = list(iter_valid_actions(table))
        assert len(actions) == enumerate_valid(table)
        assert len(set(map(str, actions))) == len(actions)
        assert all(table.is_valid(a) for a in actions)

    def test_fully_masked_rejected(self):
        with pytest.raises(InvalidMaskError):
            MaskTable(
                workflow_mask=np.zeros(N_WORKFLOWS),
                tools1=np.ones((N_WORKFLOWS, N_TOOL_SUBSETS)),
                tools2=np.ones((N_WORKFLOWS, N_TOOL_SUBSETS)),
                budget1=np.ones((N_WORKFLOWS, N_TIERS)),
                budget2=np.ones((N_WORKFLOWS, N_TIERS)),
                budget3=np.ones((N_WORKFLOWS, N_TIERS)),
            )

    def test_masks_are_stored_as_zero_one(self):
        # An entry is valid when > 0: the closed-form count, the exhaustive
        # count and the enumeration agree on masks that are not 0/1.
        masks = ones_head_masks()
        masks["tools1"][0] = np.eye(N_TOOL_SUBSETS)[3] * 2.0
        masks["budget1"][1, 2] = -1.0
        table = MaskTable(workflow_mask=np.ones(N_WORKFLOWS), **masks)
        assert np.array_equal(table.tools1[0], np.eye(N_TOOL_SUBSETS)[3])
        assert table.budget1[1].tolist() == [1.0, 1.0, 0.0]
        per_workflow = N_TOOL_SUBSETS ** 2 * N_TIERS ** 3
        expected = 7 * per_workflow + per_workflow // N_TOOL_SUBSETS + per_workflow * 2 // 3
        assert enumerate_valid(table) == enumerate_valid_exhaustive(table) == expected
        assert len(list(iter_valid_actions(table))) == expected

    def test_from_config(self):
        table = mask_table_from_config({
            "workflows": ["Direct", "AutonomousAgent"],
            "Direct": {"tools1": [0, 1], "budgets": [["Low", "High"], [0], [0]]},
        })
        assert enumerate_valid(table) == enumerate_valid_exhaustive(table)
        assert table.workflow_mask.sum() == 2
        assert table.is_valid(StructureAction(0, 1, 0, (2, 0, 0)))
        assert not table.is_valid(StructureAction(0, 2, 0, (0, 0, 0)))
        assert not table.is_valid(StructureAction(1, 0, 0, (0, 0, 0)))

    @pytest.mark.parametrize("table", [
        all_ones_mask_table(),
        default_mask_table(),
        mask_table_from_config({"workflows": ["Direct", "ReasonVerifyAns"],
                                "Direct": {"tools1": [0, 1], "budgets": [[0, 2], [0], [0]]}}),
    ])
    def test_supports_agree_with_masks(self, table):
        for wf in range(N_WORKFLOWS):
            supports = table.supports(wf)
            masks = [table.workflow_mask] + table.masks_for(wf)
            assert len(supports) == len(masks) == len(HEAD_NAMES)
            for support, mask in zip(supports, masks):
                assert support == [i for i, m in enumerate(mask) if m > 0]


class TestHeadLayout:
    @pytest.mark.parametrize("table", [
        all_ones_mask_table(),
        default_mask_table(),
        mask_table_from_config({"workflows": ["Direct", "ReasonVerifyAns"],
                                "Direct": {"tools1": [0, 1], "budgets": [[0, 2], [0], [0]]}}),
    ])
    def test_layout_matches_the_masks(self, table):
        layout = table.layout()
        assert table.layout() is layout  # built once per table
        for wf in range(N_WORKFLOWS):
            masks = [table.workflow_mask] + table.masks_for(wf)
            for head, (mask, valid) in enumerate(zip(masks, layout.valid[wf])):
                assert np.array_equal(layout.masks[wf, head, :len(mask)], mask)
                assert not layout.masks[wf, head, len(mask):].any()
                assert valid.tolist() == table.supports(wf)[head]

    def test_in_place_edit_after_first_use_raises(self):
        policy = StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng(30))
        for use in (
            lambda t: None,  # read-only from construction
            lambda t: sample_structure(policy, t, make_state(), np.random.default_rng(0)),
            lambda t: greedy_configuration(policy, PROMPT, t, make_state()),
            lambda t: t.layout(),
        ):
            for name in ("workflow_mask", *HEAD_NAMES[1:]):
                table = default_mask_table()
                before = getattr(table, name).copy()
                use(table)
                with pytest.raises(ValueError, match="read-only"):
                    getattr(table, name)[..., 0] = 0.0
                assert np.array_equal(getattr(table, name), before)

    def test_assigning_a_mask_raises_and_replace_lays_out_anew(self):
        policy = StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng(31))
        table = default_mask_table()
        sample_structure(policy, table, make_state(), np.random.default_rng(0))
        tools1 = np.zeros((N_WORKFLOWS, N_TOOL_SUBSETS))
        tools1[:, 6] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.tools1 = tools1
        changed = dataclasses.replace(table, tools1=tools1)
        rng = np.random.default_rng(1)
        assert all(sample_structure(policy, changed, make_state(), rng)[0].tools1 == 6
                   for _ in range(50))
        assert table.layout().valid[0][1].tolist() == list(range(N_TOOL_SUBSETS))
        with pytest.raises(InvalidMaskError):
            dataclasses.replace(table, tools1=np.zeros((N_WORKFLOWS, N_TOOL_SUBSETS)))

    def test_copies_lay_out_masks_of_their_own(self):
        table = default_mask_table()
        for other in (copy.copy(table), copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
            assert other == table and other.layout() is not table.layout()
            assert all(not getattr(other, name).flags.writeable
                       and getattr(other, name) is not getattr(table, name)
                       for name in ("workflow_mask", *HEAD_NAMES[1:]))
            tools1 = other.tools1.copy()
            tools1[0] = np.eye(N_TOOL_SUBSETS)[2]
            assert dataclasses.replace(other, tools1=tools1).layout().valid[0][1].tolist() == [2]
        assert table.layout().valid[0][1].tolist() == list(range(N_TOOL_SUBSETS))

    def test_table_copies_the_masks_it_is_built_from(self):
        source = ones_head_masks()
        table = MaskTable(workflow_mask=np.eye(N_WORKFLOWS)[0], **source)
        source["tools1"][0, :] = 0.0  # the source stays editable
        source["tools1"][0, 1] = 1.0
        assert table.tools1[0].sum() == N_TOOL_SUBSETS
        assert table.layout().valid[0][1].tolist() == list(range(N_TOOL_SUBSETS))

    def test_tables_are_values(self):
        table, other = default_mask_table(), default_mask_table()
        assert table == other and hash(table) == hash(other)
        assert table != all_ones_mask_table() and table != "table"
        assert len({table, other, all_ones_mask_table()}) == 2
        for copied in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table)):
            assert copied == table and hash(copied) == hash(table)
        assert dataclasses.replace(table) == table
        with pytest.raises(InvalidMaskError):
            dataclasses.replace(table, workflow_mask=np.zeros(N_WORKFLOWS))
        with pytest.raises(ContractError, match="tools1"):
            dataclasses.replace(table, tools1=np.ones((N_WORKFLOWS, N_TIERS)))


class TestStructurePolicy:
    def test_joint_log_prob_factorizes(self):
        policy = StructurePolicy(STATE_DIM, rng=np.random.default_rng(1))
        table = default_mask_table()
        s = make_state(1)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a, lp, ents = sample_structure(policy, table, s, rng)
            assert len(ents) == len(HEAD_SIZES)
            assert log_prob_structure(policy, table, s, a) == lp
            # and to the bit the sum over one MaskedCategorical per head
            heads = iter(a.heads)
            replayed = reference_structure(
                policy, table, s, lambda d: (c := next(heads), log_prob(d, c)))
            assert replayed[:2] == (a, lp)

    def test_forced_one_hot_table_log_prob_zero(self):
        def one_hot(size, choice):
            return np.tile(np.eye(size)[choice], (N_WORKFLOWS, 1))

        table = MaskTable(workflow_mask=np.eye(N_WORKFLOWS)[3],
                          tools1=one_hot(N_TOOL_SUBSETS, 5), tools2=one_hot(N_TOOL_SUBSETS, 5),
                          budget1=one_hot(N_TIERS, 1), budget2=one_hot(N_TIERS, 1),
                          budget3=one_hot(N_TIERS, 1))
        policy = StructurePolicy(STATE_DIM, rng=np.random.default_rng(3))
        a, lp, _ = sample_structure(policy, table, make_state(), np.random.default_rng(0))
        assert a == StructureAction(3, 5, 5, (1, 1, 1))
        assert lp == pytest.approx(0.0, abs=1e-12)

    def test_masked_actions_never_sampled(self):
        policy = StructurePolicy(STATE_DIM, rng=np.random.default_rng(4))
        table = default_mask_table()
        s = make_state(2)
        rng = np.random.default_rng(5)
        # one state under fixed parameters: the trunk runs once, then its cache serves
        for _ in range(100_000):
            a, _, _ = sample_structure(policy, table, s, rng)
            if a.workflow_id in (0, 1, 5):  # Direct, ReasonAns, ParallelVoting
                assert a.tools2 == 0
            if a.workflow.agents_active < 2:
                assert a.budgets[1] == 0
            if a.workflow.agents_active < 3:
                assert a.budgets[2] == 0

    @pytest.mark.parametrize("table", [
        default_mask_table(),
        mask_table_from_config({"workflows": ["Direct", "ReasonVerifyAns"],
                                "Direct": {"tools1": [0, 1], "budgets": [[0, 2], [0], [0]]}}),
    ])
    def test_padded_heads_match_per_head_reference(self, table):
        policy = StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng(20))
        for seed in range(300):
            s = make_state(seed)
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sample_structure(policy, table, s, rng)
            want = reference_structure(policy, table, s, lambda d: sample(d, twin))
            assert got[0] == want[0] and got[1] == want[1] and got[2] == want[2]
            assert rng.random() == twin.random()
            greedy = reference_structure(policy, table, s, mode)[0]
            assert greedy_configuration(policy, PROMPT, table, s).structure == greedy

    @pytest.mark.parametrize("table", [
        default_mask_table(),
        mask_table_from_config({"workflows": ["Direct", "ReasonVerifyAns"],
                                "Direct": {"tools1": [0, 1], "budgets": [[0, 2], [0], [0]]}}),
        all_ones_mask_table(),
    ], ids=["default", "reduced", "all-ones"])
    def test_shared_memo_draws_as_fresh_calls(self, table):
        policy = StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng(35))
        forward = policy.trunk.forward
        passes = []
        policy.trunk.forward = lambda x: passes.append(1) or forward(x)
        states = [make_state(seed) for seed in range(4)]
        cached_passes, workflows = 0, set()
        for i in range(400):
            s = states[i % len(states)]
            rng, twin = np.random.default_rng([36, i]), np.random.default_rng([36, i])
            before = len(passes)
            got = sample_structure(policy, table, s, rng)
            cached_passes += len(passes) - before
            want = sample_structure(copy.deepcopy(policy), table, s, twin)
            assert got[0] == want[0] and got[1] == want[1] and got[2] == want[2]
            assert rng.bit_generator.state == twin.bit_generator.state
            got[2].append(0.0)  # each call returns entropies of its own
            workflows.add((i % len(states), got[0].workflow_id))
        # the trunk ran once per state, then the cache served every draw, of
        # several workflows per state
        entries = policy_module._state_entries(policy.trunk, "sample", table)
        assert cached_passes == len(entries) == len(states)
        assert len(workflows) > len(states)

    def test_invalid_action_log_prob_rejected(self):
        policy = StructurePolicy(STATE_DIM, rng=np.random.default_rng(6))
        table = default_mask_table()
        with pytest.raises(InvalidActionError):
            log_prob_structure(
                policy, table, make_state(), StructureAction(0, 0, 7, (0, 0, 0))
            )

    def test_reduced_space_normalizes(self):
        table = mask_table_from_config({
            "workflows": ["Direct", "ReasonVerifyAns"],
            "Direct": {"tools1": [0, 1, 2, 3], "budgets": [[0, 2], [0], [0]]},
            "ReasonVerifyAns": {"tools1": [0, 1], "tools2": [0],
                                "budgets": [[0, 2], [0, 2], [0, 2]]},
        })
        policy = StructurePolicy(STATE_DIM, rng=np.random.default_rng(7))
        s = make_state(3)
        total = sum(
            math.exp(log_prob_structure(policy, table, s, a))
            for a in iter_valid_actions(table)
        )
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_save_load_roundtrip(self, tmp_path):
        policy = StructurePolicy(STATE_DIM, rng=np.random.default_rng(8))
        table = default_mask_table()
        s = make_state(4)
        a, _, _ = sample_structure(policy, table, s, np.random.default_rng(0))
        lp_before = log_prob_structure(policy, table, s, a)
        policy.save(tmp_path)
        other = StructurePolicy(STATE_DIM, rng=np.random.default_rng(999))
        other.load(tmp_path)
        assert log_prob_structure(other, table, s, a) == lp_before

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_sampled_actions_always_valid(self, seed):
        policy = StructurePolicy(STATE_DIM, rng=np.random.default_rng(9))
        table = default_mask_table()
        a, _, _ = sample_structure(
            policy, table, make_state(5), np.random.default_rng(seed)
        )
        assert table.is_valid(a)


class TestPromptPolicy:
    def test_sequence_invariants(self):
        library = default_atom_library()
        policy = PromptPolicy(STATE_DIM, library, rng=np.random.default_rng(10))
        s = make_state(6)
        rng = np.random.default_rng(11)
        roles = {a.id: a.role for a in library}
        for trial in range(2_000):
            a = StructureAction(int(rng.integers(0, 9)), 0, 0, (0, 0, 0))
            seqs, steps = sample_prompts(policy, s, a, rng)
            assert len(seqs) == a.workflow.agents_active
            for agent, seq in enumerate(seqs):
                assert len(seq) <= 4
                assert len(set(seq)) == len(seq)
                role = ("reasoner", "verifier", "answerer")[agent]
                assert all(roles[atom] == role for atom in seq)
            lp_steps = sum(step.log_prob for step in steps)
            assert lp_steps == pytest.approx(
                log_prob_prompts(policy, s, a, seqs), abs=1e-12
            )

    def test_lockstep_walk_matches_per_episode_reference(self):
        library = default_atom_library()
        policy = PromptPolicy(STATE_DIM, library, hidden=(16,), rng=np.random.default_rng(21))
        pick = np.random.default_rng(22)
        states = [make_state(i) for i in range(40)]
        actions = [StructureAction(int(pick.integers(0, 9)), 0, 0, (0, 0, 0)) for _ in states]
        rngs = [np.random.default_rng([23, i]) for i in range(40)]
        twins = [np.random.default_rng([23, i]) for i in range(40)]
        walks = sample_prompts_lockstep(policy, states, actions, rngs)
        for i, ((seqs, steps), s, a) in enumerate(zip(walks, states, actions)):
            ref_seqs, ref_steps = reference_prompts(policy, s, a, lambda d: sample(d, twins[i]))
            assert seqs == ref_seqs
            assert len(steps) == len(ref_steps)
            for step, (agent, x, mask, action, lp) in zip(steps, ref_steps):
                assert (step.agent, step.action) == (agent, action)
                assert np.array_equal(step.input_vec, x) and np.array_equal(step.mask, mask)
                assert step.log_prob == pytest.approx(lp, abs=1e-12)
            assert rngs[i].random() == twins[i].random()
            # one episode alone walks as the reference does, bit for bit
            one, twin = np.random.default_rng([23, i]), np.random.default_rng([23, i])
            alone_seqs, alone_steps = sample_prompts(policy, s, a, one)
            ref_seqs, ref_steps = reference_prompts(policy, s, a, lambda d: sample(d, twin))
            assert alone_seqs == ref_seqs
            assert [st.log_prob for st in alone_steps] == [lp for *_, lp in ref_steps]

    def test_shared_memo_walks_as_fresh_calls(self):
        policy = PromptPolicy(STATE_DIM, default_atom_library(), hidden=(16,),
                              rng=np.random.default_rng(32))
        pick = np.random.default_rng(33)
        forward_rows = policy.net.forward_rows
        passes = []
        policy.net.forward_rows = lambda x: passes.append(len(x)) or forward_rows(x)
        cached_passes = fresh_passes = 0
        for i in range(300):
            s = make_state(i % 3)
            a = StructureAction(int(pick.integers(0, 9)), 0, 0, (0, 0, 0))
            rng, twin = np.random.default_rng([34, i]), np.random.default_rng([34, i])
            before = len(passes)
            seqs, steps = sample_prompts(policy, s, a, rng)
            cached_passes += len(passes) - before
            fresh_seqs, fresh_steps = sample_prompts(copy.deepcopy(policy), s, a, twin)
            fresh_passes += len(fresh_steps)
            assert seqs == fresh_seqs and len(steps) == len(fresh_steps)
            for step, fresh in zip(steps, fresh_steps):
                assert (step.agent, step.action, step.log_prob) == (
                    fresh.agent, fresh.action, fresh.log_prob)
                assert np.array_equal(step.input_vec, fresh.input_vec)
                assert np.array_equal(step.mask, fresh.mask)
            assert rng.bit_generator.state == twin.bit_generator.state
        # each distinct step ran through the net once, then came from the cache
        assert cached_passes == len(policy.net.params.cache["steps"]) < fresh_passes / 2

    def test_non_finite_prompt_net_raises_divergence(self):
        policy = PromptPolicy(STATE_DIM, compact_atom_library(), hidden=(16,),
                              rng=np.random.default_rng(24))
        policy.net.params[-1][...] = np.nan
        a = StructureAction(2, 0, 0, (0, 0, 0))
        with pytest.raises(TrainingDivergenceError):
            sample_prompts_lockstep(policy, [make_state(0), make_state(1)], [a, a],
                                    [np.random.default_rng(0), np.random.default_rng(1)])

    def test_empty_role_pool_stops_immediately(self):
        library = (PromptAtom(0, "reasoner", "think"),)
        policy = PromptPolicy(STATE_DIM, library, rng=np.random.default_rng(12))
        s = make_state(7)
        # ReasonVerifyAns activates 3 agents; verifier/answerer pools are empty
        a = StructureAction(2, 0, 0, (0, 0, 0))
        seqs, _ = sample_prompts(policy, s, a, np.random.default_rng(0))
        assert seqs[1] == () and seqs[2] == ()

    def test_invalid_sequence_rejected(self):
        library = compact_atom_library()
        policy = PromptPolicy(STATE_DIM, library, rng=np.random.default_rng(13))
        s = make_state(8)
        a = StructureAction(0, 0, 0, (0, 0, 0))
        with pytest.raises(InvalidActionError):
            log_prob_prompts(policy, s, a, ((2,),))  # verifier atom for reasoner
        with pytest.raises(InvalidActionError):
            log_prob_prompts(policy, s, a, ((0, 0),))  # repeat
        with pytest.raises(InvalidActionError):
            log_prob_prompts(policy, s, a, ((0,), (2,)))  # arity mismatch

    def test_save_load_roundtrip(self, tmp_path):
        library = compact_atom_library()
        policy = PromptPolicy(STATE_DIM, library, rng=np.random.default_rng(14))
        s = make_state(9)
        a = StructureAction(2, 0, 0, (0, 0, 0))
        lp = log_prob_prompts(policy, s, a, ((0, 1), (2,), (3,)))
        policy.save(tmp_path)
        other = PromptPolicy(STATE_DIM, library, rng=np.random.default_rng(15))
        other.load(tmp_path)
        assert log_prob_prompts(other, s, a, ((0, 1), (2,), (3,))) == lp


def test_step_mask_hands_out_copies():
    library = default_atom_library()
    policy = PromptPolicy(STATE_DIM, library, hidden=(16,), rng=np.random.default_rng(44))
    for role in ROLES:
        want = [1.0 if a.role == role else 0.0 for a in library] + [1.0]
        first = policy.step_mask(role, (), 0)
        assert first.tolist() == want
        first[:] = 7.0
        assert policy.step_mask(role, (), 0).tolist() == want
    stop_only = [0.0] * len(library) + [1.0]
    capped = policy.step_mask(ROLES[0], (), MAX_PROMPT_LEN)
    assert capped.tolist() == stop_only
    capped[:] = 7.0
    assert policy.step_mask(ROLES[2], (1,), MAX_PROMPT_LEN).tolist() == stop_only
    assert policy._stop_only.tolist() == stop_only


def test_successive_calls_equal_calls_on_fresh_copies():
    # Every call leaves the policy's caches, its start masks and the state's
    # vector as a fresh copy of each would have them.
    library = default_atom_library()
    struct = StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng(45))
    prompt = PromptPolicy(STATE_DIM, library, hidden=(16,), rng=np.random.default_rng(46))
    table = default_mask_table()
    for i, s in enumerate(map(make_state, range(6))):
        for call in range(2):
            fresh = copy.deepcopy((struct, prompt, s))
            config = greedy_configuration(struct, prompt, table, s)
            assert config == greedy_configuration(fresh[0], fresh[1], table, fresh[2])
            seqs, steps = sample_prompts(prompt, s, config.structure,
                                         np.random.default_rng([47, i, call]))
            want_seqs, want_steps = sample_prompts(fresh[1], fresh[2], config.structure,
                                                   np.random.default_rng([47, i, call]))
            assert seqs == want_seqs and len(steps) == len(want_steps)
            for got, want in zip(steps, want_steps):
                assert (got.agent, got.action, got.log_prob) == (want.agent, want.action,
                                                                  want.log_prob)
                assert got.input_vec.tobytes() == want.input_vec.tobytes()
                assert got.mask.tobytes() == want.mask.tobytes()


def test_log_prob_prompts_records_no_steps_and_copies_only_misses(monkeypatch):
    prompt = PromptPolicy(STATE_DIM, compact_atom_library(), hidden=(16,),
                          rng=np.random.default_rng(41))
    s, a = make_state(3), StructureAction(2, 0, 0, (0, 0, 0))
    seqs = ((0, 1), (2,), (3,))
    want = log_prob_prompts(copy.deepcopy(prompt), s, a, seqs)
    built, rows = [], []
    monkeypatch.setattr(policy_module, "PromptStep", lambda *args: built.append(args))
    forward_rows = prompt.net.forward_rows
    prompt.net.forward_rows = lambda x: rows.append(len(x)) or forward_rows(x)
    cache = prompt.net.params.cache
    assert log_prob_prompts(prompt, s, a, seqs) == want
    assert rows == [len(cache["steps"])] == [sum(len(q) + 1 for q in seqs)]
    # a second scoring reads every step from the cache: no pass, no copy
    assert log_prob_prompts(prompt, s, a, seqs) == want
    assert rows == [len(cache["steps"])] and built == []


def test_sampling_and_scoring_share_one_step_table():
    prompt = PromptPolicy(STATE_DIM, compact_atom_library(), hidden=(16,),
                          rng=np.random.default_rng(42))
    scorer, pristine = copy.deepcopy(prompt), copy.deepcopy(prompt)

    def counted(policy):
        """The row counts of policy's `forward_rows` passes, as they run."""
        rows, forward_rows = [], policy.net.forward_rows
        policy.net.forward_rows = lambda x: rows.append(len(x)) or forward_rows(x)
        return rows

    s, a = make_state(4), StructureAction(2, 0, 0, (0, 0, 0))
    # a score after a sample reads every step the sample filled: no pass
    rows = counted(prompt)
    seqs, steps = sample_prompts(prompt, s, a, np.random.default_rng(43))
    filled = len(prompt.net.params.cache["steps"])
    assert log_prob_prompts(prompt, s, a, seqs) == np.array([st.log_prob for st in steps]).sum()
    assert sum(rows) == filled == len(prompt.net.params.cache["steps"])
    # a sample after a score passes only the steps the score did not fill,
    # and draws as a fresh copy does
    rows = counted(scorer)
    log_prob_prompts(scorer, s, a, seqs)
    table = scorer.net.params.cache["steps"]
    for seed in range(44, 54):
        before, held = len(rows), set(table)
        got_seqs, got = sample_prompts(scorer, s, a, np.random.default_rng(seed))
        want_seqs, want = sample_prompts(copy.deepcopy(pristine), s, a,
                                         np.random.default_rng(seed))
        assert got_seqs == want_seqs
        assert [st.log_prob for st in got] == [st.log_prob for st in want]
        misses = {st.input_vec.tobytes() + st.mask.tobytes() for st in got} - held
        assert len(rows) - before == len(misses)


@pytest.mark.parametrize("table", [
    default_mask_table(),
    mask_table_from_config({"workflows": ["Direct", "ReasonVerifyAns"],
                            "Direct": {"tools1": [0, 1], "budgets": [[0, 2], [0], [0]]}}),
], ids=["default", "reduced"])
def test_shared_memos_score_as_fresh_calls(table):
    struct = StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng(37))
    prompt = PromptPolicy(STATE_DIM, default_atom_library(), hidden=(16,),
                          rng=np.random.default_rng(38))
    forward, forward_rows = struct.trunk.forward, prompt.net.forward_rows
    passes, rows = [], []
    struct.trunk.forward = lambda x: passes.append(1) or forward(x)
    prompt.net.forward_rows = lambda x: rows.append(len(x)) or forward_rows(x)
    states = [make_state(seed) for seed in range(5)]
    # the samples come from copies, so they fill none of the scored policy's entries
    sampler_struct, sampler_prompt = copy.deepcopy(struct), copy.deepcopy(prompt)
    cached_passes = cached_rows = n_steps = 0
    for i in range(300):
        s = states[i % len(states)]
        rng = np.random.default_rng([39, i])
        a = sample_structure(sampler_struct, table, s, rng)[0]
        seqs, steps = sample_prompts(sampler_prompt, s, a, rng)
        n_steps += len(steps)
        before = len(passes), len(rows)
        lp = log_prob_structure(struct, table, s, a)
        prompt_lp = log_prob_prompts(prompt, s, a, seqs)
        cached_passes += len(passes) - before[0]
        cached_rows += sum(rows[before[1]:])
        assert lp == log_prob_structure(copy.deepcopy(struct), table, s, a)
        assert prompt_lp == log_prob_prompts(copy.deepcopy(prompt), s, a, seqs)
        # each step scores as the one-row pass that drew it
        assert prompt_lp == np.array([st.log_prob for st in steps]).sum()
    # one trunk pass per state and one net row per distinct step
    scored = policy_module._state_entries(struct.trunk, "score", table)
    assert cached_passes == len(scored) == len(states)
    assert cached_rows == len(prompt.net.params.cache["steps"]) < n_steps / 2
    # sampling keeps entries of its own beside the scoring ones, draws as a
    # fresh copy does, and leaves the scores as they were
    for i in range(100):
        s = states[i % len(states)]
        rng, twin = np.random.default_rng([40, i]), np.random.default_rng([40, i])
        got = sample_structure(struct, table, s, rng)
        want = sample_structure(copy.deepcopy(struct), table, s, twin)
        assert got[0] == want[0] and got[1] == want[1] and got[2] == want[2]
        assert rng.bit_generator.state == twin.bit_generator.state
        assert log_prob_structure(struct, table, s, got[0]) == got[1]
    assert len(scored) == len(states)
    assert len(policy_module._state_entries(struct.trunk, "sample", table)) == len(states)


class TestGreedyConfiguration:
    def test_non_finite_nets_raise_divergence(self, monkeypatch):
        # Direct masked: argmax of an all-NaN row (index 0) is invalid here.
        table = mask_table_from_config({"workflows": ["ReasonAns", "ReasonVerifyAns"]})
        library = compact_atom_library()
        s = make_state(12)
        struct = StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng(27))
        prompt = PromptPolicy(STATE_DIM, library, hidden=(16,), rng=np.random.default_rng(28))
        struct.trunk.params[-1][...] = np.nan
        with pytest.raises(TrainingDivergenceError):
            greedy_configuration(struct, prompt, table, s)

        # A NaN prompt net would otherwise re-pick a masked atom without end.
        struct = StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng(27))
        prompt.net.params[-1][...] = np.nan
        calls = []
        prompt_logits = policy_module._prompt_logits

        def bounded(*args):
            calls.append(1)
            assert len(calls) <= 50, "prompt walk did not stop"
            return prompt_logits(*args)

        monkeypatch.setattr(policy_module, "_prompt_logits", bounded)
        with pytest.raises(TrainingDivergenceError):
            greedy_configuration(struct, prompt, table, s)

    def test_matches_per_head_and_per_row_reference(self):
        table = default_mask_table()
        struct = StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng(26))
        for seed in range(100):
            s = make_state(seed)
            action = reference_structure(struct, table, s, mode)[0]
            want = Configuration(action, reference_prompts(PROMPT, s, action, mode)[0])
            assert greedy_configuration(struct, PROMPT, table, s) == want

    @pytest.mark.parametrize("library", [compact_atom_library(), default_atom_library()],
                             ids=["compact", "default"])
    def test_lockstep_decode_matches_sequential_reference(self, library):
        tables = [default_mask_table()] + [mask_table_from_config({"workflows": [wf.name]})
                                           for wf in WORKFLOWS]
        seen = set()
        for seed, hidden in [(0, (16,)), (1, (32, 32)), (2, (8,)), (3, DEFAULT_HIDDEN)]:
            struct = StructurePolicy(STATE_DIM, hidden=hidden, rng=np.random.default_rng([seed, 1]))
            prompt = PromptPolicy(STATE_DIM, library, hidden=hidden,
                                  rng=np.random.default_rng([seed, 2]))
            for table in tables:
                for s in map(make_state, range(4)):
                    want = sequential_greedy(struct, prompt, table, s)
                    assert greedy_configuration(struct, prompt, table, s) == want
                    seen.add(want.structure.workflow_id)
        assert seen == {wf.id for wf in WORKFLOWS}

    def test_lockstep_decode_at_the_length_cap(self):
        # Six atoms per role and a prompt net biased never to STOP: every
        # agent walks until the MAX_PROMPT_LEN cap leaves STOP alone.
        library = tuple(PromptAtom(i, ROLES[i % 3], f"atom {i}") for i in range(18))
        struct = StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng(40))
        prompt = PromptPolicy(STATE_DIM, library, hidden=(16,), rng=np.random.default_rng(41))
        prompt.net.params[-1][prompt.stop_index] = -1e3
        for wf in WORKFLOWS:
            table = mask_table_from_config({"workflows": [wf.name]})
            for s in map(make_state, range(3)):
                got = greedy_configuration(struct, prompt, table, s)
                assert got == sequential_greedy(struct, prompt, table, s)
                assert [len(seq) for seq in got.prompts] == [MAX_PROMPT_LEN] * wf.agents_active

    def test_deterministic_and_valid(self):
        table = default_mask_table()
        library = compact_atom_library()
        struct = StructurePolicy(STATE_DIM, rng=np.random.default_rng(16))
        prompt = PromptPolicy(STATE_DIM, library, rng=np.random.default_rng(17))
        s = make_state(10)
        c1 = greedy_configuration(struct, prompt, table, s)
        c2 = greedy_configuration(struct, prompt, table, s)
        assert c1 == c2
        assert table.is_valid(c1.structure)
        assert len(c1.prompts) == c1.structure.workflow.agents_active

    def test_greedy_is_modal_structure(self):
        # On a tiny space the greedy structure must be the max-probability one.
        table = mask_table_from_config({
            "workflows": ["Direct"],
            "Direct": {"tools1": [0, 1], "budgets": [[0, 2], [0], [0]]},
        })
        library = compact_atom_library()
        struct = StructurePolicy(STATE_DIM, rng=np.random.default_rng(18))
        prompt = PromptPolicy(STATE_DIM, library, rng=np.random.default_rng(19))
        s = make_state(11)
        chosen = greedy_configuration(struct, prompt, table, s).structure
        best = max(
            iter_valid_actions(table),
            key=lambda a: log_prob_structure(struct, table, s, a),
        )
        assert chosen == best


_ENTRY_KINDS = ("free", "top", "top", "below", "above", "gap", "gap", "ulps", "-inf")


@st.composite
def mode_inputs(draw):
    """One row (1-D) or up to four rows (2-D) of 1-16 logits with a random
    mask. Each row's entries are drawn around a base value: equal to it, its
    `np.nextafter` neighbours, a few ulps off, a gap around 1e-12 either
    way, any finite value up to 1e300 in magnitude, or -inf; then one entry
    at any position may become +inf or nan."""
    width = draw(st.integers(1, 16))
    n_rows = draw(st.integers(0, 4))  # 0: a 1-D row
    rows, masks = [], []
    for _ in range(max(n_rows, 1)):
        base = draw(st.one_of(st.floats(-1e300, 1e300), st.floats(-10.0, 10.0)))
        row = []
        for _ in range(width):
            kind = draw(st.sampled_from(_ENTRY_KINDS))
            if kind == "free":
                row.append(draw(st.floats(-1e300, 1e300)))
            elif kind == "top":
                row.append(base)
            elif kind in ("below", "above"):
                row.append(np.nextafter(base, -np.inf if kind == "below" else np.inf))
            elif kind == "gap":
                row.append(base + draw(st.sampled_from((-1.0, 1.0)))
                           * 10.0 ** draw(st.floats(-13.0, -11.0)))
            elif kind == "ulps":
                row.append(base + draw(st.integers(-4, 4)) * np.spacing(base))
            else:
                row.append(-np.inf)
        rows.append(row)
        masks.append([float(draw(st.booleans())) for _ in range(width)])
    poison = draw(st.sampled_from((None, None, np.inf, np.nan)))
    if poison is not None:
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, width - 1))] = poison
    logits, mask = np.array(rows), np.array(masks)
    return (logits[0], mask[0]) if n_rows == 0 else (logits, mask)


class TestMode:
    """`_mode` reads the argmax of the masked probabilities off the logits."""

    @staticmethod
    def reference(logits, mask):
        with np.errstate(invalid="ignore"):  # the entropy of a row with valid -inf logits
            return masked_categorical(logits, mask)[0].argmax(axis=-1)

    @staticmethod
    def random_rows(rng, scale, n_rows=400, width=9):
        logits = rng.normal(scale=scale, size=(n_rows, width))
        mask = (rng.random((n_rows, width)) < 0.7).astype(np.float64)
        mask[np.arange(n_rows), rng.integers(width, size=n_rows)] = 1.0
        return logits, mask

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 1e5])
    def test_equals_probability_argmax_at_ties_and_adjacent_doubles(self, scale):
        rng = np.random.default_rng(int(math.log10(scale)) + 10)
        logits, mask = self.random_rows(rng, scale)
        top = np.where(mask > 0, logits, -np.inf).max(axis=-1)
        for i, row in enumerate(logits):
            others = rng.permutation(np.flatnonzero(mask[i]))[:3]
            kind = i % 5
            for j in others:
                if kind == 0:
                    row[j] = top[i]                                  # equal maxima
                elif kind == 1:
                    row[j] = np.nextafter(top[i], -np.inf)           # one ulp below
                elif kind == 2:
                    row[j] = np.nextafter(top[i], np.inf)            # one ulp above
                elif kind == 3:                                      # a few ulps either way
                    row[j] = top[i] + rng.integers(-4, 5) * np.spacing(top[i])
                else:                                                # gaps near the tie bound
                    row[j] = top[i] - 10.0 ** rng.uniform(-17, -9)
        got = policy_module._mode(logits, mask)
        assert np.array_equal(got, self.reference(logits, mask))
        assert (mask[np.arange(len(got)), got] > 0).all()
        for z, m, want in zip(logits, mask, got):  # one row at a time, as the heads are
            assert policy_module._mode(z, m) == want

    def test_valid_minus_inf_and_masked_extremes(self):
        rng = np.random.default_rng(3)
        logits, mask = self.random_rows(rng, 1.0)
        logits[:, ::3] = -np.inf
        for i in range(len(mask)):
            if not np.isfinite(logits[i][mask[i] > 0]).any():
                mask[i, 1] = 1.0                     # keep one finite valid logit
        masked = mask == 0
        extremes = np.array([np.inf, np.nan, 1e300])[rng.integers(3, size=masked.sum())]
        logits[masked] = extremes
        got = policy_module._mode(logits, mask)
        assert np.array_equal(got, self.reference(logits, mask))
        assert (mask[np.arange(len(got)), got] > 0).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_valid_logit_raises(self, bad):
        logits, mask = np.array([[0.5, 1.0, -2.0]] * 2), np.ones((2, 3))
        logits[1, 2] = bad
        with pytest.raises(TrainingDivergenceError):
            policy_module._mode(logits, mask)
        with pytest.raises(TrainingDivergenceError):
            policy_module._mode(logits[1], mask[1])

    def test_all_valid_logits_minus_inf_raises(self):
        logits = np.array([-np.inf, 3.0, -np.inf])
        with pytest.raises(TrainingDivergenceError):
            policy_module._mode(logits, np.array([1.0, 0.0, 1.0]))

    @given(mode_inputs())
    @settings(max_examples=400, deadline=None)
    def test_scan_equals_reference_on_drawn_rows(self, drawn):
        logits, mask = drawn
        z = np.where(mask > 0, logits, -np.inf)
        top = z.max(axis=-1, keepdims=True)
        calls = []

        def counted(*args):
            calls.append(1)
            return masked_categorical(*args)

        with mock.patch.object(policy_module, "masked_categorical", counted):
            if not np.isfinite(top).all():  # a nan or +inf valid logit, or no finite one
                with pytest.raises(TrainingDivergenceError):
                    policy_module._mode(logits, mask)
                return
            got = policy_module._mode(logits, mask)
        assert np.array_equal(got, self.reference(logits, mask))
        assert isinstance(got, int if logits.ndim == 1 else list)
        # Only a valid logit within _NEAR_TIE below a row's maximum sends the
        # rows to the probabilities; equal maxima are decided by the scan.
        near = ((z >= top - policy_module._NEAR_TIE) & (z < top)).any()
        assert len(calls) == int(near)


@st.composite
def logit_row(draw, width):
    """width logits, all finite or, in a mixed row, each one finite, +inf,
    -inf or nan; finite ones are 1e-3..1e300 in magnitude, either sign."""
    mixed = draw(st.booleans())
    kinds = ("finite",) * 4 + (("inf", "-inf", "nan") if mixed else ())
    row = []
    for _ in range(width):
        kind = draw(st.sampled_from(kinds))
        row.append(float(kind) if kind != "finite" else
                   draw(st.sampled_from((-1.0, 1.0))) * 10.0 ** draw(st.floats(-3.0, 300.0)))
    return row


@st.composite
def net_outputs(draw, n_prompt_outputs):
    """The trunk's output, drawn head by head, and the prompt net's; one
    case in two is finite throughout."""
    finite = draw(st.booleans())
    rows = [draw(logit_row(size)) for size in HEAD_SIZES] + [draw(logit_row(n_prompt_outputs))]
    if finite:
        rows = [[x if math.isfinite(x) else 1.0 for x in row] for row in rows]
    return np.concatenate(rows[:-1]), np.array(rows[-1])


class TestOneFinitenessRule:
    """A masked categorical is drawn, its mode read and its entries scored
    under one rule: a row whose valid logits hold a nan or +inf, or no
    finite one, raises TrainingDivergenceError everywhere, with no numpy
    warning; any other row draws and scores alike on a warm cache and on a
    fresh copy."""

    TABLE = default_mask_table()
    LIBRARY = default_atom_library()

    @staticmethod
    def diverges(logits, mask) -> bool:
        """Whether a row, or any row of a block, has no distribution."""
        return not np.isfinite(np.where(mask > 0, logits, -np.inf).max(axis=-1)).all()

    @staticmethod
    def outcome(call):
        try:
            return call()
        except TrainingDivergenceError:
            return "diverged"

    def policies(self, trunk_out, prompt_out):
        """Policies whose nets output the given logits for every input: zero
        last-layer weights and the logits as the output bias."""
        struct = StructurePolicy(STATE_DIM, hidden=(4,), rng=np.random.default_rng(70))
        prompt = PromptPolicy(STATE_DIM, self.LIBRARY, hidden=(4,), rng=np.random.default_rng(71))
        for net, out in ((struct.trunk, trunk_out), (prompt.net, prompt_out)):
            net.params[-2][...] = 0.0
            net.params[-1][...] = out
        return struct, prompt

    def check_row_functions(self, logits, mask, rng):
        """masked_categorical, numeric.draw and _mode on one row or a
        padded block of rows."""
        probs = masked_categorical(logits, mask)[0]
        if self.diverges(logits, mask):
            with pytest.raises(TrainingDivergenceError):
                numeric.choice_cdf(probs) if logits.ndim == 2 else numeric.draw(probs, rng)
            with pytest.raises(TrainingDivergenceError):
                policy_module._mode(logits, mask)
        else:
            picks = [numeric.draw(p, rng) for p in np.atleast_2d(probs)]
            modes = policy_module._mode(logits, mask)
            for m, pick, best in zip(np.atleast_2d(mask), picks, np.atleast_1d(modes)):
                assert m[pick] > 0 and m[best] > 0

    @given(net_outputs(len(default_atom_library()) + 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_draws_modes_and_scores_follow_one_rule(self, outputs, seed):
        trunk_out, prompt_out = outputs
        struct, prompt = self.policies(trunk_out, prompt_out)
        rng = np.random.default_rng(seed)
        layout = self.TABLE.layout()
        wf_row = (trunk_out[policy_module.head_slice(0)], self.TABLE.workflow_mask)
        self.check_row_functions(*wf_row, rng)
        workflows = np.flatnonzero(self.TABLE.workflow_mask)
        bad_workflow = {}
        for wf in workflows:
            block = policy_module._conditioned_heads(trunk_out, layout, wf)
            self.check_row_functions(*block, rng)
            for row in zip(*block):
                self.check_row_functions(*row, rng)
            bad_workflow[wf] = self.diverges(*wf_row) or self.diverges(*block)
        s = make_state(seed % 7)

        def warm_equals_fresh(policy, call):
            """call(policy) on a warm cache, checked against a fresh copy."""
            call(policy)  # fills the cache, unless it raises
            warm = call(policy)
            assert warm == call(copy.deepcopy(policy))
            return warm

        def sampled(sampler, k):
            """An outcome of sampler(policy, generator [seed, k]) and the
            generator's state after it."""
            def call(policy):
                gen = np.random.default_rng([seed, k])
                return self.outcome(lambda: sampler(policy, gen)), str(gen.bit_generator.state)
            return call

        def prompt_sampler(policy, gen):
            seqs, steps = sample_prompts(policy, s, action, gen)
            return seqs, [(st.agent, st.action, st.log_prob, st.mask.tobytes()) for st in steps]

        for wf in workflows:
            action = StructureAction.from_heads(
                [wf] + [int(rng.choice(c)) for c in self.TABLE.supports(wf)[1:]])
            lp = warm_equals_fresh(struct, lambda pol: self.outcome(
                lambda: log_prob_structure(pol, self.TABLE, s, action)))
            assert (lp == "diverged") == bad_workflow[wf]

            sequences, masks = [], []
            for agent in range(action.workflow.agents_active):
                pool = [a.id for a in self.LIBRARY if a.role == ROLES[agent]]
                seq = tuple(pool[: int(rng.integers(0, min(len(pool), MAX_PROMPT_LEN) + 1))])
                sequences.append(seq)
                masks += [prompt.step_mask(ROLES[agent], seq[:j], j) for j in range(len(seq) + 1)]
            lp = warm_equals_fresh(prompt, lambda pol: self.outcome(
                lambda: log_prob_prompts(pol, s, action, sequences)))
            assert (lp == "diverged") == any(self.diverges(prompt_out, m) for m in masks)

            got, _ = warm_equals_fresh(struct, sampled(
                lambda pol, gen: sample_structure(pol, self.TABLE, s, gen), wf))
            if got == "diverged":
                assert any(bad_workflow.values())
            else:
                assert not bad_workflow[got[0].workflow_id]

            got, _ = warm_equals_fresh(prompt, sampled(prompt_sampler, wf))
            if got == "diverged":
                assert not np.isfinite(prompt_out).all()
            else:
                assert not any(self.diverges(prompt_out, np.frombuffer(m)) for *_, m in got[1])
                assert not self.diverges(prompt_out, prompt.step_mask(ROLES[0], (), 0))

    def test_a_nan_trunk_weight_fails_scoring(self):
        struct, _ = TestParameterCache.policies()
        struct.trunk.params[0][3, 2] = np.nan
        with pytest.raises(TrainingDivergenceError):
            log_prob_structure(struct, self.TABLE, make_state(1),
                               StructureAction(2, 1, 0, (0, 2, 1)))

    def test_a_nan_prompt_net_weight_fails_scoring(self):
        _, prompt = TestParameterCache.policies()
        prompt.net.params[2][1, 0] = np.nan
        with pytest.raises(TrainingDivergenceError):
            log_prob_prompts(prompt, make_state(1), StructureAction(2, 1, 0, (0, 2, 1)),
                             ((0, 1), (2,), (3,)))


class TestLoadParameters:
    def test_prompt_net_for_another_library_fails_at_load(self, tmp_path):
        PromptPolicy(STATE_DIM, compact_atom_library(), hidden=(16,)).save(tmp_path)
        policy = PromptPolicy(STATE_DIM, default_atom_library(), hidden=(16,))
        nets = (policy.net, policy.value_net)
        n_in = STATE_DIM + N_WORKFLOWS + len(default_atom_library())
        saved_in = STATE_DIM + N_WORKFLOWS + len(compact_atom_library())
        with pytest.raises(ShapeError) as err:
            policy.load(tmp_path)
        message = str(err.value)
        assert "prompt_policy.params" in message
        assert f"{saved_in} inputs" in message and f"{n_in} -> {len(default_atom_library()) + 1}" in message
        assert (policy.net, policy.value_net) == nets

    def test_structure_net_for_another_state_size_fails_at_load(self, tmp_path):
        StructurePolicy(STATE_DIM + 2, hidden=(16,)).save(tmp_path)
        policy = StructurePolicy(STATE_DIM, hidden=(16,))
        with pytest.raises(ShapeError, match=rf"structure_trunk.params.*{STATE_DIM + 2} inputs"):
            policy.load(tmp_path)

    def test_value_net_of_wrong_width_fails_and_keeps_the_policy(self, tmp_path):
        StructurePolicy(STATE_DIM, hidden=(16,)).save(tmp_path)
        (tmp_path / "structure_value.params").replace(tmp_path / "keep.params")
        (tmp_path / "structure_trunk.params").rename(tmp_path / "structure_value.params")
        (tmp_path / "keep.params").rename(tmp_path / "structure_trunk.params")
        policy = StructurePolicy(STATE_DIM, hidden=(16,))
        trunk = policy.trunk
        with pytest.raises(ShapeError, match="structure_trunk.params"):
            policy.load(tmp_path)
        assert policy.trunk is trunk

    def test_missing_file_fails_as_persistence_error(self, tmp_path):
        with pytest.raises(PersistenceError, match="structure_trunk.params"):
            StructurePolicy(STATE_DIM, hidden=(16,)).load(tmp_path)


class TestParameterCache:
    """The samplers and scorers keep what they derive from a net's
    parameters in the net's cache. After every write path, and in every
    copy, all four give what a never-cached policy built from the same
    vectors gives."""

    TABLE = default_mask_table()
    REDUCED = mask_table_from_config({"workflows": ["Direct", "ReasonVerifyAns"],
                                      "Direct": {"tools1": [0, 1], "budgets": [[0, 2], [0], [0]]}})
    STATES = [make_state(seed) for seed in range(4)]
    ACTIONS = (StructureAction(2, 1, 0, (0, 2, 1)), StructureAction(0, 1, 0, (2, 0, 0)))
    SEQUENCES = (((0, 1), (2,), (3,)), ((1,),))

    @staticmethod
    def policies(seed=60):
        return (StructurePolicy(STATE_DIM, hidden=(16,), rng=np.random.default_rng([seed, 1])),
                PromptPolicy(STATE_DIM, compact_atom_library(), hidden=(16,),
                             rng=np.random.default_rng([seed, 2])))

    @staticmethod
    def never_cached(struct, prompt):
        """Shallow copies of both policies whose trunk and prompt net are
        new nets over copies of the same vectors."""
        fresh_struct, fresh_prompt = copy.copy(struct), copy.copy(prompt)
        fresh_struct.trunk = DenseNet.from_vector(struct.trunk.sizes, struct.trunk.get_flat())
        fresh_prompt.net = DenseNet.from_vector(prompt.net.sizes, prompt.net.get_flat())
        return fresh_struct, fresh_prompt

    def outputs(self, struct, prompt, table=TABLE):
        """What all four samplers and scorers give on fixed states, actions,
        sequences and generators; the prompt walks revisit the same steps."""
        got = []
        for i, s in enumerate(self.STATES):
            got.append(sample_structure(struct, table, s, np.random.default_rng([50, i])))
            got.append([log_prob_structure(struct, table, s, a) for a in self.ACTIONS])
            for j, a in enumerate(self.ACTIONS):
                seqs, steps = sample_prompts(prompt, s, a, np.random.default_rng([51, i, j]))
                got.append((seqs, [st.log_prob for st in steps]))
            got.append([log_prob_prompts(prompt, s, a, seqs)
                        for a, seqs in zip(self.ACTIONS, self.SEQUENCES)])
        return got

    def assert_fresh(self, struct, prompt, before):
        got = self.outputs(struct, prompt)
        assert got == self.outputs(*self.never_cached(struct, prompt))
        assert got != before  # the parameters did change

    def test_cached_calls_equal_never_cached_ones(self):
        struct, prompt = self.policies()
        first = self.outputs(struct, prompt)
        assert struct.trunk.params.cache and prompt.net.params.cache
        assert self.outputs(struct, prompt) == first
        assert first == self.outputs(*self.never_cached(struct, prompt))

    def test_adam_step_clears_the_cache(self):
        struct, prompt = self.policies()
        before = self.outputs(struct, prompt)
        rng = np.random.default_rng(61)
        for net in (struct.trunk, prompt.net):
            grads, state = net.params.empty_like(), AdamState.for_params(net.params)
            for _ in range(20):
                grads.vector[...] = rng.normal(size=net.n_params)
                adam_step(net.params, grads, state, 1e-2)
        self.assert_fresh(struct, prompt, before)

    def test_set_flat_clears_the_cache(self):
        struct, prompt = self.policies()
        before = self.outputs(struct, prompt)
        for net in (struct.trunk, prompt.net):
            net.set_flat(1.5 * net.get_flat())
        self.assert_fresh(struct, prompt, before)

    def test_load_starts_an_empty_cache(self, tmp_path):
        struct, prompt = self.policies()
        before = self.outputs(struct, prompt)
        for saved in self.policies(seed=62):
            saved.save(tmp_path)
        struct.load(tmp_path)
        prompt.load(tmp_path)
        self.assert_fresh(struct, prompt, before)

    @pytest.mark.parametrize("duplicate", [copy.deepcopy,
                                           lambda obj: pickle.loads(pickle.dumps(obj))],
                             ids=["deepcopy", "pickle"])
    def test_a_copy_starts_an_empty_cache(self, duplicate):
        struct, prompt = self.policies()
        before = self.outputs(struct, prompt)
        struct, prompt = duplicate((struct, prompt))
        # a write through the vector, before the copy's first cached call
        struct.trunk.vector[...] *= 1.5
        prompt.net.vector[...] *= 1.5
        self.assert_fresh(struct, prompt, before)

    def test_another_table_starts_afresh(self):
        struct, prompt = self.policies()
        for table in (self.TABLE, self.REDUCED, default_mask_table(), self.REDUCED):
            want = self.outputs(*self.never_cached(struct, prompt), table)
            assert self.outputs(struct, prompt, table) == want
