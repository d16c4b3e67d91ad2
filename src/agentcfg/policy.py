"""Two-level policy: a structure policy with six factorized masked heads and
a sequential prompt policy with STOP, plus companion value networks and
valid-configuration enumeration.

Head order is fixed: workflow -> tools1 -> tools2 -> budget1..3. The workflow
is sampled first; the remaining heads are masked conditioned on it. Sampling
and log-prob evaluation share one masking code path so the PPO ratio is
always computed over the same valid support.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    MAX_PROMPT_LEN,
    N_TIERS,
    N_TOOL_SUBSETS,
    N_WORKFLOWS,
    ROLES,
    TIER_NAMES,
    WORKFLOW_BY_NAME,
    WORKFLOWS,
    Configuration,
    PromptAtom,
    StateEmbedding,
    StructureAction,
    validate_library,
)
from .errors import (ConfigError, ContractError, InvalidActionError, InvalidMaskError,
                     TrainingDivergenceError)
from .numeric import (
    DEFAULT_HIDDEN,
    DenseNet,
    MaskedCategorical,
    choice_cdf,
    entropy,
    inverse_cdf,
    load_net,
    log_prob,
    masked_categorical,
    masked_categoricals,
    save_net,
    score_choices,
    score_vjp,
)

HEAD_SIZES = (N_WORKFLOWS, N_TOOL_SUBSETS, N_TOOL_SUBSETS, N_TIERS, N_TIERS, N_TIERS)
HEAD_NAMES = ("workflow", "tools1", "tools2", "budget1", "budget2", "budget3")
STRUCT_LOGITS_SIZE = sum(HEAD_SIZES)

STOP = "STOP"  # sentinel name; the STOP index is always the last output slot


# ---------------------------------------------------------------------------
# Mask table
# ---------------------------------------------------------------------------


class HeadLayout(NamedTuple):
    """A mask table laid out for the structure heads, as sampling, greedy
    decoding and replay read it."""

    masks: np.ndarray  # (workflow, head, slot) in the _HEAD_COLUMNS layout
    valid: tuple       # valid[wf][head]: index array of the head's valid choices under wf


_MASK_FIELDS = ("workflow_mask", *HEAD_NAMES[1:])
_MASK_SHAPES = ((N_WORKFLOWS,), *((N_WORKFLOWS, size) for size in HEAD_SIZES[1:]))


@dataclass(frozen=True, eq=False)
class MaskTable:
    """Workflow-conditioned validity masks over every structure dimension.

    A table is a value. It keeps read-only 0/1 copies of the masks it is
    built from (an entry is valid when > 0), checks them and lays them out
    once, at construction. Equal masks make equal tables; a changed table is
    a new one (`dataclasses.replace`).
    """

    workflow_mask: np.ndarray            # (9,)
    tools1: np.ndarray                   # (9, 16)
    tools2: np.ndarray                   # (9, 16)
    budget1: np.ndarray                  # (9, 3)
    budget2: np.ndarray                  # (9, 3)
    budget3: np.ndarray                  # (9, 3)

    def __post_init__(self):
        masks = np.zeros((N_WORKFLOWS, len(HEAD_SIZES), _HEAD_WIDTH))
        for head, (name, shape) in enumerate(zip(_MASK_FIELDS, _MASK_SHAPES)):
            m = (np.asarray(getattr(self, name), dtype=np.float64) > 0).astype(np.float64)
            if m.shape != shape:
                raise ContractError(f"{name} mask must have shape {shape}, got {m.shape}")
            m.flags.writeable = False
            object.__setattr__(self, name, m)
            masks[:, head, : shape[-1]] = m
        masks.flags.writeable = False
        valid = tuple(tuple(np.flatnonzero(m) for m in per_wf) for per_wf in masks)
        if not len(valid[0][0]):
            raise InvalidMaskError("no workflow is valid")
        for wf in valid[0][0]:
            for name, choices in zip(HEAD_NAMES[1:], valid[wf][1:]):
                if not len(choices):
                    raise InvalidMaskError(f"workflow {wf}: dimension {name} fully masked")
        object.__setattr__(self, "_layout", HeadLayout(masks, valid))

    def __eq__(self, other):
        if not isinstance(other, MaskTable):
            return NotImplemented
        return np.array_equal(self._layout.masks, other._layout.masks)

    def __hash__(self):
        return hash(self._layout.masks.tobytes())

    def __reduce__(self):  # copies and pickles are rebuilt, so checked and read-only
        return MaskTable, tuple(getattr(self, name) for name in _MASK_FIELDS)

    def layout(self) -> HeadLayout:
        """The padded (workflow, head, slot) masks and every head's valid
        choices, as sampling, greedy decoding and replay read them."""
        return self._layout

    def masks_for(self, workflow_id: int) -> list[np.ndarray]:
        """Per-dimension masks conditioned on the chosen workflow, in head
        order after the workflow head."""
        return [getattr(self, name)[workflow_id] for name in HEAD_NAMES[1:]]

    def supports(self, workflow_id: int) -> list[list[int]]:
        """The valid choices of every head, in head order: the workflow
        head's, then the five conditioned on workflow_id."""
        return [valid.tolist() for valid in self._layout.valid[workflow_id]]

    def is_valid(self, a: StructureAction) -> bool:
        masks = (self.workflow_mask, *self.masks_for(a.workflow_id))
        return all(m[c] > 0 for m, c in zip(masks, a.heads))


def _default_masks() -> dict:
    """`default_mask_table`'s masks as editable arrays, by MaskTable field."""
    masks = {name: np.ones(shape) for name, shape in zip(_MASK_FIELDS, _MASK_SHAPES)}
    for wf in WORKFLOWS:
        if not wf.agent2_tools_allowed:
            masks["tools2"][wf.id, 1:] = 0.0  # empty subset only
        if wf.agents_active < 2:
            masks["budget2"][wf.id, 1:] = 0.0  # Low only
        if wf.agents_active < 3:
            masks["budget3"][wf.id, 1:] = 0.0
    return masks


def all_ones_mask_table() -> MaskTable:
    return MaskTable(*(np.ones(shape) for shape in _MASK_SHAPES))


def default_mask_table() -> MaskTable:
    """Default rules: agent-2 tools only where the workflow uses them, and
    budget slots collapsed to Low for inactive agents."""
    return MaskTable(**_default_masks())


def _rule_choices(value, path: str, size: int, names: Sequence[str] = ()) -> list[int]:
    """The choices one mask rule allows: a non-empty list of names from
    names or integer indices below size."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{path}: expected a non-empty list, got {value!r}")
    choices = []
    for item in value:
        if isinstance(item, str) and item in names:
            choices.append(names.index(item))
        elif (isinstance(item, (int, np.integer)) and not isinstance(item, bool)
              and 0 <= item < size):
            choices.append(int(item))
        else:
            expected = " or ".join(filter(None, (
                names and f"one of {', '.join(names)}", size and f"an index in [0, {size})")))
            raise ConfigError(f"{path}: {item!r} is not {expected}")
    return choices


def mask_table_from_config(rules: dict) -> MaskTable:
    """Build a table from the `mask_table:` section of a run config, the one
    reader of its rules. A top-level "workflows" list of workflow names
    restricts the workflow head. A workflow's name maps to its own rules:
    "tools1"/"tools2", lists of tool-subset indices, and "budgets", three
    lists (one per agent slot) of tier names or indices. Each rule given
    replaces that head's default row; workflows without rules keep the
    default rules. Raises ConfigError naming the path of a bad rule."""
    if not isinstance(rules, dict):
        raise ConfigError(f"mask_table: expected a mapping, got {rules!r}")
    masks = _default_masks()
    if "workflows" in rules:
        masks["workflow_mask"][:] = 0.0
        masks["workflow_mask"][_rule_choices(rules["workflows"], "mask_table.workflows",
                                             0, [wf.name for wf in WORKFLOWS])] = 1.0
    for name, spec in rules.items():
        if name == "workflows":
            continue
        path = f"mask_table.{name}"
        if name not in WORKFLOW_BY_NAME:
            raise ConfigError(f"unknown config key: {path}")
        if not isinstance(spec, dict):
            raise ConfigError(f"{path}: expected a mapping, got {spec!r}")
        wf = WORKFLOW_BY_NAME[name].id
        for key, value in spec.items():
            if key in ("tools1", "tools2"):
                rows = {key: _rule_choices(value, f"{path}.{key}", N_TOOL_SUBSETS)}
            elif key == "budgets":
                if not isinstance(value, (list, tuple)) or len(value) != 3:
                    raise ConfigError(f"{path}.budgets: expected three lists of tiers, "
                                      f"one per agent slot, got {value!r}")
                rows = {head: _rule_choices(tiers, f"{path}.budgets[{slot}]", N_TIERS, TIER_NAMES)
                        for slot, (head, tiers) in enumerate(zip(HEAD_NAMES[3:], value))}
            else:
                raise ConfigError(f"unknown config key: {path}.{key}")
            for head, choices in rows.items():
                masks[head][wf] = 0.0
                masks[head][wf, choices] = 1.0
    return MaskTable(**masks)


def enumerate_valid(table: MaskTable) -> int:
    """Closed-form count of valid structure actions: sum over unmasked
    workflows of the product of per-dimension support sizes."""
    total = 0
    for wf in np.flatnonzero(table.workflow_mask):
        n = 1
        for m in table.masks_for(wf):
            n *= int(m.sum())
        total += n
    return total


def enumerate_valid_exhaustive(table: MaskTable) -> int:
    """Count by explicit iteration over the full 62,208-element space."""
    count = 0
    for wf in np.flatnonzero(table.workflow_mask):
        _, t1s, t2s, b1s, b2s, b3s = table.supports(wf)
        for _t1 in t1s:
            for _t2 in t2s:
                count += len(b1s) * len(b2s) * len(b3s)
    return count


def iter_valid_actions(table: MaskTable):
    """Yield every valid StructureAction under the table, canonical order."""
    for wf in np.flatnonzero(table.workflow_mask):
        for heads in itertools.product([wf], *table.supports(wf)[1:]):
            yield StructureAction.from_heads(heads)


# ---------------------------------------------------------------------------
# Structure policy
# ---------------------------------------------------------------------------

def head_columns(sizes) -> np.ndarray:
    """(heads, widest head) output column of every (head, choice) slot of
    consecutive heads of the given sizes, padded with -1: the layout in
    which `score_choices` scores all heads of a row at once."""
    offsets = np.cumsum((0,) + tuple(sizes))
    return np.array([[int(offsets[h]) + k if k < size else -1 for k in range(max(sizes))]
                     for h, size in enumerate(sizes)])


_HEAD_OFFSETS = np.cumsum((0,) + HEAD_SIZES)
_HEAD_WIDTH = max(HEAD_SIZES)
_HEAD_COLUMNS = head_columns(HEAD_SIZES)  # the trunk's six heads, as `replay` scores them


def head_slice(i: int) -> slice:
    return slice(int(_HEAD_OFFSETS[i]), int(_HEAD_OFFSETS[i + 1]))


class StructurePolicy:
    """Trunk net emitting logits for all six heads, plus a scalar value net."""

    def __init__(self, state_dim: int, hidden=DEFAULT_HIDDEN, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim = state_dim
        self.trunk = DenseNet([state_dim, *hidden, STRUCT_LOGITS_SIZE], rng=rng)
        self.value_net = DenseNet([state_dim, *hidden, 1], rng=rng)

    def head_logits(self, s_vec: np.ndarray) -> list[np.ndarray]:
        out = self.trunk.forward(s_vec)
        return [out[head_slice(i)] for i in range(len(HEAD_SIZES))]

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_net(self.trunk, directory / "structure_trunk.params")
        save_net(self.value_net, directory / "structure_value.params")

    def load(self, directory) -> None:
        directory = Path(directory)
        self.trunk = load_net(directory / "structure_trunk.params")
        self.value_net = load_net(directory / "structure_value.params")


def _conditioned_heads(logits: np.ndarray, layout: HeadLayout, workflow_id: int):
    """Logits and masks of the five heads after the workflow head, under the
    masks the chosen workflow conditions: two (5, widest head) arrays in the
    _HEAD_COLUMNS layout, padding masked."""
    return logits[_HEAD_COLUMNS[1:]], layout.masks[workflow_id, 1:]


class _StateHeads(NamedTuple):
    """What drawing structures for one state needs, fixed while the trunk's
    parameters and the table stay fixed: the memo entry of
    `sample_structure`."""

    logits: np.ndarray                # the trunk's output
    workflow: MaskedCategorical       # the workflow head
    workflow_cdf: np.ndarray          # its `choice_cdf` over the valid workflows
    conditioned: dict                 # workflow id -> (five head views, their CDFs, six entropies)


def _workflow_head(logits: np.ndarray, table: MaskTable) -> MaskedCategorical:
    """The workflow head over the trunk's output, under the table's mask."""
    wf_logits = logits[head_slice(0)]
    return MaskedCategorical.view(wf_logits, table.workflow_mask,
                                  masked_categorical(wf_logits, table.workflow_mask))


def _state_heads(policy: StructurePolicy, table: MaskTable, s_vec: np.ndarray) -> _StateHeads:
    logits = policy.trunk.forward(s_vec)
    wf_dist = _workflow_head(logits, table)
    return _StateHeads(logits, wf_dist,
                       choice_cdf(wf_dist.stats[0][table.layout().valid[0][0]]), {})


def _conditioned_draws(heads: _StateHeads, layout: HeadLayout, workflow_id: int):
    """The five heads conditioned on workflow_id, from one padded
    `masked_categorical` pass, with the `choice_cdf` of each over its valid
    choices and the entropies of all six heads; built once per workflow."""
    drawn = heads.conditioned.get(workflow_id)
    if drawn is None:
        dists = masked_categoricals(*_conditioned_heads(heads.logits, layout, workflow_id))
        cdfs = [choice_cdf(d.stats[0][valid])
                for d, valid in zip(dists, layout.valid[workflow_id][1:])]
        entropies = [entropy(heads.workflow)] + [entropy(d) for d in dists]
        drawn = heads.conditioned[workflow_id] = (dists, cdfs, entropies)
    return drawn


def sample_structure(
    policy: StructurePolicy,
    table: MaskTable,
    s: StateEmbedding,
    rng: np.random.Generator,
    memo: Optional[dict] = None,
):
    """Sample workflow first, then the remaining heads under its masks; the
    five conditioned heads share one padded `masked_categorical` pass.

    The six draws take one block of six uniforms, head i the i-th, each
    through `inverse_cdf` over the head's valid choices in the table's
    layout: the same doubles, choices and final generator state as one
    `numeric.draw` per head.

    memo, if given, maps a state vector's bytes to its `_StateHeads`, which
    the state fixes exactly while the trunk's parameters and the table stay
    fixed: repeated calls for one state then run the trunk and score each
    workflow's heads once, and draw the same as fresh calls. The caller
    drops the memo once the parameters or the table change.
    Returns (action, joint_log_prob, per_head_entropies).
    """
    layout = table.layout()
    s_vec = s.as_vector()
    key = s_vec.tobytes()
    memo = {} if memo is None else memo
    heads = memo.get(key)
    if heads is None:
        heads = memo[key] = _state_heads(policy, table, s_vec)
    u = rng.random(len(HEAD_SIZES))
    wf = inverse_cdf(heads.workflow_cdf, layout.valid[0][0], u[0])
    dists, cdfs, entropies = _conditioned_draws(heads, layout, wf)
    choices = [wf] + [inverse_cdf(cdf, valid, x)
                      for cdf, valid, x in zip(cdfs, layout.valid[wf][1:], u[1:])]
    joint_lp = log_prob(heads.workflow, wf)
    for dist, c in zip(dists, choices[1:]):
        joint_lp += log_prob(dist, c)
    return StructureAction.from_heads(choices), joint_lp, list(entropies)


def log_prob_structure(
    policy: StructurePolicy, table: MaskTable, s: StateEmbedding, a: StructureAction
) -> float:
    """Joint log-probability under the identical masking pipeline as
    sampling: one trunk pass, the workflow head, and the five conditioned
    heads in one padded `masked_categorical` pass, as `sample_structure`
    scores them; errors on any action the masks forbid."""
    if not table.is_valid(a):
        raise InvalidActionError(
            f"structure action invalid under mask table: {a}"
        )
    logits = policy.trunk.forward(s.as_vector())
    dists = [_workflow_head(logits, table)] + masked_categoricals(
        *_conditioned_heads(logits, table.layout(), a.workflow_id))
    return sum(log_prob(d, c) for d, c in zip(dists, a.heads))


# ---------------------------------------------------------------------------
# Prompt policy
# ---------------------------------------------------------------------------


@dataclass
class PromptStep:
    """One sequential prompt decision, cached for PPO/SFT updates."""

    agent: int
    input_vec: np.ndarray
    mask: np.ndarray
    action: int            # atom id, or STOP index (= n_atoms)
    log_prob: float


class PromptPolicy:
    """Sequential atom selector conditioned on [state; one-hot workflow;
    multi-hot already-chosen atoms], with a per-role no-repeat mask and an
    always-available STOP action."""

    def __init__(self, state_dim: int, library: Sequence[PromptAtom],
                 hidden=DEFAULT_HIDDEN, rng=None):
        validate_library(library)
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim = state_dim
        self.library = tuple(library)
        self.n_atoms = len(library)
        self.stop_index = self.n_atoms
        self.input_dim = state_dim + N_WORKFLOWS + self.n_atoms
        self.net = DenseNet([self.input_dim, *hidden, self.n_atoms + 1], rng=rng)
        self.value_net = DenseNet([self.input_dim, *hidden, 1], rng=rng)
        self._role_masks = {
            role: np.array([1.0 if a.role == role else 0.0 for a in library])
            for role in ROLES
        }

    def step_input(self, s_vec: np.ndarray, workflow_id: int, chosen: Sequence[int]):
        wf_onehot = np.zeros(N_WORKFLOWS)
        wf_onehot[workflow_id] = 1.0
        multi_hot = np.zeros(self.n_atoms)
        for a in chosen:
            multi_hot[a] = 1.0
        return np.concatenate([s_vec, wf_onehot, multi_hot])

    def step_mask(self, role: str, chosen: Sequence[int], length: int) -> np.ndarray:
        """Valid actions at one step: role-matching unchosen atoms plus STOP;
        STOP only once the sequence hits the length cap."""
        mask = np.zeros(self.n_atoms + 1)
        mask[self.stop_index] = 1.0
        if length < MAX_PROMPT_LEN:
            mask[: self.n_atoms] = self._role_masks[role]
            for a in chosen:
                mask[a] = 0.0
        return mask

    def save(self, directory) -> None:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_net(self.net, directory / "prompt_policy.params")
        save_net(self.value_net, directory / "prompt_value.params")

    def load(self, directory) -> None:
        directory = Path(directory)
        self.net = load_net(directory / "prompt_policy.params")
        self.value_net = load_net(directory / "prompt_value.params")


def _walk_prompts(policy: PromptPolicy, s_vecs, actions: Sequence[StructureAction], choose):
    """The one prompt-decision loop, shared by sampling, greedy decoding and
    replay. It walks a list of episodes (state vector and structure action
    each) in lockstep: agent i of an episode takes role ROLES[i] and picks
    atoms until STOP. At each step, choose(rows, agents, positions, inputs,
    masks) gets the episodes still choosing, with their agents, positions,
    step inputs and masks (lists of rows), and returns each one's action
    (atom or STOP index) and log-prob. Returns each episode's (sequences,
    steps)."""
    stop = policy.stop_index
    chosen_at = policy.state_dim + N_WORKFLOWS  # the multi-hot of atoms chosen
    stop_only = policy.step_mask(ROLES[0], (), MAX_PROMPT_LEN)
    n = len(actions)
    # Each episode's current step input and mask, updated in place per choice.
    inputs = [policy.step_input(s_vec, a.workflow_id, ()) for s_vec, a in zip(s_vecs, actions)]
    masks = [policy.step_mask(ROLES[0], (), 0) for _ in range(n)]
    n_agents = [a.workflow.agents_active for a in actions]
    agent = [0] * n
    chosen: list[list[int]] = [[] for _ in range(n)]
    sequences: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    steps: list[list[PromptStep]] = [[] for _ in range(n)]
    rows = [e for e in range(n) if n_agents[e] > 0]
    while rows:
        x = [inputs[e].copy() for e in rows]
        m = [(masks[e] if len(chosen[e]) < MAX_PROMPT_LEN else stop_only).copy() for e in rows]
        picked, log_probs = choose(rows, [agent[e] for e in rows],
                                   [len(chosen[e]) for e in rows], x, m)
        still = []
        for i, e in enumerate(rows):
            a = int(picked[i])
            steps[e].append(PromptStep(agent[e], x[i], m[i], a, float(log_probs[i])))
            if a == stop:
                sequences[e].append(tuple(chosen[e]))
                chosen[e] = []
                agent[e] += 1
                if agent[e] == n_agents[e]:
                    continue
                inputs[e][chosen_at:] = 0.0
                masks[e] = policy.step_mask(ROLES[agent[e]], (), 0)
            else:
                chosen[e].append(a)
                inputs[e][chosen_at + a] = 1.0
                masks[e][a] = 0.0
            still.append(e)
        rows = still
    return [(tuple(seqs), st) for seqs, st in zip(sequences, steps)]


def _prompt_probs(policy: PromptPolicy, inputs, masks):
    """Masked-categorical (probs, log_probs) of a batch of prompt steps, from
    one prompt-net pass."""
    probs, log_probs, _ = masked_categorical(
        policy.net.forward_batch(np.array(inputs))[0], np.array(masks))
    return probs, log_probs


def _prompt_draw_rows(policy: PromptPolicy, inputs, masks, memo: Optional[dict] = None):
    """What drawing each of a batch of prompt steps needs: its log_probs, its
    valid choices and their `choice_cdf`, from one `_prompt_probs` pass.

    memo, if given, maps a step's input and mask bytes to these three, which
    they fix exactly while the prompt net's parameters stay fixed: steps it
    holds are read from it, and only the others run through the net and
    join it."""
    if memo is None:
        rows = []
        for p, lp, mask in zip(*_prompt_probs(policy, inputs, masks), masks):
            valid = np.flatnonzero(mask > 0)
            rows.append((lp, valid, choice_cdf(p[valid])))
        return rows
    keys = [x.tobytes() + m.tobytes() for x, m in zip(inputs, masks)]
    new = [i for i, key in enumerate(keys) if key not in memo]
    if new:
        rows = _prompt_draw_rows(policy, [inputs[i] for i in new], [masks[i] for i in new])
        memo.update(zip([keys[i] for i in new], rows))
    return [memo[key] for key in keys]


def _given_prompt_steps(policy: PromptPolicy, s_vecs, actions, sequences):
    """Each episode's steps that produce its given sequences, each STOP
    included; raises on any atom the masks forbid."""
    for a, seqs in zip(actions, sequences):
        if len(seqs) != a.workflow.agents_active:
            raise InvalidActionError("one prompt sequence required per active agent")

    def given(rows, agents, positions, inputs, masks):
        picked = []
        for e, agent, position, mask in zip(rows, agents, positions, masks):
            seq = sequences[e][agent]
            atom = seq[position] if position < len(seq) else policy.stop_index
            if not (0 <= atom <= policy.stop_index and mask[atom] > 0):
                raise InvalidActionError(
                    f"atom {atom} invalid for role {ROLES[agent]} at position {position}"
                )
            picked.append(atom)
        return picked, [0.0] * len(rows)

    return [st for _, st in _walk_prompts(policy, s_vecs, actions, given)]


def sample_prompts_lockstep(
    policy: PromptPolicy,
    states: Sequence[StateEmbedding],
    actions: Sequence[StructureAction],
    rngs: Sequence[np.random.Generator],
    memo: Optional[dict] = None,
):
    """`sample_prompts` for a list of episodes at once: one prompt-net pass
    per step over the episodes still choosing. Episode e draws from rngs[e],
    in the order `sample_prompts` would. memo, if given, is a
    `_prompt_draw_rows` memo of steps already scored under the current
    parameters; the caller drops it once they change. Returns each
    episode's (sequences, steps)."""

    def drawn(rows, agents, positions, inputs, masks):
        draw_rows = _prompt_draw_rows(policy, inputs, masks, memo)
        picked = [inverse_cdf(cdf, valid, rngs[e].random())
                  for (_, valid, cdf), e in zip(draw_rows, rows)]
        return picked, [lp[a] for (lp, _, _), a in zip(draw_rows, picked)]

    return _walk_prompts(policy, [s.as_vector() for s in states], actions, drawn)


def sample_prompts(
    policy: PromptPolicy,
    s: StateEmbedding,
    a_struct: StructureAction,
    rng: np.random.Generator,
    memo: Optional[dict] = None,
):
    """One STOP-terminated sequence per active agent; agent i takes role
    ROLES[i]. Returns (sequences, steps) with stepwise log-probs recorded.
    Repeated calls under fixed parameters can share a memo (see
    `sample_prompts_lockstep`): the draws are the same, without recomputing
    the steps seen before."""
    return sample_prompts_lockstep(policy, [s], [a_struct], [rng], memo)[0]


def _mode(probs: np.ndarray) -> np.ndarray:
    """Argmax over the last axis of `masked_categorical` probabilities.
    Raises TrainingDivergenceError, as `numeric.draw` does, when they do not
    sum to a finite number (non-finite logits): argmax would pick a row's
    first entry, masked or not."""
    if not math.isfinite(probs.sum()):
        raise TrainingDivergenceError("non-finite logits: greedy decode has no mode")
    return probs.argmax(axis=-1)


def greedy_configuration(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    s: StateEmbedding,
):
    """Deterministic argmax decode of both policies: the mode of each masked
    head (workflow first), then the argmax prompt step for every agent."""
    s_vec = s.as_vector()
    logits = struct_policy.trunk.forward(s_vec)
    wf = int(_mode(masked_categorical(logits[head_slice(0)], table.workflow_mask)[0]))
    c = _mode(masked_categorical(*_conditioned_heads(logits, table.layout(), wf))[0])
    action = StructureAction.from_heads([wf, *c])

    def mode(rows, agents, positions, inputs, masks):
        return _mode(_prompt_probs(prompt_policy, inputs, masks)[0]), [0.0] * len(rows)

    sequences, _ = _walk_prompts(prompt_policy, [s_vec], [action], mode)[0]
    return Configuration(action, sequences)


def log_prob_prompts(
    policy: PromptPolicy,
    s: StateEmbedding,
    a_struct: StructureAction,
    sequences: Sequence[Sequence[int]],
) -> float:
    """Total log-probability of given sequences (including each STOP)."""
    steps = _given_prompt_steps(policy, [s.as_vector()], [a_struct], [sequences])[0]
    logp, _, _ = score_choices(
        policy.net,
        np.stack([st.input_vec for st in steps]),
        np.stack([st.mask for st in steps]),
        np.array([st.action for st in steps]),
    )
    return float(logp.sum())


# ---------------------------------------------------------------------------
# Batched replay: the scoring core of every training objective
# ---------------------------------------------------------------------------


@dataclass
class ReplayBatch:
    """Fixed configurations laid out for one batched replay: one structure
    row per configuration, then every prompt step (STOP included) in order."""

    states: np.ndarray          # (N, state_dim)
    struct_masks: np.ndarray    # (N, heads, widest head), _HEAD_COLUMNS layout
    struct_actions: np.ndarray  # (N, heads) choice of each head
    step_inputs: np.ndarray     # (M, prompt input_dim)
    step_masks: np.ndarray      # (M, atoms + 1)
    step_actions: np.ndarray    # (M,)
    step_owner: np.ndarray      # (M,) configuration each step belongs to

    @classmethod
    def build(cls, prompt_policy: PromptPolicy, table: MaskTable, states, actions, steps):
        """From state vectors, structure actions and each configuration's
        list of PromptSteps."""
        flat = [st for per_config in steps for st in per_config]
        n, m = len(actions), len(flat)
        return cls(
            states=np.reshape(np.array(states, dtype=np.float64), (n, prompt_policy.state_dim)),
            struct_masks=table.layout().masks[[a.workflow_id for a in actions]],
            struct_actions=np.reshape(np.array([a.heads for a in actions], dtype=np.intp),
                                      (n, len(HEAD_SIZES))),
            step_inputs=np.reshape(np.array([st.input_vec for st in flat], dtype=np.float64),
                                   (m, prompt_policy.input_dim)),
            step_masks=np.reshape(np.array([st.mask for st in flat], dtype=np.float64),
                                  (m, prompt_policy.n_atoms + 1)),
            step_actions=np.array([st.action for st in flat], dtype=np.intp),
            step_owner=np.repeat(np.arange(n), [len(per_config) for per_config in steps]),
        )

    @property
    def n(self) -> int:
        return len(self.states)

    def per_config(self, struct_values, step_values) -> np.ndarray:
        """Each configuration's structure value plus its prompt steps' values."""
        return struct_values + np.bincount(self.step_owner, weights=step_values,
                                           minlength=self.n)


def replay_batch(prompt_policy: PromptPolicy, table: MaskTable, records) -> ReplayBatch:
    """Lay out recorded configurations (anything with state,
    structure_action and prompt_actions) for `replay`; raises
    InvalidActionError on any choice the masks forbid."""
    records = list(records)
    actions = [r.structure_action for r in records]
    for a in actions:
        if not table.is_valid(a):
            raise InvalidActionError(f"structure action invalid under mask table: {a}")
    states = [r.state.as_vector() for r in records]
    steps = _given_prompt_steps(prompt_policy, states, actions,
                                [r.prompt_actions for r in records])
    return ReplayBatch.build(prompt_policy, table, states, actions, steps)


def replay(policies, table: MaskTable, records):
    """Log-probabilities and entropies of fixed configurations under
    policies = (structure policy, prompt policy): one trunk pass over the
    states and one prompt-net pass over every step.

    records are recorded configurations or their ReplayBatch (objectives
    that revisit a fixed batch lay it out once). Returns (log_probs,
    entropy, cache); each of the first two is a pair (structure (N,),
    summed over the six heads; prompt steps (M,)).
    """
    struct_policy, prompt_policy = policies
    batch = records if isinstance(records, ReplayBatch) else replay_batch(
        prompt_policy, table, records)
    s_lp, s_h, s_cache = score_choices(struct_policy.trunk, batch.states, batch.struct_masks,
                                       batch.struct_actions, _HEAD_COLUMNS)
    p_lp, p_h, p_cache = score_choices(prompt_policy.net, batch.step_inputs,
                                       batch.step_masks, batch.step_actions)
    return (s_lp.sum(axis=1), p_lp), (s_h.sum(axis=1), p_h), (s_cache, p_cache)


def vjp(cache, dlogp, dentropy) -> dict:
    """Gradients of sum(dlogp * log_probs + dentropy * entropy) over a
    `replay`, keyed struct_trunk and prompt_net. dlogp and dentropy are
    (structure, steps) pairs broadcasting to the shapes replay returned."""
    s_cache, p_cache = cache
    return {
        "struct_trunk": score_vjp(s_cache, np.asarray(dlogp[0])[..., None],
                                  np.asarray(dentropy[0])[..., None]),
        "prompt_net": score_vjp(p_cache, dlogp[1], dentropy[1]),
    }
