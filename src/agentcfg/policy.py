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
from dataclasses import dataclass, field
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
                     ShapeError, TrainingDivergenceError)
from .numeric import (
    DEFAULT_HIDDEN,
    DenseNet,
    MaskedCategorical,
    choice_cdf,
    entropy,
    head_columns,
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

_HEAD_OFFSETS = np.cumsum((0,) + HEAD_SIZES)
_HEAD_WIDTH = max(HEAD_SIZES)
_HEAD_COLUMNS = head_columns(HEAD_SIZES)  # the trunk's six heads, as `replay` scores them


def head_slice(i: int) -> slice:
    return slice(int(_HEAD_OFFSETS[i]), int(_HEAD_OFFSETS[i + 1]))


def _load_sized(path: Path, n_in: int, n_out: int) -> DenseNet:
    """`load_net`, refusing with a ShapeError naming path a net that does not
    map n_in inputs to n_out outputs."""
    net = load_net(path)
    if (net.input_size, net.output_size) != (n_in, n_out):
        raise ShapeError(f"{path}: saved net maps {net.input_size} inputs to "
                         f"{net.output_size} outputs; this policy needs {n_in} -> {n_out}")
    return net


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
        """Replace both nets by those `save` wrote to directory. Keeps the
        current nets and raises PersistenceError if either file is missing
        or malformed, or ShapeError if its net does not fit this policy's
        input and output sizes."""
        directory = Path(directory)
        self.trunk, self.value_net = (
            _load_sized(directory / "structure_trunk.params", self.state_dim, STRUCT_LOGITS_SIZE),
            _load_sized(directory / "structure_value.params", self.state_dim, 1))


def _conditioned_heads(logits: np.ndarray, layout: HeadLayout, workflow_id: int):
    """Logits and masks of the five heads after the workflow head, under the
    masks the chosen workflow conditions: two (5, widest head) arrays in the
    _HEAD_COLUMNS layout, padding masked."""
    return logits[_HEAD_COLUMNS.table[1:]], layout.masks[workflow_id, 1:]


@dataclass
class _StateHeads:
    """What scoring or drawing structures for one state needs, fixed while
    the trunk's parameters and the table stay fixed: an entry of the
    trunk's cache (see `_state_heads`). The trunk pass and the workflow
    head are built with the entry; each other part is built the first time
    a call reads it, so scoring builds no CDF and no entropy."""

    logits: np.ndarray                # the trunk's output
    workflow: MaskedCategorical       # the workflow head
    conditioned: dict = field(default_factory=dict)  # workflow id -> (five head views,
                                                     # their padded pass's stats)
    draws: dict = field(default_factory=dict)        # workflow id -> (five head views,
                                                     # (5, widest) CDFs, six entropies)
    workflow_cdf: Optional[np.ndarray] = None        # the workflow head's `choice_cdf`


def _state_entries(trunk: DenseNet, kind: str, table: MaskTable) -> dict:
    """The trunk cache's `_StateHeads` of kind ("sample" or "score") under
    table, by state vector bytes. One table per kind: the held one is
    compared by identity, then by value (hashing serialises the masks)."""
    held = trunk.params.cache.get(kind)
    if held is None or not (held[0] is table or held[0] == table):
        held = trunk.params.cache[kind] = (table, {})
    return held[1]


def _state_heads(policy: StructurePolicy, table: MaskTable, s_vec: np.ndarray,
                 kind: str) -> _StateHeads:
    """The cached entry of kind for the state vector s_vec; a new entry
    takes one trunk pass and the workflow head under the table's mask."""
    entries = _state_entries(policy.trunk, kind, table)
    key = s_vec.tobytes()
    heads = entries.get(key)
    if heads is None:
        logits = policy.trunk.forward(s_vec)
        wf_logits = logits[head_slice(0)]
        heads = entries[key] = _StateHeads(logits, MaskedCategorical.view(
            wf_logits, table.workflow_mask, masked_categorical(wf_logits, table.workflow_mask)))
    return heads


def _conditioned(heads: _StateHeads, layout: HeadLayout, workflow_id: int):
    """The five heads conditioned on workflow_id, from one padded
    `masked_categorical` pass, built once per workflow: their views and the
    pass's stats."""
    scored = heads.conditioned.get(workflow_id)
    if scored is None:
        logits, masks = _conditioned_heads(heads.logits, layout, workflow_id)
        stats = masked_categorical(logits, masks)
        scored = heads.conditioned[workflow_id] = (
            masked_categoricals(logits, masks, stats), stats)
    return scored


def _conditioned_draws(heads: _StateHeads, layout: HeadLayout, workflow_id: int):
    """`_conditioned`'s heads with what drawing them needs, built once per
    workflow: their CDFs from one `choice_cdf` over the padded
    probabilities, and the entropies of all six heads."""
    drawn = heads.draws.get(workflow_id)
    if drawn is None:
        dists, stats = _conditioned(heads, layout, workflow_id)
        entropies = [entropy(heads.workflow)] + [entropy(d) for d in dists]
        drawn = heads.draws[workflow_id] = (dists, choice_cdf(stats[0]), entropies)
    return drawn


def _joint_log_prob(heads: _StateHeads, dists, choices) -> float:
    """The six heads' `numeric.log_prob` terms of choices, summed in head
    order."""
    joint_lp = log_prob(heads.workflow, choices[0])
    for dist, c in zip(dists, choices[1:]):
        joint_lp += log_prob(dist, c)
    return joint_lp


def sample_structure(
    policy: StructurePolicy,
    table: MaskTable,
    s: StateEmbedding,
    rng: np.random.Generator,
):
    """Sample workflow first, then the remaining heads under its masks; the
    five conditioned heads share one padded `masked_categorical` pass.

    The six draws take one block of six uniforms, head i the i-th: one
    `inverse_cdf` picks the workflow, one more the five heads it conditions,
    over their padded CDFs. They are the same choices, and leave the same
    generator state, as one `numeric.draw` per head.

    The trunk's cache keeps each state's "sample" `_StateHeads`, which the
    state fixes exactly while the parameters and the table stay fixed:
    repeated calls for one state run the trunk and score each workflow's
    heads once, and draw the same as calls on a fresh copy.
    Returns (action, joint_log_prob, per_head_entropies).
    """
    heads = _state_heads(policy, table, s.as_vector(), "sample")
    if heads.workflow_cdf is None:
        heads.workflow_cdf = choice_cdf(heads.workflow.stats[0])
    u = rng.random(len(HEAD_SIZES))
    wf = inverse_cdf(heads.workflow_cdf, u[0])
    dists, cdfs, entropies = _conditioned_draws(heads, table.layout(), wf)
    choices = [wf, *inverse_cdf(cdfs, u[1:]).tolist()]
    return (StructureAction.from_heads(choices), _joint_log_prob(heads, dists, choices),
            list(entropies))


def log_prob_structure(
    policy: StructurePolicy,
    table: MaskTable,
    s: StateEmbedding,
    a: StructureAction,
) -> float:
    """Joint log-probability under the identical masking pipeline as
    sampling: the workflow head and the five heads it conditions, summed in
    head order as `sample_structure` sums them; errors on any action the
    masks forbid. They come from the state's "score" `_StateHeads` in the
    trunk's cache, kept apart from the sampling one: a state seen before
    skips the trunk, a (state, workflow) seen before also the padded pass.
    No CDF and no entropy is built."""
    if not table.is_valid(a):
        raise InvalidActionError(
            f"structure action invalid under mask table: {a}"
        )
    heads = _state_heads(policy, table, s.as_vector(), "score")
    dists, _ = _conditioned(heads, table.layout(), a.workflow_id)
    return _joint_log_prob(heads, dists, a.heads)


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
        """Replace both nets by those `save` wrote to directory, checked as
        `StructurePolicy.load` checks them: a net saved for another atom
        library or state size fails here, not at the first decode."""
        directory = Path(directory)
        self.net, self.value_net = (
            _load_sized(directory / "prompt_policy.params", self.input_dim, self.n_atoms + 1),
            _load_sized(directory / "prompt_value.params", self.input_dim, 1))


def _walk_prompts(policy: PromptPolicy, s_vecs, actions: Sequence[StructureAction], choose,
                  agents: Optional[Sequence[int]] = None, record: bool = True):
    """The one prompt-decision loop, shared by sampling, greedy decoding and
    replay. It walks a list of rows (state vector and structure action
    each) in lockstep: agent i of a row takes role ROLES[i] and picks atoms
    until STOP. A row walks its episode's active agents in order, or, if
    agents is given, only the one agent agents[row].

    Every agent's walk starts from the same input [s; workflow; 0] under its
    own role mask, so the agents of one episode can be rows of their own
    whenever nothing orders them: greedy decoding starts them together.
    Sampling and replay walk an episode's agents in order, because the
    episode's generator, or the step order `ReplayBatch` records, fixes it.

    At each step, choose(rows, agents, positions, inputs, masks) gets the
    rows still choosing, with their agents, positions, step inputs and masks
    (lists of rows), and returns each one's action (atom or STOP index) and
    log-prob, as lists of Python numbers. Returns each row's (sequences,
    steps). With record False the steps stay empty, the log-probs go unread,
    and choose gets the live inputs and masks, which the walk changes once
    it returns: a caller that reads only the sequences (greedy decoding)
    pays for no copies and no `PromptStep`s. With record True each row's
    input and mask are copied, not stacked and viewed: stacking costs a
    one-row walk more than it saves a wide one."""
    stop = policy.stop_index
    chosen_at = policy.state_dim + N_WORKFLOWS  # the multi-hot of atoms chosen
    stop_only = policy.step_mask(ROLES[0], (), MAX_PROMPT_LEN)
    n = len(actions)
    if agents is None:
        agent, end = [0] * n, [a.workflow.agents_active for a in actions]
    else:
        agent, end = list(agents), [first + 1 for first in agents]
    # Each row's current step input and mask, updated in place per choice.
    inputs = [policy.step_input(s_vec, a.workflow_id, ()) for s_vec, a in zip(s_vecs, actions)]
    masks = [policy.step_mask(ROLES[first], (), 0) for first in agent]
    chosen: list[list[int]] = [[] for _ in range(n)]
    sequences: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    steps: list[list[PromptStep]] = [[] for _ in range(n)]
    rows = [e for e in range(n) if agent[e] < end[e]]
    while rows:
        x = [inputs[e] for e in rows]
        m = [masks[e] if len(chosen[e]) < MAX_PROMPT_LEN else stop_only for e in rows]
        if record:
            x, m = [v.copy() for v in x], [v.copy() for v in m]
        picked, log_probs = choose(rows, [agent[e] for e in rows],
                                   [len(chosen[e]) for e in rows], x, m)
        still = []
        for i, (e, a) in enumerate(zip(rows, picked)):
            if record:
                steps[e].append(PromptStep(agent[e], x[i], m[i], a, log_probs[i]))
            if a == stop:
                sequences[e].append(tuple(chosen[e]))
                chosen[e] = []
                agent[e] += 1
                if agent[e] == end[e]:
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


def _prompt_logits(policy: PromptPolicy, inputs) -> np.ndarray:
    """Prompt-net logits of a batch of prompt steps, from one pass."""
    return policy.net.forward_batch(np.array(inputs))[0]


def _prompt_draws(policy: PromptPolicy, inputs, masks):
    """What drawing a batch of prompt steps needs: their masked-categorical
    log-probs and their `choice_cdf`s, (rows, atoms + 1) each, from one
    prompt-net pass and one `choice_cdf`."""
    probs, log_probs, _ = masked_categorical(_prompt_logits(policy, inputs), np.array(masks))
    return log_probs, choice_cdf(probs)


def _given_chooser(policy: PromptPolicy, actions, sequences):
    """A `_walk_prompts` chooser that takes each row's given sequences
    (one per active agent), each STOP included; it raises on any atom the
    masks forbid."""
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
            picked.append(int(atom))
        return picked, [0.0] * len(rows)

    return given


def sample_prompts_lockstep(
    policy: PromptPolicy,
    states: Sequence[StateEmbedding],
    actions: Sequence[StructureAction],
    rngs: Sequence[np.random.Generator],
):
    """`sample_prompts` for a list of episodes at once: one prompt-net pass
    per step over the episodes still choosing. Episode e draws from rngs[e],
    in the order `sample_prompts` would: each step takes one uniform from
    each row's generator and picks every row with one `inverse_cdf`.

    A one-episode walk reads the prompt net's "sample" cache instead, which
    maps a step's input and mask bytes to its (log-prob row, CDF row), the
    bits of the step's one-row pass while the parameters stay fixed: a step
    it holds is read from it, another is scored and joins it. A walk of
    several episodes keeps its one batched pass per step and bypasses the
    cache, since its rows need not have one-row bits. Returns each
    episode's (sequences, steps)."""
    cache = policy.net.params.cache.setdefault("sample", {}) if len(states) == 1 else None

    def drawn(rows, agents, positions, inputs, masks):
        u = [rngs[e].random() for e in rows]
        if cache is None:
            log_probs, cdfs = _prompt_draws(policy, inputs, masks)
            picked = inverse_cdf(cdfs, np.array(u))
            return picked.tolist(), log_probs[np.arange(len(rows)), picked].tolist()
        key = inputs[0].tobytes() + masks[0].tobytes()
        scored = cache.get(key)
        if scored is None:
            log_probs, cdfs = _prompt_draws(policy, inputs, masks)
            scored = cache[key] = (log_probs[0], cdfs[0])
        picked = inverse_cdf(scored[1], u[0])
        return [picked], [scored[0].item(picked)]

    return _walk_prompts(policy, [s.as_vector() for s in states], actions, drawn)


def sample_prompts(
    policy: PromptPolicy,
    s: StateEmbedding,
    a_struct: StructureAction,
    rng: np.random.Generator,
):
    """One STOP-terminated sequence per active agent; agent i takes role
    ROLES[i]. Returns (sequences, steps) with stepwise log-probs recorded.
    Steps seen before under the same parameters come from the prompt net's
    cache (see `sample_prompts_lockstep`), and draw as on a fresh copy."""
    return sample_prompts_lockstep(policy, [s], [a_struct], [rng])[0]


_NEAR_TIE = 1e-12  # logit gap below which exp/divide rounding may tie two probabilities


def _mode(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The index over the last axis of (..., K) logits that the argmax of
    their `masked_categorical` probabilities gives, read off the masked
    logits: exp is monotone, so the largest valid logit is the mode. Only
    where another valid logit lies within _NEAR_TIE of a row's maximum can
    exp/divide rounding tie the probabilities, and argmax then takes the
    first of the tied; such rows form the probabilities to decide alike.

    Raises TrainingDivergenceError, as `numeric.draw` does, when a row's
    largest valid logit is not finite (a nan or +inf logit, or no finite
    valid one): there the probabilities have no mode. A masked index is
    never returned."""
    z = np.where(mask > 0, logits, -np.inf)
    top = z.max(axis=-1, keepdims=True)
    if not np.isfinite(top).all():
        raise TrainingDivergenceError("non-finite logits: greedy decode has no mode")
    picked = z.argmax(axis=-1)
    near = (z >= top - _NEAR_TIE).sum(axis=-1) > 1
    if near.any():
        picked = np.where(near, masked_categorical(logits, mask)[0].argmax(axis=-1), picked)
    return picked


def greedy_configuration(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    s: StateEmbedding,
):
    """Deterministic argmax decode of both policies: the mode of each masked
    head (workflow first), then the argmax prompt steps of every agent.

    An agent's greedy choices do not depend on the agents before it, so the
    active agents walk as parallel rows of one `_walk_prompts`: one
    prompt-net pass of at most three rows per step, max(len) + 1 passes
    rather than one one-row pass per step of each agent in turn. Sampling
    cannot start them together: an episode's generator draws for its agents
    one after another. A batched row can differ from a one-row pass in the last bits of its logits; the
    modes are the argmax over those logits (see `_mode`)."""
    s_vec = s.as_vector()
    logits = struct_policy.trunk.forward(s_vec)
    wf = int(_mode(logits[head_slice(0)], table.workflow_mask))
    c = _mode(*_conditioned_heads(logits, table.layout(), wf))
    action = StructureAction.from_heads([wf, *c])

    def mode(rows, agents, positions, inputs, masks):
        return _mode(_prompt_logits(prompt_policy, inputs), np.array(masks)).tolist(), None

    n = action.workflow.agents_active
    walked = _walk_prompts(prompt_policy, [s_vec] * n, [action] * n, mode, agents=range(n),
                           record=False)
    return Configuration(action, tuple(seqs[0] for seqs, _ in walked))


def log_prob_prompts(
    policy: PromptPolicy,
    s: StateEmbedding,
    a_struct: StructureAction,
    sequences: Sequence[Sequence[int]],
) -> float:
    """Total log-probability of given sequences (including each STOP).

    The prompt net's "score" cache, kept apart from the sampling one, maps
    a step's input and mask bytes to the step's masked-categorical log-prob
    row. The walk records no `PromptStep`: each step's key is read off the
    live input and mask, and only the steps the cache misses are copied.
    Steps it holds are read from it; the others are scored in one
    `DenseNet.forward_rows` pass after the walk and join it. That pass
    gives each row the bits of its one-row pass, so a score does not depend
    on what the cache held, and each step's term is the log-prob a
    one-episode `sample_prompts` records for it. The terms are summed in
    step order."""
    cache = policy.net.params.cache.setdefault("score", {})
    given = _given_chooser(policy, [a_struct], [sequences])
    keys, actions = [], []
    new: dict = {}  # key -> (input, mask) copies of the steps the cache misses

    def scored(rows, agents, positions, inputs, masks):
        picked, log_probs = given(rows, agents, positions, inputs, masks)
        key = inputs[0].tobytes() + masks[0].tobytes()
        if key not in cache and key not in new:
            new[key] = (inputs[0].copy(), masks[0].copy())
        keys.append(key)
        actions.append(picked[0])
        return picked, log_probs

    _walk_prompts(policy, [s.as_vector()], [a_struct], scored, record=False)
    if new:
        inputs, masks = zip(*new.values())
        _, log_probs, _ = masked_categorical(policy.net.forward_rows(np.array(inputs)),
                                             np.array(masks))
        cache.update(zip(new, log_probs))
    return float(np.array([cache[key][a] for key, a in zip(keys, actions)]).sum())


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
    given = _given_chooser(prompt_policy, actions, [r.prompt_actions for r in records])
    steps = [st for _, st in _walk_prompts(prompt_policy, states, actions, given)]
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


def vjp(cache, dlogp, dentropy, out: Optional[dict] = None) -> dict:
    """Gradients of sum(dlogp * log_probs + dentropy * entropy) over a
    `replay`, keyed struct_trunk and prompt_net. dlogp and dentropy are
    (structure, steps) pairs broadcasting to the shapes replay returned.
    out, if given, maps those keys to the gradients to overwrite (see
    `DenseNet.backward`)."""
    s_cache, p_cache = cache
    out = {} if out is None else out
    return {
        "struct_trunk": score_vjp(s_cache, np.asarray(dlogp[0])[..., None],
                                  np.asarray(dentropy[0])[..., None], out.get("struct_trunk")),
        "prompt_net": score_vjp(p_cache, dlogp[1], dentropy[1], out.get("prompt_net")),
    }
