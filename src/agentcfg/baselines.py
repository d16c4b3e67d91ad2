"""Comparison baselines over the identical environment and reward: grid
search, greedy coordinate ascent, a flat contextual-bandit policy, and a flat
sequential policy without the hierarchical decomposition.

All searches run through one Harness so every baseline sees the same queries,
reward config, and seed stream; only the decision procedure differs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    MAX_PROMPT_LEN,
    N_WORKFLOWS,
    ROLES,
    WORKFLOWS,
    Configuration,
    PromptAtom,
    StructureAction,
)
from .env import SyntheticEnv, rank_key
from .errors import ContractError
from .numeric import (
    DenseNet,
    MaskedCategorical,
    head_columns,
    log_prob,
    masked_categoricals,
    sample,
    score_choices,
    score_vjp,
)
from .policy import (
    HEAD_NAMES,
    HEAD_SIZES,
    MaskTable,
    all_ones_mask_table,
    default_mask_table,
)
from .reward import RewardConfig, shaped_reward
from .train import (
    Descent,
    PPOConfig,
    _episode_seed,
    _episode_starts,
    _normalize,
    _ppo_terms,
    _require_count,
    _value_regression,
    discounted_targets,
)


@dataclass(frozen=True)
class SearchBudget:
    max_evaluations: int = 50
    episodes_per_evaluation: int = 20

    def __post_init__(self):
        _require_count("max_evaluations", self.max_evaluations)
        _require_count("episodes_per_evaluation", self.episodes_per_evaluation)


@dataclass
class Harness:
    """Shared evaluation harness: scores a fixed configuration by mean shaped
    reward over all queries, either exactly (expected_mode) or by seeded
    episodes. Counts candidate evaluations.

    Sampled scores use common random numbers: episode i of query qi runs
    with seed `SeedSequence([seed, qi]).generate_state(E)[i]` whatever the
    candidate, so candidates are compared on the same draws and a
    configuration scores the same every time. Each seed's random numbers
    are drawn once per harness (`SyntheticEnv.execute`'s memo) and kept
    while it lives: at most 2 per seed, one per `refinements` value of the
    workflow rows (0, and EvaluatorOptimizer's 3). Every episode is one
    `execute` call; an evaluation's episodes share few distinct outcomes (one
    per outcome class), and each is scored by `shaped_reward` once."""

    env: SyntheticEnv
    reward_cfg: RewardConfig
    seed: int = 0
    expected_mode: bool = True
    n_evaluations: int = 0
    _seed_blocks: list = field(default_factory=list, init=False, repr=False, compare=False)
    _draws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def _episode_seeds(self, episodes: int) -> list[list[int]]:
        """Each query's first `episodes` execution seeds. A query's block is
        hashed once: `generate_state` is prefix-stable, so a longer block
        extends a shorter one. The blocks are rebuilt when the env's query
        count changes."""
        blocks = self._seed_blocks
        if (len(blocks) != len(self.env.queries)
                or (blocks and len(blocks[0]) < episodes)):
            blocks = self._seed_blocks = [
                np.random.SeedSequence([self.seed, qi]).generate_state(episodes).tolist()
                for qi in range(len(self.env.queries))
            ]
        return [block[:episodes] for block in blocks]

    def evaluate(self, config: Configuration, episodes_per_evaluation: int = 20) -> float:
        _require_count("episodes_per_evaluation", episodes_per_evaluation)
        if not self.env.queries:
            raise ContractError("the harness scores over an env's queries; this env has none")
        self.n_evaluations += 1
        if self.expected_mode:
            return float(np.mean(self.env.expected_rewards(config, self.reward_cfg)))
        # id(outcome) -> (outcome, its reward): the outcome is held so that
        # its id is not reused within the evaluation
        scored: dict = {}
        total = 0.0
        n = 0
        for q, seeds in zip(self.env.queries, self._episode_seeds(episodes_per_evaluation)):
            for exec_seed in seeds:
                outcome = self.env.execute(q, config, exec_seed, self._draws)
                hit = scored.get(id(outcome))
                if hit is None:
                    hit = scored[id(outcome)] = (
                        outcome, shaped_reward(outcome, self.reward_cfg)[0])
                total += hit[1]
                n += 1
        return total / n


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def _canonical_atom(library: Sequence[PromptAtom], role: str) -> Optional[int]:
    for atom in library:
        if atom.role == role:
            return atom.id
    return None


def default_grid(
    table: MaskTable, library: Sequence[PromptAtom]
) -> list[Configuration]:
    """Canonical stratified candidate slice: every valid workflow x {empty,
    largest-valid tool subsets} x {uniform lowest, uniform highest tiers} x
    {no atoms, one canonical atom per agent}."""
    grid = []
    for wf in np.flatnonzero(table.workflow_mask).tolist():
        supports = table.supports(wf)
        tool_opts = [sorted({s[0], max(s, key=lambda m: (bin(m).count("1"), -m))})
                     for s in supports[1:3]]
        budget_opts = sorted({tuple(uniform(s) for s in supports[3:]) for uniform in (min, max)})
        n_agents = WORKFLOWS[wf].agents_active
        empty = tuple(() for _ in range(n_agents))
        canonical = tuple(
            ((a,) if (a := _canonical_atom(library, ROLES[i])) is not None else ())
            for i in range(n_agents)
        )
        prompt_opts = [empty] if canonical == empty else [empty, canonical]
        for t1, t2, budgets, prompts in itertools.product(*tool_opts, budget_opts, prompt_opts):
            grid.append(Configuration(StructureAction(wf, t1, t2, budgets), prompts))
    return grid


def grid_search(
    harness: Harness,
    grid: Sequence[Configuration],
    budget: SearchBudget,
):
    """Evaluate up to max_evaluations candidates in canonical (given) order;
    returns (best configuration, mean utility, trace)."""
    if not grid:
        raise ContractError("grid_search requires a non-empty candidate grid")
    trace = []
    best = None
    best_key = None
    for config in list(grid)[: budget.max_evaluations]:
        value = harness.evaluate(config, budget.episodes_per_evaluation)
        trace.append((config, value))
        key = rank_key(value, config)
        if best_key is None or key < best_key:
            best, best_key = (config, value), key
    return best[0], best[1], trace


# ---------------------------------------------------------------------------
# Greedy coordinate ascent
# ---------------------------------------------------------------------------

GREEDY_DIMENSIONS = HEAD_NAMES + ("atoms",)


def _project_config(config: Configuration, wf: int, table: MaskTable) -> Configuration:
    """Re-fit a configuration onto a valid workflow: clamp each head to the
    new valid support and resize the prompt tuple."""
    heads = (wf, *config.structure.heads[1:])
    structure = StructureAction.from_heads(
        [c if c in s else s[0] for c, s in zip(heads, table.supports(wf))])
    n_agents = WORKFLOWS[wf].agents_active
    prompts = tuple(
        config.prompts[i] if i < len(config.prompts) else () for i in range(n_agents)
    )
    return Configuration(structure, prompts)


def greedy_search(
    harness: Harness,
    table: MaskTable,
    library: Sequence[PromptAtom],
    budget: SearchBudget,
    dimension_order: Sequence[str] = GREEDY_DIMENSIONS,
):
    """Single-pass coordinate ascent from the cheapest default configuration
    (first valid workflow, empty tools, lowest tiers, no atoms). Returns
    (best configuration, utility, trace)."""
    missing = set(GREEDY_DIMENSIONS) - set(dimension_order)
    if missing:
        raise ContractError(f"dimension order must cover {sorted(missing)}")
    wf0 = int(np.flatnonzero(table.workflow_mask)[0])
    start = Configuration(
        StructureAction.from_heads([s[0] for s in table.supports(wf0)]),
        tuple(() for _ in range(WORKFLOWS[wf0].agents_active)),
    )
    current = start
    current_value = harness.evaluate(start, budget.episodes_per_evaluation)
    trace = [("start", start, current_value)]

    def candidates_for(dim: str, config: Configuration):
        a = config.structure
        if dim == "workflow":
            return [_project_config(config, wf, table)
                    for wf in table.supports(a.workflow_id)[0] if wf != a.workflow_id]
        if dim in HEAD_NAMES:
            h, heads = HEAD_NAMES.index(dim), a.heads
            return [
                Configuration(StructureAction.from_heads((*heads[:h], c, *heads[h + 1:])),
                              config.prompts)
                for c in table.supports(a.workflow_id)[h] if c != heads[h]
            ]
        out = []
        if dim == "atoms":
            for agent in range(len(config.prompts)):
                role = ROLES[agent]
                for atom in library:
                    if atom.role != role or config.prompts[agent] == (atom.id,):
                        continue
                    prompts = tuple(
                        (atom.id,) if i == agent else config.prompts[i]
                        for i in range(len(config.prompts))
                    )
                    out.append(Configuration(a, prompts))
        return out

    for dim in dimension_order:
        best_key = rank_key(current_value, current)
        for candidate in candidates_for(dim, current):
            if len(trace) >= budget.max_evaluations:  # one trace row per evaluation
                break
            value = harness.evaluate(candidate, budget.episodes_per_evaluation)
            trace.append((dim, candidate, value))
            key = rank_key(value, candidate)
            if key < best_key:
                current, current_value, best_key = candidate, value, key
    return current, current_value, trace


# ---------------------------------------------------------------------------
# Flat policies
# ---------------------------------------------------------------------------


@dataclass
class FlatDecision:
    """One net input and the choice made from it; with a policy's `columns`
    layout, one choice per head (action, log_prob and mask gain a leading
    head axis)."""

    input_vec: np.ndarray
    mask: np.ndarray
    action: int | np.ndarray
    log_prob: float | np.ndarray
    target: float = 0.0


@dataclass
class FlatEpisode:
    decisions: list[FlatDecision]
    config: Configuration
    reward: float = 0.0


class BanditPolicy:
    """One-shot flat policy: six structure heads plus a single prompt-atom
    head (last index = no atom), all sampled simultaneously from the state.
    No hierarchy and no workflow-conditioned masking. An episode is one
    decision row of seven choices in the padded `columns` layout."""

    def __init__(self, state_dim: int, n_atoms: int, hidden=(64, 64), rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim = state_dim
        self.n_atoms = n_atoms
        self.head_sizes = HEAD_SIZES + (n_atoms + 1,)
        self.net = DenseNet([state_dim, *hidden, sum(self.head_sizes)], rng=rng)
        self.value_net = DenseNet([state_dim, *hidden, 1], rng=rng)
        self._offsets = np.cumsum((0,) + self.head_sizes)
        self.columns = head_columns(self.head_sizes)
        self._mask = (self.columns.table >= 0).astype(np.float64)

    def head_logits(self, s_vec):
        out = self.net.forward(s_vec)
        return [
            out[self._offsets[i] : self._offsets[i + 1]]
            for i in range(len(self.head_sizes))
        ]

    def act(self, s_vecs, rngs) -> list[FlatEpisode]:
        """One episode per state vector of a batch: one net pass and one
        padded masked categorical over every row's seven heads. Row e draws
        its heads in order from rngs[e], so the draws are those of acting
        on the row alone; a log-prob can differ from a one-row pass's in the
        last bits."""
        inputs = np.array(s_vecs, dtype=np.float64)
        n_heads = len(self.head_sizes)
        logits = self.net.forward_batch(inputs)[0][:, self.columns.table]
        dists = masked_categoricals(logits.reshape(-1, logits.shape[-1]),
                                    np.tile(self._mask, (len(inputs), 1)))
        episodes = []
        for e, rng in enumerate(rngs):
            choices, log_probs = zip(*(sample(d, rng)
                                       for d in dists[e * n_heads : (e + 1) * n_heads]))
            decision = FlatDecision(inputs[e], self._mask, np.array(choices),
                                    np.array(log_probs))
            *heads, atom = choices
            structure = StructureAction.from_heads(heads)
            prompt = (atom,) if atom < self.n_atoms else ()
            config = Configuration(structure, (prompt,) * structure.workflow.agents_active)
            episodes.append(FlatEpisode(decisions=[decision], config=config))
        return episodes

    def probability_of(self, s_vec, config: Configuration, atom: Optional[int]) -> float:
        """Joint probability of a flat choice tuple (probe helper)."""
        logits = self.head_logits(s_vec)
        atom_idx = self.n_atoms if atom is None else atom
        choices = (*config.structure.heads, atom_idx)
        total = 0.0
        for z, c in zip(logits, choices):
            total += log_prob(MaskedCategorical(z, np.ones(len(z))), c)
        return math.exp(total)


class FlatEpisodePolicy:
    """One shared network chooses every dimension in sequence (workflow,
    tools1, tools2, tiers, then atoms with STOP per agent) over a max-arity
    output head with per-stage arity masks. Hierarchical masks can be
    injected for support-equivalence checks but are off by default."""

    STRUCT_STAGES = 6
    columns = None  # one choice per decision, over the whole output

    def __init__(self, state_dim: int, library: Sequence[PromptAtom],
                 hidden=(64, 64), rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.state_dim = state_dim
        self.library = tuple(library)
        self.n_atoms = len(library)
        self.stop_index = self.n_atoms
        self.max_arity = max(max(HEAD_SIZES), self.n_atoms + 1)
        self.n_stages = self.STRUCT_STAGES + 1  # structure dims + atom stage
        # input: state, stage one-hot, chosen-so-far one-hots (wf), chosen atoms,
        # agent one-hot
        self.input_dim = state_dim + self.n_stages + N_WORKFLOWS + self.n_atoms + 3
        self.net = DenseNet([self.input_dim, *hidden, self.max_arity], rng=rng)
        self.value_net = DenseNet([self.input_dim, *hidden, 1], rng=rng)

    def _choose(self, inputs, masks, rows, rngs, decisions) -> list[int]:
        """One step of the given rows: one net pass and one masked
        categorical over their inputs and masks; row e draws from rngs[e]
        and records its decision on a copy of its input and mask."""
        x = inputs[rows]
        picked = []
        for e, x_row, d in zip(rows, x, masked_categoricals(self.net.forward_batch(x)[0],
                                                            masks[rows])):
            c, lp = sample(d, rngs[e])
            decisions[e].append(FlatDecision(x_row, d.mask, c, lp))
            picked.append(c)
        return picked

    def act(self, s_vecs, rngs, table: Optional[MaskTable] = None) -> list[FlatEpisode]:
        """One episode per state vector of a batch, every episode walking
        the six structure stages and then its atom/STOP steps in lockstep:
        one net pass and one masked categorical per step over the rows
        still choosing. The rows' stage inputs and masks are edited in place
        between steps. Row e draws from rngs[e] in its own order, so the
        draws are those of acting on the row alone; a log-prob can differ
        from a one-row pass's in the last bits."""
        n = len(rngs)
        rows = list(range(n))
        stage_at = self.state_dim
        wf_at = stage_at + self.n_stages
        atom_at = wf_at + N_WORKFLOWS
        agent_at = atom_at + self.n_atoms
        inputs = np.zeros((n, self.input_dim))
        inputs[:, :stage_at] = s_vecs
        decisions: list[list[FlatDecision]] = [[] for _ in range(n)]
        # (stage, workflow, slot): each structure stage's arity, narrowed by
        # table under the chosen workflow (the workflow stage's rows are alike)
        layout = (table if table is not None else all_ones_mask_table()).layout().masks
        struct_masks = np.zeros((self.STRUCT_STAGES, N_WORKFLOWS, self.max_arity))
        struct_masks[:, :, : layout.shape[-1]] = layout.transpose(1, 0, 2)
        heads = np.zeros((n, self.STRUCT_STAGES), dtype=np.intp)
        for stage in range(self.STRUCT_STAGES):
            inputs[:, stage_at:wf_at] = np.eye(self.n_stages)[stage]
            heads[:, stage] = self._choose(inputs, struct_masks[stage, heads[:, 0]], rows,
                                           rngs, decisions)
            if stage == 0:
                inputs[rows, wf_at + heads[:, 0]] = 1.0
        structures = [StructureAction.from_heads(h) for h in heads.tolist()]

        inputs[:, stage_at:wf_at] = np.eye(self.n_stages)[self.STRUCT_STAGES]
        inputs[:, agent_at] = 1.0  # agent 0
        first_mask = np.zeros(self.max_arity)
        first_mask[: self.n_atoms + 1] = 1.0
        masks = np.tile(first_mask, (n, 1))
        n_agents = [a.workflow.agents_active for a in structures]
        agent = [0] * n
        chosen: list[list[int]] = [[] for _ in range(n)]
        sequences: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
        while rows:
            still = []
            for e, c in zip(rows, self._choose(inputs, masks, rows, rngs, decisions)):
                if c == self.stop_index:
                    sequences[e].append(tuple(chosen[e]))
                    chosen[e] = []
                    agent[e] += 1
                    if agent[e] == n_agents[e]:
                        continue
                    inputs[e, atom_at:] = 0.0
                    inputs[e, agent_at + agent[e]] = 1.0
                    masks[e] = first_mask
                else:
                    chosen[e].append(c)
                    inputs[e, atom_at + c] = 1.0
                    masks[e, c] = 0.0
                    if len(chosen[e]) >= MAX_PROMPT_LEN:
                        masks[e, : self.n_atoms] = 0.0
                still.append(e)
            rows = still
        return [FlatEpisode(decisions=d, config=Configuration(a, tuple(seqs)))
                for d, a, seqs in zip(decisions, structures, sequences)]


# ---------------------------------------------------------------------------
# Flat PPO training (shared by bandit and flat-episode baselines)
# ---------------------------------------------------------------------------


def _flat_collect(policy, env, n, reward_cfg, run_seed, start, gamma,
                  table=None) -> list[FlatEpisode]:
    """Episodes start..start+n-1 of `collect_rollouts`' episode stream,
    configured by one lockstep `act` of a flat policy over the whole batch
    (under table, if one is given), then executed and given their value
    targets (`discounted_targets`) in episode order."""
    starts = list(_episode_starts(env, run_seed, start, n))
    s_vecs = [state.as_vector() for _, _, _, state in starts]
    rngs = [rng for _, rng, _, _ in starts]
    episodes = policy.act(s_vecs, rngs) if table is None else policy.act(s_vecs, rngs, table)
    for (idx, _, query, _), ep in zip(starts, episodes):
        outcome = env.execute(query, ep.config, _episode_seed(run_seed, idx))
        ep.reward = shaped_reward(outcome, reward_cfg)[0]
        for d, target in zip(ep.decisions, discounted_targets(ep.reward, len(ep.decisions),
                                                               gamma)):
            d.target = target
    return episodes


def _flat_ppo_update(policy, episodes: Sequence[FlatEpisode], cfg: PPOConfig,
                     descent: Descent):
    """Clipped surrogate and entropy averaged over every choice, value loss
    over every decision row; epochs_per_batch clipped steps of descent on
    the policy's `net` and `value` nets, both at lr_struct."""
    decisions = [d for ep in episodes for d in ep.decisions]
    inputs = np.stack([d.input_vec for d in decisions])
    masks = np.stack([d.mask for d in decisions])
    actions = np.array([d.action for d in decisions])
    old_lp = np.array([d.log_prob for d in decisions])
    targets = np.array([d.target for d in decisions])
    advs = _normalize(targets - policy.value_net.forward_batch(inputs)[0][:, 0])
    advs = advs.reshape(advs.shape + (1,) * (actions.ndim - 1))  # shared by a row's heads
    value_scale = cfg.value_coef / len(decisions)
    out = descent.grads
    lrs = {"net": cfg.lr_struct, "value": cfg.lr_struct}
    diag = {}
    for _ in range(cfg.epochs_per_batch):
        new_lp, ent, cache = score_choices(policy.net, inputs, masks, actions, policy.columns)
        loss, dlogp, dent, _ = _ppo_terms(new_lp, ent, old_lp, advs, cfg)
        grads = {"net": score_vjp(cache, dlogp, dent, out["net"])}
        sq, grads["value"] = _value_regression(policy.value_net, inputs, targets, value_scale,
                                               out["value"])
        loss += value_scale * sq
        descent.step(loss, grads, lrs, cfg.max_grad_norm)
        diag = {"loss": loss, "mean_reward": float(np.mean([e.reward for e in episodes]))}
    return diag


def _flat_train(policy, env, cfg: PPOConfig, reward_cfg, run_seed, gamma, table=None):
    """PPO on a flat policy, batch by batch over the episode stream.
    Returns (policy, diagnostics)."""
    descent = Descent(net=policy.net, value=policy.value_net)
    diagnostics = []
    episode = 0
    while episode < cfg.total_episodes:
        n = min(cfg.batch_size, cfg.total_episodes - episode)
        episodes = _flat_collect(policy, env, n, reward_cfg, run_seed, episode, gamma, table)
        episode += n
        diagnostics.append(
            dict(_flat_ppo_update(policy, episodes, cfg, descent), episodes=episode)
        )
    return policy, diagnostics


def bandit_policy_train(
    env: SyntheticEnv,
    cfg: PPOConfig,
    reward_cfg: RewardConfig,
    run_seed: int,
    hidden=(64, 64),
):
    """Contextual-bandit baseline: flat one-shot policy trained by PPO with
    gamma = 0. Returns (policy, diagnostics)."""
    policy = BanditPolicy(env.semantic_dim + 5, len(env.library), hidden,
                          rng=np.random.default_rng(run_seed))
    return _flat_train(policy, env, cfg, reward_cfg, run_seed, 0.0)


def flat_episode_policy_train(
    env: SyntheticEnv,
    cfg: PPOConfig,
    reward_cfg: RewardConfig,
    run_seed: int,
    hidden=(64, 64),
    table: Optional[MaskTable] = None,
):
    """Flat sequential baseline: one shared network picks every dimension in
    order without the hierarchical decomposition. Returns (policy,
    diagnostics)."""
    policy = FlatEpisodePolicy(env.semantic_dim + 5, env.library, hidden,
                               rng=np.random.default_rng(run_seed))
    return _flat_train(policy, env, cfg, reward_cfg, run_seed, cfg.gamma, table)


def random_policy_utility(
    env: SyntheticEnv,
    reward_cfg: RewardConfig,
    n_episodes: int,
    run_seed: int,
    table: Optional[MaskTable] = None,
) -> float:
    """Monte-Carlo mean shaped reward of uniform random valid configurations;
    the floor that trained baselines must beat."""
    table = table if table is not None else default_mask_table()
    rng = np.random.default_rng(run_seed)

    def pick(options):
        return options[int(rng.integers(0, len(options)))]

    wf_support = np.flatnonzero(table.workflow_mask).tolist()
    total = 0.0
    for i in range(n_episodes):
        query = pick(env.queries)
        wf = pick(wf_support)
        structure = StructureAction.from_heads([wf] + [pick(s) for s in table.supports(wf)[1:]])
        prompts = []
        for agent in range(structure.workflow.agents_active):
            role_atoms = [a.id for a in env.library if a.role == ROLES[agent]]
            prompts.append((pick(role_atoms),) if role_atoms and rng.random() < 0.5 else ())
        outcome = env.execute(query, Configuration(structure, tuple(prompts)),
                              _episode_seed(run_seed, i))
        total += shaped_reward(outcome, reward_cfg)[0]
    return total / n_episodes
