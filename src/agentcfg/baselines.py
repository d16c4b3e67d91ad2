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
from .errors import ContractError, TrainingDivergenceError
from .numeric import (
    AdamState,
    DenseNet,
    MaskedCategorical,
    adam_step,
    clip_grad_norm,
    log_prob,
    sample,
    score_choices,
    score_vjp,
)
from .policy import HEAD_NAMES, HEAD_SIZES, MaskTable, default_mask_table, head_columns
from .reward import RewardConfig, shaped_reward
from .train import (
    PPOConfig,
    _episode_seed,
    _episode_starts,
    _normalize,
    _ppo_terms,
    _value_regression,
)


@dataclass(frozen=True)
class SearchBudget:
    max_evaluations: int = 50
    episodes_per_evaluation: int = 20

    def __post_init__(self):
        if self.max_evaluations < 1 or self.episodes_per_evaluation < 1:
            raise ContractError("search budget fields must be >= 1")


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
    while it lives: at most 2 per seed, with and without the
    EvaluatorOptimizer's extra iterations."""

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
        extends a shorter one."""
        if not self._seed_blocks or len(self._seed_blocks[0]) < episodes:
            self._seed_blocks = [
                np.random.SeedSequence([self.seed, qi]).generate_state(episodes).tolist()
                for qi in range(len(self.env.queries))
            ]
        return [block[:episodes] for block in self._seed_blocks]

    def evaluate(self, config: Configuration, episodes_per_evaluation: int = 20) -> float:
        self.n_evaluations += 1
        if self.expected_mode:
            return float(np.mean(self.env.expected_rewards(config, self.reward_cfg)))
        total = 0.0
        n = 0
        for q, seeds in zip(self.env.queries, self._episode_seeds(episodes_per_evaluation)):
            for exec_seed in seeds:
                outcome = self.env.execute(q, config, exec_seed, self._draws)
                total += shaped_reward(outcome, self.reward_cfg)[0]
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
        self._mask = (self.columns >= 0).astype(np.float64)

    def head_logits(self, s_vec):
        out = self.net.forward(s_vec)
        return [
            out[self._offsets[i] : self._offsets[i + 1]]
            for i in range(len(self.head_sizes))
        ]

    def act(self, s_vec, rng) -> FlatEpisode:
        choices, log_probs = [], []
        for z in self.head_logits(s_vec):
            c, lp = sample(MaskedCategorical(z, np.ones(len(z))), rng)
            choices.append(c)
            log_probs.append(lp)
        decision = FlatDecision(s_vec, self._mask, np.array(choices), np.array(log_probs))
        *heads, atom = choices
        structure = StructureAction.from_heads(heads)
        prompt = (atom,) if atom < self.n_atoms else ()
        config = Configuration(structure, (prompt,) * structure.workflow.agents_active)
        return FlatEpisode(decisions=[decision], config=config)

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

    def stage_input(self, s_vec, stage, workflow_id, chosen_atoms, agent):
        stage_onehot = np.zeros(self.n_stages)
        stage_onehot[stage] = 1.0
        wf = np.zeros(N_WORKFLOWS)
        if workflow_id is not None:
            wf[workflow_id] = 1.0
        atoms = np.zeros(self.n_atoms)
        for a in chosen_atoms:
            atoms[a] = 1.0
        agent_onehot = np.zeros(3)
        if agent is not None:
            agent_onehot[agent] = 1.0
        return np.concatenate([s_vec, stage_onehot, wf, atoms, agent_onehot])

    def _arity_mask(self, arity: int) -> np.ndarray:
        mask = np.zeros(self.max_arity)
        mask[:arity] = 1.0
        return mask

    def _struct_stage_mask(self, stage: int, workflow_id, table: Optional[MaskTable]):
        mask = self._arity_mask(HEAD_SIZES[stage])
        if table is not None:
            if stage == 0:
                mask[: N_WORKFLOWS] *= table.workflow_mask
            else:
                mask[: HEAD_SIZES[stage]] *= table.masks_for(workflow_id)[stage - 1]
        return mask

    def act(self, s_vec, rng, table: Optional[MaskTable] = None) -> FlatEpisode:
        decisions = []
        choices = []
        workflow_id = None
        for stage in range(self.STRUCT_STAGES):
            x = self.stage_input(s_vec, stage, workflow_id, [], None)
            mask = self._struct_stage_mask(stage, workflow_id, table)
            dist = MaskedCategorical(self.net.forward(x), mask)
            c, lp = sample(dist, rng)
            decisions.append(FlatDecision(x, mask, c, lp))
            choices.append(c)
            if stage == 0:
                workflow_id = c
        structure = StructureAction.from_heads(choices)
        wf = structure.workflow_id
        sequences = []
        for agent in range(structure.workflow.agents_active):
            chosen: list[int] = []
            while True:
                x = self.stage_input(s_vec, self.STRUCT_STAGES, wf, chosen, agent)
                mask = self._arity_mask(self.n_atoms + 1)
                for a in chosen:
                    mask[a] = 0.0
                if len(chosen) >= MAX_PROMPT_LEN:
                    mask[: self.n_atoms] = 0.0
                dist = MaskedCategorical(self.net.forward(x), mask)
                c, lp = sample(dist, rng)
                decisions.append(FlatDecision(x, mask, c, lp))
                if c == self.stop_index:
                    break
                chosen.append(c)
            sequences.append(tuple(chosen))
        return FlatEpisode(decisions=decisions, config=Configuration(structure, tuple(sequences)))


# ---------------------------------------------------------------------------
# Flat PPO training (shared by bandit and flat-episode baselines)
# ---------------------------------------------------------------------------


def _flat_collect(policy, env, n, reward_cfg, run_seed, start, gamma,
                  table=None) -> list[FlatEpisode]:
    """Episodes start..start+n-1 of `collect_rollouts`' episode stream,
    configured by a flat policy (under table, if one is given)."""
    episodes = []
    for idx, rng, query, state in _episode_starts(env, run_seed, start, n):
        s_vec = state.as_vector()
        ep = policy.act(s_vec, rng) if table is None else policy.act(s_vec, rng, table)
        outcome = env.execute(query, ep.config, _episode_seed(run_seed, idx))
        ep.reward = shaped_reward(outcome, reward_cfg)[0]
        k = len(ep.decisions)
        for j, d in enumerate(ep.decisions):
            remaining = k - 1 - j
            d.target = ep.reward if (gamma == 0.0 or remaining == 0) else gamma**remaining * ep.reward
        episodes.append(ep)
    return episodes


def _flat_ppo_update(policy, episodes: Sequence[FlatEpisode], cfg: PPOConfig,
                     opt_net: AdamState, opt_value: AdamState):
    """Clipped surrogate and entropy averaged over every choice, value loss
    over every decision row."""
    decisions = [d for ep in episodes for d in ep.decisions]
    inputs = np.stack([d.input_vec for d in decisions])
    masks = np.stack([d.mask for d in decisions])
    actions = np.array([d.action for d in decisions])
    old_lp = np.array([d.log_prob for d in decisions])
    targets = np.array([d.target for d in decisions])
    advs = _normalize(targets - policy.value_net.forward_batch(inputs)[0][:, 0])
    advs = advs.reshape(advs.shape + (1,) * (actions.ndim - 1))  # shared by a row's heads
    value_scale = cfg.value_coef / len(decisions)
    diag = {}
    for _ in range(cfg.epochs_per_batch):
        new_lp, ent, cache = score_choices(policy.net, inputs, masks, actions, policy.columns)
        loss, dlogp, dent, _ = _ppo_terms(new_lp, ent, old_lp, advs, cfg)
        g_net = score_vjp(cache, dlogp, dent)
        sq, g_val = _value_regression(policy.value_net, inputs, targets, value_scale)
        loss += value_scale * sq
        if not math.isfinite(loss):
            raise TrainingDivergenceError("non-finite flat-policy loss")
        adam_step(policy.net.params, clip_grad_norm(g_net, cfg.max_grad_norm),
                  opt_net, cfg.lr_struct)
        adam_step(policy.value_net.params, clip_grad_norm(g_val, cfg.max_grad_norm),
                  opt_value, cfg.lr_struct)
        diag = {"loss": loss, "mean_reward": float(np.mean([e.reward for e in episodes]))}
    return diag


def _flat_train(policy, env, cfg: PPOConfig, reward_cfg, run_seed, gamma, table=None):
    """PPO on a flat policy, batch by batch over the episode stream.
    Returns (policy, diagnostics)."""
    opt_net = AdamState.for_params(policy.net.params)
    opt_value = AdamState.for_params(policy.value_net.params)
    diagnostics = []
    episode = 0
    while episode < cfg.total_episodes:
        n = min(cfg.batch_size, cfg.total_episodes - episode)
        episodes = _flat_collect(policy, env, n, reward_cfg, run_seed, episode, gamma, table)
        episode += n
        diagnostics.append(
            dict(_flat_ppo_update(policy, episodes, cfg, opt_net, opt_value),
                 episodes=episode)
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
