"""End-to-end training: masked PPO with per-batch advantage normalization
(or group-relative advantages without a critic, GRPO), elite filtering, SFT
refinement, a DPO alternative, and executable checks of the SFT concentration
guarantees.

All losses are exposed as pure (loss, grads) functions of the current
parameters so gradient correctness is testable against finite differences.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    Configuration,
    EpisodeRecord,
    ExperienceBuffer,
    StateEmbedding,
    StructureAction,
    index_structure_action,
)
from .env import SyntheticEnv
from .errors import (
    ConfigError,
    ContractError,
    EmptyEliteError,
    NoPairsError,
    TrainingDivergenceError,
)
from .numeric import AdamState, DenseNet, adam_step, clip_grad_norm
from .numeric import log_prob  # noqa: F401  (re-exported: train.log_prob is public)
from .policy import (
    MaskTable,
    PromptPolicy,
    PromptStep,
    ReplayBatch,
    StructurePolicy,
    log_prob_prompts,
    log_prob_structure,
    replay,
    replay_batch,
    sample_prompts,
    sample_prompts_lockstep,
    sample_structure,
    vjp,
)
from .reward import RewardConfig, shaped_reward

# ---------------------------------------------------------------------------
# Configs (defaults follow the published training hyperparameters)
# ---------------------------------------------------------------------------


def _require(section: str, cfg, rule: str, holds: Callable, *names) -> None:
    """Raise ConfigError naming the first field of names whose value fails
    holds; rule says what holds accepts."""
    for name in names:
        value = getattr(cfg, name)
        if not holds(value):
            raise ConfigError(f"{section}.{name} must be {rule}, got {value!r}")


def _require_finite(section: str, cfg) -> None:
    """Every float field of a config dataclass must be a finite number."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section}.{f.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class PPOConfig:
    """Clipped-surrogate hyperparameters of the RL phase, for both
    objectives. GRPO trains no value net, so it reads neither gamma nor
    value_coef."""

    lr_struct: float = 3e-4
    lr_prompt: float = 5e-5
    batch_size: int = 32
    clip_eps: float = 0.2
    gamma: float = 0.95
    entropy_coef: float = 0.05
    value_coef: float = 0.5
    max_grad_norm: float = 0.5
    epochs_per_batch: int = 4
    total_episodes: int = 4000

    def __post_init__(self):
        # total_episodes <= 0 is refused by train_policies (ContractError)
        _require_finite("ppo", self)
        _require("ppo", self, ">= 1", lambda v: v >= 1, "batch_size", "epochs_per_batch")
        _require("ppo", self, "> 0", lambda v: v > 0, "clip_eps", "max_grad_norm")
        _require("ppo", self, ">= 0", lambda v: v >= 0, "lr_struct", "lr_prompt",
                 "entropy_coef", "value_coef")
        _require("ppo", self, "in [0, 1]", lambda v: 0 <= v <= 1, "gamma")


@dataclass(frozen=True)
class SFTConfig:
    lr_struct: float = 1e-4
    lr_prompt: float = 5e-6
    entropy_reg: float = 0.01
    tau: float = 4.0
    elite_fraction: float = 0.30
    epochs: int = 10

    def __post_init__(self):
        _require_finite("sft", self)
        _require("sft", self, "in (0, 1]", lambda v: 0 < v <= 1, "elite_fraction")
        _require("sft", self, ">= 1", lambda v: v >= 1, "epochs")
        _require("sft", self, ">= 0", lambda v: v >= 0, "lr_struct", "lr_prompt", "entropy_reg")


@dataclass(frozen=True)
class DPOConfig:
    lr_struct: float = 1e-4
    lr_prompt: float = 1e-5
    beta: float = 0.05
    epochs: int = 3
    max_grad_norm: float = 0.5
    positive_reward: float = 4.0   # positives additionally require correctness
    negative_reward: float = 2.0

    def __post_init__(self):
        _require_finite("dpo", self)
        _require("dpo", self, ">= 1", lambda v: v >= 1, "epochs")
        _require("dpo", self, "> 0", lambda v: v > 0, "beta", "max_grad_norm")
        _require("dpo", self, ">= 0", lambda v: v >= 0, "lr_struct", "lr_prompt")
        # Disjoint positives and negatives: no record can pair with itself.
        if not self.positive_reward > self.negative_reward:
            raise ConfigError(
                f"dpo.positive_reward must be > dpo.negative_reward, got "
                f"{self.positive_reward!r} <= {self.negative_reward!r}")


# ---------------------------------------------------------------------------
# Rollout collection
# ---------------------------------------------------------------------------


@dataclass
class Rollout:
    """One configured-and-executed episode plus the caches PPO needs."""

    record: EpisodeRecord
    struct_log_prob: float
    prompt_steps: list[PromptStep]
    # filled by compute_advantages
    struct_adv: float = 0.0
    struct_target: float = 0.0
    step_advs: list[float] = field(default_factory=list)
    step_targets: list[float] = field(default_factory=list)

    @property
    def state(self) -> StateEmbedding:
        return self.record.state


def _episode_seed(run_seed: int, index: int) -> int:
    """Execution seed of episode `index` of a run."""
    return int(np.random.SeedSequence([run_seed, index]).generate_state(1)[0])


def _episode_starts(env: SyntheticEnv, run_seed: int, start: int, n: int):
    """The episode stream of a run: for episodes start..start+n-1, yields
    (index, generator, query, state). Episode i draws from its own generator
    default_rng([run_seed, i, 0]), first its query and then, after the
    yield, every choice its policy samples."""
    for i in range(start, start + n):
        rng = np.random.default_rng([run_seed, i, 0])
        query = env.queries[int(rng.integers(0, len(env.queries)))]
        yield i, rng, query, env.embed(query)


def collect_rollouts(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    env: SyntheticEnv,
    n: int,
    reward_cfg: RewardConfig,
    run_seed: int,
    start_episode: int = 0,
) -> list[Rollout]:
    """Embed -> sample structure (masked) -> sample prompts -> execute ->
    shaped reward, over the `_episode_starts` stream; the prompt decisions
    of the whole batch run in lockstep, each episode in its own draw order.
    Episodes of one query share the trunk's cached entry for its state,
    which lives until the parameters change. Fully deterministic given
    run_seed and the episode counter (single-executor mode)."""
    episodes, states, actions, rngs = [], [], [], []
    for episode, rng, query, state in _episode_starts(env, run_seed, start_episode, n):
        action, struct_lp, _ = sample_structure(struct_policy, table, state, rng)
        episodes.append((episode, query, struct_lp))
        states.append(state)
        actions.append(action)
        rngs.append(rng)
    walks = sample_prompts_lockstep(prompt_policy, states, actions, rngs)
    rollouts = []
    for (episode, query, struct_lp), state, action, (prompts, steps) in zip(
            episodes, states, actions, walks):
        exec_seed = _episode_seed(run_seed, episode)
        config = Configuration(structure=action, prompts=prompts)
        outcome = env.execute(query, config, exec_seed)
        reward, breakdown = shaped_reward(outcome, reward_cfg)
        record = EpisodeRecord(
            state=state,
            structure_action=action,
            prompt_actions=prompts,
            outcome=outcome,
            reward=reward,
            reward_breakdown=breakdown,
            seed=exec_seed,
        )
        rollouts.append(Rollout(record=record, struct_log_prob=struct_lp, prompt_steps=steps))
    return rollouts


def collect_episodes(
    struct_policy, prompt_policy, table, env, n, reward_cfg, run_seed, start_episode=0
) -> ExperienceBuffer:
    buffer = ExperienceBuffer()
    for r in collect_rollouts(
        struct_policy, prompt_policy, table, env, n, reward_cfg, run_seed, start_episode
    ):
        buffer.append(r.record)
    return buffer


# ---------------------------------------------------------------------------
# Advantages
# ---------------------------------------------------------------------------


def _normalize(values: np.ndarray) -> np.ndarray:
    """Mean-0 std-1 with a population std and the +1e-8 guard."""
    return (values - values.mean()) / (values.std() + 1e-8)


def compute_advantages(
    rollouts: Sequence[Rollout],
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    gamma: float,
) -> None:
    """Structure advantage = return - V_struct(s); prompt-step advantage =
    gamma-discounted terminal reward - V_prompt(step input). Each set is
    normalized per batch, ranking-preserving."""
    if not rollouts:
        raise ContractError("cannot compute advantages for an empty batch")
    states = np.stack([r.state.as_vector() for r in rollouts])
    values = struct_policy.value_net.forward_batch(states)[0][:, 0]
    for r, a in zip(rollouts, _normalize(np.array([r.record.reward for r in rollouts]) - values)):
        r.struct_target = r.record.reward
        r.struct_adv = float(a)

    steps = [step for r in rollouts for step in r.prompt_steps]
    for r in rollouts:
        k = len(r.prompt_steps)
        r.step_targets = [gamma ** (k - 1 - j) * r.record.reward for j in range(k)]
        r.step_advs = []
    if steps:
        inputs = np.stack([step.input_vec for step in steps])
        targets = np.array([t for r in rollouts for t in r.step_targets])
        step_norm = _normalize(targets - prompt_policy.value_net.forward_batch(inputs)[0][:, 0])
        idx = 0
        for r in rollouts:
            r.step_advs = [float(a) for a in step_norm[idx: idx + len(r.prompt_steps)]]
            idx += len(r.prompt_steps)


def grpo_advantages(rewards: Sequence[float]) -> np.ndarray:
    """Group-relative advantages: (R_i - mean) / (population std + 1e-8)."""
    rewards = np.asarray(rewards, dtype=np.float64)
    if rewards.size == 0:
        raise ContractError("grpo_advantages needs at least one reward")
    return _normalize(rewards)


# ---------------------------------------------------------------------------
# PPO loss and update
# ---------------------------------------------------------------------------


def _surrogate_and_coeff(ratio, adv, clip_eps: float):
    """min(rho*A, clip(rho)*A) and d(surrogate)/d(new log-prob), elementwise."""
    unclipped_term = ratio * adv
    clipped_term = np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps) * adv
    take = unclipped_term <= clipped_term
    return np.where(take, unclipped_term, clipped_term), np.where(take, unclipped_term, 0.0)


def _ppo_terms(new_lp, entropy, old_lp, adv, cfg: PPOConfig):
    """Clipped-surrogate and entropy terms averaged over a set of decisions
    (every entry of new_lp; adv broadcasts to its shape). Returns (loss,
    dloss/dlogp, dloss/dentropy, clipped-ratio count)."""
    n = max(new_lp.size, 1)
    ratio = np.exp(new_lp - old_lp)
    surr, coeff = _surrogate_and_coeff(ratio, adv, cfg.clip_eps)
    loss = float(np.sum(-surr - cfg.entropy_coef * entropy)) / n
    hits = int(np.sum(np.abs(ratio - 1.0) > cfg.clip_eps))
    return loss, -coeff / n, -cfg.entropy_coef / n, hits


def _value_regression(net: DenseNet, inputs, targets, scale: float, out=None):
    """Sum of squared errors of net's scalar predictions and the gradients of
    scale times it, written to out if given (see `DenseNet.backward`)."""
    v, activations = net.forward_batch(inputs)
    err = v[:, 0] - targets
    grads = net.backward(inputs, (2.0 * scale * err)[:, None], activations, out)
    return float(err @ err), grads


class PPOBatch(NamedTuple):
    """Rollouts laid out once for every epoch of a PPO update: the replay
    layout, then per structure decision and per prompt step the log-prob it
    was sampled with, its advantage and its value target."""

    replay: ReplayBatch
    struct_old_lp: np.ndarray
    struct_adv: np.ndarray
    struct_targets: np.ndarray
    step_old_lp: np.ndarray
    step_adv: np.ndarray
    step_targets: np.ndarray
    mean_reward: float


def ppo_batch(prompt_policy: PromptPolicy, table: MaskTable,
              rollouts: Sequence[Rollout]) -> PPOBatch:
    """The `PPOBatch` of rollouts whose advantages and targets are set."""
    steps = [step for r in rollouts for step in r.prompt_steps]
    return PPOBatch(
        ReplayBatch.build(prompt_policy, table, [r.state.as_vector() for r in rollouts],
                          [r.record.structure_action for r in rollouts],
                          [r.prompt_steps for r in rollouts]),
        np.array([r.struct_log_prob for r in rollouts]),
        np.array([r.struct_adv for r in rollouts]),
        np.array([r.struct_target for r in rollouts]),
        np.array([step.log_prob for step in steps]),
        np.array([a for r in rollouts for a in r.step_advs]),
        np.array([t for r in rollouts for t in r.step_targets]),
        float(np.mean([r.record.reward for r in rollouts])),
    )


def ppo_loss_and_grads(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    rollouts,
    cfg: PPOConfig,
    use_value_loss: bool = True,
    out: Optional[dict] = None,
):
    """Clipped-surrogate PPO loss over one batch, with value MSE and entropy
    regularization; masks are applied identically to old and new log-probs.
    Structure terms are averaged over episodes, prompt terms over steps.
    rollouts: Rollouts, or their `ppo_batch`.

    Returns (loss, grads, diagnostics) where grads maps net name -> gradient
    list aligned with that net's parameters. Without the value loss (GRPO)
    grads holds no value-net entries. out, if given, maps net names to the
    gradients to overwrite (`_grad_buffers`).
    """
    batch = rollouts if isinstance(rollouts, PPOBatch) else ppo_batch(
        prompt_policy, table, rollouts)
    layout = batch.replay
    (s_lp, p_lp), (s_h, p_h), cache = replay((struct_policy, prompt_policy), table, layout)
    s_loss, s_dlogp, s_dh, s_hits = _ppo_terms(s_lp, s_h, batch.struct_old_lp,
                                               batch.struct_adv, cfg)
    p_loss, p_dlogp, p_dh, p_hits = _ppo_terms(p_lp, p_h, batch.step_old_lp,
                                               batch.step_adv, cfg)
    loss = s_loss + p_loss
    out = {} if out is None else out
    grads = vjp(cache, (s_dlogp, p_dlogp), (s_dh, p_dh), out)
    n_struct, n_steps = layout.n, len(batch.step_old_lp)
    sq_err = 0.0
    if use_value_loss:
        for name, net, inputs, targets, n in (
            ("struct_value", struct_policy.value_net, layout.states, batch.struct_targets,
             n_struct),
            ("prompt_value", prompt_policy.value_net, layout.step_inputs, batch.step_targets,
             n_steps),
        ):
            scale = cfg.value_coef / max(n, 1)
            sq, grads[name] = _value_regression(net, inputs, targets, scale, out.get(name))
            loss += scale * sq
            sq_err += sq

    n_decisions = max(n_struct + n_steps, 1)
    diagnostics = {
        "loss": loss,
        "clip_fraction": (s_hits + p_hits) / n_decisions,
        "mean_entropy": float(s_h.sum() + p_h.sum()) / n_decisions,
        "value_loss": sq_err / n_decisions,
        "mean_reward": batch.mean_reward,
    }
    return loss, grads, diagnostics


def _grad_buffers(**nets: DenseNet) -> dict:
    """One gradient per named net, for an update to overwrite at every
    epoch: each is consumed by `adam_step` before the next epoch writes it,
    so the epochs map no fresh net-sized vectors."""
    return {name: net.params.empty_like() for name, net in nets.items()}


@dataclass
class OptimizerSet:
    struct_trunk: AdamState
    struct_value: AdamState
    prompt_net: AdamState
    prompt_value: AdamState

    @classmethod
    def create(cls, struct_policy: StructurePolicy, prompt_policy: PromptPolicy):
        return cls(
            struct_trunk=AdamState.for_params(struct_policy.trunk.params),
            struct_value=AdamState.for_params(struct_policy.value_net.params),
            prompt_net=AdamState.for_params(prompt_policy.net.params),
            prompt_value=AdamState.for_params(prompt_policy.value_net.params),
        )


def ppo_update(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    rollouts: Sequence[Rollout],
    cfg: PPOConfig,
    opt: OptimizerSet,
    use_value_loss: bool = True,
):
    """epochs_per_batch gradient steps on the batch; per-network gradient
    clipping and per-policy learning rates. Only the nets that receive a
    gradient are stepped: without the value loss the value nets and their
    Adam states stay as they are. The batch is laid out once, for every
    epoch."""
    batch = ppo_batch(prompt_policy, table, rollouts)
    out = _grad_buffers(struct_trunk=struct_policy.trunk, struct_value=struct_policy.value_net,
                        prompt_net=prompt_policy.net, prompt_value=prompt_policy.value_net)
    last = None
    for _ in range(cfg.epochs_per_batch):
        loss, grads, last = ppo_loss_and_grads(
            struct_policy, prompt_policy, table, batch, cfg, use_value_loss, out
        )
        if not math.isfinite(loss):
            raise TrainingDivergenceError(f"non-finite PPO loss: {last}")
        for name, net, state, lr in (
            ("struct_trunk", struct_policy.trunk, opt.struct_trunk, cfg.lr_struct),
            ("struct_value", struct_policy.value_net, opt.struct_value, cfg.lr_struct),
            ("prompt_net", prompt_policy.net, opt.prompt_net, cfg.lr_prompt),
            ("prompt_value", prompt_policy.value_net, opt.prompt_value, cfg.lr_prompt),
        ):
            if name in grads:
                adam_step(net.params, clip_grad_norm(grads[name], cfg.max_grad_norm), state, lr)
    return last


def train_policies(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    env: SyntheticEnv,
    cfg: PPOConfig,
    reward_cfg: RewardConfig,
    run_seed: int,
    objective: str = "ppo",
    on_batch: Optional[Callable[[int, dict], None]] = None,
):
    """RL phase of the training pipeline: collect a batch, normalize
    advantages, run clipped-surrogate epochs; repeat until total_episodes.
    objective "grpo" uses group-relative advantages (every decision of an
    episode gets the episode's standardized reward) and no value loss.

    Returns (buffer, diagnostics list)."""
    if cfg.total_episodes <= 0:
        raise ContractError("total_episodes must be positive")
    if objective not in ("ppo", "grpo"):
        raise ContractError(f"unknown objective: {objective}")
    opt = OptimizerSet.create(struct_policy, prompt_policy)
    buffer = ExperienceBuffer()
    diagnostics = []
    episode = 0
    batch_idx = 0
    while episode < cfg.total_episodes:
        n = min(cfg.batch_size, cfg.total_episodes - episode)
        rollouts = collect_rollouts(
            struct_policy, prompt_policy, table, env, n, reward_cfg, run_seed, episode
        )
        episode += n
        buffer.extend(r.record for r in rollouts)
        if objective == "grpo":
            for r, a in zip(rollouts, grpo_advantages([r.record.reward for r in rollouts])):
                r.struct_adv = float(a)
                r.step_advs = [float(a)] * len(r.prompt_steps)
        else:
            compute_advantages(rollouts, struct_policy, prompt_policy, cfg.gamma)
        diag = ppo_update(struct_policy, prompt_policy, table, rollouts, cfg, opt,
                          use_value_loss=objective == "ppo")
        diag = dict(diag or {}, batch=batch_idx, episodes=episode)
        diagnostics.append(diag)
        if on_batch:
            on_batch(batch_idx, diag)
        batch_idx += 1
    return buffer, diagnostics


# ---------------------------------------------------------------------------
# Elite filtering and SFT
# ---------------------------------------------------------------------------


def action_key(structure: StructureAction, prompts) -> tuple:
    return (index_structure_action(structure), tuple(tuple(p) for p in prompts))


@dataclass
class EliteSet:
    """Correct, above-threshold episodes plus their empirical distribution
    over quantized state keys, indexed once by `filter_elite`."""

    records: list[EpisodeRecord]
    tau_eff: float
    state_counts: dict
    action_counts: dict          # (state_key, action_key) -> count
    state_examples: dict         # state_key -> StateEmbedding
    action_examples: dict        # (state_key, action_key) -> EpisodeRecord
    actions_by_state: dict = field(default_factory=dict)  # state_key -> {action_key: count}
    action_rewards: dict = field(default_factory=dict)    # (state_key, action_key) -> rewards

    def __len__(self):
        return len(self.records)

    def p_hat(self, state_key) -> dict:
        n_s = self.state_counts[state_key]
        return {a_key: count / n_s for a_key, count in self.actions_by_state[state_key].items()}

    def elite_actions(self, state_key) -> set:
        return set(self.actions_by_state.get(state_key, ()))

    def rewards_for(self, state_key, a_key) -> list[float]:
        return list(self.action_rewards.get((state_key, a_key), ()))


def filter_elite(buffer: ExperienceBuffer, cfg: SFTConfig) -> EliteSet:
    """Keep records that are correct with reward >= tau_eff, where tau_eff
    reconciles the fixed threshold with the top-fraction quantile."""
    if len(buffer) == 0:
        raise ContractError("cannot filter an empty buffer")
    rewards = np.array([r.reward for r in buffer])
    quantile = float(np.quantile(rewards, 1.0 - cfg.elite_fraction, method="higher"))
    tau_eff = max(cfg.tau, quantile)
    records = [r for r in buffer if r.outcome.correct and r.reward >= tau_eff]
    if not records:
        raise EmptyEliteError(
            f"no correct episodes with reward >= {tau_eff:.4f} among {len(buffer)}"
        )
    elite = EliteSet(records, tau_eff, {}, {}, {}, {})
    for r in records:
        s_key = r.state.key()
        a_key = action_key(r.structure_action, r.prompt_actions)
        elite.state_counts[s_key] = elite.state_counts.get(s_key, 0) + 1
        elite.action_counts[(s_key, a_key)] = elite.action_counts.get((s_key, a_key), 0) + 1
        by_state = elite.actions_by_state.setdefault(s_key, {})
        by_state[a_key] = by_state.get(a_key, 0) + 1
        elite.action_rewards.setdefault((s_key, a_key), []).append(r.reward)
        elite.state_examples.setdefault(s_key, r.state)
        elite.action_examples.setdefault((s_key, a_key), r)
    return elite


def sft_loss_and_grads(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    records,
    entropy_reg: float = 0.0,
    out: Optional[dict] = None,
):
    """Mean negative log-likelihood of the elite demonstrations (structure
    action and every prompt step), minus entropy_reg times the mean policy
    entropy at the visited decisions. records: EpisodeRecords or their
    ReplayBatch. out as in `ppo_loss_and_grads`."""
    (s_lp, p_lp), (s_h, p_h), cache = replay((struct_policy, prompt_policy), table, records)
    n = max(len(s_lp), 1)
    loss = -float(s_lp.sum() + p_lp.sum() + entropy_reg * (s_h.sum() + p_h.sum())) / n
    grads = vjp(cache, (-1.0 / n, -1.0 / n), (-entropy_reg / n, -entropy_reg / n), out)
    return loss, grads


def sft_update(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    elite: EliteSet,
    cfg: SFTConfig,
):
    """Maximum-likelihood refinement on the elite set; raises on an empty
    elite without touching the policies."""
    if len(elite) == 0:
        raise EmptyEliteError("sft_update requires a non-empty elite set")
    batch = replay_batch(prompt_policy, table, elite.records)
    opt_struct = AdamState.for_params(struct_policy.trunk.params)
    opt_prompt = AdamState.for_params(prompt_policy.net.params)
    out = _grad_buffers(struct_trunk=struct_policy.trunk, prompt_net=prompt_policy.net)
    losses = []
    for _ in range(cfg.epochs):
        loss, grads = sft_loss_and_grads(
            struct_policy, prompt_policy, table, batch, cfg.entropy_reg, out
        )
        if not math.isfinite(loss):
            raise TrainingDivergenceError("non-finite SFT loss")
        adam_step(struct_policy.trunk.params, grads["struct_trunk"], opt_struct, cfg.lr_struct)
        adam_step(prompt_policy.net.params, grads["prompt_net"], opt_prompt, cfg.lr_prompt)
        losses.append(loss)
    return losses


# ---------------------------------------------------------------------------
# DPO
# ---------------------------------------------------------------------------


def _config_log_prob(struct_policy, prompt_policy, table, record: EpisodeRecord) -> float:
    """A record's configuration log-prob: its structure's plus its prompt
    steps' (see `log_prob_structure` and `log_prob_prompts`)."""
    return (log_prob_structure(struct_policy, table, record.state, record.structure_action)
            + log_prob_prompts(prompt_policy, record.state, record.structure_action,
                               record.prompt_actions))


def _dpo_pairs(buffer: ExperienceBuffer, cfg: DPOConfig):
    positives = [
        r for r in buffer if r.outcome.correct and r.reward >= cfg.positive_reward
    ]
    negatives = [r for r in buffer if r.reward <= cfg.negative_reward]
    if not positives or not negatives:
        raise NoPairsError(
            f"need positives and negatives: {len(positives)} / {len(negatives)}"
        )
    neg_vectors = np.stack([r.state.as_vector() for r in negatives])
    pairs = []
    for pos in positives:
        d = np.linalg.norm(neg_vectors - pos.state.as_vector(), axis=1)
        pairs.append((pos, negatives[int(np.argmin(d))]))
    return pairs


def dpo_update(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    buffer: ExperienceBuffer,
    cfg: DPOConfig,
):
    """Preference refinement against the pre-update policy as reference.
    Positives pair with their nearest-state negative, one pair per positive;
    a record in several pairs, or records of one (state, configuration),
    share one reference log-prob (see `_reference_log_probs`)."""
    pairs = _dpo_pairs(buffer, cfg)
    ref_lps = _reference_log_probs(struct_policy, prompt_policy, table, pairs)
    batch = _pair_batch(prompt_policy, table, pairs)
    opt_struct = AdamState.for_params(struct_policy.trunk.params)
    opt_prompt = AdamState.for_params(prompt_policy.net.params)
    out = _grad_buffers(struct_trunk=struct_policy.trunk, prompt_net=prompt_policy.net)
    losses = []
    for _ in range(cfg.epochs):
        loss, grads = dpo_loss_and_grads(
            struct_policy, prompt_policy, table, batch, ref_lps, cfg, out
        )
        if not math.isfinite(loss):
            raise TrainingDivergenceError("non-finite DPO loss")
        g1 = clip_grad_norm(grads["struct_trunk"], cfg.max_grad_norm)
        g2 = clip_grad_norm(grads["prompt_net"], cfg.max_grad_norm)
        adam_step(struct_policy.trunk.params, g1, opt_struct, cfg.lr_struct)
        adam_step(prompt_policy.net.params, g2, opt_prompt, cfg.lr_prompt)
        losses.append(loss)
    return losses


def _reference_log_probs(struct_policy, prompt_policy, table, pairs) -> list[tuple]:
    """Each pair's (positive, negative) configuration log-probs under the
    current parameters: one score per distinct (state, configuration). The
    scores read the nets' caches, so a state scored before skips the trunk
    and a step scored before the prompt net; the first update clears them."""
    ref: dict = {}

    def ref_lp(r: EpisodeRecord) -> float:
        key = (r.state.as_vector().tobytes(), action_key(r.structure_action, r.prompt_actions))
        if key not in ref:
            ref[key] = _config_log_prob(struct_policy, prompt_policy, table, r)
        return ref[key]

    return [(ref_lp(pos), ref_lp(neg)) for pos, neg in pairs]


def _pair_batch(prompt_policy, table, pairs) -> ReplayBatch:
    """Every positive, then every negative, laid out for replay."""
    return replay_batch(prompt_policy, table,
                        [pos for pos, _ in pairs] + [neg for _, neg in pairs])


def dpo_loss_and_grads(struct_policy, prompt_policy, table, pairs, ref_lps, cfg: DPOConfig,
                       out: Optional[dict] = None):
    """loss = -log sigmoid(beta * [(l(a+) - l_ref(a+)) - (l(a-) - l_ref(a-))])
    averaged over pairs. pairs: (positive, negative) records, or their
    `_pair_batch`. out as in `ppo_loss_and_grads`."""
    batch = pairs if isinstance(pairs, ReplayBatch) else _pair_batch(
        prompt_policy, table, pairs)
    logp, _, cache = replay((struct_policy, prompt_policy), table, batch)
    lp = batch.per_config(*logp)
    n = batch.n // 2
    ref = np.reshape(np.asarray(ref_lps, dtype=np.float64), (n, 2))
    margin = cfg.beta * ((lp[:n] - ref[:, 0]) - (lp[n:] - ref[:, 1]))
    loss = float(np.sum(np.logaddexp(0.0, -margin))) / max(n, 1)
    # d loss / d lp_pos = -beta * sigmoid(-margin); flipped sign for lp_neg
    coeff = -cfg.beta * np.exp(-np.logaddexp(0.0, margin)) / max(n, 1)
    dlogp = np.concatenate([coeff, -coeff])
    grads = vjp(cache, (dlogp, dlogp[batch.step_owner]), (0.0, 0.0), out)
    return loss, grads


# ---------------------------------------------------------------------------
# Theorem verification (support restriction / reward floor / KL)
# ---------------------------------------------------------------------------


def _require_count(name: str, value: int) -> None:
    """A count is an integer >= 1, numpy integers included: a bool is not
    taken as 0 or 1, nor 2.5 as two and a half."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= 1):
        raise ContractError(f"{name} must be an integer >= 1, got {value!r}")


def _require_elite(elite: EliteSet) -> None:
    """A guarantee check does not pass on no evidence: it needs an elite
    state to sample."""
    if not elite.state_examples:
        raise EmptyEliteError("a guarantee check requires a non-empty elite set")


def _sample_config_keys(struct_policy, prompt_policy, table, state, n_samples, rng):
    """Keys of n_samples configurations drawn for one state, one after the
    other from rng. Samples of a state seen before, in this call or an
    earlier one under the same parameters, read the nets' caches."""
    for _ in range(n_samples):
        action, _, _ = sample_structure(struct_policy, table, state, rng)
        prompts, _ = sample_prompts(prompt_policy, state, action, rng)
        yield action_key(action, prompts)


def verify_support_restriction(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    elite: EliteSet,
    n_samples: int,
    rng: np.random.Generator,
):
    """Draw n_samples configurations per elite state; pass iff every sample
    lies in that state's elite action set. Returns (passed, violations).
    Raises EmptyEliteError on an empty elite set, and ContractError unless
    n_samples is an integer >= 1."""
    _require_count("n_samples", n_samples)
    _require_elite(elite)
    violations = []
    for s_key, state in elite.state_examples.items():
        allowed = elite.elite_actions(s_key)
        for a_key in _sample_config_keys(struct_policy, prompt_policy, table, state,
                                         n_samples, rng):
            if a_key not in allowed:
                violations.append((s_key, a_key))
    return len(violations) == 0, violations


def verify_reward_floor(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    elite: EliteSet,
    n_samples: int,
    rng: np.random.Generator,
):
    """Estimate E[replayed elite reward] under the refined policy; pass iff
    the estimate is >= tau_eff - 1e-9 and no sampled action falls outside the
    recorded support. Returns (estimate, passed, n_support_violations).
    Refuses an empty elite set or a bad n_samples as
    `verify_support_restriction` does."""
    _require_count("n_samples", n_samples)
    _require_elite(elite)
    reward_lookup = {
        key: float(np.mean(rewards)) for key, rewards in elite.action_rewards.items()
    }
    total_weight = sum(elite.state_counts.values())
    estimate = 0.0
    n_violations = 0
    for s_key, state in elite.state_examples.items():
        weight = elite.state_counts[s_key] / total_weight
        acc = 0.0
        for a_key in _sample_config_keys(struct_policy, prompt_policy, table, state,
                                         n_samples, rng):
            if (s_key, a_key) in reward_lookup:
                acc += reward_lookup[(s_key, a_key)]
            else:
                n_violations += 1
        estimate += weight * acc / n_samples
    passed = n_violations == 0 and estimate >= elite.tau_eff - 1e-9
    return estimate, passed, n_violations


def kl_to_empirical(
    struct_policy: StructurePolicy,
    prompt_policy: PromptPolicy,
    table: MaskTable,
    elite: EliteSet,
) -> float:
    """State-frequency-weighted KL(p_hat || pi) over elite actions; policy
    probabilities floored at 1e-12 so the report stays finite. Raises
    EmptyEliteError on an empty elite set."""
    _require_elite(elite)
    total = sum(elite.state_counts.values())
    terms = [
        (elite.state_counts[s_key] / total, p, elite.action_examples[(s_key, a_key)])
        for s_key in elite.state_examples
        for a_key, p in elite.p_hat(s_key).items()
    ]
    batch = replay_batch(prompt_policy, table, [record for _, _, record in terms])
    lp = batch.per_config(*replay((struct_policy, prompt_policy), table, batch)[0])
    kl = 0.0
    for (weight, p, _), l in zip(terms, lp):
        kl += weight * p * math.log(p / max(math.exp(l), 1e-12))
    return kl
