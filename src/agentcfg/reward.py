"""Shaped episode reward: task success minus efficiency penalties plus
asymmetric tool shaping."""

from __future__ import annotations

from dataclasses import dataclass

from .core import ExecutionOutcome
from .errors import require, require_finite


@dataclass(frozen=True)
class RewardConfig:
    alpha: float = 5.0        # task success weight
    beta_s: float = 0.02      # per-step penalty
    beta_t: float = 0.03      # token penalty (tokens normalized by t_max)
    eta: float = 1.0          # tool-shaping weight
    delta1: float = 0.1       # per-invocation bonus
    delta2: float = 0.2       # correct-with-tools bonus
    delta3: float = 0.3       # allocated-but-unused penalty
    t_max: int = 4096

    def __post_init__(self):
        require_finite("reward", self)
        require("reward", self, ">= 0", lambda v: v >= 0,
                "alpha", "beta_s", "beta_t", "eta", "delta1", "delta2", "delta3")
        require("reward", self, ">= 1", lambda v: v >= 1, "t_max")


def tool_shaping(n_used: int, n_alloc: int, correct: bool, cfg: RewardConfig) -> float:
    """Asymmetric tool term: reward invocations (plus a correctness bonus),
    penalize allocated-but-unused tools. The no-allocation no-usage case is
    neutral (0)."""
    if n_used > 0:
        return cfg.delta1 * n_used + cfg.delta2 * (1.0 if correct else 0.0)
    if n_alloc > 0:
        return -cfg.delta3 * n_alloc
    return 0.0


def reward_terms(correct: bool, n_steps: float, n_tokens: float, n_used: int, n_alloc: int,
                 cfg: RewardConfig) -> tuple[float, float, float, float]:
    """(success_term, step_penalty, token_penalty, tool_term) of an outcome
    with these fields; the shaped reward is their sum. The oracle calls it at
    the mean step count, which need not be whole."""
    return (
        cfg.alpha * (1.0 if correct else 0.0),
        -cfg.beta_s * n_steps,
        -cfg.beta_t * (n_tokens / cfg.t_max),
        cfg.eta * tool_shaping(n_used, n_alloc, correct, cfg),
    )


def shaped_reward(outcome: ExecutionOutcome, cfg: RewardConfig):
    """Returns (reward, breakdown) with breakdown = `reward_terms` of the
    outcome; the terms sum to the reward exactly."""
    breakdown = reward_terms(outcome.correct, outcome.n_steps, outcome.n_tokens,
                             outcome.n_tools_used, outcome.n_tools_allocated, cfg)
    return sum(breakdown), breakdown
