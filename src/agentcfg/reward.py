"""Shaped episode reward: task success minus efficiency penalties plus
asymmetric tool shaping."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import ExecutionOutcome
from .errors import ConfigError


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
        for name in ("alpha", "beta_s", "beta_t", "eta", "delta1", "delta2", "delta3"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"reward.{name} must be finite and >= 0, got {value!r}")
        if self.t_max <= 0:
            raise ConfigError(f"reward.t_max must be >= 1, got {self.t_max!r}")


def tool_shaping(n_used: int, n_alloc: int, correct: bool, cfg: RewardConfig) -> float:
    """Asymmetric tool term: reward invocations (plus a correctness bonus),
    penalize allocated-but-unused tools. The no-allocation no-usage case is
    neutral (0)."""
    if n_used > 0:
        return cfg.delta1 * n_used + cfg.delta2 * (1.0 if correct else 0.0)
    if n_alloc > 0:
        return -cfg.delta3 * n_alloc
    return 0.0


def shaped_reward(outcome: ExecutionOutcome, cfg: RewardConfig):
    """Returns (reward, breakdown) with breakdown =
    (success_term, step_penalty, token_penalty, tool_term); the terms sum to
    the reward exactly."""
    success = cfg.alpha * (1.0 if outcome.correct else 0.0)
    step_pen = -cfg.beta_s * outcome.n_steps
    token_pen = -cfg.beta_t * (outcome.n_tokens / cfg.t_max)
    tool = cfg.eta * tool_shaping(
        outcome.n_tools_used, outcome.n_tools_allocated, outcome.correct, cfg
    )
    breakdown = (success, step_pen, token_pen, tool)
    return sum(breakdown), breakdown
