"""Exception types shared across the package, and the field checks that
every config dataclass raises ConfigError through."""

import dataclasses
import math
from typing import Callable


class AgentCfgError(Exception):
    """Base class for all package errors."""


class ShapeError(AgentCfgError):
    """Array dimensions inconsistent with the declared network/input shapes."""


class InvalidMaskError(AgentCfgError):
    """A categorical mask leaves no valid entry."""


class InvalidActionError(AgentCfgError):
    """An action is invalid under the active mask table."""


class ContractError(AgentCfgError):
    """A precondition of an operation was violated by the caller."""


class ConfigError(AgentCfgError):
    """Run configuration failed to load or validate."""


def require(section: str, cfg, rule: str, holds: Callable, *names) -> None:
    """Raise ConfigError naming the first field of names whose value fails
    holds; rule says what holds accepts."""
    for name in names:
        value = getattr(cfg, name)
        if not holds(value):
            raise ConfigError(f"{section}.{name} must be {rule}, got {value!r}")


def require_finite(section: str, cfg) -> None:
    """Every float field of a config dataclass must be a finite number."""
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{section}.{f.name} must be finite, got {value!r}")


class EmptyEliteError(AgentCfgError):
    """Elite filtering produced no records; SFT must not run."""


class NoPairsError(AgentCfgError):
    """DPO pairing found no valid positive/negative pairs."""


class TrainingDivergenceError(AgentCfgError):
    """A training loss became non-finite."""


class BackendError(AgentCfgError):
    """HTTP backend failed after exhausting retries."""


class ResponseParseError(AgentCfgError):
    """A backend response could not be parsed."""


class PersistenceError(AgentCfgError):
    """Saved data failed to load: an episode file or parameter file is
    missing, malformed or truncated."""
