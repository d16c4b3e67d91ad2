"""Exception types shared across the package."""


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
