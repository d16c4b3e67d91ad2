"""Domain types shared by every module: queries, workflows, actions, episodes,
plus the atomic file write that every saved artifact goes through.

The structure action space is 9 workflows x 16^2 tool subsets x 3^3 budget
tiers = 62,208 joint actions, indexed with a workflow-major mixed-radix
encoding so actions round-trip losslessly through a single integer.
"""

from __future__ import annotations

import functools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import ContractError

# ---------------------------------------------------------------------------
# Tool registry and budget tiers
# ---------------------------------------------------------------------------

# Registry order fixes the bit layout of tool subsets (bit i <-> TOOL_REGISTRY[i]).
TOOL_REGISTRY = ("calculator", "web_search", "python_exec", "lookup")
N_TOOLS = len(TOOL_REGISTRY)
N_TOOL_SUBSETS = 1 << N_TOOLS  # 16

TIER_NAMES = ("Low", "Mid", "High")
TIER_TOKENS = (256, 1024, 4096)
N_TIERS = 3


def toolset_members(mask: int) -> tuple[str, ...]:
    """Tool names present in a 4-bit subset index."""
    return tuple(name for i, name in enumerate(TOOL_REGISTRY) if mask >> i & 1)


def toolset_size(mask: int) -> int:
    return bin(mask & (N_TOOL_SUBSETS - 1)).count("1")


def toolset_from_names(names: Sequence[str]) -> int:
    mask = 0
    for name in names:
        mask |= 1 << TOOL_REGISTRY.index(name)
    return mask


# ---------------------------------------------------------------------------
# Workflows
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workflow:
    """One workflow: its call counts and agents, and how both worlds run it.

    `plan` names the call topology `runtime.execute_real` follows (direct,
    chain, routing, sectioning, voting, orchestrator, evaluator_optimizer or
    autonomous); `fan_out` is the width of its parallel stage. Up to
    `refinements` rounds of critique and revision follow the first draft: the
    synthetic environment draws 0..refinements extra calls per execution,
    uniformly. `auto_tools` marks a loop that invokes its allocated tools
    without a prompt atom asking for them."""

    id: int
    name: str
    min_calls: int
    max_calls: int
    agents_active: int
    agent2_tools_allowed: bool
    plan: str
    fan_out: int = 1
    refinements: int = 0
    auto_tools: bool = False


WORKFLOWS: tuple[Workflow, ...] = (
    Workflow(0, "Direct", 1, 1, 1, False, "direct"),
    Workflow(1, "ReasonAns", 2, 2, 2, False, "chain"),
    Workflow(2, "ReasonVerifyAns", 3, 3, 3, True, "chain"),
    Workflow(3, "Routing", 3, 3, 3, True, "routing"),
    Workflow(4, "ParallelSectioning", 4, 4, 3, True, "sectioning", fan_out=3),
    Workflow(5, "ParallelVoting", 4, 4, 2, False, "voting", fan_out=3),
    Workflow(6, "OrchestratorWorkers", 4, 4, 3, True, "orchestrator", fan_out=2,
             auto_tools=True),
    Workflow(7, "EvaluatorOptimizer", 4, 7, 2, True, "evaluator_optimizer", refinements=3),
    Workflow(8, "AutonomousAgent", 4, 4, 1, True, "autonomous", auto_tools=True),
)

N_WORKFLOWS = len(WORKFLOWS)
WORKFLOW_BY_NAME = {wf.name: wf for wf in WORKFLOWS}

STRUCT_SPACE_SIZE = N_WORKFLOWS * N_TOOL_SUBSETS**2 * N_TIERS**3  # 62,208


# ---------------------------------------------------------------------------
# Queries and features
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    id: str
    text: str
    gold_answer: Optional[str] = None


MULTI_STEP_KEYWORDS = ("step", "then", "after", "first", "remaining", "left")
TOOL_KEYWORDS = ("calculate", "sum", "total", "how many", "search", "find")


@dataclass(frozen=True)
class QueryFeatures:
    char_length: int
    word_count: int
    numerical_density: float
    multi_step_flag: bool
    tool_flag: bool

    def as_vector(self) -> np.ndarray:
        return np.array(
            [
                self.char_length,
                self.word_count,
                self.numerical_density,
                float(self.multi_step_flag),
                float(self.tool_flag),
            ],
            dtype=np.float64,
        )


def extract_features(
    text: str,
    multi_step_keywords: Sequence[str] = MULTI_STEP_KEYWORDS,
    tool_keywords: Sequence[str] = TOOL_KEYWORDS,
) -> QueryFeatures:
    """Deterministic hand-crafted features of a query text.

    Tokenization is whitespace splitting; numerical density counts tokens
    containing at least one digit.
    """
    tokens = text.split()
    word_count = len(tokens)
    n_numeric = sum(1 for t in tokens if any(ch.isdigit() for ch in t))
    lowered = text.lower()
    return QueryFeatures(
        char_length=len(text),
        word_count=word_count,
        numerical_density=n_numeric / max(word_count, 1),
        multi_step_flag=any(k in lowered for k in multi_step_keywords),
        tool_flag=any(k in lowered for k in tool_keywords),
    )


@dataclass(frozen=True)
class StateEmbedding:
    """Fixed per-episode query representation: semantic vector + 5 features."""

    semantic: np.ndarray
    features: np.ndarray

    def __post_init__(self):
        if self.features.shape != (5,):
            raise ContractError(f"feature vector must have 5 entries, got {self.features.shape}")
        if not (np.isfinite(self.semantic).all() and np.isfinite(self.features).all()):
            raise ContractError("state embedding entries must be finite")

    # Raw count features (char/word counts) are orders of magnitude larger
    # than the unit-norm semantic entries and would saturate a tanh trunk, so
    # the network input squashes each feature to O(1). Stored records keep
    # the raw feature values.
    _FEATURE_SCALE = np.array([100.0, 20.0, 1.0, 1.0, 1.0])

    @functools.cached_property
    def _vector(self) -> np.ndarray:
        vector = np.concatenate([self.semantic, self.features / self._FEATURE_SCALE])
        vector.setflags(write=False)
        return vector

    def as_vector(self) -> np.ndarray:
        """The net input [semantic; scaled features], built on the first call
        and returned by every later one: read-only, since every caller shares
        it. A copy or pickle carries no vector and builds its own."""
        return self._vector

    @functools.cached_property
    def _key(self) -> tuple:
        return tuple(np.round(self.as_vector(), 6).tolist())

    def key(self) -> tuple:
        """Quantized hashable key (round to 1e-6) for tabular bookkeeping,
        built on the first call like `as_vector`."""
        return self._key

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_vector", None)
        state.pop("_key", None)
        return state


# ---------------------------------------------------------------------------
# Actions and configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StructureAction:
    workflow_id: int
    tools1: int
    tools2: int
    budgets: tuple[int, int, int]

    def __post_init__(self):
        if not 0 <= self.workflow_id < N_WORKFLOWS:
            raise ContractError(
                f"workflow_id: workflow out of range 0..{N_WORKFLOWS - 1}: {self.workflow_id}")
        for name in ("tools1", "tools2"):
            if not 0 <= getattr(self, name) < N_TOOL_SUBSETS:
                raise ContractError(f"{name}: tool subset out of range 0..{N_TOOL_SUBSETS - 1}: "
                                    f"{getattr(self, name)}")
        if len(self.budgets) != 3 or any(not 0 <= b < N_TIERS for b in self.budgets):
            raise ContractError(f"budgets: three tiers in 0..{N_TIERS - 1} required, "
                                f"got {self.budgets}")

    @property
    def workflow(self) -> Workflow:
        return WORKFLOWS[self.workflow_id]

    @property
    def heads(self) -> tuple[int, ...]:
        """The choice of each head, in head order: workflow, tools1, tools2,
        budget1..3."""
        return (self.workflow_id, self.tools1, self.tools2, *self.budgets)

    @classmethod
    def from_heads(cls, heads: Sequence[int]) -> "StructureAction":
        """The action whose `heads` are the given six choices."""
        wf, tools1, tools2, b1, b2, b3 = heads
        return cls(int(wf), int(tools1), int(tools2), (int(b1), int(b2), int(b3)))


def index_structure_action(a: StructureAction) -> int:
    """Mixed-radix encoding, workflow-major; bijective with the decoder."""
    idx = a.workflow_id
    idx = idx * N_TOOL_SUBSETS + a.tools1
    idx = idx * N_TOOL_SUBSETS + a.tools2
    for b in a.budgets:
        idx = idx * N_TIERS + b
    return idx


def decode_structure_action(i: int) -> StructureAction:
    if not 0 <= i < STRUCT_SPACE_SIZE:
        raise ContractError(f"structure index out of range: {i}")
    i, b3 = divmod(i, N_TIERS)
    i, b2 = divmod(i, N_TIERS)
    i, b1 = divmod(i, N_TIERS)
    i, tools2 = divmod(i, N_TOOL_SUBSETS)
    wf, tools1 = divmod(i, N_TOOL_SUBSETS)
    return StructureAction(wf, tools1, tools2, (b1, b2, b3))


# ---------------------------------------------------------------------------
# Prompt atoms and sequences
# ---------------------------------------------------------------------------

ROLES = ("reasoner", "verifier", "answerer")
MAX_PROMPT_LEN = 4


@dataclass(frozen=True)
class PromptAtom:
    id: int
    role: str
    text: str

    def __post_init__(self):
        if self.role not in ROLES:
            raise ContractError(f"unknown atom role: {self.role}")
        if not self.text:
            raise ContractError("atom text must be non-empty")


# A prompt sequence is the ordered tuple of chosen atom ids; STOP is implicit
# as the terminator and never stored.
PromptSequence = tuple[int, ...]


def validate_prompt_sequence(seq: Sequence[int], library_size: int) -> None:
    if len(seq) > MAX_PROMPT_LEN:
        raise ContractError(f"prompt sequence longer than {MAX_PROMPT_LEN}: {seq}")
    if len(set(seq)) != len(seq):
        raise ContractError(f"repeated atom in prompt sequence: {seq}")
    for a in seq:
        if not 0 <= a < library_size:
            raise ContractError(f"atom id out of range: {a}")


def validate_library(atoms: Sequence[PromptAtom]) -> None:
    ids = [a.id for a in atoms]
    if ids != list(range(len(atoms))):
        raise ContractError("atom library ids must be dense 0..|P|-1 in order")


@dataclass(frozen=True)
class Configuration:
    structure: StructureAction
    prompts: tuple[PromptSequence, ...]

    def __post_init__(self):
        n_active = self.structure.workflow.agents_active
        if len(self.prompts) != n_active:
            raise ContractError(
                f"{self.structure.workflow.name} needs {n_active} prompt "
                f"sequences, got {len(self.prompts)}"
            )


# ---------------------------------------------------------------------------
# Episodes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExecutionOutcome:
    answer_text: str
    correct: bool
    n_steps: int
    n_tokens: int
    n_tools_used: int
    n_tools_allocated: int

    def __post_init__(self):
        for name in ("n_steps", "n_tokens", "n_tools_used", "n_tools_allocated"):
            if getattr(self, name) < 0:
                raise ContractError(f"{name} must be non-negative")


@dataclass(frozen=True)
class EpisodeRecord:
    state: StateEmbedding
    structure_action: StructureAction
    prompt_actions: tuple[PromptSequence, ...]
    outcome: ExecutionOutcome
    reward: float
    reward_breakdown: tuple[float, float, float, float]
    seed: int

    def __post_init__(self):
        if abs(self.reward - sum(self.reward_breakdown)) > 1e-12:
            raise ContractError("reward must equal the sum of its breakdown terms")

    def to_json_dict(self) -> dict:
        return {
            "state_semantic": self.state.semantic.tolist(),
            "state_features": self.state.features.tolist(),
            "workflow": self.structure_action.workflow_id,
            "tools1": self.structure_action.tools1,
            "tools2": self.structure_action.tools2,
            "budgets": list(self.structure_action.budgets),
            "prompts": [list(p) for p in self.prompt_actions],
            "answer_text": self.outcome.answer_text,
            "correct": self.outcome.correct,
            "n_steps": self.outcome.n_steps,
            "n_tokens": self.outcome.n_tokens,
            "n_tools_used": self.outcome.n_tools_used,
            "n_tools_allocated": self.outcome.n_tools_allocated,
            "reward": self.reward,
            "reward_terms": list(self.reward_breakdown),
            "seed": self.seed,
        }

    @classmethod
    def from_json_dict(cls, d: dict, state: Optional[StateEmbedding] = None) -> "EpisodeRecord":
        """The record `to_json_dict` wrote. Given a state already read, d
        holds the other fields and the record takes that state as it is. A
        missing field, one of another JSON type or shape, or one the
        constructors refuse raises ContractError naming the field."""
        if type(d) is not dict:
            raise ContractError(f"expected a JSON object, got {d!r:.40}")
        if state is None:
            state = state_from_json_dict(d)
        heads = [_json_value(d, name, int) for name in ("workflow", "tools1", "tools2")]
        budgets = _json_list("budgets", _json_value(d, "budgets", list), int)
        action = StructureAction(*heads, budgets)  # its errors name their field
        outcome = ExecutionOutcome(
            answer_text=_json_value(d, "answer_text", str),
            correct=_json_value(d, "correct", bool),
            n_steps=_json_value(d, "n_steps", int),
            n_tokens=_json_value(d, "n_tokens", int),
            n_tools_used=_json_value(d, "n_tools_used", int),
            n_tools_allocated=_json_value(d, "n_tools_allocated", int),
        )
        return cls(
            state=state,
            structure_action=action,
            prompt_actions=tuple([_json_list("prompts", p, int)
                                  for p in _json_value(d, "prompts", list)]),
            outcome=outcome,
            reward=float(_json_value(d, "reward", float)),
            reward_breakdown=tuple([float(x) for x in _json_list(
                "reward_terms", _json_value(d, "reward_terms", list), float)]),
            seed=_json_value(d, "seed", int),
        )


def state_from_json_dict(d: dict) -> StateEmbedding:
    """The state of `to_json_dict`'s "state_semantic" and "state_features"
    fields; a bad one raises ContractError naming it."""
    semantic = _json_vector(d, "state_semantic")
    features = _json_vector(d, "state_features")
    try:
        return StateEmbedding(semantic=semantic, features=features)
    except ContractError as exc:
        bad = "state_features" if np.isfinite(semantic).all() else "state_semantic"
        raise ContractError(f"{bad}: {exc}") from exc


def _json_value(d: dict, name: str, kind: type):
    """d[name] if its JSON type is kind: int, float, bool, str or list. A
    bool is no number, an int is taken for a float, and a float must be
    finite."""
    if name not in d:
        raise ContractError(f"{name}: missing")
    return _json_checked(name, d[name], kind)


def _json_checked(name: str, value, kind: type):
    if type(value) is kind or (kind is float and type(value) is int):
        if kind is not float or math.isfinite(value):
            return value
    raise ContractError(f"{name}: expected {kind.__name__}, got {value!r:.40}")


def _json_list(name: str, values, kind: type) -> tuple:
    """values, a list in field name whose items are of JSON type kind, as a
    tuple."""
    return tuple([_json_checked(name, v, kind) for v in _json_checked(name, values, list)])


def _json_vector(d: dict, name: str) -> np.ndarray:
    """d[name], a flat list of numbers, as a float64 vector."""
    values = _json_value(d, name, list)
    try:
        vector = np.array(values)
    except ValueError:   # a ragged nesting
        vector = None
    if vector is None or vector.ndim != 1 or vector.dtype.kind not in "if":
        raise ContractError(f"{name}: expected a flat list of numbers, got {values!r:.40}")
    return vector.astype(np.float64, copy=False)


@dataclass
class ExperienceBuffer:
    """Append-only episode store; iteration order equals insertion order."""

    records: list[EpisodeRecord] = field(default_factory=list)

    def append(self, record: EpisodeRecord) -> None:
        self.records.append(record)

    def extend(self, records: Sequence[EpisodeRecord]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[EpisodeRecord]:
        return iter(self.records)

    def __getitem__(self, i):
        return self.records[i]


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Open a temporary file beside path for writing. When the block ends
    normally the file replaces path in one `os.replace`; when it raises, the
    file is removed and path keeps its old contents."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
