"""Environment contract plus a fully specified synthetic agentic environment.

The synthetic ground truth is a logistic success model over interpretable
match terms (depth, tool coverage, budget adequacy, prompt relevance,
difficulty) with a deterministic cost model. Tool *usage* is gated separately
from allocation, so the asymmetric allocated-but-unused penalty is reachable.
Every execution is a pure function of (query spec, configuration, seed),
which makes the closed-form expected-reward oracle checkable by Monte Carlo.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    AUTO_TOOL_WORKFLOWS,
    EVALUATOR_OPTIMIZER_ID,
    ROLES,
    TIER_TOKENS,
    TOOL_REGISTRY,
    Configuration,
    ExecutionOutcome,
    PromptAtom,
    Query,
    StateEmbedding,
    extract_features,
    index_structure_action,
    toolset_size,
)
from .errors import ContractError
from .reward import RewardConfig, tool_shaping

TOOL_TOKEN_OVERHEAD = 150      # tokens charged per invoked tool
BASE_NEEDED_TOKENS = 256       # token need at difficulty 0
EO_EXPECTED_EXTRA = 1.5        # mean of the seeded uniform {0,1,2,3} extra iterations


# ---------------------------------------------------------------------------
# Ground-truth model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticQuerySpec:
    """Latent generator state; recorded for oracle use only and never
    exposed to the policies."""

    difficulty: float
    required_tools: int          # 4-bit subset
    required_depth: int          # minimum agents_active needed
    noise_scale: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.difficulty <= 1.0:
            raise ContractError(f"difficulty out of [0,1]: {self.difficulty}")
        if not 1 <= self.required_depth <= 3:
            raise ContractError(f"required_depth out of 1..3: {self.required_depth}")
        if self.noise_scale < 0:
            raise ContractError("noise_scale must be >= 0")

    @functools.cached_property
    def terms(self) -> _QueryTerms:
        """The spec's side of the ground truth, computed once per spec."""
        return _QueryTerms(
            qclass=query_class(self),
            required_tools=self.required_tools,
            n_required=max(toolset_size(self.required_tools), 1),
            required_depth=self.required_depth,
            difficulty=self.difficulty,
            needed=BASE_NEEDED_TOKENS * (1.0 + 2.0 * self.difficulty),
            token_scale=0.5 + 0.5 * self.difficulty,
            jitter=int(self.noise_scale),
        )


@dataclass(frozen=True)
class SuccessModel:
    w_bias: float = -1.0
    w_depth: float = 2.0
    w_coverage: float = 2.5
    w_adequacy: float = 1.5
    w_relevance: float = 1.0
    w_difficulty: float = 3.0


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@functools.lru_cache(maxsize=1024)
def atom_class(text: str) -> str:
    """Deterministic instruction class of a prompt atom, by keyword."""
    lowered = text.lower()
    if "tool" in lowered:
        return "tool"
    if "decompose" in lowered or "step" in lowered:
        return "multi_step"
    return "general"


def query_class(spec: SyntheticQuerySpec) -> str:
    if spec.required_tools:
        return "tool"
    if spec.required_depth >= 2:
        return "multi_step"
    return "general"


# The ground truth is one kernel over two sets of terms: those of a query's
# spec, which hold for every configuration (`SyntheticQuerySpec.terms`), and
# those of a configuration, which hold for every query (`_config_terms`).


class _QueryTerms(NamedTuple):
    qclass: str
    required_tools: int
    n_required: int               # max(toolset_size(required_tools), 1)
    required_depth: int
    difficulty: float
    needed: float                 # tokens an agent needs at this difficulty
    token_scale: float            # share of its allowance an agent spends
    jitter: int                   # half-width of the token jitter


class _ConfigTerms(NamedTuple):
    agents_active: int
    allocated: int                # tools1 | tools2
    n_alloc: int                  # tools allocated over both agents
    tokens: tuple[int, ...]       # token allowance of each active agent
    tool_gated: bool              # the execution has a reason to call tools
    n_chosen: int                 # atoms chosen over all agents
    matched: tuple[str, ...]      # class of each atom chosen by its own role
    n_steps: int                  # nominal LLM calls
    eo: bool                      # EvaluatorOptimizer: seeded extra iterations


def _config_terms(config: Configuration, library: Sequence[PromptAtom]) -> _ConfigTerms:
    s = config.structure
    wf = s.workflow
    tool_atom = False
    n_chosen = 0
    matched = []
    for role, seq in zip(ROLES, config.prompts):
        n_chosen += len(seq)
        for atom_id in seq:
            atom = library[atom_id]
            cls = atom_class(atom.text)
            tool_atom = tool_atom or cls == "tool"
            if atom.role == role:
                matched.append(cls)
    return _ConfigTerms(
        wf.agents_active,
        s.tools1 | s.tools2,
        toolset_size(s.tools1) + toolset_size(s.tools2),
        tuple([TIER_TOKENS[b] for b in s.budgets[: wf.agents_active]]),
        tool_atom or s.workflow_id in AUTO_TOOL_WORKFLOWS,
        n_chosen,
        tuple(matched),
        wf.llm_call_count,
        s.workflow_id == EVALUATOR_OPTIMIZER_ID,
    )


def _relevance(qclass: str, c: _ConfigTerms) -> float:
    return c.matched.count(qclass) / c.n_chosen if c.n_chosen else 0.0


def _tools_used(q: _QueryTerms, c: _ConfigTerms) -> int:
    """Tools are invoked only if allocated AND required AND the execution has
    a reason to call them (a tool-class atom, or an inherently tool-looping
    workflow)."""
    return toolset_size(q.required_tools & c.allocated) if c.tool_gated else 0


def _ground_truth(q: _QueryTerms, c: _ConfigTerms, model: SuccessModel):
    """(success probability, tools invoked, tokens before jitter)."""
    coverage = toolset_size(q.required_tools & c.allocated) / q.n_required
    depth_ok = 1.0 if c.agents_active >= q.required_depth else 0.0
    # The smallest of min(tokens / needed, 1) over the active agents: division
    # is monotone, so dividing the smallest allowance gives the same float.
    adequacy = min(min(c.tokens) / q.needed, 1.0)
    x = (
        model.w_bias
        + model.w_depth * depth_ok
        + model.w_coverage * coverage
        + model.w_adequacy * adequacy
        + model.w_relevance * _relevance(q.qclass, c)
        - model.w_difficulty * q.difficulty
    )
    n_used = _tools_used(q, c)
    n_tokens = (sum([int(round(t * q.token_scale)) for t in c.tokens])
                + TOOL_TOKEN_OVERHEAD * n_used)
    return _sigmoid(x), n_used, n_tokens


def _execution_draws(seed: int, eo: bool, jitter: int):
    """The random numbers of one seeded execution, in the fixed draw order:
    the correctness uniform u, then the EvaluatorOptimizer's extra
    iterations (0 unless eo), then the token jitter offset (0 unless
    jitter > 0). They depend on nothing else, so (seed, eo, jitter) keys
    them."""
    rng = np.random.default_rng(seed)
    u = rng.random()
    extra = int(rng.integers(0, 4)) if eo else 0
    offset = int(rng.integers(-jitter, jitter + 1)) if jitter > 0 else 0
    return u, extra, offset


def _outcome(query: Query, q: _QueryTerms, c: _ConfigTerms, truth, seed: int,
             memo: Optional[dict] = None) -> ExecutionOutcome:
    """One seeded execution. memo, if given, maps (seed, eo, jitter) to the
    execution's `_execution_draws`, so a seed's draws are made once however
    many configurations run on it."""
    p, n_used, n_tokens = truth
    key = (seed, c.eo, q.jitter)
    memo = {} if memo is None else memo
    draws = memo.get(key)
    if draws is None:
        draws = memo[key] = _execution_draws(seed, c.eo, q.jitter)
    u, extra, offset = draws
    correct = bool(u < p)
    answer = query.gold_answer if (correct and query.gold_answer) else "no answer"
    return ExecutionOutcome(
        answer_text=answer,
        correct=correct,
        n_steps=c.n_steps + extra,
        n_tokens=max(0, n_tokens + offset),
        n_tools_used=n_used,
        n_tools_allocated=c.n_alloc,
    )


def _expected(c: _ConfigTerms, truth, reward_cfg: RewardConfig) -> float:
    """Success marginalized in closed form, step/token randomness replaced
    by its mean."""
    p, n_used, n_tokens = truth
    n_steps = float(c.n_steps)
    if c.eo:
        n_steps += EO_EXPECTED_EXTRA

    def branch(correct: bool) -> float:
        return (
            reward_cfg.alpha * (1.0 if correct else 0.0)
            - reward_cfg.beta_s * n_steps
            - reward_cfg.beta_t * n_tokens / reward_cfg.t_max
            + reward_cfg.eta * tool_shaping(n_used, c.n_alloc, correct, reward_cfg)
        )

    return p * branch(True) + (1.0 - p) * branch(False)


def prompt_relevance(spec, config: Configuration, library) -> float:
    """Fraction of chosen atoms whose role matches the choosing agent and
    whose class matches the query class; 0 when nothing is chosen."""
    return _relevance(query_class(spec), _config_terms(config, library))


def tool_usage(spec, config: Configuration, library) -> int:
    """Tools the configuration invokes on the query (see `_tools_used`)."""
    return _tools_used(spec.terms, _config_terms(config, library))


def success_probability(
    spec: SyntheticQuerySpec,
    config: Configuration,
    model: SuccessModel,
    library: Sequence[PromptAtom],
) -> float:
    return _ground_truth(spec.terms, _config_terms(config, library), model)[0]


def execute_synthetic(
    query: Query,
    spec: SyntheticQuerySpec,
    config: Configuration,
    model: SuccessModel,
    library: Sequence[PromptAtom],
    seed: int,
) -> ExecutionOutcome:
    """Deterministic given (spec, configuration, seed)."""
    c = _config_terms(config, library)
    return _outcome(query, spec.terms, c, _ground_truth(spec.terms, c, model), seed)


def expected_reward(
    spec: SyntheticQuerySpec,
    config: Configuration,
    model: SuccessModel,
    library: Sequence[PromptAtom],
    reward_cfg: RewardConfig,
) -> float:
    """Exact expectation of the shaped reward."""
    c = _config_terms(config, library)
    return _expected(c, _ground_truth(spec.terms, c, model), reward_cfg)


def rank_key(value: float, config: Configuration) -> tuple:
    """Sort key of a scored configuration, best first: highest value, then
    smallest structure index, then shortest total prompt length, then
    lexicographic prompt ids. The oracle and the search baselines all rank
    by it."""
    return (
        -value,
        index_structure_action(config.structure),
        sum(len(p) for p in config.prompts),
        config.prompts,
    )


def brute_force_best(
    spec: SyntheticQuerySpec,
    subspace: Iterable[Configuration],
    model: SuccessModel,
    library: Sequence[PromptAtom],
    reward_cfg: RewardConfig,
):
    """Exact argmax of expected_reward over a finite subspace, ties broken
    by `rank_key`."""
    best = None
    best_key = None
    n_seen = 0
    for config in subspace:
        n_seen += 1
        value = expected_reward(spec, config, model, library, reward_cfg)
        key = rank_key(value, config)
        if best_key is None or key < best_key:
            best, best_key = (config, value), key
    if n_seen == 0:
        raise ContractError("brute_force_best needs a non-empty subspace")
    return best


# ---------------------------------------------------------------------------
# Hash embedding (synthetic-mode semantic vector)
# ---------------------------------------------------------------------------


def hash_embed(text: str, dim: int = 64) -> np.ndarray:
    """Token n-gram hashing into `dim` signed buckets, L2-normalized.

    Uses blake2b so the embedding is identical across processes and
    platforms (the builtin hash() is salted)."""
    tokens = text.lower().split()
    grams = tokens + [f"{a} {b}" for a, b in zip(tokens, tokens[1:])]
    vec = np.zeros(dim)
    for gram in grams:
        digest = hashlib.blake2b(gram.encode("utf-8"), digest_size=8).digest()
        h = int.from_bytes(digest, "little")
        sign = 1.0 if (h >> 60) & 1 else -1.0
        vec[h % dim] += sign
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


# ---------------------------------------------------------------------------
# Query generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QueryDistribution:
    tool_prob: float = 0.4
    depth_probs: tuple[float, float, float] = (0.5, 0.3, 0.2)
    difficulty_low: float = 0.0
    difficulty_high: float = 0.8
    noise_scale: float = 0.0


_NOUNS = (
    "apples", "books", "coins", "tickets", "marbles", "boxes", "stamps",
    "bottles", "cards", "chairs",
)
_TOPICS = (
    "the 2014 film", "the tallest bridge", "the river delta", "the old treaty",
    "the chess opening", "the comet's orbit", "the island nation", "the art museum",
)

_CALC_TEMPLATES = (
    "Calculate the total of {a} and {b} {noun}.",
    "Calculate the sum of {a}, {b} and {c}.",
    "Find the total cost of {a} {noun} at {b} dollars each.",
)
_SEARCH_TEMPLATES = (
    "Search for who directed {topic} and find the year.",
    "Find the population of {topic} region, search carefully.",
)
_DEEP_TEMPLATES = (
    "First count the {a} {noun}, then remove {b}, and report what is left.",
    "Start with {a} {noun}; after giving away {b}, how many are remaining?",
    "First add {a} and {b}, then double the result, then subtract {c}.",
)
_SIMPLE_TEMPLATES = (
    "What is known about {topic}?",
    "Describe {topic} in one sentence.",
    "Is {topic} older than {a} years?",
)


def generate_query(
    dist: QueryDistribution, rng: np.random.Generator, query_id: str = "q"
):
    """Synthesize a (Query, SyntheticQuerySpec) pair whose surface text
    correlates with the latent spec via the feature extractor."""
    difficulty = float(rng.uniform(dist.difficulty_low, dist.difficulty_high))
    depth = int(rng.choice(3, p=np.asarray(dist.depth_probs) / sum(dist.depth_probs))) + 1
    required_tools = 0
    if rng.random() < dist.tool_prob:
        # calculator (bit 0) or web_search (bit 1)
        required_tools = 1 << int(rng.integers(0, 2))

    a, b, c = (int(v) for v in rng.integers(2, 90, size=3))
    noun = _NOUNS[int(rng.integers(0, len(_NOUNS)))]
    topic = _TOPICS[int(rng.integers(0, len(_TOPICS)))]
    if required_tools & 0b01:
        template = _CALC_TEMPLATES[int(rng.integers(0, len(_CALC_TEMPLATES)))]
    elif required_tools & 0b10:
        template = _SEARCH_TEMPLATES[int(rng.integers(0, len(_SEARCH_TEMPLATES)))]
    elif depth >= 2:
        template = _DEEP_TEMPLATES[int(rng.integers(0, len(_DEEP_TEMPLATES)))]
    else:
        template = _SIMPLE_TEMPLATES[int(rng.integers(0, len(_SIMPLE_TEMPLATES)))]
    text = template.format(a=a, b=b, c=c, noun=noun, topic=topic)
    query = Query(id=query_id, text=text, gold_answer=str(a + b))
    spec = SyntheticQuerySpec(
        difficulty=difficulty,
        required_tools=required_tools,
        required_depth=depth,
        noise_scale=dist.noise_scale,
    )
    return query, spec


# ---------------------------------------------------------------------------
# Atom libraries
# ---------------------------------------------------------------------------


def default_atom_library() -> tuple[PromptAtom, ...]:
    texts = [
        ("reasoner", "Think through the question carefully before answering."),
        ("reasoner", "Use the available tools whenever they can help."),
        ("reasoner", "Decompose the problem into smaller steps."),
        ("reasoner", "Keep the reasoning concise."),
        ("verifier", "Check each step of the reasoning for mistakes."),
        ("verifier", "Verify any tool output against the question."),
        ("verifier", "Confirm the intermediate steps are consistent."),
        ("answerer", "State the final answer plainly."),
        ("answerer", "Answer with a single step-by-step summary."),
        ("answerer", "If a tool result exists, base the answer on it."),
    ]
    return tuple(PromptAtom(i, role, text) for i, (role, text) in enumerate(texts))


def compact_atom_library() -> tuple[PromptAtom, ...]:
    """4-atom library for reduced-space experiments."""
    texts = [
        ("reasoner", "Think through the question carefully before answering."),
        ("reasoner", "Use the available tools whenever they can help."),
        ("verifier", "Check the reasoning for mistakes."),
        ("answerer", "State the final answer plainly."),
    ]
    return tuple(PromptAtom(i, role, text) for i, (role, text) in enumerate(texts))


# ---------------------------------------------------------------------------
# Environment object (the configure -> execute -> outcome contract)
# ---------------------------------------------------------------------------


class _Memo(NamedTuple):
    config: Configuration
    library: tuple
    model: SuccessModel
    terms: _ConfigTerms
    truths: dict      # SyntheticQuerySpec -> _ground_truth on it


@dataclass
class SyntheticEnv:
    """Synthetic environment: embeds queries and executes configurations
    against the logistic ground truth. Declared maxima bound the reward."""

    queries: list[Query]
    specs: dict[str, SyntheticQuerySpec]
    model: SuccessModel = field(default_factory=SuccessModel)
    library: tuple[PromptAtom, ...] = field(default_factory=default_atom_library)
    semantic_dim: int = 64

    s_max: int = 7   # max reasoning steps (EvaluatorOptimizer worst case)
    u_max: int = 4   # max tools invokable
    a_max: int = 8   # max tools allocatable (two agents x 4)
    _embeddings: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _memo: Optional[_Memo] = field(default=None, init=False, repr=False, compare=False)

    def embed(self, query: Query) -> StateEmbedding:
        """The query's embedding, computed once per (id, text) and shared:
        its arrays are read-only."""
        key = (query.id, query.text)
        state = self._embeddings.get(key)
        if state is None:
            state = StateEmbedding(
                semantic=hash_embed(query.text, self.semantic_dim),
                features=extract_features(query.text).as_vector(),
            )
            state.semantic.flags.writeable = False
            state.features.flags.writeable = False
            self._embeddings[key] = state
        return state

    def spec_for(self, query: Query) -> SyntheticQuerySpec:
        return self.specs[query.id]

    def _truth(self, query: Query, config: Configuration):
        """The query's and the configuration's terms and the ground truth
        over them. The last configuration's terms and truths are kept, so
        scoring one configuration over many queries and seeds computes them
        once."""
        memo = self._memo
        if not (memo and memo.config is config and memo.library is self.library
                and memo.model is self.model):
            memo = self._memo = _Memo(config, self.library, self.model,
                                      _config_terms(config, self.library), {})
        spec = self.spec_for(query)
        truth = memo.truths.get(spec)
        if truth is None:
            truth = memo.truths[spec] = _ground_truth(spec.terms, memo.terms, self.model)
        return spec.terms, memo.terms, truth

    def execute(self, query: Query, config: Configuration, seed: int,
                memo: Optional[dict] = None) -> ExecutionOutcome:
        """`execute_synthetic` on the query's spec.

        memo, if given, is a dict the caller keeps across executions that
        share seeds: each (seed, EvaluatorOptimizer or not, jitter) maps to
        the execution's random numbers, drawn on first use. The outcome is
        the same with or without it; it saves rebuilding the seed's
        generator when many configurations run on one seed (the search
        harness's common random numbers)."""
        q, c, truth = self._truth(query, config)
        return _outcome(query, q, c, truth, seed, memo)

    def expected_reward(self, query: Query, config: Configuration,
                        reward_cfg: RewardConfig) -> float:
        """`expected_reward` on the query's spec."""
        _, c, truth = self._truth(query, config)
        return _expected(c, truth, reward_cfg)

    def expected_rewards(self, config: Configuration, reward_cfg: RewardConfig) -> list[float]:
        """`expected_reward` of one configuration on every query, in query
        order."""
        return [self.expected_reward(q, config, reward_cfg) for q in self.queries]


def build_env(
    dist: QueryDistribution,
    n_queries: int,
    seed: int,
    model: Optional[SuccessModel] = None,
    library: Optional[Sequence[PromptAtom]] = None,
    semantic_dim: int = 64,
) -> SyntheticEnv:
    rng = np.random.default_rng(seed)
    queries, specs = [], {}
    for i in range(n_queries):
        q, s = generate_query(dist, rng, query_id=f"q{i:04d}")
        queries.append(q)
        specs[q.id] = s
    return SyntheticEnv(
        queries=queries,
        specs=specs,
        model=model or SuccessModel(),
        library=tuple(library) if library is not None else default_atom_library(),
        semantic_dim=semantic_dim,
    )
