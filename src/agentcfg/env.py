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
import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .core import (
    N_TOOL_SUBSETS,
    ROLES,
    TIER_TOKENS,
    TOOL_REGISTRY,
    Configuration,
    ExecutionOutcome,
    PromptAtom,
    Query,
    StateEmbedding,
    StructureAction,
    extract_features,
    index_structure_action,
    toolset_size,
)
from .errors import ContractError
from .reward import RewardConfig, reward_terms

TOOL_TOKEN_OVERHEAD = 150      # tokens charged per invoked tool
BASE_NEEDED_TOKENS = 256       # token need at difficulty 0


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
    noise_scale: float = 0.0     # half-width of the token jitter, in whole tokens

    def __post_init__(self):
        if not 0.0 <= self.difficulty <= 1.0:
            raise ContractError(f"difficulty out of [0,1]: {self.difficulty}")
        tools = self.required_tools
        if not (isinstance(tools, (int, np.integer)) and not isinstance(tools, bool)
                and 0 <= tools < N_TOOL_SUBSETS):
            raise ContractError(
                f"required_tools must be a tool subset, an integer in 0..{N_TOOL_SUBSETS - 1}, "
                f"got {tools!r}")
        if not 1 <= self.required_depth <= 3:
            raise ContractError(f"required_depth out of 1..3: {self.required_depth}")
        if not (self.noise_scale >= 0 and float(self.noise_scale).is_integer()):
            raise ContractError(
                f"noise_scale must be a whole number of tokens >= 0, got {self.noise_scale!r}")

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
# those of a configuration, which hold for every query (`_config_terms`). A
# configuration's terms combine a half read off its structure alone and a
# half read off its prompts alone, so a scan over structures x prompt tuples
# can compute each half once (see `expected_reward`'s memo).


class _QueryTerms(NamedTuple):
    qclass: str
    required_tools: int
    n_required: int               # max(toolset_size(required_tools), 1)
    required_depth: int
    difficulty: float
    needed: float                 # tokens an agent needs at this difficulty
    token_scale: float            # share of its allowance an agent spends
    jitter: int                   # half-width of the token jitter


class _StructureTerms(NamedTuple):
    agents_active: int
    allocated: int                # tools1 | tools2
    n_alloc: int                  # tools allocated over both agents
    tokens: tuple[int, ...]       # token allowance of each active agent
    auto_tools: bool              # the workflow calls tools without being asked
    n_steps: int                  # LLM calls before any refinement round
    rounds: int                   # refinement rounds: 0..rounds extra calls, seeded


class _PromptTerms(NamedTuple):
    tool_atom: bool               # some chosen atom asks for tools
    n_chosen: int                 # atoms chosen over all agents
    matched: tuple[str, ...]      # class of each atom chosen by its own role


class _ConfigTerms(NamedTuple):
    agents_active: int
    allocated: int
    n_alloc: int
    tokens: tuple[int, ...]
    tool_gated: bool              # the execution has a reason to call tools
    n_chosen: int
    matched: tuple[str, ...]
    n_steps: int
    rounds: int


def _structure_terms(s: StructureAction) -> _StructureTerms:
    wf = s.workflow
    return _StructureTerms(
        wf.agents_active,
        s.tools1 | s.tools2,
        toolset_size(s.tools1) + toolset_size(s.tools2),
        tuple([TIER_TOKENS[b] for b in s.budgets[: wf.agents_active]]),
        wf.auto_tools,
        wf.min_calls,
        wf.refinements,
    )


def _prompt_terms(prompts: Sequence[Sequence[int]], library: Sequence[PromptAtom]) -> _PromptTerms:
    tool_atom = False
    n_chosen = 0
    matched = []
    for role, seq in zip(ROLES, prompts):
        n_chosen += len(seq)
        for atom_id in seq:
            atom = library[atom_id]
            cls = atom_class(atom.text)
            tool_atom = tool_atom or cls == "tool"
            if atom.role == role:
                matched.append(cls)
    return _PromptTerms(tool_atom, n_chosen, tuple(matched))


def _combine_terms(s: _StructureTerms, p: _PromptTerms) -> _ConfigTerms:
    return _ConfigTerms(s.agents_active, s.allocated, s.n_alloc, s.tokens,
                        p.tool_atom or s.auto_tools, p.n_chosen, p.matched, s.n_steps, s.rounds)


def _config_terms(config: Configuration, library: Sequence[PromptAtom]) -> _ConfigTerms:
    return _combine_terms(_structure_terms(config.structure),
                          _prompt_terms(config.prompts, library))


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


def _execution_draws(seed: int, rounds: int, jitter: int):
    """The random numbers of one seeded execution, in the fixed draw order:
    the correctness uniform u, then the extra calls, uniform on 0..rounds
    (no draw when rounds is 0), then the token jitter offset (0 unless
    jitter > 0). They depend on nothing else, so (seed, rounds, jitter) keys
    them."""
    rng = np.random.default_rng(seed)
    u = rng.random()
    extra = int(rng.integers(0, rounds + 1)) if rounds else 0
    offset = int(rng.integers(-jitter, jitter + 1)) if jitter > 0 else 0
    return u, extra, offset


def _outcome(query: Query, c: _ConfigTerms, truth, correct: bool, extra: int,
             offset: int) -> ExecutionOutcome:
    """The execution of outcome class (correct, extra, offset): with the
    ground truth these fix every field, and the query adds its gold answer."""
    _, n_used, n_tokens = truth
    answer = query.gold_answer if (correct and query.gold_answer) else "no answer"
    return ExecutionOutcome(
        answer_text=answer,
        correct=correct,
        n_steps=c.n_steps + extra,
        n_tokens=max(0, n_tokens + offset),
        n_tools_used=n_used,
        n_tools_allocated=c.n_alloc,
    )


def _added(terms):
    """The four reward terms added left to right from 0. This is how `sum`
    adds floats before Python 3.12, whose `sum` compensates; the array pass
    adds its per-query arrays of the terms in this order too."""
    success, steps, tokens, tools = terms
    return 0 + success + steps + tokens + tools


def _expected(c: _ConfigTerms, truth, reward_cfg: RewardConfig) -> float:
    """The shaped reward's terms summed on each branch of success, weighted
    in closed form, at the mean outcome: the extra calls, uniform on
    0..rounds, have mean rounds / 2, and the token jitter has mean 0."""
    p, n_used, n_tokens = truth
    n_steps = c.n_steps + c.rounds / 2
    right = _added(reward_terms(True, n_steps, n_tokens, n_used, c.n_alloc, reward_cfg))
    wrong = _added(reward_terms(False, n_steps, n_tokens, n_used, c.n_alloc, reward_cfg))
    return p * right + (1.0 - p) * wrong


# Below this many queries, scoring a configuration query by query through the
# scalar kernel is cheaper than one array pass over them all. Measured on a
# 2-core x86 box (numpy 2.4.6, CPU time, best of 7 x 400 calls): the pass took
# 40-42 us from 2 to 12 queries and 49 us at 32, the loop about 5 us per query;
# the loop was 5% slower than the pass at 8 queries and 5% faster at 7.
ARRAY_PASS_MIN_QUERIES = 8

_TOOLSET_SIZES = np.array([toolset_size(m) for m in range(N_TOOL_SUBSETS)])


class _QueryArrays(NamedTuple):
    """The `_QueryTerms` of an env's queries, one array per field in query
    order (`SyntheticEnv._query_arrays`). The jitter is left out: the
    expected reward is taken at its mean."""

    classes: tuple                # the distinct query classes
    qclass: np.ndarray            # index of each query's class in `classes`
    required_tools: np.ndarray
    n_required: np.ndarray
    required_depth: np.ndarray
    difficulty: np.ndarray
    needed: np.ndarray
    token_scale: np.ndarray


def _expected_all(q: _QueryArrays, c: _ConfigTerms, model: SuccessModel,
                  reward_cfg: RewardConfig) -> list[float]:
    """`_expected(c, _ground_truth(qi, c, model), reward_cfg)` of every query
    qi in q, in one array pass that makes the same IEEE operations in the
    same order, so each value equals the scalar kernel's bit for bit. A term
    with few values (relevance per query class, the tool term per tools-used
    count) comes from the scalar helpers. The sigmoid stays `math.exp` per
    element, since `np.exp` differs from it in the last bit on some inputs,
    and `np.rint` rounds half to even, as `round` does."""
    common = _TOOLSET_SIZES[q.required_tools & c.allocated]
    relevance = np.array([_relevance(k, c) for k in q.classes])[q.qclass]
    x = (model.w_bias
         + model.w_depth * np.where(c.agents_active >= q.required_depth, 1.0, 0.0)
         + model.w_coverage * (common / q.n_required)
         + model.w_adequacy * np.minimum(min(c.tokens) / q.needed, 1.0)
         + model.w_relevance * relevance
         - model.w_difficulty * q.difficulty)
    p = np.array([_sigmoid(v) for v in x.tolist()])
    n_used = common if c.tool_gated else np.zeros_like(common)
    rounded = sum([np.rint(t * q.token_scale) for t in c.tokens])
    n_tokens = rounded.astype(np.int64) + TOOL_TOKEN_OVERHEAD * n_used
    n_steps = c.n_steps + c.rounds / 2
    counts = range(int(n_used.max()) + 1)

    def added(correct: bool) -> np.ndarray:
        terms = reward_terms(correct, n_steps, n_tokens, 0, c.n_alloc, reward_cfg)
        tools = [reward_terms(correct, n_steps, 0, k, c.n_alloc, reward_cfg)[3] for k in counts]
        return _added((*terms[:3], np.array(tools)[n_used]))

    return (p * added(True) + (1.0 - p) * added(False)).tolist()


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
    q, c = spec.terms, _config_terms(config, library)
    truth = _ground_truth(q, c, model)
    u, extra, offset = _execution_draws(seed, c.rounds, q.jitter)
    return _outcome(query, c, truth, u < truth[0], extra, offset)


def expected_reward(
    spec: SyntheticQuerySpec,
    config: Configuration,
    model: SuccessModel,
    library: Sequence[PromptAtom],
    reward_cfg: RewardConfig,
    memo: Optional[dict] = None,
) -> float:
    """Exact expectation of the shaped reward.

    memo, if given, is a dict, empty at first use, that the caller keeps
    across calls that score many configurations on one (spec, model,
    library, reward_cfg): it maps each structure to its `_structure_terms`,
    each prompt tuple to its `_prompt_terms`, and each combined
    `_ConfigTerms` to its value, so each is computed once. The value reads
    nothing but those terms, so it is the same, bit for bit, with or without
    the memo. The memo records the four inputs; passed with others (compared
    by value), it starts over."""
    if memo is None:
        c = _config_terms(config, library)
        return _expected(c, _ground_truth(spec.terms, c, model), reward_cfg)
    inputs = (spec, model, library, reward_cfg)
    if memo.get("inputs") != inputs:
        memo.update(inputs=inputs, structures={}, prompts={}, values={})
    structures, prompts, values = memo["structures"], memo["prompts"], memo["values"]
    s = structures.get(config.structure)
    if s is None:
        s = structures[config.structure] = _structure_terms(config.structure)
    p = prompts.get(config.prompts)
    if p is None:
        p = prompts[config.prompts] = _prompt_terms(config.prompts, library)
    c = _combine_terms(s, p)
    value = values.get(c)
    if value is None:
        value = values[c] = _expected(c, _ground_truth(spec.terms, c, model), reward_cfg)
    return value


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
    by `rank_key`.

    Every configuration is scored by one `expected_reward` call, all sharing
    one memo, so each structure, prompt tuple and distinct set of terms is
    worked out once. A value below the best so far cannot win `rank_key`'s
    first component, so only the others build a key."""
    memo: dict = {}
    best = best_key = None
    for config in subspace:
        value = expected_reward(spec, config, model, library, reward_cfg, memo)
        if best is None or value >= best[1]:
            key = rank_key(value, config)
            if best_key is None or key < best_key:
                best, best_key = (config, value), key
    if best is None:
        raise ContractError("brute_force_best needs a non-empty subspace")
    return best


def single_atom_prompt_options(n_agents: int, library: Sequence[PromptAtom]) -> list[tuple]:
    """Per agent, no atom or one atom of its own role, crossed over the
    first n_agents agents: the prompt tuples an exact oracle needs to scan.

    Prompts enter the reward only through relevance (the share of chosen
    atoms that their own role chose and that match the query class) and
    through tool gating (some chosen atom asks for tools). Atoms cost
    nothing. So over role-matching sequences some optimum lies in this set:
    when some active agent has an atom of the query class, that atom alone
    gives relevance 1, and for a tool query it also gates tools; a tool
    query's best ungated prompts have relevance 0, as the empty ones do; for
    any other query nothing is gated, and empty prompts match any relevance-0
    choice. The same holds over sequences of any atoms whenever each
    tool-class atom's own role has an active agent (always, for reasoner
    atoms, such as the tool atom of `compact_atom_library`): a tool atom
    chosen by another role gates tools at relevance 0, which its own role's
    agent choosing it alone beats."""
    per_agent = [
        [()] + [(a.id,) for a in library if a.role == ROLES[agent]]
        for agent in range(n_agents)
    ]
    return [tuple(c) for c in itertools.product(*per_agent)]


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
    """How `generate_query` draws a query's latent spec. `runtime.EnvConfig`
    extends it with its checks and the environment's size."""

    tool_prob: float = 0.4
    depth_probs: tuple[float, float, float] = (0.5, 0.3, 0.2)
    difficulty_low: float = 0.0
    difficulty_high: float = 0.8
    noise_scale: float = 0.0  # half-width of the token jitter, in whole tokens


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
    terms: _ConfigTerms
    # Query -> (its _ground_truth under the configuration, its spec's token
    # jitter, {outcome class (correct, extra, offset): ExecutionOutcome})
    queries: dict


@dataclass(frozen=True)
class SyntheticEnv:
    """Synthetic environment: embeds queries and executes configurations
    against the logistic ground truth. An env is a value (queries and
    library tuples, a read-only spec per query id); a changed env is a new
    one (`dataclasses.replace`), so nothing it keeps goes stale."""

    queries: tuple[Query, ...]
    specs: Mapping[str, SyntheticQuerySpec]
    model: SuccessModel = field(default_factory=SuccessModel)
    library: tuple[PromptAtom, ...] = field(default_factory=default_atom_library)
    semantic_dim: int = 64
    _embeddings: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _memo: Optional[_Memo] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "queries", tuple(self.queries))
        object.__setattr__(self, "specs", MappingProxyType(dict(self.specs)))
        object.__setattr__(self, "library", tuple(self.library))
        missing = [q.id for q in self.queries if q.id not in self.specs]
        if missing:
            raise ContractError(f"queries without a spec: {missing}")

    def __reduce__(self):  # copies and pickles are rebuilt from the fields
        return SyntheticEnv, (self.queries, dict(self.specs), self.model, self.library,
                              self.semantic_dim)

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
        try:
            return self.specs[query.id]
        except KeyError:
            raise ContractError(f"query {query.id!r} is not one of this env's queries") from None

    def _query_memo(self, query: Query, config: Configuration):
        """The configuration's terms and the query's entry under it.
        The last configuration's terms and, per query, its truth and
        outcomes are kept, so scoring one configuration over many queries
        and seeds computes each once. An entry is keyed by the query, not by
        its spec alone, because an outcome carries the gold answer."""
        memo = self._memo
        if memo is None or memo.config is not config:
            memo = _Memo(config, _config_terms(config, self.library), {})
            object.__setattr__(self, "_memo", memo)
        entry = memo.queries.get(query)
        if entry is None:
            q = self.spec_for(query).terms
            entry = memo.queries[query] = (_ground_truth(q, memo.terms, self.model), q.jitter, {})
        return memo.terms, entry

    def execute(self, query: Query, config: Configuration, seed: int,
                memo: Optional[dict] = None) -> ExecutionOutcome:
        """`execute_synthetic` on the query's spec.

        An execution's outcome class is its (correct, extra iterations,
        token offset): with the query and the configuration it fixes every
        field. The outcome of each class is built once per (query,
        configuration) and shared; it is frozen. memo, if given, is a dict
        the caller keeps across executions that share seeds: each (seed,
        refinement rounds, jitter) maps to the execution's random
        numbers, drawn on first use. The outcome is the same with or without
        it; it saves rebuilding the seed's generator when many
        configurations run on one seed (the search harness's common random
        numbers)."""
        c, (truth, jitter, outcomes) = self._query_memo(query, config)
        draws_key = (seed, c.rounds, jitter)
        if memo is None:
            draws = _execution_draws(*draws_key)
        elif (draws := memo.get(draws_key)) is None:
            draws = memo[draws_key] = _execution_draws(*draws_key)
        u, extra, offset = draws
        key = (u < truth[0], extra, offset)
        outcome = outcomes.get(key)
        if outcome is None:
            outcome = outcomes[key] = _outcome(query, c, truth, *key)
        return outcome

    def expected_reward(self, query: Query, config: Configuration,
                        reward_cfg: RewardConfig) -> float:
        """`expected_reward` on the query's spec."""
        c, (truth, _, _) = self._query_memo(query, config)
        return _expected(c, truth, reward_cfg)

    @functools.cached_property
    def _query_arrays(self) -> _QueryArrays:
        terms = [self.specs[q.id].terms for q in self.queries]
        classes = tuple(sorted({t.qclass for t in terms}))
        return _QueryArrays(classes, np.array([classes.index(t.qclass) for t in terms]),
                            **{name: np.array([getattr(t, name) for t in terms])
                               for name in _QueryArrays._fields[2:]})

    def expected_rewards(self, config: Configuration, reward_cfg: RewardConfig) -> list[float]:
        """`expected_reward` of one configuration on every query, in query
        order, bit for bit. From `ARRAY_PASS_MIN_QUERIES` queries up they
        are scored in one array pass over the queries' terms, kept as arrays
        built once."""
        if len(self.queries) < ARRAY_PASS_MIN_QUERIES:
            return [self.expected_reward(q, config, reward_cfg) for q in self.queries]
        return _expected_all(self._query_arrays, _config_terms(config, self.library),
                             self.model, reward_cfg)


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
        library=library if library is not None else default_atom_library(),
        semantic_dim=semantic_dim,
    )
