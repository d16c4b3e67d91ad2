"""Run plumbing: YAML config loading with strict key checking, episode-buffer
JSONL persistence, a chat-completions HTTP adapter realizing the nine
workflow call topologies, and the end-to-end training orchestrator.

Real-mode support is best-effort: the adapter takes an injectable transport
(and sleep) so its call-count, retry, and aggregation contracts are testable
without network access. API keys are only ever named indirectly through an
environment variable.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
import time
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np
import yaml

from .core import (
    ROLES,
    TIER_TOKENS,
    WORKFLOWS,
    Configuration,
    EpisodeRecord,
    ExperienceBuffer,
    PromptAtom,
    Query,
    StateEmbedding,
    atomic_write,
    state_from_json_dict,
    toolset_members,
)
from .analysis import diversity_report, safe_eval_arithmetic
from .env import QueryDistribution, SyntheticEnv, build_env, default_atom_library
from .errors import (
    BackendError,
    ConfigError,
    ContractError,
    EmptyEliteError,
    NoPairsError,
    PersistenceError,
    ResponseParseError,
    require,
    require_finite,
)
from .core import ExecutionOutcome
from .policy import (
    MaskTable,
    PromptPolicy,
    StructurePolicy,
    mask_table_from_config,
)
from .reward import RewardConfig
from .train import (
    DPOConfig,
    PPOConfig,
    SFTConfig,
    dpo_update,
    filter_elite,
    kl_to_empirical,
    sft_update,
    train_policies,
)

# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvConfig(QueryDistribution):
    """The query distribution, validated, plus the environment's size."""

    n_queries: int = 32
    semantic_dim: int = 64

    def __post_init__(self):
        require("env", self, ">= 1", lambda v: v >= 1, "n_queries", "semantic_dim")
        probs = self.depth_probs
        if (len(probs) != 3 or any(isinstance(p, bool) or not isinstance(p, (int, float))
                                   or not p >= 0 for p in probs)
                or abs(sum(probs) - 1.0) > 1e-9):
            raise ConfigError(
                f"env.depth_probs must be 3 non-negative numbers summing to 1, got {probs!r}"
            )
        require("env", self, "in [0, 1]", lambda v: 0.0 <= v <= 1.0, "tool_prob")
        require("env", self, "a whole number >= 0",
                lambda v: v >= 0 and float(v).is_integer(), "noise_scale")
        if not self.difficulty_low <= self.difficulty_high:
            raise ConfigError(
                f"env.difficulty_low ({self.difficulty_low!r}) must not exceed "
                f"env.difficulty_high ({self.difficulty_high!r})"
            )


@dataclass(frozen=True)
class BackendEndpoint:
    base_url: str = "http://localhost:8000/v1/chat/completions"
    model: str = "local-model"
    api_key_env: str = "BACKEND_API_KEY"
    timeout: float = 60.0
    max_retries: int = 3
    temperature: float = 0.0

    def __post_init__(self):
        require_finite("backend", self)
        require("backend", self, "> 0", lambda v: v > 0, "timeout")
        require("backend", self, ">= 0", lambda v: v >= 0, "max_retries")


@dataclass(frozen=True)
class RunConfig:
    """A whole run, checked whole when it is built: a bad mask_table or
    atom_library raises here, as it does through `load_config`."""

    seed: int = 0
    objective: str = "ppo"
    refinement: str = "sft"
    output_dir: str = "out"
    atom_library: Optional[str] = None
    env: EnvConfig = field(default_factory=EnvConfig)
    reward: RewardConfig = field(default_factory=RewardConfig)
    ppo: PPOConfig = field(default_factory=PPOConfig)
    sft: SFTConfig = field(default_factory=SFTConfig)
    dpo: DPOConfig = field(default_factory=DPOConfig)
    mask_table: dict = field(default_factory=dict)

    def __post_init__(self):
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
        if self.objective not in ("ppo", "grpo"):
            raise ConfigError(f"objective must be ppo|grpo, got {self.objective!r}")
        if self.refinement not in ("sft", "dpo", "none"):
            raise ConfigError(
                f"refinement must be sft|dpo|none, got {self.refinement!r}"
            )
        mask_table_from_config(self.mask_table)  # raises naming a bad rule's path
        if self.atom_library is not None:
            load_atom_library(self.atom_library)  # raises naming the file and a bad entry


def _coerce(value, hint, path: str):
    if hint is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if hint is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if hint is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    if hint is tuple or typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        return tuple(value)
    if hint is dict:  # an empty section reads as the empty mapping
        return {} if value is None else value
    if typing.get_origin(hint) is typing.Union:  # Optional[...]
        args = [a for a in typing.get_args(hint) if a is not type(None)]
        if value is None:
            return None
        return _coerce(value, args[0], path)
    return value


def _build_dataclass(cls, data, path: str = ""):
    """cls from a mapping of its field names to values, an empty section
    (None) giving every default. A dataclass-typed field is built the same
    way from its own mapping. An unknown key or a value of the wrong type
    raises ConfigError naming its dotted path."""
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path or 'top-level config'}: expected a mapping, got {data!r}")
    hints = typing.get_type_hints(cls)
    names = {f.name for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        where = f"{path}.{key}" if path else str(key)
        if key not in names:
            raise ConfigError(f"unknown config key: {where}")
        hint = hints[key]
        kwargs[key] = (_build_dataclass(hint, value, where) if dataclasses.is_dataclass(hint)
                       else _coerce(value, hint, where))
    return cls(**kwargs)


def load_config(path) -> RunConfig:
    """Parse and fully validate a YAML run config; unknown keys anywhere are
    rejected with their path, and every omitted field takes its published
    default."""
    return _build_dataclass(RunConfig, _read_yaml(path, "config file "))


def dump_config(cfg: RunConfig) -> dict:
    """Normalized plain-dict form with every default materialized (the
    `dump(load(x)) == normalize(x)` fixed point)."""

    def plain(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {k: plain(v) for k, v in dataclasses.asdict(obj).items()}
        if isinstance(obj, tuple):
            return [plain(v) for v in obj]
        if isinstance(obj, dict):
            return {k: plain(v) for k, v in obj.items()}
        return obj

    return plain(cfg)


def _read_yaml(path, label: str):
    """The YAML document in the file at path. A file that is missing or
    unreadable, is not UTF-8 text or is not YAML raises ConfigError, on one
    line that starts with label and names the file."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise ConfigError(f"{label}file not found: {path}") from None
    except OSError as exc:
        raise ConfigError(f"{label}{path}: cannot be read: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{label}{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        reason = getattr(exc, "problem", None) or " ".join(str(exc).split())
        raise ConfigError(f"{label}{path}: malformed YAML{where}: {reason}") from None


def load_atom_library(path) -> tuple[PromptAtom, ...]:
    """Atom library file: a YAML list of {role, text} entries; ids follow
    file order. A file that is not such a list, or an entry that is not a
    valid `PromptAtom`, raises ConfigError on one line naming atom_library,
    the file and the entry's index."""
    entries = _read_yaml(path, "atom_library: ")
    if not isinstance(entries, list):
        raise ConfigError(f"atom_library: {path}: expected a list of {{role, text}} "
                          f"entries, got {type(entries).__name__}")
    atoms = []
    for i, entry in enumerate(entries):
        where = f"atom_library: {path}: entry {i}"
        if not isinstance(entry, dict) or set(entry) != {"role", "text"}:
            raise ConfigError(f"{where}: expected exactly role and text, got {entry!r}")
        try:
            atoms.append(PromptAtom(i, entry["role"], entry["text"]))
        except ContractError as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return tuple(atoms)


# ---------------------------------------------------------------------------
# Buffer persistence
# ---------------------------------------------------------------------------


# Each line starts with the record's state, written and read once per distinct
# state: '{"state_semantic": [...], "state_features": [...], ' and then the
# other fields.
_SEMANTIC_HEAD = '{"state_semantic": '
_FEATURES_HEAD = ', "state_features": '
_ERRORS = (json.JSONDecodeError, ContractError, KeyError, TypeError, ValueError)


def persist_buffer(buffer: ExperienceBuffer, path) -> None:
    """Write one line per record, `json.dumps(record.to_json_dict())`, whose
    leading state text is encoded once per distinct state; an interrupted
    write leaves any earlier file at path as it was."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    heads: dict[tuple, str] = {}
    with atomic_write(path) as fh:
        for record in buffer:
            d = record.to_json_dict()
            semantic, features = d.pop("state_semantic"), d.pop("state_features")
            s, f = record.state.semantic, record.state.features
            key = (s.dtype.str, s.shape, s.tobytes(), f.dtype.str, f.tobytes())
            head = heads.get(key)
            if head is None:
                head = heads[key] = (f"{_SEMANTIC_HEAD}{json.dumps(semantic)}"
                                     f"{_FEATURES_HEAD}{json.dumps(features)}, ")
            fh.write(head + json.dumps(d)[1:] + "\n")


def load_buffer(path) -> ExperienceBuffer:
    """The records of an episode file. Lines that start with the same state
    text, as `persist_buffer` writes them, share one state with read-only
    arrays, parsed once. A file that cannot be read or holds a malformed line
    raises PersistenceError naming the path (and the line)."""
    buffer = ExperienceBuffer()
    states: dict[str, StateEmbedding] = {}
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise PersistenceError(f"{path}: cannot read the episode file: {exc.strerror}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise PersistenceError(f"{path}: malformed episode at line {lineno}: not UTF-8 "
                                       f"text: {exc.reason} at byte {exc.start}") from None
            if not line.strip():
                continue
            record = _read_split(line, states)
            if record is None:
                try:
                    record = EpisodeRecord.from_json_dict(json.loads(line))
                except _ERRORS as exc:
                    raise PersistenceError(
                        f"{path}: malformed episode at line {lineno}: {exc}"
                    ) from exc
            buffer.append(record)
    return buffer


def _read_split(line: str, states: dict) -> Optional[EpisodeRecord]:
    """The record of a line laid out as `persist_buffer` writes it: its state
    text, parsed into `states` on its first sight, then the other fields.
    When both parts parse, the whole line parses to their union, so both
    readings give one record. None for a line of another layout, or one this
    reading refuses, so that the whole-line parse reads it and words any
    error."""
    if not line.startswith(_SEMANTIC_HEAD):
        return None
    mid = line.find(_FEATURES_HEAD, len(_SEMANTIC_HEAD))
    end = line.find("], ", mid + len(_FEATURES_HEAD)) if mid >= 0 else -1
    if end < 0:
        return None
    head = line[:end + 3]
    try:
        state = states.get(head)
        if state is None:
            state = state_from_json_dict(json.loads(head[:-2] + "}"))
            state.semantic.flags.writeable = False
            state.features.flags.writeable = False
            states[head] = state
        rest = json.loads("{" + line[end + 3:])
        if "state_semantic" in rest or "state_features" in rest:
            return None  # the whole-line parse keeps a repeated key's last value
        return EpisodeRecord.from_json_dict(rest, state)
    except _ERRORS:
        return None


# ---------------------------------------------------------------------------
# Real-mode backend adapter
# ---------------------------------------------------------------------------

Transport = Callable[[dict, "BackendEndpoint"], dict]

TOOL_DIRECTIVE_RE = re.compile(r"^TOOL:([a-z_]+):(.*)$", re.MULTILINE)

LOOKUP_FIXTURE = {
    "capital of france": "Paris",
    "largest planet": "Jupiter",
    "speed of light": "299792458 m/s",
}


def run_tool(name: str, argument: str, allocated: Sequence[str]) -> str:
    """Execute one tool directive against the local registry; always returns
    a string (error strings, never exceptions)."""
    if name not in allocated:
        return f"ERROR: tool {name} not allocated"
    if name == "calculator":
        value = safe_eval_arithmetic(argument)
        return f"ERROR: malformed expression: {argument}" if value is None else repr(value)
    if name == "lookup":
        return LOOKUP_FIXTURE.get(argument.strip().lower(), "ERROR: key not found")
    return f"ERROR: tool {name} disabled"


def default_transport(payload: dict, endpoint: BackendEndpoint) -> dict:
    """POST the payload as JSON and parse the JSON reply. An HTTP error
    status raises `urllib.error.HTTPError`, which `chat_call` retries."""
    # Imported here: urllib.request pulls in http.client, email and ssl, about
    # 3 MB of resident memory that only real mode needs.
    import urllib.request

    headers = {"Content-Type": "application/json"}
    api_key = os.environ.get(endpoint.api_key_env)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    request = urllib.request.Request(
        endpoint.base_url, data=json.dumps(payload).encode("utf-8"), headers=headers,
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=endpoint.timeout) as response:
        return json.loads(response.read())


def chat_call(
    endpoint: BackendEndpoint,
    messages: list[dict],
    max_tokens: int,
    transport: Transport,
    sleep: Callable[[float], None] = time.sleep,
):
    """One logical chat call with retries (exponential backoff 1s/2s/4s...).

    Returns (content, total_tokens). Retries never multiply logical calls:
    the first successful transport response wins."""
    payload = {
        "model": endpoint.model,
        "messages": messages,
        "max_tokens": max_tokens,
        "temperature": endpoint.temperature,
    }
    last_exc = None
    for attempt in range(endpoint.max_retries + 1):
        try:
            response = transport(payload, endpoint)
            try:
                content = response["choices"][0]["message"]["content"]
                tokens = int(response["usage"]["total_tokens"])
            except (KeyError, IndexError, TypeError) as exc:
                raise ResponseParseError(f"malformed backend response: {response!r}") from exc
            return content, tokens
        except ResponseParseError:
            raise
        except Exception as exc:  # transport-level failure -> retry
            last_exc = exc
            if attempt < endpoint.max_retries:
                sleep(float(2**attempt))
    raise BackendError(
        f"backend failed after {endpoint.max_retries + 1} attempts: {last_exc}"
    ) from last_exc


def normalize_answer(text: str) -> str:
    return re.sub(r"\s+", " ", text.strip().lower())


class _RealExecution:
    """Bookkeeping for one real-mode episode: calls, tokens, tool runs."""

    def __init__(self, query, config, endpoint, library, transport, sleep):
        self.query = query
        self.config = config
        self.endpoint = endpoint
        self.library = library
        self.transport = transport
        self.sleep = sleep
        self.n_calls = 0
        self.n_tokens = 0
        self.n_tools_used = 0

    def agent_tools(self, agent: int) -> tuple[str, ...]:
        a = self.config.structure
        return toolset_members(a.tools1 if agent == 0 else a.tools2)

    def system_text(self, agent: int) -> str:
        seq = self.config.prompts[agent] if agent < len(self.config.prompts) else ()
        return " ".join(self.library[i].text for i in seq)

    def call(self, agent: int, user_text: str, cap: int) -> str:
        if self.n_calls >= cap:
            raise BackendError(f"workflow call cap {cap} exceeded")
        budgets = self.config.structure.budgets
        max_tokens = TIER_TOKENS[budgets[min(agent, len(budgets) - 1)]]
        messages = []
        system = self.system_text(agent)
        if system:
            messages.append({"role": "system", "content": system})
        messages.append({"role": "user", "content": user_text})
        content, tokens = chat_call(
            self.endpoint, messages, max_tokens, self.transport, self.sleep
        )
        self.n_calls += 1
        self.n_tokens += tokens
        return content

    def resolve_tools(self, agent: int, content: str) -> str:
        """Run every TOOL:<name>:<arg> directive; returns appended results
        text ('' when there were no directives)."""
        allocated = self.agent_tools(agent)
        results = []
        for match in TOOL_DIRECTIVE_RE.finditer(content):
            name, arg = match.group(1), match.group(2)
            result = run_tool(name, arg, allocated)
            if not result.startswith("ERROR: tool" ):
                self.n_tools_used += 1
            results.append(f"TOOL_RESULT:{name}:{result}")
        return "\n".join(results)


def _run_plan(ex: _RealExecution) -> str:
    """The call topology of the workflow's `plan`, capped at its
    `max_calls`."""
    q = ex.query.text
    workflow = ex.config.structure.workflow
    plan, fan_out, cap = workflow.plan, workflow.fan_out, workflow.max_calls

    def call_with_tools(agent: int, text: str) -> str:
        content = ex.call(agent, text, cap)
        tool_block = ex.resolve_tools(agent, content)
        return content + ("\n" + tool_block if tool_block else "")

    if plan == "direct":
        return call_with_tools(0, q)
    if plan == "chain":
        context = q
        out = ""
        for agent in range(workflow.agents_active):
            out = call_with_tools(agent, context)
            context = f"{q}\n\nPrevious stage output:\n{out}"
        return out
    if plan == "routing":
        route = call_with_tools(0, f"Route this query to a specialist and restate it:\n{q}")
        specialist = call_with_tools(1, f"{q}\n\nRouting note:\n{route}")
        return call_with_tools(2, f"{q}\n\nSpecialist output:\n{specialist}")
    if plan == "sectioning":
        sections = [
            call_with_tools(0, f"{q}\n\nHandle section {i + 1} of {fan_out}.")
            for i in range(fan_out)
        ]
        joined = "\n---\n".join(sections)
        return call_with_tools(2, f"{q}\n\nSection outputs:\n{joined}")
    if plan == "voting":
        votes = [
            call_with_tools(0, f"{q}\n\nGive your independent answer (vote {i + 1}).")
            for i in range(fan_out)
        ]
        ex.call(1, f"{q}\n\nVotes:\n" + "\n".join(votes), cap)  # aggregator call
        normalized = [normalize_answer(v) for v in votes]
        counts: dict[str, int] = {}
        for v in normalized:
            counts[v] = counts.get(v, 0) + 1
        best = max(counts.values())
        for v, original in zip(normalized, votes):
            if counts[v] == best:
                return original
    if plan == "orchestrator":
        outline = call_with_tools(0, f"Decompose into {fan_out} subtasks:\n{q}")
        worker_out = [
            call_with_tools(1, f"{q}\n\nSubtask {i + 1} from plan:\n{outline}")
            for i in range(fan_out)
        ]
        return call_with_tools(2, f"{q}\n\nWorker outputs:\n" + "\n---\n".join(worker_out))
    if plan == "evaluator_optimizer":
        draft = call_with_tools(0, q)
        for _ in range(workflow.refinements):
            verdict = ex.call(1, f"{q}\n\nDraft:\n{draft}\n\nReply ACCEPT or critique.", cap)
            if "ACCEPT" in verdict:
                return draft
            if ex.n_calls >= cap:
                return draft
            draft = call_with_tools(0, f"{q}\n\nRevise per critique:\n{verdict}")
        return draft
    if plan == "autonomous":
        context = q
        content = ""
        while ex.n_calls < cap:
            content = ex.call(0, context, cap)
            tool_block = ex.resolve_tools(0, content)
            if not tool_block:
                return content
            context = f"{q}\n\nAgent trace:\n{content}\n{tool_block}"
        return content
    raise BackendError(f"unknown plan: {plan}")


def execute_real(
    query: Query,
    config: Configuration,
    endpoint: BackendEndpoint,
    library: Sequence[PromptAtom],
    transport: Transport = default_transport,
    sleep: Callable[[float], None] = time.sleep,
) -> ExecutionOutcome:
    """Run one episode against a chat-completions backend. Backend and parse
    failures are recorded as failed episodes, never raised."""
    ex = _RealExecution(query, config, endpoint, library, transport, sleep)
    try:
        answer = _run_plan(ex)
    except (BackendError, ResponseParseError) as exc:
        answer = f"EPISODE_FAILED: {exc}"
    correct = bool(
        query.gold_answer
        and normalize_answer(answer) == normalize_answer(query.gold_answer)
    )
    a = config.structure
    n_alloc = len(toolset_members(a.tools1)) + len(toolset_members(a.tools2))
    return ExecutionOutcome(
        answer_text=answer,
        correct=correct,
        n_steps=ex.n_calls,
        n_tokens=ex.n_tokens,
        n_tools_used=ex.n_tools_used,
        n_tools_allocated=n_alloc,
    )


# ---------------------------------------------------------------------------
# Training orchestrator
# ---------------------------------------------------------------------------


@dataclass
class TrainingArtifacts:
    struct_policy: StructurePolicy
    prompt_policy: PromptPolicy
    table: MaskTable
    buffer: ExperienceBuffer
    diagnostics: list
    report: dict
    env: SyntheticEnv


def build_components(cfg: RunConfig):
    """(env, table, library, policies) of the synthetic environment from a
    RunConfig. Real mode runs through `execute_real`."""
    library = (
        load_atom_library(cfg.atom_library)
        if cfg.atom_library is not None
        else default_atom_library()
    )
    env = build_env(
        cfg.env, cfg.env.n_queries, cfg.seed, library=library,
        semantic_dim=cfg.env.semantic_dim,
    )
    table = mask_table_from_config(cfg.mask_table)
    state_dim = cfg.env.semantic_dim + 5
    struct_policy = StructurePolicy(state_dim, rng=np.random.default_rng([cfg.seed, 1]))
    prompt_policy = PromptPolicy(state_dim, library, rng=np.random.default_rng([cfg.seed, 2]))
    return env, table, library, struct_policy, prompt_policy


def run_training(cfg: RunConfig) -> TrainingArtifacts:
    """Full pipeline: RL phase (PPO or GRPO, both on cfg.ppo), elite
    filtering, SFT refinement, and a summary report. Deterministic given
    cfg.seed in synthetic single-executor mode."""
    env, table, library, struct_policy, prompt_policy = build_components(cfg)
    buffer, diagnostics = train_policies(
        struct_policy, prompt_policy, table, env, cfg.ppo, cfg.reward,
        cfg.seed, objective=cfg.objective,
    )
    report: dict = {
        "episodes": len(buffer),
        "mean_reward_first_batch": diagnostics[0]["mean_reward"],
        "mean_reward_last_batch": diagnostics[-1]["mean_reward"],
    }
    if cfg.refinement == "sft":
        try:
            elite = filter_elite(buffer, cfg.sft)
            sft_losses = sft_update(struct_policy, prompt_policy, table, elite, cfg.sft)
            report["elite_size"] = len(elite)
            report["tau_eff"] = elite.tau_eff
            report["sft_final_loss"] = sft_losses[-1]
            report["kl_to_elite"] = kl_to_empirical(
                struct_policy, prompt_policy, table, elite
            )
        except EmptyEliteError as exc:
            report["sft_skipped"] = str(exc)
    elif cfg.refinement == "dpo":
        try:
            dpo_losses = dpo_update(struct_policy, prompt_policy, table, buffer, cfg.dpo)
            report["dpo_final_loss"] = dpo_losses[-1]
        except NoPairsError as exc:
            report["dpo_skipped"] = str(exc)
    counts = np.zeros(len(WORKFLOWS))
    for record in buffer:
        counts[record.structure_action.workflow_id] += 1
    report["diversity"] = dataclasses.asdict(diversity_report(counts))
    return TrainingArtifacts(
        struct_policy, prompt_policy, table, buffer, diagnostics, report, env
    )


def save_artifacts(artifacts: TrainingArtifacts, out_dir) -> None:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    artifacts.struct_policy.save(out_dir)
    artifacts.prompt_policy.save(out_dir)
    persist_buffer(artifacts.buffer, out_dir / "episodes.jsonl")
    with atomic_write(out_dir / "report.json") as fh:
        json.dump(artifacts.report, fh, indent=2)
    with atomic_write(out_dir / "diagnostics.jsonl") as fh:
        for diag in artifacts.diagnostics:
            fh.write(json.dumps(diag) + "\n")
