"""Config loading, JSONL persistence, the chat backend adapter, and the
training orchestrator."""

import contextlib
import dataclasses
import io
import json
import math
import re
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
import yaml

from agentcfg.baselines import SearchBudget
from agentcfg.core import (
    Configuration,
    EpisodeRecord,
    ExecutionOutcome,
    ExperienceBuffer,
    Query,
    StateEmbedding,
    StructureAction,
)
from agentcfg.env import compact_atom_library
from agentcfg.errors import (
    BackendError,
    ConfigError,
    PersistenceError,
    ResponseParseError,
)
from agentcfg.runtime import (
    BackendEndpoint,
    EnvConfig,
    RunConfig,
    build_components,
    chat_call,
    default_transport,
    dump_config,
    execute_real,
    load_atom_library,
    load_buffer,
    load_config,
    normalize_answer,
    persist_buffer,
    run_tool,
    run_training,
)
from agentcfg.train import PPOConfig, SFTConfig


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def write_yaml(tmp_path, data, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data))
    return path


class TestRunConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        cfg = load_config(path)
        assert cfg == RunConfig()
        assert cfg.ppo.batch_size == 32 and cfg.ppo.total_episodes == 4000
        assert cfg.sft.tau == 4.0 and cfg.sft.elite_fraction == 0.30
        assert cfg.dpo.beta == 0.05

    def test_unknown_top_level_key(self, tmp_path):
        path = write_yaml(tmp_path, {"learning_rate": 1.0})
        with pytest.raises(ConfigError, match="learning_rate"):
            load_config(path)

    def test_unknown_nested_key_named_with_path(self, tmp_path):
        path = write_yaml(tmp_path, {"ppo": {"lr": 0.1}})
        with pytest.raises(ConfigError, match=r"ppo\.lr"):
            load_config(path)
        # GRPO reads ppo:, and DPO uses every pair in one batch
        path = write_yaml(tmp_path, {"grpo": {"batch_size": 64}})
        with pytest.raises(ConfigError, match="unknown config key: grpo"):
            load_config(path)
        for key in ("entropy_coef", "batch_size"):
            path = write_yaml(tmp_path, {"dpo": {key: 1}})
            with pytest.raises(ConfigError, match=rf"unknown config key: dpo\.{key}"):
                load_config(path)
        path = write_yaml(tmp_path, {"mask_table": {"NotAWorkflow": {}}})
        with pytest.raises(ConfigError, match="NotAWorkflow"):
            load_config(path)

    def test_type_mismatch(self, tmp_path):
        path = write_yaml(tmp_path, {"ppo": {"batch_size": "many"}})
        with pytest.raises(ConfigError, match=r"ppo\.batch_size"):
            load_config(path)
        path = write_yaml(tmp_path, {"reward": {"alpha": "big"}})
        with pytest.raises(ConfigError, match=r"reward\.alpha"):
            load_config(path)

    def test_invalid_enums(self, tmp_path):
        for field, value in (("mode", "dreams"), ("objective", "sgd"),
                             ("refinement", "rlhf")):
            path = write_yaml(tmp_path, {field: value})
            with pytest.raises(ConfigError):
                load_config(path)

    def test_dump_load_fixed_point(self, tmp_path):
        original = write_yaml(tmp_path, {
            "seed": 3,
            "objective": "grpo",
            "ppo": {"batch_size": 8, "total_episodes": 64},
            "env": {"n_queries": 4, "semantic_dim": 16},
            "backend": {"model": "m", "max_retries": 1},
        })
        cfg = load_config(original)
        dumped = dump_config(cfg)
        rewritten = write_yaml(tmp_path, dumped, name="round.yaml")
        assert dump_config(load_config(rewritten)) == dumped

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.yaml")

    def test_backend_validation(self):
        with pytest.raises(ConfigError):
            BackendEndpoint(timeout=0)
        with pytest.raises(ConfigError):
            BackendEndpoint(max_retries=-1)

    @pytest.mark.parametrize("field, value", [
        ("n_queries", 0), ("semantic_dim", 0), ("depth_probs", (0.5, 0.5)),
        ("depth_probs", (1.2, -0.1, -0.1)), ("depth_probs", (0.5, 0.3, 0.3)),
        ("tool_prob", 1.5), ("tool_prob", -0.1), ("noise_scale", -1.0),
        ("difficulty_low", 0.9),
    ])
    def test_env_section_validated(self, field, value):
        with pytest.raises(ConfigError, match=f"env.{field}"):
            EnvConfig(**{field: value})

    @pytest.mark.parametrize("command, env", [
        ("train", {"n_queries": 0}), ("simulate", {"depth_probs": [1.0]}),
    ])
    def test_bad_env_section_fails_as_config_error(self, tmp_path, capsys, command, env):
        from agentcfg.cli import main

        path = write_yaml(tmp_path, {"env": env})
        with pytest.raises(ConfigError, match=f"env.{next(iter(env))}"):
            load_config(path)
        assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"error: env.{next(iter(env))}" in capsys.readouterr().err

    @pytest.mark.parametrize("data, field", [
        ({"ppo": {"epochs_per_batch": 0}}, "ppo.epochs_per_batch"),
        ({"ppo": {"batch_size": 0}}, "ppo.batch_size"),
        ({"ppo": {"clip_eps": -1.0}}, "ppo.clip_eps"),
        ({"sft": {"epochs": 0}}, "sft.epochs"),
        ({"refinement": "dpo", "dpo": {"epochs": 0}}, "dpo.epochs"),
        ({"reward": {"alpha": -1.0}}, "reward.alpha"),
        ({"reward": {"alpha": float("nan")}}, "reward.alpha"),
        ({"sft": {"elite_fraction": 0.0}}, "sft.elite_fraction"),
        ({"ppo": {"lr_struct": float("nan")}}, "ppo.lr_struct"),
        ({"dpo": {"beta": float("inf")}}, "dpo.beta"),
        ({"backend": {"timeout": float("nan")}}, "backend.timeout"),
        ({"backend": {"timeout": float("inf")}}, "backend.timeout"),
        ({"backend": {"timeout": 0.0}}, "backend.timeout"),
        ({"backend": {"temperature": float("nan")}}, "backend.temperature"),
        ({"backend": {"max_retries": -1}}, "backend.max_retries"),
        ({"ppo": {"max_grad_norm": 0.0}}, "ppo.max_grad_norm"),
        ({"ppo": {"max_grad_norm": -1.0}}, "ppo.max_grad_norm"),
        ({"refinement": "dpo", "dpo": {"max_grad_norm": -1.0}}, "dpo.max_grad_norm"),
        ({"ppo": {"lr_struct": -1e-3}}, "ppo.lr_struct"),
        ({"ppo": {"lr_prompt": -1e-3}}, "ppo.lr_prompt"),
        ({"sft": {"lr_struct": -1e-3}}, "sft.lr_struct"),
        ({"sft": {"lr_prompt": -1e-3}}, "sft.lr_prompt"),
        ({"refinement": "dpo", "dpo": {"lr_struct": -1e-3}}, "dpo.lr_struct"),
        ({"refinement": "dpo", "dpo": {"lr_prompt": -1e-3}}, "dpo.lr_prompt"),
        ({"refinement": "dpo", "dpo": {"beta": 0.0}}, "dpo.beta"),
        ({"refinement": "dpo", "dpo": {"beta": -0.05}}, "dpo.beta"),
        ({"ppo": {"gamma": -0.1}}, "ppo.gamma"),
        ({"ppo": {"gamma": 1.5}}, "ppo.gamma"),
        ({"ppo": {"value_coef": -0.5}}, "ppo.value_coef"),
        ({"ppo": {"entropy_coef": -0.05}}, "ppo.entropy_coef"),
        ({"sft": {"entropy_reg": -0.01}}, "sft.entropy_reg"),
        ({"refinement": "dpo", "dpo": {"positive_reward": 1.0, "negative_reward": 4.0}},
         "dpo.positive_reward"),
    ])
    def test_bad_training_value_fails_as_config_error(self, tmp_path, capsys, data, field):
        from agentcfg.cli import main

        path = write_yaml(tmp_path, data)
        assert main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rules, path", [
        ({"Direct": {"tools1": [99]}}, "mask_table.Direct.tools1"),
        ({"Direct": {"tools1": [-1]}}, "mask_table.Direct.tools1"),
        ({"Direct": {"tools1": ["a"]}}, "mask_table.Direct.tools1"),
        ({"Direct": {"tools1": 3}}, "mask_table.Direct.tools1"),
        ({"Direct": {"tools2": []}}, "mask_table.Direct.tools2"),
        ({"Direct": {"budgets": [[5], [0], [0]]}}, "mask_table.Direct.budgets[0]"),
        ({"Direct": {"budgets": [[0], ["Lo"], [0]]}}, "mask_table.Direct.budgets[1]"),
        ({"Direct": {"budgets": [["Low"]]}}, "mask_table.Direct.budgets"),
        ({"Direct": {"tools3": [0]}}, "mask_table.Direct.tools3"),
        ({"Direct": None}, "mask_table.Direct"),
        ({"Direct": ["tools1"]}, "mask_table.Direct"),
        ({"workflows": ["Nope"]}, "mask_table.workflows"),
        ({"workflows": "Direct"}, "mask_table.workflows"),
        ({"workflows": []}, "mask_table.workflows"),
        (["Direct"], "mask_table"),
    ])
    def test_bad_mask_rule_fails_as_config_error(self, tmp_path, capsys, rules, path):
        from agentcfg.cli import main

        config = write_yaml(tmp_path, {"mask_table": rules})
        for command in ("show-config", "enumerate-masks", "train"):
            out = tmp_path / command
            assert main([command, "--config", str(config), "--out", str(out)]) == 1
            assert re.search(rf"^error: (unknown config key: )?{re.escape(path)}(: |$)",
                             capsys.readouterr().err, re.M)
            assert not out.exists()

    def test_readme_yaml_examples_load(self, tmp_path, capsys):
        from agentcfg.cli import main

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        examples = re.findall(r"```yaml\n(.*?)```", readme, re.S)
        assert examples
        for i, example in enumerate(examples):
            path = tmp_path / f"example{i}.yaml"
            path.write_text(example)
            load_config(path)
            assert main(["enumerate-masks", "--config", str(path)]) == 0
            counts = json.loads(capsys.readouterr().out)
            assert counts["configured_closed_form"] == counts["configured_exhaustive"] > 0

    def test_real_mode_refused_until_a_real_env_exists(self, tmp_path, capsys):
        from agentcfg.cli import main

        with pytest.raises(ConfigError, match="only mode: synthetic"):
            run_training(RunConfig(mode="real"))
        assert main(["train", "--mode", "real", "--out", str(tmp_path / "out")]) == 1
        assert "only mode: synthetic" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_api_key_is_env_indirection_only(self):
        # the config names an environment variable, never a secret value
        endpoint = BackendEndpoint()
        assert endpoint.api_key_env == "BACKEND_API_KEY"
        assert not hasattr(endpoint, "api_key")


class TestAtomLibrary:
    def test_load(self, tmp_path):
        path = write_yaml(tmp_path, [
            {"role": "reasoner", "text": "Think."},
            {"role": "answerer", "text": "Answer."},
        ], name="atoms.yaml")
        atoms = load_atom_library(path)
        assert [a.id for a in atoms] == [0, 1]
        assert atoms[1].role == "answerer"

    def test_malformed_entries(self, tmp_path):
        path = write_yaml(tmp_path, {"role": "reasoner"}, name="bad.yaml")
        with pytest.raises(ConfigError):
            load_atom_library(path)
        path = write_yaml(tmp_path, [{"role": "reasoner"}], name="bad2.yaml")
        with pytest.raises(ConfigError, match="entry 0"):
            load_atom_library(path)


# ---------------------------------------------------------------------------
# Buffer persistence
# ---------------------------------------------------------------------------


def make_record(i):
    rng = np.random.default_rng(i)
    wf = int(rng.integers(0, 9))
    a = StructureAction(wf, int(rng.integers(0, 16)), 0,
                        tuple(int(b) for b in rng.integers(0, 3, size=3)))
    prompts = tuple(() for _ in range(a.workflow.agents_active))
    terms = (float(rng.uniform(0, 5)), -0.02, -0.001, 0.0)
    return EpisodeRecord(
        state=StateEmbedding(rng.normal(size=6), rng.normal(size=5)),
        structure_action=a,
        prompt_actions=prompts,
        outcome=ExecutionOutcome(f"ans{i}", bool(rng.integers(2)), 2, 300, 0, 1),
        reward=sum(terms),
        reward_breakdown=terms,
        seed=i,
    )


class TestBufferPersistence:
    def test_thousand_episode_lossless_roundtrip(self, tmp_path):
        buffer = ExperienceBuffer()
        for i in range(1000):
            buffer.append(make_record(i))
        path = tmp_path / "episodes.jsonl"
        persist_buffer(buffer, path)
        loaded = load_buffer(path)
        assert len(loaded) == 1000
        assert all(
            a.to_json_dict() == b.to_json_dict() for a, b in zip(buffer, loaded)
        )
        # persisting the reloaded buffer is byte-identical
        path2 = tmp_path / "again.jsonl"
        persist_buffer(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_empty_buffer(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        persist_buffer(ExperienceBuffer(), path)
        assert len(load_buffer(path)) == 0

    def test_interrupted_overwrite_leaves_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "episodes.jsonl"
        persist_buffer(ExperienceBuffer([make_record(i) for i in range(4)]), path)
        before = path.read_bytes()
        to_json_dict = EpisodeRecord.to_json_dict
        written = []

        def fail_on_third(record):
            written.append(record)
            if len(written) == 3:
                raise KeyboardInterrupt
            return to_json_dict(record)

        monkeypatch.setattr(EpisodeRecord, "to_json_dict", fail_on_third)
        with pytest.raises(KeyboardInterrupt):
            persist_buffer(ExperienceBuffer([make_record(i) for i in range(10, 16)]), path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["episodes.jsonl"]

    def test_malformed_line_names_line_number(self, tmp_path):
        buffer = ExperienceBuffer()
        buffer.append(make_record(0))
        buffer.append(make_record(1))
        path = tmp_path / "bad.jsonl"
        persist_buffer(buffer, path)
        lines = path.read_text().splitlines()
        lines[1] = '{"not": "an episode"}'
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(PersistenceError, match="line 2"):
            load_buffer(path)


# ---------------------------------------------------------------------------
# Backend adapter
# ---------------------------------------------------------------------------


def ok_response(content, tokens=10):
    return {
        "choices": [{"message": {"content": content}}],
        "usage": {"total_tokens": tokens},
    }


class ScriptedTransport:
    """Returns canned contents in call order; records payloads."""

    def __init__(self, contents, tokens=10):
        self.contents = list(contents)
        self.tokens = tokens
        self.payloads = []

    def __call__(self, payload, endpoint):
        self.payloads.append(payload)
        content = self.contents[min(len(self.payloads) - 1, len(self.contents) - 1)]
        return ok_response(content, self.tokens)


class TestChatCall:
    def test_retry_then_backend_error(self):
        endpoint = BackendEndpoint(max_retries=3)
        attempts = []
        sleeps = []

        def transport(payload, ep):
            attempts.append(1)
            raise ConnectionError("down")

        with pytest.raises(BackendError, match="4 attempts"):
            chat_call(endpoint, [], 100, transport, sleep=sleeps.append)
        assert len(attempts) == 4
        assert sleeps == [1.0, 2.0, 4.0]

    def test_parse_error_not_retried(self):
        endpoint = BackendEndpoint(max_retries=3)
        attempts = []

        def transport(payload, ep):
            attempts.append(1)
            return {"unexpected": True}

        with pytest.raises(ResponseParseError):
            chat_call(endpoint, [], 100, transport, sleep=lambda s: None)
        assert len(attempts) == 1

    def test_success_passes_payload_fields(self):
        endpoint = BackendEndpoint(model="test-model", temperature=0.5)
        transport = ScriptedTransport(["hello"], tokens=42)
        content, tokens = chat_call(
            endpoint, [{"role": "user", "content": "hi"}], 256, transport
        )
        assert (content, tokens) == ("hello", 42)
        payload = transport.payloads[0]
        assert payload["model"] == "test-model"
        assert payload["max_tokens"] == 256
        assert payload["temperature"] == 0.5

    def test_default_transport_posts_json_and_retries_http_errors(self, monkeypatch):
        requests_seen = []

        def urlopen(request, timeout):
            requests_seen.append((request, timeout))
            if len(requests_seen) == 1:
                raise urllib.error.HTTPError(request.full_url, 503, "unavailable", {}, None)
            return io.BytesIO(json.dumps(ok_response("hello", 42)).encode("utf-8"))

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        monkeypatch.setenv("TEST_BACKEND_KEY", "secret")
        endpoint = BackendEndpoint(base_url="http://localhost:9/v1/chat", model="m",
                                   api_key_env="TEST_BACKEND_KEY", timeout=7.5)
        sleeps = []
        messages = [{"role": "user", "content": "hi"}]
        content, tokens = chat_call(endpoint, messages, 64, default_transport,
                                    sleep=sleeps.append)
        assert (content, tokens) == ("hello", 42)
        assert len(requests_seen) == 2 and sleeps == [1.0]
        request, timeout = requests_seen[-1]
        assert timeout == 7.5
        assert request.full_url == "http://localhost:9/v1/chat"
        assert request.get_method() == "POST"
        assert request.get_header("Content-type") == "application/json"
        assert request.get_header("Authorization") == "Bearer secret"
        assert json.loads(request.data) == {"model": "m", "messages": messages,
                                            "max_tokens": 64, "temperature": 0.0}


class TestRunTool:
    def test_calculator(self):
        assert run_tool("calculator", "2+2", ("calculator",)) == "4.0"
        assert run_tool("calculator", "oops", ("calculator",)).startswith(
            "ERROR: malformed"
        )

    def test_lookup_fixture(self):
        assert run_tool("lookup", " Capital of France ", ("lookup",)) == "Paris"
        assert run_tool("lookup", "unknown", ("lookup",)) == "ERROR: key not found"

    def test_refusals(self):
        assert run_tool("calculator", "2+2", ()) == "ERROR: tool calculator not allocated"
        assert run_tool("web_search", "x", ("web_search",)) == "ERROR: tool web_search disabled"


LIB = compact_atom_library()
QUERY = Query(id="q", text="What is 2+2?", gold_answer="4")


def make_config(workflow, tools1=0, prompts=None):
    a = StructureAction(workflow, tools1, 0, (0, 0, 0))
    if prompts is None:
        prompts = tuple(() for _ in range(a.workflow.agents_active))
    return Configuration(a, prompts)


class TestExecuteReal:
    def test_direct_one_call(self):
        transport = ScriptedTransport(["4"])
        out = execute_real(QUERY, make_config(0), BackendEndpoint(), LIB,
                           transport=transport, sleep=lambda s: None)
        assert out.n_steps == 1
        assert out.correct is True
        assert out.n_tokens == 10

    def test_system_prompt_from_atoms(self):
        transport = ScriptedTransport(["4"])
        config = make_config(0, prompts=((0, 1),))
        execute_real(QUERY, config, BackendEndpoint(), LIB,
                     transport=transport, sleep=lambda s: None)
        messages = transport.payloads[0]["messages"]
        assert messages[0]["role"] == "system"
        assert LIB[0].text in messages[0]["content"]
        assert LIB[1].text in messages[0]["content"]

    def test_voting_majority(self):
        transport = ScriptedTransport(["A", "A", "B", "aggregated"])
        query = Query(id="q", text="pick", gold_answer="A")
        out = execute_real(query, make_config(5), BackendEndpoint(), LIB,
                           transport=transport, sleep=lambda s: None)
        assert out.n_steps == 4  # three voters + one aggregator
        assert out.answer_text == "A"
        assert out.correct is True

    def test_evaluator_optimizer_call_counts(self):
        accept = ScriptedTransport(["draft", "ACCEPT"])
        out = execute_real(QUERY, make_config(7), BackendEndpoint(), LIB,
                           transport=accept, sleep=lambda s: None)
        assert out.n_steps == 2
        assert out.answer_text == "draft"
        critique = ScriptedTransport(["draft", "bad, fix it"])
        out = execute_real(QUERY, make_config(7), BackendEndpoint(), LIB,
                           transport=critique, sleep=lambda s: None)
        assert out.n_steps == 7  # draft + 3x(verdict, revision)

    def test_autonomous_tool_loop_capped(self):
        transport = ScriptedTransport(["TOOL:calculator:2+2"])
        out = execute_real(QUERY, make_config(8, tools1=0b0001), BackendEndpoint(),
                           LIB, transport=transport, sleep=lambda s: None)
        assert out.n_steps == 4  # loop stops at the workflow call cap
        assert out.n_tools_used == 4
        assert out.n_tools_allocated == 1

    def test_tool_directive_results_fed_back(self):
        transport = ScriptedTransport(["TOOL:calculator:2+2", "4"])
        out = execute_real(QUERY, make_config(8, tools1=0b0001), BackendEndpoint(),
                           LIB, transport=transport, sleep=lambda s: None)
        assert out.correct is True
        followup = transport.payloads[1]["messages"][-1]["content"]
        assert "TOOL_RESULT:calculator:4.0" in followup

    def test_unallocated_tool_not_counted(self):
        transport = ScriptedTransport(["TOOL:calculator:2+2"])
        out = execute_real(QUERY, make_config(0, tools1=0), BackendEndpoint(), LIB,
                           transport=transport, sleep=lambda s: None)
        assert out.n_tools_used == 0

    def test_backend_failure_becomes_failed_episode(self):
        def transport(payload, endpoint):
            raise ConnectionError("no network")

        out = execute_real(QUERY, make_config(0), BackendEndpoint(max_retries=1),
                           LIB, transport=transport, sleep=lambda s: None)
        assert out.answer_text.startswith("EPISODE_FAILED:")
        assert out.correct is False

    def test_normalized_exact_match(self):
        assert normalize_answer("  The   Answer\n") == "the answer"
        transport = ScriptedTransport(["  The   Answer "])
        query = Query(id="q", text="x", gold_answer="the answer")
        out = execute_real(query, make_config(0), BackendEndpoint(), LIB,
                           transport=transport, sleep=lambda s: None)
        assert out.correct is True


# ---------------------------------------------------------------------------
# Training orchestrator
# ---------------------------------------------------------------------------


def small_run_config(**overrides):
    base = dict(
        seed=5,
        env=EnvConfig(n_queries=4, semantic_dim=8),
        ppo=PPOConfig(batch_size=8, total_episodes=16),
        sft=SFTConfig(epochs=2),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunTraining:
    def test_build_components_shapes(self):
        cfg = small_run_config()
        env, table, library, struct_policy, prompt_policy = build_components(cfg)
        assert len(env.queries) == 4
        assert struct_policy.state_dim == 13
        assert prompt_policy.n_atoms == len(library)

    def test_zero_episode_run_rejected(self):
        from agentcfg.errors import ContractError

        cfg = small_run_config(ppo=PPOConfig(total_episodes=0))
        with pytest.raises(ContractError):
            run_training(cfg)

    def test_deterministic_same_seed(self):
        flats = []
        for _ in range(2):
            artifacts = run_training(small_run_config())
            flats.append(np.concatenate([
                artifacts.struct_policy.trunk.get_flat(),
                artifacts.prompt_policy.net.get_flat(),
            ]))
            assert len(artifacts.buffer) == 16
            assert "diversity" in artifacts.report
        assert np.array_equal(flats[0], flats[1])

    def test_refinement_none_and_dpo_paths(self):
        report_none = run_training(small_run_config(refinement="none")).report
        assert "sft_final_loss" not in report_none
        report_dpo = run_training(small_run_config(refinement="dpo")).report
        assert ("dpo_final_loss" in report_dpo) or ("dpo_skipped" in report_dpo)


# ---------------------------------------------------------------------------
# Command-line artifacts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("command, flag", [
    ("eval", "--out"), ("search", "--out"), ("analyze", "--out"),
    ("analyze", "--frontier-csv"),
])
def test_interrupted_cli_write_keeps_the_old_file(tmp_path, monkeypatch, command, flag):
    from agentcfg import cli

    config = write_yaml(tmp_path, {"env": {"n_queries": 4, "semantic_dim": 8}})
    _, _, _, struct_policy, prompt_policy = build_components(load_config(config))
    struct_policy.save(tmp_path / "params")
    prompt_policy.save(tmp_path / "params")
    episodes = tmp_path / "episodes.jsonl"
    assert cli.main(["simulate", "--config", str(config), "--episodes", "12",
                     "--out", str(episodes)]) == 0
    target = tmp_path / "artifact"
    argv = {
        "eval": ["eval", "--config", str(config), "--params", str(tmp_path / "params")],
        "search": ["search", "--config", str(config), "--method", "grid",
                   "--max-evaluations", "3"],
        "analyze": ["analyze", "--episodes", str(episodes)],
    }[command] + [flag, str(target)]
    assert cli.main(argv) == 0
    old = target.read_text()
    assert old
    files = sorted(tmp_path.iterdir())
    real_atomic_write = cli.atomic_write

    @contextlib.contextmanager
    def interrupted(path, mode="w"):
        # the disk fills after a few bytes of the new contents
        with real_atomic_write(path, mode) as fh:
            fh.write(old[:5])
            raise OSError("No space left on device")
        yield

    monkeypatch.setattr(cli, "atomic_write", interrupted)
    with pytest.raises(OSError, match="No space left"):
        cli.main(argv)
    assert target.read_text() == old
    assert sorted(tmp_path.iterdir()) == files


@pytest.mark.parametrize("method", ["bandit", "flat-episode"])
def test_search_refuses_flags_the_flat_baselines_do_not_read(tmp_path, capsys, method):
    from agentcfg import cli

    config = write_yaml(tmp_path, {"env": {"n_queries": 4, "semantic_dim": 8},
                                   "ppo": {"total_episodes": 16, "batch_size": 8}})
    out = tmp_path / "search.jsonl"
    base = ["search", "--config", str(config), "--method", method]
    for flags in (["--out", str(out)], ["--sampled"], ["--max-evaluations", "3"],
                  ["--max-evaluations", "0"]):
        assert cli.main(base + flags) == 1
        err = capsys.readouterr().err
        assert "ConfigError" not in err and f"does not read {flags[0]}" in err
    assert cli.main(base + ["--sampled", "--max-evaluations", "3", "--out", str(out)]) == 1
    assert "does not read --out, --sampled, --max-evaluations" in capsys.readouterr().err
    assert not out.exists()

    assert cli.main(base) == 0
    assert json.loads(capsys.readouterr().out)["episodes"] == 16


def test_search_budget_defaults_to_the_search_budget(tmp_path, capsys):
    from agentcfg import cli

    config = write_yaml(tmp_path, {"env": {"n_queries": 4, "semantic_dim": 8}})
    assert cli.main(["search", "--config", str(config), "--method", "grid"]) == 0
    default = json.loads(capsys.readouterr().out)["evaluations"]
    assert default == SearchBudget().max_evaluations
    assert cli.main(["search", "--config", str(config), "--method", "grid",
                     "--max-evaluations", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["evaluations"] == 3
