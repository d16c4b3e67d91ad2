"""The command line writes the same outputs, byte for byte, whatever the
per-process string hashing. The policies' caches key dicts by state and
prompt-step bytes, DPO's reference scores by state bytes and action keys,
and the sampled harness and the env keep draws and outcomes in dicts; no
output may depend on the order of such dicts. Each run is a subprocess of
`python -m agentcfg.cli` on the package in src/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from agentcfg.env import ARRAY_PASS_MIN_QUERIES

SRC = Path(__file__).resolve().parents[1] / "src"

# The README's first example at a size that runs in seconds.
SEARCH_CONFIG = """\
seed: 7
ppo:
  batch_size: 32
  total_episodes: 128
env:
  n_queries: 8
mask_table:
  workflows: [Direct, ReasonVerifyAns, AutonomousAgent]
"""


def cli(tmp_path: Path, hashseed: int, *args: str, check: bool = True):
    """`python -m agentcfg.cli *args` in tmp_path under
    PYTHONHASHSEED=hashseed, with its output captured."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "agentcfg.cli", *args], env=env,
                          cwd=tmp_path, check=check, capture_output=True, text=True)


def train(tmp_path: Path, hashseed: int, *flags: str) -> Path:
    """The output directory of a 64-episode `agentcfg train` run under
    PYTHONHASHSEED=hashseed."""
    config = tmp_path / "run.yaml"
    config.write_text("ppo:\n  total_episodes: 64\n")
    out = tmp_path / f"run{hashseed}"
    cli(tmp_path, hashseed, "train", "--config", str(config), *flags, "--out", str(out))
    return out


@pytest.mark.parametrize("flags", [("--refinement", "dpo"), ("--objective", "grpo")],
                         ids=["dpo", "grpo"])
def test_train_repeats_under_other_hash_seeds(tmp_path, flags):
    first, second = (train(tmp_path, hashseed, *flags) for hashseed in (1, 2))
    names = sorted(p.name for p in first.iterdir())
    assert names and names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    if flags[0] == "--refinement":  # DPO ran
        assert "dpo_final_loss" in json.loads((first / "report.json").read_text())
    else:  # GRPO trains no value net
        with open(first / "diagnostics.jsonl") as fh:
            rows = [json.loads(line) for line in fh]
        assert rows and all(row["value_loss"] == 0.0 for row in rows)


@pytest.mark.parametrize("method,flags", [("grid", ("--sampled",)), ("greedy", ("--sampled",)),
                                          ("grid", ()), ("greedy", ())],
                         ids=["grid", "greedy", "grid-exact", "greedy-exact"])
def test_sampled_search_repeats_under_other_hash_seeds(tmp_path, method, flags):
    """Equal traces and summaries, and one trace row per counted evaluation,
    for the sampled harness and for the exact one, which scores the config's
    queries in one array pass."""
    assert yaml.safe_load(SEARCH_CONFIG)["env"]["n_queries"] >= ARRAY_PASS_MIN_QUERIES
    config = tmp_path / "search.yaml"
    config.write_text(SEARCH_CONFIG)
    traces, summaries = [], []
    for hashseed in (1, 2):
        trace = tmp_path / f"{method}{hashseed}.jsonl"
        summaries.append(cli(tmp_path, hashseed, "search", "--config", str(config),
                             "--method", method, *flags, "--out", str(trace)).stdout)
        traces.append(trace.read_bytes())
    assert traces[0] == traces[1]
    assert summaries[0] == summaries[1]
    assert len(traces[0].splitlines()) == json.loads(summaries[0])["evaluations"] > 0


@pytest.mark.parametrize("method", ["bandit", "flat-episode"])
def test_flat_baselines_repeat_under_other_hash_seeds(tmp_path, method):
    """The flat baselines act a whole batch in lockstep; equal seeds still
    print the same diagnostics."""
    config = tmp_path / "search.yaml"
    config.write_text(SEARCH_CONFIG)
    first, second = (cli(tmp_path, hashseed, "search", "--config", str(config),
                         "--method", method).stdout for hashseed in (1, 2))
    assert first == second
    assert json.loads(first)["episodes"] == 128


def test_eval_repeats_under_other_hash_seeds_and_refuses_missing_params(tmp_path):
    params = train(tmp_path, 1)
    config = str(tmp_path / "run.yaml")
    reports = []
    for hashseed in (1, 2):
        report = tmp_path / f"eval{hashseed}.json"
        cli(tmp_path, hashseed, "eval", "--config", config, "--params", str(params),
            "--out", str(report))
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]
    missing = cli(tmp_path, 1, "eval", "--config", config, "--params",
                  str(tmp_path / "missing"), check=False)
    assert missing.returncode == 1
    assert any(line.startswith("error: ") for line in missing.stderr.splitlines())
    assert "Traceback" not in missing.stderr
