"""`agentcfg train` writes the same artifacts, byte for byte, whatever the
per-process string hashing. The policies' caches key dicts by state and
prompt-step bytes, and DPO's reference scores by state bytes and action
keys; no artifact may depend on the order of such dicts. Each run is a
subprocess of `python -m agentcfg.cli` on the package in src/."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def train(tmp_path: Path, hashseed: int, *flags: str) -> Path:
    """The output directory of a 64-episode `agentcfg train` run under
    PYTHONHASHSEED=hashseed."""
    config = tmp_path / "run.yaml"
    config.write_text("ppo:\n  total_episodes: 64\n")
    out = tmp_path / f"run{hashseed}"
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed), PYTHONPATH=path)
    subprocess.run([sys.executable, "-m", "agentcfg.cli", "train", "--config", str(config),
                    *flags, "--out", str(out)],
                   env=env, cwd=tmp_path, check=True, stdout=subprocess.DEVNULL)
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
