"""Learn per-query configurations for agentic execution systems.

A two-level policy (structure: workflow, tool subsets, budget tiers; prompts:
sequences of instruction atoms) is trained with masked policy gradients and
refined by supervised fine-tuning on elite trajectories, verified against a
deterministic synthetic environment with an exact brute-force oracle.
"""

from .core import (
    Configuration,
    EpisodeRecord,
    ExecutionOutcome,
    ExperienceBuffer,
    PromptAtom,
    Query,
    StateEmbedding,
    StructureAction,
    WORKFLOWS,
    decode_structure_action,
    index_structure_action,
)
from .env import (
    QueryDistribution,
    SyntheticEnv,
    SyntheticQuerySpec,
    brute_force_best,
    build_env,
    expected_reward,
)
from .policy import (
    MaskTable,
    PromptPolicy,
    StructurePolicy,
    all_ones_mask_table,
    default_mask_table,
    enumerate_valid,
    greedy_configuration,
    sample_structure,
)
from .reward import RewardConfig, shaped_reward
from .train import (
    DPOConfig,
    PPOConfig,
    SFTConfig,
    collect_episodes,
    filter_elite,
    sft_update,
    train_policies,
)
from .runtime import RunConfig, load_buffer, load_config, persist_buffer, run_training

__version__ = "0.1.0"
