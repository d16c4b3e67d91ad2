"""Command-line entry point: train / eval / search / analyze / simulate /
enumerate-masks over the synthetic (or real) environment."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    ParetoPoint,
    categorize_error,
    cost_per_episode,
    diversity_report,
    pareto_frontier,
)
from .baselines import (
    Harness,
    SearchBudget,
    bandit_policy_train,
    default_grid,
    flat_episode_policy_train,
    greedy_search,
    grid_search,
)
from .core import WORKFLOWS, atomic_write, index_structure_action
from .errors import AgentCfgError, ConfigError, ContractError
from .policy import (
    all_ones_mask_table,
    enumerate_valid,
    enumerate_valid_exhaustive,
    greedy_configuration,
)
from .runtime import (
    RunConfig,
    build_components,
    build_mask_table,
    dump_config,
    load_buffer,
    load_config,
    persist_buffer,
    run_training,
    save_artifacts,
)
from .train import collect_episodes


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mode", None):
        overrides["mode"] = args.mode
    if getattr(args, "objective", None):
        overrides["objective"] = args.objective
    if getattr(args, "refinement", None):
        overrides["refinement"] = args.refinement
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def _config_summary(config) -> dict:
    return {
        "structure_index": int(index_structure_action(config.structure)),
        "workflow": WORKFLOWS[config.structure.workflow_id].name,
        "tools1": int(config.structure.tools1),
        "tools2": int(config.structure.tools2),
        "budgets": [int(b) for b in config.structure.budgets],
        "prompts": [[int(a) for a in p] for p in config.prompts],
    }


def _print_json(report: dict, out) -> None:
    """Print report as indented JSON, and write the same text to out if
    given."""
    text = json.dumps(report, indent=2)
    if out:
        with atomic_write(out) as fh:
            fh.write(text)
    print(text)


def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    artifacts = run_training(cfg)
    out = Path(args.out or cfg.output_dir)
    save_artifacts(artifacts, out)
    print(json.dumps(artifacts.report, indent=2))
    print(f"artifacts written to {out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    env, table, library, struct_policy, prompt_policy = build_components(cfg)
    params_dir = Path(args.params)
    struct_policy.load(params_dir)
    prompt_policy.load(params_dir)
    total = 0.0
    rows = []
    for query in env.queries:
        config = greedy_configuration(struct_policy, prompt_policy, table, env.embed(query))
        value = env.expected_reward(query, config, cfg.reward)
        total += value
        rows.append({"query": query.id, "expected_reward": value,
                     **_config_summary(config)})
    report = {"mean_expected_reward": total / len(env.queries), "per_query": rows}
    if args.out:
        with atomic_write(args.out) as fh:
            fh.write(json.dumps(report, indent=2))
    print(json.dumps({"mean_expected_reward": report["mean_expected_reward"]}))
    return 0


def cmd_search(args) -> int:
    if args.method in ("bandit", "flat-episode"):
        # The learned flat baselines train on the run config alone.
        unread = [flag for flag, given in (("--out", args.out is not None),
                                           ("--sampled", args.sampled),
                                           ("--max-evaluations", args.max_evaluations is not None))
                  if given]
        if unread:
            raise ConfigError(f"search --method {args.method} does not read "
                              f"{', '.join(unread)}")
    cfg = _load_run_config(args)
    env, table, library, _, _ = build_components(cfg)
    harness = Harness(env=env, reward_cfg=cfg.reward, seed=cfg.seed,
                      expected_mode=not args.sampled)
    budget = (SearchBudget() if args.max_evaluations is None
              else SearchBudget(max_evaluations=args.max_evaluations))
    trace_rows = []
    if args.method == "grid":
        best, value, trace = grid_search(harness, default_grid(table, library), budget)
        trace_rows = [
            {"candidate": _config_summary(c), "value": v} for c, v in trace
        ]
    elif args.method == "greedy":
        best, value, trace = greedy_search(harness, table, library, budget)
        trace_rows = [
            {"dimension": dim, "candidate": _config_summary(c), "value": v}
            for dim, c, v in trace
        ]
    elif args.method == "bandit":
        policy, diagnostics = bandit_policy_train(env, cfg.ppo, cfg.reward, cfg.seed)
        print(json.dumps(diagnostics[-1]))
        return 0
    else:  # flat-episode
        policy, diagnostics = flat_episode_policy_train(env, cfg.ppo, cfg.reward, cfg.seed)
        print(json.dumps(diagnostics[-1]))
        return 0
    if args.out:
        with atomic_write(args.out) as fh:
            for row in trace_rows:
                fh.write(json.dumps(row) + "\n")
    print(json.dumps({"best": _config_summary(best), "value": value,
                      "evaluations": harness.n_evaluations}, indent=2))
    return 0


def cmd_analyze(args) -> int:
    try:
        cost_per_episode(0, args.price)
    except ContractError as exc:
        raise ConfigError(f"--price: {exc}") from None
    buffer = load_buffer(args.episodes)
    if not len(buffer):
        raise ConfigError(f"--episodes {args.episodes}: the file holds no episodes")
    counts = np.zeros(len(WORKFLOWS))
    by_workflow: dict[int, list] = {}
    errors: dict[str, int] = {}
    for record in buffer:
        wf = record.structure_action.workflow_id
        counts[wf] += 1
        by_workflow.setdefault(wf, []).append(record)
        if not record.outcome.correct:
            label = categorize_error(record, args.query_text or "", args.gold or "")
            key = f"{label.category}/{label.subtype}"
            errors[key] = errors.get(key, 0) + 1
    points = [
        ParetoPoint(
            cost=float(np.mean([cost_per_episode(r.outcome.n_tokens, args.price)
                                for r in records])),
            accuracy=float(np.mean([r.outcome.correct for r in records])),
            label=WORKFLOWS[wf].name,
        )
        for wf, records in sorted(by_workflow.items())
    ]
    frontier = pareto_frontier(points)
    report = {
        "episodes": len(buffer),
        "mean_reward": float(np.mean([r.reward for r in buffer])),
        "diversity": dataclasses.asdict(diversity_report(counts)),
        "error_histogram": errors,
        "pareto_frontier": [
            {"label": p.label, "cost": p.cost, "accuracy": p.accuracy} for p in frontier
        ],
    }
    if args.frontier_csv:
        lines = ["label,cost,accuracy"] + [
            f"{p.label},{p.cost},{p.accuracy}" for p in frontier
        ]
        with atomic_write(args.frontier_csv) as fh:
            fh.write("\n".join(lines) + "\n")
    _print_json(report, args.out)
    return 0


def cmd_simulate(args) -> int:
    if args.episodes < 1:
        raise ConfigError(f"--episodes must be >= 1, got {args.episodes}")
    cfg = _load_run_config(args)
    env, table, library, struct_policy, prompt_policy = build_components(cfg)
    buffer = collect_episodes(
        struct_policy, prompt_policy, table, env, args.episodes, cfg.reward, cfg.seed
    )
    out = args.out or "episodes.jsonl"
    persist_buffer(buffer, out)
    print(json.dumps({
        "episodes": len(buffer),
        "mean_reward": float(np.mean([r.reward for r in buffer])),
        "out": str(out),
    }))
    return 0


def cmd_enumerate_masks(args) -> int:
    cfg = _load_run_config(args)
    table = build_mask_table(cfg)
    report = {
        "all_ones": enumerate_valid(all_ones_mask_table()),
        "configured_closed_form": enumerate_valid(table),
        "configured_exhaustive": enumerate_valid_exhaustive(table),
    }
    _print_json(report, args.out)
    return 0


def cmd_show_config(args) -> int:
    _print_json(dump_config(_load_run_config(args)), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agentcfg",
        description="Learn per-query agent configurations (workflow, tools, "
        "budgets, prompts) with masked hierarchical policy gradients.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, mode=True):
        p.add_argument("--config", help="YAML run config path")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", help="output path")
        if mode:
            p.add_argument("--mode", choices=["synthetic", "real"])

    p = sub.add_parser("train", help="run the full training pipeline")
    common(p)
    p.add_argument("--objective", choices=["ppo", "grpo"])
    p.add_argument("--refinement", choices=["sft", "dpo", "none"])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="greedy-decode saved policies on the env")
    common(p)
    p.add_argument("--params", required=True, help="directory with saved parameters")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("search", help="baseline configuration search")
    common(p)
    p.add_argument("--method", required=True,
                   choices=["grid", "greedy", "bandit", "flat-episode"])
    p.add_argument("--max-evaluations", type=int, dest="max_evaluations",
                   help=f"search budget (default {SearchBudget.max_evaluations})")
    p.add_argument("--sampled", action="store_true",
                   help="score by seeded episodes instead of exact expectation")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("analyze", help="report on an episode JSONL file")
    p.add_argument("--episodes", required=True)
    p.add_argument("--out")
    p.add_argument("--frontier-csv", dest="frontier_csv")
    p.add_argument("--price", type=float, default=1.0, help="cost per 1k tokens")
    p.add_argument("--query-text", dest="query_text", default="")
    p.add_argument("--gold", default="")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("simulate", help="roll out episodes with fresh policies")
    common(p)
    p.add_argument("--episodes", type=int, default=100)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("enumerate-masks", help="count valid structure actions")
    common(p)
    p.set_defaults(func=cmd_enumerate_masks)

    p = sub.add_parser("show-config", help="print the normalized config")
    common(p)
    p.set_defaults(func=cmd_show_config)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except AgentCfgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
