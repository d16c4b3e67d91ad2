"""Run one benchmark workload of agentcfg and print its metrics.

    python3 bench/run.py --workload oracle-reduced --seed 3 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory. A run does
whole rounds of the workload's pipeline (see ``pipeline.py``) until the next
round would end past ``--seconds`` (at least one round), on inputs fixed by
``--seed``. Every phase of every round is timed in CPU seconds, and the
correctness checks in ``checks.py`` run on the round's outputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones (medians over rounds); with
``--trace 1`` they are the per-layer ones from ``tracing.py``, per round,
and the first round runs untraced so the tracing overhead can be reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# The nets' matrix-vector products (at most 128 x 128) gain nothing from a
# second BLAS thread, whose spinning showed up as run-to-run noise in CPU
# time. Set before numpy is first imported; an explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"

# Phases whose CPU and wall time make up one round; "ppo" and "sft" are
# parts of "train".
PHASES = ("train", "dpo", "guarantees", "decode", "oracle", "rollout", "buffer",
          "search", "flat", "real")

UNITS = {
    "setup_s": "s", "run_cpu_s": "s", "run_wall_s": "s", "peak_rss_mb": "MB",
    "train_episodes_per_s": "episodes/s", "sft_s": "s", "dpo_s": "s",
    "guarantee_checks_s": "s", "greedy_expected_reward": "reward",
    "oracle_ratio_rl": "ratio", "oracle_ratio_sft": "ratio", "decode_per_s": "configs/s",
    "rollout_episodes_per_s": "episodes/s", "search_evals_per_s": "evaluations/s",
    "flat_episodes_per_s": "episodes/s", "buffer_records_per_s": "records/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import agentcfg from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    try:
        import agentcfg
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import agentcfg from {src}: {exc}")
    if Path(agentcfg.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: agentcfg was imported from {agentcfg.__file__}, not {src}")


def machine_record() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.25 prints instead
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
    }


def end_to_end(rounds, profile, setup_s, speed) -> dict:
    """Times are means over rounds and rates are work over CPU seconds summed
    over rounds, so every round weighs in; all times are divided by the run's
    speed factor. The quality figures repeat exactly from round to round."""
    def cpu(phase):
        return sum(r.cpu[phase] for r in rounds) / len(rounds) / speed

    def rate(work, phase):
        return sum(r.work[work] for r in rounds) / sum(r.cpu[phase] for r in rounds) * speed

    first = rounds[0]
    values = {
        "setup_s": setup_s / speed,
        "run_cpu_s": sum(cpu(p) for p in PHASES),
        "run_wall_s": sum(sum(r.wall[p] for p in PHASES) for r in rounds) / len(rounds) / speed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "train_episodes_per_s": profile.ppo_episodes / cpu("ppo"),
        "sft_s": cpu("sft"),
        "dpo_s": cpu("dpo"),
        "guarantee_checks_s": cpu("guarantees"),
        "greedy_expected_reward": first.quality["greedy_expected_reward"],
        "oracle_ratio_rl": first.quality["oracle_ratio_rl"],
        "oracle_ratio_sft": first.quality["oracle_ratio_sft"],
        "decode_per_s": rate("decodes", "decode"),
        "rollout_episodes_per_s": profile.rollout_episodes / cpu("rollout"),
        "search_evals_per_s": rate("evaluations", "search"),
        "flat_episodes_per_s": 2 * profile.flat_episodes / cpu("flat"),
        "buffer_records_per_s": rate("records", "buffer"),
    }
    return {name: {"value": float(v), "unit": UNITS[name]} for name, v in values.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import pipeline
    import tracing

    if args.workload not in pipeline.PROFILES:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(pipeline.PROFILES)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
        tracer.enabled = True
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        inp = pipeline.setup(args.workload, args.seed, out_dir)
        # CPU time since the process started: interpreter, imports and inputs.
        setup_s = time.process_time()
        setup_trace = None
        if tracer is not None:
            setup_trace = tracer.summary()
            tracer.reset()
            tracer.enabled = False   # the first round is the untraced reference
        rounds, errors, failed, attempted = [], [], 0, 0
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            index = len(rounds)
            try:
                r = pipeline.run_round(inp, index, tracer, rounds[0] if rounds else None)
            except Exception:
                traceback.print_exc()
                failed += pipeline.planned_operations(inp)
                attempted += pipeline.planned_operations(inp)
                break
            finally:
                shutil.rmtree(out_dir / f"round{index}", ignore_errors=True)
            if rounds:
                r.rollout_buffer = []   # later rounds are checked against the first's only,
                # and keeping them would tie peak_rss_mb to the number of rounds
            rounds.append(r)
            print(f"bench: round {index} speed factor "
                  f"{pipeline.speed_factor(r.calibration):.3f}, raw CPU s by phase: "
                  + ", ".join(f"{k} {v:.3f}" for k, v in r.cpu.items()), file=sys.stderr)
            attempted += r.attempted
            failed += r.failed
            errors += r.errors
            if r.quality != rounds[0].quality:
                errors.append(f"round {index} quality {r.quality} differs from round 0")
            if tracer is not None:
                tracer.enabled = True
            took = time.perf_counter() - t0
            elapsed = time.perf_counter() - start
            if elapsed + took > args.seconds and (tracer is None or len(rounds) >= 2):
                break
        if not rounds:
            print(json.dumps({"correct": False, "attempted": attempted, "failed": failed,
                              "metrics": {}}))
            return 0
        profile = inp.profile
        speed = pipeline.speed_factor([c for r in rounds for c in r.calibration])
        print(f"bench: {len(rounds)} rounds, set-up {setup_s:.3f} CPU s, run speed factor "
              f"{speed:.3f}", file=sys.stderr)
        if tracer is None:
            metrics = end_to_end(rounds, profile, setup_s, speed)
        elif len(rounds) < 2:
            metrics = {}   # the run failed before its first traced round
        else:
            tracer.enabled = False
            traced = rounds[1:]
            metrics = tracing.per_layer_metrics(tracer, len(traced), setup_trace)
            errors += check_counts(metrics, traced)

            def round_cpu(r):   # at the reference speed, as in end_to_end
                return sum(r.cpu[p] for p in PHASES) / pipeline.speed_factor(r.calibration)

            untraced_cpu = round_cpu(rounds[0])
            traced_cpu = statistics.median(round_cpu(r) for r in traced)
            overhead = traced_cpu / untraced_cpu - 1.0
            write_trace_report(args, tracer, setup_trace, len(traced), untraced_cpu,
                               traced_cpu, overhead)
            print(f"bench: tracing overhead {100 * overhead:.1f}% of run CPU "
                  f"({untraced_cpu:.3f} s untraced, {traced_cpu:.3f} s traced)",
                  file=sys.stderr)
        for msg in errors:
            print(f"bench: check failed: {msg}", file=sys.stderr)
        print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)


def check_counts(metrics, rounds) -> list[str]:
    """Traced call counts must equal the counts the workload fixes."""
    errors = []
    for r in rounds:
        if r.expected_counts != rounds[0].expected_counts:
            errors.append("traced rounds did different amounts of work")
    for name, want in rounds[0].expected_counts.items():
        if name in metrics and metrics[name]["value"] != want:
            errors.append(f"{name} = {metrics[name]['value']}, the workload fixes {want}")
    return errors


def write_trace_report(args, tracer, setup_trace, rounds, untraced_cpu, traced_cpu,
                       overhead) -> None:
    OUT_ROOT.mkdir(exist_ok=True)
    path = OUT_ROOT / f"trace-{args.workload}-seed{args.seed}.json"
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "traced_rounds": rounds,
        "untraced_round_cpu_s": untraced_cpu,
        "traced_round_cpu_s": traced_cpu,
        "tracing_overhead": overhead,
        "machine": machine_record(),
        "setup_spans": {k: v for k, v in setup_trace.items() if v["calls"]},
        "round_spans": {k: v for k, v in tracer.summary().items() if v["calls"]},
    }
    path.write_text(json.dumps(report, indent=1))
    print(f"bench: span summary written to {path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
