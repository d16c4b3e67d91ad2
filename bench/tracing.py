"""Span tracing of agentcfg's public functions, wrapped from outside the package.

Every traced function is replaced, in every module namespace that holds it,
by one wrapper that records a span (name, start, end, parent). A function
imported by name into several modules (``log_prob`` lives in ``numeric`` but
is looked up from ``policy``, ``train`` and ``baselines``) is therefore traced
wherever it is called, and counted once per call. Spans stay in memory, in
flat arrays, until the run ends; ``summary`` then derives calls, inclusive
time and self time (a span minus the spans directly inside it) per name.

Wrappers only record while ``Tracer.enabled`` is set, so the benchmark's own
correctness checks, which call the same functions, leave no spans.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

_clock = time.perf_counter

# (module, attribute path) of every traced callable. A dotted path names a
# method; the span is called "<module>.<path>".
TRACED = (
    ("numeric", "DenseNet.forward"),
    ("numeric", "DenseNet.backward"),
    ("numeric", "masked_softmax"),
    ("numeric", "log_prob"),
    ("numeric", "sample"),
    ("numeric", "entropy"),
    ("numeric", "log_prob_grad_logits"),
    ("numeric", "entropy_grad_logits"),
    ("numeric", "adam_step"),
    ("numeric", "clip_grad_norm"),
    ("policy", "sample_structure"),
    ("policy", "sample_prompts"),
    ("policy", "greedy_configuration"),
    ("policy", "log_prob_structure"),
    ("policy", "log_prob_prompts"),
    ("env", "SyntheticEnv.embed"),
    ("env", "SyntheticEnv.execute"),
    ("env", "expected_reward"),
    ("env", "brute_force_best"),
    ("reward", "shaped_reward"),
    ("train", "collect_rollouts"),
    ("train", "collect_episodes"),
    ("train", "compute_advantages"),
    ("train", "train_policies"),
    ("train", "ppo_update"),
    ("train", "ppo_loss_and_grads"),
    ("train", "filter_elite"),
    ("train", "sft_update"),
    ("train", "sft_loss_and_grads"),
    ("train", "_dpo_pairs"),
    ("train", "dpo_update"),
    ("train", "dpo_loss_and_grads"),
    ("train", "kl_to_empirical"),
    ("train", "verify_support_restriction"),
    ("train", "verify_reward_floor"),
    ("core", "StateEmbedding.key"),
    ("core", "EpisodeRecord.to_json_dict"),
    ("core", "EpisodeRecord.from_json_dict"),
    ("baselines", "Harness.evaluate"),
    ("baselines", "grid_search"),
    ("baselines", "greedy_search"),
    ("baselines", "bandit_policy_train"),
    ("baselines", "flat_episode_policy_train"),
    ("baselines", "BanditPolicy.act"),
    ("baselines", "FlatEpisodePolicy.act"),
    ("analysis", "diversity_report"),
    ("analysis", "pareto_frontier"),
    ("analysis", "categorize_error"),
    ("runtime", "build_components"),
    ("runtime", "run_training"),
    ("runtime", "save_artifacts"),
    ("runtime", "persist_buffer"),
    ("runtime", "load_buffer"),
    ("runtime", "execute_real"),
    ("runtime", "chat_call"),
)

MODULES = ("core", "numeric", "policy", "reward", "env", "train", "baselines",
           "analysis", "runtime", "cli")


def _forward_rows(args, kwargs, result):
    x = np.asarray(args[1] if len(args) > 1 else kwargs["x"])
    return {"numeric.forward_rows": 1 if x.ndim == 1 else x.shape[0]}


def _prompt_steps(args, kwargs, result):
    return {"policy.prompt_steps": len(result[1])}


def _elite(args, kwargs, result):
    return {"train.elite_size": len(result), "train.elite_actions": len(result.action_counts)}


def _pairs(args, kwargs, result):
    return {"train.dpo_pairs": len(result)}


def _support(args, kwargs, result):
    return {"train.support_violations": len(result[1])}


def _floor(args, kwargs, result):
    return {"train.floor_violations": result[2]}


def _persist_bytes(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"runtime.persist_bytes": os.path.getsize(path)}


# Counters read off a traced call's arguments or result.
COUNTERS = {
    "numeric.DenseNet.forward": _forward_rows,
    "policy.sample_prompts": _prompt_steps,
    "train.filter_elite": _elite,
    "train._dpo_pairs": _pairs,
    "train.verify_support_restriction": _support,
    "train.verify_reward_floor": _floor,
    "runtime.persist_buffer": _persist_bytes,
}


class Tracer:
    """Wraps agentcfg functions in place and records one span per call."""

    def __init__(self):
        self.enabled = False
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrapper(self, name: str, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        count = COUNTERS.get(name)
        spans_name, spans_parent = self.span_name, self.span_parent
        spans_start, spans_end, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans_name)
            spans_name.append(name_id)
            spans_parent.append(stack[-1] if stack else -1)
            spans_end.append(0.0)
            stack.append(idx)
            spans_start.append(_clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                spans_end[idx] = _clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        """Replace every traced callable wherever an agentcfg module holds it."""
        modules = {m: sys.modules[f"agentcfg.{m}"] for m in MODULES
                   if f"agentcfg.{m}" in sys.modules}
        wrappers = {}
        for mod_name, path in TRACED:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            name = f"{mod_name}.{path}"
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(name, raw.__func__))
            else:
                wrapped = self._wrapper(name, raw)
                wrappers[id(raw)] = (raw, wrapped)
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        # Rebind names imported from the defining module into the others.
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def reset(self) -> None:
        """Drop every span and counter recorded so far."""
        for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
            del arr[:]
        self.counters.clear()

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._restore):
            setattr(owner, attr, raw)
        self._restore.clear()

    # -- reporting -------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds (each
        span minus the spans directly inside it)."""
        n = len(self.span_name)
        names = self.names_by_id()
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in names}
        if n == 0:
            return out
        name_ids = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end, dtype=np.float64) - np.frombuffer(
            self.span_start, dtype=np.float64)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=n)
        k = len(names)
        calls = np.bincount(name_ids, minlength=k)
        total = np.bincount(name_ids, weights=dur, minlength=k)
        self_s = np.bincount(name_ids, weights=dur - child, minlength=k)
        for i, name in enumerate(names):
            out[name] = {"calls": int(calls[i]), "total_s": float(total[i]),
                         "self_s": float(self_s[i])}
        return out

    def child_calls(self, parent_name: str, child_name: str) -> int:
        """Spans of child_name directly inside a span of parent_name."""
        ids = self._name_ids
        if not len(self.span_name):
            return 0
        name_ids = np.frombuffer(self.span_name, dtype=np.int32)
        parents = np.frombuffer(self.span_parent, dtype=np.int32)
        is_child = name_ids == ids[child_name]
        p = parents[is_child]
        p = p[p >= 0]
        return int(np.sum(name_ids[p] == ids[parent_name]))

    def names_by_id(self) -> list[str]:
        return sorted(self._name_ids, key=self._name_ids.get)


# ---------------------------------------------------------------------------
# Per-layer metrics: name -> (unit, how it is read from the trace)
# ---------------------------------------------------------------------------


def _calls(span):
    return lambda s, t: s[span]["calls"]


def _total(*spans):
    return lambda s, t: sum(s[x]["total_s"] for x in spans)


def _counter(key):
    return lambda s, t: t.counters.get(key, 0)


def _ratio(key, span):
    return lambda s, t: t.counters.get(key, 0) / max(s[span]["calls"], 1)


PER_LAYER = {
    "numeric.forward_calls": ("count", _calls("numeric.DenseNet.forward")),
    "numeric.forward_s": ("s", _total("numeric.DenseNet.forward")),
    "numeric.forward_rows_per_call": (
        "rows/call", _ratio("numeric.forward_rows", "numeric.DenseNet.forward")),
    "numeric.backward_calls": ("count", _calls("numeric.DenseNet.backward")),
    "numeric.backward_s": ("s", _total("numeric.DenseNet.backward")),
    "numeric.masked_softmax_calls": ("count", _calls("numeric.masked_softmax")),
    "numeric.masked_softmax_s": ("s", _total("numeric.masked_softmax")),
    "numeric.sample_calls": ("count", _calls("numeric.sample")),
    "numeric.sample_s": ("s", _total("numeric.sample")),
    "numeric.adam_step_s": ("s", _total("numeric.adam_step")),
    "numeric.clip_grad_norm_s": ("s", _total("numeric.clip_grad_norm")),
    "policy.sample_structure_calls": ("count", _calls("policy.sample_structure")),
    "policy.sample_structure_s": ("s", _total("policy.sample_structure")),
    "policy.sample_prompts_s": ("s", _total("policy.sample_prompts")),
    "policy.prompt_steps_per_episode": (
        "steps/episode", _ratio("policy.prompt_steps", "policy.sample_prompts")),
    "policy.greedy_configuration_s": ("s", _total("policy.greedy_configuration")),
    "policy.log_prob_structure_s": ("s", _total("policy.log_prob_structure")),
    "policy.log_prob_prompts_s": ("s", _total("policy.log_prob_prompts")),
    "env.embed_calls": ("count", _calls("env.SyntheticEnv.embed")),
    "env.embed_s": ("s", _total("env.SyntheticEnv.embed")),
    "env.execute_calls": ("count", _calls("env.SyntheticEnv.execute")),
    "env.execute_s": ("s", _total("env.SyntheticEnv.execute")),
    "env.expected_reward_calls": ("count", _calls("env.expected_reward")),
    "env.expected_reward_s": ("s", _total("env.expected_reward")),
    "env.brute_force_best_s": ("s", _total("env.brute_force_best")),
    "env.oracle_configs_scanned": (
        "count", lambda s, t: t.child_calls("env.brute_force_best", "env.expected_reward")),
    "reward.shaped_reward_s": ("s", _total("reward.shaped_reward")),
    "train.collect_s": ("s", _total("train.collect_rollouts")),
    "train.advantages_s": ("s", _total("train.compute_advantages")),
    "train.ppo_update_s": ("s", _total("train.ppo_update")),
    "train.ppo_loss_and_grads_calls": ("count", _calls("train.ppo_loss_and_grads")),
    "train.filter_elite_s": ("s", _total("train.filter_elite")),
    "train.elite_size": ("count", _counter("train.elite_size")),
    "train.elite_actions": ("count", _counter("train.elite_actions")),
    "train.sft_update_s": ("s", _total("train.sft_update")),
    "train.dpo_update_s": ("s", _total("train.dpo_update")),
    "train.dpo_pairs": ("count", _counter("train.dpo_pairs")),
    "train.kl_to_empirical_s": ("s", _total("train.kl_to_empirical")),
    "train.verify_support_s": ("s", _total("train.verify_support_restriction")),
    "train.verify_floor_s": ("s", _total("train.verify_reward_floor")),
    "train.support_violations": ("count", _counter("train.support_violations")),
    "train.floor_violations": ("count", _counter("train.floor_violations")),
    "core.state_key_calls": ("count", _calls("core.StateEmbedding.key")),
    "core.to_json_s": ("s", _total("core.EpisodeRecord.to_json_dict")),
    "core.from_json_s": ("s", _total("core.EpisodeRecord.from_json_dict")),
    "baselines.harness_evaluations": ("count", _calls("baselines.Harness.evaluate")),
    "baselines.harness_evaluate_s": ("s", _total("baselines.Harness.evaluate")),
    "baselines.flat_train_s": (
        "s", _total("baselines.bandit_policy_train", "baselines.flat_episode_policy_train")),
    "baselines.flat_act_s": (
        "s", _total("baselines.BanditPolicy.act", "baselines.FlatEpisodePolicy.act")),
    "analysis.diversity_s": ("s", _total("analysis.diversity_report")),
    "analysis.pareto_s": ("s", _total("analysis.pareto_frontier")),
    "analysis.categorize_error_calls": ("count", _calls("analysis.categorize_error")),
    "analysis.categorize_error_s": ("s", _total("analysis.categorize_error")),
    "runtime.build_components_s": ("s", _total("runtime.build_components")),
    "runtime.persist_buffer_s": ("s", _total("runtime.persist_buffer")),
    "runtime.persist_bytes": ("bytes", _counter("runtime.persist_bytes")),
    "runtime.load_buffer_s": ("s", _total("runtime.load_buffer")),
    "runtime.save_artifacts_s": ("s", _total("runtime.save_artifacts")),
    "runtime.execute_real_calls": ("count", _calls("runtime.execute_real")),
    "runtime.execute_real_s": ("s", _total("runtime.execute_real")),
    "runtime.backend_calls": ("count", _calls("runtime.chat_call")),
}

# Ratios are already per call; everything else is divided by the number of
# traced rounds so one figure describes one round of the workload.
_PER_CALL_UNITS = ("rows/call", "steps/episode")


# Read from the set-up's spans (once per run) rather than the rounds'.
_SETUP_METRICS = ("runtime.build_components_s",)


def per_layer_metrics(tracer: Tracer, rounds: int, setup: dict) -> dict[str, dict]:
    s = tracer.summary()
    out = {}
    for name, (unit, read) in PER_LAYER.items():
        if name in _SETUP_METRICS:
            value = float(read(setup, tracer))
        else:
            value = float(read(s, tracer))
            if unit not in _PER_CALL_UNITS:
                value /= rounds
        out[name] = {"value": value, "unit": unit}
    return out
