"""Correctness checks the benchmark runs on each workload's own outputs.

Each check either recomputes a result apart from the program (the reward
formula, the validity rules, entropy, dominance) or tests a property the
method must have (greedy never beats the exact optimum, Monte-Carlo means
agree with closed-form expectations, analytic gradients agree with finite
differences). None compares against a stored copy of earlier output.

Per-operation checks return the number of operations that failed; the others
return an error message, or None when the check passes.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence

import numpy as np

from agentcfg import core

# ---------------------------------------------------------------------------
# Reward
# ---------------------------------------------------------------------------


def reward_from_outcome(outcome, cfg) -> float:
    """The shaped reward written out from its definition: success weight,
    per-step and normalized-token penalties, and the asymmetric tool term
    (bonus per invocation plus a correct-with-tools bonus; otherwise a
    penalty per allocated-but-unused tool)."""
    if outcome.n_tools_used > 0:
        tool = cfg.delta1 * outcome.n_tools_used + cfg.delta2 * float(outcome.correct)
    elif outcome.n_tools_allocated > 0:
        tool = -cfg.delta3 * outcome.n_tools_allocated
    else:
        tool = 0.0
    return (cfg.alpha * float(outcome.correct)
            - cfg.beta_s * outcome.n_steps
            - cfg.beta_t * outcome.n_tokens / cfg.t_max
            + cfg.eta * tool)


def reward_ok(record, cfg) -> bool:
    return (abs(record.reward - reward_from_outcome(record.outcome, cfg)) <= 1e-9
            and abs(sum(record.reward_breakdown) - record.reward) <= 1e-9)


# ---------------------------------------------------------------------------
# Validity rules, rebuilt from the WORKFLOWS registry
# ---------------------------------------------------------------------------

_TIERS = {"Low": 0, "Mid": 1, "High": 2}


class Rules:
    """Allowed choices per workflow: the registry's default rules (agent-2
    tools only where the topology has a second tool-bearing agent, inactive
    agents' budgets fixed to Low), overridden by an optional rules mapping
    in the run-config format."""

    def __init__(self, overrides: Optional[dict] = None):
        overrides = overrides or {}
        allowed = overrides.get("workflows")
        self.workflows = {
            wf.id for wf in core.WORKFLOWS if allowed is None or wf.name in allowed
        }
        self.choices = {}
        for wf in core.WORKFLOWS:
            tools2 = set(range(16)) if wf.agent2_tools_allowed else {0}
            budgets = [set(range(3)) if slot < wf.agents_active else {0}
                       for slot in range(3)]
            spec = overrides.get(wf.name, {})
            tools1 = set(spec.get("tools1", range(16)))
            if "tools2" in spec:
                tools2 = set(spec["tools2"])
            if "budgets" in spec:
                budgets = [{_TIERS.get(t, t) for t in slot} for slot in spec["budgets"]]
            self.choices[wf.id] = (tools1, tools2, *budgets)

    def structure_ok(self, a) -> bool:
        if a.workflow_id not in self.workflows:
            return False
        picks = (a.tools1, a.tools2, *a.budgets)
        return all(p in allowed for p, allowed in zip(picks, self.choices[a.workflow_id]))

    def config_ok(self, structure, prompts, library) -> bool:
        wf = core.WORKFLOWS[structure.workflow_id]
        if not self.structure_ok(structure) or len(prompts) != wf.agents_active:
            return False
        for agent, seq in enumerate(prompts):
            if len(seq) > core.MAX_PROMPT_LEN or len(set(seq)) != len(seq):
                return False
            if any(not 0 <= a < len(library) or library[a].role != core.ROLES[agent]
                   for a in seq):
                return False
        return True


def bad_records(records, reward_cfg, rules: Rules, library) -> int:
    """Episodes whose reward is wrong or whose configuration breaks the rules."""
    return sum(
        not (reward_ok(r, reward_cfg)
             and rules.config_ok(r.structure_action, r.prompt_actions, library))
        for r in records
    )


def single_atom_prompt_options(n_agents: int, library) -> list[tuple]:
    """Per agent, no atom or one role-matching atom. Relevance is a fraction
    of the chosen atoms and atoms cost nothing, so some exact optimum over
    all prompt sequences lies in this set."""
    per_agent = [
        [()] + [(a.id,) for a in library if a.role == core.ROLES[agent]]
        for agent in range(n_agents)
    ]
    return [tuple(c) for c in itertools.product(*per_agent)]


# ---------------------------------------------------------------------------
# Oracle, Monte Carlo, harness
# ---------------------------------------------------------------------------


def greedy_above_oracle(greedy_values, oracle_values) -> int:
    return sum(g > o + 1e-12 for g, o in zip(greedy_values, oracle_values))


def monte_carlo_gap(env, query, config, value, reward_cfg, n, seed) -> Optional[str]:
    """Mean of execute + shaped_reward over n seeds against the closed-form
    expectation, within five standard errors. The added 7 * range / n covers
    a success probability so close to 0 or 1 that every draw came out the
    same (all n draws agree with probability under 1e-3 once the rarer
    outcome has probability above 7 / n)."""
    from agentcfg.reward import shaped_reward

    seeds = np.random.SeedSequence([seed, 17]).generate_state(n)
    draws = np.array([
        shaped_reward(env.execute(query, config, int(s)), reward_cfg)[0] for s in seeds
    ])
    span = reward_cfg.alpha + reward_cfg.eta * reward_cfg.delta2 + 3 * reward_cfg.beta_s
    tol = 5.0 * draws.std(ddof=1) / math.sqrt(n) + 7.0 * span / n
    if abs(draws.mean() - value) > tol:
        return (f"query {query.id}: Monte-Carlo mean {draws.mean():.4f} vs expected "
                f"{value:.4f} (tolerance {tol:.4f})")
    return None


def harness_gap(env, config, reward_cfg, sampled_value, exact_value, episodes,
                seed) -> Optional[str]:
    """The sampled harness score of one configuration against its exact
    score, within five standard errors; the per-episode spread is estimated
    from an independent sample of the same configuration on every query."""
    from agentcfg.reward import shaped_reward

    draws = max(episodes, 50)
    variances = []
    for qi, query in enumerate(env.queries):
        seeds = np.random.SeedSequence([seed, 23, qi]).generate_state(draws)
        variances.append(np.var([
            shaped_reward(env.execute(query, config, int(s)), reward_cfg)[0] for s in seeds
        ], ddof=1))
    # Variance of the harness mean: within-query variance only, because the
    # harness visits every query the same number of times.
    n = len(env.queries) * episodes
    se = math.sqrt(float(np.mean(variances)) / n)
    span = reward_cfg.alpha + reward_cfg.eta * reward_cfg.delta2 + 3 * reward_cfg.beta_s
    tol = 5.0 * se + 7.0 * span / n
    if abs(sampled_value - exact_value) > tol:
        return (f"sampled harness {sampled_value:.4f} vs exact {exact_value:.4f} "
                f"(tolerance {tol:.4f})")
    return None


# ---------------------------------------------------------------------------
# Persistence and analysis
# ---------------------------------------------------------------------------


def _same_record(a, b) -> bool:
    return (
        np.array_equal(a.state.semantic, b.state.semantic)
        and np.array_equal(a.state.features, b.state.features)
        and a.structure_action == b.structure_action
        and a.prompt_actions == b.prompt_actions
        and a.outcome == b.outcome
        and a.reward == b.reward
        and a.reward_breakdown == b.reward_breakdown
        and a.seed == b.seed
    )


def reload_mismatches(original, loaded) -> int:
    """Records that did not reload field for field (a missing or extra
    record counts once per position)."""
    n = max(len(original), len(loaded))
    same = sum(_same_record(a, b) for a, b in zip(original, loaded))
    return n - same


def diversity_error(records, report) -> Optional[str]:
    counts = np.zeros(len(core.WORKFLOWS))
    for r in records:
        counts[r.structure_action.workflow_id] += 1
    p = counts[counts > 0] / counts.sum()
    entropy = float(-(p * np.log(p)).sum())
    if abs(entropy - report.entropy_nats) > 1e-12 or report.unique_workflows != len(p):
        return (f"diversity entropy {report.entropy_nats} / {report.unique_workflows} "
                f"workflows, recomputed {entropy} / {len(p)}")
    return None


def dominated_points(frontier, points) -> int:
    return sum(
        any(q.cost <= p.cost and q.accuracy >= p.accuracy
            and (q.cost < p.cost or q.accuracy > p.accuracy) for q in points)
        for p in frontier
    )


# ---------------------------------------------------------------------------
# Real-mode topology
# ---------------------------------------------------------------------------

# Calls each workflow makes under the scripted backend (see
# pipeline.ScriptedBackend): one call for Direct; one per agent for the
# chains; route, specialist and answer for Routing; three sections or three
# votes plus one joining call; a plan, two workers and a synthesis; a draft
# plus three critique-and-revise rounds for EvaluatorOptimizer; and two tool
# rounds plus a final answer for AutonomousAgent.
EXPECTED_REAL_CALLS = {0: 1, 1: 2, 2: 3, 3: 3, 4: 4, 5: 4, 6: 4, 7: 7, 8: 3}


def real_mismatch(workflow_id, outcome, usage) -> Optional[str]:
    expected = EXPECTED_REAL_CALLS[workflow_id]
    if outcome.n_steps != expected or len(usage) != expected:
        return (f"workflow {workflow_id}: {outcome.n_steps} steps, {len(usage)} "
                f"backend calls, expected {expected}")
    if outcome.n_tokens != sum(usage):
        return f"workflow {workflow_id}: {outcome.n_tokens} tokens, scripted {sum(usage)}"
    return None


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------


def max_fd_error(nets_and_grads, loss_fn, n_coords: int, seed: int,
                 h: float = 1e-5) -> float:
    """Largest relative gap between analytic and central-difference
    gradients over n_coords random coordinates of each net."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for net, grads in nets_and_grads:
        flat_g = np.concatenate([g.ravel() for g in grads])
        flat0 = net.get_flat()
        for i in rng.choice(net.n_params, size=min(n_coords, net.n_params), replace=False):
            flat = flat0.copy()
            flat[i] += h
            net.set_flat(flat)
            hi = loss_fn()
            flat[i] -= 2 * h
            net.set_flat(flat)
            lo = loss_fn()
            net.set_flat(flat0)
            fd = (hi - lo) / (2 * h)
            if abs(fd - flat_g[i]) < 1e-9:
                continue
            worst = max(worst, abs(fd - flat_g[i]) / max(abs(fd), abs(flat_g[i]), 1e-7))
    return worst


def same_buffers(a: Sequence, b: Sequence) -> bool:
    return len(a) == len(b) and all(_same_record(x, y) for x, y in zip(a, b))
