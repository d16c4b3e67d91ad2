"""Post-hoc analysis: workflow-diversity metrics, accuracy-cost Pareto
frontier, scalar utility reporting, and a rule-based taxonomy of incorrect
episodes.

Error heuristics are keyword-driven; the keyword lists live here as plain
configuration data so they can be audited and extended without code changes.
"""

from __future__ import annotations

import ast
import math
import re
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import N_WORKFLOWS, EpisodeRecord, toolset_members
from .errors import ContractError

# ---------------------------------------------------------------------------
# Diversity metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiversityReport:
    unique_workflows: int
    entropy_nats: float
    gini: float

    def __post_init__(self):
        if not 0 <= self.unique_workflows <= N_WORKFLOWS:
            raise ContractError("unique_workflows out of range")
        if self.entropy_nats < -1e-12 or not 0.0 <= self.gini < 1.0:
            raise ContractError("diversity metrics out of range")


def workflow_entropy(counts: Sequence[float]) -> float:
    """Shannon entropy (nats) of the normalized workflow usage distribution;
    0 * log 0 = 0."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts < 0):
        raise ContractError("counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ContractError("workflow_entropy needs at least one observation")
    p = counts / total
    nz = p > 0
    return float(-np.sum(p[nz] * np.log(p[nz])))


def gini(counts: Sequence[float], k: int = N_WORKFLOWS) -> float:
    """Mean-absolute-difference Gini over all k workflow slots, zero-usage
    workflows included: sum_ij |x_i - x_j| / (2 k sum x)."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.shape[0] < k:
        counts = np.concatenate([counts, np.zeros(k - counts.shape[0])])
    if np.any(counts < 0):
        raise ContractError("counts must be non-negative")
    total = counts.sum()
    if total <= 0:
        raise ContractError("gini needs at least one observation")
    diffs = np.abs(counts[:, None] - counts[None, :]).sum()
    return float(diffs / (2.0 * k * total))


def diversity_report(counts: Sequence[float]) -> DiversityReport:
    counts = np.asarray(counts, dtype=np.float64)
    return DiversityReport(
        unique_workflows=int(np.sum(counts > 0)),
        entropy_nats=workflow_entropy(counts),
        gini=gini(counts),
    )


# ---------------------------------------------------------------------------
# Pareto frontier and utility
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParetoPoint:
    cost: float
    accuracy: float
    label: str

    def __post_init__(self):
        if not (math.isfinite(self.cost) and math.isfinite(self.accuracy)):
            raise ContractError("pareto point must be finite")
        if self.cost < 0 or not 0.0 <= self.accuracy <= 1.0:
            raise ContractError("cost >= 0 and accuracy in [0,1] required")


def pareto_frontier(points: Sequence[ParetoPoint]) -> list[ParetoPoint]:
    """Non-dominated subset under (cost down, accuracy up), sorted by cost
    ascending; exact duplicates keep the lexicographically-first label."""
    kept = []
    for p in points:
        dominated = any(
            q.cost <= p.cost
            and q.accuracy >= p.accuracy
            and (q.cost < p.cost or q.accuracy > p.accuracy)
            for q in points
        )
        if not dominated:
            kept.append(p)
    dedup: dict = {}
    for p in kept:
        key = (p.cost, p.accuracy)
        if key not in dedup or p.label < dedup[key].label:
            dedup[key] = p
    return sorted(dedup.values(), key=lambda p: (p.cost, p.accuracy, p.label))


def utility(correct_rate: float, cost: float, lam: float) -> float:
    """Accuracy-efficiency trade-off: correct_rate - lam * cost (the caller
    pre-normalizes cost)."""
    if lam < 0:
        raise ContractError("lambda must be >= 0")
    return correct_rate - lam * cost


def cost_per_episode(n_tokens: int, price_per_1k_tokens: float) -> float:
    if not (math.isfinite(price_per_1k_tokens) and price_per_1k_tokens >= 0):
        raise ContractError(f"price must be finite and >= 0, got {price_per_1k_tokens!r}")
    return n_tokens / 1000.0 * price_per_1k_tokens


# ---------------------------------------------------------------------------
# Error taxonomy
# ---------------------------------------------------------------------------

CATEGORY_SUBTYPES = {
    "PolicyConfiguration": ("workflow_mismatch", "tool_mismatch", "budget_underallocation"),
    "Reasoning": ("wrong_operation", "missing_steps", "comprehension_failure"),
    "KnowledgeGap": ("retrieval_failure", "factual_error"),
    "Execution": ("arithmetic_error", "answer_extraction_error"),
    "Unclassified": ("none",),
}


@dataclass(frozen=True)
class ErrorLabel:
    category: str
    subtype: str

    def __post_init__(self):
        if self.category not in CATEGORY_SUBTYPES:
            raise ContractError(f"unknown error category: {self.category}")
        if self.subtype not in CATEGORY_SUBTYPES[self.category]:
            raise ContractError(
                f"subtype {self.subtype} inconsistent with category {self.category}"
            )


# Keyword configuration (editable data, not logic).
ERROR_KEYWORDS = {
    # queries whose structure exceeds a single direct call
    "multi_step_query": ("such that", "step-by-step", "solve for", "prove", "step by step"),
    "complex_query": ("explain", "step-by-step"),
    "arithmetic_query": ("calculate", "sum", "total"),
    "fact_query": ("who", "when", "where", "which year", "directed"),
    "addition": ("plus", "add", "+"),
    "subtraction": ("minus", "subtract", "subtracting", "remaining", "left", "gives", "gave"),
    "constraints": ("remaining", "left", "after"),
    "not_found": (
        "could not find", "cannot find", "no information available", "cannot determine",
    ),
}

RETRIEVAL_TOOLS = ("web_search", "python_exec", "lookup")
_NUMBER_RE = re.compile(r"-?\d+(?:\.\d+)?")
_EQUATION_RE = re.compile(r"([-\d\s\.\+\*/x×÷\(\)½]+?)=\s*(-?\d+(?:\.\d+)?)")


def safe_eval_arithmetic(expr: str) -> Optional[float]:
    """Evaluate a plain arithmetic expression (+ - * / and parentheses) via
    the AST; returns None instead of raising on anything else."""
    normalized = (
        expr.replace("×", "*").replace("÷", "/").replace("½", "(1/2)")
        .replace("−", "-")
    )
    normalized = re.sub(r"(?<=[\d\s\)])x(?=[\d\s\(])", "*", normalized).strip()
    if not normalized:
        return None
    try:
        tree = ast.parse(normalized, mode="eval")
    except SyntaxError:
        return None

    allowed_ops = (ast.Add, ast.Sub, ast.Mult, ast.Div)

    def ev(node):
        if isinstance(node, ast.Expression):
            return ev(node.body)
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return float(node.value)
        if isinstance(node, ast.BinOp) and isinstance(node.op, allowed_ops):
            left, right = ev(node.left), ev(node.right)
            if isinstance(node.op, ast.Add):
                return left + right
            if isinstance(node.op, ast.Sub):
                return left - right
            if isinstance(node.op, ast.Mult):
                return left * right
            if right == 0:
                raise ZeroDivisionError
            return left / right
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand)
            return -v if isinstance(node.op, ast.USub) else v
        raise ValueError(f"disallowed expression node: {node!r}")

    try:
        return float(ev(tree))
    except (ValueError, ZeroDivisionError, OverflowError):
        return None


def _contains_any(text: str, keywords: Sequence[str]) -> bool:
    lowered = text.lower()
    return any(k in lowered for k in keywords)


def _numbers(text: str) -> list[str]:
    return _NUMBER_RE.findall(text)


def _inconsistent_equation(prediction: str) -> bool:
    """True if the prediction states `expression = value` whose left side
    evaluates to a different number."""
    for match in _EQUATION_RE.finditer(prediction):
        expr, stated = match.group(1), match.group(2)
        value = safe_eval_arithmetic(expr)
        if value is not None and abs(value - float(stated)) > 1e-9:
            return True
    return False


def _policy_configuration(record, query_text: str) -> Optional[ErrorLabel]:
    a = record.structure_action
    words = query_text.split()
    multi_step = (
        len(words) > 100
        or query_text.count("?") >= 2
        or _contains_any(query_text, ERROR_KEYWORDS["multi_step_query"])
    )
    if a.workflow.name == "Direct" and multi_step:
        return ErrorLabel("PolicyConfiguration", "workflow_mismatch")
    allocated = set(toolset_members(a.tools1 | a.tools2))
    if _contains_any(query_text, ERROR_KEYWORDS["arithmetic_query"]) and "calculator" not in allocated:
        return ErrorLabel("PolicyConfiguration", "tool_mismatch")
    if _contains_any(query_text, ERROR_KEYWORDS["fact_query"]) and not (
        allocated & set(RETRIEVAL_TOOLS)
    ):
        return ErrorLabel("PolicyConfiguration", "tool_mismatch")
    complex_query = len(words) > 50 or _contains_any(query_text, ERROR_KEYWORDS["complex_query"])
    if complex_query and all(b == 0 for b in a.budgets[: a.workflow.agents_active]):
        return ErrorLabel("PolicyConfiguration", "budget_underallocation")
    return None


def _answer_extraction(prediction: str, gold: str) -> Optional[ErrorLabel]:
    gold = gold.strip()
    if not gold:
        return None
    pred_numbers = _numbers(prediction)
    if gold in _numbers(prediction) or (not _numbers(gold) and gold.lower() in prediction.lower()):
        final = pred_numbers[-1] if pred_numbers else ""
        if final != gold:
            return ErrorLabel("Execution", "answer_extraction_error")
    return None


def _reasoning(prediction: str, gold: str, query_text: str) -> Optional[ErrorLabel]:
    uses_addition = _contains_any(prediction, ERROR_KEYWORDS["addition"])
    wants_subtraction = _contains_any(gold, ERROR_KEYWORDS["subtraction"]) or _contains_any(
        query_text, ERROR_KEYWORDS["subtraction"]
    )
    if uses_addition and wants_subtraction:
        return ErrorLabel("Reasoning", "wrong_operation")
    gold_steps = len(re.split(r"(?<=[.;])\s+|\n", gold.strip()))
    pred_is_single_value = bool(re.fullmatch(r"\s*-?\d+(?:\.\d+)?\s*\.?\s*", prediction))
    if gold_steps >= 3 and pred_is_single_value:
        return ErrorLabel("Reasoning", "missing_steps")
    constraints = [
        k for k in ERROR_KEYWORDS["constraints"] if k in query_text.lower()
    ]
    if constraints and not any(k in prediction.lower() for k in constraints):
        return ErrorLabel("Reasoning", "comprehension_failure")
    return None


def _arithmetic(prediction: str, gold: str) -> Optional[ErrorLabel]:
    calcs = re.findall(r"<<([^>]*)>>", gold) + re.findall(r"⟨⟨([^⟩]*)⟩⟩", gold)
    if calcs:
        gold_numbers = _numbers(gold)
        pred_numbers = _numbers(prediction)
        if gold_numbers and pred_numbers and pred_numbers[-1] != gold_numbers[-1]:
            return ErrorLabel("Execution", "arithmetic_error")
    if _inconsistent_equation(prediction):
        return ErrorLabel("Execution", "arithmetic_error")
    return None


def _knowledge_gap(record, prediction: str) -> Optional[ErrorLabel]:
    a = record.structure_action
    allocated = set(toolset_members(a.tools1 | a.tools2))
    has_retrieval = bool(allocated & set(RETRIEVAL_TOOLS))
    if not has_retrieval:
        return None
    if _contains_any(prediction, ERROR_KEYWORDS["not_found"]):
        return ErrorLabel("KnowledgeGap", "retrieval_failure")
    if record.outcome.n_tools_used > 0 and prediction.strip():
        return ErrorLabel("KnowledgeGap", "factual_error")
    return None


def categorize_error(
    record: EpisodeRecord, query_text: str, gold_answer: str
) -> ErrorLabel:
    """First-match classification of an incorrect episode in the priority
    order: policy configuration -> answer extraction -> reasoning ->
    arithmetic -> knowledge gap -> unclassified."""
    if record.outcome.correct:
        raise ContractError("categorize_error is defined only on incorrect episodes")
    prediction = record.outcome.answer_text
    return (
        _policy_configuration(record, query_text)
        or _answer_extraction(prediction, gold_answer)
        or _reasoning(prediction, gold_answer, query_text)
        or _arithmetic(prediction, gold_answer)
        or _knowledge_gap(record, prediction)
        or ErrorLabel("Unclassified", "none")
    )
