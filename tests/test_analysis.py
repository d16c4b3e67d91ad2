"""Diversity metrics, Pareto frontier, utility, and the error taxonomy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcfg.analysis import (
    CATEGORY_SUBTYPES,
    ErrorLabel,
    ParetoPoint,
    categorize_error,
    cost_per_episode,
    diversity_report,
    gini,
    pareto_frontier,
    safe_eval_arithmetic,
    utility,
    workflow_entropy,
)
from agentcfg.core import (
    EpisodeRecord,
    ExecutionOutcome,
    StateEmbedding,
    StructureAction,
)
from agentcfg.errors import ContractError


class TestWorkflowEntropy:
    def test_uniform_nine(self):
        assert workflow_entropy(np.ones(9)) == pytest.approx(math.log(9), abs=1e-12)

    def test_one_hot_zero(self):
        assert workflow_entropy([7, 0, 0, 0, 0, 0, 0, 0, 0]) == 0.0

    def test_hand_example(self):
        counts = [2, 1, 1, 0, 0, 0, 0, 0, 0]
        expected = -(0.5 * math.log(0.5) + 2 * 0.25 * math.log(0.25))
        assert workflow_entropy(counts) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1.0397, abs=1e-4)

    def test_all_zero_rejected(self):
        with pytest.raises(ContractError):
            workflow_entropy(np.zeros(9))
        with pytest.raises(ContractError):
            workflow_entropy([-1, 2])


class TestGini:
    def test_uniform_zero(self):
        assert gini(np.ones(9)) == pytest.approx(0.0)

    def test_one_hot(self):
        assert gini([5, 0, 0, 0, 0, 0, 0, 0, 0]) == pytest.approx(8 / 9)

    def test_pads_short_counts(self):
        # counts for fewer than 9 workflows imply zero usage for the rest
        assert gini([5]) == pytest.approx(8 / 9)

    def test_scale_invariance(self):
        counts = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0])
        assert gini(counts) == pytest.approx(gini(counts * 17.0), abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 20, size=9).astype(float)
        counts[0] = 1.0
        for _ in range(5):
            assert gini(rng.permutation(counts)) == pytest.approx(gini(counts))

    def test_all_zero_rejected(self):
        with pytest.raises(ContractError):
            gini(np.zeros(9))


class TestDiversityReport:
    def test_fields(self):
        report = diversity_report([4, 4, 0, 0, 0, 0, 0, 0, 0])
        assert report.unique_workflows == 2
        assert report.entropy_nats == pytest.approx(math.log(2))
        assert 0.0 <= report.gini < 1.0


class TestParetoFrontier:
    def test_three_point_example(self):
        pts = [
            ParetoPoint(1.0, 0.5, "a"),
            ParetoPoint(2.0, 0.6, "b"),
            ParetoPoint(3.0, 0.55, "c"),  # dominated by b
        ]
        frontier = pareto_frontier(pts)
        assert [p.label for p in frontier] == ["a", "b"]

    def test_single_point(self):
        p = ParetoPoint(1.0, 0.9, "only")
        assert pareto_frontier([p]) == [p]

    def test_duplicates_keep_first_label(self):
        pts = [ParetoPoint(1.0, 0.5, "z"), ParetoPoint(1.0, 0.5, "a")]
        frontier = pareto_frontier(pts)
        assert len(frontier) == 1
        assert frontier[0].label == "a"

    def test_validation(self):
        with pytest.raises(ContractError):
            ParetoPoint(-1.0, 0.5, "bad")
        with pytest.raises(ContractError):
            ParetoPoint(1.0, 1.5, "bad")

    @given(
        st.lists(
            st.tuples(st.floats(0, 10), st.floats(0, 1)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_self_consistency(self, raw):
        pts = [ParetoPoint(c, a, f"p{i}") for i, (c, a) in enumerate(raw)]
        frontier = pareto_frontier(pts)
        assert frontier
        # sorted by cost, no frontier point dominates another
        costs = [p.cost for p in frontier]
        assert costs == sorted(costs)
        for p in frontier:
            for q in pts:
                assert not (
                    q.cost <= p.cost and q.accuracy >= p.accuracy
                    and (q.cost < p.cost or q.accuracy > p.accuracy)
                )
        # accuracy strictly increases along increasing cost
        for a, b in zip(frontier, frontier[1:]):
            if b.cost > a.cost:
                assert b.accuracy > a.accuracy


class TestUtilityAndCost:
    def test_utility(self):
        assert utility(0.8, 2.0, 0.1) == pytest.approx(0.6)
        assert utility(0.8, 2.0, 0.0) == pytest.approx(0.8)
        with pytest.raises(ContractError):
            utility(0.8, 2.0, -0.1)

    def test_cost(self):
        assert cost_per_episode(1200, 1.0) == pytest.approx(1.2)
        assert cost_per_episode(0, 5.0) == 0.0
        for price in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ContractError, match="price must be finite and >= 0"):
                cost_per_episode(100, price)


class TestSafeEvalArithmetic:
    def test_basics(self):
        assert safe_eval_arithmetic("2 + 3 * 4") == pytest.approx(14.0)
        assert safe_eval_arithmetic("(5 - 2) / 3") == pytest.approx(1.0)
        assert safe_eval_arithmetic("-4 + 1") == pytest.approx(-3.0)

    def test_unicode_and_x_multiplication(self):
        assert safe_eval_arithmetic("½ x 5 x 12") == pytest.approx(30.0)
        assert safe_eval_arithmetic("6 × 7") == pytest.approx(42.0)
        assert safe_eval_arithmetic("10 ÷ 4") == pytest.approx(2.5)
        assert safe_eval_arithmetic("9 − 4") == pytest.approx(5.0)

    def test_rejects_non_arithmetic(self):
        assert safe_eval_arithmetic("__import__('os')") is None
        assert safe_eval_arithmetic("2 ** 10") is None
        assert safe_eval_arithmetic("banana") is None
        assert safe_eval_arithmetic("") is None
        assert safe_eval_arithmetic("1 / 0") is None


def make_failed_record(answer, workflow=1, tools1=0, tools2=0,
                       budgets=(1, 1, 0), n_tools_used=0):
    a = StructureAction(workflow, tools1, tools2, budgets)
    prompts = tuple(() for _ in range(a.workflow.agents_active))
    return EpisodeRecord(
        state=StateEmbedding(np.zeros(4), np.zeros(5)),
        structure_action=a,
        prompt_actions=prompts,
        outcome=ExecutionOutcome(answer, False, 2, 400, n_tools_used, 1),
        reward=0.0,
        reward_breakdown=(0.0, 0.0, 0.0, 0.0),
        seed=0,
    )


class TestErrorTaxonomy:
    def test_label_consistency_enforced(self):
        ErrorLabel("Reasoning", "wrong_operation")
        with pytest.raises(ContractError):
            ErrorLabel("Reasoning", "arithmetic_error")
        with pytest.raises(ContractError):
            ErrorLabel("Nonsense", "none")
        for category, subtypes in CATEGORY_SUBTYPES.items():
            for subtype in subtypes:
                ErrorLabel(category, subtype)

    def test_case_wrong_operation(self):
        record = make_failed_record("John has 5 + 2 = 7 apples.")
        label = categorize_error(
            record,
            "John has 5 apples. He gives 2 to Mary. How many does John have left?",
            "3",
        )
        assert label == ErrorLabel("Reasoning", "wrong_operation")

    def test_case_retrieval_failure(self):
        record = make_failed_record(
            "I could not find the director of that film.",
            tools1=0b0010,  # web_search allocated
        )
        label = categorize_error(record, "Who directed the 2014 film?", "John Doe")
        assert label == ErrorLabel("KnowledgeGap", "retrieval_failure")

    def test_case_arithmetic_error(self):
        record = make_failed_record(
            "The total is ½ x 5 x 12 = 25 dollars.",
            tools1=0b0001,  # calculator allocated
        )
        label = categorize_error(
            record, "Calculate the total cost of 5 boxes at 12 dollars each, half off.",
            "30",
        )
        assert label == ErrorLabel("Execution", "arithmetic_error")

    def test_case_workflow_mismatch(self):
        record = make_failed_record("x = 8", workflow=0, budgets=(0, 0, 0))
        label = categorize_error(
            record, "Find x such that log_2(x) + log_2(x - 7) = 3.", "8"
        )
        assert label == ErrorLabel("PolicyConfiguration", "workflow_mismatch")

    def test_answer_extraction(self):
        # gold number appears in the prediction but a later number is final
        record = make_failed_record("The answer is 12, so I'll say 13.")
        label = categorize_error(record, "Describe the result.", "12")
        assert label == ErrorLabel("Execution", "answer_extraction_error")

    def test_unclassified_fallback(self):
        record = make_failed_record("something unrelated")
        label = categorize_error(record, "Describe the weather.", "sunny")
        assert label == ErrorLabel("Unclassified", "none")

    def test_correct_episode_rejected(self):
        record = make_failed_record("right answer")
        object.__setattr__(record.outcome, "correct", True)
        with pytest.raises(ContractError):
            categorize_error(record, "anything", "right answer")
