"""Shaped reward: worked examples, asymmetric tool shaping, monotonicity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcfg.core import ExecutionOutcome
from agentcfg.errors import ConfigError
from agentcfg.reward import RewardConfig, shaped_reward, tool_shaping

CFG = RewardConfig()


def make_outcome(correct, n_steps, n_tokens, n_used, n_alloc):
    return ExecutionOutcome(
        answer_text="x", correct=correct, n_steps=n_steps, n_tokens=n_tokens,
        n_tools_used=n_used, n_tools_allocated=n_alloc,
    )


class TestDefaults:
    def test_published_coefficients(self):
        assert (CFG.alpha, CFG.beta_s, CFG.beta_t) == (5.0, 0.02, 0.03)
        assert (CFG.delta1, CFG.delta2, CFG.delta3) == (0.1, 0.2, 0.3)
        assert CFG.eta == 1.0 and CFG.t_max == 4096

    def test_negative_coefficient_rejected(self):
        with pytest.raises(ConfigError, match="reward.alpha"):
            RewardConfig(alpha=-1.0)
        with pytest.raises(ConfigError, match="reward.delta3"):
            RewardConfig(delta3=float("nan"))
        with pytest.raises(ConfigError, match="reward.t_max"):
            RewardConfig(t_max=0)


class TestToolShaping:
    def test_used_branch(self):
        assert tool_shaping(2, 2, True, CFG) == pytest.approx(0.1 * 2 + 0.2)
        assert tool_shaping(2, 2, False, CFG) == pytest.approx(0.2)

    def test_unused_allocation_penalty(self):
        assert tool_shaping(0, 3, True, CFG) == pytest.approx(-0.9)

    def test_neutral_case(self):
        assert tool_shaping(0, 0, True, CFG) == 0.0
        assert tool_shaping(0, 0, False, CFG) == 0.0


class TestWorkedExamples:
    def test_example_full(self):
        r, terms = shaped_reward(make_outcome(True, 3, 1200, 2, 2), CFG)
        assert r == pytest.approx(5.3312109375, abs=1e-9)
        assert terms == pytest.approx((5.0, -0.06, -0.0087890625, 0.4), abs=1e-12)

    def test_example_all_zero(self):
        r, _ = shaped_reward(make_outcome(False, 0, 0, 0, 0), CFG)
        assert r == pytest.approx(0.0, abs=1e-9)

    def test_example_pure_success(self):
        r, _ = shaped_reward(make_outcome(True, 0, 0, 0, 0), CFG)
        assert r == pytest.approx(5.0, abs=1e-9)


class TestInvariants:
    def test_breakdown_sums_exactly(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            o = make_outcome(
                bool(rng.integers(2)), int(rng.integers(0, 8)),
                int(rng.integers(0, 20000)), int(rng.integers(0, 5)),
                int(rng.integers(0, 9)),
            )
            r, terms = shaped_reward(o, CFG)
            assert r == pytest.approx(sum(terms), abs=1e-12)

    def test_monotone_in_steps_and_tokens(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            correct = bool(rng.integers(2))
            used = int(rng.integers(0, 5))
            alloc = used + int(rng.integers(0, 4))
            s1, s2 = sorted(rng.integers(0, 8, size=2))
            t1, t2 = sorted(rng.integers(0, 20000, size=2))
            lo, _ = shaped_reward(make_outcome(correct, int(s2), int(t2), used, alloc), CFG)
            hi, _ = shaped_reward(make_outcome(correct, int(s1), int(t1), used, alloc), CFG)
            assert hi >= lo - 1e-12

    def test_correct_flip_identity(self):
        for used, alloc in ((0, 0), (0, 2), (3, 3)):
            r_t, _ = shaped_reward(make_outcome(True, 2, 500, used, alloc), CFG)
            r_f, _ = shaped_reward(make_outcome(False, 2, 500, used, alloc), CFG)
            expected = CFG.alpha + CFG.eta * CFG.delta2 * (1 if used > 0 else 0)
            assert r_t - r_f == pytest.approx(expected, abs=1e-12)

    @given(
        st.booleans(), st.integers(0, 7), st.integers(0, 30000),
        st.integers(0, 4), st.integers(0, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_declared_bounds(self, correct, n_steps, n_tokens, n_used, n_alloc):
        s_max, u_max, a_max = 7, 4, 8
        o = make_outcome(correct, min(n_steps, s_max), n_tokens, min(n_used, u_max),
                         min(n_alloc, a_max))
        r, _ = shaped_reward(o, CFG)
        lo = -(CFG.beta_s * s_max + CFG.beta_t * (o.n_tokens / CFG.t_max)
               + CFG.eta * CFG.delta3 * a_max)
        hi = CFG.alpha + CFG.eta * (CFG.delta1 * u_max + CFG.delta2)
        assert lo - 1e-9 <= r <= hi + 1e-9
