"""Dense-net numerics: forward/backward oracles, masked categoricals, Adam."""

import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agentcfg.errors import (
    ContractError,
    InvalidActionError,
    InvalidMaskError,
    PersistenceError,
    ShapeError,
    TrainingDivergenceError,
)
from agentcfg.numeric import (
    AdamState,
    DenseNet,
    FlatViews,
    MaskedCategorical,
    adam_step,
    categorical_grad_logits,
    choice_cdf,
    clip_grad_norm,
    head_columns,
    draw,
    entropy,
    entropy_grad_logits,
    inverse_cdf,
    load_net,
    log_prob,
    log_prob_grad_logits,
    masked_categorical,
    masked_categoricals,
    masked_softmax,
    sample,
    save_net,
)


@st.composite
def categorical_rows(draw_from):
    """(logits, masks) of 1-6 rows of one width in 1..20: valid logits in
    [-800, 30] (probability exactly 0 near -800) or -inf, at least one finite
    per row; masked entries any of nan, +-inf or a finite value; some rows
    fully valid, so 8 or more valid entries are common."""
    k = draw_from(st.integers(1, 20))
    valid_logit = st.one_of(st.floats(-800, 30), st.just(-np.inf))
    masked_logit = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, 50.0])
    logits, masks = [], []
    for _ in range(draw_from(st.integers(1, 6))):
        dense = draw_from(st.booleans())
        keep = [dense or draw_from(st.booleans()) for _ in range(k)]
        anchor = draw_from(st.integers(0, k - 1))
        keep[anchor] = True
        row = [draw_from(valid_logit if kept else masked_logit) for kept in keep]
        row[anchor] = draw_from(st.floats(-800, 30))
        logits.append(row)
        masks.append(keep)
    return np.array(logits), np.array(masks, dtype=float)


def reference_forward(params, sizes, x):
    """Independent straight-line re-implementation of the affine+tanh chain."""
    h = np.asarray(x, dtype=np.float64)
    n_layers = len(sizes) - 1
    for layer in range(n_layers):
        W, b = params[2 * layer], params[2 * layer + 1]
        z = W @ h + b
        h = np.tanh(z) if layer < n_layers - 1 else z
    return h


class TestDenseNetForward:
    def test_initial_weights_are_scaled_normal_draws(self):
        # each weight matrix takes rng.normal(0, 1/sqrt(fan-in)) draws in
        # layer order; biases start at zero
        sizes = [5, 7, 3]
        net = DenseNet(sizes, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        for layer, (n_in, n_out) in enumerate(zip(sizes, sizes[1:])):
            W = rng.normal(0.0, 1.0 / np.sqrt(n_in), (n_out, n_in))
            assert np.array_equal(net.params[2 * layer], W)
            assert not net.params[2 * layer + 1].any()

    def test_zero_weights_give_zero(self):
        net = DenseNet([3, 4, 2])
        for p in net.params:
            p[...] = 0.0
        assert np.allclose(net.forward(np.ones(3)), 0.0)

    def test_identity_linear_layer(self):
        net = DenseNet([3, 3])
        net.params[0][...] = np.eye(3)
        net.params[1][...] = 0.0
        x = np.array([0.3, -1.2, 4.0])
        assert np.allclose(net.forward(x), x)

    def test_matches_independent_reimplementation(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            sizes = [int(rng.integers(1, 6)) for _ in range(int(rng.integers(2, 5)))]
            net = DenseNet(sizes, rng=rng)
            x = rng.normal(size=sizes[0])
            assert np.allclose(
                net.forward(x), reference_forward(net.params, net.sizes, x),
                atol=1e-12, rtol=0,
            )

    @pytest.mark.parametrize("sizes", [(69, 128, 128, 83), (21, 32, 41), (88, 128, 128, 11)])
    def test_one_row_batch_is_bit_identical_to_forward(self, sizes):
        # the one-episode sampling and decoding paths rely on this
        net = DenseNet(sizes, rng=np.random.default_rng(5))
        for x in np.random.default_rng(6).normal(size=(20, sizes[0])):
            assert np.array_equal(net.forward_batch(x[None])[0][0], net.forward(x))

    @pytest.mark.parametrize("sizes", [(69, 128, 128, 83), (21, 32, 41), (27, 32, 5),
                                       (88, 128, 128, 11)])
    def test_rows_do_not_depend_on_their_batch(self, sizes):
        # a batched pass can change a row's last bits with the row count;
        # forward_rows gives every row the bits of its one-row pass
        net = DenseNet(sizes, rng=np.random.default_rng(7))
        X = np.random.default_rng(8).normal(size=(40, sizes[0]))
        alone = np.array([net.forward(x) for x in X])
        for n in (1, 2, 3, 5, 8, 13, 40):
            for start in range(0, len(X) - n + 1, 9):
                assert np.array_equal(net.forward_rows(X[start:start + n]),
                                      alone[start:start + n])

    def test_shape_error(self):
        net = DenseNet([3, 2])
        with pytest.raises(ShapeError):
            net.forward(np.ones(4))
        for bad in (np.ones(3), np.ones((2, 4))):
            with pytest.raises(ShapeError):
                net.forward_rows(bad)


class TestDenseNetBackward:
    def test_finite_differences(self):
        rng = np.random.default_rng(1)
        for sizes in ([4, 8, 3], [2, 16, 16, 1], [5, 32, 4]):
            net = DenseNet(sizes, rng=rng)
            x = rng.normal(size=sizes[0])
            upstream = rng.normal(size=sizes[-1])
            grads = net.backward(net.forward_batch(x[None])[1], upstream[None])
            flat_analytic = np.concatenate([g.ravel() for g in grads])
            flat0 = net.get_flat()
            h = 1e-5
            # probe a deterministic subset of parameters for speed
            idx = rng.choice(net.n_params, size=min(120, net.n_params), replace=False)
            for i in idx:
                for sign, store in ((+1, "hi"), (-1, "lo")):
                    flat = flat0.copy()
                    flat[i] += sign * h
                    net.set_flat(flat)
                    val = float(upstream @ net.forward(x))
                    if sign > 0:
                        hi = val
                    else:
                        lo = val
                fd = (hi - lo) / (2 * h)
                denom = max(abs(fd), abs(flat_analytic[i]), 1e-8)
                assert abs(fd - flat_analytic[i]) / denom < 1e-4
            net.set_flat(flat0)

    def test_gradients_overwrite_a_given_buffer(self):
        net = DenseNet([5, 32, 4], rng=np.random.default_rng(3))
        X = np.random.default_rng(4).normal(size=(6, 5))
        upstream = np.random.default_rng(5).normal(size=(6, 4))
        activations = net.forward_batch(X)[1]
        fresh = net.backward(activations, upstream)
        out = net.params.empty_like()
        out.vector[...] = np.nan
        assert net.backward(activations, upstream, out=out) is out
        assert np.array_equal(out.vector, fresh.vector)
        assert not np.shares_memory(out.vector, net.vector)

    def test_zero_upstream(self):
        net = DenseNet([3, 5, 2], rng=np.random.default_rng(2))
        grads = net.backward(net.forward_batch(np.ones((1, 3)))[1], np.zeros((1, 2)))
        assert all(np.allclose(g, 0.0) for g in grads)


def assert_views_of_own_vector(net):
    """net's params are views of net.vector, in `get_flat` order."""
    vector = net.vector
    assert vector.dtype == np.float64 and vector.flags.c_contiguous
    assert vector.shape == (net.n_params,)
    start = vector.__array_interface__["data"][0]
    offset = 0
    for p in net.params:
        assert p.__array_interface__["data"][0] == start + 8 * offset
        assert p.base is vector or p.base.base is vector
        offset += p.size
    assert offset == net.n_params
    assert np.array_equal(np.concatenate([p.ravel() for p in net.params]), net.get_flat())
    x = np.linspace(-1.0, 1.0, net.input_size)
    before = net.forward(x)
    vector[-net.output_size:] += 1.0  # the last bias, read through params by forward
    assert np.array_equal(net.forward(x), before + 1.0)
    vector[-net.output_size:] -= 1.0


def adam_steps(net, k, seed=0):
    """k clipped Adam steps of net on a fixed random objective."""
    rng = np.random.default_rng(seed)
    state = AdamState.for_params(net.params)
    for _ in range(k):
        X = rng.normal(size=(5, net.input_size))
        grads = net.backward(net.forward_batch(X)[1], rng.normal(size=(5, net.output_size)))
        adam_step(net.params, clip_grad_norm(grads, 0.5), state, 1e-2)


class TestFlatParameters:
    SIZES = [(21, 32, 41), (69, 128, 128, 83)]

    @pytest.mark.parametrize("sizes", SIZES)
    def test_params_are_views_of_the_own_vector(self, sizes, tmp_path):
        net = DenseNet(sizes, rng=np.random.default_rng(0))
        assert_views_of_own_vector(net)
        shallow = copy.copy(net)
        assert_views_of_own_vector(shallow)
        assert shallow.vector is net.vector  # a shallow copy shares the parameters
        for twin in (copy.deepcopy(net), pickle.loads(pickle.dumps(net))):
            assert_views_of_own_vector(twin)
            assert not np.shares_memory(twin.vector, net.vector)
            assert np.array_equal(twin.vector, net.vector)
        save_net(net, tmp_path / "net.params")
        loaded = load_net(tmp_path / "net.params")
        assert_views_of_own_vector(loaded)
        vector = net.vector
        net.set_flat(np.arange(net.n_params, dtype=np.float64))
        assert net.vector is vector
        assert_views_of_own_vector(net)
        assert np.array_equal(net.params[0].ravel()[:3], [0.0, 1.0, 2.0])

    def test_flat_views_need_one_contiguous_float64_vector(self):
        with pytest.raises(ShapeError):
            FlatViews(np.zeros(5), [(2, 2)])
        with pytest.raises(ShapeError):
            FlatViews(np.zeros(8)[::2], [(2, 2)])
        with pytest.raises(ShapeError):
            FlatViews(np.zeros(4, dtype=np.float32), [(2, 2)])

    @pytest.mark.parametrize("sizes", SIZES)
    def test_copies_train_like_the_original(self, sizes):
        net = DenseNet(sizes, rng=np.random.default_rng(1))
        x = np.linspace(-1.0, 1.0, net.input_size)
        start = net.forward(x)
        twins = [copy.deepcopy(net), pickle.loads(pickle.dumps(net))]
        for n in [net, *twins]:
            adam_steps(n, 4)
        assert not np.array_equal(net.forward(x), start)
        for twin in twins:
            assert np.array_equal(twin.vector, net.vector)
            assert np.array_equal(twin.forward(x), net.forward(x))


class TestParameterSerialization:
    def test_roundtrip(self, tmp_path):
        net = DenseNet([4, 8, 3], rng=np.random.default_rng(4))
        save_net(net, tmp_path / "net.params")
        loaded = load_net(tmp_path / "net.params")
        assert loaded.sizes == net.sizes
        assert np.array_equal(loaded.get_flat(), net.get_flat())

    @staticmethod
    def saved(tmp_path):
        path = tmp_path / "net.params"
        save_net(DenseNet([4, 8, 3], rng=np.random.default_rng(4)), path)
        return path, path.read_bytes()

    def test_missing_file(self, tmp_path):
        with pytest.raises(PersistenceError, match="missing.params: cannot read"):
            load_net(tmp_path / "missing.params")

    def test_empty_file(self, tmp_path):
        path, _ = self.saved(tmp_path)
        path.write_bytes(b"")
        with pytest.raises(PersistenceError, match="net.params: not a parameter file: 0 bytes"):
            load_net(path)

    def test_five_byte_file(self, tmp_path):
        path, data = self.saved(tmp_path)
        path.write_bytes(data[:5])
        with pytest.raises(PersistenceError, match="net.params: not a parameter file: 5 bytes"):
            load_net(path)

    def test_cut_header(self, tmp_path):
        path, data = self.saved(tmp_path)
        path.write_bytes(data[:20])
        with pytest.raises(PersistenceError, match="net.params: not a parameter file: bad header"):
            load_net(path)

    @pytest.mark.parametrize("cut", [3, 8])  # inside a double, and a whole double
    def test_cut_blob(self, tmp_path, cut):
        path, data = self.saved(tmp_path)
        path.write_bytes(data[:-cut])
        n = (5 * 8 + 9 * 3) * 8
        with pytest.raises(PersistenceError,
                           match=rf"net.params: {n - cut} bytes of parameters, expected {n}"):
            load_net(path)

    def test_garbage(self, tmp_path):
        path = tmp_path / "net.params"
        path.write_bytes(np.random.default_rng(0).bytes(4096))
        with pytest.raises(PersistenceError, match="net.params: not a parameter file"):
            load_net(path)

    @pytest.mark.parametrize("header", [
        b"[1, 2]", b'{"format_version": 2, "layer_sizes": [4, 3]}',
        b'{"format_version": 1, "layer_sizes": [4]}',
        b'{"format_version": 1, "layer_sizes": [4, 0, 3]}',
        b'{"format_version": 1, "layer_sizes": [4, true]}',
    ], ids=["not-a-mapping", "other-version", "one-layer", "empty-layer", "bool-size"])
    def test_bad_header_fields(self, tmp_path, header):
        path = tmp_path / "net.params"
        path.write_bytes(len(header).to_bytes(8, "little") + header)
        with pytest.raises(PersistenceError, match="net.params: (unsupported|layer_sizes)"):
            load_net(path)


class TestMaskedSoftmax:
    def test_symmetric_case(self):
        d = MaskedCategorical(np.array([1.0, 1.0, 1.0]), np.array([1.0, 0.0, 1.0]))
        assert np.allclose(masked_softmax(d), [0.5, 0.0, 0.5])

    def test_two_equal(self):
        d = MaskedCategorical(np.zeros(2), np.ones(2))
        assert np.allclose(masked_softmax(d), [0.5, 0.5])

    def test_overflow_stability(self):
        d = MaskedCategorical(np.array([1000.0, 0.0]), np.ones(2))
        p = masked_softmax(d)
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    def test_all_masked_rejected(self):
        with pytest.raises(InvalidMaskError):
            MaskedCategorical(np.zeros(3), np.zeros(3))

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=8), st.floats(-10, 10))
    @settings(max_examples=100, deadline=None)
    def test_shift_invariance(self, logits, shift):
        logits = np.array(logits)
        mask = np.ones(len(logits))
        mask[0] = 0.0 if len(logits) > 1 else 1.0
        p1 = masked_softmax(MaskedCategorical(logits, mask))
        p2 = masked_softmax(MaskedCategorical(logits + shift, mask))
        assert np.allclose(p1, p2, atol=1e-12)
        assert abs(p1.sum() - 1.0) < 1e-12
        assert p1[0] == 0.0 if len(logits) > 1 else True


class TestSampling:
    def test_forced_choice(self):
        d = MaskedCategorical(np.array([5.0, -3.0, 1.0]), np.array([0.0, 1.0, 0.0]))
        rng = np.random.default_rng(0)
        for _ in range(20):
            idx, lp = sample(d, rng)
            assert idx == 1
            assert lp == pytest.approx(0.0)

    def test_masked_never_drawn(self):
        d = MaskedCategorical(np.array([1.0, 1.0, 1.0]), np.array([1.0, 0.0, 1.0]))
        rng = np.random.default_rng(1)
        draws = [sample(d, rng)[0] for _ in range(10_000)]
        assert 1 not in draws

    def test_empirical_frequencies(self):
        logits = np.array([0.0, 1.0, 2.0])
        d = MaskedCategorical(logits, np.ones(3))
        probs = masked_softmax(d)
        rng = np.random.default_rng(2)
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            counts[sample(d, rng)[0]] += 1
        freq = counts / n
        for i in range(3):
            se = math.sqrt(probs[i] * (1 - probs[i]) / n)
            assert abs(freq[i] - probs[i]) <= 3 * se + 1e-12

    @given(st.lists(st.floats(-30, 30), min_size=1, max_size=12),
           st.lists(st.booleans(), min_size=12, max_size=12), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_draws_follow_rng_choice_over_valid_support(self, logits, keep, seed):
        logits = np.array(logits)
        mask = np.array(keep[: len(logits)], dtype=float)
        mask[int(np.argmin(logits))] = 1.0
        valid = np.flatnonzero(mask > 0)
        e = np.exp(logits[valid] - logits[valid].max())
        rng = np.random.default_rng(seed)
        twin = np.random.default_rng(seed)
        idx, lp = sample(MaskedCategorical(logits, mask), rng)
        assert idx == valid[twin.choice(len(valid), p=e / e.sum())]
        assert lp == pytest.approx(math.log(e[list(valid).index(idx)] / e.sum()), abs=1e-9)
        assert rng.random() == twin.random()  # same number of draws consumed

    @given(st.lists(st.tuples(st.lists(st.floats(-800, 30), min_size=12, max_size=12),
                              st.lists(st.booleans(), min_size=12, max_size=12)),
                    min_size=1, max_size=6),
           st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_draw_matches_rng_choice_on_twin_generators(self, rows, seeds):
        # logits down to -800 make some valid probabilities exactly 0
        logits = np.array([r[0] for r in rows])
        masks = np.array([r[1] for r in rows], dtype=float)
        masks[np.arange(len(rows)), np.argmin(logits, axis=1)] = 1.0
        probs = masked_categorical(logits, masks)[0]
        rngs = [np.random.default_rng(seed) for seed in seeds]
        twins = [np.random.default_rng(seed) for seed in seeds]
        for k in range(3 * len(rows)):  # rows and generators interleaved
            i, g = k % len(rows), k % len(seeds)
            valid = np.flatnonzero(masks[i] > 0)
            q = probs[i][valid]
            assert draw(probs[i], rngs[g]) == valid[twins[g].choice(
                len(valid), p=q / q.sum())]
        for rng, twin in zip(rngs, twins):
            assert rng.random() == twin.random()  # same number of draws consumed

    @given(categorical_rows(), st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_batch_kernel_picks_as_one_row_draws_and_rng_choice(self, rows, seed):
        logits, masks = rows
        probs = masked_categorical(logits, masks)[0]
        cdf = choice_cdf(probs)
        u = np.random.default_rng(seed).random(len(probs))
        picks = inverse_cdf(cdf, u)
        one_row, chooser = np.random.default_rng(seed), np.random.default_rng(seed)
        for i, pick in enumerate(picks):
            valid = np.flatnonzero(masks[i] > 0)
            q = probs[i][valid]
            total = probs[i].cumsum()[-1]
            assert np.array_equal(choice_cdf(probs[i]), cdf[i])
            assert pick == draw(probs[i], one_row)
            assert pick == valid[chooser.choice(len(valid), p=q / total)]
            assert masks[i][pick] > 0 and probs[i][pick] > 0
            if len(valid) < 8:  # q.sum() adds fewer than 8 doubles in order
                want = (q / q.sum()).cumsum()
                want /= want[-1]
                assert np.array_equal(cdf[i][valid], want)
        assert one_row.random() == chooser.random()  # one uniform per row

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_non_finite_valid_row_fails_the_batch(self, bad):
        logits = np.array([[0.0, 1.0, 2.0], [0.0, bad, 1.0]])
        if bad == -np.inf:
            logits[1] = -np.inf  # no finite valid logit
        with np.errstate(invalid="ignore"):
            probs = masked_categorical(logits, np.ones((2, 3)))[0]
        with pytest.raises(TrainingDivergenceError):
            choice_cdf(probs)
        with pytest.raises(TrainingDivergenceError):
            choice_cdf(probs[1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_logits_raise_divergence(self, bad):
        d = MaskedCategorical(np.array([0.0, bad, 1.0]), np.ones(3))
        with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergenceError):
            sample(d, np.random.default_rng(0))
        # a non-finite logit on a masked entry is never looked at
        d = MaskedCategorical(np.array([0.0, bad, 1.0]), np.array([1.0, 0.0, 1.0]))
        assert sample(d, np.random.default_rng(0))[0] in (0, 2)

    def test_padded_views_match_one_row_distributions(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(5, 16)) * 3
        masks = (rng.random((5, 16)) < 0.4).astype(float)
        masks[:, 0] = 1.0
        masks[2:, 3:] = 0.0  # short heads padded to the widest one
        for view, z, m in zip(masked_categoricals(logits, masks), logits, masks):
            one_row = MaskedCategorical(z, m)
            for x, y in zip(view.stats, one_row.stats):
                assert np.array_equal(x, y)

    def test_log_prob_invalid_index(self):
        d = MaskedCategorical(np.zeros(3), np.array([1.0, 0.0, 1.0]))
        with pytest.raises(InvalidActionError):
            log_prob(d, 1)


class TestEntropy:
    def test_uniform_nine(self):
        d = MaskedCategorical(np.zeros(9), np.ones(9))
        assert entropy(d) == pytest.approx(math.log(9), abs=1e-12)

    def test_one_hot(self):
        d = MaskedCategorical(np.array([100.0, 0.0]), np.ones(2))
        assert entropy(d) == pytest.approx(0.0, abs=1e-12)

    def test_mask_reduces_support(self):
        d = MaskedCategorical(np.zeros(3), np.array([1.0, 0.0, 1.0]))
        assert entropy(d) == pytest.approx(math.log(2), abs=1e-12)

    def test_minus_inf_logit_adds_nothing(self):
        # a valid -inf logit has probability 0, so it adds 0 to the entropy:
        # no 0 * -inf, no nan and no floating-point warning
        with np.errstate(all="raise"):
            probs, log_probs, h = masked_categorical(
                np.array([[0.0, -np.inf, 1.0], [0.0, 0.0, 1.0]]), np.ones((2, 3)))
            _, _, without = masked_categorical(np.array([0.0, 1.0]), np.ones(2))
        assert probs[0, 1] == 0.0 and log_probs[0, 1] == -np.inf
        assert h[0] == without
        assert h[1] == masked_categorical(np.array([0.0, 0.0, 1.0]), np.ones(3))[2]

    @given(st.lists(st.tuples(st.lists(st.floats(-800, 30), min_size=9, max_size=9),
                              st.lists(st.booleans(), min_size=9, max_size=9)),
                    min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_finite_rows_keep_the_plain_entropy_bit_for_bit(self, rows):
        # logits down to -800 make some valid probabilities exactly 0
        logits = np.array([r[0] for r in rows])
        masks = np.array([r[1] for r in rows], dtype=float)
        masks[:, 0] = 1.0
        probs, log_probs, h = masked_categorical(logits, masks)
        assert np.array_equal(h, -(probs * log_probs).sum(axis=-1))


class TestDistributionGradients:
    def test_log_prob_grad_finite_difference(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=6)
        mask = np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0])
        g = log_prob_grad_logits(MaskedCategorical(logits, mask), 3)
        h = 1e-6
        for j in range(6):
            z_hi, z_lo = logits.copy(), logits.copy()
            z_hi[j] += h
            z_lo[j] -= h
            fd = (
                log_prob(MaskedCategorical(z_hi, mask), 3)
                - log_prob(MaskedCategorical(z_lo, mask), 3)
            ) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-6)
        assert g[2] == 0.0

    def test_entropy_grad_finite_difference(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=5)
        mask = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
        g = entropy_grad_logits(MaskedCategorical(logits, mask))
        h = 1e-6
        for j in range(5):
            z_hi, z_lo = logits.copy(), logits.copy()
            z_hi[j] += h
            z_lo[j] -= h
            fd = (
                entropy(MaskedCategorical(z_hi, mask))
                - entropy(MaskedCategorical(z_lo, mask))
            ) / (2 * h)
            assert g[j] == pytest.approx(fd, abs=1e-6)
        assert g[1] == 0.0


    def test_minus_inf_logit_has_a_zero_gradient(self):
        # the entropy term of a valid -inf logit is 0, not 0 * -inf
        with np.errstate(all="raise"):
            g = categorical_grad_logits(
                *masked_categorical(np.array([0.0, -np.inf, 1.0]), np.ones(3)), 0, 1.0, 0.01)
            without = categorical_grad_logits(
                *masked_categorical(np.array([0.0, 1.0]), np.ones(2)), 0, 1.0, 0.01)
        assert g[1] == 0.0
        assert np.array_equal(g[[0, 2]], without)

    @given(st.lists(st.tuples(st.lists(st.floats(-800, 30), min_size=9, max_size=9),
                              st.lists(st.booleans(), min_size=9, max_size=9),
                              st.integers(0, 8)),
                    min_size=1, max_size=6),
           st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=200, deadline=None)
    def test_finite_rows_keep_the_plain_gradient_bit_for_bit(self, rows, dlogp, dentropy):
        logits = np.array([r[0] for r in rows])
        masks = np.array([r[1] for r in rows], dtype=float)
        actions = np.array([r[2] for r in rows])
        masks[np.arange(len(rows)), actions] = 1.0
        probs, log_probs, h = masked_categorical(logits, masks)
        onehot = np.arange(9) == actions[:, None]
        plain = dlogp * (onehot - probs) - dentropy * probs * (log_probs + h[:, None])
        got = categorical_grad_logits(probs, log_probs, h, actions, dlogp, dentropy)
        assert np.array_equal(got, plain)


def one_array(values) -> FlatViews:
    """values as the one array of a `FlatViews` over their own vector."""
    vector = np.array(values, dtype=np.float64)
    return FlatViews(vector, [vector.shape])


class TestAdam:
    def test_zero_gradient_identity(self):
        params = one_array([1.0, 2.0])
        state = AdamState.for_params(params)
        adam_step(params, one_array(np.zeros(2)), state, lr=0.1)
        assert np.allclose(params[0], [1.0, 2.0])

    def test_lr_zero_identity(self):
        params = one_array([1.0, 2.0])
        state = AdamState.for_params(params)
        adam_step(params, one_array([0.5, -0.5]), state, lr=0.0)
        assert np.allclose(params[0], [1.0, 2.0])

    def test_first_step_direction(self):
        params = one_array([0.0])
        state = AdamState.for_params(params)
        adam_step(params, one_array([3.0]), state, lr=0.01)
        # first Adam step is ~ -lr * sign(g)
        assert params[0][0] == pytest.approx(-0.01, rel=1e-6)

    def test_hand_computed_two_step_trace(self):
        # one parameter p=0, gradients g1=1.0, g2=-0.5, lr=0.1
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p, m, v = 0.0, 0.0, 0.0
        for t, g in ((1, 1.0), (2, -0.5)):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            p -= lr * m_hat / (math.sqrt(v_hat) + eps)
        params = one_array([0.0])
        state = AdamState.for_params(params)
        adam_step(params, one_array([1.0]), state, lr)
        adam_step(params, one_array([-0.5]), state, lr)
        assert params[0][0] == pytest.approx(p, abs=1e-10)

    def test_shape_mismatch(self):
        params = one_array(np.zeros(2))
        state = AdamState.for_params(params)
        with pytest.raises(ShapeError):
            adam_step(params, one_array(np.zeros(3)), state, 0.1)


@pytest.mark.parametrize("sizes", [(9, 16, 16, 3, 3, 3), (9, 16, 16, 3, 3, 3, 11), (4,)])
def test_head_columns_scatter_inverts_the_table(sizes):
    columns = head_columns(sizes)
    assert columns.table.shape == (len(sizes), max(sizes))
    assert np.array_equal(columns.table.ravel()[columns.scatter], np.arange(sum(sizes)))


def reference_adam_step(params, grads, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam over a list of arrays, one array at a time."""
    for i, (p, g) in enumerate(zip(params, grads)):
        m[i] = b1 * m[i] + (1 - b1) * g
        v[i] = b2 * v[i] + (1 - b2) * g * g
        m_hat = m[i] / (1 - b1**t)
        v_hat = v[i] / (1 - b2**t)
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


def reference_clip_grad_norm(grads, max_norm):
    """Clipping of a list of arrays, returning new arrays when it scales."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm and total > 0:
        scale = max_norm / total
        return [g * scale for g in grads]
    return grads


@pytest.mark.parametrize("sizes", [(21, 32, 41), (69, 128, 128, 83)])
def test_flat_update_matches_the_per_array_reference(sizes):
    net = DenseNet(sizes, rng=np.random.default_rng(2))
    ref_params = [p.copy() for p in net.params]
    m = [np.zeros_like(p) for p in ref_params]
    v = [np.zeros_like(p) for p in ref_params]
    state = AdamState.for_params(net.params)
    rng = np.random.default_rng(3)
    branches = set()
    for t, max_norm in enumerate((1e9, 0.5, 1e9, 0.05, 0.5, 1e9), start=1):
        X = rng.normal(size=(6, net.input_size))
        grads = net.backward(net.forward_batch(X)[1], rng.normal(size=(6, net.output_size)))
        branches.add(np.sqrt(sum(float(np.sum(g * g)) for g in grads)) > max_norm)
        want = reference_clip_grad_norm([g.copy() for g in grads], max_norm)
        got = clip_grad_norm(grads, max_norm)
        assert got is grads
        assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))
        adam_step(net.params, got, state, 1e-2)
        reference_adam_step(ref_params, want, m, v, t, 1e-2)
        assert state.t == t
        assert all(np.array_equal(a, b) for a, b in zip(net.params, ref_params, strict=True))
        assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m]))
        assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v]))
    assert branches == {True, False}  # both branches of the clip ran


class TestClipGradNorm:
    def test_scales_large(self):
        out = clip_grad_norm(one_array([3.0, 4.0]), 0.5)
        assert np.allclose(out[0], [0.3, 0.4])

    def test_leaves_small(self):
        g = [np.array([0.1, 0.1])]
        assert clip_grad_norm(g, 0.5) is g

    @pytest.mark.parametrize("max_norm", [0.0, -1.0])
    def test_non_positive_cap_raises(self, max_norm):
        with pytest.raises(ContractError, match="max_norm"):
            clip_grad_norm([np.array([3.0, 4.0])], max_norm)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_postclip_norm_bounded(self, values):
        g = one_array(values)
        out = clip_grad_norm(g, 0.5)
        assert np.sqrt(np.sum(out[0] ** 2)) <= 0.5 + 1e-12
