"""Minimal dense numerics for the lightweight policies.

Feed-forward nets are affine layers with tanh hidden activations and a
linear output; gradients are hand-derived for this fixed architecture. A
net's parameters are one contiguous float64 vector, and its per-layer
arrays are views of it (`FlatViews`); a gradient comes the same way, so
clipping and Adam update whole vectors in place, in fixed slices whose
temporaries stay small.
Masked categoricals implement invalid-action pruning by adding log(mask)
to logits before the softmax, so masked entries carry exactly zero mass.

Every draw goes through one kernel over (..., K) rows of
`masked_categorical` probabilities: `choice_cdf` builds each row's CDF over
its full width, and `inverse_cdf` picks, per row, the first entry above the
row's uniform. `draw` is its one-row case. A masked entry, or a valid one of
probability 0, repeats the CDF entry before it, so it is never drawn. A row
whose valid probabilities do not sum to a finite number (a nan or +inf
logit on the valid support, or no finite valid logit) raises
TrainingDivergenceError; masked logits are never looked at. The pick is the
one `Generator.choice(len(valid), p=q / total)` makes with the same uniform
over the row's valid probabilities q, where total is the last entry of the
row's cumsum. With fewer than 8 valid entries that total equals `q.sum()`
bit for bit, since numpy adds fewer than 8 doubles in order; with 8 or more,
`q.sum()` adds pairwise and can differ in the last bit, which changes a pick
only if the uniform falls within rounding of a CDF boundary.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core import atomic_write
from .errors import (ContractError, InvalidActionError, InvalidMaskError, PersistenceError,
                     ShapeError, TrainingDivergenceError)

# ---------------------------------------------------------------------------
# Dense networks
# ---------------------------------------------------------------------------

DEFAULT_HIDDEN = (128, 128)


class FlatViews(tuple):
    """Reshaped views of consecutive slices of one contiguous float64
    vector, kept as `vector`: a net's parameters [W0, b0, W1, b1, ...], or
    a gradient in their layout. Writing a view writes the vector, so
    `adam_step` and `clip_grad_norm` can act on all arrays at once. `cache`
    holds values derived from the vector, by kind (see `DenseNet`). Copies
    and pickles rebuild the views on their own vector, with an empty cache."""

    vector: np.ndarray
    cache: dict

    def __new__(cls, vector: np.ndarray, shapes):
        sizes = [math.prod(shape) for shape in shapes]
        if not (isinstance(vector, np.ndarray) and vector.dtype == np.float64
                and vector.shape == (sum(sizes),) and vector.flags.c_contiguous):
            raise ShapeError(f"expected a contiguous float64 vector of {sum(sizes)} entries")
        views, offset = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(vector[offset : offset + size].reshape(shape))
            offset += size
        obj = super().__new__(cls, views)
        obj.vector, obj.cache = vector, {}
        return obj

    def __reduce__(self):
        return FlatViews, (self.vector, [v.shape for v in self])

    def empty_like(self) -> "FlatViews":
        """Views of the same shapes over a new, uninitialised vector."""
        return FlatViews(np.empty_like(self.vector), [v.shape for v in self])


class DenseNet:
    """Affine chain input -> hidden... -> output, tanh on hidden layers.

    The parameters are one contiguous float64 `vector`, laid out as W0
    (row-major, shape (out, in)), b0, W1, b1, ...: `params` is `FlatViews`
    of it in that order, and `backward` returns the gradient the same way.
    `adam_step` and `set_flat` are the write paths: each writes in place
    and clears `params.cache`, where the samplers and scorers keep what they
    derive from the parameters. A write through a view or `vector` skips
    that clear, so it must come before the first cached call. Copies,
    pickles, `from_vector` and `load_net` start with an empty cache.
    """

    def __init__(self, sizes, rng=None):
        if len(sizes) < 2:
            raise ShapeError("need at least input and output sizes")
        self._adopt(sizes)
        rng = rng if rng is not None else np.random.default_rng(0)
        for W in self.params[::2]:
            # the draws of rng.normal(0.0, 1 / sqrt(fan-in), W.shape), made in place
            rng.standard_normal(out=W)
            W *= 1.0 / np.sqrt(W.shape[1])

    @classmethod
    def from_vector(cls, sizes, vector: np.ndarray) -> "DenseNet":
        """The net of the given layer sizes whose parameters are vector, in
        `vector` layout; the net takes vector as its own, without a copy."""
        net = cls.__new__(cls)
        net._adopt(sizes, vector)
        return net

    def _adopt(self, sizes, vector: Optional[np.ndarray] = None) -> None:
        """Set the layer sizes and view vector (zeros by default) as the
        parameters."""
        self.sizes = tuple(int(s) for s in sizes)
        shapes = [shape for n_in, n_out in zip(self.sizes[:-1], self.sizes[1:])
                  for shape in ((n_out, n_in), (n_out,))]
        if vector is None:
            vector = np.zeros(sum(math.prod(shape) for shape in shapes))
        self.params = FlatViews(vector, shapes)

    def __reduce__(self):  # copies and pickles rebuild the views on their own vector
        return DenseNet.from_vector, (self.sizes, self.vector)

    @property
    def vector(self) -> np.ndarray:
        return self.params.vector

    @property
    def input_size(self) -> int:
        return self.sizes[0]

    @property
    def output_size(self) -> int:
        return self.sizes[-1]

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Output for one input row."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.input_size,):
            raise ShapeError(f"expected input shape ({self.input_size},), got {x.shape}")
        return self._forward(x)[0]

    def forward_batch(self, X: np.ndarray):
        """Outputs for a (B, input) batch of rows, plus the activations that
        `backward` reuses instead of a second forward pass."""
        return self._forward(self._batch(X))

    def forward_rows(self, X: np.ndarray) -> np.ndarray:
        """Outputs for a (B, input) batch of rows, each computed as a
        one-row batch is: the rows go through as a stack of B one-row
        products, which matmul computes one by one. A row's output then does
        not depend on the other rows or their number, as a `forward_batch`
        row's can in the last bits; the price is B small products per
        layer instead of one."""
        return self._forward(self._batch(X)[:, None])[0][:, 0]

    def _batch(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.input_size:
            raise ShapeError(f"expected input shape (B, {self.input_size}), got {X.shape}")
        return X

    def _forward(self, h):
        # h is one row (input,), a batch (B, input) or a stack (B, 1, input)
        # of one-row batches; `h @ W.T` serves all three.
        activations = [h]
        for layer in range(self.n_layers):
            W, b = self.params[2 * layer], self.params[2 * layer + 1]
            z = h @ W.T + b
            h = np.tanh(z) if layer < self.n_layers - 1 else z
            activations.append(h)
        return h, activations

    def backward(self, x: np.ndarray, upstream_grad: np.ndarray, cache=None,
                 out: Optional[FlatViews] = None) -> FlatViews:
        """Parameter gradients of sum over rows of (upstream_grad . forward(x)),
        aligned with `params`: views of one vector in `vector` layout, into
        which each layer's product and row sum are written directly.

        x is one row (input,) with upstream (output,), or a batch (B, input)
        with upstream (B, output); gradients are summed over rows. `cache` is
        the activation list `forward_batch(x)` returned; without it the
        forward pass runs again. No input gradient is formed. The gradients
        overwrite out (`params.empty_like()`, say) and out is returned;
        without it they go to a new vector. An update that steps the net
        every epoch passes one out to all of them, so a step maps no fresh
        net-sized vector.
        """
        upstream_grad = np.asarray(upstream_grad, dtype=np.float64)
        one_row = upstream_grad.ndim == 1
        if one_row:
            upstream_grad = upstream_grad[None]
        if upstream_grad.ndim != 2 or upstream_grad.shape[1] != self.output_size:
            raise ShapeError(
                f"expected upstream shape (..., {self.output_size}), got {upstream_grad.shape}"
            )
        if cache is None:
            x = np.asarray(x, dtype=np.float64)
            _, cache = self.forward_batch(x[None] if one_row else x)
        if cache[0].shape[0] != upstream_grad.shape[0]:
            raise ShapeError("input and upstream gradient differ in row count")
        grads = self.params.empty_like() if out is None else out
        delta = upstream_grad
        for layer in reversed(range(self.n_layers)):
            h_in, h_out = cache[layer], cache[layer + 1]
            if layer < self.n_layers - 1:
                delta = delta * (1.0 - h_out * h_out)  # tanh'
            np.matmul(delta.T, h_in, out=grads[2 * layer])
            delta.sum(axis=0, out=grads[2 * layer + 1])
            if layer:
                delta = delta @ self.params[2 * layer]
        return grads

    # -- parameter plumbing -------------------------------------------------

    def get_flat(self) -> np.ndarray:
        """A copy of `vector`."""
        return self.vector.copy()

    def set_flat(self, flat: np.ndarray) -> None:
        """Write flat, in `vector` layout, into the parameters, and clear
        their cache."""
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != self.vector.shape:
            raise ShapeError(f"expected {self.n_params} params, got {flat.shape}")
        self.params.cache.clear()
        self.vector[...] = flat

    @property
    def n_params(self) -> int:
        return self.vector.size


PARAM_FORMAT_VERSION = 1


def save_net(net: DenseNet, path) -> None:
    """Write a JSON header plus a flat little-endian float64 parameter blob."""
    header = json.dumps(
        {
            "format_version": PARAM_FORMAT_VERSION,
            "layer_sizes": list(net.sizes),
            "activation": "tanh",
        }
    ).encode("utf-8")
    blob = net.get_flat().astype("<f8").tobytes()
    with atomic_write(path, "wb") as fh:
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(blob)


def load_net(path) -> DenseNet:
    """The net `save_net` wrote to path. Raises PersistenceError naming path
    when the file is missing, cut short or not a parameter file."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PersistenceError(f"{path}: cannot read parameter file: {exc.strerror}") from exc
    if len(data) < 8:
        raise PersistenceError(f"{path}: not a parameter file: {len(data)} bytes, "
                               "shorter than the header length")
    (hlen,) = struct.unpack_from("<Q", data)
    try:
        header = json.loads(data[8 : 8 + hlen])
    except ValueError as exc:
        raise PersistenceError(f"{path}: not a parameter file: bad header ({exc})") from exc
    if not isinstance(header, dict) or header.get("format_version") != PARAM_FORMAT_VERSION:
        raise PersistenceError(f"{path}: unsupported parameter format: {header!r}")
    sizes = header.get("layer_sizes")
    if not (isinstance(sizes, list) and len(sizes) >= 2 and all(
            isinstance(n, int) and not isinstance(n, bool) and n > 0 for n in sizes)):
        raise PersistenceError(f"{path}: layer_sizes must list two or more positive "
                               f"integers, got {sizes!r}")
    blob = data[8 + hlen :]
    expected = 8 * sum((n_in + 1) * n_out for n_in, n_out in zip(sizes, sizes[1:]))
    if len(blob) != expected:
        raise PersistenceError(f"{path}: {len(blob)} bytes of parameters, expected "
                               f"{expected} for layer sizes {sizes}")
    return DenseNet.from_vector(sizes, np.frombuffer(blob, dtype="<f8").astype(np.float64))


# ---------------------------------------------------------------------------
# Masked categorical distributions
# ---------------------------------------------------------------------------


_LOWEST = np.finfo(np.float64).min


def masked_categorical(logits: np.ndarray, mask: np.ndarray):
    """Masked categoricals over the last axis of (..., K) logits.

    Returns (probs, log_probs, entropy): probs and log_probs have the logits'
    shape and are 0 on masked entries, entropy (nats) has the leading shape.
    Max-subtraction over the unmasked support keeps large logits finite.
    Every row must leave at least one entry unmasked.
    """
    # ndarray methods rather than np.max/np.sum: on one short row the
    # function wrappers cost more than the arithmetic.
    valid = mask > 0
    z = np.where(valid, logits, -np.inf)
    z -= z.max(axis=-1, keepdims=True)
    probs = np.exp(z)
    total = probs.sum(axis=-1, keepdims=True)
    probs /= total
    log_probs = np.where(valid, z - np.log(total), 0.0)
    # A valid -inf logit has probability 0 and must add 0 to the entropy,
    # not 0 * -inf: raising its log-prob to the lowest finite float changes
    # no finite entry, so finite rows keep every bit.
    entropy = -(probs * np.maximum(log_probs, _LOWEST)).sum(axis=-1)
    return probs, log_probs, entropy


def categorical_grad_logits(probs, log_probs, entropy, actions, dlogp, dentropy):
    """Gradient w.r.t. the logits of dlogp * log p(action) + dentropy * H,
    row by row: dlogp (onehot - p) - dentropy p (log p + H). Takes the
    outputs of `masked_categorical`; zero on masked entries."""
    dlogp = np.asarray(dlogp, dtype=np.float64)[..., None]
    dentropy = np.asarray(dentropy, dtype=np.float64)[..., None]
    onehot = np.arange(probs.shape[-1]) == np.asarray(actions)[..., None]
    # A valid -inf logit has probability 0 and adds 0, as in the entropy:
    # its log-prob is raised to the lowest finite float, not 0 * -inf.
    return dlogp * (onehot - probs) - dentropy * probs * (
        np.maximum(log_probs, _LOWEST) + np.asarray(entropy)[..., None]
    )


@dataclass
class MaskedCategorical:
    """One masked categorical; the functions below are one-row views of
    `masked_categorical`, computed once per distribution."""

    logits: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        self.logits = np.asarray(self.logits, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=np.float64)
        if self.logits.shape != self.mask.shape or self.logits.ndim != 1:
            raise ShapeError("logits and mask must be 1-d vectors of equal length")
        if not (self.mask > 0).any():
            raise InvalidMaskError("mask leaves no valid entry")
        self._stats = None

    @property
    def stats(self):
        """(probs, log_probs, entropy) of `masked_categorical`."""
        if self._stats is None:
            self._stats = masked_categorical(self.logits, self.mask)
        return self._stats

    @classmethod
    def view(cls, logits, mask, stats) -> "MaskedCategorical":
        """A distribution over a row `masked_categorical` already scored
        into stats, taken as given: no copy and no validation, so the caller
        vouches that the mask leaves a valid entry."""
        d = cls.__new__(cls)
        d.logits, d.mask, d._stats = logits, mask, stats
        return d


def masked_categoricals(logits: np.ndarray, masks: np.ndarray,
                        stats=None) -> list[MaskedCategorical]:
    """One MaskedCategorical view per row of (G, K) logits and masks, with
    the statistics of all rows computed in one `masked_categorical` pass,
    or taken from stats, that pass's output. Every row of masks must leave a
    valid entry; that is not re-checked."""
    stats = masked_categorical(logits, masks) if stats is None else stats
    return [MaskedCategorical.view(logits[g], masks[g], tuple(x[g] for x in stats))
            for g in range(len(logits))]


def masked_softmax(d: MaskedCategorical) -> np.ndarray:
    """Probabilities with masked entries exactly 0."""
    return d.stats[0].copy()


def log_prob(d: MaskedCategorical, index: int) -> float:
    if not d.mask[index] > 0:
        raise InvalidActionError(f"action {index} is masked")
    return float(d.stats[1][index])


def choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF of every row of (..., K) `masked_categorical` probabilities,
    over the row's full width, that `Generator.choice` would build over its
    valid probabilities q: with total the last entry of the row's cumsum,
    p = q / total, cdf = p.cumsum(), cdf /= cdf[-1]. Masked entries are 0,
    so they add nothing and repeat the entry before them. Raises
    TrainingDivergenceError when a row's total is not finite (non-finite
    valid logits)."""
    if probs.ndim == 1:  # one row: ndarray methods cost less than the batch path
        total = probs.cumsum()[-1]
        if not math.isfinite(total):
            raise TrainingDivergenceError(
                f"non-finite logits: valid probabilities sum to {total}")
        cdf = (probs / total).cumsum()
        cdf /= cdf[-1]
        return cdf
    total = probs.cumsum(axis=-1)[..., -1:]
    if not np.isfinite(total).all():
        raise TrainingDivergenceError(
            f"non-finite logits: valid probabilities sum to {total[~np.isfinite(total)][0]}")
    cdf = (probs / total).cumsum(axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def inverse_cdf(cdf: np.ndarray, u):
    """The index each row of a `choice_cdf` picks with its uniform in [0, 1)
    (one row and a float, or (..., K) rows and (...) uniforms): the first
    entry above u, "searchsorted right", as `Generator.choice` picks. An
    entry of probability 0 repeats the one before it, so it is never the
    first above u: a masked index is never picked."""
    if cdf.ndim == 1:
        return int(cdf.searchsorted(u, "right"))
    return (cdf <= u[..., None]).sum(axis=-1)


def draw(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Index drawn from one row of `masked_categorical` probabilities with
    one uniform from rng: the one-row case of `choice_cdf` and
    `inverse_cdf`. The same generator gives the index `rng.choice` would over
    the valid entries and is left in the same state."""
    return inverse_cdf(choice_cdf(probs), rng.random())


def sample(d: MaskedCategorical, rng: np.random.Generator):
    """Draw an index from the masked distribution; returns (index, log_prob)."""
    idx = draw(masked_softmax(d), rng)
    return idx, log_prob(d, idx)


def entropy(d: MaskedCategorical) -> float:
    """Shannon entropy in nats over the unmasked support."""
    return float(d.stats[2])


def log_prob_grad_logits(d: MaskedCategorical, index: int) -> np.ndarray:
    """d log p(index) / d logits = onehot(index) - probs (zero on masked)."""
    return categorical_grad_logits(*d.stats, index, 1.0, 0.0)


def entropy_grad_logits(d: MaskedCategorical) -> np.ndarray:
    """dH/dz_j = -p_j (log p_j + H); zero on masked entries."""
    return categorical_grad_logits(*d.stats, -1, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Batched replay of fixed choices
# ---------------------------------------------------------------------------


class HeadColumns(NamedTuple):
    """Consecutive heads of a net's output laid out for `score_choices`,
    built once per layout."""

    table: np.ndarray    # (heads, widest head): output column of every (head, choice), -1 pads
    scatter: np.ndarray  # (output,): index into table.ravel() of every output column


def head_columns(sizes) -> HeadColumns:
    """The `HeadColumns` of consecutive heads of the given sizes, which
    cover a net output of sum(sizes) columns."""
    offsets = np.cumsum((0,) + tuple(sizes))
    table = np.array([[int(offsets[h]) + k if k < size else -1 for k in range(max(sizes))]
                      for h, size in enumerate(sizes)])
    slots = np.flatnonzero(table.ravel() >= 0)
    scatter = np.empty(int(offsets[-1]), dtype=np.intp)
    scatter[table.ravel()[slots]] = slots
    return HeadColumns(table, scatter)


def score_choices(net: DenseNet, inputs, masks, actions, columns: Optional[HeadColumns] = None):
    """Log-probabilities and entropies of fixed choices under one net, with
    one batched forward pass.

    Without `columns`, input row i makes one choice over the whole output,
    masked by masks[i] (B, K). With `columns`, row i makes one choice per
    head (G of them, K wide in `columns.table`), masked by masks[i]
    (B, G, K), padding masked. actions index into each (padded) head.
    Returns (log_probs, entropy, cache), both shaped like actions.
    """
    out, activations = net.forward_batch(inputs)
    logits = out if columns is None else out[:, columns.table]
    probs, log_probs, ent = masked_categorical(logits, masks)
    chosen = np.take_along_axis(log_probs, actions[..., None], axis=-1)[..., 0]
    return chosen, ent, (net, activations, probs, log_probs, ent, actions, columns)


def score_vjp(cache, dlogp, dentropy, out: Optional[FlatViews] = None) -> FlatViews:
    """Parameter gradients of sum(dlogp * log_probs + dentropy * entropy)
    for the log-probs and entropies `score_choices` returned with `cache`;
    dlogp and dentropy broadcast to their shape. out as in
    `DenseNet.backward`."""
    net, activations, probs, log_probs, ent, actions, columns = cache
    g = categorical_grad_logits(probs, log_probs, ent, actions, dlogp, dentropy)
    if columns is not None:
        g = g.reshape(len(g), columns.table.size)[:, columns.scatter]
    return net.backward(None, g, activations, out)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


# Adam's published defaults (Kingma & Ba 2015, arXiv:1412.6980), the same
# for every net and objective.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Adam's moments of one parameter vector, as vectors of its shape."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: FlatViews) -> "AdamState":
        return cls(m=np.zeros_like(params.vector), v=np.zeros_like(params.vector))


# Entries `adam_step` updates per pass: its temporaries (64 KiB each) stay
# below malloc's mmap threshold, so a step reuses heap memory instead of
# mapping fresh pages for every net-sized intermediate.
_ADAM_SLICE = 8192


def adam_step(params: FlatViews, grads: FlatViews, state: AdamState, lr: float):
    """Standard Adam update with bias correction; mutates params/state and
    clears the parameters' cache.
    Works in place on the parameter vector, slice by slice, and gives each
    entry exactly the arithmetic of the per-array update
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
    p -= lr (m / c1) / (sqrt(v / c2) + eps)."""
    p, grad = params.vector, grads.vector
    if p.shape != grad.shape or p.shape != state.m.shape:
        raise ShapeError(f"param/grad/state size mismatch: {p.size}, {grad.size}, "
                         f"{state.m.size}")
    params.cache.clear()
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    c1, c2 = 1 - b1**state.t, 1 - b2**state.t
    for lo in range(0, p.size, _ADAM_SLICE):
        part = slice(lo, lo + _ADAM_SLICE)
        g, m, v = grad[part], state.m[part], state.v[part]
        m *= b1
        m += (1 - b1) * g
        v *= b2
        gg = (1 - b2) * g
        gg *= g
        v += gg
        step = m / c1
        step *= lr
        den = np.divide(v, c2, out=gg)
        np.sqrt(den, out=den)
        den += eps
        step /= den
        p[part] -= step
    return params, state


def clip_grad_norm(grads: FlatViews, max_norm: float):
    """Scale all gradients so the global L2 norm is at most max_norm, which
    must be > 0: the squares are summed array by array, and a scale is
    applied in place to the whole gradient vector. Returns grads."""
    if not max_norm > 0:
        raise ContractError(f"max_norm must be > 0, got {max_norm!r}")
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads))
    if total > max_norm and total > 0:
        grads.vector *= max_norm / total
    return grads
