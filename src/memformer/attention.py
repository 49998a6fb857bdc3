"""Memory-conditioned attention over a FIFO bank, plus a standard
self-attention baseline for ablations.

The memory block attends each token against a fixed-capacity bank of M_len
entries instead of the other tokens, so the score tensor is
B x h x (N+1) x M_len: linear in sequence length. In train mode the bank is
refreshed mid-forward: the first pass's output is averaged over batch and
tokens into one new entry, the oldest entry is dropped, and attention is
recomputed against the updated bank before the residual.

The bank is a plain (M_len, K) numpy array held by the block, oldest row
first, never a graph node: updates are detached by construction and no
gradient can reach stored entries.

Each ``attend`` call records one autodiff node with a hand-written backward.
The forward splits heads with reshape/transpose views. The scores are
bank-major: ``kh @ swapaxes(qh)`` is written into a (B, h, L, T) view of a
buffer stored slot by slot, (L, B, h, T) in memory. The softmax over the
bank axis then runs in place as one elementwise pass over a contiguous
(B, h, T) block per bank slot, instead of one numpy reduce per L-long row,
which costs more than the GEMMs when L = M_len = 10. Its sum, forward and
backward, is ``autodiff._col_sum``: slots added in index order, as in every
softmax. The weighted sum and the query and bank gradients are GEMMs that
write straight into (B, T, h, d) buffers, so merging heads copies nothing.
The backward works in the same layout and repeats the grad ops of the
equivalent chain of primitives (reshape, transpose, matmul, scale, softmax)
in that chain's order, so values and gradients are bitwise those of the
chain. ``attend`` always returns its softmax weights too, as a constant, so
every block's ``forward`` returns ``(output, weights)``; the memory block's
weights are those of its first pass.

Note that the all-zero initial bank is a fixed point of the update rule:
zero entries give zero-valued attention output everywhere, and the mean of
zeros appends another zero row. Training from scratch therefore leaves the
bank at zero and the attention term contributes nothing beyond the query
residual; the bank only carries signal if its entries are set externally
(tests and checkpoints do). This follows directly from the zero
initialization plus the pre-residual average in the update, both kept as
specified.
"""

from __future__ import annotations

import contextlib

import numpy as np

from . import autodiff as ad
from ._checks import _require_int

__all__ = [
    "project_memory",
    "attend",
    "residual_norm",
    "update_memory",
    "MemoryAttention",
    "StandardAttention",
]


def project_memory(bank, w_k, w_v):
    """The bank's key/value projections, computed once for the whole batch.

    ``bank`` is the (M_len, K) array. Returns (K_m, V_m), each
    (1, M_len, K); ``attend`` broadcasts the leading 1 over the batch.
    """
    width = bank.shape[1]
    if width != w_k.shape[0]:
        raise ValueError(f"bank width {width} != projection width {w_k.shape[0]}")
    m = ad.constant(bank[None])
    return ad.matmul(m, w_k), ad.matmul(m, w_v)


def attend(q, k_mem, v_mem, heads):
    """Scaled dot-product attention of queries against a key/value bank.

    ``q`` is (B, T, K); ``k_mem``/``v_mem`` are (B, L, K) or (1, L, K) where
    L is the bank length (M_len here, or T for self-attention); a batch of 1
    is shared by every query row. Scores are scaled by 1/sqrt(K/heads) per
    head and softmaxed over the bank axis. Returns ``(out, weights)``: the
    (B, T, K) output node and the weights as a constant (B, h, T, L) tensor,
    a transposed view of the bank-major (B, h, L, T) score buffer whose
    memory is slot-major (L, B, h, T).
    """
    if q.ndim != 3 or k_mem.ndim != 3 or v_mem.ndim != 3:
        raise ValueError(f"attend needs rank-3 inputs, got shapes {q.shape}, {k_mem.shape}, {v_mem.shape}")
    b, t, k = q.shape
    heads = _require_int("heads", heads, 1)
    if k % heads != 0:
        raise ValueError(f"head count {heads} must divide width {k}")
    if k_mem.shape[0] not in (1, b) or k_mem.shape[2] != k or v_mem.shape != k_mem.shape:
        raise ValueError(f"bank shapes {k_mem.shape}, {v_mem.shape} do not match queries {q.shape}")
    d = k // heads
    bank_shape = k_mem.shape
    n, length = bank_shape[:2]
    qh = q.data.reshape(b, t, heads, d).transpose(0, 2, 1, 3)
    kh = k_mem.data.reshape(n, length, heads, d).transpose(0, 2, 1, 3)
    vh = v_mem.data.reshape(n, length, heads, d).transpose(0, 2, 1, 3)
    scale = 1.0 / np.sqrt(d)
    # bank-major scores (B, h, L, T) in slot-major memory: the softmax
    # reduces over axis -2, one contiguous (B, h, T) block per bank slot
    scores = np.empty((length, b, heads, t)).transpose(1, 2, 0, 3)
    np.matmul(kh, np.swapaxes(qh, -1, -2), out=scores)
    scores *= scale
    ad._softmax(scores, scores)
    weights = np.swapaxes(scores, -1, -2)
    out = _merge_heads_matmul(weights, vh, ad._empty((b, t, heads, d)))

    def grad_fn(g):
        # the gradient GEMMs read the output gradient as a contiguous
        # (B, h, T, d) buffer, as the chain's weighted-sum matmul did
        g_out = np.ascontiguousarray(g.reshape(b, t, heads, d).transpose(0, 2, 1, 3))
        g_v = ad._unbroadcast(_merge_heads_matmul(scores, g_out), bank_shape)
        # empty_like keeps the scores' slot-major memory order
        g_s = np.matmul(vh, np.swapaxes(g_out, -1, -2), out=np.empty_like(scores))
        g_s -= ad._col_sum(g_s * scores)
        g_s *= scores
        g_s *= scale
        g_q = _merge_heads_matmul(np.swapaxes(g_s, -1, -2), kh)
        g_k = ad._unbroadcast(_merge_heads_matmul(g_s, qh), bank_shape)
        return g_q, g_k, g_v

    return ad._node(out, (q, k_mem, v_mem), grad_fn, "attend"), ad.constant(weights)


def _merge_heads_matmul(a, c, out=None):
    """``a @ c`` for (B, h, m, p) @ (1 or B, h, p, d), written by the GEMM
    straight into a (B, m, h, d) buffer (``out`` if given) and returned as
    (B, m, h*d), so the heads merge without a copy."""
    b, heads, m = a.shape[:3]
    if out is None:
        out = np.empty((b, m, heads, c.shape[-1]))
    np.matmul(a, c, out=out.transpose(0, 2, 1, 3))
    return out.reshape(b, m, -1)


def residual_norm(x, y, gain, bias, rate=0.0, rng=None, train=False):
    """LayerNorm(x + y) along the embedding axis, with dropout on ``y`` in train mode.

    The sum and the norm are one node: the sum goes into a fresh buffer that
    is then normalised in place, and ``x`` and ``y`` get the same gradient.
    """
    y = ad.dropout(y, rate, rng, train)
    return ad._layer_norm(x.data + y.data, (x, y), gain, bias, "residual_norm")


def update_memory(bank, attn_out):
    """Return ``bank`` with its oldest row dropped and the batch-and-token
    mean of the (B, T, K) tensor ``attn_out`` appended.

    The new bank is a fresh array of raw data, never part of the compute graph.
    """
    data = attn_out.data
    width = bank.shape[1]
    if data.ndim != 3 or data.shape[2] != width:
        raise ValueError(f"attention output {data.shape} does not match bank width {width}")
    return np.concatenate([bank[1:], data.mean(axis=(0, 1))[None]], axis=0)


class _AttentionBlock:
    """Projections, residual LayerNorm and dropout shared by both blocks.

    Subclasses define ``forward``, which differs only in where keys and
    values come from, finishes with ``residual_norm`` and returns the
    block output with its attention weights.
    """

    def __init__(self, embed_dim, heads, rng, dropout_rate):
        embed_dim = _require_int("embed_dim", embed_dim, 1)
        self.heads = heads = _require_int("heads", heads, 1)
        if embed_dim % heads != 0:
            raise ValueError(f"head count {heads} must divide embed dim {embed_dim}")
        self.w_q = ad.glorot_uniform(rng, (embed_dim, embed_dim))
        self.w_k = ad.glorot_uniform(rng, (embed_dim, embed_dim))
        self.w_v = ad.glorot_uniform(rng, (embed_dim, embed_dim))
        self.gain = ad.parameter(np.ones(embed_dim))
        self.bias = ad.parameter(np.zeros(embed_dim))
        self.dropout_rate = dropout_rate

    def parameters(self, prefix):
        return {
            f"{prefix}.w_q": self.w_q,
            f"{prefix}.w_k": self.w_k,
            f"{prefix}.w_v": self.w_v,
            f"{prefix}.ln_gain": self.gain,
            f"{prefix}.ln_bias": self.bias,
        }


class MemoryAttention(_AttentionBlock):
    """One memory-enhanced attention block: attend, refresh bank, re-attend.

    ``memory`` is the (M_len, K) bank. Eval mode never touches it, so
    inference is a pure function of inputs, parameters, and the stored
    entries.
    """

    def __init__(self, embed_dim, heads, capacity, rng, dropout_rate):
        capacity = _require_int("capacity", capacity, 1)
        super().__init__(embed_dim, heads, rng, dropout_rate)
        self.memory = np.zeros((capacity, embed_dim))

    def forward(self, z, train=False, rng=None):
        """(B, N+1, K) tokens -> ((B, N+1, K) block output, first-pass weights).

        Train mode performs the FIFO refresh and second attention pass, then
        applies dropout to the attention output before the residual.
        """
        q = ad.matmul(z, self.w_q)
        # in train mode the first pass only feeds the bank update, so it
        # records no graph; the loss sees the second pass
        with ad.no_grad() if train else contextlib.nullcontext():
            k_m, v_m = project_memory(self.memory, self.w_k, self.w_v)
            attn, weights = attend(q, k_m, v_m, self.heads)
        if train:
            self.memory = update_memory(self.memory, attn)
            k_m, v_m = project_memory(self.memory, self.w_k, self.w_v)
            attn, _ = attend(q, k_m, v_m, self.heads)
        return residual_norm(q, attn, self.gain, self.bias, self.dropout_rate, rng, train), weights


class StandardAttention(_AttentionBlock):
    """Plain one-pass multi-head self-attention with the same residual norm.

    Keys and values come from the token sequence itself, so the score tensor
    is B x h x (N+1) x (N+1) and there is no memory state.
    """

    def forward(self, z, train=False, rng=None):
        q = ad.matmul(z, self.w_q)
        k = ad.matmul(z, self.w_k)
        v = ad.matmul(z, self.w_v)
        attn, weights = attend(q, k, v, self.heads)
        return residual_norm(q, attn, self.gain, self.bias, self.dropout_rate, rng, train), weights
