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


def _split_heads(x, heads):
    b, t, k = x.shape
    return ad.transpose(ad.reshape(x, (b, t, heads, k // heads)), (0, 2, 1, 3))


def attend(q, k_mem, v_mem, heads, return_weights=False):
    """Scaled dot-product attention of queries against a key/value bank.

    ``q`` is (B, T, K); ``k_mem``/``v_mem`` are (B, L, K) or (1, L, K) where
    L is the bank length (M_len here, or T for self-attention); a batch of 1
    is shared by every query row. Scores are scaled by 1/sqrt(K/heads) per
    head and softmaxed over the bank axis.
    """
    if q.ndim != 3 or k_mem.ndim != 3 or v_mem.ndim != 3:
        raise ValueError("attend expects rank-3 (batch, tokens, width) inputs")
    b, t, k = q.shape
    if heads < 1 or k % heads != 0:
        raise ValueError(f"head count {heads} must divide width {k}")
    if k_mem.shape[0] not in (1, b) or k_mem.shape[2] != k or v_mem.shape != k_mem.shape:
        raise ValueError(f"bank shapes {k_mem.shape}, {v_mem.shape} do not match queries {q.shape}")
    qh = _split_heads(q, heads)
    kh = _split_heads(k_mem, heads)
    vh = _split_heads(v_mem, heads)
    scale = 1.0 / np.sqrt(k // heads)
    scores = ad.mul(ad.matmul(qh, ad.transpose(kh, (0, 1, 3, 2))), scale)
    weights = ad.softmax_rows(scores)
    out = ad.matmul(weights, vh)
    out = ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (b, t, k))
    if return_weights:
        return out, weights
    return out


def residual_norm(x, y, gain, bias, rate=0.0, rng=None, train=False):
    """LayerNorm(x + y) along the embedding axis, with dropout on ``y`` in train mode."""
    if train and rate > 0:
        y = ad.dropout(y, rate, rng, train=True)
    return ad.layer_norm(ad.add(x, y), gain, bias)


def update_memory(bank, attn_out):
    """Return ``bank`` with its oldest row dropped and the batch-and-token
    mean of ``attn_out`` appended.

    The new bank is a fresh array of raw data, never part of the compute graph.
    """
    data = attn_out.data if isinstance(attn_out, ad.Tensor) else np.asarray(attn_out)
    width = bank.shape[1]
    if data.ndim != 3 or data.shape[2] != width:
        raise ValueError(f"attention output {data.shape} does not match bank width {width}")
    return np.concatenate([bank[1:], data.mean(axis=(0, 1))[None]], axis=0)


class _AttentionBlock:
    """Projections, residual LayerNorm and dropout shared by both blocks.

    Subclasses define ``forward``, which differs only in where keys and
    values come from, and finish it with ``residual_norm``.
    """

    def __init__(self, embed_dim, heads, rng, dropout_rate=0.1):
        if heads < 1 or embed_dim % heads != 0:
            raise ValueError(f"head count {heads} must divide embed dim {embed_dim}")
        self.heads = heads
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

    def __init__(self, embed_dim, heads, capacity, rng, dropout_rate=0.1):
        if capacity < 1 or embed_dim < 1:
            raise ValueError(f"capacity and width must be >= 1, got {capacity}, {embed_dim}")
        super().__init__(embed_dim, heads, rng, dropout_rate)
        self.memory = np.zeros((capacity, embed_dim))

    def forward(self, z, train=False, rng=None, return_weights=False):
        """(B, N+1, K) tokens -> (B, N+1, K) block output.

        Train mode performs the FIFO refresh and second attention pass, then
        applies dropout to the attention output before the residual.
        """
        if z.ndim != 3:
            raise ValueError(f"expected (batch, tokens, width) input, got {z.shape}")
        q = ad.matmul(z, self.w_q)
        # in train mode the first pass only feeds the bank update, so it
        # records no graph; the loss sees the second pass
        with ad.no_grad() if train else contextlib.nullcontext():
            k_m, v_m = project_memory(self.memory, self.w_k, self.w_v)
            attn, first_weights = attend(q, k_m, v_m, self.heads, return_weights=True)
        if train:
            self.memory = update_memory(self.memory, attn)
            k_m, v_m = project_memory(self.memory, self.w_k, self.w_v)
            attn = attend(q, k_m, v_m, self.heads)
        out = residual_norm(q, attn, self.gain, self.bias, self.dropout_rate, rng, train)
        if return_weights:
            return out, first_weights
        return out


class StandardAttention(_AttentionBlock):
    """Plain one-pass multi-head self-attention with the same residual norm.

    Keys and values come from the token sequence itself, so the score tensor
    is B x h x (N+1) x (N+1) and there is no memory state.
    """

    def forward(self, z, train=False, rng=None, return_weights=False):
        if z.ndim != 3:
            raise ValueError(f"expected (batch, tokens, width) input, got {z.shape}")
        q = ad.matmul(z, self.w_q)
        k = ad.matmul(z, self.w_k)
        v = ad.matmul(z, self.w_v)
        attn, weights = attend(q, k, v, self.heads, return_weights=True)
        out = residual_norm(q, attn, self.gain, self.bias, self.dropout_rate, rng, train)
        if return_weights:
            return out, weights
        return out
