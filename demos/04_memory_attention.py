"""Poke at the memory-conditioned attention block: uniform first-pass
weights on an empty bank, the FIFO update, the two-pass training forward,
and the bank, a plain (capacity, width) array, staying outside the
gradient graph.
"""

import numpy as np

from memformer import autodiff as ad
from memformer.attention import MemoryAttention, attend, project_memory, update_memory

rng = np.random.default_rng(9)

print("== a fresh bank attends uniformly ==")
bank = np.zeros((4, 8))
w_q, w_k, w_v = (ad.glorot_uniform(rng, (8, 8)) for _ in range(3))
q = ad.matmul(ad.constant(rng.standard_normal((1, 3, 8))), w_q)
k_mem, v_mem = project_memory(bank, w_k, w_v)
out, attn_weights = attend(q, k_mem, v_mem, 2, return_weights=True)
print(f"keys are projected once and shared by the batch: shape {k_mem.shape}")
print(f"every weight equals 1/capacity = {1 / 4}: {bool(np.allclose(attn_weights.data, 0.25))}")
print(f"and the output is all zeros: {bool(np.all(out.data == 0.0))}")

print("\n== FIFO update ==")
for step in range(3):
    response = ad.constant(rng.standard_normal((2, 3, 8)))
    bank = update_memory(bank, response)
    filled = int((np.abs(bank).sum(axis=1) > 0).sum())
    print(f"after update {step + 1}: {filled} of 4 rows filled, newest at the end")
oldest_before = bank[1].copy()
bank = update_memory(bank, ad.constant(rng.standard_normal((2, 3, 8))))
print(f"rows shift by one: {bool(np.array_equal(bank[0], oldest_before))}")

print("\n== two-pass training forward ==")
block = MemoryAttention(8, 2, 4, rng, dropout_rate=0.0)
block.memory = rng.standard_normal((4, 8))
z = ad.constant(rng.standard_normal((2, 3, 8)))
bank_before = block.memory.copy()
out_train = block.forward(z, train=True)
print(f"training forward updated the bank: {not np.array_equal(block.memory, bank_before)}")
bank_after_train = block.memory.copy()
out_eval = block.forward(z, train=False)
print(f"eval forward left it alone: {bool(np.array_equal(block.memory, bank_after_train))}")

print("\n== the bank never receives gradients ==")
loss = ad.tensor_sum(block.forward(z, train=False))
loss.backward()
has_grads = all(p.grad is not None for p in block.parameters('blk').values())
print(f"all block parameters got gradients: {has_grads}")
print(f"bank is a plain array, not a graph node: {not isinstance(block.memory, ad.Tensor)}")
