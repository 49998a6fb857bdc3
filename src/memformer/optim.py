"""Adam with decoupled weight decay over a named parameter dict."""

from __future__ import annotations

import numpy as np

from .model import _require_float

__all__ = ["Adam"]

# Kingma & Ba's (2015) recommended moment decays and denominator offset
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam; weight decay is applied additively, not via grads.

    The update per step t is

        m = b1*m + (1-b1)*g          v = b2*v + (1-b2)*g^2
        p -= lr * m_hat / (sqrt(v_hat) + eps) + lr * wd * p

    with m_hat, v_hat the bias-corrected moments and the constants b1 = 0.9,
    b2 = 0.999 and eps = 1e-8. A parameter with no grad recorded steps as if
    its gradient were zero, so decay still applies.
    """

    def __init__(self, params, lr=1e-3, weight_decay=0.0):
        self.lr = _require_float("learning rate", lr, np.inf)
        self.weight_decay = _require_float("weight decay", weight_decay, np.inf)
        self.params = dict(params)
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None

    def step(self):
        """Apply one update from the gradients currently on the parameters.

        Every gradient is checked first, so a rejected step changes no state.
        """
        for name, p in self.params.items():
            if p.grad is not None and not np.isfinite(p.grad).all():
                raise ValueError(f"non-finite gradient for parameter {name!r}; step rejected")
        self.t += 1
        correction1 = 1.0 - _BETA1**self.t
        correction2 = 1.0 - _BETA2**self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + _EPS)
            p.data -= self.lr * self.weight_decay * p.data
