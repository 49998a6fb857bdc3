"""Adam with decoupled weight decay over a named parameter dict."""

from __future__ import annotations

import numpy as np

__all__ = ["Adam"]


class Adam:
    """Bias-corrected Adam; weight decay is applied additively, not via grads.

    The update per step t is

        m = b1*m + (1-b1)*g          v = b2*v + (1-b2)*g^2
        p -= lr * m_hat / (sqrt(v_hat) + eps) + lr * wd * p

    with m_hat, v_hat the bias-corrected moments. A parameter with no grad
    recorded steps as if its gradient were zero, so decay still applies.
    """

    def __init__(self, params, lr=1e-3, weight_decay=0.0, beta1=0.9, beta2=0.999, eps=1e-8):
        # each test is written so that NaN fails it
        for name, value in (("learning rate", lr), ("weight decay", weight_decay)):
            if not 0 <= value < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {beta1}, {beta2}")
        if not 0 < eps < np.inf:
            raise ValueError(f"eps must be finite and > 0, got {eps}")
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
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
        correction1 = 1.0 - self.beta1**self.t
        correction2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / correction1
            v_hat = v / correction2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
            p.data -= self.lr * self.weight_decay * p.data
