"""Adam optimizer with bias correction and coupled L2 weight decay."""
from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .tensor import Tensor


class Adam:
    """Classic Adam; weight decay is folded into the gradient before the
    moment updates (coupled L2, not decoupled).
    """

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 1e-5):
        self.params: list[Tensor] = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update of every parameter, in place.

        Two scratch buffers sized to the largest parameter hold the
        intermediates; ``p.grad`` is only read, since it may alias another
        tensor's gradient.  The operation order is the textbook formula's,
        so results are bit-identical to it.
        """
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        largest = max((p.data.size for p in self.params), default=0)
        scratch_a, scratch_b = np.empty(largest), np.empty(largest)
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ArgumentError(f"adam: parameter {i} has no gradient")
            if p.grad.shape != p.data.shape:
                raise ArgumentError(
                    f"adam: gradient shape {p.grad.shape} != parameter shape {p.data.shape}")
            m, v = self.m[i], self.v[i]
            a = scratch_a[:p.data.size].reshape(p.data.shape)
            b = scratch_b[:p.data.size].reshape(p.data.shape)
            g = p.grad
            if self.weight_decay:
                np.multiply(p.data, self.weight_decay, out=a)
                g = np.add(g, a, out=a)
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=b)
            v *= self.beta2
            np.multiply(g, g, out=b)
            b *= 1.0 - self.beta2
            v += b
            np.divide(v, bc2, out=b)  # v_hat
            np.sqrt(b, out=b)
            b += self.eps
            np.divide(m, bc1, out=a)  # m_hat; g is no longer read
            a *= self.lr
            a /= b
            p.data -= a

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
