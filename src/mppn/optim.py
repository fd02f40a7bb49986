"""Adam optimizer with bias correction and coupled L2 weight decay."""
from __future__ import annotations

import numpy as np

from .errors import ArgumentError
from .tensor import Tensor

# Elements per scratch block of Adam.step: 64 KiB per block, small enough
# that the update's working set stays in cache and that no step allocates
# an array the size of a large parameter.
_BLOCK = 8192


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

        Each parameter is updated _BLOCK elements at a time through two
        scratch blocks, so a step allocates no array the size of a
        parameter and its working set stays in cache.  ``p.grad`` is only
        read, since it may alias another tensor's gradient.  The operation
        order is the textbook formula's, elementwise, so results are
        bit-identical to it.
        """
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        scratch_a, scratch_b = np.empty(_BLOCK), np.empty(_BLOCK)
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ArgumentError(f"adam: parameter {i} has no gradient")
            if p.grad.shape != p.data.shape:
                raise ArgumentError(
                    f"adam: gradient shape {p.grad.shape} != parameter shape {p.data.shape}")
            if not p.data.flags.c_contiguous:
                raise ArgumentError(f"adam: parameter {i} is not C-contiguous")
            # views, since p.data and the moments (zeros_like of it) are contiguous
            data, m_all, v_all = (x.reshape(-1) for x in (p.data, self.m[i], self.v[i]))
            g_all = p.grad.reshape(-1)
            for lo in range(0, data.size, _BLOCK):
                hi = min(lo + _BLOCK, data.size)
                a, b = scratch_a[:hi - lo], scratch_b[:hi - lo]
                m, v, g = m_all[lo:hi], v_all[lo:hi], g_all[lo:hi]
                if self.weight_decay:
                    np.multiply(data[lo:hi], self.weight_decay, out=a)
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
                data[lo:hi] -= a

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
