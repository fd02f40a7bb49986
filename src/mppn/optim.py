"""Adam optimizer with bias correction and coupled L2 weight decay.

The update is Kingma & Ba's with the bias corrections folded into the
step size (ICLR 2015, §2), and with the moments kept without their
``(1 − β)`` factors: ``Adam.m`` and ``Adam.v`` hold ``M = m/(1 − β1)``
and ``V = v/(1 − β2)``, where ``m`` and ``v`` are the textbook moments.
With ``g' = g + wd·θ`` a step is::

    M = β1·M + g'
    V = β2·V + g'²
    θ −= α'·M / (√V + ε̂)

where ``s = √((1 − β2)/(1 − β2ᵗ))``, ``α' = lr·(1 − β1)/(1 − β1ᵗ)/s`` and
``ε̂ = ε/s`` are scalars of the step.  This is the textbook update in exact
arithmetic, in 12 elementwise passes per block (10 without weight decay)
where the textbook form takes 16; in floating point the two differ by
rounding.

The update is elementwise, so a step cuts every parameter into blocks of
at most _BLOCK elements and drains them on two threads with
``pool.drain``.  Every element goes through the same operations in the
same order whichever thread updates it, so a step gives the same bits as
on one thread.

The shared worker is started by the first Adam with more than one block;
a process that builds no Adam and drains nothing else starts none.
"""
from __future__ import annotations

import math

import numpy as np

from . import pool
from .errors import ArgumentError
from .tensor import Tensor

# Elements per block: 512 KiB per scratch array.  The Python overhead of
# each ufunc call holds the GIL; at 8,192 it did so often enough that two
# threads took longer than one.
_BLOCK = 65536


class Adam:
    """Classic Adam; weight decay is folded into the gradient before the
    moment updates (coupled L2, not decoupled).

    No two parameters may share memory: each element is updated once, by
    one thread.
    """

    def __init__(self, params, lr: float = 1e-3, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 1e-5):
        # step() divides by 1 − β1ᵗ, by 1 − β2ᵗ and by the root of 1 − β2
        for name, value, ok, rule in (
                ("lr", lr, 0 < lr < math.inf, "finite and > 0"),
                ("beta1", beta1, 0 <= beta1 < 1, "in [0, 1)"),
                ("beta2", beta2, 0 <= beta2 < 1, "in [0, 1)"),
                ("eps", eps, 0 < eps < math.inf, "finite and > 0"),
                ("weight_decay", weight_decay, 0 <= weight_decay < math.inf, "finite and >= 0")):
            if not ok:
                raise ArgumentError(f"adam: {name} must be {rule}, got {value!r}")
        self.params: list[Tensor] = list(params)
        for j, q in enumerate(self.params):
            for i, p in enumerate(self.params[:j]):
                if p is q or np.shares_memory(p.data, q.data):
                    raise ArgumentError(f"adam: parameters {i} and {j} share memory")
        threads = pool._THREADS if sum(-(-p.size // _BLOCK) for p in self.params) > 1 else 1
        if threads > 1:
            # started before the moments are allocated: the thread's state,
            # if malloc'd above large arrays on the heap, keeps the heap from
            # shrinking when they are freed (8 MB more peak RSS on the bench)
            pool._workers()
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        # M = m/(1 − β1) and V = v/(1 − β2) of the textbook moments
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        for p in self.params:  # written now, not in step 1 (a mapped array faults in pages)
            p._spare = np.full_like(p.data, 0.0)
        # two scratch arrays per thread
        n = min(_BLOCK, max((p.size for p in self.params), default=0))
        self._scratch = [(np.empty(n), np.empty(n)) for _ in range(threads)]

    def step(self) -> None:
        """One update of every parameter, in place.

        Every parameter is checked before any is touched, so a step that
        raises changes nothing.  The step size ``α'`` and ``ε̂`` of the
        module docstring are computed once here, and each block is updated
        through the two scratch arrays of the thread that took it, so a
        step allocates no array the size of a parameter.
        ``p.grad`` is only read, since it may alias another tensor's
        gradient.  The operation order is the folded formula's,
        elementwise, so results are bit-identical to it (not to the
        textbook formula, which rounds differently).

        A failed update takes no further block, and its error is raised
        (the worker's if both threads failed).
        """
        for i, p in enumerate(self.params):
            if p.grad is None:
                raise ArgumentError(f"adam: parameter {i} has no gradient")
            if p.grad.shape != p.data.shape:
                raise ArgumentError(
                    f"adam: gradient shape {p.grad.shape} != parameter shape {p.data.shape}")
            if p.data.shape != self.m[i].shape:
                raise ArgumentError(
                    f"adam: parameter {i} has shape {p.data.shape}, not {self.m[i].shape}")
            if not p.data.flags.c_contiguous:
                raise ArgumentError(f"adam: parameter {i} is not C-contiguous")
        self.t += 1
        s = math.sqrt((1.0 - self.beta2) / (1.0 - self.beta2 ** self.t))
        alpha = self.lr * (1.0 - self.beta1) / (1.0 - self.beta1 ** self.t) / s
        eps_hat = self.eps / s
        # views, since p.data and the moments (zeros_like of it) are contiguous
        flat = [tuple(x.reshape(-1) for x in (p.data, m, v, p.grad))
                for p, m, v in zip(self.params, self.m, self.v)]
        blocks = [tuple(x[lo:lo + _BLOCK] for x in arrays)
                  for arrays in flat for lo in range(0, arrays[0].size, _BLOCK)]
        pool.drain(blocks, self._update, [(scratch, alpha, eps_hat) for scratch in self._scratch])

    def _update(self, block, scratch, alpha: float, eps_hat: float) -> None:
        """Update one (data, M, V, grad) block of flat views in place.
        Runs on a worker thread too, so it calls no other function of the
        package."""
        data, m, v, g = block
        a, b = (x[:data.size] for x in scratch)
        if self.weight_decay:
            np.multiply(data, self.weight_decay, out=a)
            g = np.add(g, a, out=a)
        m *= self.beta1
        m += g
        v *= self.beta2
        v += np.multiply(g, g, out=b)
        np.sqrt(v, out=b)
        b += eps_hat
        np.multiply(m, alpha, out=a)  # g is no longer read
        a /= b
        data -= a

    def zero_grad(self) -> None:
        """Drop every parameter's gradient.

        Each dropped array stays on its parameter as a one-use spare (a new
        Adam gives each one a first), which the next pullback producing the
        parameter's whole gradient (``tensor.grad_buffer``) may overwrite
        instead of allocating.  Copy a gradient needed after zero_grad.
        """
        for p in self.params:
            if p.grad is not None:
                p._spare = p.grad
            p.grad = None
