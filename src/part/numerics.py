"""Dense float64 numerics: Adam, sliced softmax cross-entropy, gradient oracle.

Matrices are plain C-contiguous float64 numpy arrays throughout the
package; this module owns the optimizer step, the loss used by every
training procedure, and the finite-difference check that every gradient
path is verified against.

Adam has one elementwise kernel, `adam_update`. `adam_step` applies it to
one tensor; `FlatAdam` applies it to many tensors of one flat parameter
vector at once, with the same bits as looping `adam_step` over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, NumericError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    """Per-tensor Adam moments. One instance per parameter tensor, shared
    by every task that updates the tensor, so moments accumulate across
    tasks touching a shared module."""

    m: np.ndarray
    v: np.ndarray
    lr: float
    step: int = 0
    beta1: float = ADAM_BETA1
    beta2: float = ADAM_BETA2
    eps: float = ADAM_EPS

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float) -> "AdamState":
        if lr <= 0:
            raise InputError(f"lr must be positive, got {lr}")
        return cls(m=np.zeros_like(param), v=np.zeros_like(param), lr=lr)


def adam_update(params, m, v, grads, lr, c1, c2, beta1, beta2, eps):
    """The elementwise Adam kernel; returns (new_params, new_m, new_v).

    c1 and c2 are the bias corrections 1 - beta1**t and 1 - beta2**t, as
    scalars or per element. Every caller goes through this expression, so
    per-tensor and fused steps round identically.
    """
    m = beta1 * m + (1.0 - beta1) * grads
    v = beta2 * v + (1.0 - beta2) * grads * grads
    m_hat = m / c1
    v_hat = v / c2
    return params - lr * m_hat / (np.sqrt(v_hat) + eps), m, v


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState):
    """One Adam update with bias correction; returns (new_params, new_state).

    Pure: inputs are never mutated. An identically-zero gradient tensor is
    a fixed point regardless of accumulated moments (the step counter still
    advances); with nonzero moments a plain Adam step would drift the
    parameter, which must not happen for tensors a batch did not touch.
    """
    if params.shape != grads.shape:
        raise InputError(f"param/grad shape mismatch: {params.shape} vs {grads.shape}")
    if state.m.shape != params.shape or state.v.shape != params.shape:
        raise InputError("Adam state shape does not match parameter shape")
    t = state.step + 1
    if not np.any(grads):
        new_params, m, v = params.copy(), state.m.copy(), state.v.copy()
    else:
        new_params, m, v = adam_update(params, state.m, state.v, grads, state.lr,
                                       1.0 - state.beta1 ** t, 1.0 - state.beta2 ** t,
                                       state.beta1, state.beta2, state.eps)
    new_state = AdamState(m=m, v=v, lr=state.lr, step=t,
                          beta1=state.beta1, beta2=state.beta2, eps=state.eps)
    return new_params, new_state


@dataclass(frozen=True)
class Segments:
    """Tensors inside a flat vector: `index` lists the positions of their
    elements, tensor after tensor; tensor i is index[starts[i]:][:lengths[i]]."""

    index: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    @classmethod
    def of(cls, positions: Sequence[np.ndarray]) -> "Segments":
        lengths = np.array([p.size for p in positions], dtype=np.int64)
        index = np.concatenate([np.zeros(0, dtype=np.int64), *positions]).astype(np.int64)
        return cls(index=index, starts=np.cumsum(lengths) - lengths, lengths=lengths)


class FlatAdam:
    """Adam over tensors of one flat parameter vector.

    The moments m and v are as long as the vector. Each tensor has its own
    step counter, kept at the position of its first element, so a tensor
    shared by several tasks advances on every step that includes it. A step
    updates one set of tensors at once and gives the same bits as
    `adam_step` on each tensor in turn: the same kernel, bias corrections
    from Python float powers (computed once per step value), and the
    zero-gradient fixed point per tensor.
    """

    def __init__(self, size: int):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.steps = np.zeros(size, dtype=np.int64)
        self._c1 = np.zeros(1)      # 1 - beta1**t by step t (t = 0 unused)
        self._c2 = np.zeros(1)

    def _corrections(self, t: np.ndarray):
        top = int(t.max(initial=0))
        if top >= self._c1.size:
            new = range(self._c1.size, max(top + 1, 2 * self._c1.size))
            self._c1 = np.concatenate([self._c1, [1.0 - ADAM_BETA1 ** s for s in new]])
            self._c2 = np.concatenate([self._c2, [1.0 - ADAM_BETA2 ** s for s in new]])
        return self._c1[t], self._c2[t]

    def step(self, params: np.ndarray, grads: np.ndarray, segments: Segments,
             lr: float) -> None:
        """Update params in place at segments.index with grads (same order).
        Tensors whose gradient is identically zero keep their parameters and
        moments; their counters advance."""
        if grads.shape != segments.index.shape:
            raise InputError(f"expected {segments.index.size} gradient values, got {grads.shape}")
        first = segments.index[segments.starts]
        t = self.steps[first] + 1
        self.steps[first] = t
        c1, c2 = self._corrections(t)
        index, lengths = segments.index, segments.lengths
        active = np.logical_or.reduceat(grads != 0, segments.starts)
        if not active.all():
            keep = np.repeat(active, lengths)
            index, grads = index[keep], grads[keep]
            c1, c2, lengths = c1[active], c2[active], lengths[active]
        params[index], self.m[index], self.v[index] = adam_update(
            params[index], self.m[index], self.v[index], grads, lr,
            np.repeat(c1, lengths), np.repeat(c2, lengths), ADAM_BETA1, ADAM_BETA2, ADAM_EPS)


def softmax_xent_slice(logits: np.ndarray, labels: np.ndarray, sl: tuple[int, int]):
    """Mean cross-entropy with softmax restricted to output columns [start, end).

    Labels are slice-local (0 .. end-start-1). Returns (loss, dlogits)
    where dlogits has the full logits shape, is (softmax - onehot)/n inside
    the slice and exactly zero outside, so no other task's output neurons
    ever receive gradient.
    """
    start, end = sl
    n, c_total = logits.shape
    if not (0 <= start < end <= c_total):
        raise InputError(f"slice [{start},{end}) out of range for {c_total} columns")
    labels = np.asarray(labels)
    width = end - start
    if labels.shape != (n,):
        raise InputError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= width):
        raise InputError(f"labels must lie in [0,{width}) for slice [{start},{end})")

    z = logits[:, start:end]
    z = z - z.max(axis=1, keepdims=True)
    expz = np.exp(z)
    p = expz / expz.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    # log-softmax evaluated directly for numerical honesty at saturation
    logp = z - np.log(expz.sum(axis=1, keepdims=True))
    loss = -logp[rows, labels].mean()

    dslice = p.copy()
    dslice[rows, labels] -= 1.0
    dslice /= n
    dlogits = np.zeros_like(logits)
    dlogits[:, start:end] = dslice
    return float(loss), dlogits


def finite_diff_check(
    f: Callable[[Sequence[np.ndarray]], float],
    params: Sequence[np.ndarray] | np.ndarray,
    analytic_grads: Sequence[np.ndarray] | np.ndarray,
    h: float = 1e-5,
) -> float:
    """Max relative error between central differences of f and analytic grads.

    `params` is one array or a list of arrays; f is called with the (possibly
    perturbed) list. Relative error per element uses denominator
    max(|analytic|, |numeric|, 1e-8). The perturbation loop is the oracle:
    it never calls any backward code.
    """
    single = isinstance(params, np.ndarray)
    plist = [params] if single else list(params)
    glist = [analytic_grads] if single else list(analytic_grads)
    if len(plist) != len(glist):
        raise InputError("params and analytic_grads must pair up")
    work = [p.astype(np.float64).copy() for p in plist]
    worst = 0.0
    for k, (p, g) in enumerate(zip(work, glist)):
        if p.shape != np.asarray(g).shape:
            raise InputError(f"grad {k} shape {np.asarray(g).shape} != param shape {p.shape}")
        flat = p.reshape(-1)
        gflat = np.asarray(g, dtype=np.float64).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = f(work)
            flat[i] = orig - h
            f_minus = f(work)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError("non-finite loss during finite differencing")
            num = (f_plus - f_minus) / (2.0 * h)
            denom = max(abs(num), abs(gflat[i]), 1e-8)
            worst = max(worst, abs(num - gflat[i]) / denom)
    return worst
