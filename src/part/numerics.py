"""Dense float64 numerics: Adam, sliced softmax cross-entropy, gradient oracle.

Matrices are plain C-contiguous float64 numpy arrays throughout the
package; this module owns the optimizer step, the loss used by every
training procedure, and the finite-difference check that every gradient
path is verified against.

Adam has one elementwise kernel, `adam_update`, which works in place.
`adam_step` applies it to copies of one tensor and its moments; `FlatAdam`
applies it to many tensors of one flat parameter vector at once (gathered,
updated, scattered back), with the same bits as looping `adam_step` over
them.
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

    @classmethod
    def for_param(cls, param: np.ndarray, lr: float) -> "AdamState":
        if lr <= 0:
            raise InputError(f"lr must be positive, got {lr}")
        return cls(m=np.zeros_like(param), v=np.zeros_like(param), lr=lr)


def adam_update(params, m, v, grads, lr, c1, c2, beta1, beta2, eps) -> None:
    """The elementwise Adam kernel, in place on params, m and v.

    c1 and c2 are the bias corrections 1 - beta1**t and 1 - beta2**t, as
    scalars or per element. Every caller goes through this kernel, so
    per-tensor and fused steps round identically. Each line computes, in
    the same order, one piece of
        m = beta1 * m + (1 - beta1) * grads
        v = beta2 * v + (1 - beta2) * grads * grads
        params = params - lr * (m / c1) / (sqrt(v / c2) + eps)
    """
    m *= beta1
    m += (1.0 - beta1) * grads
    v *= beta2
    g2 = (1.0 - beta2) * grads
    g2 *= grads
    v += g2
    v_hat = np.divide(v, c2, out=g2)
    np.sqrt(v_hat, out=v_hat)
    v_hat += eps
    m_hat = m / c1
    m_hat *= lr
    m_hat /= v_hat
    params -= m_hat


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
    new_params, m, v = params.copy(), state.m.copy(), state.v.copy()
    if np.any(grads):
        adam_update(new_params, m, v, grads, state.lr, 1.0 - ADAM_BETA1 ** t,
                    1.0 - ADAM_BETA2 ** t, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
    return new_params, AdamState(m=m, v=v, lr=state.lr, step=t)


@dataclass(frozen=True)
class Segments:
    """Tensors inside a flat vector: `index` lists the positions of their
    elements, tensor after tensor; tensor i is index[starts[i]:][:lengths[i]]
    and starts at position first[i]."""

    index: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray
    first: np.ndarray

    @classmethod
    def of(cls, positions: Sequence[np.ndarray]) -> "Segments":
        lengths = np.array([p.size for p in positions], dtype=np.int64)
        index = np.concatenate([np.zeros(0, dtype=np.int64), *positions]).astype(np.int64)
        starts = np.cumsum(lengths) - lengths
        return cls(index=index, starts=starts, lengths=lengths, first=index[starts])


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
        # 1 - beta1**t and 1 - beta2**t (rows) by step t (columns; t = 0 unused)
        self._table = np.zeros((2, 1))

    def _corrections(self, t: np.ndarray) -> np.ndarray:
        """(2, len(t)): both bias corrections at each step value in t."""
        known = self._table.shape[1]
        top = int(t.max(initial=0))
        if top >= known:
            new = range(known, max(top + 1, 2 * known))
            self._table = np.concatenate([self._table, [[1.0 - ADAM_BETA1 ** s for s in new],
                                                        [1.0 - ADAM_BETA2 ** s for s in new]]],
                                         axis=1)
        return self._table[:, t]

    def step(self, params: np.ndarray, grads: np.ndarray, segments: Segments,
             lr: float) -> None:
        """Update params in place at segments.index with grads (same order).
        Tensors whose gradient is identically zero keep their parameters and
        moments; their counters advance."""
        if grads.shape != segments.index.shape:
            raise InputError(f"expected {segments.index.size} gradient values, got {grads.shape}")
        t = self.steps[segments.first] + 1
        self.steps[segments.first] = t
        corrections = self._corrections(t)
        index, lengths = segments.index, segments.lengths
        active = np.logical_or.reduceat(grads != 0, segments.starts)
        if not active.all():
            keep = np.repeat(active, lengths)
            index, grads = index[keep], grads[keep]
            corrections, lengths = corrections[:, active], lengths[active]
        c1, c2 = np.repeat(corrections, lengths, axis=1)
        p, m, v = params[index], self.m[index], self.v[index]
        adam_update(p, m, v, grads, lr, c1, c2, ADAM_BETA1, ADAM_BETA2, ADAM_EPS)
        params[index], self.m[index], self.v[index] = p, m, v


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
    loss, dslice = softmax_xent_kernel(logits[:, start:end], labels)
    dlogits = np.zeros_like(logits)
    dlogits[:, start:end] = dslice
    return loss, dlogits


def softmax_xent_kernel(z: np.ndarray, labels: np.ndarray):
    """The loss of `softmax_xent_slice` inside the slice, unchecked: z is
    the slice's (n, c) logits and every label lies in [0, c). Returns
    (loss, (softmax - onehot) / n) over z's columns."""
    # one exp-sum serves p and the log-softmax; the mean is sum / n, as
    # .mean computes it, and (p - onehot) / n is formed in place of exp(z)
    n = z.shape[0]
    z = z - np.maximum.reduce(z, axis=1, keepdims=True)
    expz = np.exp(z)
    total = np.add.reduce(expz, axis=1, keepdims=True)
    rows = np.arange(n)
    # log-softmax evaluated directly for numerical honesty at saturation
    logp = z[rows, labels] - np.log(total[:, 0])
    loss = -(np.add.reduce(logp) / n)
    dz = np.divide(expz, total, out=expz)
    dz[rows, labels] -= 1.0
    dz /= n
    return float(loss), dz


def finite_diff_check(
    f: Callable[[Sequence[np.ndarray]], float],
    params: Sequence[np.ndarray],
    analytic_grads: Sequence[np.ndarray],
    h: float = 1e-5,
) -> float:
    """Max relative error between central differences of f and analytic grads.

    `params` is a list of arrays; f is called with the (possibly perturbed)
    list. Relative error per element uses denominator
    max(|analytic|, |numeric|, 1e-8). The perturbation loop is the oracle:
    it never calls any backward code.
    """
    if isinstance(params, np.ndarray):
        raise InputError("params must be a list of arrays, not one array")
    plist, glist = list(params), list(analytic_grads)
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
