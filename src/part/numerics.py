"""Dense float64 numerics: Adam, a task's softmax cross-entropy, gradient oracle.

Matrices are plain C-contiguous float64 numpy arrays throughout the
package; this module owns the optimizer step, the loss used by every
training procedure, and the finite-difference check that every gradient
path is verified against.

Adam has one elementwise kernel, `adam_update`, which works in place.
`adam_step` applies it to copies of one tensor and its moments; `FlatAdam`
applies it to many tensors of one flat parameter vector at once (gathered,
updated, scattered back), with the same bits as looping `adam_step` over
them. It keeps the moments of the tensors it last stepped gathered, since
the next step mostly updates the same ones.
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


def adam_update(params, m, v, grads, lr, c1, c2) -> None:
    """The elementwise Adam kernel, in place on params, m and v.

    c1 and c2 are the bias corrections 1 - beta1**t and 1 - beta2**t, as
    scalars or per element. Every caller goes through this kernel, so
    per-tensor and fused steps round identically. Each line computes, in
    the same order, one piece of (beta1, beta2, eps: the ADAM_* constants)
        m = beta1 * m + (1 - beta1) * grads
        v = beta2 * v + (1 - beta2) * grads * grads
        params = params - lr * (m / c1) / (sqrt(v / c2) + eps)
    """
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * grads
    v *= ADAM_BETA2
    g2 = (1.0 - ADAM_BETA2) * grads
    g2 *= grads
    v += g2
    v_hat = np.divide(v, c2, out=g2)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
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
                    1.0 - ADAM_BETA2 ** t)
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
    from Python float powers (computed once per step value, and one scalar
    pair when every counter in the step is equal), and the zero-gradient
    fixed point per tensor.

    The moments and counters of the last-stepped `Segments` stay gathered
    between steps, and go back into the full vectors only when other
    segments step (a training task mostly steps after itself). `m`, `v`
    and `steps` read as current, as read-only views.
    """

    def __init__(self, size: int):
        self._m = np.zeros(size)
        self._v = np.zeros(size)
        self._steps = np.zeros(size, dtype=np.int64)
        # (segments, m, v, steps, whether those steps are all equal) gathered
        # at the segments last stepped
        self._held = None
        # 1 - beta1**t and 1 - beta2**t (rows) by step t (columns; t = 0 unused)
        self._table = np.zeros((2, 1))

    def _put_back(self) -> None:
        """Scatter the held moments and counters into the full vectors."""
        if self._held is not None:
            segments, m, v, t, _ = self._held
            self._m[segments.index], self._v[segments.index] = m, v
            self._steps[segments.first] = t

    def _read(self, full: np.ndarray) -> np.ndarray:
        self._put_back()
        view = full.view()
        view.flags.writeable = False
        return view

    @property
    def m(self) -> np.ndarray:
        return self._read(self._m)

    @property
    def v(self) -> np.ndarray:
        return self._read(self._v)

    @property
    def steps(self) -> np.ndarray:
        return self._read(self._steps)

    def _corrections(self, t: np.ndarray, uniform: bool) -> np.ndarray:
        """Both bias corrections at each step value in t, (2, len(t)); if
        `uniform` (every counter in t is equal), one scalar pair of shape
        (2,): dividing by it gives the same bits."""
        known = self._table.shape[1]
        top = int(t[0]) if uniform else int(t.max(initial=0))
        if top >= known:
            new = range(known, max(top + 1, 2 * known))
            self._table = np.concatenate([self._table, [[1.0 - ADAM_BETA1 ** s for s in new],
                                                        [1.0 - ADAM_BETA2 ** s for s in new]]],
                                         axis=1)
        return self._table[:, top] if uniform else self._table[:, t]

    def step(self, params: np.ndarray, grads: np.ndarray, segments: Segments,
             lr: float) -> None:
        """Update params in place at segments.index with grads (same order).
        Tensors whose gradient is identically zero keep their parameters and
        moments; their counters advance."""
        if grads.shape != segments.index.shape:
            raise InputError(f"expected {segments.index.size} gradient values, got {grads.shape}")
        if self._held is None or self._held[0] is not segments:
            self._put_back()
            t = self._steps[segments.first]
            # held counters advance together, so equal ones stay equal
            uniform = t.size > 0 and t.min() == t.max()
            self._held = (segments, self._m[segments.index], self._v[segments.index], t,
                          uniform)
        _, m, v, t, uniform = self._held
        t += 1
        corrections = self._corrections(t, uniform)
        index, lengths = segments.index, segments.lengths
        active = np.logical_or.reduceat(grads != 0, segments.starts)
        if active.all():
            c1, c2 = corrections if uniform else np.repeat(corrections, lengths, axis=1)
            p = params[index]
            adam_update(p, m, v, grads, lr, c1, c2)
            params[index] = p
            return
        keep = np.repeat(active, lengths)
        c1, c2 = (corrections if uniform
                  else np.repeat(corrections[:, active], lengths[active], axis=1))
        p, m_kept, v_kept = params[index[keep]], m[keep], v[keep]
        adam_update(p, m_kept, v_kept, grads[keep], lr, c1, c2)
        params[index[keep]], m[keep], v[keep] = p, m_kept, v_kept


def softmax_xent_slice(logits: np.ndarray, labels: np.ndarray):
    """Mean softmax cross-entropy over one task's own logits.

    `logits` are the task's (n, c) columns of the head, as `forward_task`
    returns them, and `labels` are n task-local integers in [0, c). Returns
    (loss, dslice), where dslice = (softmax - onehot) / n is (n, c): the
    gradient `backward_task` takes. No other task's output column takes
    part. Checks its inputs (a non-empty batch, finite logits, labels in
    range), then runs `softmax_xent_kernel`.
    """
    logits = np.asarray(logits, dtype=np.float64)
    if logits.ndim != 2:
        raise InputError(f"logits must be (n, c), got shape {logits.shape}")
    if not np.isfinite(logits).all():
        raise InputError("logits contain non-finite values")
    n, c = logits.shape
    if n == 0:
        raise InputError("empty batch")
    labels = np.asarray(labels)
    if labels.shape != (n,) or not np.issubdtype(labels.dtype, np.integer):
        raise InputError(f"labels must be {n} integers, got {labels.dtype} of shape "
                         f"{labels.shape}")
    if labels.min() < 0 or labels.max() >= c:
        raise InputError(f"labels must lie in [0,{c})")
    return softmax_xent_kernel(logits, labels)


def softmax_xent_kernel(z: np.ndarray, labels: np.ndarray):
    """The loss of `softmax_xent_slice`, unchecked: z is a task's (n, c)
    float64 logits and every label lies in [0, c). Returns
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
    max(|analytic|, |numeric|, 1e-8), with a positive finite step h. The
    perturbation loop is the oracle: it never calls any backward code.
    """
    if isinstance(params, np.ndarray):
        raise InputError("params must be a list of arrays, not one array")
    if not (h > 0 and np.isfinite(h)):
        raise InputError(f"step h must be positive and finite, got {h}")
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
