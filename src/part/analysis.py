"""Module-sharing profiles and CKA representation-similarity machinery.

CKA here is the biased HSIC estimator normalized to [0,1]:
cka(X,Y) = hsic(Kx,Ky)/sqrt(hsic(Kx,Kx) hsic(Ky,Ky)) with
hsic(K,L) = tr(K H L H)/(n-1)^2, H the centering matrix. Kernels: linear
(K = X X^T) or RBF with bandwidth sigma = frac * median pairwise distance
of the respective representation (an absolute sigma is also accepted).

Every Gram the package builds is symmetric bit for bit by construction:
representations are made C-contiguous float64, so numpy computes X X^T
(and X^T X) with syrk and mirrors the triangle, and every later RBF step
is elementwise or commutes (sq_i + sq_j). Only `hsic()`, whose Grams come
from the caller, checks symmetry.

Every CKA value comes from one all-pairs routine (`_cka_matrix`): `cka()`
is it over two representations, and a layerwise report calls it once for
the task pair and once for the module representations. A representation
whose rows are all equal is flagged before any Gram, under both kernels.
The rest depends on the kernel:

- linear: with columns centred, hsic(X, Y) = ||X^T Y||_F^2 / (n-1)^2
  (Kornblith et al. 2019, arXiv:1905.00414, section 3). Each
  representation is centred once; its self-HSIC comes from its d x d
  feature Gram and each pair from one d_i x d_j product. No n x n array
  is built and no slot is taken: the peak is a few n x d copies. A pair
  costs O(n d^2) against the Gram form's O(n^2) per pair (plus O(n^2 d)
  per Gram), so the Gram form would be faster from about d = 200 at
  n = 400, or d = 40 at n = 12; the grid's d_hid is at most 16 in every
  shipped config, and there is one path.
- RBF: each centred n x n Gram is built once, and a pair is the sum of
  the elementwise product of two Grams, taken by einsum in one pass with
  no product temporary. A report holds one set of p n x n slots for its
  whole run, p being the most representations of any of its calls (at
  least 2), and builds every Gram in them (`cka()` holds its own 2).
  Outside the slots, an RBF Gram takes only its small row-block sums and,
  while the median is taken, the upper triangle of its squared distances,
  so the peak is about (p + 0.6) n^2 float64s.

Pair sums use einsum, not a BLAS dot, so no value depends on the BLAS
thread count. A Gram that overflows (its self-HSIC is not finite) raises
NumericError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateRepresentation, InputError, NumericError
from .net import ModuleGrid, Path, TaskSpec, forward_task


# ---------------------------------------------------------------------------
# sharing profiles

@dataclass
class SharingProfile:
    """How many grid cells are used by exactly t tasks, overall and per layer."""

    histogram: dict[int, int]
    per_layer: list[dict[int, int]]
    n_layers: int
    n_modules: int
    n_tasks: int

    def to_json_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "n_modules": self.n_modules,
            "n_tasks": self.n_tasks,
            "histogram": {str(t): c for t, c in sorted(self.histogram.items())},
            "per_layer": [
                {str(t): c for t, c in sorted(h.items())} for h in self.per_layer
            ],
        }


def sharing_profile(paths: list[Path], M: int, L: int) -> SharingProfile:
    """Count task-usage multiplicity of every (layer, module) cell."""
    for path in paths:
        path.check(M, L)
    cells = [l * M + m for path in paths for l, row in enumerate(path.rows) for m in row]
    usage = np.bincount(np.array(cells, dtype=np.int64), minlength=L * M)
    # row l of `counts`: how many of layer l's cells t tasks use, t = 0..k
    k = len(paths)
    counts = np.bincount(usage + (k + 1) * np.repeat(np.arange(L), M),
                         minlength=L * (k + 1)).reshape(L, k + 1)
    histogram: dict[int, int] = {}
    per_layer = []
    for row in counts.tolist():
        layer_hist = {t: c for t, c in enumerate(row) if c > 0}
        per_layer.append(layer_hist)
        for t, c in layer_hist.items():
            histogram[t] = histogram.get(t, 0) + c
    return SharingProfile(histogram=histogram, per_layer=per_layer,
                          n_layers=L, n_modules=M, n_tasks=k)


def expected_sharing_count(M: int, N: int, L: int, k: int, t: int) -> float:
    """Closed-form expected number of cells used by exactly t of k random
    paths: each cell is on a given task's path with probability N/M,
    independently across tasks, so the count is Binomial(k, N/M) per cell."""
    p = N / M
    return L * M * math.comb(k, t) * p**t * (1 - p) ** (k - t)


def shared_layers_from_label(label: str, n_layers: int) -> tuple[int, ...]:
    """Decode a controlled-sharing setup label into 0-based layer indices.

    'no layer' shares nothing; 'layer 13' shares layers 1 and 3 (1-indexed
    single digits, so depth is capped at 9 for labelled setups).
    """
    text = label.strip().lower()
    if text == "no layer":
        return ()
    if text.startswith("layer "):
        digits = text[len("layer "):].strip()
        if digits and all(ch.isdigit() and ch != "0" for ch in digits):
            layers = tuple(sorted(int(ch) - 1 for ch in set(digits)))
            if layers and layers[-1] >= n_layers:
                raise InputError(
                    f"setup {label!r} names layer {layers[-1] + 1} but depth is {n_layers}")
            return layers
    raise InputError(f"unrecognized sharing setup label: {label!r}")


# ---------------------------------------------------------------------------
# HSIC / CKA

def _center(K: np.ndarray) -> np.ndarray:
    """H K H in place, without materializing H: K is overwritten and returned."""
    row = K.mean(axis=0, keepdims=True)
    col = K.mean(axis=1, keepdims=True)
    mean = K.mean()
    K -= row
    K -= col
    K += mean
    return K


_BLOCK = 64


def _blocks(n: int) -> list[slice]:
    """Row blocks of an n x n array, so per-block temporaries stay small."""
    return [slice(i, i + _BLOCK) for i in range(0, n, _BLOCK)]


def _check_symmetric(K: np.ndarray) -> None:
    # np.allclose(K, K.T) over row blocks; an exactly symmetric block (the
    # usual case) is settled by one boolean temporary instead of allclose's
    # float ones
    for rows in _blocks(K.shape[0]):
        block, mirror = K[rows], K[:, rows].T
        if not (np.array_equal(block, mirror) or np.allclose(block, mirror, atol=1e-10)):
            raise InputError("gram matrices must be symmetric")


def hsic(K: np.ndarray, Lm: np.ndarray) -> float:
    """Biased HSIC estimate tr(K H Lm H)/(n-1)^2 for symmetric Gram matrices."""
    K = np.array(K, dtype=np.float64)      # copies: centred in place below
    Lm = np.array(Lm, dtype=np.float64)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise InputError(f"K must be square, got {K.shape}")
    if Lm.shape != K.shape:
        raise InputError(f"gram shapes differ: {K.shape} vs {Lm.shape}")
    n = K.shape[0]
    if n < 3:
        raise InputError(f"need n >= 3 for centering, got {n}")
    _check_symmetric(K)
    _check_symmetric(Lm)
    return _pair_sum(_center(K), _center(Lm), n)


def _gram_linear(X: np.ndarray) -> np.ndarray:
    # the d x d feature Gram X^T X of a column-centred representation
    return np.matmul(X.T, X)


def _gram_rbf(X: np.ndarray, frac: float, sigma: Optional[float], *,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    # exp(-d2 / (2 sigma^2)) with d2 the squared pairwise distances, built in
    # place in one n x n array (`out`, or a new one); the row-block sums
    # sq_i + sq_j and, while the median is taken, the upper triangle of d2
    # are temporaries
    n = X.shape[0]
    sq = np.sum(X * X, axis=1)
    d2 = np.matmul(X, X.T, out=out)
    d2 *= 2.0
    for rows in _blocks(n):
        # (sq_i + sq_j) - 2 x_i.x_j
        np.subtract(sq[rows, None] + sq[None, :], d2[rows], out=d2[rows])
    np.maximum(d2, 0.0, out=d2)
    if sigma is None:
        # the median pairwise distance, exactly as np.median of the sqrt of
        # the upper triangle: sqrt is correctly rounded and monotone, so the
        # sqrt of an order statistic of d2 is that order statistic of the
        # distances, and one partition of d2 at the middle finds it. An
        # even count takes the mean of the two middle values, (lo + hi) / 2.
        # NaNs partition to the end; like np.median, any NaN gives NaN.
        d2u = d2[~np.tri(n, n, 0, dtype=bool)]
        mid = d2u.size // 2
        d2u.partition(mid)
        if np.isnan(d2u[mid:]).any():
            med = math.nan
        else:
            med = math.sqrt(d2u[mid])
            if d2u.size % 2 == 0:
                med = (math.sqrt(d2u[:mid].max()) + med) / 2.0
        del d2u
        if med == 0.0:
            raise DegenerateRepresentation(
                "zero median pairwise distance: representation is constant")
        sigma = frac * med
    if sigma <= 0:
        raise InputError(f"rbf sigma must be positive, got {sigma}")
    d2 /= -(2.0 * sigma * sigma)          # the bits of -d2 / (2 sigma^2)
    np.exp(d2, out=d2)
    return d2


def _check_reps(*reps) -> list[np.ndarray]:
    """Sample-aligned C-contiguous float64 representations (a copy only if
    one is not already), each check over all of them."""
    reps = [np.ascontiguousarray(R, dtype=np.float64) for R in reps]
    if any(R.ndim != 2 for R in reps):
        raise InputError("representations must be 2-D (samples x features)")
    n = reps[0].shape[0]
    for R in reps[1:]:
        if R.shape[0] != n:
            raise InputError(f"sample counts differ: {n} vs {R.shape[0]}")
    if n < 3:
        raise InputError(f"need n >= 3 samples, got {n}")
    if not all(np.all(np.isfinite(R)) for R in reps):
        raise InputError("representations contain non-finite values")
    return reps


def _pair_sum(A: np.ndarray, B: np.ndarray, n: int) -> float:
    """sum(A * B) / (n-1)^2 in one pass, with no product temporary. Of two
    centred n x n Grams it is their HSIC; of C = X^T Y, with X and Y
    column-centred, sum(C * C) / (n-1)^2 is the linear HSIC. einsum, not
    vdot: vdot goes through BLAS, whose bits change with the thread count."""
    return float(np.einsum("ij,ij->", A, B) / (n - 1) ** 2)


def _gram_slots(p: int, n: int) -> np.ndarray:
    """p n x n float64 slots in one allocation, each written before it is read."""
    return np.empty((p, n, n))


_CONSTANT = "constant representation: every sample is identical"


def _cka_matrix(reps: list[np.ndarray], kernel: str, rbf_frac: float,
                rbf_sigma: Optional[float], slots: Optional[np.ndarray]) -> tuple[list, list]:
    """(all-pairs CKA matrix, per-representation flags) of checked
    representations. A flagged representation is constant (its flag says
    how) and its row and column are None. Each representation is scored
    against the earlier ones as it arrives; entry (i, j), i < j, is the
    pair taken in that order.

    Linear: a representation's columns are centred once, its self-HSIC is
    the squared Frobenius norm of its d x d feature Gram, and pair (i, j)
    that of X_i^T X_j; nothing n x n is built and `slots` is not used.
    RBF: Gram j is built in slots[j] and centred; a pair is the sum of the
    elementwise product of two Grams. A non-finite self-HSIC raises
    NumericError."""
    if kernel not in ("linear", "rbf"):
        raise InputError(f"kernel must be 'linear' or 'rbf', got {kernel!r}")
    p, n = len(reps), reps[0].shape[0]
    kept, hsics, flags, sums = [], [], [], {}
    for j, X in enumerate(reps):
        F = h = flag = None
        if (X == X[0]).all():
            flag = _CONSTANT
        elif kernel == "linear":
            F = X - X.mean(axis=0)
            G = _gram_linear(F)
        else:
            try:
                F = G = _center(_gram_rbf(X, rbf_frac, rbf_sigma, out=slots[j]))
            except DegenerateRepresentation as e:
                flag = str(e)
        if F is not None:
            h = _pair_sum(G, G, n)
            if not math.isfinite(h):
                raise NumericError(f"self-HSIC is {h}: a {kernel} Gram overflowed")
            if h <= 1e-300:
                F, flag = None, "numerically constant representation: self-HSIC is zero"
        for i, E in enumerate(kept):
            if E is not None and F is not None:
                if kernel == "linear":
                    C = np.matmul(E.T, F)
                    sums[i, j] = _pair_sum(C, C, n)
                else:
                    sums[i, j] = _pair_sum(E, F, n)
        kept.append(F)
        hsics.append(h)
        flags.append(flag)
    matrix: list[list[Optional[float]]] = [[None] * p for _ in range(p)]
    for i in range(p):
        for j in range(i, p):
            if not (flags[i] or flags[j]):
                # the diagonal's pair sum is the self-HSIC, the same bits
                pair = hsics[i] if i == j else sums[i, j]
                matrix[i][j] = matrix[j][i] = pair / math.sqrt(hsics[i] * hsics[j])
    return matrix, flags


def cka(X: np.ndarray, Y: np.ndarray, kernel: str = "linear",
        rbf_frac: float = 0.5, rbf_sigma: Optional[float] = None) -> float:
    """Representation similarity in [0,1] between two sample-aligned sets.

    kernel 'linear' or 'rbf'; for 'rbf' the bandwidth is rbf_frac times
    the median pairwise distance of each set separately, unless an
    absolute rbf_sigma is given. The same routine as a report's
    (`_cka_matrix`): linear CKA from the column-centred features, with no
    n x n array; RBF from two centred Grams in two n x n slots. Raises
    DegenerateRepresentation when a set is constant across samples (every
    row equal, checked exactly before any Gram) rather than reporting a
    silent 0, and NumericError when a Gram overflows.
    """
    reps = _check_reps(X, Y)
    slots = _gram_slots(2, reps[0].shape[0]) if kernel == "rbf" else None
    matrix, flags = _cka_matrix(reps, kernel, rbf_frac, rbf_sigma, slots)
    if flags[0] or flags[1]:
        raise DegenerateRepresentation(flags[0] or flags[1])
    return matrix[0][1]


def kernel_label(kernel: str, rbf_frac: float = 0.5,
                 rbf_sigma: Optional[float] = None) -> str:
    if kernel == "linear":
        return "linear"
    if rbf_sigma is not None:
        return f"rbf(sigma={rbf_sigma:g})"
    return f"rbf(frac={rbf_frac:g})"


# ---------------------------------------------------------------------------
# activation capture

@dataclass
class ActivationSet:
    """One task's representations at one layer: the summed layer output the
    next layer consumes, plus each selected module's pre-sum output."""

    task_id: int
    layer: int
    rep: np.ndarray
    per_module: dict[int, np.ndarray]


def balanced_sample(dataset, n: int, rng: Optional[np.random.Generator] = None):
    """Draw n samples with per-class quotas differing by at most one.

    Deterministic (first occurrences per class) unless an rng is given.
    Errors out if any class cannot fill its quota; never truncates.
    """
    if n < dataset.c:
        raise InputError(f"need at least one sample per class: n={n} < c={dataset.c}")
    if n > dataset.n:
        raise InputError(f"requested {n} samples but dataset has {dataset.n}")
    base, extra = divmod(n, dataset.c)
    picks = []
    for k in range(dataset.c):
        quota = base + (1 if k < extra else 0)
        kidx = np.flatnonzero(dataset.labels == k)
        if len(kidx) < quota:
            raise InputError(
                f"class {k} has {len(kidx)} samples, quota is {quota}")
        if rng is not None:
            kidx = rng.permutation(kidx)
        picks.append(kidx[:quota])
    idx = np.concatenate(picks)
    return dataset.features[idx], dataset.labels[idx]


def capture_activations(grid: ModuleGrid, task: TaskSpec, n: int,
                        rng: Optional[np.random.Generator] = None) -> list[ActivationSet]:
    """Eval-mode layer representations for a class-balanced sample of n
    drawn from the task's validation set (see `balanced_sample`)."""
    if task.val_ds is None:
        raise InputError(f"task {task.id} has no validation dataset to sample")
    X, _ = balanced_sample(task.val_ds, int(n), rng)
    _, tape = forward_task(grid, task, X, mode="eval")
    sets = []
    for l in range(grid.n_layers):
        sets.append(ActivationSet(task_id=task.id, layer=l, rep=tape.layer_sum(l),
                                  per_module=tape.module_outputs(l)))
    return sets


# ---------------------------------------------------------------------------
# layerwise reports

@dataclass
class LayerCka:
    layer: int
    task_cka: Optional[float]          # None if degenerate, see flag
    task_cka_flag: Optional[str]
    labels: list[str]                  # "t{task}:m{module}" per matrix row
    matrix: list[list[Optional[float]]]
    shared_modules: list[int]


@dataclass
class CkaReport:
    """Per-layer similarity between two tasks under one sharing setup.

    The module matrix is the symmetric all-pairs CKA over the union of
    both tasks' module representations at that layer (rows labelled
    t{id}:m{idx}); the cross-task heatmap of interest is its off-diagonal
    block. Raw values are kept as computed; clamp only for display.

    The task curve, like the matrix's cross-task block, pairs row i of task
    a's sample with row i of task b's: as `capture_activations` takes them,
    different inputs matched only by class order. CKA compares
    representations of the same examples (Kornblith et al. 2019,
    arXiv:1905.00414), so the curve reads how alike the tasks' class-block
    structures are, not same-input similarity.
    """

    setup: str
    kernel: str
    task_a: int
    task_b: int
    layers: list[LayerCka]
    n_samples: int = 0

    def task_curve(self) -> list[Optional[float]]:
        return [l.task_cka for l in self.layers]

    def heatmap_csv(self, layer: int) -> str:
        """CSV of the layer's module-pairwise matrix, values clamped to
        [0,1] for display; shared modules annotated in a comment line."""
        lc = self.layers[layer]
        shared = ",".join(str(m) for m in lc.shared_modules)
        lines = [f"# shared_modules: {shared}" if shared else "# shared_modules: none"]
        lines.append("," + ",".join(lc.labels))
        for name, row in zip(lc.labels, lc.matrix):
            cells = []
            for v in row:
                if v is None:
                    cells.append("nan")
                else:
                    cells.append(f"{min(max(v, 0.0), 1.0):.6f}")
            lines.append(name + "," + ",".join(cells))
        return "\n".join(lines) + "\n"


def _layer_cka(la: ActivationSet, lb: ActivationSet, kernel: str, rbf_frac: float,
               rbf_sigma: Optional[float], slots: Optional[np.ndarray]) -> LayerCka:
    """One layer of a report: the task pair's CKA, then the module matrix,
    RBF Grams each built in the report's slots."""
    entries = (
        [(f"t{la.task_id}:m{m}", rep) for m, rep in la.per_module.items()]
        + [(f"t{lb.task_id}:m{m}", rep) for m, rep in lb.per_module.items()]
    )
    reps = _check_reps(la.rep, lb.rep, *(rep for _, rep in entries))
    task_matrix, task_flags = _cka_matrix(reps[:2], kernel, rbf_frac, rbf_sigma, slots)
    matrix, _ = _cka_matrix(reps[2:], kernel, rbf_frac, rbf_sigma, slots)
    return LayerCka(layer=la.layer, task_cka=task_matrix[0][1],
                    task_cka_flag=task_flags[0] or task_flags[1],
                    labels=[name for name, _ in entries], matrix=matrix,
                    shared_modules=sorted(set(la.per_module) & set(lb.per_module)))


def layerwise_cka_report(set_a: list[ActivationSet], set_b: list[ActivationSet],
                         kernel: str = "rbf", rbf_frac: float = 0.5,
                         rbf_sigma: Optional[float] = None,
                         setup: str = "") -> CkaReport:
    """Task-vs-task CKA per layer plus the all-pairs module matrix, row i of
    `set_a` paired with row i of `set_b` (for two tasks' captures, inputs
    matched only by class order: see `CkaReport`). Under the RBF kernel
    every layer's Grams are built in one set of slots, allocated once; the
    linear kernel needs none."""
    if len(set_a) != len(set_b):
        raise InputError(f"layer counts differ: {len(set_a)} vs {len(set_b)}")
    if not set_a:
        raise InputError("empty activation sets")
    n = set_a[0].rep.shape[0]
    if any(s.rep.shape[0] != n for s in (*set_a, *set_b)):
        raise InputError("activation sets have different sample counts")
    p = max(2, *(len(la.per_module) + len(lb.per_module) for la, lb in zip(set_a, set_b)))
    slots = _gram_slots(p, n) if kernel == "rbf" else None
    layers = [_layer_cka(la, lb, kernel, rbf_frac, rbf_sigma, slots)
              for la, lb in zip(set_a, set_b)]
    return CkaReport(setup=setup, kernel=kernel_label(kernel, rbf_frac, rbf_sigma),
                     task_a=set_a[0].task_id, task_b=set_b[0].task_id,
                     layers=layers, n_samples=n)


def average_cka_reports(reports: list[CkaReport]) -> CkaReport:
    """Elementwise mean of CKA values across runs of the same setup.

    Degenerate (None) entries are skipped per element; an element that is
    None in every report stays None.
    """
    if not reports:
        raise InputError("no reports to average")
    first = reports[0]
    for r in reports[1:]:
        if r.setup != first.setup or r.kernel != first.kernel:
            raise InputError("reports must share setup and kernel to average")
        if len(r.layers) != len(first.layers):
            raise InputError("reports must have the same layer count")

    def mean_opt(values):
        vals = [v for v in values if v is not None]
        return float(np.mean(vals)) if vals else None

    layers = []
    for li, ref in enumerate(first.layers):
        for r in reports[1:]:
            if r.layers[li].labels != ref.labels:
                raise InputError("reports must have matching module labels to average")
        task_vals = [r.layers[li].task_cka for r in reports]
        p = len(ref.labels)
        matrix = [
            [mean_opt([r.layers[li].matrix[i][j] for r in reports]) for j in range(p)]
            for i in range(p)
        ]
        flags = [r.layers[li].task_cka_flag for r in reports if r.layers[li].task_cka_flag]
        layers.append(LayerCka(layer=ref.layer, task_cka=mean_opt(task_vals),
                               task_cka_flag=flags[0] if flags else None,
                               labels=list(ref.labels), matrix=matrix,
                               shared_modules=list(ref.shared_modules)))
    return CkaReport(setup=first.setup, kernel=first.kernel, task_a=first.task_a,
                     task_b=first.task_b, layers=layers, n_samples=first.n_samples)
