"""Dense 2-D float64 tensors with reverse-mode differentiation.

Every value in the package is a row-major 2-D array of 64-bit reals; scalars
are 1x1. Operations build a DAG of `Tensor` nodes (the computation record) and
`backward` replays it in reverse topological order, which is fixed, so a
single-threaded run is bitwise reproducible. The primitive set is exactly what
the model needs: affine maps, sigmoid/ReLU/row-softmax, inverted dropout,
batch normalization with running statistics, a handful of structural ops
(concat, gather/scatter of rows, per-row picks), and reductions.

The model builds its training step from fused nodes (`custom_op`,
`multi_output_op`) whose backward does the arithmetic of the op-by-op
composition in the record's order; the tests compose the primitives here into
the reference those nodes must match bit for bit. `gradients` adds into one
flat buffer, and `adam_step` updates parameters laid out by `pack` a chunk at
a time.

Randomness goes through `RngStream`: a (seed, label) pair fully determines the
value sequence across runs and platforms (PCG64 seeded from the label's
SHA-256), so initialization, dropout masks, and simulation draws can be
replayed independently of call order elsewhere.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "GraphError",
    "ProbabilityError",
    "BatchSizeError",
    "HyperparameterError",
    "RngStream",
    "derive_seed",
    "parameter",
    "constant",
    "affine",
    "add",
    "sub",
    "mul",
    "scale",
    "neg",
    "sigmoid",
    "relu",
    "softmax_rows",
    "dropout",
    "BatchNormState",
    "batch_norm",
    "concat_cols",
    "gather_rows",
    "scatter_rows",
    "pick_per_row",
    "sum_all",
    "mean_all",
    "log",
    "clamp_min",
    "mean_outer",
    "unit_sum",
    "custom_op",
    "multi_output_op",
    "accumulate_grad",
    "accumulate_rows",
    "sigmoid_values",
    "softmax_values",
    "dropout_mask",
    "pack",
    "flat_view",
    "backward",
    "gradients",
    "zero_grads",
    "AdamState",
    "adam_step",
    "init_params",
]

_MASK64 = (1 << 64) - 1


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GraphError(ValueError):
    """The computation record does not satisfy the backward contract."""


class ProbabilityError(ValueError):
    """A probability argument is outside its legal range."""


class BatchSizeError(ValueError):
    """The batch is too small for the requested mode."""


class HyperparameterError(ValueError):
    """An optimizer hyperparameter is outside its legal range."""


# ---------------------------------------------------------------------------
# Deterministic randomness


def _label_entropy(label: str) -> int:
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed(seed: int, *parts) -> int:
    """Stable 63-bit seed derived from a base seed and context parts."""
    text = repr((int(seed),) + tuple(str(p) for p in parts))
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class RngStream:
    """Labeled deterministic random stream.

    Identical (seed, label) pairs produce identical draw sequences on every
    platform. `counter` records how many draws were taken, and `child`
    derives an independent stream whose sequence depends only on the combined
    label, never on draw order in the parent.
    """

    def __init__(self, seed: int, label: str):
        self.seed = int(seed) & _MASK64
        self.label = str(label)
        self.counter = 0
        entropy = np.random.SeedSequence([self.seed, _label_entropy(self.label)])
        self._gen = np.random.Generator(np.random.PCG64(entropy))

    def child(self, label: str) -> "RngStream":
        return RngStream(self.seed, f"{self.label}/{label}")

    def uniform(self, rows: int, cols: int, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        self.counter += 1
        return self._gen.uniform(low, high, size=(rows, cols))

    def normal(self, rows: int, cols: int, scale: float = 1.0) -> np.ndarray:
        self.counter += 1
        return self._gen.normal(0.0, scale, size=(rows, cols))

    def integers(self, low: int, high: int, size=None):
        """Integers in [low, high), matching numpy's half-open convention."""
        self.counter += 1
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        self.counter += 1
        return self._gen.permutation(n)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, label={self.label!r}, counter={self.counter})"


# ---------------------------------------------------------------------------
# Tensor and graph construction


def _as_2d(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
    elif arr.ndim != 2:
        raise ShapeError(f"tensors are 2-D; got ndim={arr.ndim}")
    return arr


class Tensor:
    """Node in the computation record: a 2-D float64 value plus backward hook."""

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, parents=(), backward_fn=None, name=None):
        self.data = _as_2d(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name
        self._parents = tuple(parents)
        self._backward = backward_fn

    @property
    def shape(self):
        return self.data.shape

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad}{tag})"


def parameter(data, name=None) -> Tensor:
    """Leaf tensor that receives gradients."""
    return Tensor(data, requires_grad=True, name=name)


def constant(data, name=None) -> Tensor:
    """Leaf tensor outside the differentiated parameter set."""
    return Tensor(data, requires_grad=False, name=name)


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else constant(value)


def _node(data, parents, backward_fn) -> Tensor:
    needs = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=needs, parents=parents if needs else (),
                  backward_fn=backward_fn if needs else None)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # a fresh array; adding +0.0 turns -0.0 into +0.0, as a zero start would
        t.grad = g + 0.0
    else:
        t.grad += g


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    """Add into a tensor's gradient; for backward hooks of `custom_op` nodes."""
    _accumulate(t, g)


def accumulate_rows(t: Tensor, rows, g: np.ndarray) -> None:
    """Add g into rows `rows` (distinct) of a tensor's gradient, as `gather_rows` does."""
    if t.requires_grad:
        if t.grad is None:
            t.grad = np.zeros_like(t.data)
        t.grad[rows] += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    out = g
    if shape[0] == 1 and g.shape[0] != 1:
        out = out.sum(axis=0, keepdims=True)
    if shape[1] == 1 and g.shape[1] != 1:
        out = out.sum(axis=1, keepdims=True)
    if out.shape != tuple(shape):
        raise ShapeError(f"cannot reduce gradient {g.shape} to {tuple(shape)}")
    return out


def _check_broadcast(a: Tensor, b: Tensor, op: str) -> None:
    for dim in (0, 1):
        if a.shape[dim] != b.shape[dim] and 1 not in (a.shape[dim], b.shape[dim]):
            raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast")


# ---------------------------------------------------------------------------
# Primitive operations


def affine(x, w, b) -> Tensor:
    """x @ w + b with b broadcast over rows."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.cols != w.rows:
        raise ShapeError(f"affine: inner dimensions disagree, x is {x.shape}, w is {w.shape}")
    if b.shape != (1, w.cols):
        raise ShapeError(f"affine: bias must be (1, {w.cols}), got {b.shape}")
    out_data = x.data @ w.data + b.data

    def backward_fn(out):
        g = out.grad
        if x.requires_grad:
            _accumulate(x, g @ w.data.T)
        if w.requires_grad:
            _accumulate(w, x.data.T @ g)
        if b.requires_grad:
            _accumulate(b, g.sum(axis=0, keepdims=True))

    return _node(out_data, (x, w, b), backward_fn)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "add")

    def backward_fn(out):
        _accumulate(a, _unbroadcast(out.grad, a.shape))
        _accumulate(b, _unbroadcast(out.grad, b.shape))

    return _node(a.data + b.data, (a, b), backward_fn)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "sub")

    def backward_fn(out):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad, a.shape))
        if b.requires_grad:
            _accumulate(b, -_unbroadcast(out.grad, b.shape))

    return _node(a.data - b.data, (a, b), backward_fn)


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast(a, b, "mul")

    def backward_fn(out):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(out.grad * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(out.grad * a.data, b.shape))

    return _node(a.data * b.data, (a, b), backward_fn)


def scale(a, c: float) -> Tensor:
    a = as_tensor(a)
    c = float(c)

    def backward_fn(out):
        _accumulate(a, c * out.grad)

    return _node(c * a.data, (a,), backward_fn)


def neg(a) -> Tensor:
    return scale(a, -1.0)


def sigmoid_values(x: np.ndarray) -> np.ndarray:
    """Logistic function of an array, as `sigmoid` computes it."""
    # exp of -|x| never overflows; negating only where x >= 0 keeps a NaN's sign bit
    pos = x >= 0
    e = np.exp(np.where(pos, -x, x))
    d = 1.0 + e
    return np.where(pos, 1.0 / d, e / d)


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    s = sigmoid_values(a.data)

    def backward_fn(out):
        _accumulate(a, out.grad * s * (1.0 - s))

    return _node(s, (a,), backward_fn)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(out):
        _accumulate(a, out.grad * (a.data > 0))

    return _node(np.maximum(a.data, 0.0), (a,), backward_fn)


def softmax_values(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of an array, max-subtracted, as `softmax_rows` computes it."""
    e = x - x.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def softmax_rows(a) -> Tensor:
    """Row-wise softmax, max-subtracted for stability."""
    a = as_tensor(a)
    y = softmax_values(a.data)

    def backward_fn(out):
        g = out.grad
        _accumulate(a, y * (g - (g * y).sum(axis=1, keepdims=True)))

    return _node(y, (a,), backward_fn)


def dropout_mask(rng: RngStream, rows: int, cols: int, p: float) -> np.ndarray:
    """One draw of inverted-dropout multipliers: 0 w.p. p, else 1/(1-p)."""
    keep = rng.uniform(rows, cols) >= p
    return keep / (1.0 - p)


def dropout(a, p: float, mode: str, rng: RngStream) -> Tensor:
    """Inverted dropout: train mode zeroes entries w.p. p and scales by 1/(1-p)."""
    a = as_tensor(a)
    _check_mode(mode)
    if not 0.0 <= p < 1.0:
        raise ProbabilityError(f"dropout probability must be in [0, 1), got {p}")
    if mode == "eval" or p == 0.0:
        return a
    mask = dropout_mask(rng, a.rows, a.cols, p)

    def backward_fn(out):
        _accumulate(a, out.grad * mask)

    return _node(a.data * mask, (a,), backward_fn)


class BatchNormState:
    """Running statistics for one batch-norm layer (exponential moving average)."""

    def __init__(self, dim: int, momentum: float = 0.1, eps: float = 1e-5):
        self.running_mean = np.zeros((1, dim))
        self.running_var = np.ones((1, dim))
        self.momentum = float(momentum)
        self.eps = float(eps)

    def copy(self) -> "BatchNormState":
        st = BatchNormState(self.running_mean.shape[1], self.momentum, self.eps)
        st.running_mean = self.running_mean.copy()
        st.running_var = self.running_var.copy()
        return st


def _check_mode(mode: str) -> None:
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def batch_norm(x, gamma, beta, state: BatchNormState, mode: str) -> Tensor:
    """Batch normalization over rows.

    Train mode normalizes by batch statistics (biased variance) and updates the
    running statistics in `state`; eval mode normalizes by the running
    statistics and leaves them untouched.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    _check_mode(mode)
    d = x.cols
    if gamma.shape != (1, d) or beta.shape != (1, d):
        raise ShapeError(f"batch_norm: gamma/beta must be (1, {d}), got {gamma.shape}, {beta.shape}")

    if mode == "train":
        n = x.rows
        if n < 2:
            raise BatchSizeError(f"batch_norm needs at least 2 rows in train mode, got {n}")
        mu = x.data.mean(axis=0, keepdims=True)
        var = x.data.var(axis=0, keepdims=True)
        inv_std = 1.0 / np.sqrt(var + state.eps)
        xhat = (x.data - mu) * inv_std
        m = state.momentum
        state.running_mean = (1.0 - m) * state.running_mean + m * mu
        state.running_var = (1.0 - m) * state.running_var + m * var

        def backward_fn(out):
            g = out.grad
            _accumulate(gamma, (g * xhat).sum(axis=0, keepdims=True))
            _accumulate(beta, g.sum(axis=0, keepdims=True))
            if x.requires_grad:
                dxhat = g * gamma.data
                _accumulate(x, (inv_std / n) * (
                    n * dxhat
                    - dxhat.sum(axis=0, keepdims=True)
                    - xhat * (dxhat * xhat).sum(axis=0, keepdims=True)
                ))
    else:
        inv_std = 1.0 / np.sqrt(state.running_var + state.eps)
        xhat = (x.data - state.running_mean) * inv_std

        def backward_fn(out):
            g = out.grad
            _accumulate(gamma, (g * xhat).sum(axis=0, keepdims=True))
            _accumulate(beta, g.sum(axis=0, keepdims=True))
            _accumulate(x, g * (gamma.data * inv_std))

    out_data = xhat * gamma.data + beta.data
    return _node(out_data, (x, gamma, beta), backward_fn)


def concat_cols(parts) -> Tensor:
    """Column-wise concatenation of tensors sharing a row count."""
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ShapeError("concat_cols needs at least one tensor")
    n = parts[0].rows
    for p in parts:
        if p.rows != n:
            raise ShapeError(f"concat_cols: row counts differ, {n} vs {p.rows}")
    widths = [p.cols for p in parts]
    offsets = np.concatenate([[0], np.cumsum(widths)])

    def backward_fn(out):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            _accumulate(p, out.grad[:, lo:hi])

    return _node(np.concatenate([p.data for p in parts], axis=1), tuple(parts), backward_fn)


def gather_rows(a, idx) -> Tensor:
    """Select distinct rows by index; gradients add back into those rows."""
    a = as_tensor(a)
    idx = np.asarray(idx, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("gather_rows: index must be 1-D")
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise ShapeError(f"gather_rows: index out of range for {a.rows} rows")
    hit = np.zeros(a.rows, dtype=bool)
    hit[idx] = True
    if np.count_nonzero(hit) != idx.size:
        raise ShapeError("gather_rows: indices must be distinct")

    def backward_fn(out):
        accumulate_rows(a, idx, out.grad)

    return _node(a.data[idx], (a,), backward_fn)


def scatter_rows(src, idx, n_rows: int) -> Tensor:
    """Place src's rows at positions idx of an otherwise-zero (n_rows, cols) tensor."""
    src = as_tensor(src)
    idx = np.asarray(idx, dtype=np.intp)
    if idx.size != src.rows:
        raise ShapeError(f"scatter_rows: {idx.size} indices for {src.rows} rows")
    if idx.size and (idx.min() < 0 or idx.max() >= n_rows):
        raise ShapeError(f"scatter_rows: index out of range for {n_rows} rows")
    out_data = np.zeros((n_rows, src.cols))
    out_data[idx] = src.data

    def backward_fn(out):
        _accumulate(src, out.grad[idx])

    return _node(out_data, (src,), backward_fn)


def pick_per_row(a, col_idx) -> Tensor:
    """N x 1 tensor of a[j, col_idx[j]]."""
    a = as_tensor(a)
    col_idx = np.asarray(col_idx, dtype=np.intp)
    if col_idx.shape != (a.rows,):
        raise ShapeError(f"pick_per_row: need {a.rows} column indices, got {col_idx.shape}")
    if col_idx.size and (col_idx.min() < 0 or col_idx.max() >= a.cols):
        raise ShapeError(f"pick_per_row: column index out of range for {a.cols} columns")
    rows = np.arange(a.rows)

    def backward_fn(out):
        if a.requires_grad:
            g = np.zeros_like(a.data)
            g[rows, col_idx] = out.grad[:, 0]
            _accumulate(a, g)

    return _node(a.data[rows, col_idx].reshape(-1, 1), (a,), backward_fn)


def sum_all(a) -> Tensor:
    a = as_tensor(a)

    def backward_fn(out):
        _accumulate(a, np.full_like(a.data, out.grad[0, 0]))

    return _node(a.data.sum(), (a,), backward_fn)


def mean_all(a) -> Tensor:
    a = as_tensor(a)
    size = a.data.size

    def backward_fn(out):
        _accumulate(a, np.full_like(a.data, out.grad[0, 0] / size))

    return _node(a.data.mean(), (a,), backward_fn)


def log(a) -> Tensor:
    """Natural log; callers clamp first when zeros are possible."""
    a = as_tensor(a)
    if np.any(a.data <= 0):
        raise ValueError("log: inputs must be strictly positive (clamp first)")

    def backward_fn(out):
        _accumulate(a, out.grad / a.data)

    return _node(np.log(a.data), (a,), backward_fn)


def clamp_min(a, floor: float) -> Tensor:
    """max(a, floor); gradient passes where a >= floor."""
    a = as_tensor(a)
    mask = a.data >= floor

    def backward_fn(out):
        _accumulate(a, out.grad * mask)

    return _node(np.maximum(a.data, floor), (a,), backward_fn)


def mean_outer(a, b) -> Tensor:
    """(1/N) sum_j outer(a_j, b_j), i.e. a^T b / N, contracted by BLAS.

    Swapping the arguments gives the transpose only up to rounding;
    `loss_contrastive` computes each unordered view pair once, with weight 2,
    which equals the ordered-pair sum.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.rows != b.rows:
        raise ShapeError(f"mean_outer: row counts differ, {a.shape} vs {b.shape}")
    n = a.rows
    if n == 0:
        raise BatchSizeError("mean_outer: empty batch")
    out_data = (a.data.T @ b.data) / n

    def backward_fn(out):
        g = out.grad
        _accumulate(a, (b.data @ g.T) / n)
        _accumulate(b, (a.data @ g) / n)

    return _node(out_data, (a, b), backward_fn)


def unit_sum(a) -> Tensor:
    """Rescale so all entries sum to 1."""
    a = as_tensor(a)
    s = a.data.sum()
    if s <= 0:
        raise ValueError("unit_sum: entries must sum to a positive value")
    out_data = a.data / s

    def backward_fn(out):
        g = out.grad
        _accumulate(a, (g - (g * out_data).sum()) / s)

    return _node(out_data, (a,), backward_fn)


def custom_op(data, parents, backward_fn) -> Tensor:
    """Escape hatch for fused operations defined outside this module."""
    return _node(data, tuple(parents), backward_fn)


def multi_output_op(datas, parents, backward_fn) -> tuple:
    """A fused operation with several outputs; returns one tensor per output.

    `backward_fn(grads)` runs once, after every consumer of every output, with
    each output's gradient (None where nothing reached it). The outputs hang
    off one hidden node holding the parents, so the record has no cycle.
    """
    grads = [None] * len(datas)
    core = _node(np.zeros((1, 1)), tuple(parents), lambda node: backward_fn(grads))

    def hand_over(k):
        def backward(out):
            grads[k] = out.grad
            core.grad = core.data

        return backward

    return tuple(_node(data, (core,), hand_over(k)) for k, data in enumerate(datas))


# ---------------------------------------------------------------------------
# Backward pass


def _topo_order(root: Tensor):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        # leaves have no backward hook; skipping them leaves the interior order as is
        for p in reversed(node._parents):
            if p._parents:
                stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Propagate d(loss)/d(node) through the record ending at a scalar loss."""
    if loss.shape != (1, 1):
        raise GraphError(f"backward needs a scalar (1x1) loss, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    order = _topo_order(loss)
    loss.grad = np.ones((1, 1))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node)


def zero_grads(params) -> None:
    for t in params.values():
        t.grad = None


def _views(flat: np.ndarray, shapes) -> list:
    views = []
    lo = 0
    for rows, cols in shapes:
        views.append(flat[lo:lo + rows * cols].reshape(rows, cols))
        lo += rows * cols
    return views


def pack(arrays):
    """One new contiguous buffer holding 2-D `arrays` back to back, and a view
    into it shaped like each array. Returns (buffer, views)."""
    flat = np.concatenate([np.ravel(a) for a in arrays])
    return flat, _views(flat, [a.shape for a in arrays])


def flat_view(arrays) -> np.ndarray:
    """The contiguous buffer that `arrays` fill back to back, as `pack` and
    `gradients` lay them out; a single contiguous array is its own buffer."""
    if len(arrays) == 1 and arrays[0].flags.c_contiguous:
        return arrays[0].reshape(-1)
    flat = arrays[0].base if arrays else np.zeros(0)
    if (flat is None or flat.ndim != 1 or any(a.base is not flat for a in arrays)
            or sum(a.size for a in arrays) != flat.size):
        raise ShapeError("arrays do not fill one buffer back to back (see numerics.pack)")
    return flat


def gradients(loss: Tensor, params) -> dict:
    """Gradients of a scalar loss for every named parameter.

    Each `.grad` is a view into one new zeroed buffer laid out as `pack` lays
    out arrays (0 + g is the bits of the g + 0.0 a first contribution stores),
    and the returned arrays are those views; the next `gradients` call or
    `zero_grads` detaches them. Unreached parameters get zero gradients.
    """
    tensors = list(params.values())
    shapes = [t.data.shape for t in tensors]
    for t, view in zip(tensors, _views(np.zeros(sum(r * c for r, c in shapes)), shapes)):
        t.grad = view
    backward(loss)
    return {name: t.grad for name, t in params.items()}


# ---------------------------------------------------------------------------
# Optimizer and initialization


ADAM_CHUNK = 32768  # elements per Adam pass: four float64 chunks stay in cache


class AdamState:
    """First/second-moment accumulators plus step counter for Adam; the moments
    are flat buffers made on the first step, `m` and `v` their views by name."""

    def __init__(self, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.t = 0
        self.m = {}
        self.v = {}
        self._flat = None   # (m, v, scratch, scratch) once the first step has sized them


def adam_step(params, grads, state: AdamState, lr: float) -> None:
    """One Adam update with bias correction, in place on params' data and on
    the moments in `state`.

    Parameters and gradients must each fill one buffer (see `pack` and
    `gradients`). The update runs `ADAM_CHUNK` elements at a time in
    preallocated scratch, in the order of m = b1 m + (1 - b1) g,
    v = b2 v + (1 - b2) g^2, p -= lr (m / c1) / (sqrt(v / c2) + eps).
    """
    if lr <= 0:
        raise HyperparameterError(f"learning rate must be positive, got {lr}")
    for name, t in params.items():
        if grads[name].shape != t.data.shape:
            raise ShapeError(f"adam_step: gradient shape {grads[name].shape} != "
                             f"parameter shape {t.data.shape} for {name!r}")
    p = flat_view([t.data for t in params.values()])
    g = flat_view([grads[name] for name in params])
    if state._flat is None:
        m, v = np.zeros(p.size), np.zeros(p.size)
        shapes = [t.data.shape for t in params.values()]
        state.m = dict(zip(params, _views(m, shapes)))
        state.v = dict(zip(params, _views(v, shapes)))
        chunk = min(ADAM_CHUNK, p.size)
        state._flat = (m, v, np.empty(chunk), np.empty(chunk))
    m, v, s1, s2 = state._flat
    if m.size != p.size:
        raise ShapeError(f"adam_step: {p.size} parameters for a state sized for {m.size}")
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for lo in range(0, p.size, ADAM_CHUNK):
        hi = min(lo + ADAM_CHUNK, p.size)
        gc, mc, vc = g[lo:hi], m[lo:hi], v[lo:hi]
        a, b = s1[:hi - lo], s2[:hi - lo]
        mc *= b1
        np.multiply(gc, 1.0 - b1, out=a)
        mc += a
        vc *= b2
        np.multiply(gc, gc, out=a)
        a *= 1.0 - b2
        vc += a
        np.divide(vc, c2, out=a)
        np.sqrt(a, out=a)
        a += state.eps
        np.divide(mc, c1, out=b)
        b *= lr
        b /= a
        p[lo:hi] -= b


def init_params(shape, rng: RngStream, kind: str = "weight") -> np.ndarray:
    """Fan-based uniform weight init in [-s, s], s = sqrt(6/(fan_in+fan_out)); biases zero."""
    rows, cols = int(shape[0]), int(shape[1])
    if kind == "bias":
        return np.zeros((rows, cols))
    if kind != "weight":
        raise ValueError(f"kind must be 'weight' or 'bias', got {kind!r}")
    s = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(rows, cols, -s, s)
