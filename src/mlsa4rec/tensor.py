"""Minimal dense-tensor arithmetic with reverse-mode differentiation.

Tensors wrap numpy arrays of rank <= 3, not always contiguous (slice_last
returns a strided view), and record a tape of backward closures so that
gradients of a scalar loss reach every parameter analytically.  Default
precision is float32; a float64 mode exists because finite-difference
gradient checking is unreliable in single precision.

The tape's graph is kept apart from the data.  A tensor that needs a
gradient holds its array, its .grad slot and a _Node: the backward
closure, the parents' nodes and the creation number, and for a leaf the
leaf tensor.  No node holds an array, and a closure captures arrays and
shapes, never a tensor, so the tape keeps exactly the arrays some
backward reads: an op result that the forward drops is freed at once,
unless a closure captured its array.
"""

from __future__ import annotations

import heapq
import itertools
import math
import struct
from contextlib import contextmanager
from typing import Callable, Iterable

import numpy as np
from scipy.special import erfc

DEFAULT_DTYPE = np.float32

CHECKPOINT_MAGIC = b"MLSA"
CHECKPOINT_VERSION = 1

# added to the variance in layernorm, so a constant row divides by a
# finite number
LAYERNORM_EPS = 1e-12
# central-difference step of grad_check, sized for float64 parameters
GRAD_CHECK_EPS = 1e-4

# Python floats: a numpy float64 scalar would promote a float32 array
_INV_SQRT2 = 2.0 ** -0.5
_INV_SQRT_2PI = (2.0 * np.pi) ** -0.5


class ShapeError(ValueError):
    """Operand dimensions do not satisfy an operation's contract."""


class NumericsError(ArithmeticError):
    """An operation produced NaN/Inf; never silently propagated."""


class CheckpointError(IOError):
    """Checkpoint file is malformed or version-incompatible."""


_tape_on = True
_created = itertools.count()  # creation numbers; next() is atomic under the GIL


@contextmanager
def no_grad():
    """Disable tape recording inside the block (inference / benchmarks)."""
    global _tape_on
    prev = _tape_on
    _tape_on = False
    try:
        yield
    finally:
        _tape_on = prev


def recording(parents: Iterable[Tensor]) -> bool:
    """An op goes on the tape outside no_grad when a parent requires grad."""
    return _tape_on and any(p.requires_grad for p in parents)


class _Node:
    """A tensor's place on the tape, without its data: the backward closure,
    the parents' nodes (None for a parent that needs no gradient), the
    creation number and, for a leaf, the leaf tensor whose .grad it fills."""

    __slots__ = ("backward", "parents", "seq", "leaf", "__weakref__")

    def __init__(self, backward, parents: tuple, leaf: Tensor | None = None):
        self.backward = backward
        self.parents = parents
        self.seq = next(_created)
        self.leaf = leaf


class Tensor:
    """An array over float32 or float64 data (other dtypes become float32),
    with a tape node when it needs a gradient."""

    __slots__ = ("data", "grad", "_node", "_op", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        if arr.ndim > 3:
            raise ShapeError(f"rank {arr.ndim} exceeds the supported maximum of 3")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._node = _Node(None, (), self) if requires_grad else None
        self._op = "leaf"

    # -- introspection ------------------------------------------------

    @property
    def requires_grad(self) -> bool:
        return self._node is not None

    @property
    def _backward(self) -> Callable[[np.ndarray], tuple] | None:
        """The node's closure; a tracer may read and rewrap it."""
        return None if self._node is None else self._node.backward

    @_backward.setter
    def _backward(self, backward) -> None:
        self._node.backward = backward

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, op={self._op})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- autodiff -----------------------------------------------------

    def backward(self) -> None:
        """Backpropagate from a scalar root, accumulating into .grad slots.

        An op node is made after its parents, so creation order is a
        topological order: popped newest first, a node comes after all its
        consumers, and only once a gradient reaches it.  Each op node is
        released as its closure returns, freeing its saved arrays mid-walk.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar root")
        root = self._node or _Node(None, (), self)
        grads: dict[_Node, np.ndarray] = {root: np.ones_like(self.data)}
        pending = [(-root.seq, root)]
        while pending:
            node = heapq.heappop(pending)[1]
            g = grads.pop(node)
            leaf = node.leaf
            if leaf is not None:
                if leaf.grad is None:
                    leaf.grad = np.zeros_like(leaf.data)
                leaf.grad += g
                continue
            backward, parents = node.backward, node.parents
            if backward is None:
                raise RuntimeError("backward() through a graph that was already freed: "
                                   "each op node is released once its gradient has "
                                   "been propagated; rebuild the graph to run it again")
            node.backward, node.parents = None, ()
            for p, pg in zip(parents, backward(g)):
                if p is None:
                    continue
                prev = grads.get(p)
                if prev is None:
                    heapq.heappush(pending, (-p.seq, p))
                # a closure may hand the same buffer to several
                # parents, so accumulate without in-place writes
                grads[p] = pg if prev is None else prev + pg
            del backward, parents


def make_op(data: np.ndarray, parents: Iterable[Tensor],
            backward: Callable[[np.ndarray], tuple], op: str) -> Tensor:
    """Create an op-result Tensor through Tensor(), with finite values only.

    backward must capture arrays and shapes, never a Tensor: the node keeps
    the closure, and a captured op result would keep its whole array alive.
    """
    if not np.all(np.isfinite(data)):
        raise NumericsError(f"non-finite values produced by '{op}'")
    parents = tuple(parents)
    out = Tensor(data)
    out._op = op
    if recording(parents):
        out._node = _Node(backward, tuple(p._node for p in parents))
    return out


# ---------------------------------------------------------------------------
# elementary operations
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a rank-1 bias broadcast on the last axis."""
    if a.shape == b.shape:
        def bwd(g):
            return g, g
    elif b.data.ndim == 1 and a.shape[-1] == b.shape[0]:
        def bwd(g):
            axes = tuple(range(g.ndim - 1))
            return g, g.sum(axis=axes)
    else:
        raise ShapeError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return make_op(a.data + b.data, (a, b), bwd, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"sub: incompatible shapes {a.shape} and {b.shape}")

    def bwd(g):
        return g, -g
    return make_op(a.data - b.data, (a, b), bwd, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of the same shape."""
    if a.shape != b.shape:
        raise ShapeError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    ad, bd = a.data, b.data

    def bwd(g):
        return g * bd, g * ad
    return make_op(ad * bd, (a, b), bwd, "mul")


def masked_fill(a: Tensor, keep: np.ndarray, value: float = 0.0) -> Tensor:
    """a where keep is true, value elsewhere; keep is a constant boolean
    array broadcast against a (a padding mask, say).  Kept entries pass
    through unchanged and only they receive gradient."""
    keep = np.asarray(keep, dtype=bool)

    def bwd(g):
        return (np.where(keep, g, 0.0),)
    return make_op(np.where(keep, a.data, value), (a,), bwd, "masked_fill")


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)

    def bwd(g):
        return (g * c,)
    return make_op(a.data * c, (a,), bwd, "scale")


def neg(a: Tensor) -> Tensor:
    return scale(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product.

    Supports (m,k)@(k,p), batched (B,m,k)@(k,p) with a shared right
    operand, and (B,m,k)@(B,k,p).  No other broadcasting.
    """
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError("matmul requires rank >= 2 operands")
    if ad.ndim == 2 and bd.ndim == 3:
        raise ShapeError("matmul: batched right operand needs a batched left operand")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dims disagree {a.shape} @ {b.shape}")
    if ad.ndim == 3 and bd.ndim == 3 and ad.shape[0] != bd.shape[0]:
        raise ShapeError(f"matmul: batch dims disagree {a.shape} @ {b.shape}")
    out = ad @ bd

    def bwd(g):
        da = g @ np.swapaxes(bd, -1, -2)
        if ad.ndim == bd.ndim:
            db = np.swapaxes(ad, -1, -2) @ g
        else:  # (B,m,k) @ (k,p): fold batch into the reduction for db
            db = ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        return da, db
    return make_op(out, (a, b), bwd, "matmul")


def transpose_last(a: Tensor) -> Tensor:
    if a.data.ndim < 2:
        raise ShapeError("transpose_last requires rank >= 2")

    def bwd(g):
        return (np.ascontiguousarray(np.swapaxes(g, -1, -2)),)
    return make_op(np.ascontiguousarray(np.swapaxes(a.data, -1, -2)), (a,), bwd, "transpose")


def concat_last(tensors: list[Tensor]) -> Tensor:
    widths = [t.shape[-1] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=-1)

    def bwd(g):
        pieces, start = [], 0
        for w in widths:
            pieces.append(g[..., start:start + w])
            start += w
        return tuple(pieces)
    return make_op(out, tensors, bwd, "concat")


def slice_last(a: Tensor, start: int, stop: int) -> Tensor:
    """Columns start:stop of the last axis, as a view of a's data."""
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        full = np.zeros(shape, dtype=dtype)
        full[..., start:stop] = g
        return (full,)
    return make_op(a.data[..., start:stop], (a,), bwd, "slice")


def take_row(a: Tensor, idx: int) -> Tensor:
    """Select one index along axis -2 (one sequence position), dropping it."""
    if a.data.ndim < 2:
        raise ShapeError("take_row requires rank >= 2")
    out = np.ascontiguousarray(a.data[..., idx, :])
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        full = np.zeros(shape, dtype=dtype)
        full[..., idx, :] = g
        return (full,)
    return make_op(out, (a,), bwd, "take_row")


def tsum(a: Tensor) -> Tensor:
    shape, dtype = a.shape, a.dtype

    def bwd(g):
        return (np.full(shape, float(g), dtype=dtype),)
    return make_op(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,), bwd, "sum")


def tmean(a: Tensor) -> Tensor:
    n, shape, dtype = a.data.size, a.shape, a.dtype

    def bwd(g):
        return (np.full(shape, float(g) / n, dtype=dtype),)
    return make_op(np.asarray(a.data.mean(), dtype=a.data.dtype), (a,), bwd, "mean")


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def softmax(x: Tensor) -> Tensor:
    """Exp-normalize along the last axis with max-subtraction for stability."""
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)
    return make_op(out, (x,), bwd, "softmax")


def layernorm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Standardize each row over the last axis, then apply gain and bias."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError("layernorm: gain/bias must match the feature width")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = xc * inv
    gd = gain.data
    out = xhat * gd + bias.data

    def bwd(g):
        lead = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=lead)
        dbias = g.sum(axis=lead)
        dxhat = g * gd
        dx = inv * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        return dx, dgain, dbias
    return make_op(out, (x, gain, bias), bwd, "layernorm")


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in a new array, on numpy's own ufuncs: scipy's
    expit took 3-4 times as long.  Below about -88 in float32, exp(-x)
    overflows to inf and the result is exactly 0."""
    s = np.negative(x)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.reciprocal(s, out=s)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)

    def bwd(g):
        return (g * s * (1.0 - s),)
    return make_op(s, (x,), bwd, "sigmoid")


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x); the backward reads s and the output, not x:
    d/dx = s * (1 + x * (1 - s)) = s + out * (1 - s)."""
    s = _sigmoid(x.data)
    out = x.data * s

    def bwd(g):
        return (g * (s + out * (1.0 - s)),)
    return make_op(out, (x,), bwd, "silu")


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-CDF form: x * Phi(x), with Phi(x) = erfc(-x/sqrt2)/2,
    which unlike 1 + erf(x/sqrt2) does not cancel in float32 for x < 0."""
    xd = x.data
    phi_cdf = 0.5 * erfc(xd * -_INV_SQRT2)
    out = xd * phi_cdf

    def bwd(g):
        pdf = np.exp(-0.5 * xd * xd) * _INV_SQRT_2PI
        return (g * (phi_cdf + xd * pdf),)
    return make_op(out, (x,), bwd, "gelu")


def softplus_(x: np.ndarray) -> np.ndarray:
    """x <- log(1 + exp(x)) in place; x itself above 30, where the exp
    would lose it."""
    big = x > 30.0
    kept = x[big]
    np.minimum(x, 30.0, out=x)
    np.exp(x, out=x)
    np.log1p(x, out=x)
    x[big] = kept
    return x


def softplus(x: Tensor) -> Tensor:
    xd = x.data

    def bwd(g):
        return (g * _sigmoid(xd),)
    return make_op(softplus_(xd.copy()), (x,), bwd, "softplus")


def exp(x: Tensor) -> Tensor:
    out = np.exp(x.data)

    def bwd(g):
        return (g * out,)
    return make_op(out, (x,), bwd, "exp")


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: output position t is table[ids[t]].  ids may be batched."""
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise IndexError(
            f"item id out of range [0, {table.shape[0]}): "
            f"min={ids.min()}, max={ids.max()}")
    out = table.data[ids]
    shape, dtype = table.shape, table.dtype

    def bwd(g):
        dtab = np.zeros(shape, dtype=dtype)
        np.add.at(dtab, ids.reshape(-1), g.reshape(-1, shape[1]))
        return (dtab,)
    return make_op(out, (table,), bwd, "embedding")


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: each entry is kept with probability 1 - p, drawn
    from rng's float64 stream, and scaled by 1 / (1 - p) in x's dtype.
    The backward keeps the boolean mask and the scale."""
    if not training or p <= 0.0:
        return x
    keep = rng.random(x.shape) >= p
    dt = x.data.dtype.type
    scale = dt(1.0) / dt(1.0 - p)

    def bwd(g):
        return (np.multiply(g, scale, out=np.zeros_like(g), where=keep),)
    return make_op(np.multiply(x.data, scale, out=np.zeros_like(x.data),
                               where=keep), (x,), bwd, "dropout")


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-softmax of the target classes, via log-sum-exp.

    logits is [V] or [B, V]; targets is a scalar id or an id per row.
    Padding id 0 is never a valid target.
    """
    ld = logits.data if logits.data.ndim == 2 else logits.data[None, :]
    tg = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    if tg.shape[0] != ld.shape[0]:
        raise ShapeError("cross_entropy: one target per logit row required")
    if tg.min() < 1 or tg.max() >= ld.shape[1]:
        raise ValueError("cross_entropy: target must be a real item id (>= 1)")
    m = ld.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(ld - m).sum(axis=1))
    rows = np.arange(ld.shape[0])
    losses = lse - ld[rows, tg]
    out = np.asarray(losses.mean(), dtype=logits.data.dtype)
    shape = logits.shape

    def bwd(g):
        soft = np.exp(ld - m)
        soft /= soft.sum(axis=1, keepdims=True)
        soft[rows, tg] -= 1.0
        soft *= float(g) / ld.shape[0]
        return (soft.reshape(shape),)
    return make_op(out, (logits,), bwd, "cross_entropy")


# ---------------------------------------------------------------------------
# parameter store
# ---------------------------------------------------------------------------

class ParameterStore:
    """Named parameter tensors with persistent gradient slots."""

    def __init__(self, rng_seed: int = 0, dtype=DEFAULT_DTYPE):
        self.entries: dict[str, Tensor] = {}
        self.rng = np.random.default_rng(int(rng_seed))
        self.dtype = np.dtype(dtype)

    def add(self, name: str, data) -> Tensor:
        if name in self.entries:
            raise ValueError(f"duplicate parameter name: {name}")
        t = Tensor(np.array(data, dtype=self.dtype), requires_grad=True)
        t.grad = np.zeros_like(t.data)
        self.entries[name] = t
        return t

    def uniform(self, name: str, shape: tuple[int, ...], fan_in: int) -> Tensor:
        bound = 1.0 / np.sqrt(fan_in)
        return self.add(name, self.rng.uniform(-bound, bound, size=shape))

    def zeros(self, name: str, shape: tuple[int, ...]) -> Tensor:
        return self.add(name, np.zeros(shape))

    def __getitem__(self, name: str) -> Tensor:
        return self.entries[name]

    def zero_grads(self) -> None:
        for t in self.entries.values():
            t.grad[...] = 0.0

    def snapshot(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.entries.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        """Overwrite every parameter; values must name all of them and no others.

        Every name and shape is checked before any entry is written, so a
        rejected set leaves the store as it was.
        """
        missing = [name for name in self.entries if name not in values]
        if missing:
            raise KeyError(f"values lack {len(missing)} parameter(s): "
                           + ", ".join(missing))
        for name, arr in values.items():
            if name not in self.entries:
                raise KeyError(f"unknown parameter: {name}")
            if self.entries[name].data.shape != arr.shape:
                raise ShapeError(f"shape mismatch loading {name}: given {arr.shape}, "
                                 f"parameter is {self.entries[name].data.shape}")
        for name, arr in values.items():
            self.entries[name].data[...] = arr.astype(self.dtype)


# ---------------------------------------------------------------------------
# checkpoint serialization (bit-exact format, gradients never stored)
# ---------------------------------------------------------------------------

def save_checkpoint(store: ParameterStore, path: str) -> None:
    """Write: magic "MLSA", u32 version, u32 count, then per tensor:
    u32 name length, UTF-8 name, u32 rank, u32 dims, f32-LE values."""
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(store.entries)))
        for name, t in store.entries.items():
            raw = name.encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<I", t.data.ndim))
            for d in t.data.shape:
                fh.write(struct.pack("<I", d))
            fh.write(np.ascontiguousarray(t.data, dtype="<f4").tobytes())


def load_checkpoint(path: str) -> dict[str, np.ndarray]:
    """Read a save_checkpoint file as float32 arrays by name, in file order."""
    with open(path, "rb") as fh:
        blob = fh.read()
    off = 0

    def take(size: int) -> bytes:
        nonlocal off
        if off + size > len(blob):
            raise CheckpointError(f"{path}: truncated after {len(blob)} bytes")
        off += size
        return blob[off - size:off]

    if take(4) != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes")
    version, count = struct.unpack("<II", take(8))
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    values: dict[str, np.ndarray] = {}
    for _ in range(count):
        (nlen,) = struct.unpack("<I", take(4))
        try:
            name = take(nlen).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: tensor name at byte {off - nlen} "
                                  "is not UTF-8") from None
        if name in values:
            raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        n = math.prod(dims)
        values[name] = np.frombuffer(take(4 * n), dtype="<f4").reshape(dims)
    if off != len(blob):
        raise CheckpointError(f"{path}: {len(blob) - off} trailing bytes")
    return values


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[[ParameterStore], Tensor], params: ParameterStore,
               n_samples: int = 50, seed: int = 0) -> float:
    """Worst relative error between analytic and central-difference gradients.

    f must be a deterministic scalar function of the store (seed fixed,
    dropout disabled).  The store must be in float64.
    """
    if params.dtype != np.float64:
        raise ValueError("grad_check requires a float64 parameter store")
    params.zero_grads()
    loss = f(params)
    loss.backward()

    coords = []
    for name, t in params.entries.items():
        coords.extend((name, i) for i in range(t.data.size))
    rng = np.random.default_rng(seed)
    picked = [coords[i] for i in rng.choice(len(coords),
                                            size=min(n_samples, len(coords)),
                                            replace=False)]
    worst = 0.0
    with no_grad():
        for name, idx in picked:
            flat = params[name].data.reshape(-1)
            orig = flat[idx]
            flat[idx] = orig + GRAD_CHECK_EPS
            f_plus = float(f(params).data)
            flat[idx] = orig - GRAD_CHECK_EPS
            f_minus = float(f(params).data)
            flat[idx] = orig
            fd = (f_plus - f_minus) / (2.0 * GRAD_CHECK_EPS)
            an = float(params[name].grad.reshape(-1)[idx])
            denom = max(abs(fd), abs(an))
            if denom < 1e-7:
                continue  # both effectively zero
            worst = max(worst, abs(fd - an) / denom)
    return worst
