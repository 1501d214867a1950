"""Dense-tensor math with reverse-mode gradients and the AdamW optimizer.

A Tensor wraps a numpy float array. Every primitive records a backward
closure on its output; Tensor.backward() replays the closures in reverse
topological order, accumulates gradients into .grad buffers, and releases
each node of the graph as soon as its closure has run. float32 is the
working precision; float64 inputs are kept as-is so gradient checks can
run in double precision.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from .errors import PsaeError


class ShapeMismatch(PsaeError):
    pass


class EmptyBatch(PsaeError):
    pass


class NoRecordedGraph(PsaeError):
    pass


class Tensor:
    """N-d float array plus an optional same-shape gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        # The first gradient is copied: backward closures may hand the same
        # array to two parents (add) or a view of their own input (reshape).
        if self.grad is None:
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def backward(self) -> None:
        """Populate .grad on every ancestor that requires grad, releasing
        the recorded graph as the walk goes: a node drops its closure and
        parents as soon as its closure has run, so a tensor the caller does
        not hold is freed, .grad and all, once every node that reads it has
        run. Tensors the caller holds keep their .grad. Raises
        NoRecordedGraph if this tensor was not produced by a recorded
        forward pass."""
        if self._backward is None:
            raise NoRecordedGraph("tensor has no recorded forward graph")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node._backward is not None:
                node._backward(node.grad)
            node._backward = None
            node._parents = ()

    # Arithmetic sugar used by the loss plumbing. Scalars stay in the
    # tensor's own dtype so float32 graphs are not silently promoted.
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.dtype))

    def __add__(self, other):
        return add(self, self._coerce(other))

    def __radd__(self, other):
        return add(self._coerce(other), self)

    def __sub__(self, other):
        return add(self, neg(self._coerce(other)))

    def __rsub__(self, other):
        return add(self._coerce(other), neg(self))

    def __mul__(self, other):
        return mul(self, self._coerce(other))

    def __rmul__(self, other):
        return mul(self._coerce(other), self)

    def __neg__(self):
        return neg(self)

    def __abs__(self):
        return absolute(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    tracked = tuple(p for p in parents if p.requires_grad)
    if tracked:
        out.requires_grad = True
        out._parents = tracked
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to `shape`, undoing numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data + b.data
    except ValueError:
        raise ShapeMismatch(f"add: cannot broadcast {a.shape} with {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.shape))

    return _make(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(-g)

    return _make(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatch(f"mul: cannot broadcast {a.shape} with {b.shape}")

    def backward(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.shape))

    return _make(data, (a, b), backward)


def absolute(a: Tensor) -> Tensor:
    def backward(g):
        a._accumulate(np.sign(a.data) * g)

    return _make(np.abs(a.data), (a,), backward)


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus bias along the last axis when given.

    bias is one value per column of a 2-d (weight) b. It is added in place
    to the product, so no pre-bias product is kept, and its gradient is
    the output gradient summed over every leading axis, as add's is.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeMismatch(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    if bias is not None and (b.ndim != 2 or bias.shape != b.shape[-1:]):
        raise ShapeMismatch(f"matmul: bias {bias.shape} needs a 2-d weight, got {b.shape}")
    data = np.matmul(a.data, b.data)
    if bias is not None:
        data += bias.data

    def backward(g):
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.shape))
        if b.ndim == 2:
            # b is a weight: fold every leading axis of a into one GEMM
            k, n = b.shape
            g2 = g.reshape(-1, n)
            if a.requires_grad:
                a._accumulate((g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                b._accumulate(a.data.reshape(-1, k).T @ g2)
            return
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.shape))

    return _make(data, (a, b) if bias is None else (a, b, bias), backward)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    if bias.ndim != 1 or bias.shape[0] != x.shape[-1]:
        raise ShapeMismatch(f"add_bias: bias {bias.shape} vs features {x.shape}")
    return add(x, bias)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    old = x.shape

    def backward(g):
        x._accumulate(g.reshape(old))

    return _make(x.data.reshape(shape), (x,), backward)


def swap_axes(x: Tensor, axis1: int, axis2: int) -> Tensor:
    def backward(g):
        x._accumulate(np.swapaxes(g, axis1, axis2))

    return _make(np.swapaxes(x.data, axis1, axis2), (x,), backward)


# erf(z) = z P(z^2) / Q(z^2) on |z| <= 4 (Eigen's generic_fast_erf_float),
# highest power first; P is halved so the quotient is erf(z) / 2.
_ERF_P = np.float32(0.5) * np.array(
    [-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
     -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02], np.float32)
_ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                   -7.37332916720468e-03, -1.42647390514189e-02], np.float32)
# Elements per pass. A pass is about 26 short ufunc calls, and the GIL
# changes hands between them, so two threads in _phi32 at once convoy on it
# unless each call runs long enough. On a [3840, 352] float32 activation
# (2-vCPU x86 VM, BLAS on one thread), one call takes 8 ms at 1 << 15 to
# 1 << 17, and two concurrent calls 20 ms at 1 << 15, 13.5 ms at 1 << 16,
# 11 ms at 1 << 17 and 14 ms at 1 << 18. Each element sees the same ufuncs
# whatever the size, so the bits do not depend on it.
_PHI_BLOCK = 1 << 17
_PDF_CLAMP = 40.0       # exp(-x^2 / 2) is exactly 0 past it in float32 and float64


def _horner(s: np.ndarray, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.multiply(s, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= s
    out += coeffs[-1]
    return out


def _phi32(x: np.ndarray) -> np.ndarray:
    """Phi(x) of a float32 array, block by block, with scratch owned by the call."""
    flat = x.reshape(-1)
    out = np.empty(flat.shape, np.float32)
    z, s, q = (np.empty(min(flat.size, _PHI_BLOCK), np.float32) for _ in range(3))
    for lo in range(0, flat.size, _PHI_BLOCK):
        p = out[lo:lo + _PHI_BLOCK]
        zb, sb = z[:p.size], s[:p.size]
        np.multiply(flat[lo:lo + p.size], np.float32(np.sqrt(0.5)), out=zb)
        np.clip(zb, -4.0, 4.0, out=zb)      # before squaring: no overflow; NaN stays
        np.multiply(zb, zb, out=sb)
        _horner(sb, _ERF_P, p)
        p *= zb
        p /= _horner(sb, _ERF_Q, q[:p.size])
        p += np.float32(0.5)
    return out.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Gaussian-error-linear unit x * Phi(x).

    float32 takes Phi from a rational erf within 3e-7 of the exact value;
    float64 keeps scipy's exact erf, which the gradient checks differentiate.
    At -inf the output is its limit 0, and the gradient is 1 at inf and 0
    at -inf.
    """
    xd = x.data
    if xd.dtype == np.float32:
        cdf = _phi32(xd)
    else:
        cdf = 0.5 * (1.0 + erf(xd / np.sqrt(xd.dtype.type(2.0))))
    data = np.maximum(xd, np.finfo(xd.dtype).min)   # -inf * Phi(-inf) would be nan
    data *= cdf

    def backward(g):
        xc = np.clip(xd, -_PDF_CLAMP, _PDF_CLAMP)   # its square cannot overflow
        pdf = np.square(xc, out=np.empty_like(xd))  # an array even when x is 0-d
        pdf *= -0.5
        np.exp(pdf, out=pdf)
        pdf /= np.sqrt(xd.dtype.type(2.0 * np.pi))
        pdf *= xc
        pdf += cdf
        pdf *= g
        x._accumulate(pdf)

    return _make(data, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(f"layer_norm: gain {gain.shape}/bias {bias.shape} vs features {d}")
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + xd.dtype.type(eps))
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backward(g):
        if gain.requires_grad:
            gain._accumulate((g * xhat).reshape(-1, d).sum(axis=0))
        if bias.requires_grad:
            bias._accumulate(g.reshape(-1, d).sum(axis=0))
        if x.requires_grad:
            gh = g * gain.data
            x._accumulate(inv * (gh - gh.mean(axis=-1, keepdims=True)
                                 - xhat * (gh * xhat).mean(axis=-1, keepdims=True)))

    return _make(data, (x, gain, bias), backward)


def softmax(x: Tensor) -> Tensor:
    """Stabilized softmax over the last axis."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        x._accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)))

    return _make(s, (x,), backward)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: output shape ids.shape + (embed_dim,)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch(f"embedding ids outside table of {table.shape[0]} rows")
    data = table.data[ids]

    def backward(g):
        table._accumulate(_segment_sum(ids.reshape(-1), g.reshape(-1, table.shape[-1]),
                                       table.shape[0]))

    return _make(data, (table,), backward)


def gather_positions(x: Tensor, batch_idx: np.ndarray, pos_idx: np.ndarray) -> Tensor:
    """Select rows (batch_idx[i], pos_idx[i], :) from a [B, L, C] tensor."""
    if x.ndim != 3:
        raise ShapeMismatch(f"gather_positions expects a 3-d tensor, got {x.shape}")
    data = x.data[batch_idx, pos_idx]

    def backward(g):
        b, l, c = x.shape
        flat = np.ravel_multi_index((batch_idx, pos_idx), (b, l))
        x._accumulate(_segment_sum(flat, g, b * l).reshape(b, l, c))

    return _make(data, (x,), backward)


def _segment_sum(ids: np.ndarray, rows: np.ndarray, size: int) -> np.ndarray:
    """[size, C] sums of rows[i] into slot ids[i], the backward of a row gather.

    A stable sort keeps each slot's rows in their original order, so a
    repeated id sums in the same order every time.
    """
    out = np.zeros((size, rows.shape[-1]), dtype=rows.dtype)
    if ids.size:
        order = np.argsort(ids, kind="stable")
        sorted_ids = ids[order]
        starts = np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])
        out[sorted_ids[starts]] = np.add.reduceat(rows[order], starts, axis=0)
    return out


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
               padding_mask: np.ndarray | None):
    """Softmax(q k^T / sqrt(d)) v on [batch, heads, length, head_dim] arrays.

    The scale is folded into q, the mask bias and the softmax run in place
    on the score matrix, and only the attention weights are kept for
    backward. Returns the output and a function that maps its gradient to
    the gradients of q, k and v.
    """
    scale = q.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    qs = q * scale
    p = np.matmul(qs, np.swapaxes(k, -1, -2))
    if padding_mask is not None:
        p += np.where(padding_mask, -1e9, 0.0).astype(q.dtype)[:, None, None, :]
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = np.matmul(p, v)

    def grads(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        gv = np.matmul(np.swapaxes(p, -1, -2), g)
        # softmax backward: p * (g v^T - rowsum), rowsum_i = g_i . out_i
        gs = np.matmul(g, np.swapaxes(v, -1, -2))
        gs -= (g * out).sum(axis=-1, keepdims=True)
        gs *= p
        return np.matmul(gs, k) * scale, np.matmul(np.swapaxes(gs, -1, -2), qs), gv

    return out, grads


def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 padding_mask: np.ndarray | None = None) -> Tensor:
    """Softmax(q k^T / sqrt(d)) v over [batch, heads, length, head_dim], as
    one graph node. q may hold fewer rows than k and v (only some positions
    query). The model runs packed_attention; this dense form is the
    reference the tests compare it against.

    padding_mask is a boolean [batch, keys] array, True at PAD positions;
    masked keys get an additive -1e9 before softmax, which underflows to an
    exactly-zero attention weight.
    """
    if not (q.ndim == k.ndim == v.ndim == 4):
        raise ShapeMismatch(f"attention expects 4-d q/k/v, got {q.shape}/{k.shape}/{v.shape}")
    if (q.shape[:2] != k.shape[:2] or k.shape[:2] != v.shape[:2]
            or q.shape[-1] != k.shape[-1] or k.shape[-2] != v.shape[-2]):
        raise ShapeMismatch(f"attention: incompatible q/k/v {q.shape}/{k.shape}/{v.shape}")
    if padding_mask is not None:
        padding_mask = np.asarray(padding_mask, dtype=bool)
        if padding_mask.shape != (q.shape[0], k.shape[-2]):
            raise ShapeMismatch(
                f"attention: padding_mask {padding_mask.shape} vs batch/keys "
                f"({q.shape[0]}, {k.shape[-2]})")
    data, grads = _attention(q.data, k.data, v.data, padding_mask)

    def backward(g):
        for t, gt in zip((q, k, v), grads(g)):
            if t.requires_grad:
                t._accumulate(gt)

    return _make(data, (q, k, v), backward)


def packed_attention(q: Tensor, k: Tensor, v: Tensor, padding_mask: np.ndarray,
                     heads: int) -> Tensor:
    """Multi-head attention over packed rows, as one graph node.

    k and v are [n, d]: the rows of the positions where padding_mask
    ([batch, length], True at PAD) is False, in row-major order. q holds
    either the same n rows or [batch, queries, d] query slots. The node
    scatters the rows into zero-filled [batch, heads, length, d / heads]
    blocks, attends as scaled_dot_product_attention does (PAD keys get an
    exactly-zero weight) and returns q's layout. When no position is PAD
    the rows already form those blocks: they are reshaped in place and no
    mask is applied.
    """
    padding_mask = np.asarray(padding_mask, dtype=bool)
    if padding_mask.ndim != 2:
        raise ShapeMismatch(f"packed attention: padding_mask must be 2-d, got {padding_mask.shape}")
    batch, length = padding_mask.shape
    dense = not padding_mask.any()
    rows = np.nonzero(~padding_mask)
    n, d = len(rows[0]), q.shape[-1]
    slots = q.ndim == 3 and q.shape[0] == batch
    if k.shape != (n, d) or v.shape != (n, d) or d % heads or not (slots or q.shape == (n, d)):
        raise ShapeMismatch(f"packed attention: q/k/v {q.shape}/{k.shape}/{v.shape} vs "
                            f"{n} rows of {heads} heads")
    head_dim = d // heads

    def split(x: np.ndarray) -> np.ndarray:
        if x.ndim == 3 or dense:
            return np.swapaxes(x.reshape(batch, -1, heads, head_dim), 1, 2)
        blocks = np.zeros((batch, heads, length, head_dim), dtype=x.dtype)
        blocks[rows[0], :, rows[1]] = x.reshape(n, heads, head_dim)
        return blocks

    def merge(x: np.ndarray, ndim: int) -> np.ndarray:
        if ndim == 3:
            return np.swapaxes(x, 1, 2).reshape(batch, -1, d)
        if dense:
            return np.swapaxes(x, 1, 2).reshape(n, d)
        return x[rows[0], :, rows[1]].reshape(n, d)

    data, grads = _attention(split(q.data), split(k.data), split(v.data),
                             None if dense else padding_mask)

    def backward(g):
        for t, gt in zip((q, k, v), grads(split(g))):
            if t.requires_grad:
                t._accumulate(merge(gt, t.ndim))

    return _make(merge(data, q.ndim), (q, k, v), backward)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax(logits).

    logits: [n, classes]; targets: [n] ints. Stabilized by max-subtraction.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2:
        raise ShapeMismatch(f"cross entropy expects [n, classes] logits, got {logits.shape}")
    n, c = logits.shape
    if n == 0:
        raise EmptyBatch("cross entropy over zero rows")
    if targets.shape != (n,):
        raise ShapeMismatch(f"targets {targets.shape} vs logits rows {n}")
    if targets.min() < 0 or targets.max() >= c:
        raise ShapeMismatch(f"targets outside [0, {c})")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    nll = lse - z[np.arange(n), targets]
    data = np.asarray(nll.mean(), dtype=logits.dtype)

    def backward(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), targets] -= 1.0
        logits._accumulate(p * (g / n))

    return _make(data, (logits,), backward)


class AdamW:
    """Adam with bias correction and decoupled weight decay.

    Decay applies only to matrix-shaped parameters (ndim >= 2): weight
    matrices and embeddings, never biases or layer-norm gains.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8,
                 weight_decay: float = 0.01):
        self.params = dict(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in self.params.items()}
        self._decayed = {name: p.ndim >= 2 for name, p in self.params.items()}

    def step(self) -> None:
        """One in-place update over all parameters; missing grads count as zero."""
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for name, p in self.params.items():
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ShapeMismatch(f"grad {g.shape} vs param {p.data.shape} for {name!r}")
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.epsilon)
            if self._decayed[name] and self.weight_decay:
                update = update + self.weight_decay * p.data
            p.data -= (self.learning_rate * update).astype(p.dtype, copy=False)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None
