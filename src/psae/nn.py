"""Dense-tensor math with reverse-mode gradients and the AdamW optimizer.

A Tensor wraps a numpy float array and a small autograd node. Every
primitive records a backward closure on its output's node; the graph links
nodes, not tensors, and each closure holds its parents' nodes and exactly
the arrays its backward reads, so a training graph keeps only those:
an intermediate that no backward reads (a residual sum, an embedding
lookup, gelu's input) is freed as soon as forward drops its Tensor.
Tensor.backward() replays the closures in reverse topological order,
accumulates gradients into the nodes' .grad buffers, and releases each
node of the graph as soon as its closure has run. float32 is the working
precision; float64 inputs are kept as-is so gradient checks can run in
double precision.

The ops that stream the largest arrays (attention over blocks of batch
rows, gelu over blocks of elements) write into outputs allocated once and
keep their temporaries to one cache-sized block. Every element sees the
same ufuncs and GEMMs whatever the block size, so blocking never changes
a bit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PsaeError


class ShapeMismatch(PsaeError):
    pass


class EmptyBatch(PsaeError):
    pass


class NoRecordedGraph(PsaeError):
    pass


class _Node:
    """The autograd state of one Tensor: its gradient, the nodes of the
    tracked tensors it was computed from, and the closure that sends its
    gradient on to them. A closure holds parent nodes and the arrays its
    backward reads, never a Tensor, so an array that no backward reads is
    freed as soon as forward drops its Tensor."""

    __slots__ = ("grad", "parents", "backward", "dtype")

    def __init__(self, dtype):
        self.grad: np.ndarray | None = None
        self.parents: tuple[_Node, ...] = ()
        self.backward = None
        self.dtype = dtype

    def accumulate(self, g: np.ndarray, owned: bool = False) -> None:
        # A closure passes owned=True when it allocated g itself, for this
        # node alone; that g becomes the first gradient without a copy (a
        # dtype mismatch still casts). Every op but add, reshape and
        # swap_axes does: add hands its own input g to both parents, and
        # reshape and swap_axes a view of it, which a later += would write
        # through, so those first gradients are copied.
        if self.grad is None:
            self.grad = g if owned and g.dtype == self.dtype else np.array(g, dtype=self.dtype)
        else:
            self.grad += g


class Tensor:
    """N-d float array plus its autograd node. .grad and ._backward read and
    write the node, which outlives the Tensor only while the graph links it."""

    __slots__ = ("data", "requires_grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self._node = _Node(arr.dtype)

    @property
    def grad(self) -> np.ndarray | None:
        return self._node.grad

    @grad.setter
    def grad(self, value: np.ndarray | None) -> None:
        self._node.grad = value

    @property
    def _backward(self):
        return self._node.backward

    @_backward.setter
    def _backward(self, fn) -> None:
        self._node.backward = fn

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

    def backward(self) -> None:
        """Populate .grad on every ancestor that requires grad, releasing
        the recorded graph as the walk goes: a node drops its closure and
        parents as soon as its closure has run, so the node of a tensor the
        caller does not hold is freed, .grad and all, once every node that
        reads it has run. Tensors the caller holds keep their .grad. Raises
        NoRecordedGraph if this tensor was not produced by a recorded
        forward pass."""
        root = self._node
        if root.backward is None:
            raise NoRecordedGraph("tensor has no recorded forward graph")
        topo: list[_Node] = []
        seen: set[int] = set()
        stack: list[tuple[_Node, bool]] = [(root, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        root.grad = np.ones_like(self.data)
        while topo:
            node = topo.pop()
            if node.backward is not None:
                node.backward(node.grad)
            node.backward = None
            node.parents = ()

    # The operators of |l - b| + b in model.flooded_loss. Scalars stay in
    # the tensor's own dtype so float32 graphs are not silently promoted.
    def _coerce(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(np.asarray(other, dtype=self.dtype))

    def __add__(self, other):
        return add(self, self._coerce(other))

    def __sub__(self, other):
        return add(self, neg(self._coerce(other)))

    def __abs__(self):
        return absolute(self)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    tracked = tuple(p._node for p in parents if p.requires_grad)
    if tracked:
        out.requires_grad = True
        out._node.parents = tracked
        out._node.backward = backward
    return out


def _tracked(t: Tensor) -> _Node | None:
    """The node a backward closure sends t's gradient to; None when t is
    not tracked."""
    return t._node if t.requires_grad else None


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
    an, bn, a_shape, b_shape = _tracked(a), _tracked(b), a.shape, b.shape

    def backward(g):
        if an is not None:
            an.accumulate(_unbroadcast(g, a_shape))
        if bn is not None:
            bn.accumulate(_unbroadcast(g, b_shape))

    return _make(data, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    an = a._node

    def backward(g):
        an.accumulate(-g, owned=True)

    return _make(-a.data, (a,), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        data = a.data * b.data
    except ValueError:
        raise ShapeMismatch(f"mul: cannot broadcast {a.shape} with {b.shape}")
    an, bn, a_shape, b_shape = _tracked(a), _tracked(b), a.shape, b.shape
    # each gradient reads the other factor
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    def backward(g):
        if an is not None:
            an.accumulate(_unbroadcast(g * b_data, a_shape), owned=True)
        if bn is not None:
            bn.accumulate(_unbroadcast(g * a_data, b_shape), owned=True)

    return _make(data, (a, b), backward)


def absolute(a: Tensor) -> Tensor:
    an, a_data = a._node, a.data

    def backward(g):
        an.accumulate(np.sign(a_data) * g, owned=True)

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
    an, bn = _tracked(a), _tracked(b)
    biasn = None if bias is None else _tracked(bias)
    a_shape, b_shape = a.shape, b.shape
    # a's gradient reads b, and b's reads a
    a_data = a.data if bn is not None else None
    b_data = b.data if an is not None else None

    def backward(g):
        if biasn is not None:
            biasn.accumulate(_unbroadcast(g, b_shape[-1:]), owned=True)
        if len(b_shape) == 2:
            # b is a weight: fold every leading axis of a into one GEMM
            k, n = b_shape
            g2 = g.reshape(-1, n)
            if an is not None:
                an.accumulate((g2 @ b_data.T).reshape(a_shape), owned=True)
            if bn is not None:
                bn.accumulate(a_data.reshape(-1, k).T @ g2, owned=True)
            return
        if an is not None:
            ga = np.matmul(g, np.swapaxes(b_data, -1, -2))
            an.accumulate(_unbroadcast(ga, a_shape), owned=True)
        if bn is not None:
            gb = np.matmul(np.swapaxes(a_data, -1, -2), g)
            bn.accumulate(_unbroadcast(gb, b_shape), owned=True)

    return _make(data, (a, b) if bias is None else (a, b, bias), backward)


def add_bias(x: Tensor, bias: Tensor) -> Tensor:
    if bias.ndim != 1 or bias.shape[0] != x.shape[-1]:
        raise ShapeMismatch(f"add_bias: bias {bias.shape} vs features {x.shape}")
    return add(x, bias)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    xn, old = x._node, x.shape

    def backward(g):
        xn.accumulate(g.reshape(old))

    return _make(x.data.reshape(shape), (x,), backward)


def swap_axes(x: Tensor, axis1: int, axis2: int) -> Tensor:
    xn = x._node

    def backward(g):
        xn.accumulate(np.swapaxes(g, axis1, axis2))

    return _make(np.swapaxes(x.data, axis1, axis2), (x,), backward)


# numpy has no erf. float64 gelu, which only the gradient checks run, takes
# the C library's element by element.
erf = np.vectorize(math.erf, otypes=[np.float64])

# erf(z) = z P(z^2) / Q(z^2) on |z| <= 4 (Eigen's generic_fast_erf_float),
# highest power first; P is halved so the quotient is erf(z) / 2.
_ERF_P = np.float32(0.5) * np.array(
    [-2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06, -5.69250639462346e-05,
     -7.34990630326855e-04, -2.95459980854025e-03, -1.60960333262415e-02], np.float32)
_ERF_Q = np.array([-1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
                   -7.37332916720468e-03, -1.42647390514189e-02], np.float32)
# Elements per block of gelu and of its derivative. A forward block is about
# 28 short ufunc calls, and the GIL changes hands between them, so two
# threads in gelu at once convoy on it unless each call runs long enough.
# On a [3840, 352] float32 activation (2-vCPU x86 VM, BLAS on one thread),
# one call takes 8 ms at 1 << 15 to 1 << 17, and two concurrent calls 20 ms
# at 1 << 15, 13.5 ms at 1 << 16, 11 ms at 1 << 17 and 14 ms at 1 << 18.
# A block's scratch (512 KiB of float32 per array) stays in L2 or L3 across
# those calls. Each element sees the same ufuncs whatever the size, so the
# bits do not depend on it.
_PHI_BLOCK = 1 << 17
_PDF_CLAMP = 40.0       # exp(-x^2 / 2) is exactly 0 past it in float32 and float64


def _horner(s: np.ndarray, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
    np.multiply(s, coeffs[0], out=out)
    for c in coeffs[1:-1]:
        out += c
        out *= s
    out += coeffs[-1]
    return out


def _phi32_block(x: np.ndarray, out: np.ndarray, scratch: list[np.ndarray]) -> np.ndarray:
    """Phi(x) of a float32 block of at most _PHI_BLOCK elements into out,
    using three scratch arrays of at least that size. The caller owns the
    scratch: gelu runs on two threads at once."""
    z, s, q = (a[:x.size] for a in scratch)
    np.multiply(x, np.float32(np.sqrt(0.5)), out=z)
    np.clip(z, -4.0, 4.0, out=z)        # before squaring: no overflow; NaN stays
    np.multiply(z, z, out=s)
    _horner(s, _ERF_P, out)
    out *= z
    out /= _horner(s, _ERF_Q, q)
    out += np.float32(0.5)
    return out


def _phi32(x: np.ndarray) -> np.ndarray:
    """Phi(x) of a float32 array, block by block."""
    flat = x.reshape(-1)
    out = np.empty(flat.shape, np.float32)
    scratch = [np.empty(min(flat.size, _PHI_BLOCK), np.float32) for _ in range(3)]
    for lo in range(0, flat.size, _PHI_BLOCK):
        _phi32_block(flat[lo:lo + _PHI_BLOCK], out[lo:lo + _PHI_BLOCK], scratch)
    return out.reshape(x.shape)


def _gelu_derivative(x: np.ndarray, cdf: np.ndarray, out: np.ndarray,
                     scratch: np.ndarray) -> None:
    """Phi(x) + x phi(x), gelu's derivative, into out, given Phi(x) in cdf
    and one scratch array of x's size."""
    c = np.clip(x, -_PDF_CLAMP, _PDF_CLAMP, out=scratch)    # no overflow
    pdf = np.square(c, out=out)
    pdf *= -0.5
    np.exp(pdf, out=pdf)
    pdf /= np.sqrt(x.dtype.type(2.0 * np.pi))
    pdf *= c
    pdf += cdf


def gelu(x: Tensor, out: np.ndarray | None = None) -> Tensor:
    """Gaussian-error-linear unit x * Phi(x).

    float32 takes Phi from a rational erf within 3e-7 of the exact value,
    block by block straight into the output, holding one block of it.
    float64 takes the C library's erf element by element, which the gradient
    checks differentiate. When x requires grad, forward also computes the
    derivative Phi(x) + x phi(x) (block by block in float32) and keeps it
    alone, so backward is one product with the output gradient and reads
    neither x nor Phi. At -inf the output is its limit 0, and the gradient
    is 1 at inf and 0 at -inf.

    out, as in numpy, is a C-contiguous array of x's shape and dtype that
    receives the result and becomes its data. It may be x.data itself when
    x records no graph, and must not overlap x otherwise. Each block is read
    whole before it is written, so the bytes are those of an allocated
    output either way.
    """
    xd = x.data
    flat = xd.reshape(-1)
    n = flat.size
    lowest = np.finfo(xd.dtype).min     # -inf * Phi(-inf) would be nan
    if out is None:
        out = np.empty(xd.shape, xd.dtype)
    elif out.shape != xd.shape or out.dtype != xd.dtype or not out.flags.c_contiguous:
        raise ShapeMismatch(f"gelu: out {out.shape} {out.dtype} must be C-contiguous "
                            f"{xd.shape} {xd.dtype}")
    elif (x.requires_grad or out is not xd) and np.may_share_memory(out, xd):
        raise ShapeMismatch("gelu: out may overlap x only by being the data of an x "
                            "that records no graph")
    data = out.reshape(-1)
    deriv = np.empty(n, xd.dtype) if x.requires_grad else None
    if xd.dtype == np.float32:
        cdf = np.empty(min(n, _PHI_BLOCK), np.float32)
        scratch = [np.empty(min(n, _PHI_BLOCK), np.float32) for _ in range(3)]
        for lo in range(0, n, _PHI_BLOCK):
            xb = flat[lo:lo + _PHI_BLOCK]
            p = _phi32_block(xb, cdf[:xb.size], scratch)
            if deriv is not None:
                _gelu_derivative(xb, p, deriv[lo:lo + xb.size], scratch[0][:xb.size])
            d = np.maximum(xb, lowest, out=data[lo:lo + xb.size])
            d *= p
    else:
        cdf = 0.5 * (1.0 + erf(flat / np.sqrt(xd.dtype.type(2.0))))
        if deriv is not None:
            _gelu_derivative(flat, cdf, deriv, np.empty_like(flat))
        np.maximum(flat, lowest, out=data)
        data *= cdf
    xn, shape = x._node, xd.shape

    def backward(g):
        xn.accumulate(np.multiply(deriv.reshape(shape), g), owned=True)

    return _make(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeMismatch(f"layer_norm: gain {gain.shape}/bias {bias.shape} vs features {d}")
    xd = x.data
    xhat = xd - xd.mean(axis=-1, keepdims=True)     # centred until scaled below
    sq = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(sq.mean(axis=-1, keepdims=True) + xd.dtype.type(eps))
    xhat *= inv
    # the dtype of xhat * gain + bias: a gain or bias wider than x widens it
    dtype = np.result_type(xhat, gain.data, bias.data)
    data = np.multiply(xhat, gain.data, out=sq if sq.dtype == dtype else np.empty_like(sq, dtype))
    data += bias.data
    xn, gain_n, bias_n, gain_data = _tracked(x), _tracked(gain), _tracked(bias), gain.data

    def backward(g):
        if gain_n is not None:
            gain_n.accumulate((g * xhat).reshape(-1, d).sum(axis=0), owned=True)
        if bias_n is not None:
            bias_n.accumulate(g.reshape(-1, d).sum(axis=0), owned=True)
        if xn is not None:
            # inv * (gh - mean(gh) - xhat * mean(gh * xhat)), in gh's buffer.
            # g has the output's dtype, so gh is at least as wide as xhat and
            # inv and no in-place step narrows a result.
            gh = g * gain_data
            t = gh * xhat
            b = t.mean(axis=-1, keepdims=True)
            gh -= gh.mean(axis=-1, keepdims=True)
            gh -= np.multiply(xhat, b, out=t)
            gh *= inv
            xn.accumulate(gh, owned=True)

    return _make(data, (x, gain, bias), backward)


def softmax(x: Tensor) -> Tensor:
    """Stabilized softmax over the last axis."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=-1, keepdims=True)
    xn = x._node

    def backward(g):
        xn.accumulate(s * (g - (g * s).sum(axis=-1, keepdims=True)), owned=True)

    return _make(s, (x,), backward)


def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: output shape ids.shape + (embed_dim,)."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch(f"embedding ids outside table of {table.shape[0]} rows")
    data = table.data[ids]
    tn, (rows, dim) = table._node, table.shape

    def backward(g):
        tn.accumulate(_segment_sum(ids.reshape(-1), g.reshape(-1, dim), rows), owned=True)

    return _make(data, (table,), backward)


def gather_positions(x: Tensor, batch_idx: np.ndarray, pos_idx: np.ndarray) -> Tensor:
    """Select rows (batch_idx[i], pos_idx[i], :) from a [B, L, C] tensor."""
    if x.ndim != 3:
        raise ShapeMismatch(f"gather_positions expects a 3-d tensor, got {x.shape}")
    data = x.data[batch_idx, pos_idx]
    xn, (b, l, c) = x._node, x.shape

    def backward(g):
        flat = np.ravel_multi_index((batch_idx, pos_idx), (b, l))
        xn.accumulate(_segment_sum(flat, g, b * l).reshape(b, l, c), owned=True)

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


# Score-matrix bytes per block of batch rows in _attention: two rows of
# [4 heads, 128, 128] float32, so a block's scores, softmax and gradient
# stay in L2 or L3 between passes instead of streaming through memory.
_ATTENTION_BLOCK_BYTES = 512 * 1024


def _attention(q: np.ndarray, k: np.ndarray, v: np.ndarray,
               padding_mask: np.ndarray | None):
    """Softmax(q k^T / sqrt(d)) v on [batch, heads, length, head_dim] arrays
    of one dtype.

    The scale is folded into q, and every pass runs over blocks of batch
    rows of at most _ATTENTION_BLOCK_BYTES of scores, writing into arrays
    allocated once: the mask bias and the softmax run in place on the
    block's scores, and only the attention weights are kept for backward.
    numpy's batched matmul runs one GEMM per [length, length] matrix, and
    every ufunc and reduction acts within one row, so the bits do not
    depend on the block size. Returns the output and a function that maps
    its gradient to the gradients of q, k and v; the backward's only
    score-sized scratch is one block, and it reads the scaled q, k, v, the
    weights and the output, never q itself.
    """
    dtype = np.result_type(q, k, v)
    batch, heads, lq, _ = q_shape = q.shape
    lk = k.shape[-2]
    rows = max(1, _ATTENTION_BLOCK_BYTES // max(1, heads * lq * lk * dtype.itemsize))
    blocks = [slice(lo, lo + rows) for lo in range(0, batch, rows)]
    scale = q.dtype.type(1.0 / np.sqrt(q.shape[-1]))
    qs = q * scale
    kt = np.swapaxes(k, -1, -2)
    bias = None
    if padding_mask is not None:
        bias = np.where(padding_mask, -1e9, 0.0).astype(q.dtype)[:, None, None, :]
    p = np.empty((batch, heads, lq, lk), dtype)
    out = np.empty((batch, heads, lq, v.shape[-1]), dtype)
    for b in blocks:
        pb = np.matmul(qs[b], kt[b], out=p[b])
        if bias is not None:
            pb += bias[b]
        pb -= pb.max(axis=-1, keepdims=True)
        np.exp(pb, out=pb)
        pb /= pb.sum(axis=-1, keepdims=True)
        np.matmul(pb, v[b], out=out[b])

    def grads(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        gq, gk, gv = np.empty(q_shape, dtype), np.empty(k.shape, dtype), np.empty(v.shape, dtype)
        vt = np.swapaxes(v, -1, -2)
        scratch = np.empty((min(rows, batch), heads, lq, lk), dtype)
        for b in blocks:
            pb = p[b]
            np.matmul(np.swapaxes(pb, -1, -2), g[b], out=gv[b])
            # softmax backward: p * (g v^T - rowsum), rowsum_i = g_i . out_i
            gs = np.matmul(g[b], vt[b], out=scratch[:len(pb)])
            gs -= (g[b] * out[b]).sum(axis=-1, keepdims=True)
            gs *= pb
            np.multiply(np.matmul(gs, k[b], out=gq[b]), scale, out=gq[b])
            np.matmul(np.swapaxes(gs, -1, -2), qs[b], out=gk[b])
        return gq, gk, gv

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
    nodes = (_tracked(q), _tracked(k), _tracked(v))

    def backward(g):
        for node, gt in zip(nodes, grads(g)):
            if node is not None:
                node.accumulate(gt, owned=True)

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
    nodes = ((_tracked(q), q.ndim), (_tracked(k), 2), (_tracked(v), 2))

    def backward(g):
        for (node, ndim), gt in zip(nodes, grads(split(g))):
            if node is not None:
                node.accumulate(merge(gt, ndim), owned=True)

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
    ln = logits._node

    def backward(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), targets] -= 1.0
        ln.accumulate(p * (g / n), owned=True)

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
