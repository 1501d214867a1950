"""Tensor primitives: forward values, exact gradients, AdamW behaviour."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special

from psae import model, nn, parallel, scoring
from psae.quantize import GridUnit, PitchSequence
from helpers import max_fd_rel_err, rel_err


def t64(data, requires_grad=True):
    return nn.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def test_matmul_identity():
    a = np.arange(12, dtype=np.float32).reshape(3, 4)
    out = nn.matmul(nn.Tensor(np.eye(3, dtype=np.float32)), nn.Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_inner_dim_mismatch():
    with pytest.raises(nn.ShapeMismatch):
        nn.matmul(nn.Tensor(np.zeros((2, 3))), nn.Tensor(np.zeros((4, 2))))


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = nn.Tensor(rng.normal(size=(5, 7)).astype(np.float32))
    s = nn.softmax(x).data
    np.testing.assert_allclose(s.sum(axis=-1), 1.0, atol=1e-6)
    assert (s >= 0).all()


def test_ops_are_deterministic():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(4, 8)).astype(np.float32)
    w = rng.normal(size=(8, 8)).astype(np.float32)
    a = nn.matmul(nn.Tensor(x), nn.Tensor(w)).data
    b = nn.matmul(nn.Tensor(x.copy()), nn.Tensor(w.copy())).data
    assert (a == b).all()


def test_bounded_inputs_stay_finite():
    big = np.array([[1e4, -1e4, 0.0, 3.0]], dtype=np.float32)
    x = nn.Tensor(big)
    assert np.isfinite(nn.softmax(x).data).all()
    assert np.isfinite(nn.gelu(x).data).all()
    gain = nn.Tensor(np.ones(4, np.float32))
    bias = nn.Tensor(np.zeros(4, np.float32))
    assert np.isfinite(nn.layer_norm(x, gain, bias).data).all()
    constant = nn.Tensor(np.full((2, 4), 7.0, np.float32))
    assert np.isfinite(nn.layer_norm(constant, gain, bias).data).all()
    loss = nn.softmax_cross_entropy(x, np.array([0]))
    assert np.isfinite(loss.data)


# ----------------------------------------------------------------- gelu

PHI_ATOL = 3e-7     # float32 Phi against the exact float64 value


def phi64(x):
    return special.ndtr(np.asarray(x, dtype=np.float64))


def test_float32_phi_is_accurate_and_quiet_on_every_finite_input():
    f = np.finfo(np.float32)
    edges = [0.0, -0.0, f.smallest_subnormal, -f.smallest_subnormal, f.tiny, -f.tiny,
             1e4, -1e4, f.max, -f.max]
    x = np.concatenate([np.linspace(-10, 10, 400_001, dtype=np.float32),
                        np.array(edges, np.float32)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cdf = nn._phi32(x)
    assert cdf.dtype == np.float32
    assert np.abs(cdf - phi64(x)).max() <= PHI_ATOL
    assert np.isnan(nn._phi32(np.array([np.nan, 1.0], np.float32))[0])
    np.testing.assert_array_equal(nn.gelu(nn.Tensor(x)).data, x * cdf)


def test_float32_phi_shapes_and_block_edges():
    block = nn._PHI_BLOCK
    grid = np.linspace(-6, 6, 2 * block + 3, dtype=np.float32)
    whole = nn._phi32(grid)
    for n in (1, block - 1, block, block + 1):
        assert nn._phi32(grid[:n]).tobytes() == whole[:n].tobytes()
    assert nn._phi32(np.zeros((3, 0, 2), np.float32)).shape == (3, 0, 2)
    scalar = nn.gelu(nn.Tensor(np.float32(1.5))).data
    assert scalar.shape == () and scalar.dtype == np.float32
    assert abs(scalar - 1.5 * phi64(1.5)) <= 1.5 * PHI_ATOL
    view = nn.swap_axes(nn.Tensor(grid[:24].reshape(2, 3, 4)), 0, 2)   # non-contiguous
    out = nn.gelu(view).data
    assert out.shape == (4, 3, 2) and out.dtype == np.float32
    assert out.tobytes() == nn.gelu(nn.Tensor(view.data.copy())).data.tobytes()


def test_float32_phi_block_size_leaves_the_bits_alone(monkeypatch):
    def run():
        t = nn.Tensor(x, requires_grad=True)
        out = nn.gelu(t)
        out.backward()
        return nn._phi32(x).tobytes(), out.data.tobytes(), t.grad.tobytes()

    old_block = 1 << 15
    size = 3 * max(nn._PHI_BLOCK, old_block) + 5      # three blocks or more at each size
    rng = np.random.default_rng(32)
    x = np.concatenate([np.linspace(-8, 8, size // 2, dtype=np.float32),
                        rng.normal(scale=3, size=size - size // 2).astype(np.float32)])
    default = run()
    monkeypatch.setattr(nn, "_PHI_BLOCK", old_block)
    assert run() == default


def test_float32_gelu_without_grad_gives_the_same_bytes():
    x = np.random.default_rng(33).normal(scale=3, size=2 * nn._PHI_BLOCK + 7).astype(np.float32)
    tracked = nn.gelu(nn.Tensor(x, requires_grad=True)).data
    assert nn.gelu(nn.Tensor(x)).data.tobytes() == tracked.tobytes()


def test_float32_gelu_without_grad_keeps_one_block_of_phi():
    x = np.random.default_rng(34).normal(size=8 * nn._PHI_BLOCK + 5).astype(np.float32)
    block = nn._PHI_BLOCK * x.itemsize
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = nn.gelu(nn.Tensor(x))
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the output, Phi's block and three blocks of scratch; a full-size Phi
    # or temporary would add another x.nbytes = 8 blocks
    assert peak < out.data.nbytes + 6 * block


def test_float32_gelu_is_thread_safe():
    x = np.random.default_rng(30).normal(size=(3, nn._PHI_BLOCK + 5)).astype(np.float32)
    serial = nn.gelu(nn.Tensor(x)).data.tobytes()
    with parallel.Section() as section:
        got = section.map(lambda _: [nn.gelu(nn.Tensor(x)).data.tobytes() for _ in range(4)],
                          range(2))
    assert all(bits == serial for run in got for bits in run)


def test_float32_gelu_gradient_matches_float64_formula():
    huge = np.array([1e20, 3e38, np.inf], np.float32)
    x = np.concatenate([np.linspace(-10, 10, 20_001, dtype=np.float32), huge, -huge])
    t = nn.Tensor(x, requires_grad=True)
    out = nn.gelu(t)
    out.backward()
    x64 = x[:-6].astype(np.float64)
    exact = phi64(x64) + x64 * np.exp(-0.5 * x64 * x64) / math.sqrt(2 * math.pi)
    assert t.grad.dtype == np.float32
    assert np.abs(t.grad[:-6] - exact).max() <= 1e-6
    np.testing.assert_array_equal(out.data[-6:], np.concatenate([huge, [0, 0, 0]]))
    np.testing.assert_array_equal(t.grad[-6:], [1, 1, 1, 0, 0, 0])


def test_float64_gelu_gradient_at_huge_inputs():
    t = t64([1e200, -1e200])
    out = nn.gelu(t)
    out.backward()
    np.testing.assert_array_equal(out.data, [1e200, 0])
    np.testing.assert_array_equal(t.grad, [1, 0])


def test_float64_gelu_keeps_the_exact_erf():
    x = np.concatenate([np.random.default_rng(31).normal(scale=3, size=1000),
                        np.linspace(-10, 10, 101)])
    z = x / np.sqrt(2.0)
    libm = np.array([math.erf(v) for v in z])
    gelu = nn.gelu(t64(x)).data
    assert gelu.tobytes() == (x * (0.5 * (1 + libm))).tobytes()
    # scipy's erf is an independent oracle for the C library's.
    oracle = special.erf(z)
    assert (np.abs(libm - oracle) <= 2 * np.spacing(np.abs(oracle))).all()
    assert np.abs(gelu - x * (0.5 * (1 + oracle))).max() <= 1e-15


def test_float32_paths_never_call_the_float64_erf(monkeypatch):
    erf = nn.erf

    def float64_only(z):
        if np.asarray(z).dtype == np.float32:
            raise AssertionError("float32 gelu reached the float64 erf")
        return erf(z)

    monkeypatch.setattr(nn, "erf", float64_only)
    config = model.ModelConfig(embed_dim=8, hidden_dim=8, num_heads=2, ffn_dim=16,
                               num_layers=2)
    rng = np.random.default_rng(32)
    corpus = [rng.integers(48, 72, size=24) for _ in range(4)]    # one batch: one step
    result = model.train(corpus, config, model.TrainHyper(epochs=1, batch_size=4, seed=0))
    assert math.isfinite(result.metadata["history"][0]["raw_loss"])
    seq = PitchSequence(tokens=rng.integers(48, 72, size=20).astype(np.int16),
                        grid=GridUnit.SIXTEENTH, source_id="guard")
    params = model.init_model(config, 0)
    assert params.tensors["ffn_in_weight"].dtype == np.float32
    assert np.isfinite(scoring.note_probabilities(params, seq).probabilities).all()


# ------------------------------------------------------------ attention

def test_attention_masked_key_weight_exactly_zero():
    rng = np.random.default_rng(2)
    b, h, l, d = 1, 1, 4, 8
    q = nn.Tensor(rng.normal(size=(b, h, l, d)).astype(np.float32))
    k = nn.Tensor(rng.normal(size=(b, h, l, d)).astype(np.float32))
    pad = np.array([[False, False, False, True]])
    # reproduce the weights with the same primitives the op composes
    scores = nn.mul(nn.matmul(q, nn.swap_axes(k, -1, -2)),
                    nn.Tensor(np.float32(1 / np.sqrt(d))))
    biased = nn.add(scores, nn.Tensor(np.where(pad, -1e9, 0.0).astype(np.float32)[:, None, None, :]))
    weights = nn.softmax(biased).data
    assert (weights[..., 3] == 0.0).all()
    np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-6)


def test_attention_uniform_over_unmasked_keys():
    b, h, l, d = 1, 1, 5, 4
    q = nn.Tensor(np.zeros((b, h, l, d), np.float32))  # equal scores everywhere
    k = nn.Tensor(np.zeros((b, h, l, d), np.float32))
    v = nn.Tensor(np.arange(b * h * l * d, dtype=np.float32).reshape(b, h, l, d))
    pad = np.array([[False, False, True, True, False]])
    out = nn.scaled_dot_product_attention(q, k, v, pad).data
    # uniform over the 3 unmasked keys -> the mean of their value rows
    expected = v.data[0, 0, [0, 1, 4]].mean(axis=0)
    np.testing.assert_allclose(out[0, 0, 0], expected, atol=1e-6)


def test_attention_matches_direct_formula():
    rng = np.random.default_rng(3)
    b, h, l, d = 2, 2, 6, 4
    q, k, v = (rng.normal(size=(b, h, l, d)).astype(np.float32) for _ in range(3))
    pad = np.zeros((b, l), dtype=bool)
    pad[1, -2:] = True
    out = nn.scaled_dot_product_attention(nn.Tensor(q), nn.Tensor(k), nn.Tensor(v), pad).data

    scores = (q @ np.swapaxes(k, -1, -2)) / np.sqrt(d)
    scores = scores + np.where(pad, -1e9, 0.0)[:, None, None, :]
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = e / e.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(out, w @ v, atol=1e-5)


# ------------------------------------------------------- cross entropy

def test_cross_entropy_uniform_logits():
    logits = nn.Tensor(np.zeros((3, 128), dtype=np.float32))
    loss = nn.softmax_cross_entropy(logits, np.array([0, 64, 127]))
    assert abs(loss.item() - math.log(128)) < 1e-6


def test_cross_entropy_confident_prediction():
    logits = np.zeros((1, 128), dtype=np.float32)
    logits[0, 42] = 1000.0
    loss = nn.softmax_cross_entropy(nn.Tensor(logits), np.array([42]))
    assert loss.item() < 1e-6


def test_cross_entropy_matches_double_precision_reference():
    rng = np.random.default_rng(4)
    logits32 = rng.normal(scale=3.0, size=(3, 128)).astype(np.float32)
    targets = rng.integers(0, 128, size=3)
    loss = nn.softmax_cross_entropy(nn.Tensor(logits32), targets).item()
    z = logits32.astype(np.float64)
    reference = np.mean(np.log(np.exp(z).sum(axis=1)) - z[np.arange(3), targets])
    assert abs(loss - reference) < 1e-5


def test_cross_entropy_errors():
    with pytest.raises(nn.EmptyBatch):
        nn.softmax_cross_entropy(nn.Tensor(np.zeros((0, 5))), np.array([], dtype=int))
    with pytest.raises(nn.ShapeMismatch):
        nn.softmax_cross_entropy(nn.Tensor(np.zeros((2, 5))), np.array([0, 5]))
    with pytest.raises(nn.ShapeMismatch):
        nn.softmax_cross_entropy(nn.Tensor(np.zeros((2, 5))), np.array([0]))


def test_cross_entropy_gradient_closed_form_uniform():
    logits = nn.Tensor(np.zeros((1, 128), dtype=np.float64), requires_grad=True)
    loss = nn.softmax_cross_entropy(logits, np.array([7]))
    loss.backward()
    expected = np.full(128, 1.0 / 128)
    expected[7] -= 1.0
    np.testing.assert_allclose(logits.grad[0], expected, atol=1e-12)


# ------------------------------------------------------------ gradients

def test_gradient_matmul_add_bias():
    rng = np.random.default_rng(5)
    x = t64(rng.normal(size=(3, 4)))
    w = t64(rng.normal(size=(4, 2)))
    b = t64(rng.normal(size=2))

    def loss():
        return nn.softmax_cross_entropy(nn.add_bias(nn.matmul(x, w), b), np.array([0, 1, 0]))

    loss().backward()
    assert max_fd_rel_err(loss, {"x": x, "w": w, "b": b}) < 1e-6


@pytest.mark.parametrize("lead", [(6,), (2, 3)], ids=["rows", "query_slots"])
def test_matmul_bias_is_bit_equal_to_add_bias(lead):
    rng = np.random.default_rng(15)
    xd, wd = rng.normal(size=lead + (8,)), rng.normal(size=(8, 5))
    bd = rng.normal(size=5)

    def run(fused):
        x, w, b = (nn.Tensor(d.astype(np.float32), requires_grad=True) for d in (xd, wd, bd))
        out = nn.matmul(x, w, bias=b) if fused else nn.add_bias(nn.matmul(x, w), b)
        flat = nn.reshape(nn.gelu(out), (-1, 5))
        nn.softmax_cross_entropy(flat, np.arange(flat.shape[0]) % 5).backward()
        return [out.data, x.grad, w.grad, b.grad]

    for got, want in zip(run(True), run(False)):
        assert got.dtype == np.float32
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("lead", [(3,), (2, 3)], ids=["rows", "query_slots"])
def test_gradient_matmul_bias(lead):
    rng = np.random.default_rng(16)
    x = t64(rng.normal(size=lead + (4,)))
    w = t64(rng.normal(size=(4, 3)))
    b = t64(rng.normal(size=3))

    def loss():
        out = nn.reshape(nn.matmul(x, w, bias=b), (-1, 3))
        return nn.softmax_cross_entropy(out, np.arange(out.shape[0]) % 3)

    loss().backward()
    assert max_fd_rel_err(loss, {"x": x, "w": w, "b": b}) < 1e-6


def test_matmul_bias_shape_errors():
    x = nn.Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(nn.ShapeMismatch):
        nn.matmul(x, nn.Tensor(np.zeros((4, 5))), bias=nn.Tensor(np.zeros(4)))
    with pytest.raises(nn.ShapeMismatch):
        nn.matmul(x, nn.Tensor(np.zeros((2, 4, 5))), bias=nn.Tensor(np.zeros(5)))


@pytest.mark.parametrize("dtypes", [(np.float32,) * 3, (np.float64,) * 3,
                                    (np.float32, np.float64, np.float32),
                                    (np.float32, np.float32, np.float64)],
                         ids=["f32", "f64", "f64-gain", "f64-bias"])
def test_layer_norm_matches_the_direct_formula_bit_for_bit(dtypes):
    rng = np.random.default_rng(18)
    xd, gd, bd = (rng.normal(size=shape).astype(dt)
                  for shape, dt in zip([(3, 5, 8), (8,), (8,)], dtypes))
    g = rng.normal(size=(3, 5, 8)).astype(np.result_type(*dtypes))
    x, gain, bias = (nn.Tensor(a, requires_grad=True) for a in (xd, gd, bd))
    out = nn.layer_norm(x, gain, bias)
    nn.mul(out, nn.Tensor(g)).backward()

    xc = xd - xd.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + xd.dtype.type(1e-5))
    xhat = xc * inv
    expected = xhat * gd + bd
    gh = g * gd
    gx = inv * (gh - gh.mean(axis=-1, keepdims=True)
                - xhat * (gh * xhat).mean(axis=-1, keepdims=True))
    assert out.dtype == expected.dtype
    assert out.data.tobytes() == expected.tobytes()
    assert x.grad.tobytes() == gx.astype(xd.dtype).tobytes()
    assert gain.grad.tobytes() == (g * xhat).reshape(-1, 8).sum(axis=0).astype(gd.dtype).tobytes()


def test_gradient_layer_norm():
    rng = np.random.default_rng(6)
    x = t64(rng.normal(size=(4, 6)))
    gain = t64(rng.normal(size=6))
    bias = t64(rng.normal(size=6))

    def loss():
        return nn.softmax_cross_entropy(nn.layer_norm(x, gain, bias), np.array([0, 1, 2, 3]))

    loss().backward()
    assert max_fd_rel_err(loss, {"x": x, "g": gain, "b": bias}) < 1e-6


def test_gradient_gelu_softmax_mul_abs():
    rng = np.random.default_rng(7)
    x = t64(rng.normal(size=(3, 5)))
    w = t64(rng.normal(size=(5, 5)))

    def loss():
        h = nn.gelu(nn.matmul(x, w))
        s = nn.softmax(h)
        return abs(nn.softmax_cross_entropy(nn.mul(s, h), np.array([0, 2, 4])) - 0.9) + 0.9

    loss().backward()
    assert max_fd_rel_err(loss, {"x": x, "w": w}) < 1e-6


def test_gradient_embedding_gather_and_duplicates():
    rng = np.random.default_rng(8)
    table = t64(rng.normal(size=(7, 4)))
    ids = np.array([[1, 3, 1], [0, 1, 6]])  # duplicate rows must accumulate

    def loss():
        e = nn.embedding_lookup(table, ids)
        flat = nn.reshape(e, (6, 4))
        return nn.softmax_cross_entropy(flat, np.array([0, 1, 2, 3, 0, 1]))

    loss().backward()
    assert max_fd_rel_err(loss, {"table": table}) < 1e-6


def test_gradient_attention_with_padding():
    rng = np.random.default_rng(9)
    b, h, l, d = 2, 2, 4, 3
    q, k, v = (t64(rng.normal(size=(b, h, l, d))) for _ in range(3))
    pad = np.array([[False, False, False, True], [False, True, False, False]])

    def loss():
        out = nn.scaled_dot_product_attention(q, k, v, pad)
        flat = nn.reshape(nn.swap_axes(out, 1, 2), (b * l, h * d))
        return nn.softmax_cross_entropy(flat, np.arange(b * l) % (h * d))

    loss().backward()
    assert max_fd_rel_err(loss, {"q": q, "k": k, "v": v}) < 1e-6


def test_gradient_attention_fewer_queries_than_keys():
    rng = np.random.default_rng(11)
    b, h, lq, lk, d = 2, 2, 3, 5, 3
    q = t64(rng.normal(size=(b, h, lq, d)))
    k, v = (t64(rng.normal(size=(b, h, lk, d))) for _ in range(2))
    pad = np.array([[False, False, False, True, True], [False, True, False, False, False]])

    def loss():
        out = nn.scaled_dot_product_attention(q, k, v, pad)
        flat = nn.reshape(nn.swap_axes(out, 1, 2), (b * lq, h * d))
        return nn.softmax_cross_entropy(flat, np.arange(b * lq) % (h * d))

    loss().backward()
    assert max_fd_rel_err(loss, {"q": q, "k": k, "v": v}) < 1e-6
    # padded keys get exactly zero weight, so their values get zero gradient
    np.testing.assert_array_equal(v.grad[0, :, 3:], 0.0)
    np.testing.assert_array_equal(v.grad[1, :, 1], 0.0)


@pytest.mark.parametrize("layout, padded", [("rows", True), ("slots", True),
                                            ("rows", False), ("slots", False)],
                         ids=["rows", "slots", "rows-no_pad", "slots-no_pad"])
def test_packed_attention_matches_padded_blocks(layout, padded):
    rng = np.random.default_rng(13)
    b, h, l, d = 2, 2, 4, 3
    pad = np.array([[False, False, False, True], [False, True, False, False]]) & padded
    n = int((~pad).sum())
    k, v = (t64(rng.normal(size=(n, h * d))) for _ in range(2))
    q = t64(rng.normal(size=(n, h * d) if layout == "rows" else (b, 3, h * d)))

    def loss():
        out = nn.reshape(nn.packed_attention(q, k, v, pad, h), (-1, h * d))
        return nn.softmax_cross_entropy(out, np.arange(out.shape[0]) % (h * d))

    loss().backward()
    assert max_fd_rel_err(loss, {"q": q, "k": k, "v": v}) < 1e-6

    def blocks(x):   # the padded [batch, heads, length, head_dim] layout
        if x.ndim == 3:
            return np.swapaxes(x.reshape(b, -1, h, d), 1, 2)
        full = np.zeros((b, l, h * d))
        full[~pad] = x
        return np.swapaxes(full.reshape(b, l, h, d), 1, 2)

    padded = nn.scaled_dot_product_attention(*(nn.Tensor(blocks(x.data)) for x in (q, k, v)),
                                             pad).data
    padded = np.swapaxes(padded, 1, 2).reshape(b, -1, h * d)
    expected = padded[~pad] if layout == "rows" else padded
    np.testing.assert_allclose(nn.packed_attention(q, k, v, pad, h).data, expected,
                               rtol=1e-12, atol=1e-15)


def packed_inputs(dtype, layout, padded, seed=15):
    """q, k, v rows and the pad mask of a packed_attention call over 5
    batch rows, so blocks of 2 rows leave a partial last block."""
    rng = np.random.default_rng(seed)
    b, h, l, d = 5, 2, 6, 3
    pad = (rng.random((b, l)) < 0.3) & padded
    pad[:, 0] = False
    n = int((~pad).sum())
    k, v = (rng.normal(size=(n, h * d)).astype(dtype) for _ in range(2))
    q = rng.normal(size=(n, h * d) if layout == "rows" else (b, 4, h * d)).astype(dtype)
    return q, k, v, pad, h


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("layout, padded", [("rows", True), ("slots", True), ("rows", False)],
                         ids=["rows", "slots", "rows-no_pad"])
def test_attention_blocks_leave_the_bits_alone(monkeypatch, dtype, layout, padded):
    q, k, v, pad, h = packed_inputs(dtype, layout, padded)
    weight = np.random.default_rng(16).normal(size=q.shape).astype(dtype)

    def run():
        tq, tk, tv = (nn.Tensor(x, requires_grad=True) for x in (q, k, v))
        out = nn.packed_attention(tq, tk, tv, pad, h)
        nn.mul(out, nn.Tensor(weight)).backward()     # a gradient that is not all ones
        return [t.tobytes() for t in (out.data, tq.grad, tk.grad, tv.grad)]

    row = h * pad.shape[1] * (q.shape[1] if layout == "slots" else pad.shape[1]) * q.itemsize
    runs = {}
    for rows in (1, 2, 1 << 20):            # one batch row per block, two, one block for all
        monkeypatch.setattr(nn, "_ATTENTION_BLOCK_BYTES", rows * row)
        runs[rows] = run()
    assert runs[1] == runs[2] == runs[1 << 20]


def test_attention_backward_keeps_one_block_of_score_gradient():
    rng = np.random.default_rng(17)
    b, h, l, d = 8, 4, 256, 8
    q, k, v = (nn.Tensor(rng.normal(size=(b, h, l, d)).astype(np.float32), requires_grad=True)
               for _ in range(3))
    out = nn.scaled_dot_product_attention(q, k, v)
    scores = b * h * l * l * 4
    assert nn._ATTENTION_BLOCK_BYTES < scores // 4
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out.backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # q, k and v gradients, their first-gradient copies and one block of
    # scores (here one batch row); a full-size score gradient alone is more
    assert peak < scores


def test_packed_attention_rejects_mismatched_rows():
    pad = np.array([[False, True]])
    q, k = nn.Tensor(np.zeros((1, 4))), nn.Tensor(np.zeros((2, 4)))
    with pytest.raises(nn.ShapeMismatch):
        nn.packed_attention(q, k, k, pad, 2)       # two key rows for one real position
    with pytest.raises(nn.ShapeMismatch):
        nn.packed_attention(q, q, q, pad, 3)       # 4 features over 3 heads


def test_row_gather_gradient_sums_repeated_ids():
    rng = np.random.default_rng(14)
    ids = rng.integers(0, 5, size=300)
    g = rng.normal(size=(300, 4))
    expected = np.zeros((7, 4))
    np.add.at(expected, ids, g)
    got = nn._segment_sum(ids, g, 7)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
    assert (got[5:] == 0).all()
    assert not nn._segment_sum(ids[:0], g[:0], 3).any()


def test_gradient_matmul_batched_and_weight_operands():
    rng = np.random.default_rng(12)
    x = t64(rng.normal(size=(2, 3, 4)))
    w = t64(rng.normal(size=(4, 5)))      # weight: flat-GEMM gradients
    y = t64(rng.normal(size=(2, 5, 3)))   # batched right operand
    m = t64(rng.normal(size=(2, 3)))      # 2-d left operand broadcast over the batch

    def loss():
        z = nn.matmul(m, nn.matmul(nn.matmul(x, w), y))   # [2, 2, 3]
        return nn.softmax_cross_entropy(nn.reshape(z, (4, 3)), np.array([0, 1, 2, 0]))

    loss().backward()
    assert max_fd_rel_err(loss, {"x": x, "w": w, "y": y, "m": m}) < 1e-6


def test_first_gradients_are_owned_buffers():
    # add hands one g to both parents; reshape and swap_axes hand over views
    a = t64(np.arange(6.0).reshape(2, 3) / 10)
    b = t64(np.ones((2, 3)))
    c = nn.add(a, b)
    r = nn.reshape(c, (3, 2))
    s = nn.swap_axes(r, 0, 1)
    out = nn.add(s, nn.Tensor(np.zeros((2, 3))))
    nn.softmax_cross_entropy(out, np.array([0, 2])).backward()
    grads = [t.grad for t in (a, b, c, r, s, out)]
    assert all(g is not None for g in grads)
    for i, gi in enumerate(grads):
        for gj in grads[i + 1:]:
            assert not np.shares_memory(gi, gj)
    np.testing.assert_array_equal(a.grad, b.grad)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_handed_over_first_gradients_keep_their_own_buffers(dtype):
    # neg, mul, absolute, softmax and attention hand over arrays they allocate
    rng = np.random.default_rng(3)
    q, k, v = (nn.Tensor(rng.normal(size=(2, 1, 3, 4)).astype(dtype), requires_grad=True)
               for _ in range(3))
    att = nn.scaled_dot_product_attention(q, k, v, np.array([[False, False, True]] * 2))
    flat = nn.reshape(att, (6, 4))
    n = nn.neg(flat)
    w = nn.Tensor(rng.normal(size=(6, 4)).astype(dtype), requires_grad=True)
    m = nn.mul(n, w)
    a = nn.absolute(m)
    s = nn.softmax(a)
    nn.softmax_cross_entropy(s, np.array([0, 1, 2, 3, 0, 1])).backward()
    tensors = (q, k, v, att, flat, n, w, m, a, s)
    assert all(t.grad is not None and t.grad.dtype == dtype for t in tensors)
    for i, ti in enumerate(tensors):
        for tj in tensors[i + 1:]:
            assert not np.shares_memory(ti.grad, tj.grad)


def test_gradient_gather_positions():
    rng = np.random.default_rng(10)
    x = t64(rng.normal(size=(2, 5, 3)))

    def loss():
        sel = nn.gather_positions(x, np.array([0, 1, 1]), np.array([4, 0, 0]))
        return nn.softmax_cross_entropy(sel, np.array([0, 1, 2]))

    loss().backward()
    assert max_fd_rel_err(loss, {"x": x}) < 1e-6


def test_zero_weighted_branch_contributes_zero_gradient():
    a = t64(np.array([[1.0, 2.0]]))
    b = t64(np.array([[3.0, 4.0]]))
    out = nn.add(nn.mul(a, nn.Tensor(np.zeros((1, 2)))), b)
    nn.softmax_cross_entropy(out, np.array([0])).backward()
    np.testing.assert_array_equal(a.grad, np.zeros((1, 2)))
    assert b.grad is not None and np.abs(b.grad).sum() > 0


def test_backward_requires_recorded_graph():
    leaf = nn.Tensor(np.zeros(3), requires_grad=True)
    with pytest.raises(nn.NoRecordedGraph):
        leaf.backward()


def test_backward_releases_graph():
    x = t64(np.ones((2, 2)))
    loss = nn.softmax_cross_entropy(nn.mul(x, x), np.array([0, 1]))
    loss.backward()
    with pytest.raises(nn.NoRecordedGraph):
        loss.backward()


def test_backward_frees_the_graph_as_it_walks():
    mib = 1 << 20

    def chain_loss():      # 16 float32 nodes of 1 MiB; only the loss is returned
        h = nn.Tensor(np.linspace(-3, 3, mib // 4, dtype=np.float32).reshape(256, -1),
                      requires_grad=True)
        for _ in range(16):
            h = nn.gelu(h)
        return nn.softmax_cross_entropy(h, np.zeros(256, dtype=np.int64))

    loss = chain_loss()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # keeping every interior gradient to the end of the walk costs 16 MiB
    assert peak < 6 * mib


def test_gradient_accumulates_across_backward_calls():
    x = t64(np.array([[0.3, -0.2]]))
    for _ in range(2):
        nn.softmax_cross_entropy(nn.mul(x, nn.Tensor(np.ones((1, 2)))), np.array([0])).backward()
    once = x.grad.copy()
    x.zero_grad()
    nn.softmax_cross_entropy(nn.mul(x, nn.Tensor(np.ones((1, 2)))), np.array([0])).backward()
    np.testing.assert_allclose(once, 2.0 * x.grad, atol=1e-12)


# --------------------------------------------------------------- AdamW

def test_adamw_zero_gradients_no_decay_leaves_params():
    p = nn.Tensor(np.array([1.0, -2.0], dtype=np.float32), requires_grad=True)
    before = p.data.copy()
    opt = nn.AdamW({"p": p}, weight_decay=0.0)
    p.grad = np.zeros_like(p.data)
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adamw_first_step_closed_form():
    g = np.array([0.5, -1.5, 0.01], dtype=np.float64)
    p = nn.Tensor(np.zeros(3, dtype=np.float64), requires_grad=True)
    lr, eps = 1e-3, 1e-8
    opt = nn.AdamW({"p": p}, learning_rate=lr, epsilon=eps, weight_decay=0.0)
    p.grad = g.copy()
    opt.step()
    expected = -lr * g / (np.abs(g) + eps)  # m-hat = g, v-hat = g^2
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)
    assert opt.step_count == 1


def test_adamw_decay_skips_vectors():
    w = nn.Tensor(np.full((2, 2), 2.0, dtype=np.float64), requires_grad=True)
    b = nn.Tensor(np.full(2, 2.0, dtype=np.float64), requires_grad=True)
    opt = nn.AdamW({"w": w, "b": b}, learning_rate=0.1, weight_decay=0.5)
    w.grad = np.zeros_like(w.data)
    b.grad = np.zeros_like(b.data)
    opt.step()
    assert (w.data < 2.0).all()  # decayed
    np.testing.assert_array_equal(b.data, np.full(2, 2.0))


def test_adamw_quadratic_bowl_converges():
    x = nn.Tensor(np.array(0.0, dtype=np.float64), requires_grad=True)
    opt = nn.AdamW({"x": x}, learning_rate=0.02, weight_decay=0.0)
    for _ in range(100):
        opt.zero_grad()
        x.grad = np.asarray(2.0 * (x.data - 0.5))
        opt.step()
    assert abs(float(x.data) - 0.5) < 1e-3


def test_adamw_shape_mismatch():
    p = nn.Tensor(np.zeros((2, 2)), requires_grad=True)
    opt = nn.AdamW({"p": p})
    p.grad = np.zeros(3)
    with pytest.raises(nn.ShapeMismatch):
        opt.step()


def test_rel_err_helper_floors_tiny_values():
    assert rel_err(1e-9, 2e-9) < 1e-4
