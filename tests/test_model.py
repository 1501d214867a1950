"""Encoder, MLM batching, flooding, training loop, checkpoint files."""

import dataclasses
import math

import numpy as np
import pytest

from psae import checkpoint as ckpt
from psae import model, nn, parallel
from helpers import max_fd_rel_err, resealed

MINI = model.ModelConfig(vocab_size=12, embed_dim=8, hidden_dim=8, num_layers=2,
                         num_heads=2, ffn_dim=16, max_position=8, output_classes=9)


# ------------------------------------------------------- parameter count

def test_param_count_default_config():
    count = model.param_count(model.ModelConfig())
    assert count == 103_776
    assert 93_000 <= count <= 114_000


def test_param_count_breakdown_sums():
    cfg = model.ModelConfig()
    breakdown = model.param_breakdown(cfg)
    assert sum(breakdown.values()) == model.param_count(cfg)
    assert breakdown["token_embedding"] == 131 * 64
    assert breakdown["head_weight"] == 64 * 128


def test_param_count_invariant_to_depth():
    shallow = model.param_count(model.ModelConfig(num_layers=2))
    deep = model.param_count(model.ModelConfig(num_layers=4))
    assert shallow == deep


def test_param_count_ffn_doubling_delta():
    cfg = model.ModelConfig()
    doubled = model.ModelConfig(ffn_dim=2 * cfg.ffn_dim)
    delta = model.param_count(doubled) - model.param_count(cfg)
    d, f = cfg.hidden_dim, cfg.ffn_dim
    assert delta == d * f + f + f * d


# ------------------------------------------------------------------ init

def test_init_deterministic_per_seed():
    a = model.init_model(model.ModelConfig(), 3)
    b = model.init_model(model.ModelConfig(), 3)
    for name in a.tensors:
        assert (a.tensors[name].data == b.tensors[name].data).all()
    c = model.init_model(model.ModelConfig(), 4)
    assert any((a.tensors[n].data != c.tensors[n].data).any() for n in a.tensors)


def test_init_weight_statistics():
    params = model.init_model(model.ModelConfig(), 0)
    assert (params.tensors["norm_attn_gain"].data == 1.0).all()
    assert (params.tensors["attn_q_bias"].data == 0.0).all()
    w = params.tensors["token_embedding"].data
    assert abs(w.std() - 0.02) < 0.002


def test_invalid_configs_rejected():
    with pytest.raises(model.InvalidConfig):
        model.ModelConfig(embed_dim=63, hidden_dim=63).validate()  # 63 % 4 != 0
    with pytest.raises(model.InvalidConfig):
        model.ModelConfig(vocab_size=130).validate()
    with pytest.raises(model.InvalidConfig):
        model.ModelConfig(num_layers=0).validate()
    with pytest.raises(model.InvalidConfig):
        model.init_model(model.ModelConfig(embed_dim=32), 0)


@pytest.mark.parametrize("bad", [{"embed_dim": "64"}, {"num_heads": 4.0}, {"num_layers": True},
                                 {"ffn_dim": None}])
def test_non_integer_model_fields_rejected(bad):
    with pytest.raises(model.InvalidConfig, match="integer"):
        dataclasses.replace(model.ModelConfig(), **bad).validate()


@pytest.mark.parametrize("bad", [
    {"epochs": 0}, {"epochs": 1.0}, {"epochs": True}, {"batch_size": 0}, {"batch_size": -3},
    {"batch_size": "64"}, {"seed": -1}, {"seed": "x"}, {"learning_rate": float("nan")},
    {"learning_rate": 0.0}, {"learning_rate": float("inf")}, {"flood_b": -0.1},
    {"flood_b": float("nan")}, {"weight_decay": "x"}, {"weight_decay": -0.01},
    {"mask_rate": 0.0}, {"mask_rate": 1.0}, {"mask_rate": None}, {"mask_strategy": "drop"},
])
def test_invalid_train_hyper_rejected(bad):
    hyper = dataclasses.replace(model.TrainHyper(epochs=1), **bad)
    with pytest.raises(model.InvalidConfig):
        hyper.validate()
    with pytest.raises(model.InvalidConfig):
        model.train(scale_corpus(4), MINI_TRAIN, hyper)


def test_valid_train_hyper_accepted():
    model.TrainHyper(epochs=1).validate()
    model.TrainHyper(epochs=2, batch_size=1, learning_rate=1, flood_b=0, weight_decay=0,
                     mask_rate=0.5, mask_strategy="bert").validate()


# --------------------------------------------------------------- forward

def test_forward_output_shape():
    params = model.init_model(MINI, 0)
    tokens = np.zeros((3, 5), dtype=np.int64)
    out = model.forward(params, tokens)
    assert out.shape == (3, 5, MINI.output_classes)


def test_forward_batch_permutation_equivariance():
    params = model.init_model(MINI, 1)
    rng = np.random.default_rng(0)
    tokens = rng.integers(0, 9, size=(4, 6))
    out = model.forward(params, tokens).data
    perm = np.array([2, 0, 3, 1])
    out_perm = model.forward(params, tokens[perm]).data
    assert (out_perm == out[perm]).all()


def test_forward_pad_content_cannot_leak():
    params = model.init_model(MINI, 2)
    rng = np.random.default_rng(1)
    tokens = rng.integers(0, 9, size=(2, 6))
    tokens[:, 5] = MINI.pad_id
    pad = tokens == MINI.pad_id
    base = model.forward(params, tokens, pad).data
    altered = tokens.copy()
    altered[:, 5] = 3  # different content at the PAD slot, same pad mask
    out = model.forward(params, altered, pad).data
    assert (out[:, :5] == base[:, :5]).all()


def test_masked_position_depends_on_context_only():
    params = model.init_model(MINI, 3)
    rng = np.random.default_rng(2)
    a = rng.integers(0, 9, size=(1, 6))
    b = a.copy()
    b[0, 3] = (a[0, 3] + 4) % 9  # different ground truth before masking
    a[0, 3] = MINI.mask_id
    b[0, 3] = MINI.mask_id
    assert (model.forward(params, a).data == model.forward(params, b).data).all()


def test_forward_errors():
    params = model.init_model(MINI, 0)
    with pytest.raises(model.UnknownToken):
        model.forward(params, np.full((1, 4), MINI.vocab_size))
    from psae.quantize import SequenceTooLong
    with pytest.raises(SequenceTooLong):
        model.forward(params, np.zeros((1, MINI.max_position + 1), dtype=int))
    tokens = np.zeros((2, 4), dtype=int)
    with pytest.raises(nn.ShapeMismatch):
        model.forward(params, tokens, np.zeros((2, 3), dtype=bool))
    with pytest.raises(nn.EmptyBatch):
        model.forward(params, tokens, np.ones((2, 4), dtype=bool))


def test_forward_query_positions_errors():
    params = model.init_model(MINI, 0)
    tokens = np.zeros((2, 5), dtype=np.int64)
    for bad in (np.zeros((3, 1), dtype=int), np.zeros(2, dtype=int),
                np.full((2, 1), 5), np.full((2, 1), -1), np.zeros((2, 1))):
        with pytest.raises(nn.ShapeMismatch):
            model.forward(params, tokens, query_positions=bad)


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_query_only_training_gradients_equal_full_logits(num_layers):
    cfg = dataclasses.replace(MINI, num_layers=num_layers)
    rng = np.random.default_rng(num_layers)
    tokens = rng.integers(0, 9, size=(3, 8))
    tokens[1, 5:] = cfg.pad_id
    tokens[2, 7] = cfg.pad_id
    pad = tokens == cfg.pad_id
    masked = np.zeros_like(pad)
    masked[0, [1, 4, 6]] = True      # unequal mask counts per row: 3, 1, 2
    masked[1, 2] = True
    masked[2, [0, 5]] = True
    tokens[masked] = cfg.mask_id
    targets = rng.integers(0, 9, size=int(masked.sum()))
    b_idx, p_idx = np.nonzero(masked)
    query, slot = model._masked_queries(masked, b_idx, p_idx)
    assert query.tolist() == [[1, 4, 6], [2, 0, 0], [0, 5, 0]]

    def run(query_positions, columns):
        params = model.init_model(cfg, 7).cast(np.float64)
        logits = model.forward(params, tokens, pad, query_positions)
        raw = nn.softmax_cross_entropy(nn.gather_positions(logits, b_idx, columns), targets)
        loss = model.flooded_loss(raw, 0.05)
        loss.backward()
        return loss.item(), {name: t.grad for name, t in params.tensors.items()}

    full_loss, full_grads = run(None, p_idx)
    query_loss, query_grads = run(query, slot)
    assert query_loss == pytest.approx(full_loss, rel=1e-12)
    assert full_grads.keys() == query_grads.keys()
    for name, g in full_grads.items():
        # attn_k_bias's true gradient is 0 (softmax ignores a shift), so both
        # paths hold only rounding noise there: hence the small atol
        np.testing.assert_allclose(query_grads[name], g, rtol=1e-9, atol=1e-15, err_msg=name)


def split_batch(cfg, seed: int) -> model.TrainingBatch:
    """A batch just big enough to split in two, with PAD tails and one to
    three masked positions per row."""
    rng = np.random.default_rng(seed)
    rows = -(-model.SPLIT_MIN_TOKENS // cfg.max_position) + 1
    tokens = rng.integers(0, 9, size=(rows, cfg.max_position))
    lengths = rng.integers(4, cfg.max_position + 1, size=rows)
    return masked_batch(cfg, tokens, lengths, rng)


def masked_batch(cfg, tokens: np.ndarray, lengths: np.ndarray,
                 rng: np.random.Generator) -> model.TrainingBatch:
    """tokens with PAD after each row's length and one to three (at most
    length) masked positions per row."""
    tokens[np.arange(tokens.shape[1]) >= lengths[:, None]] = cfg.pad_id
    masked = np.zeros(tokens.shape, dtype=bool)
    for i, n in enumerate(lengths):
        masked[i, rng.choice(n, size=min(n, rng.integers(1, 4)), replace=False)] = True
    targets = np.where(masked, rng.integers(0, 9, size=tokens.shape), model.IGNORE_TARGET)
    tokens[masked] = cfg.mask_id
    return model.TrainingBatch(tokens, targets, masked, tokens == cfg.pad_id)


@pytest.mark.parametrize("num_layers", [1, 2])
@pytest.mark.parametrize("level", ["below", "between", "above"])  # flood level vs the losses
def test_split_batch_gradients_equal_single_graph(num_layers, level):
    cfg = dataclasses.replace(MINI, num_layers=num_layers)
    batch = split_batch(cfg, num_layers)
    halves = model._row_ranges(batch)
    counts = [int(batch.mask_positions[r].sum()) for r in halves]
    assert len(halves) == 2 and counts[0] != counts[1]
    assert batch.pad_mask.any()
    half_losses = [float(model._range_step(model.init_model(cfg, 7).cast(np.float64),
                                           batch, r).raw) for r in halves]
    flood_b = {"below": 0.05, "above": 10.0, "between": sum(half_losses) / 2}[level]
    if level == "between":   # the halves alone would flood with opposite signs
        assert min(half_losses) < flood_b < max(half_losses)

    whole = model.init_model(cfg, 7).cast(np.float64)
    b_idx, p_idx = np.nonzero(batch.mask_positions)
    query, slot = model._masked_queries(batch.mask_positions, b_idx, p_idx)
    logits = model.forward(whole, batch.input_tokens, batch.pad_mask, query)
    raw = nn.softmax_cross_entropy(nn.gather_positions(logits, b_idx, slot),
                                   batch.targets[b_idx, p_idx])
    loss = model.flooded_loss(raw, flood_b)
    loss.backward()
    if level != "between":
        assert (raw.item() > flood_b) == (level == "below")

    split = model.init_model(cfg, 7).cast(np.float64)
    with parallel.Section() as section:
        got = model._batch_gradients(section, split, batch, flood_b)
    assert got.masked == sum(counts)
    assert got.raw == pytest.approx(raw.item(), rel=1e-12)
    assert got.flooded == pytest.approx(loss.item(), rel=1e-12)
    for name, t in whole.tensors.items():
        # attn_k_bias's true gradient is 0, so both hold rounding noise there
        np.testing.assert_allclose(split.tensors[name].grad, t.grad, rtol=1e-9, atol=1e-15,
                                   err_msg=name)


def per_row_reference(params: model.ModelParams, batch: model.TrainingBatch):
    """The batch's mean masked NLL and its gradients from one PAD-free graph
    per row: row b runs alone at its own length, weighted by its share of
    the batch's masked positions."""
    k = int(batch.mask_positions.sum())
    raw, grads = 0.0, {}
    for b in range(len(batch.input_tokens)):
        length = int((~batch.pad_mask[b]).sum())
        positions = np.nonzero(batch.mask_positions[b])[0]
        for t in params.tensors.values():
            t.grad = None
        logits = model.forward(params, batch.input_tokens[b:b + 1, :length])
        loss = nn.softmax_cross_entropy(
            nn.gather_positions(logits, np.zeros_like(positions), positions),
            batch.targets[b, positions])
        loss.backward()
        weight = len(positions) / k
        raw += weight * loss.item()
        for name, t in params.tensors.items():
            grads[name] = grads.get(name, 0.0) + weight * t.grad
    return raw, grads


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("case", ["one_range", "split"])
def test_packed_gradients_equal_pad_free_rows(num_layers, case):
    cfg = dataclasses.replace(MINI, num_layers=num_layers)
    rng = np.random.default_rng(num_layers)
    if case == "one_range":
        lengths = np.array([1, 8, 5, 3])
    else:   # the first range is all full length; the second holds a length-1 row
        rows = -(-model.SPLIT_MIN_TOKENS // cfg.max_position) + 1
        lengths = np.full(rows, cfg.max_position)
        lengths[(rows + 1) // 2:] = rng.integers(1, cfg.max_position + 1, size=rows // 2)
        lengths[-3] = 1
    batch = masked_batch(cfg, rng.integers(0, 9, size=(len(lengths), cfg.max_position)),
                         lengths, rng)
    assert len(model._row_ranges(batch)) == (2 if case == "split" else 1)
    packed = model.init_model(cfg, 7).cast(np.float64)
    with parallel.Section() as section:
        got = model._batch_gradients(section, packed, batch, flood_b=0.0)
    raw, grads = per_row_reference(model.init_model(cfg, 7).cast(np.float64), batch)
    assert got.raw == pytest.approx(raw, rel=1e-12)
    for name, g in grads.items():
        # attn_k_bias's true gradient is 0, so both hold rounding noise there
        np.testing.assert_allclose(packed.tensors[name].grad, g, rtol=1e-9, atol=1e-15,
                                   err_msg=name)


def test_training_step_computes_only_real_tokens(monkeypatch):
    """Layer norms and GELUs see the real tokens, then the last layer's
    masked-query slots: never a PAD position."""
    cfg = model.ModelConfig(num_layers=3)
    lengths = [16, 9, 1, 12]
    rng = np.random.default_rng(0)
    corpus = [rng.integers(48, 84, size=n) for n in lengths]
    rows_seen = {"gelu": [], "layer_norm": []}
    for name, seen in rows_seen.items():
        def counted(x, *args, op=getattr(nn, name), seen=seen):
            seen.append(int(np.prod(x.shape[:-1])))
            return op(x, *args)
        monkeypatch.setattr(nn, name, counted)
    model.train(corpus, cfg, model.TrainHyper(epochs=1, batch_size=len(lengths)))
    real = sum(lengths)
    queries = len(lengths) * max(math.ceil(0.15 * n) for n in lengths)
    assert rows_seen["gelu"] == [real, real, queries]
    assert rows_seen["layer_norm"] == [real] * 5 + [queries, queries]


def test_small_batches_train_as_one_range():
    batch = model.make_mlm_batch(scale_corpus(4, length=16), model.ModelConfig(),
                                 np.random.default_rng(0))
    assert model._row_ranges(batch) == [slice(0, 4)]


def test_shared_layer_is_single_parameter_set():
    params = model.init_model(model.ModelConfig(num_layers=4), 0)
    assert len(params.tensors) == len(model.param_shapes(model.ModelConfig()))


def test_end_to_end_gradients_mini_model():
    params = model.init_model(MINI, 0).cast(np.float64)
    rng = np.random.default_rng(4)
    tokens = rng.integers(0, 9, size=(2, 8))
    tokens[1, 7] = MINI.pad_id
    tokens[0, 2] = MINI.mask_id
    pad = tokens == MINI.pad_id

    def loss():
        logits = model.forward(params, tokens, pad)
        sel = nn.gather_positions(logits, np.array([0]), np.array([2]))
        return model.flooded_loss(nn.softmax_cross_entropy(sel, np.array([5])), 0.05)

    loss().backward()
    assert max_fd_rel_err(loss, params.tensors, sample=10, seed=0) < 1e-5


def test_float32_gradients_within_loose_band():
    # analytic gradients computed in float32, finite differences in float64
    params32 = model.init_model(MINI, 1)
    rng = np.random.default_rng(5)
    tokens = rng.integers(0, 9, size=(1, 6))
    tokens[0, 4] = MINI.mask_id

    def loss(p):
        logits = model.forward(p, tokens)
        sel = nn.gather_positions(logits, np.array([0]), np.array([4]))
        return nn.softmax_cross_entropy(sel, np.array([3]))

    loss(params32).backward()
    params64 = params32.cast(np.float64)
    for name, t64 in params64.tensors.items():
        t64.grad = params32.tensors[name].grad.astype(np.float64)
    assert max_fd_rel_err(lambda: loss(params64), params64.tensors,
                          sample=8, seed=1) < 1e-3


# ------------------------------------------------------------ MLM batch

def test_mlm_batch_masks_fifteen_percent():
    cfg = model.ModelConfig()
    seqs = [np.arange(256) % 128]
    batch = model.make_mlm_batch(seqs, cfg, np.random.default_rng(0))
    assert batch.mask_positions.sum() == 39  # ceil(0.15 * 256)
    assert (batch.input_tokens[batch.mask_positions] == cfg.mask_id).all()
    originals = np.arange(256) % 128
    assert (batch.targets[batch.mask_positions] == originals[batch.mask_positions[0]]).all()
    assert (batch.targets[~batch.mask_positions] == model.IGNORE_TARGET).all()


def test_mlm_batch_never_masks_rests():
    cfg = model.ModelConfig()
    tokens = np.full(256, cfg.rest_id)
    tokens[:10] = 60
    batch = model.make_mlm_batch([tokens], cfg, np.random.default_rng(1))
    assert batch.mask_positions.sum() == 2  # ceil(0.15 * 10)
    assert (np.nonzero(batch.mask_positions[0])[0] < 10).all()


def test_mlm_batch_deterministic_per_seed():
    cfg = model.ModelConfig()
    seqs = [np.arange(100) % 128, np.arange(50) % 128]
    a = model.make_mlm_batch(seqs, cfg, np.random.default_rng(9))
    b = model.make_mlm_batch(seqs, cfg, np.random.default_rng(9))
    assert (a.input_tokens == b.input_tokens).all()
    assert (a.mask_positions == b.mask_positions).all()


def test_mlm_batch_pads_ragged_rows():
    cfg = model.ModelConfig()
    batch = model.make_mlm_batch([np.arange(8), np.arange(4)], cfg,
                                 np.random.default_rng(0))
    assert batch.input_tokens.shape == (2, 8)
    assert batch.pad_mask[1, 4:].all() and not batch.pad_mask[0].any()
    assert (batch.input_tokens[1, 4:] == cfg.pad_id).all()


def test_mlm_batch_requires_eligible_positions():
    cfg = model.ModelConfig()
    with pytest.raises(model.NoEligiblePositions):
        model.make_mlm_batch([np.full(10, cfg.rest_id)], cfg, np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.make_mlm_batch([np.arange(10)], cfg, np.random.default_rng(0), rate=1.5)


def test_mlm_batch_bert_strategy_keeps_targets():
    cfg = model.ModelConfig()
    tokens = np.arange(200) % 128
    batch = model.make_mlm_batch([tokens], cfg, np.random.default_rng(3), strategy="bert")
    masked = batch.mask_positions[0]
    assert (batch.targets[0][masked] == tokens[masked]).all()
    # most (not necessarily all) chosen positions carry the MASK token
    assert (batch.input_tokens[0][masked] == cfg.mask_id).sum() >= masked.sum() // 2


# -------------------------------------------------------------- flooding

def test_flooded_loss_reference_points():
    assert model.flooded_loss(0.20, 0.05) == pytest.approx(0.20)
    assert model.flooded_loss(0.01, 0.05) == pytest.approx(0.09)
    assert model.flooded_loss(0.05, 0.05) == pytest.approx(0.05)


def test_flooded_loss_floor_property():
    ls = np.linspace(0.0, 3.0, 301)
    for b in (0.0, 0.05, 0.4):
        vals = np.array([model.flooded_loss(l, b) for l in ls])
        assert (vals >= b - 1e-12).all()
        if b == 0.0:
            np.testing.assert_allclose(vals, ls)
        assert model.flooded_loss(b, b) == pytest.approx(b)


def test_flooded_loss_gradient_sign_flips_below_flood():
    for l0, expected in ((0.30, 1.0), (0.02, -1.0)):
        l = nn.Tensor(np.array(l0), requires_grad=True)
        out = model.flooded_loss(nn.mul(l, nn.Tensor(np.array(1.0))), 0.05)
        out.backward()
        assert l.grad == pytest.approx(expected)


def test_flooded_loss_keeps_numpy_scalar_dtype():
    out = model.flooded_loss(np.float32(0.01), 0.05)
    assert out.dtype == np.float32
    assert out == abs(np.float32(0.01) - np.float32(0.05)) + np.float32(0.05)


def test_flooded_loss_rejects_negative_level():
    with pytest.raises(ValueError):
        model.flooded_loss(0.2, -0.01)


# -------------------------------------------------------------- training

MINI_TRAIN = model.ModelConfig(embed_dim=8, hidden_dim=8, num_heads=2, ffn_dim=16,
                               num_layers=1)


def scale_corpus(n: int, length: int = 32):
    pattern = (np.arange(length) % 8) * 2 + 50
    return [pattern.astype(np.int16) for _ in range(n)]


def test_train_learns_fixed_pattern_quickly():
    cfg = model.ModelConfig()
    hyper = model.TrainHyper(epochs=8, batch_size=32, learning_rate=1e-3, seed=5)
    result = model.train(scale_corpus(64), cfg, hyper)
    history = result.metadata["history"]
    assert history[-1]["masked_accuracy"] > 0.9
    assert history[-1]["raw_loss"] < history[0]["raw_loss"]


def test_train_flooded_loss_never_below_flood_level():
    hyper = model.TrainHyper(epochs=3, batch_size=32, seed=1, flood_b=0.05)
    result = model.train(scale_corpus(32), model.ModelConfig(), hyper)
    assert all(m["flooded_loss"] >= 0.05 for m in result.metadata["history"])


def test_train_deterministic_per_seed():
    hyper = model.TrainHyper(epochs=2, batch_size=16, seed=11)
    a = model.train(scale_corpus(24), model.ModelConfig(), hyper)
    b = model.train(scale_corpus(24), model.ModelConfig(), hyper)
    assert ckpt.save_checkpoint_bytes(a) == ckpt.save_checkpoint_bytes(b)


def test_train_aborts_on_non_finite_loss():
    hyper = model.TrainHyper(epochs=4, batch_size=16, learning_rate=1e12, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(model.NonFiniteLoss):
            model.train(scale_corpus(16), model.ModelConfig(), hyper)


def test_train_bytes_independent_of_worker_count(monkeypatch):
    # two halves of 26 ragged rows: OpenBLAS's thread count changes the
    # rounding of some of their GEMMs, so a serial split must pin it too
    rng = np.random.default_rng(0)
    corpus = [rng.integers(48, 84, size=rng.integers(64, 129)) for _ in range(52)]
    hyper = model.TrainHyper(epochs=1, seed=3)
    blas = parallel.find_openblas()
    threads_seen = []

    def on_epoch(_):
        threads_seen.append(blas.get_threads() if blas is not None else None)

    concurrent = model.train(corpus, model.ModelConfig(), hyper, on_epoch=on_epoch)
    if blas is not None:
        assert threads_seen == [1]      # the batch was split, BLAS pinned
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    serial = model.train(corpus, model.ModelConfig(), hyper)
    assert ckpt.save_checkpoint_bytes(concurrent) == ckpt.save_checkpoint_bytes(serial)
    assert concurrent.metadata == serial.metadata


def test_train_restores_blas_threads_also_on_error():
    blas = parallel.find_openblas()
    if blas is None:
        pytest.skip("no OpenBLAS with a known thread-count symbol")
    rows = model.SPLIT_MIN_TOKENS // 128           # one batch that just splits
    hyper = model.TrainHyper(epochs=1, batch_size=rows, seed=3)
    before = blas.get_threads()
    model.train(scale_corpus(rows, length=128), model.ModelConfig(), hyper)
    assert blas.get_threads() == before
    hyper = dataclasses.replace(hyper, epochs=4, learning_rate=1e12)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(model.NonFiniteLoss):
            model.train(scale_corpus(rows, length=128), model.ModelConfig(), hyper)
    assert blas.get_threads() == before


def test_train_reports_per_epoch_metrics():
    seen = []
    hyper = model.TrainHyper(epochs=2, batch_size=16, seed=0)
    model.train(scale_corpus(16), model.ModelConfig(), hyper, on_epoch=seen.append)
    assert [m["epoch"] for m in seen] == [1, 2]
    assert all({"raw_loss", "flooded_loss", "masked_accuracy"} <= set(m) for m in seen)


# ------------------------------------------------------------ checkpoint

def test_checkpoint_round_trip_bitwise():
    mini_corpus = [np.arange(8) % 9 for _ in range(8)]
    result = model.train(mini_corpus, MINI, model.TrainHyper(epochs=1, seed=0))
    blob = ckpt.save_checkpoint_bytes(result)
    loaded = ckpt.load_checkpoint_bytes(blob)
    assert ckpt.save_checkpoint_bytes(loaded) == blob
    assert loaded.config == MINI
    for name in result.params.tensors:
        assert (loaded.params.tensors[name].data == result.params.tensors[name].data).all()


def test_checkpoint_detects_corruption():
    blob = bytearray(ckpt.save_checkpoint_bytes(model.Checkpoint(model.init_model(MINI, 0))))
    blob[len(blob) // 2] ^= 0x01
    with pytest.raises(ckpt.ChecksumError):
        ckpt.load_checkpoint_bytes(bytes(blob))


def test_checkpoint_rejects_garbage():
    import struct
    import zlib
    with pytest.raises(ckpt.CheckpointFormatError):
        ckpt.load_checkpoint_bytes(b"not a checkpoint at all")
    blob = ckpt.save_checkpoint_bytes(model.Checkpoint(model.init_model(MINI, 0)))
    truncated = blob[:40]  # cuts mid-config; re-seal with a valid CRC
    sealed = truncated + struct.pack("<I", zlib.crc32(truncated))
    with pytest.raises(ckpt.CheckpointFormatError):
        ckpt.load_checkpoint_bytes(sealed)


def test_checkpoint_rejects_invalid_config_with_valid_crc():
    import struct
    blob = ckpt.save_checkpoint_bytes(model.Checkpoint(model.init_model(MINI, 0)))
    heads = b"num_heads" + struct.pack("<q", MINI.num_heads)
    for bad in (0, 3):  # non-positive; does not divide hidden_dim = 8
        with pytest.raises(model.InvalidConfig):
            ckpt.load_checkpoint_bytes(
                resealed(blob, heads, b"num_heads" + struct.pack("<q", bad)))


def test_checkpoint_rejects_non_utf8_tensor_name():
    blob = ckpt.save_checkpoint_bytes(model.Checkpoint(model.init_model(MINI, 0)))
    with pytest.raises(ckpt.CheckpointFormatError):
        ckpt.load_checkpoint_bytes(resealed(blob, b"token_embedding", b"\xffoken_embedding"))


def test_checkpoint_file_round_trip(tmp_path):
    result = model.Checkpoint(model.init_model(MINI, 7))
    path = tmp_path / "model.psae"
    ckpt.save_checkpoint(result, path)
    loaded = ckpt.load_checkpoint(path)
    assert ckpt.save_checkpoint_bytes(loaded) == ckpt.save_checkpoint_bytes(result)
