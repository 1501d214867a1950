"""Reduced shared-parameter transformer encoder and its MLM training loop.

One encoder layer's parameters are applied at every depth (cross-layer
sharing), so doubling num_layers costs nothing. Blocks are pre-norm
residual; the head projects every position onto the 128 pitch classes.
Training masks a fraction of the pitch positions, scores them with
softmax cross-entropy, and runs the result through the flooding transform
|l - b| + b so the loss cannot be driven to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import nn
from .errors import PsaeError
from .quantize import SequenceTooLong

IGNORE_TARGET = -1

MASK_STRATEGIES = ("mask", "bert")


class InvalidConfig(PsaeError):
    pass


class UnknownToken(PsaeError):
    pass


class NoEligiblePositions(PsaeError):
    pass


class NonFiniteLoss(PsaeError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs. The defaults put the parameter count at 103,776.

    The vocabulary is the output pitch classes plus REST, MASK and PAD, in
    that id order; only the pitch classes are ever predicted.
    """

    vocab_size: int = 131
    embed_dim: int = 64
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 352
    max_position: int = 384
    output_classes: int = 128

    @property
    def rest_id(self) -> int:
        return self.output_classes

    @property
    def mask_id(self) -> int:
        return self.output_classes + 1

    @property
    def pad_id(self) -> int:
        return self.output_classes + 2

    def validate(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 1:
                raise InvalidConfig(f"{f.name} must be positive")
        if self.hidden_dim % self.num_heads:
            raise InvalidConfig(
                f"hidden_dim {self.hidden_dim} not divisible by {self.num_heads} heads")
        if self.embed_dim != self.hidden_dim:
            raise InvalidConfig("embed_dim must equal hidden_dim (no factorization projection)")
        if self.vocab_size != self.output_classes + 3:
            raise InvalidConfig(
                f"vocab_size must be output_classes + 3 (REST/MASK/PAD), "
                f"got {self.vocab_size} vs {self.output_classes}")


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical tensor name -> shape map (also the serialization order)."""
    d, f = config.hidden_dim, config.ffn_dim
    return {
        "token_embedding": (config.vocab_size, config.embed_dim),
        "position_embedding": (config.max_position, config.embed_dim),
        "attn_q_weight": (d, d),
        "attn_q_bias": (d,),
        "attn_k_weight": (d, d),
        "attn_k_bias": (d,),
        "attn_v_weight": (d, d),
        "attn_v_bias": (d,),
        "attn_out_weight": (d, d),
        "attn_out_bias": (d,),
        "norm_attn_gain": (d,),
        "norm_attn_bias": (d,),
        "ffn_in_weight": (d, f),
        "ffn_in_bias": (f,),
        "ffn_out_weight": (f, d),
        "ffn_out_bias": (d,),
        "norm_ffn_gain": (d,),
        "norm_ffn_bias": (d,),
        "head_norm_gain": (d,),
        "head_norm_bias": (d,),
        "head_weight": (d, config.output_classes),
        "head_bias": (config.output_classes,),
    }


def param_breakdown(config: ModelConfig) -> dict[str, int]:
    """Parameter count per tensor; param_count is the sum of these."""
    return {name: int(np.prod(shape)) for name, shape in param_shapes(config).items()}


def param_count(config: ModelConfig) -> int:
    return sum(param_breakdown(config).values())


@dataclass
class ModelParams:
    """Named tensor map plus the config that fixes its shapes. The single
    shared layer is stored once; forward applies it num_layers times."""

    config: ModelConfig
    tensors: dict[str, nn.Tensor]

    def cast(self, dtype) -> "ModelParams":
        copied = {name: nn.Tensor(t.data.astype(dtype), requires_grad=t.requires_grad)
                  for name, t in self.tensors.items()}
        return ModelParams(self.config, copied)


def init_model(config: ModelConfig, rng: np.random.Generator | int) -> ModelParams:
    """Fresh parameters: weights ~ Normal(0, 0.02), biases zero, norm gains
    one. Deterministic for a given seed."""
    config.validate()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    tensors: dict[str, nn.Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("_gain"):
            data = np.ones(shape, dtype=np.float32)
        elif name.endswith("_bias"):
            data = np.zeros(shape, dtype=np.float32)
        else:
            data = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
        tensors[name] = nn.Tensor(data, requires_grad=True)
    return ModelParams(config, tensors)


def _split_heads(config: ModelConfig, y: nn.Tensor) -> nn.Tensor:
    """[batch, length, d] -> [batch, heads, length, d / heads]."""
    b, l, d = y.shape
    heads = config.num_heads
    return nn.swap_axes(nn.reshape(y, (b, l, heads, d // heads)), 1, 2)


def _merge_heads(y: nn.Tensor) -> nn.Tensor:
    """[batch, heads, length, head_dim] -> [batch, length, heads * head_dim]."""
    b, heads, l, head_dim = y.shape
    return nn.reshape(nn.swap_axes(y, 1, 2), (b, l, heads * head_dim))


def _rows(x: nn.Tensor, positions: np.ndarray) -> nn.Tensor:
    """Rows positions[b, n] of each batch row of x: [batch, n, d]."""
    b, n = positions.shape
    batch_idx = np.repeat(np.arange(b), n)
    picked = nn.gather_positions(x, batch_idx, positions.reshape(-1))
    return nn.reshape(picked, (b, n, x.shape[-1]))


def _embed(t: dict[str, nn.Tensor], tokens: np.ndarray) -> nn.Tensor:
    return nn.add(nn.embedding_lookup(t["token_embedding"], tokens),
                  nn.embedding_lookup(t["position_embedding"], np.arange(tokens.shape[1])))


def _project(t: dict[str, nn.Tensor], h: nn.Tensor, name: str) -> nn.Tensor:
    """One attention projection: name is q, k, v or out."""
    return nn.add_bias(nn.matmul(h, t[f"attn_{name}_weight"]), t[f"attn_{name}_bias"])


def _attention_norm(t: dict[str, nn.Tensor], x: nn.Tensor) -> nn.Tensor:
    return nn.layer_norm(x, t["norm_attn_gain"], t["norm_attn_bias"])


def _attention_residual(t: dict[str, nn.Tensor], x: nn.Tensor, attn: nn.Tensor) -> nn.Tensor:
    """x + out-projection of the merged-head attention output."""
    return nn.add(x, _project(t, attn, "out"))


def _attention_sublayer(config: ModelConfig, t: dict[str, nn.Tensor], x: nn.Tensor,
                        pad_mask: np.ndarray | None,
                        query_positions: np.ndarray | None = None) -> nn.Tensor:
    """Pre-norm self-attention plus residual over x [batch, length, d].

    With query_positions ([batch, n] ints) only those rows query: keys and
    values still cover every row, and the output is [batch, n, d].
    """
    h = _attention_norm(t, x)
    if query_positions is not None:
        x = _rows(x, query_positions)
    q = _project(t, h if query_positions is None else _rows(h, query_positions), "q")
    k = _project(t, h, "k")
    v = _project(t, h, "v")
    attn = nn.scaled_dot_product_attention(_split_heads(config, q), _split_heads(config, k),
                                           _split_heads(config, v), pad_mask)
    return _attention_residual(t, x, _merge_heads(attn))


def _ffn_sublayer(t: dict[str, nn.Tensor], x: nn.Tensor) -> nn.Tensor:
    """Pre-norm position-wise feed-forward plus residual."""
    h = nn.layer_norm(x, t["norm_ffn_gain"], t["norm_ffn_bias"])
    f = nn.gelu(nn.add_bias(nn.matmul(h, t["ffn_in_weight"]), t["ffn_in_bias"]))
    f = nn.add_bias(nn.matmul(f, t["ffn_out_weight"]), t["ffn_out_bias"])
    return nn.add(x, f)


def _encoder_block(config: ModelConfig, t: dict[str, nn.Tensor], x: nn.Tensor,
                   pad_mask: np.ndarray | None,
                   query_positions: np.ndarray | None = None) -> nn.Tensor:
    return _ffn_sublayer(t, _attention_sublayer(config, t, x, pad_mask, query_positions))


def _head(t: dict[str, nn.Tensor], x: nn.Tensor) -> nn.Tensor:
    h = nn.layer_norm(x, t["head_norm_gain"], t["head_norm_bias"])
    return nn.add_bias(nn.matmul(h, t["head_weight"]), t["head_bias"])


def check_tokens(config: ModelConfig, tokens: np.ndarray) -> None:
    """Reject a token batch the model cannot embed."""
    if tokens.ndim != 2:
        raise nn.ShapeMismatch(f"input_tokens must be [batch, length], got {tokens.shape}")
    _, length = tokens.shape
    if length > config.max_position:
        raise SequenceTooLong(f"length {length} exceeds max_position {config.max_position}")
    if tokens.min() < 0 or tokens.max() >= config.vocab_size:
        raise UnknownToken(
            f"token ids must lie in [0, {config.vocab_size}), got "
            f"[{tokens.min()}, {tokens.max()}]")


def forward(params: ModelParams, input_tokens: np.ndarray,
            pad_mask: np.ndarray | None = None) -> nn.Tensor:
    """Token ids [batch, length] -> pitch logits [batch, length, classes].

    pad_mask (True at PAD) keeps padded keys out of attention; PAD
    positions still produce logits, callers just never read them.
    """
    config = params.config
    tokens = np.asarray(input_tokens)
    check_tokens(config, tokens)
    t = params.tensors
    x = _embed(t, tokens)
    for _ in range(config.num_layers):
        x = _encoder_block(config, t, x, pad_mask)
    return _head(t, x)


@dataclass
class TrainingBatch:
    input_tokens: np.ndarray   # [B, L] ids with MASK substituted
    targets: np.ndarray        # [B, L] pitch id where masked, IGNORE_TARGET elsewhere
    mask_positions: np.ndarray  # [B, L] bool
    pad_mask: np.ndarray       # [B, L] bool, True at PAD


def pad_batch(token_rows: list[np.ndarray], pad_id: int) -> tuple[np.ndarray, np.ndarray]:
    """Stack variable-length rows, right-padded with pad_id."""
    length = max(len(r) for r in token_rows)
    out = np.full((len(token_rows), length), pad_id, dtype=np.int64)
    for i, row in enumerate(token_rows):
        out[i, :len(row)] = row
    return out, out == pad_id


def make_mlm_batch(sequences, config: ModelConfig, rng: np.random.Generator,
                   rate: float = 0.15, strategy: str = "mask") -> TrainingBatch:
    """Mask ceil(rate * eligible) positions per sequence, uniformly.

    Eligible means a pitch token: REST and PAD are never masked and never
    become targets. strategy "mask" replaces every chosen position with
    MASK; "bert" uses the 80/10/10 mask/random/keep split.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"mask rate must be in (0, 1), got {rate}")
    if strategy not in MASK_STRATEGIES:
        raise ValueError(f"unknown mask strategy {strategy!r}")
    rows = [np.asarray(getattr(s, "tokens", s), dtype=np.int64) for s in sequences]
    if not rows:
        raise nn.EmptyBatch("no sequences to batch")
    inputs, pad_mask = pad_batch(rows, config.pad_id)
    targets = np.full_like(inputs, IGNORE_TARGET)
    mask_positions = np.zeros_like(inputs, dtype=bool)
    for i, row in enumerate(rows):
        eligible = np.nonzero(row < config.output_classes)[0]
        if eligible.size == 0:
            raise NoEligiblePositions(f"sequence {i} has no pitch tokens to mask")
        n_mask = max(1, math.ceil(rate * eligible.size))
        picked = rng.choice(eligible, size=n_mask, replace=False)
        targets[i, picked] = inputs[i, picked]
        mask_positions[i, picked] = True
        if strategy == "mask":
            inputs[i, picked] = config.mask_id
        else:
            roll = rng.random(n_mask)
            for j, pos in enumerate(picked):
                if roll[j] < 0.8:
                    inputs[i, pos] = config.mask_id
                elif roll[j] < 0.9:
                    inputs[i, pos] = rng.integers(0, config.output_classes)
    return TrainingBatch(inputs, targets, mask_positions, pad_mask)


def flooded_loss(l_origin, flood_b: float):
    """Flooding transform |l - b| + b: identity above the flood level b,
    reflected below it, so the minimum value is b (at l = b)."""
    if flood_b < 0:
        raise ValueError(f"flood level must be >= 0, got {flood_b}")
    if isinstance(l_origin, nn.Tensor):
        return abs(l_origin - flood_b) + flood_b
    return abs(float(l_origin) - flood_b) + flood_b


@dataclass(frozen=True)
class TrainHyper:
    epochs: int
    batch_size: int = 64
    learning_rate: float = 1e-3
    seed: int = 0
    flood_b: float = 0.05
    mask_rate: float = 0.15
    mask_strategy: str = "mask"
    weight_decay: float = 0.01


@dataclass
class Checkpoint:
    params: ModelParams
    metadata: dict = field(default_factory=dict)

    @property
    def config(self) -> ModelConfig:
        return self.params.config


def train(corpus, config: ModelConfig, hyper: TrainHyper,
          on_epoch=None) -> Checkpoint:
    """Full MLM loop: shuffle, mask, forward, cross-entropy over masked
    positions, flooding, backward, AdamW. Deterministic per hyper.seed.

    Per-epoch metrics (raw_loss, flooded_loss, masked_accuracy, all
    averaged over masked positions) go to metadata["history"] and to the
    optional on_epoch callback.
    """
    rows = [np.asarray(getattr(s, "tokens", s), dtype=np.int64) for s in corpus]
    if not rows:
        raise nn.EmptyBatch("empty training corpus")
    params = init_model(config, hyper.seed)
    optimizer = nn.AdamW(params.tensors, learning_rate=hyper.learning_rate,
                         weight_decay=hyper.weight_decay)
    rng = np.random.default_rng([hyper.seed, 0x5eed])
    history: list[dict] = []
    for epoch in range(1, hyper.epochs + 1):
        order = rng.permutation(len(rows))
        nll_sum = flooded_sum = 0.0
        n_masked = n_correct = 0
        for start in range(0, len(rows), hyper.batch_size):
            batch_rows = [rows[i] for i in order[start:start + hyper.batch_size]]
            batch = make_mlm_batch(batch_rows, config, rng,
                                   rate=hyper.mask_rate, strategy=hyper.mask_strategy)
            logits = forward(params, batch.input_tokens, batch.pad_mask)
            b_idx, p_idx = np.nonzero(batch.mask_positions)
            masked_logits = nn.gather_positions(logits, b_idx, p_idx)
            masked_targets = batch.targets[b_idx, p_idx]
            raw = nn.softmax_cross_entropy(masked_logits, masked_targets)
            if not np.isfinite(raw.data):
                raise NonFiniteLoss(
                    f"non-finite loss at epoch {epoch}, batch start {start}")
            loss = flooded_loss(raw, hyper.flood_b)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            k = len(masked_targets)
            nll_sum += raw.item() * k
            flooded_sum += loss.item() * k
            n_masked += k
            n_correct += int((masked_logits.data.argmax(axis=1) == masked_targets).sum())
        metrics = {
            "epoch": epoch,
            "raw_loss": nll_sum / n_masked,
            "flooded_loss": flooded_sum / n_masked,
            "masked_accuracy": n_correct / n_masked,
        }
        history.append(metrics)
        if on_epoch is not None:
            on_epoch(metrics)
    metadata = {
        "seed": hyper.seed,
        "epochs": hyper.epochs,
        "sequences": len(rows),
        "history": history,
    }
    return Checkpoint(params=params, metadata=metadata)


def default_config(**overrides) -> ModelConfig:
    return replace(ModelConfig(), **overrides)
