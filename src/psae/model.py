"""Reduced shared-parameter transformer encoder and its MLM training loop.

One encoder layer's parameters are applied at every depth (cross-layer
sharing), so doubling num_layers costs nothing. Blocks are pre-norm
residual; the head projects every position onto the 128 pitch classes.
Training masks a fraction of the pitch positions, scores them with
softmax cross-entropy, and runs the result through the flooding transform
|l - b| + b so the loss cannot be driven to zero. forward computes only
the real (non-PAD) positions, packed as rows; only the masked positions
reach the loss, so training runs the last layer's queries and the head at
those positions alone. _packed_block is the one encoder layer: forward,
training and the scorer run it at every depth.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import nn, parallel
from .errors import PsaeError
from .quantize import MAX_SEQ_LEN, PITCH_CLASSES, SequenceTooLong

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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelConfig:
    """Architecture knobs. The defaults put the parameter count at 103,776.

    The vocabulary is the output pitch classes plus REST, MASK and PAD, in
    that id order; only the pitch classes are ever predicted.
    """

    vocab_size: int = PITCH_CLASSES + 3
    embed_dim: int = 64
    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 4
    ffn_dim: int = 352
    max_position: int = MAX_SEQ_LEN
    output_classes: int = PITCH_CLASSES

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
            value = getattr(self, f.name)
            if not _is_int(value):
                raise InvalidConfig(f"{f.name} must be an integer, got {value!r}")
            if value < 1:
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
        if self.output_classes > PITCH_CLASSES:
            raise InvalidConfig(
                f"output_classes must be at most {PITCH_CLASSES}: REST is id {PITCH_CLASSES} "
                f"in every corpus, got {self.output_classes}")

    __post_init__ = validate   # a ModelConfig is valid once made


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


def _embed(t: dict[str, nn.Tensor], tokens: np.ndarray,
           positions: np.ndarray | None = None) -> nn.Tensor:
    """Token plus position embedding; positions default to 0..length-1."""
    if positions is None:
        positions = np.arange(tokens.shape[-1])
    return nn.add(nn.embedding_lookup(t["token_embedding"], tokens),
                  nn.embedding_lookup(t["position_embedding"], positions))


def _project(t: dict[str, nn.Tensor], h: nn.Tensor, name: str) -> nn.Tensor:
    """One attention projection: name is q, k, v or out."""
    return nn.matmul(h, t[f"attn_{name}_weight"], bias=t[f"attn_{name}_bias"])


def _attention_norm(t: dict[str, nn.Tensor], x: nn.Tensor) -> nn.Tensor:
    return nn.layer_norm(x, t["norm_attn_gain"], t["norm_attn_bias"])


def _ffn_sublayer(t: dict[str, nn.Tensor], x: nn.Tensor) -> nn.Tensor:
    """Pre-norm position-wise feed-forward plus residual."""
    h = nn.layer_norm(x, t["norm_ffn_gain"], t["norm_ffn_bias"])
    f = nn.matmul(h, t["ffn_in_weight"], bias=t["ffn_in_bias"])
    # without a graph nothing reads the pre-activation again: gelu writes over it
    f = nn.gelu(f, out=None if f.requires_grad else f.data)
    f = nn.matmul(f, t["ffn_out_weight"], bias=t["ffn_out_bias"])
    return nn.add(x, f)


def _packed_block(config: ModelConfig, t: dict[str, nn.Tensor], x: nn.Tensor,
                  pad_mask: np.ndarray, query_rows: np.ndarray | None = None,
                  attn: nn.Tensor | None = None) -> nn.Tensor:
    """One layer over x [n, d], the real rows of a [batch, length] grid
    (pad_mask True at PAD) in row-major order.

    With query_rows ([batch, q] indices into x) only those rows query: keys
    and values still cover every row, and the output is [batch, q, d].
    attn, when given, is the layer's merged-head attention output for x's
    rows, computed by the caller (the scorer's first layer).
    """
    if attn is None:
        h = _attention_norm(t, x)
        if query_rows is not None:
            x = nn.embedding_lookup(x, query_rows)
        q = _project(t, h if query_rows is None else nn.embedding_lookup(h, query_rows), "q")
        attn = nn.packed_attention(q, _project(t, h, "k"), _project(t, h, "v"), pad_mask,
                                   config.num_heads)
    return _ffn_sublayer(t, nn.add(x, _project(t, attn, "out")))


def _head(t: dict[str, nn.Tensor], x: nn.Tensor) -> nn.Tensor:
    h = nn.layer_norm(x, t["head_norm_gain"], t["head_norm_bias"])
    return nn.matmul(h, t["head_weight"], bias=t["head_bias"])


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
            pad_mask: np.ndarray | None = None,
            query_positions: np.ndarray | None = None) -> nn.Tensor:
    """Token ids [batch, length] -> pitch logits [batch, length, classes].

    Only the real positions are computed: pad_mask (True at PAD) drops
    the rest, and the real ones run through every layer packed as [n, d]
    rows, attending to the real keys of their own batch row. A PAD
    position's logits are a placeholder (those of a real position); callers
    never read them.

    With query_positions ([batch, n] ints) every layer but the last runs
    in full, the last layer queries only those rows, and the logits are
    [batch, n, classes]: logits[b, j] is the full forward's
    logits[b, query_positions[b, j]].
    """
    config = params.config
    tokens = np.asarray(input_tokens)
    check_tokens(config, tokens)
    batch, length = tokens.shape
    if query_positions is None:
        query_positions = np.broadcast_to(np.arange(length), tokens.shape)
    query_positions = np.asarray(query_positions)
    if (query_positions.ndim != 2 or query_positions.shape[0] != batch
            or query_positions.dtype.kind not in "iu"):
        raise nn.ShapeMismatch(
            f"query_positions must be [batch, n] ints, got {query_positions.shape}")
    if query_positions.size and (query_positions.min() < 0
                                 or query_positions.max() >= length):
        raise nn.ShapeMismatch(f"query_positions outside [0, {length})")
    pad = np.zeros(tokens.shape, dtype=bool) if pad_mask is None else np.asarray(pad_mask, bool)
    if pad.shape != tokens.shape:
        raise nn.ShapeMismatch(f"pad_mask {pad.shape} vs tokens {tokens.shape}")
    real = ~pad
    if not real.any():
        raise nn.EmptyBatch("every position is PAD")
    b_idx, p_idx = np.nonzero(real)
    # packed row of each position; a PAD position gets a nearby real row
    row_of = np.maximum(np.cumsum(real) - 1, 0).reshape(tokens.shape)
    query_rows = row_of[np.arange(batch)[:, None], query_positions]
    t = params.tensors
    x = _embed(t, tokens[b_idx, p_idx], p_idx)
    for layer in range(config.num_layers):
        last = layer == config.num_layers - 1
        x = _packed_block(config, t, x, pad, query_rows if last else None)
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


def check_raw_row(config: ModelConfig, row: np.ndarray, name: str) -> None:
    """Reject a raw row (a corpus row, a clip to score) that config cannot
    take: ids other than pitches and REST, whose MASK and PAD the model's
    callers place, or more than max_position ids. The error names name."""
    if row.size and (row.min() < 0 or row.max() > config.rest_id):
        raise UnknownToken(
            f"{name}: raw token ids must lie in [0, {config.rest_id}], got "
            f"[{row.min()}, {row.max()}]")
    if len(row) > config.max_position:
        raise SequenceTooLong(f"{name}: length {len(row)} exceeds max_position "
                              f"{config.max_position}")


def _token_rows(sequences, config: ModelConfig) -> list[np.ndarray]:
    """Raw token rows, each its sequence's own integer array: a
    PitchSequence's int16 tokens are used as they are, not copied; pad_batch
    writes the int64 batch. A trainable row passes check_raw_row and holds
    at least one pitch. Any other row raises, naming its index and source
    id."""
    rows = []
    for i, s in enumerate(sequences):
        row = np.asarray(getattr(s, "tokens", s))
        name = f"sequence {i}" + (f" ({s.source_id})" if getattr(s, "source_id", "") else "")
        check_raw_row(config, row, name)
        if not row.size or row.min() >= config.output_classes:
            raise NoEligiblePositions(f"{name} has no pitch tokens to mask")
        rows.append(row)
    return rows


def make_mlm_batch(sequences, config: ModelConfig, rng: np.random.Generator,
                   rate: float = 0.15, strategy: str = "mask") -> TrainingBatch:
    """Mask ceil(rate * eligible) positions per sequence, uniformly.

    Eligible means a pitch token: REST and PAD are never masked and never
    become targets. A row that is not trainable raises as _token_rows
    says. strategy "mask" replaces every chosen position with
    MASK; "bert" uses the 80/10/10 mask/random/keep split.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"mask rate must be in (0, 1), got {rate}")
    if strategy not in MASK_STRATEGIES:
        raise ValueError(f"unknown mask strategy {strategy!r}")
    rows = _token_rows(sequences, config)
    if not rows:
        raise nn.EmptyBatch("no sequences to batch")
    inputs, pad_mask = pad_batch(rows, config.pad_id)
    targets = np.full_like(inputs, IGNORE_TARGET)
    mask_positions = np.zeros_like(inputs, dtype=bool)
    for i, row in enumerate(rows):
        eligible = np.nonzero(row < config.output_classes)[0]
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
    reflected below it, so the minimum value is b (at l = b). Tensors and
    numpy scalars keep their dtype."""
    if flood_b < 0:
        raise ValueError(f"flood level must be >= 0, got {flood_b}")
    return abs(l_origin - flood_b) + flood_b


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

    def validate(self) -> None:
        for name in ("epochs", "batch_size"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise InvalidConfig(f"{name} must be an integer >= 1, got {value!r}")
        if not _is_int(self.seed) or self.seed < 0:
            raise InvalidConfig(f"seed must be an integer >= 0, got {self.seed!r}")
        for name in ("learning_rate", "flood_b", "weight_decay", "mask_rate"):
            value = getattr(self, name)
            if not _is_real(value) or not math.isfinite(value):
                raise InvalidConfig(f"{name} must be a finite number, got {value!r}")
        if self.learning_rate <= 0:
            raise InvalidConfig(f"learning_rate must be > 0, got {self.learning_rate!r}")
        for name in ("flood_b", "weight_decay"):
            if getattr(self, name) < 0:
                raise InvalidConfig(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if not 0 < self.mask_rate < 1:
            raise InvalidConfig(f"mask_rate must lie in (0, 1), got {self.mask_rate!r}")
        if self.mask_strategy not in MASK_STRATEGIES:
            raise InvalidConfig(f"mask_strategy must be one of {MASK_STRATEGIES}, "
                                f"got {self.mask_strategy!r}")

    __post_init__ = validate   # a TrainHyper is valid once made


@dataclass
class Checkpoint:
    params: ModelParams
    metadata: dict = field(default_factory=dict)

    @property
    def config(self) -> ModelConfig:
        return self.params.config


def _masked_queries(mask_positions: np.ndarray, b_idx: np.ndarray,
                    p_idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Query rows for the masked positions (b_idx, p_idx), row-major as
    np.nonzero gives them: query[b] lists row b's masked positions in
    ascending order, padded with 0 to the longest row, and (b_idx[i],
    slot[i]) is where (b_idx[i], p_idx[i]) lands in the query output.
    The padded slots are computed but never read."""
    counts = mask_positions.sum(axis=1)
    slot = np.arange(len(b_idx)) - np.repeat(np.cumsum(counts) - counts, counts)
    query = np.zeros((mask_positions.shape[0], int(counts.max())), dtype=np.int64)
    query[b_idx, slot] = p_idx
    return query, slot


# Tokens (rows x length) per row range of a training step. A batch of T
# tokens trains as ceil(T / SPLIT_MIN_TOKENS) ranges, at least two and at
# most one per row, run one after another on each thread, so a step holds
# one range's graph per thread whatever the batch: attention scores grow
# with length squared per row. Batches under it train as one graph: every
# extra range repeats each op's Python overhead, which only pays once the
# numpy work per op is large enough to overlap on two threads.
SPLIT_MIN_TOKENS = 2048

class _RangeStep(NamedTuple):
    """Forward and backward over one row range of a masked batch."""

    raw: np.ndarray                  # mean NLL over the range's masked positions
    masked: int
    correct: int
    grads: dict[str, np.ndarray | None]  # d raw / d param; None when raw is not finite


def _row_ranges(batch: TrainingBatch) -> list[slice]:
    """The batch's fixed split into contiguous row ranges: one range below
    SPLIT_MIN_TOKENS, else n = min(rows, max(2, ceil(tokens /
    SPLIT_MIN_TOKENS))) ranges bounded at ceil(rows * i / n), so none holds
    more than SPLIT_MIN_TOKENS + length tokens. It depends on the batch
    alone, never on the CPU count."""
    rows, length = batch.input_tokens.shape
    tokens = rows * length
    if tokens < SPLIT_MIN_TOKENS:
        return [slice(0, rows)]
    n = min(rows, max(2, -(-tokens // SPLIT_MIN_TOKENS)))
    bounds = [-(-rows * i // n) for i in range(n + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _range_step(params: ModelParams, batch: TrainingBatch, rows: slice) -> _RangeStep:
    """One range's graph over views of params: shared .data, own .grad.
    The range's columns end at its last real position, so it pads only to
    its own longest row. The last layer and the head run only at the
    masked positions, the only rows the loss reads."""
    views = {name: nn.Tensor(t.data, requires_grad=True) for name, t in params.tensors.items()}
    pad = batch.pad_mask[rows]
    width = int(np.flatnonzero(~pad.all(axis=0)).max(initial=0)) + 1
    cols = (rows, slice(0, width))
    mask_positions = batch.mask_positions[cols]
    b_idx, p_idx = np.nonzero(mask_positions)
    query, slot = _masked_queries(mask_positions, b_idx, p_idx)
    logits = forward(ModelParams(params.config, views), batch.input_tokens[cols],
                     pad[:, :width], query)
    masked_logits = nn.gather_positions(logits, b_idx, slot)
    masked_targets = batch.targets[cols][b_idx, p_idx]
    raw = nn.softmax_cross_entropy(masked_logits, masked_targets)
    correct = int((masked_logits.data.argmax(axis=1) == masked_targets).sum())
    if np.isfinite(raw.data):  # a non-finite loss stops training: no backward
        raw.backward()
    return _RangeStep(raw.data, len(masked_targets), correct,
                      {name: v.grad for name, v in views.items()})


class _BatchLoss(NamedTuple):
    raw: float       # mean NLL over the batch's masked positions
    flooded: float   # |raw - b| + b
    masked: int
    correct: int     # masked positions whose argmax is the target


def _batch_gradients(section: parallel.Section, params: ModelParams, batch: TrainingBatch,
                     flood_b: float) -> _BatchLoss:
    """Map batch's row ranges on the section (which deals them to its
    threads, one range's graph per thread at a time) and leave the flooded
    batch loss's gradient in each parameter's .grad (untouched when the
    loss is not finite).

    With raw_w the mean NLL of range w over its k_w of the batch's k
    masked positions, the batch loss is raw = sum_w raw_w k_w / k, and
    |raw - b| + b has the gradient sum_w sign(raw - b) (k_w / k) grad
    raw_w, summed in range order. sign(0) = 0, as in nn.absolute.
    """
    steps = section.map(functools.partial(_range_step, params, batch), _row_ranges(batch))
    k = sum(step.masked for step in steps)
    dtype = steps[0].raw.dtype.type
    raw = dtype(sum(float(step.raw) * step.masked for step in steps) / k)
    if np.isfinite(raw):
        sign = float(np.sign(raw - flood_b))
        for name, t in params.tensors.items():
            t.grad = None
            for step in steps:
                g = step.grads[name]
                if g is not None:
                    g *= dtype(sign * step.masked / k)
                    t.grad = g if t.grad is None else t.grad + g
    return _BatchLoss(float(raw), float(flooded_loss(raw, flood_b)), k,
                      sum(step.correct for step in steps))


def train(corpus, config: ModelConfig, hyper: TrainHyper,
          on_epoch=None) -> Checkpoint:
    """Full MLM loop: shuffle, mask, forward, cross-entropy over masked
    positions, flooding, backward, AdamW. Deterministic per hyper.seed.

    Each masked batch trains as fixed row ranges of about SPLIT_MIN_TOKENS
    tokens, mapped on a parallel.Section (_batch_gradients), so a step's
    memory is bounded by the range size, not the batch; the split depends
    on the batch alone, so the result does not depend on the CPU count.

    The corpus is held once: each row is its sequence's own token array
    (a PitchSequence's int16 tokens), and only a padded batch is int64.
    Every row is checked by _token_rows before the first step, and the
    error names the row.

    Per-epoch metrics (raw_loss, flooded_loss, masked_accuracy, all
    averaged over masked positions) go to metadata["history"] and to the
    optional on_epoch callback.
    """
    params = init_model(config, hyper.seed)
    rows = _token_rows(corpus, config)
    if not rows:
        raise nn.EmptyBatch("empty training corpus")
    optimizer = nn.AdamW(params.tensors, learning_rate=hyper.learning_rate,
                         weight_decay=hyper.weight_decay)
    rng = np.random.default_rng([hyper.seed, 0x5eed])
    history: list[dict] = []
    with parallel.Section() as section:
        for epoch in range(1, hyper.epochs + 1):
            order = rng.permutation(len(rows))
            nll_sum = flooded_sum = 0.0
            n_masked = n_correct = 0
            for start in range(0, len(rows), hyper.batch_size):
                batch_rows = [rows[i] for i in order[start:start + hyper.batch_size]]
                batch = make_mlm_batch(batch_rows, config, rng,
                                       rate=hyper.mask_rate, strategy=hyper.mask_strategy)
                loss = _batch_gradients(section, params, batch, hyper.flood_b)
                if not math.isfinite(loss.raw):
                    raise NonFiniteLoss(
                        f"non-finite loss at epoch {epoch}, batch start {start}")
                optimizer.step()
                nll_sum += loss.raw * loss.masked
                flooded_sum += loss.flooded * loss.masked
                n_masked += loss.masked
                n_correct += loss.correct
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
