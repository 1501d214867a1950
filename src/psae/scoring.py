"""Provenance scoring: mask each note in turn, read the model's probability
of the true pitch, and average. High average probability means the clip
looks like the machine-composed training distribution; 1 - p is reported
as the probability of human origin. Labeled manifests aggregate the
1 - p detection scores into rank-sum (Mann-Whitney) AUCs, overall and per
group key. Nothing in this path is random.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import nn, parallel
from .errors import PsaeError
from .model import (Checkpoint, ModelConfig, ModelParams, _attention_norm, _embed, _head,
                    _packed_block, _project, check_raw_row)
from .model import forward  # noqa: F401  (perfbench/layers.py traces scoring.forward)
from .quantize import PitchSequence

# Activation bytes the chunks of masked variants in flight may hold
# together; each of up to parallel.MAX_WORKERS chunks gets an equal share.
# The chunk size follows from that share, the clip length and the widest
# per-position activation.
_SCORING_BUDGET_MIB = 64
# Full-size copies of the widest activation a chunk may hold at once, with
# headroom. The FFN's hidden layer takes one: with no graph recorded, gelu
# writes over its pre-activation and holds one block of Phi. Chunk
# boundaries, and so the scores' bits, follow from it: keep it at 6, which
# leaves more headroom than a chunk uses.
_LIVE_COPIES = 6
# A corrected first-layer softmax term exp(s - rowmax) above e**_EXP_LIMIT
# is not trusted; that entry is recomputed exactly.
_EXP_LIMIT = 80.0


class NoScoreablePositions(PsaeError):
    pass


class SingleClassOnly(PsaeError):
    pass


class ManifestMalformed(PsaeError):
    pass


@dataclass
class NoteProbabilities:
    """Model probability of the true pitch at each scoreable position."""

    probabilities: np.ndarray  # float64, each in (0, 1)
    positions: np.ndarray      # int indices into the token sequence

    def __len__(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class ExcerptScore:
    source_id: str
    ai_probability: float
    n_notes: int

    @property
    def human_probability(self) -> float:
        return 1.0 - self.ai_probability


def _params_of(model: Checkpoint | ModelParams) -> ModelParams:
    return model.params if isinstance(model, Checkpoint) else model


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z, dtype=np.float64)
    return e / e.sum(axis=-1, keepdims=True)


def _scoreable_positions(tokens: np.ndarray, n_classes: int,
                         whole_notes: bool) -> list[np.ndarray]:
    """Index groups to mask together: one per grid step, or one per
    sustained note (run of equal pitch tokens) when whole_notes is set."""
    pitch_at = np.nonzero(tokens < n_classes)[0]
    if not whole_notes:
        return [np.array([i]) for i in pitch_at]
    if not pitch_at.size:
        return []
    breaks = (np.diff(pitch_at) != 1) | (np.diff(tokens[pitch_at]) != 0)
    return np.split(pitch_at, np.nonzero(breaks)[0] + 1)


def _chunk_size(config: ModelConfig, length: int, itemsize: int) -> int:
    """Masked variants per chunk, so that a chunk's widest activation (the
    FFN hidden layer, or the full attention matrix of a middle layer) fits
    its worker's share of the budget. It never depends on the CPU count."""
    width = config.ffn_dim
    if config.num_layers > 2:
        width = max(width, config.num_heads * length)
    per_variant = _LIVE_COPIES * itemsize * length * width
    share = (_SCORING_BUDGET_MIB << 20) // parallel.MAX_WORKERS
    return max(1, share // per_variant)


class _FirstLayer:
    """First-layer attention of the unmasked clip, kept in float64 so each
    masked variant costs a rank-|S| correction instead of a new pass.

    For every head and query i the base pass stores the row max m_i, the
    softmax denominator D_i = sum_j exp(s_ij - m_i) and numerator
    N_i = sum_j exp(s_ij - m_i) v_j. Masking the key set S replaces, in
    both sums, the terms of each key j in S by those of the MASK key at j,
    scaled by the same stored max (the online-softmax rescaling, here for
    changed keys). Masked queries are recomputed exactly, and so is any
    entry whose removed terms held more than half of D_i (the subtraction
    would cancel) or whose new term exceeds e**_EXP_LIMIT.

    The stored terms are two [heads, L, L] float64 tables, e_old of the
    clip's keys and e_new of the MASK keys, each built in place in the
    buffer of its scores: no score or shift matrix is kept beside them.
    """

    def __init__(self, config: ModelConfig, t: dict[str, nn.Tensor],
                 x: nn.Tensor, x_masked: nn.Tensor):
        head_dim = config.hidden_dim // config.num_heads
        scale = 1.0 / np.sqrt(head_dim)

        def heads(x: nn.Tensor) -> list[np.ndarray]:
            h = _attention_norm(t, x)
            return [_project(t, h, name).data.reshape(-1, config.num_heads, head_dim)
                    .transpose(1, 0, 2).astype(np.float64) for name in ("q", "k", "v")]

        self.q, self.k, self.v = heads(x)                  # [heads, L, head_dim]
        self.q_m, self.k_m, self.v_m = heads(x_masked)     # MASK at every position
        self.q *= scale
        self.q_m *= scale
        self.e_old = self.q @ np.swapaxes(self.k, 1, 2)    # scores, then their exp
        row_max = self.e_old.max(axis=-1, keepdims=True)
        self.e_old -= row_max
        np.exp(self.e_old, out=self.e_old)
        self.denom = self.e_old.sum(axis=-1)
        self.numer = self.e_old @ self.v
        self.e_new = self.q @ np.swapaxes(self.k_m, 1, 2)  # MASK-key scores, then exp
        self.e_new -= row_max
        self.overflow = self.e_new > _EXP_LIMIT
        np.minimum(self.e_new, _EXP_LIMIT, out=self.e_new)
        np.exp(self.e_new, out=self.e_new)

    def attention(self, idx: np.ndarray, valid: np.ndarray) -> np.ndarray:
        """Merged-head attention output as [variants * L, d] rows, variant
        b's L rows in position order, when variant b masks the positions
        idx[b, valid[b]]."""
        n_var = len(idx)
        n_heads, length, head_dim = self.q.shape
        weight = valid.astype(np.float64)
        old = self.e_old[:, :, idx] * weight             # [heads, L, variants, k]
        new = self.e_new[:, :, idx] * weight
        removed = old.sum(axis=-1)
        denom = self.denom[:, :, None] - removed + new.sum(axis=-1)
        numer = (self.numer[:, :, None, :]
                 - np.einsum("hlbk,hbkd->hlbd", old, self.v[:, idx])
                 + np.einsum("hlbk,hbkd->hlbd", new, self.v_m[:, idx]))
        exact = removed > 0.5 * self.denom[:, :, None]
        exact |= (self.overflow[:, :, idx] & valid).any(axis=-1)
        exact[:, idx, np.arange(n_var)[:, None]] = True  # masked queries
        # elsewhere denom >= denom_base / 2 >= 1/2: the row max term is 1
        out = np.divide(numer, denom[..., None], out=np.empty_like(numer),
                        where=~exact[..., None])         # [heads, L, variants, head_dim]
        heads, queries, variants = np.nonzero(exact)
        out[heads, queries, variants] = self._exact(heads, queries, idx[variants],
                                                     weight[variants])
        return out.transpose(2, 1, 0, 3).reshape(n_var * length, n_heads * head_dim)

    def _exact(self, heads: np.ndarray, queries: np.ndarray, masked: np.ndarray,
               weight: np.ndarray) -> np.ndarray:
        """Plain softmax attention for entry n: head heads[n], query
        queries[n], MASK at the key positions masked[n] (weight 0 marks a
        padding repeat)."""
        is_masked = (masked == queries[:, None]).any(axis=-1)
        q = np.where(is_masked[:, None], self.q_m[heads, queries], self.q[heads, queries])
        out = np.empty_like(q)
        for h in np.unique(heads):
            sel = heads == h
            qh, cols = q[sel], masked[sel]
            rows = np.arange(len(qh))[:, None]
            k_m, v_m = self.k_m[h][cols], self.v_m[h][cols]   # [n, k, head_dim]
            s = qh @ self.k[h].T
            s[rows, cols] = np.einsum("nd,nkd->nk", qh, k_m)
            p = np.exp(s - s.max(axis=-1, keepdims=True))
            p /= p.sum(axis=-1, keepdims=True)
            p_masked = p[rows, cols] * weight[sel]
            p[rows, cols] = 0.0
            out[sel] = p @ self.v[h] + np.einsum("nk,nkd->nd", p_masked, v_m)
        return out


def note_probabilities(model: Checkpoint | ModelParams, seq: PitchSequence,
                       whole_notes: bool = False) -> NoteProbabilities:
    """Successive masking: for each scoreable (non-REST) position, the
    softmax probability of the ground-truth pitch when only that position
    is masked. Results match one-at-a-time model.forward within float
    rounding.

    whole_notes masks every step of a sustained note together and averages
    within the note, scoring musical notes instead of grid steps.

    Every layer is model._packed_block, the layer forward runs, over the
    chunk's variants packed as [variants * L, d] rows with no PAD; the last
    one queries only the masked positions. The first layer's attention is
    computed once for the unmasked clip and corrected per variant (see
    _FirstLayer), and the block takes it as given. A clip's tokens must
    pass model.check_raw_row, as a training row's must. Variants run in
    chunks sized by _chunk_size, in one parallel.Section map per clip,
    which deals them to its threads: each chunk writes its own slice of
    the result, so the bits do not depend on the CPU count, and a clip
    that fits one chunk runs on the caller alone.
    Scoring reads the parameters' data only: it records no graph and
    leaves every .grad and requires_grad flag as it was.
    """
    params = _params_of(model)
    config = params.config
    tokens = np.asarray(seq.tokens, dtype=np.int64)
    clip_id = seq.source_id or "sequence"
    check_raw_row(config, tokens, clip_id)
    groups = _scoreable_positions(tokens, config.output_classes, whole_notes)
    if len(groups) < 2:
        raise NoScoreablePositions(f"{clip_id} has {len(groups)} scoreable positions; need >= 2")
    t = {name: nn.Tensor(p.data) for name, p in params.tensors.items()}
    x_base = _embed(t, tokens[None])
    x_masked = _embed(t, np.full((1, len(tokens)), config.mask_id))
    first = _FirstLayer(config, t, x_base, x_masked) if config.num_layers > 1 else None
    chunk = _chunk_size(config, len(tokens), x_base.data.itemsize)
    probs = np.empty(len(groups))

    def score_chunk(start: int) -> None:
        part = groups[start:start + chunk]
        width = max(len(g) for g in part)
        idx = np.stack([np.resize(g, width) for g in part])   # pad by repeating
        valid = np.arange(width) < np.array([len(g) for g in part])[:, None]
        rows = np.arange(len(part))[:, None]
        x = np.repeat(x_base.data, len(part), axis=0)
        x[rows, idx] = x_masked.data[0, idx]
        x = nn.Tensor(x.reshape(-1, config.hidden_dim))
        no_pad = np.zeros((len(part), len(tokens)), dtype=bool)
        for layer in range(config.num_layers):
            last = layer == config.num_layers - 1
            attn = (nn.Tensor(first.attention(idx, valid).astype(x.dtype))
                    if layer == 0 and first is not None else None)
            x = _packed_block(config, t, x, no_pad, rows * len(tokens) + idx if last else None,
                              attn)
        p = _softmax_rows(_head(t, x).data)
        p_true = np.take_along_axis(p, tokens[idx][..., None], axis=-1)[..., 0]
        probs[start:start + len(part)] = (p_true * valid).sum(axis=1) / valid.sum(axis=1)

    with parallel.Section() as section:
        section.map(score_chunk, range(0, len(groups), chunk))
    first_steps = np.array([int(g[0]) for g in groups])
    return NoteProbabilities(probabilities=probs, positions=first_steps)


def ai_probability(note_probs: NoteProbabilities) -> float:
    """Arithmetic mean of the per-note true-pitch probabilities."""
    if len(note_probs) == 0:
        raise NoScoreablePositions("no note probabilities to average")
    return float(np.mean(note_probs.probabilities))


def excerpt_score(seq: PitchSequence, note_probs: NoteProbabilities) -> ExcerptScore:
    return ExcerptScore(source_id=seq.source_id,
                        ai_probability=ai_probability(note_probs),
                        n_notes=len(note_probs))


def score_sequence(model: Checkpoint | ModelParams, seq: PitchSequence,
                   whole_notes: bool = False) -> ExcerptScore:
    return excerpt_score(seq, note_probabilities(model, seq, whole_notes))


def compute_auc(scores, labels) -> float:
    """Rank-sum AUC: P(random positive outscores random negative), ties
    counted half. labels are 1 for positive, 0 for negative."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError(f"scores {scores.shape} vs labels {labels.shape}")
    positive = labels == 1
    n_pos = int(positive.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise SingleClassOnly(f"need both classes, got {n_pos} positive / {n_neg} negative")
    _, tie_group, counts = np.unique(scores, return_inverse=True, return_counts=True)
    average_rank = np.cumsum(counts) - (counts - 1) / 2.0  # mean 1-based rank per tie group
    rank_sum = average_rank[tie_group][positive].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


GROUP_KEYS = ("style", "algorithm", "published")


@dataclass
class ManifestRow:
    path: str
    label: str
    groups: dict[str, str] = field(default_factory=dict)


@dataclass
class EvalReport:
    overall_auc: float
    group_aucs: dict[str, dict[str, float | None]]
    scores: list[tuple[ManifestRow, ExcerptScore]]
    errors: list[tuple[str, str]]

    @property
    def n_scored(self) -> int:
        return len(self.scores)

    @property
    def n_skipped(self) -> int:
        return len(self.errors)


def read_manifest(path: str | Path) -> list[ManifestRow]:
    """CSV with header path,label[,style,algorithm,published]; label must be
    human or ai. Relative paths resolve against the manifest's directory.
    A leading UTF-8 byte-order mark, as spreadsheets write, is skipped."""
    path = Path(path)
    base = path.parent
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ManifestMalformed(f"{path}: not UTF-8 text: {exc.reason}")
    reader = csv.DictReader(io.StringIO(text, newline=""))
    header = reader.fieldnames or []
    if "path" not in header or "label" not in header:
        raise ManifestMalformed(f"manifest needs path and label columns, got {header}")
    unknown = set(header) - {"path", "label", *GROUP_KEYS}
    if unknown:
        raise ManifestMalformed(f"unknown manifest columns: {sorted(unknown)}")
    rows: list[ManifestRow] = []
    for record in reader:
        line_no = reader.line_num  # the record's last physical line
        if None in record:  # DictReader files the fields beyond the header under None
            raise ManifestMalformed(f"line {line_no}: {len(header) + len(record[None])} "
                                    f"fields, header has {len(header)}")
        file_path = (record.get("path") or "").strip()
        label = (record.get("label") or "").strip()
        if not file_path or label not in ("human", "ai"):
            raise ManifestMalformed(
                f"line {line_no}: need a path and label human|ai, got {record}")
        resolved = file_path if Path(file_path).is_absolute() else str(base / file_path)
        groups = {k: (record.get(k) or "").strip() for k in GROUP_KEYS}
        rows.append(ManifestRow(path=resolved, label=label,
                                groups={k: v for k, v in groups.items() if v}))
    if not rows:
        raise ManifestMalformed("manifest has no data rows")
    return rows


def _group_aucs(scored: list[tuple[ManifestRow, ExcerptScore]]) -> dict[str, dict[str, float | None]]:
    """Within-group AUCs: each value of a group key is scored only against
    rows carrying that same value. None marks a single-class group."""
    out: dict[str, dict[str, float | None]] = {}
    for key in GROUP_KEYS:
        values = sorted({row.groups[key] for row, _ in scored if row.groups.get(key)})
        if not values:
            continue
        per_value: dict[str, float | None] = {}
        for value in values:
            subset = [(row, sc) for row, sc in scored if row.groups.get(key) == value]
            detection = [sc.human_probability for _, sc in subset]
            labels = [1 if row.label == "human" else 0 for row, _ in subset]
            try:
                per_value[value] = compute_auc(detection, labels)
            except SingleClassOnly:
                per_value[value] = None
        out[key] = per_value
    return out


def evaluate_manifest(model: Checkpoint | ModelParams, manifest: str | Path | list[ManifestRow],
                      scorer=None, whole_notes: bool = False) -> EvalReport:
    """Score every manifest row through the full pipeline and aggregate
    AUCs with the human label as the positive class and 1 - p as the
    detection score. Rows that fail preprocessing are collected, counted,
    and excluded from every AUC.

    scorer(path) -> PitchSequence may be injected; the default parses the
    file as a Standard MIDI File (see pipeline.sequence_from_midi_path).
    """
    if scorer is None:
        from .pipeline import sequence_from_midi_path
        scorer = sequence_from_midi_path
    rows = manifest if isinstance(manifest, list) else read_manifest(manifest)
    scored: list[tuple[ManifestRow, ExcerptScore]] = []
    errors: list[tuple[str, str]] = []
    for row in rows:
        try:
            seq = scorer(row.path)
            scored.append((row, score_sequence(model, seq, whole_notes)))
        except (PsaeError, OSError) as exc:
            errors.append((row.path, f"{type(exc).__name__}: {exc}"))
    if not scored:
        raise ManifestMalformed("every manifest row failed preprocessing")
    detection = [sc.human_probability for _, sc in scored]
    labels = [1 if row.label == "human" else 0 for row, _ in scored]
    overall = compute_auc(detection, labels)
    return EvalReport(overall_auc=overall, group_aucs=_group_aucs(scored),
                      scores=scored, errors=errors)
