"""Corpus expansion: pitch transposition and random head-truncation.

Each source sequence fans out into a fixed number of transposed variants
(uniform over the legal semitone shifts, identity always kept); a subset
of those variants additionally loses a random-length token prefix, which
destroys absolute-position cues. Expansion is deterministic: every
sequence draws from its own generator seeded by (policy seed, source id),
so worker scheduling can never reorder randomness.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import PsaeError
from .quantize import PITCH_CLASSES, PitchSequence, checked_tokens


class NoPitchTokens(PsaeError):
    pass


class IllegalShift(PsaeError):
    pass


class TruncationTooLarge(PsaeError):
    pass


class AugmentError(PsaeError):
    """Per-sequence failure inside expand_corpus, tagged with the source id."""

    def __init__(self, source_id: str, cause: Exception):
        super().__init__(f"{source_id}: {cause}")
        self.source_id = source_id
        self.cause = cause


@dataclass(frozen=True)
class AugmentPolicy:
    transpositions_per_seq: int = 31
    truncated_per_seq: int = 16
    truncation_min: int = 1
    truncation_max: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.transpositions_per_seq < 1:
            raise ValueError("transpositions_per_seq must be >= 1")
        if not 0 <= self.truncated_per_seq <= self.transpositions_per_seq:
            raise ValueError("truncated_per_seq must be in [0, transpositions_per_seq]")
        if not 1 <= self.truncation_min <= self.truncation_max:
            raise ValueError("need 1 <= truncation_min <= truncation_max")


def derive_seed(seed: int, source_id: str) -> int:
    """Stable 64-bit sub-seed for one sequence; independent of iteration order."""
    digest = hashlib.sha256(f"{seed}\x00{source_id}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def legal_shifts(seq: PitchSequence) -> np.ndarray:
    """Every semitone shift keeping all pitches inside [0, 127], ascending.

    Count is 128 - (highest - lowest); zero is always included.
    """
    pitches = seq.pitch_tokens
    if pitches.size == 0:
        raise NoPitchTokens(f"{seq.source_id or 'sequence'} has no pitch tokens")
    lowest = int(pitches.min())
    highest = int(pitches.max())
    return np.arange(-lowest, PITCH_CLASSES - highest, dtype=np.int64)


def formula_shift_count(seq: PitchSequence) -> int:
    """Closed-form count 128 - highest + lowest + 1. Kept as a diagnostic:
    it exceeds len(legal_shifts) by one, counting a placement that would
    push a boundary pitch out of range."""
    pitches = seq.pitch_tokens
    if pitches.size == 0:
        raise NoPitchTokens(f"{seq.source_id or 'sequence'} has no pitch tokens")
    return PITCH_CLASSES - int(pitches.max()) + int(pitches.min()) + 1


def transpose(seq: PitchSequence, shift: int) -> PitchSequence:
    """Shift every pitch token by `shift` semitones; RESTs and length
    unchanged. The shift must be legal for this sequence."""
    shifts = legal_shifts(seq)
    if shift < shifts[0] or shift > shifts[-1]:
        raise IllegalShift(f"shift {shift} would leave the MIDI range for {seq.source_id!r}")
    tokens = seq.tokens.copy()
    is_pitch = tokens < PITCH_CLASSES
    tokens[is_pitch] += np.int16(shift)
    return PitchSequence(tokens=tokens, grid=seq.grid,
                         source_id=f"{seq.source_id}#t{shift:+d}")


def random_truncate(seq: PitchSequence, k: int) -> PitchSequence:
    """Drop the first k tokens (1 <= k < length)."""
    if not 1 <= k < len(seq):
        raise TruncationTooLarge(f"cannot drop {k} of {len(seq)} tokens")
    return PitchSequence(tokens=seq.tokens[k:].copy(), grid=seq.grid,
                         source_id=f"{seq.source_id}#k{k}")


@dataclass(frozen=True)
class AugmentedVariant:
    """One emitted sequence plus how it was derived from its source."""

    sequence: PitchSequence
    source_id: str
    shift: int
    truncation: int | None = None


def _pick_shifts(shifts: np.ndarray, count: int, rng: np.random.Generator) -> list[int]:
    """`count` shifts, uniform, zero always retained; without replacement
    while the pool allows, with replacement otherwise."""
    nonzero = shifts[shifts != 0]
    if len(nonzero) >= count - 1:
        extra = rng.choice(nonzero, size=count - 1, replace=False)
    else:
        extra = rng.choice(shifts, size=count - 1, replace=True)
    return sorted(int(s) for s in np.concatenate(([0], extra)))


def expand_sequence_detailed(seq: PitchSequence, policy: AugmentPolicy) -> list[AugmentedVariant]:
    """All variants of one source sequence under the policy, with
    provenance (deterministic for a given policy seed)."""
    rng = np.random.default_rng(derive_seed(policy.seed, seq.source_id))
    shifts = _pick_shifts(legal_shifts(seq), policy.transpositions_per_seq, rng)
    names = [f"{seq.source_id}#t{s:+d}" for s in shifts]
    cuts = [None] * len(shifts)
    if policy.truncated_per_seq:
        chosen = np.sort(rng.choice(len(shifts), policy.truncated_per_seq, replace=False)).tolist()
        if len(seq) < 2:
            raise TruncationTooLarge(f"{names[chosen[0]]!r} too short to truncate")
        # short sequences keep k inside [1, len - 1] so they stay non-empty
        hi = min(policy.truncation_max, len(seq) - 1)
        lo = policy.truncation_min if len(seq) > policy.truncation_max else 1
        # scalar draws in index order: array bounds would consume the stream differently
        for i in chosen:
            cuts[i] = int(rng.integers(lo, hi + 1))
    # The source's ids are checked here, once: they stay writable after it
    # was made. A legal shift keeps every pitch in range and 1 <= k < len
    # keeps every row's length valid, so no variant is checked again.
    tokens = checked_tokens(seq.tokens)
    # one int16 row per shift, RESTs left in place; each variant views its own row
    block = tokens + np.where(tokens < PITCH_CLASSES, np.array(shifts, dtype=np.int16)[:, None], 0)
    return [AugmentedVariant(PitchSequence._unchecked(row[k:], seq.grid,
                                                      name if k is None else f"{name}#k{k}"),
                             seq.source_id, shift, k)
            for row, shift, name, k in zip(block, shifts, names, cuts)]


def expand_sequence(seq: PitchSequence, policy: AugmentPolicy) -> list[PitchSequence]:
    return [v.sequence for v in expand_sequence_detailed(seq, policy)]


def expand_corpus(corpus: list[PitchSequence], policy: AugmentPolicy) -> list[PitchSequence]:
    """Expand every sequence; output size = len(corpus) *
    policy.transpositions_per_seq. Per-sequence failures carry the source id."""
    out: list[PitchSequence] = []
    for seq in corpus:
        try:
            out.extend(expand_sequence(seq, policy))
        except PsaeError as exc:
            raise AugmentError(seq.source_id, exc) from exc
    return out
