"""Fixed-grid pitch sequences from monophonic note lists.

A clip becomes one token per grid step: the MIDI pitch sounding at the
step's midpoint, or REST when silent. The grid unit (sixteenth vs
thirty-second) follows the shortest note; triplet groups are first
rewritten as straight eighths or straight sixteenths with equal
probability, so sequence length can change. Tempo never enters: the grid
lives in ticks. Time signature is fixed at 4/4 (an 8-bar clip is exactly
128 sixteenth steps or 256 thirty-second steps).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import PsaeError
from .midi_ingest import NoteEvent

PITCH_CLASSES = 128
REST_ID = 128
MAX_SEQ_LEN = 384

# Onset/duration matching absorbs encoder rounding up to 1/16 of a grid step.
SNAP_TOLERANCE = 1.0 / 16.0


class NoteTooShort(PsaeError):
    pass


class SequenceTooLong(PsaeError):
    pass


class EmptySequence(PsaeError):
    pass


class GridUnit(enum.Enum):
    SIXTEENTH = "16th"
    THIRTY_SECOND = "32nd"

    @property
    def steps_per_quarter(self) -> int:
        return 4 if self is GridUnit.SIXTEENTH else 8

    def ticks_per_step(self, ticks_per_quarter: int) -> float:
        return ticks_per_quarter / self.steps_per_quarter


def checked_tokens(tokens) -> np.ndarray:
    """tokens as a 1-D int16 array of 1..MAX_SEQ_LEN pitch ids and RESTs,
    or ValueError."""
    # Checked before the int16 cast, which would wrap 65596 to 60 and
    # truncate 60.7 to 60 without a word.
    tokens = np.asarray(tokens)
    if tokens.ndim != 1 or not 1 <= len(tokens) <= MAX_SEQ_LEN:
        raise ValueError(f"token count {tokens.shape} outside 1..{MAX_SEQ_LEN}")
    if tokens.dtype.kind not in "biuf" or (tokens.dtype.kind == "f"
                                          and not (tokens == np.round(tokens)).all()):
        raise ValueError(f"tokens must be integers, got {tokens.dtype} values")
    if tokens.min() < 0 or tokens.max() > REST_ID:
        raise ValueError("tokens must be pitch ids in [0, 127] or REST")
    return tokens.astype(np.int16, copy=False)


@dataclass(eq=False)
class PitchSequence:
    """Grid-quantized token sequence for one clip.

    tokens holds pitch ids 0..127 and REST (128); MASK/PAD only ever appear
    in model inputs, never here.
    """

    tokens: np.ndarray
    grid: GridUnit
    source_id: str = ""

    def __post_init__(self):
        self.tokens = checked_tokens(self.tokens)

    @classmethod
    def _unchecked(cls, tokens: np.ndarray, grid: GridUnit, source_id: str) -> "PitchSequence":
        """A sequence over tokens that are already 1-D int16 pitch ids and
        RESTs of a valid length: the checks of __post_init__ are skipped."""
        seq = object.__new__(cls)
        seq.tokens, seq.grid, seq.source_id = tokens, grid, source_id
        return seq

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def pitch_tokens(self) -> np.ndarray:
        return self.tokens[self.tokens < PITCH_CLASSES]


def detect_grid_unit(notes: list[NoteEvent], ticks_per_quarter: int) -> GridUnit:
    """Sixteenth grid when no note is shorter than a sixteenth; otherwise
    thirty-second. A note below the thirty-second floor (triplets already
    resolved) raises NoteTooShort."""
    if not notes:
        raise EmptySequence("no notes to inspect")
    shortest = min(n.duration_tick for n in notes)
    sixteenth = ticks_per_quarter / 4.0
    thirty_second = ticks_per_quarter / 8.0
    if shortest < thirty_second * (1.0 - SNAP_TOLERANCE):
        raise NoteTooShort(
            f"duration {shortest} ticks is below a thirty-second note "
            f"({thirty_second:g} ticks at {ticks_per_quarter} tpq)")
    if shortest >= sixteenth * (1.0 - SNAP_TOLERANCE):
        return GridUnit.SIXTEENTH
    return GridUnit.THIRTY_SECOND


def _is_triplet_duration(duration: int, ticks_per_quarter: int) -> bool:
    # eighth-note triplet (1/3 beat) or sixteenth-note triplet (1/6 beat)
    tol = ticks_per_quarter / 64.0
    return (abs(duration - ticks_per_quarter / 3.0) <= tol
            or abs(duration - ticks_per_quarter / 6.0) <= tol)


def resolve_triplets(notes: list[NoteEvent], rng: np.random.Generator,
                     ticks_per_quarter: int) -> list[NoteEvent]:
    """Rewrite each contiguous group of three equal triplet-length notes as
    three straight eighths or three straight sixteenths, each with
    probability 1/2. Later onsets shift by the group's length change, so
    the clip's total tick length may change. Triplet-free input passes
    through unchanged."""
    if not any(_is_triplet_duration(n.duration_tick, ticks_per_quarter) for n in notes):
        return notes   # no group, so no draw and no shift
    tol = ticks_per_quarter / 64.0
    out: list[NoteEvent] = []
    shift = 0
    i = 0
    while i < len(notes):
        group = notes[i:i + 3]
        is_group = (
            len(group) == 3
            and all(_is_triplet_duration(n.duration_tick, ticks_per_quarter) for n in group)
            and max(abs(a.duration_tick - b.duration_tick)
                    for a in group for b in group) <= tol
            and all(abs(group[j].end_tick - group[j + 1].onset_tick) <= tol
                    for j in range(2))
        )
        if not is_group:
            n = notes[i]
            out.append(NoteEvent(n.onset_tick + shift, n.duration_tick, n.pitch, n.velocity))
            i += 1
            continue
        new_dur = round(ticks_per_quarter / 2) if rng.random() < 0.5 else round(ticks_per_quarter / 4)
        start = group[0].onset_tick + shift
        for j, n in enumerate(group):
            out.append(NoteEvent(start + j * new_dur, new_dur, n.pitch, n.velocity))
        old_span = group[2].end_tick - group[0].onset_tick
        shift += 3 * new_dur - old_span
        i += 3
    return out


def quantize_to_pitch_sequence(notes: list[NoteEvent], grid: GridUnit,
                               ticks_per_quarter: int, source_id: str = "") -> PitchSequence:
    """Monophonic notes (triplets already resolved) -> one token per grid
    step from tick zero to the snapped end of the last note."""
    if not notes:
        raise EmptySequence("cannot quantize an empty clip")
    step = grid.ticks_per_step(ticks_per_quarter)
    n_steps = 0
    spans: list[tuple[int, int, int]] = []
    for note in notes:
        s0 = round(note.onset_tick / step)
        s1 = round(note.end_tick / step)
        if s1 <= s0:
            s1 = s0 + 1
        spans.append((s0, s1, note.pitch))
        n_steps = max(n_steps, s1)
    if n_steps > MAX_SEQ_LEN:
        raise SequenceTooLong(f"{n_steps} grid steps exceeds the {MAX_SEQ_LEN}-step limit")
    tokens = np.full(n_steps, REST_ID, dtype=np.int16)
    for s0, s1, pitch in spans:
        tokens[s0:s1] = pitch
    return PitchSequence(tokens=tokens, grid=grid, source_id=source_id)
