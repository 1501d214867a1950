"""Seeded benchmark inputs: Markov melodies, MIDI files, corpora, manifests.

Everything here is a pure function of the workload seed, so the same seed
always gives byte-identical inputs. Melodies come from a second-order
Markov chain over pitches; MIDI bytes are written with ``psae.write_smf``.
Planted malformed files carry the name of the ``PsaeError`` subclass the
pipeline must reject them with.
"""

from __future__ import annotations

import bisect
import struct
from dataclasses import dataclass

import numpy as np

TPQ = 480
SIXTEENTH = TPQ // 4
THIRTY_SECOND = TPQ // 8
TRIPLET = TPQ // 3          # eighth-note triplet: three fill one quarter
BAR_SIXTEENTHS = 16


class MarkovMelody:
    """Second-order Markov chain over the pitches [low, high).

    Each pitch pair has `branching` successors with Dirichlet weights, so
    melodies are predictable enough to learn but not periodic.
    """

    def __init__(self, seed: int, low: int = 48, high: int = 84, branching: int = 4):
        rng = np.random.default_rng([seed, 0x6d61726b])
        span = high - low
        self.low, self.high = low, high
        self._next = rng.integers(low, high, size=(span, span, branching)).tolist()
        probs = rng.dirichlet(np.full(branching, 0.5), size=(span, span))
        self._cum = np.cumsum(probs, axis=-1).tolist()

    def pitches(self, rng: np.random.Generator, count: int) -> list[int]:
        out = [int(p) for p in rng.integers(self.low, self.high, size=2)]
        for u in rng.random(max(0, count - 2)).tolist():
            a, b = out[-2] - self.low, out[-1] - self.low
            k = min(bisect.bisect_right(self._cum[a][b], u), len(self._cum[a][b]) - 1)
            out.append(self._next[a][b][k])
        return out[:count]


def rhythm(rng: np.random.Generator, total: int, choices=(1, 2, 2, 4)) -> list[int]:
    """Durations in grid steps that sum to exactly `total`."""
    out: list[int] = []
    left = total
    for i in rng.integers(0, len(choices), size=total).tolist():
        if left <= 0:
            break
        d = min(choices[i], left)
        out.append(d)
        left -= d
    return out


def step_tokens(pitches: list[int], durations: list[int]) -> np.ndarray:
    """One token per grid step: each pitch held for its duration."""
    return np.repeat(np.asarray(pitches, dtype=np.int16), durations)


def _notes(psae, onsets_durations_pitches, velocity: int = 80):
    return [psae.NoteEvent(on, dur, pitch, velocity) for on, dur, pitch in onsets_durations_pitches]


def legato_notes(psae, pitches: list[int], durations: list[int], ticks_per_step: int):
    tick = 0
    triples = []
    for pitch, d in zip(pitches, durations):
        triples.append((tick, d * ticks_per_step, pitch))
        tick += d * ticks_per_step
    return _notes(psae, triples)


@dataclass(frozen=True)
class PrepFile:
    name: str
    data: bytes
    grid: str               # "16th" or "32nd" for valid files
    expected_error: str | None = None


def prep_file(psae, melody: MarkovMelody, rng: np.random.Generator, index: int) -> PrepFile:
    """One valid 8-bar clip. The index picks the grid, SMF format, tempo
    map, triplet groups and track layout, so a corpus mixes all of them."""
    thirty_second = index % 4 == 3
    steps_per_bar = 32 if thirty_second else BAR_SIXTEENTHS
    ticks_per_step = THIRTY_SECOND if thirty_second else SIXTEENTH
    n_bars = 8
    triplet_bars = set()
    if index % 5 == 1:
        triplet_bars = {int(b) for b in rng.choice(n_bars, size=2, replace=False)}
    # note durations in ticks for the whole clip, then pitches for all at once
    plan: list[int] = []
    for bar in range(n_bars):
        rest = steps_per_bar
        if bar in triplet_bars:
            plan += [TRIPLET] * 3
            rest -= TPQ // ticks_per_step
        durations = rhythm(rng, rest, (1, 2, 4, 4) if thirty_second else (1, 2, 2, 4))
        if thirty_second and 1 not in durations:
            durations[0:1] = [1, durations[0] - 1] if durations[0] > 1 else [1]
        plan += [d * ticks_per_step for d in durations]
    triples = []
    tick = 0
    for dur, p in zip(plan, melody.pitches(rng, len(plan))):
        triples.append((tick, dur, p))
        tick += dur
    notes = _notes(psae, triples)
    tracks = [notes]
    fmt = 1 if index % 2 else 0
    if fmt == 1 and index % 6 == 1:
        # second melodic track: the pipeline warns and keeps the first
        tracks.append(_notes(psae, [(0, TPQ, 60), (TPQ, TPQ, 62)]))
    tempo = [(0, 500_000)]
    if index % 3 == 0:
        tempo.append((4 * TPQ * 4, 400_000))
    data = psae.write_smf(psae.MidiFile(format=fmt, ticks_per_quarter=TPQ,
                                        tracks=tracks, tempo_events=tempo))
    return PrepFile(f"clip{index:05d}.mid", data, "32nd" if thirty_second else "16th")


def planted_files(psae, melody: MarkovMelody, rng: np.random.Generator) -> list[PrepFile]:
    """Malformed or unusable MIDI files, each with the PsaeError subclass
    that must reject it."""
    good = psae.write_smf(psae.MidiFile(0, TPQ, [legato_notes(
        psae, melody.pitches(rng, 32), [4] * 32, SIXTEENTH)]))

    def smf(tracks, fmt=0):
        return psae.write_smf(psae.MidiFile(fmt, TPQ, tracks))

    dangling = (b"MThd" + struct.pack(">IHHH", 6, 0, 1, TPQ)
                + b"MTrk" + struct.pack(">I", 8) + b"\x00\x90\x3c\x40\x00\xff\x2f\x00")
    overlap = _notes(psae, [(0, 480, 60), (240, 480, 64)])
    too_short = _notes(psae, [(0, 480, 60), (480, 20, 62), (500, 460, 64)])
    too_long = legato_notes(psae, melody.pitches(rng, 100), [4] * 100, SIXTEENTH)
    cases = [
        ("MalformedHeader", b"RIFF" + bytes(40)),
        ("TruncatedChunk", good[: len(good) // 2]),
        ("UnsupportedFormat", b"MThd" + struct.pack(">IHHH", 6, 2, 1, TPQ) + good[14:]),
        ("UnmatchedNoteOn", dangling),
        ("PolyphonyDetected", smf([overlap])),
        ("NoteTooShort", smf([too_short])),
        ("SequenceTooLong", smf([too_long])),
    ]
    return [PrepFile(f"planted{i:02d}_{err}.mid", data, "", err)
            for i, (err, data) in enumerate(cases)]


def prep_corpus(psae, seed: int, n_valid: int) -> list[PrepFile]:
    melody = MarkovMelody(seed)
    rng = np.random.default_rng([seed, 1])
    files = [prep_file(psae, melody, rng, i) for i in range(n_valid)]
    return files + planted_files(psae, melody, rng)


def melody_sequence(psae, melody: MarkovMelody, rng: np.random.Generator, length: int,
                    grid: str = "16th", source_id: str = ""):
    """A rest-free PitchSequence of exactly `length` grid steps."""
    durations = rhythm(rng, length)
    tokens = step_tokens(melody.pitches(rng, len(durations)), durations)
    return psae.PitchSequence(tokens=tokens, grid=psae.GridUnit(grid), source_id=source_id)


def train_corpus(psae, seed: int, n_melodies: int):
    """Augmented corpus of 8-bar 16th-grid melodies: 31 variants each, 16
    of them prefix-truncated, so batches carry PAD."""
    melody = MarkovMelody(seed)
    rng = np.random.default_rng([seed, 2])
    policy = psae.AugmentPolicy(seed=seed)
    rows = []
    for i in range(n_melodies):
        seq = melody_sequence(psae, melody, rng, 8 * BAR_SIXTEENTHS, source_id=f"mel{i:04d}")
        rows.extend(psae.expand_sequence(seq, policy))
    return rows


@dataclass(frozen=True)
class ScoreClip:
    name: str
    data: bytes
    length: int             # grid steps; 0 for planted files
    label: str
    groups: dict
    expected_error: str | None = None


# L = 128 clips are spread through the pass, so their median samples its
# whole duration rather than one stretch of it
SCORE_LENGTHS = (128, 256, 128, 128, 384, 128, 256, 128, 128)
STYLES = ("baroque", "folk", "jazz")
ALGORITHMS = ("markov", "rnn", "transformer")


def score_clips(psae, seed: int, lengths=SCORE_LENGTHS) -> list[ScoreClip]:
    """Rest-free clips at the given lengths (32nd grid for 256, so both
    grids are scored), then planted files the eval must skip."""
    melody = MarkovMelody(seed)
    rng = np.random.default_rng([seed, 3])
    clips = []
    for i, length in enumerate(lengths):
        grid_32nd = length == 256
        ticks = THIRTY_SECOND if grid_32nd else SIXTEENTH
        durations = rhythm(rng, length, (1, 2, 4) if grid_32nd else (1, 2, 2, 4))
        if grid_32nd and 1 not in durations:
            durations[0:1] = [1, durations[0] - 1] if durations[0] > 1 else [1]
        notes = legato_notes(psae, melody.pitches(rng, len(durations)), durations, ticks)
        data = psae.write_smf(psae.MidiFile(i % 2, TPQ, [notes], [(0, 500_000)]))
        groups = {"style": STYLES[i % 3], "algorithm": ALGORITHMS[(i // 2) % 3],
                  "published": "yes" if i % 4 < 2 else "no"}
        clips.append(ScoreClip(f"clip{i:03d}_L{length}.mid", data, length,
                               "human" if i % 2 else "ai", groups))
    planted = [p for p in planted_files(psae, melody, rng)
               if p.expected_error in ("TruncatedChunk", "PolyphonyDetected", "SequenceTooLong")]
    for j, p in enumerate(planted):
        clips.append(ScoreClip(p.name, p.data, 0, "human" if j % 2 else "ai",
                               {"style": "folk", "algorithm": "markov", "published": "no"},
                               p.expected_error))
    return clips


def manifest_csv(clips: list[ScoreClip]) -> str:
    lines = ["path,label,style,algorithm,published"]
    for c in clips:
        g = c.groups
        lines.append(f"{c.name},{c.label},{g['style']},{g['algorithm']},{g['published']}")
    return "\n".join(lines) + "\n"
