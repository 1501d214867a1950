"""Shared test utilities: finite-difference gradients, fixture MIDI
construction, synthetic melody generators, and reruns of named tests in
another environment."""

from __future__ import annotations

import os
import struct
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np

from psae import nn, parallel
from psae.midi_ingest import MidiFile, NoteEvent, write_smf

REL_ERR_FLOOR = 1e-4  # keeps finite-difference roundoff out of relative errors


def concurrent_here() -> bool:
    """True where an untraced Section.map overlaps its lanes."""
    return parallel.worker_count() > 1 and parallel.find_openblas() is not None


def rerun_tests(env: dict[str, str], *test_ids: str) -> subprocess.CompletedProcess:
    """Run the named tests (pytest ids relative to the repository root) in
    a new interpreter whose environment adds env, and return the finished
    process, its output captured as text."""
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           *test_ids], cwd=root, env={**os.environ, **env, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=600)


def rel_err(a: float, b: float, floor: float = REL_ERR_FLOOR) -> float:
    return abs(a - b) / max(abs(a), abs(b), floor)


def max_fd_rel_err(loss_fn, tensors: dict[str, nn.Tensor], eps: float = 1e-5,
                   sample: int | None = None, seed: int = 0) -> float:
    """Central finite differences against recorded analytic gradients.

    loss_fn() -> nn.Tensor re-runs the forward pass on the live tensors.
    Call after backward() has populated .grad. Checks every element unless
    `sample` caps the per-tensor count.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for t in tensors.values():
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gflat = grad.reshape(-1)
        if sample is not None and flat.size > sample:
            indices = rng.choice(flat.size, size=sample, replace=False)
        else:
            indices = range(flat.size)
        for i in indices:
            original = flat[i]
            flat[i] = original + eps
            up = loss_fn().item()
            flat[i] = original - eps
            down = loss_fn().item()
            flat[i] = original
            fd = (up - down) / (2.0 * eps)
            worst = max(worst, rel_err(fd, float(gflat[i])))
    return worst


def resealed(blob: bytes, old: bytes, new: bytes) -> bytes:
    """Checkpoint bytes with one byte run replaced and the trailing CRC-32
    recomputed, so only the structure checks can reject them."""
    assert blob.count(old) == 1
    body = blob[:-4].replace(old, new)
    return body + struct.pack("<I", zlib.crc32(body))


def notes(*triples: tuple[int, int, int], velocity: int = 64) -> list[NoteEvent]:
    """(onset, duration, pitch) triples -> NoteEvents."""
    return [NoteEvent(on, dur, pitch, velocity) for on, dur, pitch in triples]


def smf_bytes(note_list: list[NoteEvent], tpq: int = 480, fmt: int = 0,
              tempo_events: list[tuple[int, int]] | None = None,
              extra_tracks: list[list[NoteEvent]] | None = None) -> bytes:
    tracks = [note_list] + list(extra_tracks or [])
    return write_smf(MidiFile(format=fmt, ticks_per_quarter=tpq, tracks=tracks,
                              tempo_events=tempo_events or []))


def eight_bar_notes(tpq: int = 480, pitch: int = 60, step_quarters: float = 1.0) -> list[NoteEvent]:
    """Exactly 8 bars of 4/4 filled with equal notes of the given length."""
    ticks = int(tpq * step_quarters)
    total = tpq * 4 * 8
    return [NoteEvent(t, ticks, pitch + (i % 12), 64)
            for i, t in enumerate(range(0, total, ticks))]


class MarkovMelody:
    """Seeded second-order Markov melody generator over a pitch alphabet."""

    def __init__(self, seed: int, low: int = 48, high: int = 85, branching: int = 4):
        self.low, self.high = low, high
        rng = np.random.default_rng(seed)
        span = high - low
        self.nxt = rng.integers(low, high, size=(span, span, branching))
        self.probs = rng.dirichlet(np.ones(branching) * 0.5, size=(span, span))

    def sequence(self, rng: np.random.Generator, length: int = 128) -> np.ndarray:
        out = [int(rng.integers(self.low, self.high)),
               int(rng.integers(self.low, self.high))]
        for _ in range(length - 2):
            i, j = out[-2] - self.low, out[-1] - self.low
            out.append(int(rng.choice(self.nxt[i, j], p=self.probs[i, j])))
        return np.array(out, dtype=np.int16)

    def uniform_random(self, rng: np.random.Generator, length: int = 128) -> np.ndarray:
        return rng.integers(self.low, self.high, size=length).astype(np.int16)
