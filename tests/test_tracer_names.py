"""The benchmark's per-layer tracer (perfbench/layers.py) wraps psae's
functions by name. Installing it here fails as soon as a name it wraps is
gone from psae, which otherwise only a traced benchmark run
(``python3 perfbench/run.py --trace 1``) would show. The benchmark's
modules are imported as its own tests import them, and not modified."""

from __future__ import annotations

import sys
from pathlib import Path

import psae
import psae.cli  # noqa: F401  (the tracer wraps cli's names too)

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path[:0] = [str(BENCH)]

import layers  # noqa: E402
from spans import Recorder  # noqa: E402

OWNERS = ("cli", "model", "scoring", "pipeline", "corpus", "nn")


def test_tracer_installs_on_psae_and_restores_every_name():
    owners = [getattr(psae, name) for name in OWNERS] + [psae.nn.Tensor, psae.nn.AdamW]
    before = [dict(vars(owner)) for owner in owners]
    tracer = layers.Tracer(psae, Recorder())
    try:
        tracer.install()
        wrapped = [op for op in layers.NN_OPS if getattr(psae.nn, op) is not before[-3][op]]
    finally:
        tracer.restore()
    assert wrapped == list(layers.NN_OPS)
    for owner, saved in zip(owners, before):
        changed = [name for name, value in vars(owner).items() if saved.get(name) is not value]
        assert changed == [], f"{owner.__name__}: {changed} not restored"


def test_traced_augment_runs_in_process_and_counts_every_row(tmp_path, monkeypatch):
    # Counters recorded in a worker process would be lost, so a traced
    # augment keeps every file in this process even with two workers.
    monkeypatch.setattr(psae.parallel, "worker_count", lambda: 2)
    tok = tmp_path / "tok"
    tok.mkdir()
    melody = " ".join(str(60 + i % 12) for i in range(150))
    for i in range(3):
        (tok / f"s{i}.tokens").write_text(f"s{i}\t16th\t{melody}\n", encoding="utf-8")
    recorder = Recorder()
    tracer = layers.Tracer(psae, recorder)
    try:
        tracer.install()
        assert psae.cli.main(["augment", "--in", str(tok), "--out", str(tmp_path / "aug"),
                              "--seed", "0"]) == 0
    finally:
        tracer.restore()
    assert recorder.counters["augment.rows_out"] == 31 * 3
