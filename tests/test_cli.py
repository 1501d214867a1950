"""Command-line pipeline: formats, determinism, precedence, exit codes."""

import argparse
import hashlib
import importlib.util
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import psae
from psae import cli, model, nn, parallel
from psae.augment import random_truncate, transpose
from psae.checkpoint import load_checkpoint
from psae.cli import main, parse_report_kv, render_report_kv, render_report_text
from psae.corpus import (CorpusFormatError, format_corpus, format_sequence,
                         parse_sequence_line, read_corpus_dir, read_corpus_file)
from psae.pipeline import sequence_from_midi_path
from psae.quantize import REST_ID, GridUnit, PitchSequence
from psae.scoring import EvalReport, ManifestRow, evaluate_manifest
from helpers import notes, resealed, smf_bytes


def write_midi_corpus(directory, count=4, tpq=480):
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(99)
    for i in range(count):
        tick = 0
        note_list = []
        for _ in range(16):
            duration = int(rng.choice([240, 480]))
            note_list.append((tick, duration, int(rng.integers(50, 80))))
            tick += duration
        (directory / f"clip{i:03d}.mid").write_bytes(smf_bytes(notes(*note_list), tpq=tpq))


SMALL_MODEL = {"vocab_size": 131, "embed_dim": 16, "hidden_dim": 16, "num_layers": 2,
               "num_heads": 2, "ffn_dim": 32, "max_position": 384, "output_classes": 128}


def run_small_pipeline(tmp_path, epochs=2):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir)
    assert main(["preprocess", "--in", str(midi_dir), "--out", str(tmp_path / "tok"),
                 "--seed", "1"]) == 0
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": SMALL_MODEL}), encoding="utf-8")
    assert main(["train", "--corpus", str(tmp_path / "tok"), "--config", str(config),
                 "--out", str(tmp_path / "model.psae"), "--epochs", str(epochs),
                 "--seed", "3"]) == 0
    return tmp_path / "model.psae", midi_dir


# ------------------------------------------------------------ corpus file

def test_sequence_line_round_trip():
    seq = PitchSequence(tokens=np.array([60, 128, 64], dtype=np.int16),
                        grid=GridUnit.THIRTY_SECOND, source_id="clip#t+3")
    parsed = parse_sequence_line(format_sequence(seq))
    assert parsed.source_id == seq.source_id
    assert parsed.grid is seq.grid
    assert (parsed.tokens == seq.tokens).all()


def test_corpus_parse_errors():
    with pytest.raises(CorpusFormatError):
        parse_sequence_line("only_two\tfields")
    with pytest.raises(CorpusFormatError):
        parse_sequence_line("id\tbadgrid\t60 61")
    with pytest.raises(CorpusFormatError):
        parse_sequence_line("id\t16th\t60 sixty")
    with pytest.raises(CorpusFormatError):
        parse_sequence_line("a\t16th\t60 99999")



def test_format_sequence_writes_every_id_as_decimal():
    ids = np.arange(129, dtype=np.int16)
    seq = PitchSequence(tokens=ids, grid=GridUnit.SIXTEENTH, source_id="all")
    assert format_sequence(seq) == "all\t16th\t" + " ".join(str(i) for i in range(129))


@pytest.mark.parametrize("bad", [-1, 129, 300])
def test_format_sequence_rejects_out_of_range_token(bad):
    seq = PitchSequence(tokens=np.array([60, 61, 62], dtype=np.int16),
                        grid=GridUnit.SIXTEENTH, source_id="mutated#t+2")
    seq.tokens[1] = bad   # tokens stay writable after validation
    with pytest.raises(CorpusFormatError, match=rf"'mutated#t\+2'.*{bad}"):
        format_sequence(seq)


def reference_line(seq):
    return f"{seq.source_id}\t{seq.grid.value}\t" + " ".join(map(str, seq.tokens.tolist()))


def test_format_corpus_matches_a_per_token_reference():
    rng = np.random.default_rng(26)
    every_id = np.arange(REST_ID + 1, dtype=np.int16)
    names = ["plain", "clip#t+3#k12", "mélodie", "旋律", "ü\u00a0q", "🎹"]
    for count in range(1, 41):
        sequences = []
        for i in range(count):
            length = int(rng.choice([1, 2, 128, 129, 384, int(rng.integers(1, 385))]))
            tokens = rng.integers(0, REST_ID + 1, size=length).astype(np.int16)
            if length >= len(every_id) and i % 3 == 0:
                tokens[:len(every_id)] = rng.permutation(every_id)
            sequences.append(PitchSequence(tokens, GridUnit(("16th", "32nd")[i % 2]),
                                           f"{names[i % len(names)]}{count}.{i}"))
        want = "".join(reference_line(s) + "\n" for s in sequences)
        assert format_corpus(sequences) == want
        assert format_corpus(iter(sequences)) == want
        assert [format_sequence(s) for s in sequences] == want.splitlines()
    assert format_corpus([]) == ""
    for edge in ([0], [REST_ID], every_id, np.full(384, 127)):
        seq = PitchSequence(np.asarray(edge, dtype=np.int16), GridUnit.SIXTEENTH, "edge")
        assert format_sequence(seq) == reference_line(seq)


@pytest.mark.parametrize("bad", [-1, 129, 300])
def test_format_corpus_names_the_first_sequence_with_a_bad_id(bad):
    sequences = [PitchSequence(np.array([60, 61, 62], dtype=np.int16), GridUnit.SIXTEENTH, sid)
                 for sid in ("first", "second#t+2", "third")]
    sequences[1].tokens[2] = bad
    sequences[2].tokens[0] = 400
    with pytest.raises(CorpusFormatError,
                       match=rf"^'second#t\+2': token {bad} outside 0\.\.128$"):
        format_corpus(sequences)


def test_corpus_file_not_utf8_rejected(tmp_path):
    bad = tmp_path / "a.tokens"
    bad.write_bytes(b"a\t16th\t60 61\xff\n")
    with pytest.raises(CorpusFormatError, match="a.tokens"):
        read_corpus_file(bad)


def test_corpus_file_skips_a_byte_order_mark(tmp_path):
    """Spreadsheets save "CSV UTF-8" with a leading BOM. It is not part of
    the first source id, which seeds that row's augment variants."""
    text = "src\t16th\t60 61\nnext\t16th\t62\n"
    marked = tmp_path / "a.tokens"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    got = [(s.source_id, s.tokens.tolist()) for s in read_corpus_file(marked)]
    assert got == [("src", [60, 61]), ("next", [62])]


@pytest.mark.parametrize("token", ["1_2", "+60", "٦٠", "-1", "6e1", "0x3c"])
def test_corpus_token_ids_must_be_ascii_decimal(tmp_path, token):
    path = tmp_path / "a.tokens"
    path.write_text(f"ok\t16th\t60 61\nbad\t16th\t60 {token} 62\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=r"a\.tokens:2: token ids of 'bad'"):
        read_corpus_file(path)


def test_corpus_ids_keep_their_whitespace_rules():
    seq = parse_sequence_line("w\t16th\t 60  61\x0b62 ")
    assert seq.tokens.tolist() == [60, 61, 62]


# ------------------------------------------------------------- preprocess

def test_preprocess_writes_tokens_and_summary(tmp_path, capsys):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=5)
    out_dir = tmp_path / "tok"
    assert main(["preprocess", "--in", str(midi_dir), "--out", str(out_dir)]) == 0
    files = sorted(out_dir.glob("*.tokens"))
    assert len(files) == 5
    summary = (out_dir / "preprocess_summary.txt").read_text()
    assert "inputs=5" in summary and "written=5" in summary and "errors=0" in summary
    assert "grid_16th=" in summary and "grid_32nd=" in summary
    sequences = read_corpus_dir(out_dir)
    assert len(sequences) == 5


def test_preprocess_empty_dir_fails(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["preprocess", "--in", str(empty), "--out", str(tmp_path / "o")]) == 1
    assert "no MIDI files" in capsys.readouterr().err


def test_preprocess_bad_file_is_soft_error(tmp_path):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=2)
    (midi_dir / "broken.mid").write_bytes(b"not midi data")
    out_dir = tmp_path / "tok"
    assert main(["preprocess", "--in", str(midi_dir), "--out", str(out_dir)]) == 0
    summary = (out_dir / "preprocess_summary.txt").read_text()
    assert "errors=1" in summary and "broken.mid" in summary


def test_preprocess_deterministic(tmp_path):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert main(["preprocess", "--in", str(midi_dir), "--out", str(out),
                     "--seed", "5"]) == 0
    for f in sorted(out_a.glob("*.tokens")):
        assert f.read_bytes() == (out_b / f.name).read_bytes()


# ---------------------------------------------------------------- augment

def test_augment_identity_policy_copies_corpus(tmp_path):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=2)
    tok = tmp_path / "tok"
    main(["preprocess", "--in", str(midi_dir), "--out", str(tok), "--seed", "1"])
    out = tmp_path / "aug"
    assert main(["augment", "--in", str(tok), "--out", str(out),
                 "--transpositions", "1", "--truncated", "0", "--seed", "2"]) == 0
    for seq, aug in zip(read_corpus_dir(tok), read_corpus_dir(out)):
        assert (seq.tokens == aug.tokens).all()


def test_augment_expansion_and_provenance(tmp_path):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=3)
    tok, out = tmp_path / "tok", tmp_path / "aug"
    main(["preprocess", "--in", str(midi_dir), "--out", str(tok), "--seed", "1"])
    assert main(["augment", "--in", str(tok), "--out", str(out), "--seed", "4"]) == 0
    augmented = {s.source_id: s for s in read_corpus_dir(out)}
    assert len(augmented) == 3 * 31
    sources = {s.source_id: s for s in read_corpus_dir(tok)}
    manifest_lines = (out / "augment_manifest.tsv").read_text().splitlines()
    assert manifest_lines[0] == "variant_id\tsource_id\tshift\ttruncation"
    for line in manifest_lines[1:]:
        variant_id, source_id, shift, trunc = line.split("\t")
        rebuilt = transpose(sources[source_id], int(shift))
        if trunc:
            rebuilt = random_truncate(rebuilt, int(trunc))
        assert (rebuilt.tokens == augmented[variant_id].tokens).all()


def test_augment_deterministic(tmp_path):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=2)
    tok = tmp_path / "tok"
    main(["preprocess", "--in", str(midi_dir), "--out", str(tok), "--seed", "1"])
    blobs = []
    for name in ("x", "y"):
        out = tmp_path / name
        main(["augment", "--in", str(tok), "--out", str(out), "--seed", "9"])
        blobs.append(b"".join(f.read_bytes() for f in sorted(out.glob("*.tokens"))))
    assert blobs[0] == blobs[1]


# sha256 over the names and bytes of both augment runs' outputs below,
# taken from the per-variant transpose/truncate loop augment first used
AUGMENT_OUTPUT_SHA256 = "45ab6b7c0379677326d34956c2b3f7b350340a02d2b220ddac486fd83b82e83b"


def test_augment_output_bytes_pinned(tmp_path):
    rng = np.random.default_rng(18)
    tok = tmp_path / "tok"
    tok.mkdir()
    for f in range(3):
        lines = []
        for i in range(4):
            length = int(rng.choice([2, 3, 40, 101, 150, 384]))
            low = int(rng.integers(0, 128))
            tokens = rng.integers(low, min(low + int(rng.integers(1, 40)), 128), size=length)
            tokens[rng.random(length) < 0.2] = 128
            tokens[0] = low
            grid = ("16th", "32nd")[int(rng.integers(2))]
            lines.append(f"f{f}s{i}\t{grid}\t{' '.join(map(str, tokens))}\n")
        (tok / f"f{f}.tokens").write_text("".join(lines), encoding="utf-8")
    digest = hashlib.sha256()
    for name, flags in (("default", []),
                        ("custom", ["--transpositions", "9", "--truncated", "9",
                                    "--trunc-min", "3", "--trunc-max", "20"])):
        out = tmp_path / name
        assert main(["augment", "--in", str(tok), "--out", str(out), "--seed", "5", *flags]) == 0
        for path in sorted(out.iterdir()):
            digest.update(f"{name}/{path.name}\n".encode())
            digest.update(path.read_bytes())
    assert digest.hexdigest() == AUGMENT_OUTPUT_SHA256


# ------------------------------------------------------- worker processes

def plant_bad_inputs(midi_dir):
    """A file that is not MIDI, a second file with clip000's stem (it sorts
    first, so it takes clip000.tokens) and a directory named like MIDI."""
    (midi_dir / "broken.mid").write_bytes(b"not midi data")
    (midi_dir / "clip000.MID").write_bytes((midi_dir / "clip001.mid").read_bytes())
    (midi_dir / "folder.mid").mkdir()


def test_preprocess_duplicate_stem_is_soft_error(tmp_path):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=2)
    plant_bad_inputs(midi_dir)
    out = tmp_path / "tok"
    assert main(["preprocess", "--in", str(midi_dir), "--out", str(out)]) == 0
    summary = (out / "preprocess_summary.txt").read_text().splitlines()
    assert summary[:3] == ["inputs=4", "written=2", "errors=2"]
    assert summary[-1] == ("error file=clip000.mid message=DuplicateStem: "
                           "clip000.MID already writes clip000.tokens")
    assert sorted(p.name for p in out.glob("*.tokens")) == ["clip000.tokens", "clip001.tokens"]
    # clip000.tokens holds clip000.MID's notes, a copy of clip001's
    assert ((out / "clip000.tokens").read_text().split("\t")[1:]
            == (out / "clip001.tokens").read_text().split("\t")[1:])


def test_inputs_are_regular_files_only(tmp_path, capsys):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=2)
    (midi_dir / "folder.mid").mkdir()
    tok, aug = tmp_path / "tok", tmp_path / "aug"
    assert main(["preprocess", "--in", str(midi_dir), "--out", str(tok)]) == 0
    assert (tok / "preprocess_summary.txt").read_text().startswith("inputs=2\nwritten=2\n")
    (tok / "folder.tokens").mkdir()
    capsys.readouterr()
    assert main(["augment", "--in", str(tok), "--out", str(aug), "--seed", "0"]) == 0
    assert capsys.readouterr().out == "inputs=2 variants=62\n"


def test_atomic_write_removes_its_temp_file_on_failure(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        cli._atomic_write(tmp_path / "text", "\ud800")
    (tmp_path / "full" / "x").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        cli._atomic_write(tmp_path / "full", b"bytes")
    assert [p.name for p in tmp_path.iterdir()] == ["full"]


def leftovers(directory):
    return sorted(p.name for p in directory.iterdir()
                  if p.name.startswith(".psae-") or p.name.endswith(".tmp"))


@pytest.mark.parametrize("workers", [1, 2])
def test_fatal_file_error_reports_first_file_and_leaves_nothing_behind(
        tmp_path, capsys, monkeypatch, workers):
    monkeypatch.setattr(parallel, "worker_count", lambda: workers)
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=6)
    tok = tmp_path / "tok"
    for stem in ("clip001", "clip004"):   # a rename onto a non-empty directory fails
        (tok / f"{stem}.tokens" / "x").mkdir(parents=True)
    assert main(["preprocess", "--in", str(midi_dir), "--out", str(tok)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21] ") and "clip001.tokens" in err
    assert "clip004" not in err
    assert multiprocessing.active_children() == []
    assert leftovers(tok) == []

    good = tmp_path / "good"
    assert main(["preprocess", "--in", str(midi_dir), "--out", str(good)]) == 0
    for name in ("clip002.tokens", "clip005.tokens"):
        (good / name).write_text("bad\t16th\t60 99999\n", encoding="utf-8")
    aug = tmp_path / "aug"
    capsys.readouterr()
    assert main(["augment", "--in", str(good), "--out", str(aug), "--seed", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "clip002.tokens:1: " in err and "clip005" not in err
    assert multiprocessing.active_children() == []
    assert leftovers(aug) == []


@pytest.mark.parametrize("seed", [0, 7])
def test_one_and_two_workers_write_the_same_bytes(tmp_path, monkeypatch, seed):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=10)
    plant_bad_inputs(midi_dir)
    pids = tmp_path / "pids"
    pids.mkdir()
    private_dir = cli._private_dir

    def recording_private_dir(tmp_root):
        (pids / str(os.getpid())).touch()
        return private_dir(tmp_root)

    monkeypatch.setattr(cli, "_private_dir", recording_private_dir)
    outputs = {}
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "worker_count", lambda w=workers: w)
        out = tmp_path / f"workers{workers}"
        for argv in (["preprocess", "--in", str(midi_dir), "--out", str(out / "tok")],
                     ["augment", "--in", str(out / "tok"), "--out", str(out / "aug")]):
            assert main([*argv, "--seed", str(seed)]) == 0
            used = {p.name for p in pids.iterdir()}
            for p in pids.iterdir():
                p.unlink()
            if workers == 1:
                assert used == {str(os.getpid())}
            else:
                assert len(used) == 2 and str(os.getpid()) not in used
        outputs[workers] = {p.relative_to(out).as_posix(): p.read_bytes()
                            for p in sorted(out.glob("*/*"))}
    assert outputs[1] == outputs[2]
    assert len(outputs[1]) == 2 * (10 + 1)   # ten corpus files and a summary or manifest
    summary = outputs[1]["tok/preprocess_summary.txt"].decode()
    assert summary.startswith("inputs=12\nwritten=10\nerrors=2\n")
    assert "error file=broken.mid message=" in summary
    assert "error file=clip000.mid message=DuplicateStem: " in summary


def test_a_process_makes_its_private_folder_once_per_command(tmp_path, monkeypatch):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=4)
    made = []
    mkdir = Path.mkdir

    def recording_mkdir(self, *args, **kwargs):
        if self.parent.name.startswith(".psae-"):
            made.append(self.name)
        return mkdir(self, *args, **kwargs)

    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    monkeypatch.setattr(Path, "mkdir", recording_mkdir)
    for argv in (["preprocess", "--in", str(midi_dir), "--out", str(tmp_path / "tok")],
                 ["augment", "--in", str(tmp_path / "tok"), "--out", str(tmp_path / "aug")]):
        assert main([*argv, "--seed", "0"]) == 0
    assert made == [str(os.getpid())] * 2
    assert cli._made_dirs == set()


# sha256 over the names and bytes of preprocess's outputs below, taken from
# the per-token formatter and the per-note triplet pass preprocess first used
PREPROCESS_OUTPUT_SHA256 = "dbaa96efc9fdbaeb746b6915aceeb932825de83ab30658f2a7ac3b29eabf2230"


@pytest.mark.filterwarnings("ignore:2 tracks contain notes")
def test_preprocess_output_bytes_pinned(tmp_path, monkeypatch):
    # The benchmark's seeded prep sample: 16th and 32nd grids, triplets,
    # tempo maps, format 1, two-track files and the seven planted failures.
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", Path(__file__).parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, inputs)   # its dataclasses look it up
    spec.loader.exec_module(inputs)
    midi_dir = tmp_path / "midi"
    midi_dir.mkdir()
    for f in inputs.prep_corpus(psae, 0, 120):
        (midi_dir / f.name).write_bytes(f.data)
    digests = {}
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "worker_count", lambda w=workers: w)
        out = tmp_path / f"workers{workers}"
        assert main(["preprocess", "--in", str(midi_dir), "--out", str(out), "--seed", "0"]) == 0
        digest = hashlib.sha256()
        for path in sorted(out.iterdir()):
            digest.update(f"{path.name}\n".encode())
            digest.update(path.read_bytes())
        digests[workers] = digest.hexdigest()
        assert len(list(out.iterdir())) == 120 + 1   # the valid files and the summary
    assert digests == {1: PREPROCESS_OUTPUT_SHA256, 2: PREPROCESS_OUTPUT_SHA256}


# ------------------------------------------------------------------ train

def test_train_writes_checkpoint_and_metrics(tmp_path):
    model_path, _ = run_small_pipeline(tmp_path)
    assert model_path.exists()
    metrics = model_path.with_name(model_path.name + ".metrics").read_text().splitlines()
    assert len(metrics) == 2
    assert metrics[0].startswith("epoch=1 raw_loss=")
    assert "masked_accuracy=" in metrics[0]


def test_train_writes_timing_apart_from_metrics(tmp_path):
    model_path, _ = run_small_pipeline(tmp_path)
    timing = model_path.with_name(model_path.name + ".timing").read_text().splitlines()
    assert len(timing) == 2
    corpus = read_corpus_dir(tmp_path / "tok")
    rows, tokens = len(corpus), sum(len(s.tokens) for s in corpus)
    for epoch, line in enumerate(timing, start=1):
        fields = dict(kv.split("=", 1) for kv in line.split())
        assert set(fields) == {"epoch", "seconds", "cpu_seconds", "rows_per_s", "tokens_per_s"}
        assert int(fields["epoch"]) == epoch
        assert float(fields["seconds"]) > 0 and float(fields["rows_per_s"]) > 0
        assert float(fields["cpu_seconds"]) >= 0
        # every corpus token is real (non-PAD): tokens per row is the mean length
        assert float(fields["tokens_per_s"]) / float(fields["rows_per_s"]) == pytest.approx(
            tokens / rows, rel=5e-3)
    metrics = model_path.with_name(model_path.name + ".metrics").read_text().splitlines()
    for epoch, line in enumerate(metrics, start=1):
        assert re.fullmatch(rf"epoch={epoch} raw_loss=\d+\.\d{{6}} flooded_loss=\d+\.\d{{6}} "
                            r"masked_accuracy=\d\.\d{6}", line)


def test_train_requires_epochs(tmp_path, capsys):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=2)
    tok = tmp_path / "tok"
    main(["preprocess", "--in", str(midi_dir), "--out", str(tok)])
    assert main(["train", "--corpus", str(tok), "--out", str(tmp_path / "m")]) == 1
    assert "epochs" in capsys.readouterr().err


def test_train_deterministic_checkpoints(tmp_path):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir)
    tok = tmp_path / "tok"
    main(["preprocess", "--in", str(midi_dir), "--out", str(tok), "--seed", "1"])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": SMALL_MODEL}), encoding="utf-8")
    blobs = []
    for name in ("m1", "m2"):
        path = tmp_path / name
        assert main(["train", "--corpus", str(tok), "--config", str(config),
                     "--out", str(path), "--epochs", "2", "--seed", "3"]) == 0
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]


# sha256 of the checkpoint and of the .metrics that the seeded two-epoch run
# below writes, recorded before graph nodes kept only the arrays their
# backward reads; how a step holds its graph must not move a bit.
TRAIN_SHA256 = ("0b0438836aad4c928063a4a64c2b46cf72748e0fd3ec3ab50fb4cc1114679415",
                "c7702299807a1a2a693d7bac87a6d67cd3abb620e99c7eca53f176f133f3c7e5")


def test_train_output_bytes_pinned(tmp_path, monkeypatch):
    ranges = []

    def counted(batch, row_ranges=model._row_ranges):
        out = row_ranges(batch)
        ranges.append(len(out))
        return out

    monkeypatch.setattr(model, "_row_ranges", counted)
    rng = np.random.default_rng(11)
    tok = tmp_path / "tok"
    tok.mkdir()
    lines = []
    for i in range(24):     # ragged rows of 40 to 299 tokens, about one REST in ten
        row = rng.integers(40, 90, size=int(rng.integers(40, 300)))
        row[rng.random(len(row)) < 0.1] = model.ModelConfig().rest_id
        lines.append(f"s{i}\t16th\t{' '.join(map(str, row))}\n")
    (tok / "rows.tokens").write_text("".join(lines), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": SMALL_MODEL, "train": {"batch_size": 12}}),
                      encoding="utf-8")
    out = tmp_path / "m.psae"
    assert main(["train", "--corpus", str(tok), "--config", str(config), "--out", str(out),
                 "--epochs", "2", "--seed", "5"]) == 0
    assert max(ranges) > 1      # some batches train as several row ranges
    digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                    for path in (out, out.with_name(out.name + ".metrics")))
    assert digests == TRAIN_SHA256


def test_config_precedence_flag_over_file_over_default(tmp_path, monkeypatch):
    captured = {}

    def fake_train(sequences, config, hyper, on_epoch=None):
        captured["config"] = config
        captured["hyper"] = hyper
        return model.Checkpoint(model.init_model(config, 0))

    monkeypatch.setattr(cli, "train", fake_train)
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=2)
    tok = tmp_path / "tok"
    main(["preprocess", "--in", str(midi_dir), "--out", str(tok)])
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "seed": 42,
        "model": SMALL_MODEL,
        "train": {"epochs": 7, "batch_size": 8, "learning_rate": 0.5, "flood_b": 0.2},
    }), encoding="utf-8")

    # flags override the file; file overrides defaults; defaults fill the rest
    assert main(["train", "--corpus", str(tok), "--config", str(config),
                 "--out", str(tmp_path / "m"), "--epochs", "3",
                 "--learning-rate", "0.25"]) == 0
    hyper = captured["hyper"]
    assert hyper.epochs == 3               # flag wins over file's 7
    assert hyper.learning_rate == 0.25     # flag wins over file's 0.5
    assert hyper.batch_size == 8           # file wins over default 64
    assert hyper.flood_b == 0.2            # file wins over default 0.05
    assert hyper.seed == 42                # file wins over default 0
    assert hyper.mask_rate == 0.15         # untouched default
    assert captured["config"].embed_dim == 16

    # without the file, defaults apply
    assert main(["train", "--corpus", str(tok), "--out", str(tmp_path / "m2"),
                 "--epochs", "1"]) == 0
    assert captured["hyper"].batch_size == 64
    assert captured["hyper"].learning_rate == 1e-3
    assert captured["hyper"].flood_b == 0.05
    assert captured["hyper"].seed == 0


def test_config_file_skips_a_byte_order_mark(tmp_path):
    config = tmp_path / "config.json"
    config.write_bytes(b"\xef\xbb\xbf" + json.dumps({"seed": 42, "model": SMALL_MODEL}).encode())
    run = cli.load_run_config(config)
    assert run["seed"] == 42 and run["model"] == SMALL_MODEL


def test_unknown_config_keys_rejected(tmp_path, capsys):
    config = tmp_path / "config.json"
    for blob, message in [
        (json.dumps({"train": {"epoch": 3}}).encode(), "unknown keys"),
        (json.dumps({"trainer": {}}).encode(), "unknown top-level"),
        (json.dumps({"augment": {"truncation_max": 50}}).encode(), "unknown top-level"),
        # sections that are not objects, and a file that is not UTF-8
        (json.dumps({"model": None}).encode(), "'model' config must be a JSON object"),
        (json.dumps({"train": 3}).encode(), "'train' config must be a JSON object"),
        (json.dumps({"model": "abc"}).encode(), "'model' config must be a JSON object"),
        ('{"seed": "\xe9"}'.encode("latin-1"), "not valid UTF-8 JSON"),
    ]:
        config.write_bytes(blob)
        with pytest.raises(cli.ConfigError, match=re.escape(message)):
            cli.load_run_config(config)
        assert main(["train", "--corpus", str(tmp_path), "--config", str(config),
                     "--out", str(tmp_path / "m"), "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("flags, config", [
    (["--batch-size", "-3"], {}),
    (["--batch-size", "0"], {}),
    (["--learning-rate", "nan"], {}),
    (["--epochs", "0"], {}),
    ([], {"train": {"weight_decay": "x"}}),
    ([], {"model": {**SMALL_MODEL, "embed_dim": "64"}}),
    ([], {"model": {"output_classes": 200, "vocab_size": 203}}),   # REST would be a class
])
def test_train_rejects_invalid_hyperparameters(tmp_path, capsys, flags, config):
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=2)
    tok = tmp_path / "tok"
    main(["preprocess", "--in", str(midi_dir), "--out", str(tok)])
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "m"
    argv = ["train", "--corpus", str(tok), "--config", str(config_path), "--out", str(out),
            "--epochs", "1"] + flags
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out.exists()


# ------------------------------------------------------------------ score

def test_score_prints_complementary_probabilities(tmp_path, capsys):
    model_path, midi_dir = run_small_pipeline(tmp_path)
    midi_file = sorted(midi_dir.glob("*.mid"))[0]
    assert main(["score", "--model", str(model_path), "--midi", str(midi_file)]) == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    fields = dict(item.split("=", 1) for item in line.split(" "))
    p = float(fields["ai_probability"])
    q = float(fields["human_probability"])
    assert abs((p + q) - 1.0) < 1e-6
    assert int(fields["notes"]) > 0


def test_score_deterministic(tmp_path, capsys):
    model_path, midi_dir = run_small_pipeline(tmp_path)
    midi_file = sorted(midi_dir.glob("*.mid"))[0]
    capsys.readouterr()  # drain pipeline output
    outputs = []
    for _ in range(2):
        assert main(["score", "--model", str(model_path), "--midi", str(midi_file),
                     "--per-note"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert "note position=" in outputs[0]


def test_score_non_midi_file_exits_nonzero(tmp_path, capsys):
    model_path, _ = run_small_pipeline(tmp_path)
    bogus = tmp_path / "bogus.mid"
    bogus.write_bytes(b"garbage")
    assert main(["score", "--model", str(model_path), "--midi", str(bogus)]) == 1
    assert "error:" in capsys.readouterr().err


def test_score_corrupted_checkpoint_exits_nonzero(tmp_path, capsys):
    model_path, midi_dir = run_small_pipeline(tmp_path)
    blob = bytearray(model_path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    bad = tmp_path / "bad.psae"
    bad.write_bytes(bytes(blob))
    midi_file = sorted(midi_dir.glob("*.mid"))[0]
    assert main(["score", "--model", str(bad), "--midi", str(midi_file)]) == 1
    assert "CRC" in capsys.readouterr().err


# ------------------------------------------------------------------- eval

def test_eval_report_files_and_round_trip(tmp_path, capsys):
    model_path, midi_dir = run_small_pipeline(tmp_path)
    manifest = tmp_path / "manifest.csv"
    rows = ["path,label,style,algorithm,published"]
    for i, midi_file in enumerate(sorted(midi_dir.glob("*.mid"))):
        label = "human" if i % 2 else "ai"
        rows.append(f"{midi_file},{label},s{i % 2},,")
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["eval", "--model", str(model_path), "--manifest", str(manifest),
                 "--out", str(out_dir)]) == 0
    stdout = capsys.readouterr().out
    assert "overall AUC:" in stdout and "AUC by style:" in stdout
    parsed = parse_report_kv((out_dir / "report.kv").read_text())
    assert 0.0 <= parsed["overall_auc"] <= 1.0
    assert parsed["scored"] == 4 and parsed["skipped"] == 0
    assert len(parsed["excerpts"]) == 4


def test_eval_writes_timing_apart_from_report(tmp_path, monkeypatch):
    model_path, midi_dir = run_small_pipeline(tmp_path)
    manifest = tmp_path / "manifest.csv"
    rows = ["path,label"] + [f"{p},{'human' if i % 2 else 'ai'}"
                             for i, p in enumerate(sorted(midi_dir.glob("*.mid")))]
    manifest.write_text("\n".join(rows) + "\n", encoding="utf-8")
    out_dir = tmp_path / "report"
    assert main(["eval", "--model", str(model_path), "--manifest", str(manifest),
                 "--out", str(out_dir)]) == 0
    (line,) = (out_dir / "eval.timing").read_text().splitlines()
    fields = dict(kv.split("=", 1) for kv in line.split())
    assert list(fields) == ["clips", "skipped", "seconds", "cpu_seconds", "clips_per_s",
                            "workers"]
    assert (int(fields["clips"]), int(fields["skipped"])) == (4, 0)
    assert float(fields["seconds"]) > 0 and float(fields["clips_per_s"]) > 0
    assert float(fields["cpu_seconds"]) >= 0
    assert int(fields["workers"]) == parallel.worker_count()
    report = evaluate_manifest(load_checkpoint(model_path), manifest,
                               scorer=lambda p: sequence_from_midi_path(p, seed=0))
    assert (out_dir / "report.kv").read_bytes() == render_report_kv(report).encode("utf-8")
    assert (out_dir / "report.txt").read_bytes() == render_report_text(report).encode("utf-8")
    # under a tracer scoring runs on the calling thread alone
    backward = nn.Tensor.backward
    monkeypatch.setattr(nn.Tensor, "backward", lambda self: backward(self))
    assert main(["eval", "--model", str(model_path), "--manifest", str(manifest),
                 "--out", str(out_dir)]) == 0
    assert (out_dir / "eval.timing").read_text().split()[-1] == "workers=1"


def test_eval_missing_class_surfaces_single_class_error(tmp_path, capsys):
    model_path, midi_dir = run_small_pipeline(tmp_path)
    manifest = tmp_path / "manifest.csv"
    lines = ["path,label"] + [f"{p},ai" for p in sorted(midi_dir.glob("*.mid"))]
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["eval", "--model", str(model_path), "--manifest", str(manifest),
                 "--out", str(tmp_path / "r")]) == 1
    assert "both classes" in capsys.readouterr().err


def test_render_parse_report_round_trip_exact():
    rows = [ManifestRow("a.mid", "human", {"style": "bach"}),
            ManifestRow("b.mid", "ai", {"style": "bach"})]
    from psae.scoring import ExcerptScore
    scores = [(rows[0], ExcerptScore("a", 1 / 3, 100)),
              (rows[1], ExcerptScore("b", 2 / 3, 90))]
    report = EvalReport(overall_auc=1.0,
                        group_aucs={"style": {"bach": 1.0, "pop": None}},
                        scores=scores, errors=[("c.mid", "ParseError: nope")])
    parsed = parse_report_kv(render_report_kv(report))
    assert parsed["overall_auc"] == report.overall_auc
    assert parsed["groups"]["style"]["bach"] == (1.0, 2)
    assert parsed["groups"]["style"]["pop"] == (None, 0)
    assert parsed["excerpts"][0]["ai_probability"] == 1 / 3  # %.17g is exact
    assert parsed["excerpts"][1]["human_probability"] == 1 - 2 / 3
    assert parsed["errors"] == [{"path": "c.mid", "message": "ParseError: nope"}]


def test_parse_report_kv_keeps_spaces_in_paths_and_group_values():
    from psae.scoring import ExcerptScore
    rows = [ManifestRow("/data/my clips/a.mid", "human", {"style": "jazz fusion"}),
            ManifestRow("/data/my clips/b b.mid", "ai", {"style": "jazz fusion"})]
    scores = [(rows[0], ExcerptScore("a", 0.25, 12)), (rows[1], ExcerptScore("b", 0.75, 8))]
    report = EvalReport(overall_auc=1.0, group_aucs={"style": {"jazz fusion": 1.0}},
                        scores=scores, errors=[("/data/my clips/c.mid", "ParseError: no")])
    parsed = parse_report_kv(render_report_kv(report))
    assert parsed["groups"] == {"style": {"jazz fusion": (1.0, 2)}}
    assert [e["path"] for e in parsed["excerpts"]] == [r.path for r in rows]
    assert parsed["excerpts"][1] == {"path": "/data/my clips/b b.mid", "label": "ai",
                                     "ai_probability": 0.75, "human_probability": 0.25,
                                     "notes": 8}
    assert parsed["errors"] == [{"path": "/data/my clips/c.mid", "message": "ParseError: no"}]


def test_mangled_corpus_and_checkpoint_exit_one(tmp_path, capsys):
    import struct
    from psae.checkpoint import save_checkpoint_bytes
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "a.tokens").write_text("a\t16th\t60 99999\n", encoding="utf-8")
    assert main(["train", "--corpus", str(corpus), "--out", str(tmp_path / "m"),
                 "--epochs", "1"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    config = model.ModelConfig(**{**SMALL_MODEL, "num_layers": 1})
    blob = save_checkpoint_bytes(model.Checkpoint(model.init_model(config, 0)))
    bad_model = tmp_path / "bad.psae"
    bad_model.write_bytes(resealed(blob, b"num_heads" + struct.pack("<q", 2),
                                   b"num_heads" + struct.pack("<q", 3)))
    midi_dir = tmp_path / "midi"
    write_midi_corpus(midi_dir, count=1)
    assert main(["score", "--model", str(bad_model),
                 "--midi", str(midi_dir / "clip000.mid")]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_readme_synopsis_lists_every_option():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```")[1]
    synopsis: dict[str, str] = {}   # command -> its lines of the block
    command = None
    for line in block.splitlines():
        if line.startswith("psae "):
            command = line.split()[1]
        if command is not None:
            synopsis[command] = synopsis.get(command, "") + line + "\n"
    commands = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert set(synopsis) == set(commands)
    missing, misbracketed = [], []
    for name, parser in commands.items():
        for action in parser._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                found = re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", synopsis[name])
                if found is None:
                    missing.append((name, option))
                    continue
                # bracketed exactly when argparse does not require it
                before = synopsis[name][:found.start()]
                if (before.count("[") > before.count("]")) == action.required:
                    misbracketed.append((name, option))
    assert missing == []
    assert misbracketed == []


def test_importing_psae_loads_no_scipy():
    # numpy is the one run-time dependency; scipy is only the tests' oracle.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    # multiprocessing loads only when preprocess or augment makes a pool
    probe = ("import sys, psae, psae.cli\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m.split('.')[0] in ('scipy', 'multiprocessing')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout == "[]\n"
