"""The benchmark's workloads: train, score and prep.

Each workload drives psae's public commands in-process through
``psae.cli.main``, times them, and checks every output. A workload has
four steps:

- ``setup``: the program's one-time objects and a warm-up call, timed
  together with ``import psae`` by the runner;
- ``make_inputs``: seeded input generation, not timed;
- ``warm_up``: one untimed full-size call through the library, so the
  first timed pass does not pay for first-touch memory and caches;
- ``run_pass``: one timed pass over the inputs through the CLI;
- ``check``: verifies that pass's outputs and counts every checked
  outcome in ``Checks``.

``metrics`` turns the passes into the end-to-end numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from spans import Patcher

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference.json"
# Tolerances for the default-seed reference values, set from float32: a
# probability is a float32 softmax entry averaged in float64, so another
# BLAS kernel moves it by a few float32 ulps (~1e-8 here); one-epoch loss
# goes through six AdamW steps, whose rounding differences grow but stay
# far below 1e-4 relative.
PROB_ATOL = 1e-6
LOSS_RTOL = 1e-4
# Criterion 10's bound for batched against one-at-a-time masking.
SINGLE_MASK_ATOL = 1e-6


@dataclass
class Checks:
    """Checked outcomes; a wrong one counts toward the error rate."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


@dataclass
class Pass:
    wall_s: float
    rc: int
    out: Path
    stages: dict[str, float] = field(default_factory=dict)
    samples: dict = field(default_factory=dict)   # per-pass measurements and outputs
    captured: list = field(default_factory=list)


def cli(psae, argv: list[str]) -> tuple[int, float]:
    """One public command in-process; its console output is kept off the
    benchmark's stdout."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        rc = psae.cli.main(argv)
        return rc, time.perf_counter() - t0


@contextlib.contextmanager
def hooked(owner, attr: str, make_wrapper):
    patcher = Patcher()
    patcher.wrap(owner, attr, make_wrapper)
    try:
        yield
    finally:
        patcher.restore()


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]


def median_or_none(values):
    return statistics.median(values) if values else None


# ------------------------------------------------------------------ train

class Train:
    """`psae train --epochs 1` over an augmented corpus of 8-bar melodies,
    repeated while the run lasts. Steps are timed at batch boundaries."""

    name = "train"
    trace_memory = True
    melodies = 12                # 372 rows: five 64-row steps and one of 52

    def setup(self, psae, work: Path):
        rng = np.random.default_rng(0)
        rows = [psae.PitchSequence(rng.integers(48, 84, size=16), psae.GridUnit("16th"))
                for _ in range(4)]
        psae.train(rows, psae.ModelConfig(), psae.TrainHyper(epochs=1, batch_size=4))
        return None

    def make_inputs(self, psae, seed: int, work: Path):
        rows = inputs.train_corpus(psae, seed, self.melodies)
        corpus = work / "corpus"
        corpus.mkdir(parents=True)
        psae.corpus.write_corpus_file(corpus / "corpus.tokens", rows)
        return {"corpus": corpus, "rows": len(rows), "seed": seed}

    def warm_up(self, psae, state, data) -> None:
        rows = psae.corpus.read_corpus_dir(data["corpus"])[:64]
        psae.train(rows, psae.ModelConfig(), psae.TrainHyper(epochs=1, seed=data["seed"]))

    def run_pass(self, psae, state, data, work: Path, index: int) -> Pass:
        out = work / f"model{index}.psae"
        starts: list[tuple[float, int]] = []

        def step_marker(fn):
            def wrapper(sequences, *args, **kwargs):
                starts.append((time.perf_counter(), len(sequences)))
                return fn(sequences, *args, **kwargs)
            return wrapper

        with hooked(psae.model, "make_mlm_batch", step_marker):
            rc, wall = cli(psae, ["train", "--corpus", str(data["corpus"]), "--out", str(out),
                                  "--epochs", "1", "--seed", str(data["seed"])])
        steps = [(b[0] - a[0]) * 1e3 for a, b in zip(starts, starts[1:]) if a[1] == 64]
        return Pass(wall, rc, out, samples={"step_ms": steps})

    def check(self, psae, state, data, result: Pass, first: Pass | None, checks: Checks):
        if not checks.expect(result.rc == 0, f"psae train exited {result.rc}"):
            return
        metrics = (result.out.parent / (result.out.name + ".metrics")).read_text()
        fields = dict(kv.split("=", 1) for kv in metrics.split())
        loss = float(fields.get("raw_loss", "nan"))
        ok = math.isfinite(loss) and 0.0 < loss < 2 * math.log(128)
        if ok and data["seed"] == DEFAULT_SEED:
            ref = load_reference("train")["raw_loss"]
            ok = abs(loss - ref) <= LOSS_RTOL * abs(ref)
        blob = result.out.read_bytes()
        if first is not None:
            ok = ok and blob == first.out.read_bytes()
        try:
            ok = ok and psae.load_checkpoint_bytes(blob).config == psae.ModelConfig()
        except psae.PsaeError:
            ok = False
        checks.expect(ok, f"train pass raw_loss={loss!r}: checkpoint or loss check failed")
        result.samples["raw_loss"] = [loss]

    def metrics(self, passes: list[Pass], data) -> dict:
        steps = [s for p in passes for s in p.samples["step_ms"]]
        rows_per_s = (statistics.median(data["rows"] / p.wall_s for p in passes), len(passes))
        step_ms = (statistics.median(steps), len(steps))
        return {"throughput_per_s": rows_per_s, "latency_ms": step_ms,
                "extra": {"train_rows_per_s": rows_per_s, "train_step_ms_64x128": step_ms,
                          "raw_loss": (passes[0].samples.get("raw_loss", [None])[0], 1)}}


# ------------------------------------------------------------------ score

MODEL_SEED = 2010
MODEL_SCALE = 10.0   # spreads predictions so reference probabilities differ


def fixed_model(psae):
    """Fixed-seed model whose weights are scaled up from the init, so the
    scored probabilities are far from uniform."""
    params = psae.init_model(psae.ModelConfig(), MODEL_SEED)
    for name, t in params.tensors.items():
        if name.endswith("_weight") or name.endswith("_embedding"):
            t.data *= np.float32(MODEL_SCALE)
    return psae.Checkpoint(params=params)


class Score:
    """`psae eval` over a labelled manifest of clips at L = 128/256/384
    plus planted malformed files, with a fixed-seed checkpoint."""

    name = "score"
    trace_memory = True
    probe_positions = 4      # per clip, against one-at-a-time masking

    def setup(self, psae, work: Path):
        path = work / "model.psae"
        psae.save_checkpoint(fixed_model(psae), path)
        checkpoint = psae.load_checkpoint(path)
        rng = np.random.default_rng(0)
        warm = psae.PitchSequence(rng.integers(48, 84, size=16), psae.GridUnit("16th"))
        psae.score_sequence(checkpoint, warm)
        return {"model": path, "checkpoint": checkpoint}

    def make_inputs(self, psae, seed: int, work: Path):
        clips = inputs.score_clips(psae, seed)
        folder = work / "clips"
        folder.mkdir(parents=True)
        for c in clips:
            (folder / c.name).write_bytes(c.data)
        manifest = folder / "manifest.csv"
        manifest.write_text(inputs.manifest_csv(clips), encoding="utf-8")
        return {"clips": clips, "folder": folder, "manifest": manifest, "seed": seed}

    def warm_up(self, psae, state, data) -> None:
        seq = psae.sequence_from_midi_path(data["folder"] / data["clips"][0].name)
        psae.score_sequence(state["checkpoint"], seq)

    def run_pass(self, psae, state, data, work: Path, index: int) -> Pass:
        out = work / f"report{index}"
        captured = []

        def capture(fn):
            def wrapper(model, seq, *args, **kwargs):
                t0 = time.perf_counter()
                probs = fn(model, seq, *args, **kwargs)
                captured.append((seq.source_id, len(seq.tokens),
                                 (time.perf_counter() - t0) * 1e3, probs))
                return probs
            return wrapper

        with hooked(psae.scoring, "note_probabilities", capture):
            rc, wall = cli(psae, ["eval", "--model", str(state["model"]),
                                  "--manifest", str(data["manifest"]), "--out", str(out)])
        samples: dict[str, list[float]] = {}
        for _, length, ms, _ in captured:
            samples.setdefault(f"score_ms_{length}", []).append(ms)
        return Pass(wall, rc, out, samples=samples, captured=captured)

    def check(self, psae, state, data, result: Pass, first: Pass | None, checks: Checks):
        clips = data["clips"]
        if not checks.expect(result.rc == 0, f"psae eval exited {result.rc}"):
            return
        report = psae.cli.parse_report_kv((result.out / "report.kv").read_text())
        planted = [c for c in clips if c.expected_error]
        valid = [c for c in clips if not c.expected_error]
        checks.expect(report["skipped"] == len(planted) and report["scored"] == len(valid),
                      f"eval scored {report['scored']} / skipped {report['skipped']}")
        checks.expect(set(report["groups"]) == {"style", "algorithm", "published"},
                      f"eval group keys {sorted(report['groups'])}")
        errors = {Path(e["path"]).name: e["message"] for e in report["errors"]}
        for c in planted:
            checks.expect(errors.get(c.name, "").startswith(c.expected_error + ":"),
                          f"{c.name}: expected {c.expected_error}, got {errors.get(c.name)}")
        excerpts = {Path(e["path"]).name: e for e in report["excerpts"]}
        probs = {sid: p for sid, _, _, p in result.captured}
        reference = load_reference("score") if data["seed"] == DEFAULT_SEED else None
        rng = np.random.default_rng([data["seed"], 4])
        for c in valid:
            e = excerpts.get(c.name)
            p = probs.get(Path(c.name).stem)
            ok = e is not None and p is not None and e["notes"] == c.length
            ok = ok and abs(e["ai_probability"] - float(np.mean(p.probabilities))) < 1e-12
            if ok and reference is not None:
                ok = abs(e["ai_probability"] - reference[c.name]) <= PROB_ATOL
            if ok and first is None:
                ok = self._single_mask_agrees(psae, state["checkpoint"], data, c, p, rng)
            elif ok:
                ok = e["ai_probability"] == first.samples.get("ai", {}).get(c.name)
            checks.expect(ok, f"{c.name}: score check failed")
            if e is not None:
                result.samples.setdefault("ai", {})[c.name] = e["ai_probability"]

    def _single_mask_agrees(self, psae, checkpoint, data, clip, probs, rng) -> bool:
        """Sampled positions re-scored with only that position masked."""
        seq = psae.sequence_from_midi_path(data["folder"] / clip.name, seed=0)
        tokens = np.asarray(seq.tokens, dtype=np.int64)
        config = checkpoint.config
        picks = rng.choice(len(probs.positions), size=self.probe_positions, replace=False)
        for k in picks:
            pos = int(probs.positions[k])
            masked = tokens.copy()
            masked[pos] = config.mask_id
            logits = psae.forward(checkpoint.params, masked[None]).data[0, pos]
            z = logits - logits.max()
            e = np.exp(z, dtype=np.float64)
            if abs(e[tokens[pos]] / e.sum() - probs.probabilities[k]) > SINGLE_MASK_ATOL:
                return False
        return True

    def metrics(self, passes: list[Pass], data) -> dict:
        rows = len(data["clips"])
        rates = [rows / p.wall_s for p in passes]
        per_len = {n: [s for p in passes for s in p.samples.get(f"score_ms_{n}", [])]
                   for n in (128, 256, 384)}
        extra = {"eval_clips_per_s": (statistics.median(rates), len(rates))}
        for n, values in per_len.items():
            extra[f"score_ms_{n}"] = (median_or_none(values), len(values))
        return {"throughput_per_s": (statistics.median(rates), len(rates)),
                "latency_ms": (statistics.median(per_len[128]), len(per_len[128])),
                "extra": extra}


# ------------------------------------------------------------------- prep

class Prep:
    """`psae preprocess` then `psae augment` at paper scale: 6000 valid
    files become 186000 rows; planted files must be rejected. The files
    are split into shards processed one after another, preprocess then
    augment per shard, so both commands are sampled across the whole pass
    rather than in one stretch of it."""

    name = "prep"
    # tracemalloc slows this pure-Python pass about 4x, past the run limit
    trace_memory = False
    valid_files = 6000
    variants = 31
    shards = 4
    spot_checks = 20

    def setup(self, psae, work: Path):
        rng = np.random.default_rng(0)
        pitches = rng.integers(48, 84, size=16).tolist()
        notes = [psae.NoteEvent(i * 240, 240, p, 80) for i, p in enumerate(pitches)]
        data = psae.write_smf(psae.MidiFile(0, inputs.TPQ, [notes]))
        seq = psae.sequence_from_midi_bytes(data, "warmup")
        for v in psae.expand_sequence_detailed(seq, psae.AugmentPolicy()):
            psae.corpus.format_sequence(v.sequence)
        return None

    def make_inputs(self, psae, seed: int, work: Path):
        files = inputs.prep_corpus(psae, seed, self.valid_files)
        folder = work / "midi"
        for k in range(self.shards):
            (folder / str(k)).mkdir(parents=True)
        shard_of = {}
        for i, f in enumerate(files):
            shard_of[f.name] = str(i % self.shards)
            (folder / shard_of[f.name] / f.name).write_bytes(f.data)
        return {"files": files, "folder": folder, "shard_of": shard_of, "seed": seed}

    def warm_up(self, psae, state, data) -> None:
        policy = psae.AugmentPolicy(seed=data["seed"])
        for f in data["files"][:200]:
            seq = psae.sequence_from_midi_bytes(f.data, f.name, seed=data["seed"])
            for v in psae.expand_sequence_detailed(seq, policy):
                psae.corpus.format_sequence(v.sequence)

    def run_pass(self, psae, state, data, work: Path, index: int) -> Pass:
        out = work / f"pass{index}"
        seed = str(data["seed"])
        t_pre = t_aug = 0.0
        rc = 0
        for k in map(str, range(self.shards)):
            tok, aug = out / "tok" / k, out / "aug" / k
            rc1, t1 = cli(psae, ["preprocess", "--in", str(data["folder"] / k),
                                 "--out", str(tok), "--seed", seed])
            rc2, t2 = cli(psae, ["augment", "--in", str(tok), "--out", str(aug), "--seed", seed])
            t_pre, t_aug, rc = t_pre + t1, t_aug + t2, rc or rc1 or rc2
        return Pass(t_pre + t_aug, rc, out, stages={"preprocess_s": t_pre, "augment_s": t_aug})

    def check(self, psae, state, data, result: Pass, first: Pass | None, checks: Checks):
        try:
            self._check(psae, data, result, checks)
        finally:
            shutil.rmtree(result.out, ignore_errors=True)

    def _check(self, psae, data, result: Pass, checks: Checks):
        files = data["files"]
        if not checks.expect(result.rc == 0, f"preprocess/augment exited {result.rc}"):
            return
        tok, aug = result.out / "tok", result.out / "aug"
        counts = {"inputs": 0, "written": 0, "errors": 0, "grid_16th": 0, "grid_32nd": 0}
        errors = {}
        for k in range(self.shards):
            for line in (tok / str(k) / "preprocess_summary.txt").read_text().splitlines():
                if line.startswith("error file="):
                    name, message = line[len("error file="):].split(" message=", 1)
                    errors[name] = message
                else:
                    key, value = line.split("=", 1)
                    counts[key] = counts.get(key, 0) + int(value)
        valid = [f for f in files if not f.expected_error]
        grids = {g: sum(1 for f in valid if f.grid == g) for g in ("16th", "32nd")}
        checks.expect(counts == {"inputs": len(files), "written": len(valid),
                                 "errors": len(files) - len(valid),
                                 "grid_16th": grids["16th"], "grid_32nd": grids["32nd"]},
                      f"preprocess summaries {counts}")
        written = {p.stem for p in tok.glob("*/*.tokens")}
        for f in files:
            stem = f.name[:-len(".mid")]
            if f.expected_error:
                checks.expect(errors.get(f.name, "").startswith(f.expected_error + ":")
                              and stem not in written,
                              f"{f.name}: expected {f.expected_error}, got {errors.get(f.name)}")
            else:
                checks.expect(stem in written and f.name not in errors,
                              f"{f.name}: not written ({errors.get(f.name)})")
        rows = manifest_rows = 0
        for path in aug.glob("*/*.tokens"):
            with open(path, encoding="utf-8") as fh:
                rows += sum(1 for _ in fh)
        for path in aug.glob("*/augment_manifest.tsv"):
            with open(path, encoding="utf-8") as fh:
                manifest_rows += sum(1 for _ in fh) - 1
        checks.expect(rows == manifest_rows == self.variants * len(valid),
                      f"augment emitted {rows} rows, manifest {manifest_rows}, "
                      f"expected {self.variants * len(valid)}")
        self._spot_check(psae, data, valid, tok, aug, checks)

    def _spot_check(self, psae, data, valid, tok: Path, aug: Path, checks: Checks):
        """Sampled files re-derived through the library must match the
        CLI's token and augmented corpus lines byte for byte."""
        seed = data["seed"]
        policy = psae.AugmentPolicy(seed=seed)
        rng = np.random.default_rng([seed, 5])
        for k in rng.choice(len(valid), size=self.spot_checks, replace=False):
            f = valid[int(k)]
            stem, shard = f.name[:-len(".mid")], data["shard_of"][f.name]
            seq = psae.sequence_from_midi_bytes(f.data, stem, seed=seed)
            want_tok = psae.corpus.format_sequence(seq) + "\n"
            want_aug = "".join(psae.corpus.format_sequence(v.sequence) + "\n"
                               for v in psae.expand_sequence_detailed(seq, policy))
            got_tok = (tok / shard / f"{stem}.tokens").read_text(encoding="utf-8")
            got_aug = (aug / shard / f"{stem}.tokens").read_text(encoding="utf-8")
            checks.expect(got_tok == want_tok and got_aug == want_aug,
                          f"{f.name}: CLI corpus lines differ from the library's")

    def metrics(self, passes: list[Pass], data) -> dict:
        n_files = len(data["files"])
        rows = self.variants * sum(1 for f in data["files"] if not f.expected_error)
        files_per_s = [n_files / p.stages["preprocess_s"] for p in passes]
        rows_per_s = [rows / p.stages["augment_s"] for p in passes]
        file_ms = [p.wall_s * 1e3 / n_files for p in passes]
        return {"throughput_per_s": (statistics.median(rows_per_s), len(passes)),
                "latency_ms": (statistics.median(file_ms), len(passes)),
                "extra": {"prep_files_per_s": (statistics.median(files_per_s), len(passes)),
                          "augment_rows_per_s": (statistics.median(rows_per_s), len(passes))}}


WORKLOADS = {w.name: w for w in (Train(), Score(), Prep())}
