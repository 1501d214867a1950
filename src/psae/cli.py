"""Command-line pipeline: preprocess, augment, train, score, eval.

build_parser binds each subcommand to its cmd_* function, which reads its
flags from the parsed namespace; main calls it and reports a fatal error.
Every command is deterministic under a fixed --seed and writes outputs to
temporary names before an atomic rename. preprocess and augment keep those
names in a private folder per process (see _map_files): two processes
creating files in one folder serialise on it. Per-file problems are soft:
they are reported and counted, the command still exits 0; fatal errors
exit 1. Config precedence for training is command-line flag > config
file > built-in default.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from . import parallel
from .augment import AugmentPolicy, expand_sequence_detailed
from .checkpoint import load_checkpoint, save_checkpoint_bytes
from .corpus import (SOURCE_ID_BREAKS, TOKENS_SUFFIX, format_corpus, read_corpus_dir,
                     read_corpus_file)
from .errors import PsaeError
from .model import ModelConfig, TrainHyper, train
from .pipeline import sequence_from_midi_bytes, sequence_from_midi_path
from .quantize import GridUnit
from .scoring import EvalReport, evaluate_manifest, excerpt_score, note_probabilities

MIDI_SUFFIXES = (".mid", ".midi")
_ESCAPED = {ord(c): f"\\x{ord(c):02x}" for c in SOURCE_ID_BREAKS}


class NoInputs(PsaeError):
    pass


class ConfigError(PsaeError):
    pass


def _atomic_write(path: Path, data: bytes | str, tmp_dir: Path | None = None) -> None:
    """Write data to a temporary file in tmp_dir (default: path's folder),
    then rename it to path. A failed write or rename removes the file."""
    tmp = (tmp_dir or path.parent) / (path.name + ".tmp")
    try:
        if isinstance(data, str):
            tmp.write_text(data, encoding="utf-8")
        else:
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _private_dir(tmp_root: str) -> Path:
    """This process's own folder for temporary files under tmp_root: the
    process's first call makes it and later calls find it with a stat,
    which, unlike a mkdir, does not queue on tmp_root's lock."""
    folder = Path(tmp_root, str(os.getpid()))
    if not folder.is_dir():
        folder.mkdir()
    return folder


def _map_files(work, files: list[Path], out_dir: Path, **fixed) -> list:
    """[work(path, out_dir, tmp_root, **fixed) for path in files] on
    parallel.process_map. tmp_root, a hidden ``.psae-*`` folder of out_dir
    for the processes' private folders, is removed when the map ends."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=".psae-") as tmp_root:
        return parallel.process_map(
            functools.partial(work, out_dir=out_dir, tmp_root=tmp_root, **fixed), files)


# ---------------------------------------------------------------- config

def _merge_section(name: str, defaults: dict, overrides: object) -> dict:
    if not isinstance(overrides, dict):
        raise ConfigError(f"{name!r} config must be a JSON object, not {json.dumps(overrides)}")
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in {name!r} config: {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(overrides)
    return merged


def load_run_config(path: str | Path | None) -> dict:
    """Validated run configuration: sections seed / model / train merged
    over the ModelConfig and TrainHyper defaults. Unknown keys are rejected
    everywhere."""
    raw = {}
    if path is not None:
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8-sig"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"config file {path} is not valid UTF-8 JSON: {exc}")
        if not isinstance(raw, dict):
            raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - {"seed", "model", "train"}
    if unknown:
        raise ConfigError(f"unknown top-level config keys: {sorted(unknown)}")
    model_defaults = dataclasses.asdict(ModelConfig())
    train_defaults = {f.name: None if f.name == "epochs" else f.default
                      for f in dataclasses.fields(TrainHyper) if f.name != "seed"}
    return {
        "seed": raw.get("seed"),
        "model": _merge_section("model", model_defaults, raw.get("model", {})),
        "train": _merge_section("train", train_defaults, raw.get("train", {})),
    }


# ------------------------------------------------------------- commands

def _shown(name: str) -> str:
    """A name or message as the summaries and reports write it, on one line:
    bytes that are not UTF-8, and the characters a source id may not hold, as \\xNN."""
    return os.fsencode(name).decode("utf-8", "backslashreplace").translate(_ESCAPED)


def _preprocess_file(path: Path, out_dir: Path, tmp_root: str, seed: int):
    """One input of cmd_preprocess: (grid, None) once its tokens are written,
    or (None, message) for a soft error, such as a stem no source id may be."""
    try:
        seq = sequence_from_midi_bytes(path.read_bytes(), source_id=path.stem, seed=seed)
        text = format_corpus([seq])
    except PsaeError as exc:
        return None, f"{type(exc).__name__}: {exc}"
    _atomic_write(out_dir / f"{path.stem}{TOKENS_SUFFIX}", text, _private_dir(tmp_root))
    return seq.grid, None


def cmd_preprocess(args: argparse.Namespace) -> int:
    """psae preprocess: a <stem>.tokens per MIDI file, and preprocess_summary.txt."""
    in_dir = Path(args.input_dir)
    files = sorted(p for p in in_dir.iterdir()
                   if p.suffix.lower() in MIDI_SUFFIXES and p.is_file()) if in_dir.is_dir() else []
    if not files:
        raise NoInputs(f"no MIDI files in {args.input_dir}")
    out_dir = Path(args.output_dir)
    # Soft errors the names decide: a stem that is not UTF-8 cannot seed draws
    # or name a row, and a stem an earlier file writes is taken.
    decided: dict[Path, str] = {}
    first_of: dict[str, Path] = {}
    for path in files:
        if _shown(path.name) != path.name.translate(_ESCAPED):
            decided[path] = "NonUtf8Name: the file name is not UTF-8"
        elif first_of.setdefault(path.stem, path) is not path:
            decided[path] = (f"DuplicateStem: {first_of[path.stem].name} already writes "
                             f"{path.stem}{TOKENS_SUFFIX}")
    done = iter(_map_files(_preprocess_file, [p for p in files if p not in decided],
                           out_dir, seed=args.seed))
    grid_histogram = {g: 0 for g in GridUnit}
    errors: list[str] = []
    for path in files:
        grid, message = (None, decided[path]) if path in decided else next(done)
        if message is None:
            grid_histogram[grid] += 1
        else:
            errors.append(f"error file={_shown(path.name)} message={message}")
    summary = [f"inputs={len(files)}", f"written={len(files) - len(errors)}",
               f"errors={len(errors)}"]
    summary += [f"grid_{g.value}={n}" for g, n in grid_histogram.items()] + errors
    _atomic_write(out_dir / "preprocess_summary.txt", "\n".join(summary) + "\n")
    print("\n".join(summary[:3 + len(grid_histogram)]))
    if errors:
        print(f"skipped {len(errors)} file(s); see preprocess_summary.txt", file=sys.stderr)
    return 0


def _augment_file(path: Path, out_dir: Path, tmp_root: str, policy: AugmentPolicy) -> list[str]:
    """One input of cmd_augment: writes its variants and returns their
    manifest lines."""
    expanded, manifest = [], []
    for seq in read_corpus_file(path):
        for variant in expand_sequence_detailed(seq, policy):
            expanded.append(variant.sequence)
            manifest.append("\t".join((
                variant.sequence.source_id, variant.source_id,
                str(variant.shift),
                "" if variant.truncation is None else str(variant.truncation))))
    _atomic_write(out_dir / path.name, format_corpus(expanded), _private_dir(tmp_root))
    return manifest


def cmd_augment(args: argparse.Namespace) -> int:
    """psae augment: the variants of each corpus file, and augment_manifest.tsv."""
    policy = AugmentPolicy(transpositions_per_seq=args.transpositions,
                           truncated_per_seq=args.truncated, truncation_min=args.trunc_min,
                           truncation_max=args.trunc_max, seed=args.seed)
    files = [p for p in sorted(Path(args.input_dir).glob(f"*{TOKENS_SUFFIX}")) if p.is_file()]
    if not files:
        raise NoInputs(f"no {TOKENS_SUFFIX} files in {args.input_dir}")
    out_dir = Path(args.output_dir)
    manifest = ["variant_id\tsource_id\tshift\ttruncation"]
    for block in _map_files(_augment_file, files, out_dir, policy=policy):
        manifest += block
    _atomic_write(out_dir / "augment_manifest.tsv", "\n".join(manifest) + "\n")
    print(f"inputs={len(files)} variants={len(manifest) - 1}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """psae train: a checkpoint and its .metrics and .timing logs. A flag
    whose dest names a TrainHyper field overrides the config file's."""
    run = load_run_config(args.config)
    for key, value in vars(args).items():
        if key in run["train"] and value is not None:
            run["train"][key] = value
    if run["train"]["epochs"] is None:
        raise ConfigError("epochs must be set via --epochs or the config file")
    config = ModelConfig(**run["model"])
    seed = next(s for s in (args.seed, run["seed"], 0) if s is not None)
    hyper = TrainHyper(seed=seed, **run["train"])
    sequences = read_corpus_dir(args.corpus)
    tokens = sum(len(s.tokens) for s in sequences)   # corpus rows hold no PAD
    metrics_lines: list[str] = []
    timing_lines: list[str] = []
    epoch_start, epoch_cpu = time.perf_counter(), time.process_time()

    def on_epoch(m: dict) -> None:
        nonlocal epoch_start, epoch_cpu
        now, cpu = time.perf_counter(), time.process_time()
        seconds, epoch_start = now - epoch_start, now
        cpu_seconds, epoch_cpu = cpu - epoch_cpu, cpu
        line = (f"epoch={m['epoch']} raw_loss={m['raw_loss']:.6f} "
                f"flooded_loss={m['flooded_loss']:.6f} "
                f"masked_accuracy={m['masked_accuracy']:.6f}")
        metrics_lines.append(line)
        seconds = max(seconds, 1e-9)
        timing_lines.append(f"epoch={m['epoch']} seconds={seconds:.3f} "
                            f"cpu_seconds={cpu_seconds:.3f} "
                            f"rows_per_s={len(sequences) / seconds:.1f} "
                            f"tokens_per_s={tokens / seconds:.1f}")
        print(line)

    checkpoint = train(sequences, config, hyper, on_epoch=on_epoch)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(out, save_checkpoint_bytes(checkpoint))
    _atomic_write(out.with_name(out.name + ".metrics"), "\n".join(metrics_lines) + "\n")
    # wall-clock numbers stay out of .metrics, which is byte-deterministic
    _atomic_write(out.with_name(out.name + ".timing"), "\n".join(timing_lines) + "\n")
    print(f"checkpoint={out}")
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    """psae score: the clip's scores, and with --per-note each note's."""
    checkpoint = load_checkpoint(args.model)
    seq = sequence_from_midi_path(args.midi, seed=args.seed)
    probs = note_probabilities(checkpoint, seq)
    score = excerpt_score(seq, probs)
    print(f"path={args.midi} notes={score.n_notes} "
          f"ai_probability={score.ai_probability:.6f} "
          f"human_probability={score.human_probability:.6f}")
    if args.per_note:
        for pos, p in zip(probs.positions, probs.probabilities):
            print(f"note position={int(pos)} probability={p:.6f}")
    return 0


def render_report_kv(report: EvalReport) -> str:
    """Machine-readable report; floats use %.17g so re-parsing is exact."""
    lines = [f"overall_auc={report.overall_auc:.17g}",
             f"scored={report.n_scored}",
             f"skipped={report.n_skipped}"]
    for key, values in report.group_aucs.items():
        for value, auc in values.items():
            n = sum(1 for row, _ in report.scores if row.groups.get(key) == value)
            auc_text = "n/a" if auc is None else f"{auc:.17g}"
            lines.append(f"group key={key} value={_shown(value)} auc={auc_text} n={n}")
    for row, sc in report.scores:
        lines.append(f"excerpt path={_shown(row.path)} label={row.label} "
                     f"ai_probability={sc.ai_probability:.17g} "
                     f"human_probability={sc.human_probability:.17g} "
                     f"notes={sc.n_notes}")
    for path, message in report.errors:
        lines.append(f"error path={_shown(path)} message={_shown(message)}")
    return "\n".join(lines) + "\n"


def parse_report_kv(text: str) -> dict:
    """Inverse of render_report_kv (used by tests and downstream tooling)."""
    out: dict = {"groups": {}, "excerpts": [], "errors": []}
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("group "):
            # key= never holds a space and auc=/n= are last, so value= may hold spaces
            head, auc, n = line[len("group "):].rsplit(" ", 2)
            kv = dict(item.split("=", 1) for item in (*head.split(" ", 1), auc, n))
            auc = None if kv["auc"] == "n/a" else float(kv["auc"])
            out["groups"].setdefault(kv["key"], {})[kv["value"]] = (auc, int(kv["n"]))
        elif line.startswith("excerpt "):
            # every field after path= is space-free, so path= may hold spaces
            kv = dict(item.split("=", 1) for item in line[len("excerpt "):].rsplit(" ", 4))
            out["excerpts"].append({"path": kv["path"], "label": kv["label"],
                                    "ai_probability": float(kv["ai_probability"]),
                                    "human_probability": float(kv["human_probability"]),
                                    "notes": int(kv["notes"])})
        elif line.startswith("error "):
            path_part, message = line[len("error "):].split(" message=", 1)
            out["errors"].append({"path": path_part[len("path="):], "message": message})
        else:
            key, value = line.split("=", 1)
            out[key] = float(value) if key == "overall_auc" else int(value)
    return out


def render_report_text(report: EvalReport) -> str:
    lines = [f"overall AUC: {report.overall_auc:.4f} "
             f"({report.n_scored} scored, {report.n_skipped} skipped)"]
    for key, values in report.group_aucs.items():
        lines.append("")
        lines.append(f"AUC by {key}:")
        for value, auc in values.items():
            n = sum(1 for row, _ in report.scores if row.groups.get(key) == value)
            auc_text = "n/a (single class)" if auc is None else f"{auc:.4f}"
            lines.append(f"  {_shown(value)}: {auc_text} (n={n})")
    if report.errors:
        lines.append("")
        lines.append("skipped files:")
        lines.extend(f"  {_shown(path)}: {_shown(message)}" for path, message in report.errors)
    return "\n".join(lines) + "\n"


def cmd_eval(args: argparse.Namespace) -> int:
    """psae eval: report.txt (also printed), report.kv and eval.timing."""
    checkpoint = load_checkpoint(args.model)
    start, cpu_start = time.perf_counter(), time.process_time()
    report = evaluate_manifest(checkpoint, args.manifest,
                               scorer=lambda p: sequence_from_midi_path(p, seed=args.seed))
    seconds = time.perf_counter() - start
    cpu_seconds = time.process_time() - cpu_start
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    text = render_report_text(report)
    _atomic_write(out_dir / "report.txt", text)
    _atomic_write(out_dir / "report.kv", render_report_kv(report))
    # wall-clock numbers stay out of report.kv and report.txt, which are byte-deterministic
    _atomic_write(out_dir / "eval.timing",
                  f"clips={report.n_scored} skipped={report.n_skipped} seconds={seconds:.3f} "
                  f"cpu_seconds={cpu_seconds:.3f} "
                  f"clips_per_s={report.n_scored / max(seconds, 1e-9):.2f} "
                  f"workers={parallel.thread_count(parallel.find_openblas() is not None)}\n")
    print(text, end="")
    if report.errors:
        print(f"skipped {len(report.errors)} file(s)", file=sys.stderr)
    return 0


# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psae",
        description="Train a masked pitch model on machine-made MIDI and "
                    "score new clips for machine provenance.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="MIDI directory -> token corpus")
    p.set_defaults(run=cmd_preprocess)
    p.add_argument("--in", dest="input_dir", required=True)
    p.add_argument("--out", dest="output_dir", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("augment", help="expand a token corpus")
    p.set_defaults(run=cmd_augment)
    p.add_argument("--in", dest="input_dir", required=True)
    p.add_argument("--out", dest="output_dir", required=True)
    p.add_argument("--transpositions", type=int, default=AugmentPolicy.transpositions_per_seq)
    p.add_argument("--truncated", type=int, default=AugmentPolicy.truncated_per_seq)
    p.add_argument("--trunc-min", type=int, default=AugmentPolicy.truncation_min)
    p.add_argument("--trunc-max", type=int, default=AugmentPolicy.truncation_max)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("train", help="train the masked pitch model")
    p.set_defaults(run=cmd_train)
    p.add_argument("--corpus", required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.add_argument("--epochs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--flood-b", type=float)

    p = sub.add_parser("score", help="score one MIDI file")
    p.set_defaults(run=cmd_score)
    p.add_argument("--model", required=True)
    p.add_argument("--midi", required=True)
    p.add_argument("--per-note", action="store_true")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("eval", help="score a labeled manifest and report AUCs")
    p.set_defaults(run=cmd_eval)
    p.add_argument("--model", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    # built per call, so that it binds cmd_* as named now: a tracer may wrap them
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (PsaeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
