"""Per-layer tracing of psae from outside the package.

Each public function is wrapped where its caller looks it up (for example
``psae.nn.matmul``, ``psae.scoring.forward``, ``psae.cli.train``), so no
source file changes. An ``nn`` op's forward is timed by its wrapper and its
backward by wrapping the closure stored on the tensor it returns. Layers
are the modules of psae; ``PER_LAYER`` lists every metric a traced run
reports, and ``Tracer.metrics`` computes them from the recorder.
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from spans import Patcher, Recorder, totals_by_name

NN_OPS = ("matmul", "add", "add_bias", "mul", "neg", "absolute", "reshape", "swap_axes",
          "gelu", "layer_norm", "softmax", "embedding_lookup", "gather_positions",
          "scaled_dot_product_attention", "softmax_cross_entropy")
SCORE_LENGTHS = (128, 256, 384)
MIB = 1024 * 1024

# (owner module, attribute, span name): plain timed calls.
_CALLS = (
    ("cli", "cmd_preprocess", "cli.cmd_preprocess"),
    ("cli", "cmd_augment", "cli.cmd_augment"),
    ("cli", "cmd_train", "cli.cmd_train"),
    ("cli", "cmd_eval", "cli.cmd_eval"),
    ("cli", "train", "model.train"),
    ("model", "make_mlm_batch", "model.make_mlm_batch"),
    ("cli", "save_checkpoint_bytes", "checkpoint.save"),
    ("cli", "load_checkpoint", "checkpoint.load"),
    ("scoring", "compute_auc", "scoring.compute_auc"),
    ("pipeline", "parse_smf", "midi_ingest.parse_smf"),
    ("pipeline", "extract_monophonic_notes", "midi_ingest.extract_monophonic_notes"),
    ("pipeline", "resolve_triplets", "quantize.resolve_triplets"),
)


def _catalog() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for op in NN_OPS:
        out += [(f"nn.{op}.fwd_ms", "ms", "lower"), (f"nn.{op}.bwd_ms", "ms", "lower"),
                (f"nn.{op}.calls", "count", "lower"), (f"nn.{op}.mbytes", "MB", "lower")]
    out += [("nn.Tensor.backward.self_ms", "ms", "lower"),
            ("nn.AdamW.step.self_ms", "ms", "lower"),
            ("model.train.self_ms", "ms", "lower"),
            ("model.make_mlm_batch.self_ms", "ms", "lower"),
            ("model.forward.self_ms", "ms", "lower"),
            ("model.forward.calls", "count", "lower"),
            ("model.forward.tokens", "count", "lower"),
            ("model.pad_fraction", "ratio", "lower"),
            ("model.masked_fraction", "ratio", "higher"),
            ("scoring.note_probabilities.self_ms", "ms", "lower"),
            ("scoring.variants", "count", "lower"),
            ("scoring.compute_auc.self_ms", "ms", "lower"),
            ("scoring.graph_outputs", "count", "lower")]
    out += [(f"scoring.peak_mib_{n}", "MiB", "lower") for n in SCORE_LENGTHS]
    out += [("checkpoint.load_ms", "ms", "lower"),
            ("checkpoint.save_ms", "ms", "lower"),
            ("midi_ingest.parse_smf.self_ms", "ms", "lower"),
            ("midi_ingest.extract_monophonic_notes.self_ms", "ms", "lower"),
            ("midi_ingest.rejected", "count", "lower"),
            ("quantize.resolve_triplets.self_ms", "ms", "lower"),
            ("quantize.quantize_to_pitch_sequence.self_ms", "ms", "lower"),
            ("quantize.steps_out", "count", "higher"),
            ("quantize.rejected", "count", "lower"),
            ("pipeline.sequence_from_midi_bytes.self_ms", "ms", "lower"),
            ("augment.expand_sequence_detailed.self_ms", "ms", "lower"),
            ("augment.rows_out", "count", "higher"),
            ("corpus.format_sequence.self_ms", "ms", "lower"),
            ("corpus.read_corpus_file.self_ms", "ms", "lower"),
            ("corpus.lines", "count", "higher"),
            ("cli.cmd_preprocess.self_ms", "ms", "lower"),
            ("cli.cmd_augment.self_ms", "ms", "lower"),
            ("cli.cmd_train.self_ms", "ms", "lower"),
            ("cli.cmd_eval.self_ms", "ms", "lower"),
            ("trace.peak_mib", "MiB", "lower"),
            ("trace.overhead_pct", "%", "lower")]
    return out


PER_LAYER = _catalog()


class Tracer:
    """Installs the wrappers on an imported psae and turns the recorded
    spans and counters into per-layer metrics."""

    def __init__(self, psae, recorder: Recorder):
        self.psae = psae
        self.rec = recorder
        self.patcher = Patcher()
        self.peak_bytes = 0          # tracemalloc peak, folded over resets
        self.clip_peaks: dict[int, int] = {}

    # ------------------------------------------------------------ wrappers

    def _timed(self, name: str, after=None):
        rec = self.rec

        def make(fn):
            def wrapper(*args, **kwargs):
                index = rec.begin(name)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.end(index)
                if after is not None:
                    after(out, args)
                return out
            return wrapper
        return make

    def _nn_op(self, op: str):
        rec = self.rec
        Tensor = self.psae.nn.Tensor
        fwd, bwd = f"nn.{op}.fwd", f"nn.{op}.bwd"

        def make(fn):
            def wrapper(*args, **kwargs):
                index = rec.begin(fwd)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    rec.end(index)
                nbytes = out.data.nbytes
                for a in (*args, *kwargs.values()):
                    if isinstance(a, Tensor):
                        nbytes += a.data.nbytes
                    elif isinstance(a, np.ndarray):
                        nbytes += a.nbytes
                rec.count(f"nn.{op}.calls")
                rec.count(f"nn.{op}.mbytes", nbytes / 1e6)
                inner = out._backward
                if inner is not None:
                    def timed_backward(g):
                        b = rec.begin(bwd)
                        try:
                            inner(g)
                        finally:
                            rec.end(b)
                    out._backward = timed_backward
                return out
            return wrapper
        return make

    def _pipeline(self, fn):
        """sequence_from_midi_bytes: counts rejections by the module whose
        error class raised them."""
        rec, PsaeError = self.rec, self.psae.PsaeError

        def wrapper(*args, **kwargs):
            index = rec.begin("pipeline.sequence_from_midi_bytes")
            try:
                return fn(*args, **kwargs)
            except PsaeError as exc:
                layer = type(exc).__module__.rsplit(".", 1)[-1]
                rec.count(f"{layer}.rejected")
                raise
            finally:
                rec.end(index)
        return wrapper

    def _forward(self, fn):
        rec = self.rec
        timed = self._timed("model.forward")(fn)

        def wrapper(params, input_tokens, *args, **kwargs):
            out = timed(params, input_tokens, *args, **kwargs)
            tokens = np.asarray(input_tokens)
            config = params.config
            rec.count("model.forward.calls")
            rec.count("model.forward.tokens", tokens.size)
            rec.count("model.forward.pad_tokens", int((tokens == config.pad_id).sum()))
            rec.count("model.forward.mask_tokens", int((tokens == config.mask_id).sum()))
            if out.requires_grad and rec.inside("scoring.note_probabilities"):
                rec.count("scoring.graph_outputs")
            return out
        return wrapper

    def _note_probabilities(self, fn):
        timed = self._timed("scoring.note_probabilities")(fn)

        def wrapper(model, seq, *args, **kwargs):
            self._fold_peak()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = timed(model, seq, *args, **kwargs)
            clip_peak = tracemalloc.get_traced_memory()[1] - base
            self._fold_peak()
            length = len(seq.tokens)
            self.clip_peaks[length] = max(self.clip_peaks.get(length, 0), clip_peak)
            self.rec.count("scoring.variants", len(out))
            return out
        return wrapper

    def _fold_peak(self) -> None:
        if tracemalloc.is_tracing():
            self.peak_bytes = max(self.peak_bytes, tracemalloc.get_traced_memory()[1])

    def install(self) -> None:
        psae, p, rec = self.psae, self.patcher, self.rec
        mods = {name: getattr(psae, name) for name in
                ("cli", "model", "scoring", "pipeline", "corpus", "nn")}
        for owner, attr, name in _CALLS:
            p.wrap(mods[owner], attr, self._timed(name))
        p.wrap(mods["pipeline"], "quantize_to_pitch_sequence",
               self._timed("quantize.quantize_to_pitch_sequence",
                           lambda out, _: rec.count("quantize.steps_out", len(out.tokens))))
        for owner in ("cli", "pipeline"):
            p.wrap(mods[owner], "sequence_from_midi_bytes", self._pipeline)
        p.wrap(mods["cli"], "expand_sequence_detailed",
               self._timed("augment.expand_sequence_detailed",
                           lambda out, _: rec.count("augment.rows_out", len(out))))
        p.wrap(mods["corpus"], "format_sequence",
               self._timed("corpus.format_sequence", lambda out, _: rec.count("corpus.lines")))
        for owner in ("cli", "corpus"):
            p.wrap(mods[owner], "read_corpus_file",
                   self._timed("corpus.read_corpus_file",
                               lambda out, _: rec.count("corpus.lines", len(out))))
        for owner in ("model", "scoring"):
            p.wrap(mods[owner], "forward", self._forward)
        p.wrap(mods["scoring"], "note_probabilities", self._note_probabilities)
        for op in NN_OPS:
            p.wrap(mods["nn"], op, self._nn_op(op))
        p.wrap(mods["nn"].Tensor, "backward", self._timed("nn.Tensor.backward"))
        p.wrap(mods["nn"].AdamW, "step", self._timed("nn.AdamW.step"))

    def restore(self) -> None:
        self._fold_peak()
        self.patcher.restore()

    # ------------------------------------------------------------- metrics

    def metrics(self, overhead_pct: float) -> dict[str, float]:
        by_name = totals_by_name(self.rec.spans)
        counters = self.rec.counters

        def self_ms(name: str) -> float:
            return by_name.get(name, {}).get("self_s", 0.0) * 1e3

        values: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            if name in counters:
                values[name] = counters[name]
            elif name.endswith(".fwd_ms") or name.endswith(".bwd_ms"):
                values[name] = self_ms(name[:-3])
            elif name.endswith(".self_ms"):
                values[name] = self_ms(name[:-len(".self_ms")])
            else:
                values[name] = 0.0
        values["checkpoint.load_ms"] = by_name.get("checkpoint.load", {}).get("total_s", 0) * 1e3
        values["checkpoint.save_ms"] = by_name.get("checkpoint.save", {}).get("total_s", 0) * 1e3
        tokens = counters.get("model.forward.tokens", 0)
        if tokens:
            values["model.pad_fraction"] = counters["model.forward.pad_tokens"] / tokens
            values["model.masked_fraction"] = counters["model.forward.mask_tokens"] / tokens
        for n in SCORE_LENGTHS:
            values[f"scoring.peak_mib_{n}"] = self.clip_peaks.get(n, 0) / MIB
        values["trace.peak_mib"] = self.peak_bytes / MIB
        values["trace.overhead_pct"] = overhead_pct
        return values
