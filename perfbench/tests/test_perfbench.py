"""Tests of the benchmark itself: span arithmetic, metric names, input
determinism and planted files. Run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import psae  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
from spans import Patcher, Recorder, Span, self_times, totals_by_name  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, start, end, parent):
    s = Span(name, start, parent, op=1)
    s.end = end
    return s


def test_self_time_subtracts_nested_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("a.child", 2.0, 3.0, 1),
        span("b", 5.0, 9.0, 0),
        span("b.first", 5.5, 6.5, 3),
        span("b.second", 7.0, 8.0, 3),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 2.0, 1.0, 1.0])
    totals = totals_by_name(spans)
    assert totals["b"]["total_s"] == pytest.approx(4.0)
    assert totals["b"]["self_s"] == pytest.approx(2.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [span("p", 0.0, 10.0, -1), span("c1", 2.0, 6.0, 0),
             span("c2", 4.0, 8.0, 0), span("c3", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_links_parents_and_operations():
    ticks = iter(range(100))
    rec = Recorder(clock=lambda: float(next(ticks)))
    with rec.operation("op"):
        with rec.span("outer"):
            with rec.span("inner"):
                pass
    with rec.operation("op"):
        pass
    names = [s.name for s in rec.spans]
    assert names == ["op", "outer", "inner", "op"]
    assert [s.parent for s in rec.spans] == [-1, 0, 1, -1]
    assert [s.op for s in rec.spans] == [1, 1, 1, 2]
    assert self_times(rec.spans)[:3] == [2.0, 2.0, 1.0]


def test_patcher_restores_in_reverse_order():
    class Owner:
        value = 1

    p = Patcher()
    p.wrap(Owner, "value", lambda old: old + 10)
    p.wrap(Owner, "value", lambda old: old * 2)
    assert Owner.value == 22
    p.restore()
    assert Owner.value == 1


def test_metric_names_follow_the_grammar():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
    for bad in ("", "_x", "a b", "a/b", "x" * 65, "nn.matmul:fwd"):
        assert not NAME.match(bad)


def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert listed == layers.PER_LAYER


def test_generator_is_deterministic_per_seed():
    a = inputs.prep_corpus(psae, 7, 40)
    b = inputs.prep_corpus(psae, 7, 40)
    c = inputs.prep_corpus(psae, 8, 40)
    assert [(f.name, f.data) for f in a] == [(f.name, f.data) for f in b]
    assert [f.data for f in a] != [f.data for f in c]
    assert [c.data for c in inputs.score_clips(psae, 3)] == \
        [c.data for c in inputs.score_clips(psae, 3)]
    rows1 = inputs.train_corpus(psae, 5, 2)
    rows2 = inputs.train_corpus(psae, 5, 2)
    assert all(np.array_equal(x.tokens, y.tokens) for x, y in zip(rows1, rows2))
    assert len(rows1) == 62


def test_valid_inputs_have_the_planned_shape():
    files = [f for f in inputs.prep_corpus(psae, 2, 24) if not f.expected_error]
    for f in files:
        seq = psae.sequence_from_midi_bytes(f.data, f.name[:-4])
        assert seq.grid.value == f.grid
    for clip in inputs.score_clips(psae, 2):
        if clip.expected_error is None:
            seq = psae.sequence_from_midi_bytes(clip.data, clip.name)
            assert len(seq) == clip.length
            assert (seq.tokens < 128).all()


@pytest.mark.parametrize("planted", inputs.planted_files(
    psae, inputs.MarkovMelody(0), np.random.default_rng(0)), ids=lambda p: p.expected_error)
def test_planted_file_raises_the_expected_error(planted):
    with pytest.raises(psae.PsaeError) as info:
        psae.sequence_from_midi_bytes(planted.data, "planted")
    assert type(info.value).__name__ == planted.expected_error
