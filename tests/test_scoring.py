"""Per-note masked probabilities, score averaging, AUC, manifests."""

import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from psae import model, nn, parallel, scoring
from psae.quantize import REST_ID, GridUnit, PitchSequence, SequenceTooLong
from psae.scoring import (ExcerptScore, ManifestMalformed, ManifestRow,
                          NoScoreablePositions, NoteProbabilities, SingleClassOnly,
                          ai_probability, compute_auc, evaluate_manifest,
                          _scoreable_positions, note_probabilities, read_manifest,
                          score_sequence)
from helpers import concurrent_here

MINI = model.ModelConfig(vocab_size=12, embed_dim=8, hidden_dim=8, num_layers=2,
                         num_heads=2, ffn_dim=16, max_position=64, output_classes=9)


@pytest.fixture(scope="module")
def mini_params():
    return model.init_model(MINI, 0)


def mini_seq(tokens, source_id="m"):
    # mini vocabulary reuses PitchSequence via plain arrays; REST for MINI is id 9
    return PitchSequence(tokens=np.asarray(tokens, dtype=np.int16),
                         grid=GridUnit.SIXTEENTH, source_id=source_id)


# ---------------------------------------------------- note probabilities

def test_probabilities_are_valid_and_normalized(mini_params):
    rng = np.random.default_rng(0)
    seq = mini_seq(rng.integers(0, 9, size=20))
    probs = note_probabilities(mini_params, seq)
    assert len(probs) == 20
    assert ((probs.probabilities > 0) & (probs.probabilities < 1)).all()
    # the full 9-class distribution at a masked position sums to 1
    tokens = np.asarray(seq.tokens, dtype=np.int64)[None, :].copy()
    tokens[0, 5] = MINI.mask_id
    logits = model.forward(mini_params, tokens).data[0, 5]
    e = np.exp(logits - logits.max())
    assert abs(e.sum() / e.sum() - 1.0) < 1e-5
    assert abs((e / e.sum()).sum() - 1.0) < 1e-5


def test_batched_equals_sequential_masking(mini_params):
    rng = np.random.default_rng(1)
    seq = mini_seq(rng.integers(0, 9, size=24))
    batched = note_probabilities(mini_params, seq)
    tokens = np.asarray(seq.tokens, dtype=np.int64)
    for i, position in enumerate(batched.positions):
        single = tokens[None, :].copy()
        single[0, position] = MINI.mask_id
        logits = model.forward(mini_params, single).data[0, position].astype(np.float64)
        e = np.exp(logits - logits.max())
        p = (e / e.sum())[tokens[position]]
        assert abs(p - batched.probabilities[i]) < 1e-6


def one_at_a_time(params, seq, whole_notes=False):
    """The oracle: one model.forward per masked group, mean true-pitch
    probability over the group."""
    tokens = np.asarray(seq.tokens, dtype=np.int64)
    out = []
    for positions in _scoreable_positions(tokens, params.config.output_classes, whole_notes):
        single = tokens[None, :].copy()
        single[0, positions] = params.config.mask_id
        logits = model.forward(params, single).data[0, positions].astype(np.float64)
        e = np.exp(logits - logits.max(axis=-1, keepdims=True))
        p = e / e.sum(axis=-1, keepdims=True)
        out.append(p[np.arange(len(positions)), tokens[positions]].mean())
    return np.array(out)


def assert_matches_one_at_a_time(params, seq, whole_notes=False):
    got = note_probabilities(params, seq, whole_notes).probabilities
    np.testing.assert_allclose(got, one_at_a_time(params, seq, whole_notes), rtol=0, atol=1e-6)


def sustained_notes(rng, length):
    """MINI tokens in runs of 1-5 equal pitches with a few rests:
    whole-note groups of several steps."""
    tokens = []
    while len(tokens) < length:
        pitch = int(rng.integers(0, 9)) if rng.random() > 0.15 else MINI.rest_id
        tokens += [pitch] * int(rng.integers(1, 6))
    return mini_seq(tokens[:length])


def test_whole_note_groups_match_one_at_a_time(mini_params):
    rng = np.random.default_rng(13)
    for _ in range(6):
        seq = sustained_notes(rng, int(rng.integers(10, 40)))
        assert_matches_one_at_a_time(mini_params, seq, whole_notes=True)
        assert_matches_one_at_a_time(mini_params, seq)


@pytest.mark.parametrize("num_layers", [1, 3])
def test_depths_match_one_at_a_time(num_layers):
    params = model.init_model(replace(MINI, num_layers=num_layers), 14)
    rng = np.random.default_rng(15)
    for _ in range(4):
        seq = sustained_notes(rng, int(rng.integers(10, 40)))
        assert_matches_one_at_a_time(params, seq)
        assert_matches_one_at_a_time(params, seq, whole_notes=True)


def test_float64_params_match_one_at_a_time(mini_params):
    params = mini_params.cast(np.float64)
    rng = np.random.default_rng(16)
    seq = sustained_notes(rng, 30)
    assert_matches_one_at_a_time(params, seq)
    assert_matches_one_at_a_time(params, seq, whole_notes=True)


def test_near_one_hot_attention_takes_exact_fallback(monkeypatch):
    """Scaled-up q/k weights make one key carry almost all of a query's
    attention, so masking it must take the exact recompute: the corrected
    sums would cancel to rounding noise (errors near 1e-4 at this scale).
    Some MASK keys here also outscore a query's row max by more than
    _EXP_LIMIT, which must be recomputed too (errors near 2e-5)."""
    params = model.init_model(MINI, 17)
    for name in ("attn_q_weight", "attn_k_weight"):
        params.tensors[name].data *= np.float32(300.0)
    fallbacks = []
    exact = scoring._FirstLayer._exact

    def counting(self, heads, queries, masked, weight):
        fallbacks.append(int((masked != queries[:, None]).all(axis=-1).sum()))
        return exact(self, heads, queries, masked, weight)

    monkeypatch.setattr(scoring._FirstLayer, "_exact", counting)
    rng = np.random.default_rng(20)
    for _ in range(4):
        seq = sustained_notes(rng, 40)
        assert_matches_one_at_a_time(params, seq)
        assert_matches_one_at_a_time(params, seq, whole_notes=True)
    assert sum(fallbacks) > 0


def test_max_length_clip_is_exact_and_bounded():
    params = model.init_model(model.ModelConfig(), 19)
    for name, t in params.tensors.items():
        if name.endswith("_weight") or name.endswith("_embedding"):
            t.data *= np.float32(10.0)
    rng = np.random.default_rng(20)
    length = params.config.max_position
    seq = PitchSequence(tokens=rng.integers(40, 90, size=length).astype(np.int16),
                        grid=GridUnit.SIXTEENTH, source_id="long")
    tracemalloc.start()
    try:
        got = note_probabilities(params, seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 2**20, f"peak {peak / 2**20:.0f} MiB"
    tokens = np.asarray(seq.tokens, dtype=np.int64)
    for i in rng.choice(length, size=16, replace=False):
        single = tokens[None, :].copy()
        single[0, i] = params.config.mask_id
        z = model.forward(params, single).data[0, i].astype(np.float64)
        e = np.exp(z - z.max())
        assert abs((e / e.sum())[tokens[i]] - got.probabilities[i]) < 1e-6


def test_scoring_leaves_params_untouched(mini_params):
    params = mini_params.cast(np.float32)
    params.tensors["head_bias"].requires_grad = False
    flags = {name: t.requires_grad for name, t in params.tensors.items()}
    before = {name: t.data.copy() for name, t in params.tensors.items()}
    note_probabilities(params, mini_seq(np.arange(20) % 9))
    for name, t in params.tensors.items():
        assert t.grad is None and t.requires_grad == flags[name]
        assert (t.data == before[name]).all()


def test_untrained_model_predicts_near_uniform():
    params = model.init_model(model.ModelConfig(), 3)
    rng = np.random.default_rng(2)
    seq = PitchSequence(tokens=rng.integers(0, 128, size=256).astype(np.int16),
                        grid=GridUnit.SIXTEENTH, source_id="u")
    probs = note_probabilities(params, seq)
    mean = probs.probabilities.mean()
    assert 0.5 / 128 < mean < 1.5 / 128


def test_rest_positions_skipped(mini_params):
    tokens = np.array([1, MINI.rest_id, 3, MINI.rest_id, 5, 7], dtype=np.int16)
    seq = PitchSequence(tokens=tokens, grid=GridUnit.SIXTEENTH, source_id="r")
    probs = note_probabilities(mini_params, seq)
    assert probs.positions.tolist() == [0, 2, 4, 5]


def test_whole_note_masking_groups_runs(mini_params):
    tokens = np.array([4, 4, 4, 2, 2, MINI.rest_id, 4, 4], dtype=np.int16)
    seq = PitchSequence(tokens=tokens, grid=GridUnit.SIXTEENTH, source_id="w")
    grouped = note_probabilities(mini_params, seq, whole_notes=True)
    assert grouped.positions.tolist() == [0, 3, 6]  # run starts
    stepwise = note_probabilities(mini_params, seq)
    assert len(stepwise) == 7


def test_too_few_scoreable_positions(mini_params):
    tokens = np.array([5, MINI.rest_id, MINI.rest_id], dtype=np.int16)
    with pytest.raises(NoScoreablePositions):
        note_probabilities(mini_params, PitchSequence(tokens=tokens,
                                                      grid=GridUnit.SIXTEENTH))


def test_sequence_longer_than_positions_rejected(mini_params):
    seq = mini_seq(np.zeros(MINI.max_position + 1, dtype=np.int16) + 1)
    with pytest.raises(SequenceTooLong):
        note_probabilities(mini_params, seq)


def test_scoring_is_deterministic(mini_params):
    rng = np.random.default_rng(4)
    seq = mini_seq(rng.integers(0, 9, size=30))
    a = note_probabilities(mini_params, seq).probabilities
    b = note_probabilities(mini_params, seq).probabilities
    assert (a == b).all()


# ------------------------------------------------- chunks on two threads

def chunked(monkeypatch, size):
    monkeypatch.setattr(scoring, "_chunk_size", lambda config, length, itemsize: size)


@pytest.mark.parametrize("whole_notes", [False, True])
def test_chunks_give_the_same_bits_on_one_and_two_workers(monkeypatch, mini_params,
                                                          whole_notes):
    seq = sustained_notes(np.random.default_rng(21), 60)
    n_groups = len(_scoreable_positions(np.asarray(seq.tokens), MINI.output_classes,
                                        whole_notes))
    size = -(-n_groups // 5)                 # at most five chunks
    chunked(monkeypatch, size)
    assert len(range(0, n_groups, size)) % 2 == 1   # one task scores a chunk more
    monkeypatch.setattr(parallel, "worker_count", lambda: 2)
    two = note_probabilities(mini_params, seq, whole_notes).probabilities
    monkeypatch.setattr(parallel, "worker_count", lambda: 1)
    one = note_probabilities(mini_params, seq, whole_notes).probabilities
    assert two.tobytes() == one.tobytes()
    np.testing.assert_allclose(one, one_at_a_time(mini_params, seq, whole_notes),
                               rtol=0, atol=1e-6)


@pytest.mark.parametrize("n_chunks", [4, 5])
def test_one_map_per_clip_maps_each_chunk_once(monkeypatch, mini_params, n_chunks):
    seq = sustained_notes(np.random.default_rng(24), 60)
    n_groups = len(_scoreable_positions(np.asarray(seq.tokens), MINI.output_classes, False))
    size = -(-n_groups // n_chunks)
    assert len(range(0, n_groups, size)) == n_chunks
    chunked(monkeypatch, size)
    item_counts = []
    section_map = parallel.Section.map

    def spy(section, fn, items):
        item_counts.append(len(items))
        return section_map(section, fn, items)

    monkeypatch.setattr(parallel.Section, "map", spy)
    probs = {}
    for workers in (1, 2):
        monkeypatch.setattr(parallel, "worker_count", lambda n=workers: n)
        probs[workers] = note_probabilities(mini_params, seq).probabilities
        assert item_counts == [n_chunks]
        item_counts.clear()
    assert probs[1].tobytes() == probs[2].tobytes()
    np.testing.assert_allclose(probs[2], one_at_a_time(mini_params, seq), rtol=0, atol=1e-6)


def test_scoring_restores_blas_threads_also_when_a_chunk_raises(monkeypatch, mini_params):
    blas = parallel.find_openblas()
    if blas is None:
        pytest.skip("no OpenBLAS with a known thread-count symbol")
    seq = mini_seq(np.random.default_rng(22).integers(0, 9, size=20))
    chunked(monkeypatch, 5)
    threads_seen = []
    head = scoring._head

    def recording_head(t, x):
        threads_seen.append(blas.get_threads())
        return head(t, x)

    before = blas.get_threads()
    monkeypatch.setattr(scoring, "_head", recording_head)
    note_probabilities(mini_params, seq)
    assert threads_seen == [1] * 4
    assert blas.get_threads() == before

    def failing_head(t, x):
        threads_seen.append(None)
        if len(threads_seen) == 6:          # its second call in this scoring run
            raise RuntimeError("chunk failed")
        return head(t, x)

    monkeypatch.setattr(scoring, "_head", failing_head)
    with pytest.raises(RuntimeError, match="chunk failed"):
        note_probabilities(mini_params, seq)
    assert blas.get_threads() == before


@pytest.mark.parametrize("traced", [True, False])
def test_chunks_run_on_the_caller_under_a_tracer(monkeypatch, mini_params, traced):
    seq = mini_seq(np.random.default_rng(23).integers(0, 9, size=20))
    chunked(monkeypatch, 5)
    plain = note_probabilities(mini_params, seq).probabilities
    threads = []
    gelu = nn.gelu

    def recording_gelu(x):
        threads.append(threading.current_thread())
        return gelu(x)

    monkeypatch.setattr(nn, "gelu", recording_gelu)
    if traced:
        backward = nn.Tensor.backward
        monkeypatch.setattr(nn.Tensor, "backward", lambda self: backward(self))
    got = note_probabilities(mini_params, seq).probabilities
    assert len(threads) == MINI.num_layers * 4     # one FFN per layer and chunk
    on_caller = [thread is threading.current_thread() for thread in threads]
    assert all(on_caller) == (traced or not concurrent_here())
    assert got.tobytes() == plain.tobytes()


@pytest.mark.parametrize("num_layers", [2, 4])
@pytest.mark.parametrize("length", [16, 128, 384])
def test_each_chunk_fits_its_worker_share_of_the_budget(num_layers, length):
    # up to parallel.MAX_WORKERS chunks are in flight at once
    config = model.ModelConfig(num_layers=num_layers)
    share = (scoring._SCORING_BUDGET_MIB << 20) // parallel.MAX_WORKERS
    width = config.ffn_dim if num_layers <= 2 else max(config.ffn_dim, config.num_heads * length)
    per_variant = scoring._LIVE_COPIES * 4 * length * width   # live float32 activations
    chunk = scoring._chunk_size(config, length, 4)
    assert chunk * per_variant <= share < (chunk + 1) * per_variant


def test_clip_that_fits_one_chunk_starts_no_thread(monkeypatch, mini_params):
    def forbidden(*args):
        raise AssertionError("a one-chunk clip must not start a thread or look up BLAS")

    monkeypatch.setattr(parallel, "find_openblas", forbidden)
    monkeypatch.setattr(parallel.futures, "ThreadPoolExecutor", forbidden)
    seq = mini_seq(np.random.default_rng(24).integers(0, 9, size=20))
    assert scoring._chunk_size(MINI, 20, 4) >= 20
    assert_matches_one_at_a_time(mini_params, seq)


# -------------------------------------------------------- ai_probability

def test_mean_of_constant_probabilities():
    probs = NoteProbabilities(np.array([0.5, 0.5, 0.5, 0.5]), np.arange(4))
    assert ai_probability(probs) == pytest.approx(0.5)


def test_mean_matches_direct_evaluation():
    probs = NoteProbabilities(np.array([0.2, 0.4, 0.9]), np.arange(3))
    assert ai_probability(probs) == pytest.approx(0.5)


def test_mean_idempotent_on_repeats():
    for value in (0.123, 0.9, 1 / 128):
        probs = NoteProbabilities(np.full(17, value), np.arange(17))
        assert ai_probability(probs) == pytest.approx(value, abs=1e-15)


def test_mean_bounded_by_extremes():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.01, 0.99, size=9)
    mean = ai_probability(NoteProbabilities(p, np.arange(9)))
    assert p.min() < mean < p.max()


def test_human_probability_is_exact_complement():
    score = ExcerptScore("x", ai_probability=0.3125, n_notes=10)
    assert score.ai_probability + score.human_probability == 1.0


# ------------------------------------------------------------------- AUC

def test_auc_perfect_separation():
    assert compute_auc([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0
    assert compute_auc([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0]) == 0.0


def test_auc_all_ties_is_half():
    assert compute_auc([0.5] * 10, [1, 0] * 5) == 0.5


def pairwise_auc(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    return wins / (len(pos) * len(neg))


def test_auc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(4, 60))
        scores = rng.integers(0, 6, size=n) / 5.0  # heavy ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert abs(compute_auc(scores, labels) - pairwise_auc(scores, labels)) < 1e-12


def test_auc_invariant_under_monotone_transforms():
    rng = np.random.default_rng(7)
    scores = rng.normal(size=50)
    labels = rng.integers(0, 2, size=50)
    labels[0], labels[1] = 0, 1
    base = compute_auc(scores, labels)
    assert compute_auc(3.0 * scores + 7.0, labels) == pytest.approx(base, abs=1e-12)
    assert compute_auc(1 / (1 + np.exp(-scores)), labels) == pytest.approx(base, abs=1e-12)


def test_auc_label_flip_complements():
    rng = np.random.default_rng(8)
    scores = rng.normal(size=41)  # continuous: no ties
    labels = rng.integers(0, 2, size=41)
    labels[0], labels[1] = 0, 1
    assert compute_auc(scores, labels) + compute_auc(scores, 1 - labels) == pytest.approx(1.0)


def test_auc_single_class_rejected():
    with pytest.raises(SingleClassOnly):
        compute_auc([0.1, 0.2], [1, 1])


# -------------------------------------------------------------- manifest

def fake_scorer(sequences):
    table = {f"f{i}": seq for i, seq in enumerate(sequences)}
    return lambda path: table[path]


def test_evaluate_manifest_separation(mini_params):
    trained = model.train([np.arange(8) % 9 for _ in range(32)], MINI,
                          model.TrainHyper(epochs=25, batch_size=16, seed=0))
    in_dist = [mini_seq(np.arange(8) % 9, f"in{i}") for i in range(4)]
    noise_rng = np.random.default_rng(9)
    noise = [mini_seq(noise_rng.integers(0, 9, size=8), f"n{i}") for i in range(4)]
    sequences = in_dist + noise
    rows = ([ManifestRow(f"f{i}", "ai", {"style": "scale"}) for i in range(4)]
            + [ManifestRow(f"f{i + 4}", "human", {"style": "noise"}) for i in range(4)])
    report = evaluate_manifest(trained, rows, scorer=fake_scorer(sequences))
    assert report.overall_auc == 1.0
    assert report.n_scored == 8 and report.n_skipped == 0


def test_group_aucs_match_standalone_subsets(mini_params):
    rng = np.random.default_rng(10)
    sequences = [mini_seq(rng.integers(0, 9, size=12), str(i)) for i in range(12)]
    styles = ["a"] * 6 + ["b"] * 6
    labels = ["human", "ai"] * 6
    rows = [ManifestRow(f"f{i}", labels[i], {"style": styles[i]}) for i in range(12)]
    report = evaluate_manifest(mini_params, rows, scorer=fake_scorer(sequences))
    for value in ("a", "b"):
        keep = [i for i in range(12) if styles[i] == value]
        subset_scores = [score_sequence(mini_params, sequences[i]).human_probability
                         for i in keep]
        subset_labels = [1 if labels[i] == "human" else 0 for i in keep]
        assert report.group_aucs["style"][value] == pytest.approx(
            compute_auc(subset_scores, subset_labels), abs=1e-12)


def test_single_class_group_reported_as_none(mini_params):
    rng = np.random.default_rng(11)
    sequences = [mini_seq(rng.integers(0, 9, size=12), str(i)) for i in range(4)]
    rows = [ManifestRow("f0", "human", {"style": "onlyhuman"}),
            ManifestRow("f1", "human", {"style": "onlyhuman"}),
            ManifestRow("f2", "human", {}),
            ManifestRow("f3", "ai", {})]
    report = evaluate_manifest(mini_params, rows, scorer=fake_scorer(sequences))
    assert report.group_aucs["style"]["onlyhuman"] is None


def test_failing_rows_collected_not_fatal(mini_params):
    rng = np.random.default_rng(12)
    sequences = [mini_seq(rng.integers(0, 9, size=12), str(i)) for i in range(2)]
    scorer = fake_scorer(sequences)
    rows = [ManifestRow("f0", "human", {}), ManifestRow("f1", "ai", {}),
            ManifestRow("missing", "ai", {})]

    def flaky(path):
        if path == "missing":
            raise FileNotFoundError(path)
        return scorer(path)

    report = evaluate_manifest(mini_params, rows, scorer=flaky)
    assert report.n_scored == 2 and report.n_skipped == 1
    assert report.errors[0][0] == "missing"


def test_manifest_parsing(tmp_path):
    good = tmp_path / "m.csv"
    good.write_text("path,label,style\na.mid,human,bach\nb.mid,ai,\n", encoding="utf-8")
    rows = read_manifest(good)
    assert rows[0].label == "human" and rows[0].groups == {"style": "bach"}
    assert rows[1].groups == {}
    assert rows[0].path.endswith(str(tmp_path / "a.mid"))

    bad_header = tmp_path / "h.csv"
    bad_header.write_text("file,label\na,human\n", encoding="utf-8")
    with pytest.raises(ManifestMalformed):
        read_manifest(bad_header)

    bad_label = tmp_path / "l.csv"
    bad_label.write_text("path,label\na.mid,robot\n", encoding="utf-8")
    with pytest.raises(ManifestMalformed):
        read_manifest(bad_label)

    unknown_col = tmp_path / "u.csv"
    unknown_col.write_text("path,label,mood\na.mid,ai,sad\n", encoding="utf-8")
    with pytest.raises(ManifestMalformed):
        read_manifest(unknown_col)

    empty = tmp_path / "e.csv"
    empty.write_text("path,label\n", encoding="utf-8")
    with pytest.raises(ManifestMalformed):
        read_manifest(empty)


def test_manifest_row_with_extra_fields_rejected(tmp_path):
    extra = tmp_path / "x.csv"
    extra.write_text('path,label\n"b\nb.mid",human\na.mid,ai,extra,cols\n', encoding="utf-8")
    with pytest.raises(ManifestMalformed, match="line 4"):
        read_manifest(extra)


def test_manifest_not_utf8_rejected(tmp_path):
    latin = tmp_path / "latin.csv"
    latin.write_bytes("path,label\nbl\u00e5.mid,ai\n".encode("latin-1"))
    with pytest.raises(ManifestMalformed, match="latin.csv"):
        read_manifest(latin)
