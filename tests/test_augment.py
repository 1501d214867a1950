"""Transposition law, truncation, and deterministic corpus expansion."""

import hashlib

import numpy as np
import pytest

from psae.augment import (AugmentedVariant, AugmentError, AugmentPolicy, IllegalShift,
                          NoPitchTokens, TruncationTooLarge, derive_seed, expand_corpus,
                          expand_sequence, expand_sequence_detailed,
                          formula_shift_count, legal_shifts, random_truncate,
                          transpose)
from psae.quantize import REST_ID, GridUnit, PitchSequence


def seq_of(tokens, source_id="s"):
    return PitchSequence(tokens=np.asarray(tokens, dtype=np.int16),
                         grid=GridUnit.SIXTEENTH, source_id=source_id)


def random_seq(rng, length=None, source_id="r"):
    length = length or int(rng.integers(2, 80))
    low = int(rng.integers(0, 120))
    high = int(rng.integers(low, 128))
    tokens = rng.integers(low, high + 1, size=length)
    tokens[rng.random(length) < 0.15] = REST_ID
    if (tokens == REST_ID).all():
        tokens[0] = low
    return seq_of(tokens, source_id)


def brute_force_shifts(seq):
    pitches = seq.pitch_tokens
    return [s for s in range(-128, 128)
            if (pitches + s >= 0).all() and (pitches + s <= 127).all()]


# ------------------------------------------------------------ legal shifts

def test_single_pitch_spans_full_range():
    shifts = legal_shifts(seq_of([60, 60, 60]))
    assert shifts.tolist() == list(range(-60, 68))
    assert len(shifts) == 128


def test_full_range_sequence_admits_only_identity():
    shifts = legal_shifts(seq_of([0, 127]))
    assert shifts.tolist() == [0]
    assert formula_shift_count(seq_of([0, 127])) == 2


def test_two_octave_span_counts():
    seq = seq_of(list(range(48, 73)))
    shifts = legal_shifts(seq)
    assert len(shifts) == 104  # 128 - (72 - 48)
    assert formula_shift_count(seq) == 105  # closed-form overcount by one


def test_legal_shifts_match_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(100):
        seq = random_seq(rng)
        shifts = legal_shifts(seq)
        assert shifts.tolist() == brute_force_shifts(seq)
        assert 0 in shifts
        assert formula_shift_count(seq) == len(shifts) + 1


def test_all_rest_sequence_rejected():
    with pytest.raises(NoPitchTokens):
        legal_shifts(seq_of([REST_ID, REST_ID]))


# ------------------------------------------------------------- transpose

def test_zero_shift_is_identity():
    seq = seq_of([60, REST_ID, 64])
    out = transpose(seq, 0)
    assert (out.tokens == seq.tokens).all()


def test_transpose_skips_rests():
    out = transpose(seq_of([60, REST_ID, 64]), 3)
    assert out.tokens.tolist() == [63, REST_ID, 67]


def test_transpose_preserves_intervals():
    rng = np.random.default_rng(1)
    for _ in range(50):
        seq = random_seq(rng)
        pitches = seq.pitch_tokens.astype(int)
        for shift in rng.choice(legal_shifts(seq), size=3):
            moved = transpose(seq, int(shift)).pitch_tokens.astype(int)
            assert (np.diff(moved) == np.diff(pitches)).all()
            assert moved.min() >= 0 and moved.max() <= 127


def test_illegal_shift_rejected():
    with pytest.raises(IllegalShift):
        transpose(seq_of([120, 125]), 5)


# ---------------------------------------------------------------- truncate

def test_truncate_drops_prefix():
    seq = seq_of(list(range(40, 80)))
    out = random_truncate(seq, 1)
    assert len(out) == 39 and out.tokens[0] == 41


def test_truncate_hundred_of_256():
    seq = seq_of((np.arange(256) % 60) + 30)
    assert len(random_truncate(seq, 100)) == 156


def test_truncate_cannot_empty_sequence():
    seq = seq_of((np.arange(256) % 60) + 30)
    with pytest.raises(TruncationTooLarge):
        random_truncate(seq, 256)
    with pytest.raises(TruncationTooLarge):
        random_truncate(seq, 300)


# ----------------------------------------------------------- expansion

def corpus_digest(sequences):
    h = hashlib.sha256()
    for s in sequences:
        h.update(s.source_id.encode())
        h.update(s.grid.value.encode())
        h.update(np.ascontiguousarray(s.tokens).tobytes())
    return h.hexdigest()


def test_expansion_size_law():
    rng = np.random.default_rng(2)
    corpus = [random_seq(rng, length=120, source_id=f"c{i}") for i in range(40)]
    policy = AugmentPolicy(seed=5)
    out = expand_corpus(corpus, policy)
    assert len(out) == 40 * policy.transpositions_per_seq


def test_degenerate_policy_is_identity():
    seq = seq_of([60, 62, 64], source_id="one")
    out = expand_corpus([seq], AugmentPolicy(transpositions_per_seq=1,
                                             truncated_per_seq=0, seed=9))
    assert len(out) == 1
    assert (out[0].tokens == seq.tokens).all()


def test_expansion_deterministic_per_seed():
    rng = np.random.default_rng(3)
    corpus = [random_seq(rng, source_id=f"d{i}") for i in range(20)]
    a = corpus_digest(expand_corpus(corpus, AugmentPolicy(seed=11)))
    b = corpus_digest(expand_corpus(corpus, AugmentPolicy(seed=11)))
    c = corpus_digest(expand_corpus(corpus, AugmentPolicy(seed=12)))
    assert a == b
    assert a != c


def test_expansion_independent_of_corpus_order():
    rng = np.random.default_rng(4)
    corpus = [random_seq(rng, source_id=f"o{i}") for i in range(6)]
    policy = AugmentPolicy(seed=2)
    forward_run = {s.source_id: s.tokens.tolist() for s in expand_corpus(corpus, policy)}
    reversed_run = {s.source_id: s.tokens.tolist()
                    for s in expand_corpus(corpus[::-1], policy)}
    assert forward_run == reversed_run


def test_every_variant_reachable_from_source():
    rng = np.random.default_rng(5)
    seq = random_seq(rng, length=150, source_id="prov")
    for variant in expand_sequence_detailed(seq, AugmentPolicy(seed=3)):
        rebuilt = transpose(seq, variant.shift)
        if variant.truncation is not None:
            rebuilt = random_truncate(rebuilt, variant.truncation)
        assert (rebuilt.tokens == variant.sequence.tokens).all()
        assert (variant.sequence.tokens[variant.sequence.tokens < 128] <= 127).all()
        assert (variant.sequence.tokens >= 0).all()


def test_truncation_counts_match_policy():
    rng = np.random.default_rng(6)
    seq = random_seq(rng, length=150, source_id="t")
    variants = expand_sequence_detailed(seq, AugmentPolicy(seed=4))
    truncated = [v for v in variants if v.truncation is not None]
    assert len(truncated) == 16
    assert all(1 <= v.truncation <= 100 for v in truncated)
    assert all(len(v.sequence) == 150 - v.truncation for v in truncated)


def test_short_sequences_adapt_truncation_range():
    seq = seq_of(list(range(50, 60)), source_id="short")  # length 10 <= max 100
    variants = expand_sequence_detailed(
        seq, AugmentPolicy(transpositions_per_seq=6, truncated_per_seq=6, seed=1))
    for v in variants:
        assert v.truncation is not None and 1 <= v.truncation <= 9
        assert len(v.sequence) >= 1


def test_replacement_fallback_when_few_legal_shifts():
    seq = seq_of([0, 127, 0, 127, 60], source_id="fixed")  # only shift 0 legal
    variants = expand_sequence(seq, AugmentPolicy(transpositions_per_seq=5,
                                                  truncated_per_seq=0, seed=8))
    assert len(variants) == 5
    for v in variants:
        assert (v.tokens == seq.tokens).all()


def test_shift_sampling_uniform_and_keeps_identity():
    seq = seq_of(list(range(14, 128)), source_id="u")  # 15 legal shifts: -14..0
    shift_counts = {int(s): 0 for s in legal_shifts(seq)}
    n_runs = 10_000
    picked = 5
    for seed in range(n_runs):
        policy = AugmentPolicy(transpositions_per_seq=picked, truncated_per_seq=0,
                               seed=seed)
        shifts = [v.shift for v in expand_sequence_detailed(seq, policy)]
        assert 0 in shifts
        for s in shifts:
            shift_counts[s] += 1
    assert shift_counts[0] == n_runs  # identity always kept
    expected = n_runs * (picked - 1) / (len(shift_counts) - 1)
    for shift, count in shift_counts.items():
        if shift != 0:
            assert abs(count - expected) < 0.2 * expected, (shift, count)


def test_policy_validation():
    with pytest.raises(ValueError):
        AugmentPolicy(transpositions_per_seq=0)
    with pytest.raises(ValueError):
        AugmentPolicy(truncated_per_seq=40, transpositions_per_seq=31)
    with pytest.raises(ValueError):
        AugmentPolicy(truncation_min=5, truncation_max=4)


def test_expand_corpus_tags_failing_sequence():
    bad = seq_of([REST_ID, REST_ID], source_id="allrest")
    with pytest.raises(AugmentError) as err:
        expand_corpus([bad], AugmentPolicy(seed=0))
    assert "allrest" in str(err.value)


def test_derive_seed_stable():
    assert derive_seed(5, "abc") == derive_seed(5, "abc")
    assert derive_seed(5, "abc") != derive_seed(6, "abc")
    assert derive_seed(5, "abc") != derive_seed(5, "abd")


# ------------------------------------------------- expansion reference

def reference_pick_shifts(shifts, count, rng):
    nonzero = shifts[shifts != 0]
    if len(nonzero) >= count - 1:
        extra = rng.choice(nonzero, size=count - 1, replace=False)
    else:
        extra = rng.choice(shifts, size=count - 1, replace=True)
    return sorted(int(s) for s in np.concatenate(([0], extra)))


def reference_expansion(seq, policy):
    """Expansion variant by variant, composing transpose and random_truncate,
    with the draws expand_sequence_detailed makes, in the same order."""
    rng = np.random.default_rng(derive_seed(policy.seed, seq.source_id))
    shifts = reference_pick_shifts(legal_shifts(seq), policy.transpositions_per_seq, rng)
    variants = [AugmentedVariant(transpose(seq, s), seq.source_id, s) for s in shifts]
    if policy.truncated_per_seq:
        chosen = rng.choice(len(variants), size=policy.truncated_per_seq, replace=False)
        for idx in sorted(int(c) for c in chosen):
            variant = variants[idx]
            if len(variant.sequence) < 2:
                raise TruncationTooLarge(f"{variant.sequence.source_id!r} too short to truncate")
            hi = min(policy.truncation_max, len(variant.sequence) - 1)
            lo = policy.truncation_min if len(variant.sequence) > policy.truncation_max else 1
            k = int(rng.integers(lo, hi + 1))
            variants[idx] = AugmentedVariant(random_truncate(variant.sequence, k),
                                             seq.source_id, variant.shift, k)
    return variants


def expansion_outcome(expand, seq, policy):
    try:
        variants = expand(seq, policy)
    except Exception as exc:
        return type(exc), str(exc)
    return [(v.sequence.tokens.dtype, v.sequence.tokens.tobytes(), v.sequence.source_id,
             v.sequence.grid, v.source_id, v.shift, v.truncation) for v in variants]


def random_policy(rng, seed):
    count = int(rng.integers(1, 41))
    truncated = int(rng.choice([0, count, int(rng.integers(0, count + 1))]))
    low = int(rng.integers(1, 60))
    return AugmentPolicy(transpositions_per_seq=count, truncated_per_seq=truncated,
                         truncation_min=low, truncation_max=int(rng.integers(low, 200)),
                         seed=seed)


def test_expansion_matches_reference_loop():
    rng = np.random.default_rng(18)
    cases = []
    for i in range(200):
        length = int(rng.choice([1, 2, 3, int(rng.integers(2, 120)), 384]))
        cases.append((random_seq(rng, length=length, source_id=f"m{i}"),
                      random_policy(rng, seed=i)))
    grid32 = PitchSequence(tokens=np.array([60, REST_ID, 62], dtype=np.int16),
                           grid=GridUnit.THIRTY_SECOND, source_id="g")
    cases += [
        (seq_of([64], "one"), AugmentPolicy(truncated_per_seq=0, seed=1)),
        (seq_of([64], "one"), AugmentPolicy(seed=1)),                     # TruncationTooLarge
        (seq_of([REST_ID, 64], "two"), AugmentPolicy(truncated_per_seq=31, seed=2)),
        (seq_of([0, 127, 5], "narrow"), AugmentPolicy(seed=3)),           # with replacement
        (seq_of([3, 120, REST_ID, 7], "narrowish"), AugmentPolicy(seed=4)),
        (seq_of(list(range(30, 90)), "max>=len"),
         AugmentPolicy(truncation_min=70, truncation_max=100, seed=5)),
        (grid32, AugmentPolicy(truncated_per_seq=31, truncation_max=1, seed=6)),
    ]
    outcomes = set()
    for seq, policy in cases:
        want = expansion_outcome(reference_expansion, seq, policy)
        assert expansion_outcome(expand_sequence_detailed, seq, policy) == want, seq.source_id
        outcomes.add(type(want) if isinstance(want, list) else want[0])
    assert outcomes == {list, TruncationTooLarge}


def test_variants_share_no_tokens_with_each_other_or_source():
    rng = np.random.default_rng(7)
    seq = random_seq(rng, length=150, source_id="alias")
    source = seq.tokens.copy()
    variants = expand_sequence_detailed(seq, AugmentPolicy(seed=6))
    assert {v.truncation is None for v in variants} == {True, False}
    expected = [v.sequence.tokens.copy() for v in variants]
    for i, variant in enumerate(variants):
        variant.sequence.tokens[:] = REST_ID
        expected[i][:] = REST_ID
        assert (seq.tokens == source).all()
        for v, want in zip(variants, expected):
            assert (v.sequence.tokens == want).all()


@pytest.mark.parametrize("bad", [-1, 129, 300])
def test_source_ids_overwritten_after_validation_still_raise(bad):
    # variants are not checked one by one, so the source is checked late
    seq = random_seq(np.random.default_rng(3), length=150, source_id="mutated")
    seq.tokens[70] = bad
    with pytest.raises(ValueError, match=r"tokens must be pitch ids in \[0, 127\] or REST"):
        expand_sequence_detailed(seq, AugmentPolicy(seed=1))
