"""Grid detection, triplet resolution, and pitch-sequence quantization."""

import numpy as np
import pytest

from psae.midi_ingest import MidiFile, NoteEvent, extract_monophonic_notes, parse_smf
from psae.quantize import (MAX_SEQ_LEN, REST_ID, EmptySequence, GridUnit, NoteTooShort,
                           PitchSequence, SequenceTooLong, detect_grid_unit,
                           quantize_to_pitch_sequence, resolve_triplets)
from helpers import eight_bar_notes, notes, smf_bytes


# --------------------------------------------------------- grid detection

def test_quarter_notes_give_sixteenth_grid():
    assert detect_grid_unit(notes((0, 480, 60), (480, 480, 62)), 480) is GridUnit.SIXTEENTH


def test_thirty_second_note_forces_fine_grid():
    assert detect_grid_unit(notes((0, 480, 60), (480, 60, 62)), 480) is GridUnit.THIRTY_SECOND


def test_note_below_thirty_second_floor_rejected():
    with pytest.raises(NoteTooShort):
        detect_grid_unit(notes((0, 30, 60)), 480)


def test_snap_tolerance_absorbs_encoder_rounding():
    # 113 ticks vs the 120-tick sixteenth: within 1/16-step slack
    assert detect_grid_unit(notes((0, 113, 60)), 480) is GridUnit.SIXTEENTH


def test_detect_grid_needs_notes():
    with pytest.raises(EmptySequence):
        detect_grid_unit([], 480)


# ------------------------------------------------------ triplet resolution

def triplet_group(tpq=480, unit=None, pitch=60, start=0):
    unit = unit if unit is not None else tpq // 3
    return [NoteEvent(start + i * unit, unit, pitch + i, 64) for i in range(3)]


def test_triplet_free_input_unchanged():
    plain = notes((0, 480, 60), (480, 240, 62), (720, 240, 64))
    assert resolve_triplets(plain, np.random.default_rng(0), 480) == plain


def test_triplet_group_rewritten_to_either_branch():
    seen = set()
    for seed in range(20):
        out = resolve_triplets(triplet_group(), np.random.default_rng(seed), 480)
        durations = {n.duration_tick for n in out}
        assert len(durations) == 1
        seen.add(durations.pop())
    assert seen == {240, 120}  # straight eighths or straight sixteenths


def test_triplet_resolution_deterministic_per_seed():
    group = triplet_group()
    a = resolve_triplets(group, np.random.default_rng(7), 480)
    b = resolve_triplets(group, np.random.default_rng(7), 480)
    assert a == b


def test_sixteenth_triplets_also_rewritten():
    out = resolve_triplets(triplet_group(unit=80), np.random.default_rng(1), 480)
    assert {n.duration_tick for n in out} <= {240, 120}


def test_later_notes_shift_with_group_length_change():
    group = triplet_group()  # spans 480 ticks
    tail = NoteEvent(480, 480, 70, 64)
    for seed in range(6):
        out = resolve_triplets(group + [tail], np.random.default_rng(seed), 480)
        new_unit = out[0].duration_tick
        assert out[3].onset_tick == 3 * new_unit  # tail follows the new span


def test_two_triplet_groups_four_outcomes_uniform():
    groups = triplet_group() + triplet_group(start=480)
    counts = {}
    n_runs = 10_000
    for seed in range(n_runs):
        out = resolve_triplets(groups, np.random.default_rng(seed), 480)
        key = (out[0].duration_tick, out[3].duration_tick)
        counts[key] = counts.get(key, 0) + 1
    assert set(counts) == {(240, 240), (240, 120), (120, 240), (120, 120)}
    for key, count in counts.items():
        assert abs(count / n_runs - 0.25) < 0.03, (key, count)


def test_non_contiguous_triplet_durations_left_alone():
    # same durations but a gap between notes: not a triplet group
    gapped = [NoteEvent(0, 160, 60, 64), NoteEvent(200, 160, 62, 64),
              NoteEvent(400, 160, 64, 64)]
    assert resolve_triplets(gapped, np.random.default_rng(0), 480) == gapped


# ------------------------------------------------------------ quantization

def test_single_quarter_note_fills_four_sixteenth_steps():
    seq = quantize_to_pitch_sequence(notes((0, 480, 60)), GridUnit.SIXTEENTH, 480)
    assert seq.tokens.tolist() == [60, 60, 60, 60]


def test_eight_bar_clip_has_exactly_128_or_256_steps():
    clip = eight_bar_notes(tpq=480, step_quarters=1.0)
    seq16 = quantize_to_pitch_sequence(clip, GridUnit.SIXTEENTH, 480)
    assert len(seq16) == 128
    seq32 = quantize_to_pitch_sequence(clip, GridUnit.THIRTY_SECOND, 480)
    assert len(seq32) == 256


def test_silence_becomes_rest_tokens():
    gap_notes = notes((0, 480, 60), (720, 240, 64))  # half-beat gap
    seq = quantize_to_pitch_sequence(gap_notes, GridUnit.SIXTEENTH, 480)
    assert seq.tokens.tolist() == [60, 60, 60, 60, REST_ID, REST_ID, 64, 64]


def test_rest_count_tracks_gap_length_within_one_step():
    rng = np.random.default_rng(3)
    for _ in range(30):
        gap = int(rng.integers(0, 960))
        first = NoteEvent(0, 480, 60, 64)
        second = NoteEvent(480 + gap, 480, 64, 64)
        seq = quantize_to_pitch_sequence([first, second], GridUnit.SIXTEENTH, 480)
        rests = int((seq.tokens == REST_ID).sum())
        assert abs(rests - gap / 120.0) <= 1


def test_onsets_snap_to_nearest_grid_line():
    wobbly = notes((5, 470, 60), (482, 478, 62))  # slightly off the 120-tick grid
    seq = quantize_to_pitch_sequence(wobbly, GridUnit.SIXTEENTH, 480)
    assert seq.tokens.tolist() == [60, 60, 60, 60, 62, 62, 62, 62]


def test_pitch_set_preserved():
    rng = np.random.default_rng(4)
    for _ in range(20):
        tick = 0
        clip = []
        for _ in range(rng.integers(1, 30)):
            tick += int(rng.integers(0, 2)) * 120
            duration = int(rng.integers(1, 5)) * 120
            clip.append(NoteEvent(tick, duration, int(rng.integers(0, 128)), 64))
            tick += duration
        seq = quantize_to_pitch_sequence(clip, GridUnit.SIXTEENTH, 480)
        assert set(seq.pitch_tokens.tolist()) == {n.pitch for n in clip}


def test_tempo_independence_end_to_end():
    clip = eight_bar_notes()
    slow = parse_smf(smf_bytes(clip, tempo_events=[(0, 1_000_000)]))
    fast = parse_smf(smf_bytes(clip, tempo_events=[(0, 400_000)]))
    out = []
    for midi in (slow, fast):
        mono = extract_monophonic_notes(midi)
        grid = detect_grid_unit(mono, midi.ticks_per_quarter)
        out.append(quantize_to_pitch_sequence(mono, grid, midi.ticks_per_quarter))
    assert (out[0].tokens == out[1].tokens).all()
    assert out[0].grid is out[1].grid


def test_quantize_errors():
    with pytest.raises(EmptySequence):
        quantize_to_pitch_sequence([], GridUnit.SIXTEENTH, 480)
    too_long = [NoteEvent(i * 120, 120, 60, 64) for i in range(MAX_SEQ_LEN + 1)]
    with pytest.raises(SequenceTooLong):
        quantize_to_pitch_sequence(too_long, GridUnit.SIXTEENTH, 480)


def test_pitch_sequence_validation():
    with pytest.raises(ValueError):
        PitchSequence(tokens=np.array([129]), grid=GridUnit.SIXTEENTH)
    with pytest.raises(ValueError):
        PitchSequence(tokens=np.array([], dtype=np.int16), grid=GridUnit.SIXTEENTH)
    with pytest.raises(ValueError):
        PitchSequence(tokens=np.zeros(MAX_SEQ_LEN + 1, dtype=np.int16),
                      grid=GridUnit.SIXTEENTH)


def test_pitch_sequence_rejects_values_the_int16_cast_would_change():
    # 65596 wraps to 60 in int16 and 60.7 truncates to 60
    with pytest.raises(ValueError):
        PitchSequence(tokens=np.array([65596, 61]), grid=GridUnit.SIXTEENTH)
    with pytest.raises(ValueError):
        PitchSequence(tokens=np.array([60.7, 61]), grid=GridUnit.SIXTEENTH)
    with pytest.raises(ValueError):
        PitchSequence(tokens=np.array([np.nan, 61]), grid=GridUnit.SIXTEENTH)
    whole = PitchSequence(tokens=np.array([60.0, 128.0]), grid=GridUnit.SIXTEENTH)
    assert whole.tokens.dtype == np.int16 and whole.tokens.tolist() == [60, 128]
