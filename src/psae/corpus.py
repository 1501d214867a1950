"""Token corpus files: one line per sequence,
``source_id<TAB>grid<TAB>space-separated token ids``.

A corpus directory is any directory of ``*.tokens`` files; readers walk it
in sorted filename order so downstream runs are reproducible. The format
is UTF-8 and diff-friendly on purpose.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from .errors import PsaeError
from .quantize import REST_ID, GridUnit, PitchSequence

TOKENS_SUFFIX = ".tokens"


class CorpusFormatError(PsaeError):
    pass


_TOKEN_TEXT = {i: str(i) for i in range(REST_ID + 1)}  # any other id raises KeyError
# Token ids as format_sequence spells them: ASCII digits between whitespace.
# int() alone would also read "1_2", "+60" or other scripts' digits.
_DECIMAL_IDS = re.compile(r"[0-9\s]*", re.ASCII)


def format_sequence(seq: PitchSequence) -> str:
    try:
        ids = " ".join([_TOKEN_TEXT[t] for t in seq.tokens.tolist()])
    except KeyError as exc:
        raise CorpusFormatError(f"{seq.source_id!r}: token {exc.args[0]} outside 0..{REST_ID}")
    return f"{seq.source_id}\t{seq.grid.value}\t{ids}"


def parse_sequence_line(line: str) -> PitchSequence:
    parts = line.rstrip("\n").split("\t")
    if len(parts) != 3:
        raise CorpusFormatError(f"expected 3 tab-separated fields, got {len(parts)}")
    source_id, grid_name, ids = parts
    try:
        grid = GridUnit(grid_name)
    except ValueError:
        raise CorpusFormatError(f"unknown grid unit {grid_name!r}")
    if _DECIMAL_IDS.fullmatch(ids) is None:
        raise CorpusFormatError(f"token ids of {source_id!r} are not ASCII decimal")
    try:
        tokens = np.array([int(t) for t in ids.split()], dtype=np.int16)
        return PitchSequence(tokens=tokens, grid=grid, source_id=source_id)
    except (ValueError, OverflowError) as exc:
        raise CorpusFormatError(f"bad token list for {source_id!r}: {exc}")


def format_corpus(sequences) -> str:
    """Corpus file text: one formatted line per sequence, each ending in a newline."""
    return "".join(format_sequence(s) + "\n" for s in sequences)


def write_corpus_file(path: str | Path, sequences: list[PitchSequence]) -> None:
    Path(path).write_text(format_corpus(sequences), encoding="utf-8")


def read_corpus_file(path: str | Path) -> list[PitchSequence]:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not UTF-8 text: {exc.reason}")
    out = []
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            out.append(parse_sequence_line(line))
        except CorpusFormatError as exc:
            raise CorpusFormatError(f"{path}:{n}: {exc}")
    return out


def read_corpus_dir(directory: str | Path) -> list[PitchSequence]:
    directory = Path(directory)
    files = sorted(directory.glob(f"*{TOKENS_SUFFIX}"))
    if not files:
        raise CorpusFormatError(f"no {TOKENS_SUFFIX} files in {directory}")
    sequences: list[PitchSequence] = []
    for f in files:
        sequences.extend(read_corpus_file(f))
    return sequences
