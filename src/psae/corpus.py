"""Token corpus files: one line per sequence,
``source_id<TAB>grid<TAB>space-separated token ids``, each line ending in
LF. A source id holds no tab, LF or CR (a text-mode reader ends lines at CR).

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
SOURCE_ID_BREAKS = "\t\n\r"


class CorpusFormatError(PsaeError):
    pass


# Each id's text plus its separator, NUL-padded to 4 bytes ("128 " fills
# them) and read as one uint32: word t ends in a space, word REST_ID + 1 + t
# ends a line. format_corpus gathers one word per token and drops the NULs.
_TOKEN_WORDS = np.frombuffer(b"".join(f"{i}{sep}".encode().ljust(4, b"\0")
                                      for sep in " \n" for i in range(REST_ID + 1)),
                             dtype=np.uint32)
# Token ids as format_corpus spells them: ASCII digits between whitespace.
# int() alone would also read "1_2", "+60" or other scripts' digits.
_DECIMAL_IDS = re.compile(r"[0-9\s]*", re.ASCII)
_ID_BREAK = re.compile(f"[{SOURCE_ID_BREAKS}]")


def format_sequence(seq: PitchSequence) -> str:
    return format_corpus([seq])[:-1]


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
        tokens = np.array(ids.split(), dtype=np.int16)
        return PitchSequence(tokens=tokens, grid=grid, source_id=source_id)
    except (ValueError, OverflowError) as exc:
        raise CorpusFormatError(f"bad token list for {source_id!r}: {exc}")


def format_corpus(sequences) -> str:
    """Corpus file text: one formatted line per sequence, each ending in a
    newline. A source id holding a tab, LF or CR, or a token id outside
    0..REST_ID, raises CorpusFormatError naming the first sequence that
    holds one."""
    sequences = list(sequences)
    if not sequences:
        return ""
    bad = [s.source_id for s in sequences if _ID_BREAK.search(s.source_id)]
    if bad:
        raise CorpusFormatError(f"{bad[0]!r}: source id holds a tab, LF or CR")
    tokens = np.concatenate([s.tokens for s in sequences])
    ends = np.cumsum([len(s.tokens) for s in sequences])
    # explicit: the gather would read -1 as the table's last word
    bad = (tokens < 0) | (tokens > REST_ID)
    if bad.any():
        at = int(bad.argmax())
        seq = sequences[int(np.searchsorted(ends, at, side="right"))]
        raise CorpusFormatError(f"{seq.source_id!r}: token {int(tokens[at])} outside 0..{REST_ID}")
    words = tokens.astype(np.intp)
    words[ends - 1] += REST_ID + 1
    ids = _TOKEN_WORDS[words].tobytes().translate(None, b"\0").decode("ascii")
    return "".join([f"{s.source_id}\t{s.grid.value}\t{line}\n"
                    for s, line in zip(sequences, ids.split("\n"))])


def write_corpus_file(path: str | Path, sequences: list[PitchSequence]) -> None:
    Path(path).write_text(format_corpus(sequences), encoding="utf-8")


def read_corpus_file(path: str | Path) -> list[PitchSequence]:
    """A corpus file's sequences; as format_corpus writes it, only LF ends a line."""
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CorpusFormatError(f"{path}: not UTF-8 text: {exc.reason}")
    out = []
    for n, line in enumerate(text.split("\n"), start=1):
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
