"""Training-corpus construction: record framing, builders, dedup, split.

Every record wraps a puzzle prompt and its solution in GPT-2-style framing:

    <|startoftext|>[WP] <prompt> [RESPONSE] <response> <|endoftext|>

Cube and sudoku records are a single line; the prompt is the 54-character
cube string or the 81-digit puzzle and the response is the move formula or
the 81-digit solution. Maze records keep their internal newlines: the
framing tokens sit on their own lines around the unsolved and solved
renders. Corpus files are UTF-8 with LF newlines, one record per line for
the single-line kinds and concatenated blocks for mazes. Each corpus gets
a JSON-lines metadata sidecar carrying per-record generation parameters.

The builders and the CSV ingester return lazy iterators, and the writers
take any iterable, so a corpus goes from its generator to the disk one
record at a time.
"""
from __future__ import annotations

import csv
import json
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from string import whitespace

from ._util import atomic_writer, read_lines, read_pieces, seeded_random, split_pieces
from .cube import FACES, SOLVED_FACELETS, apply_formula, format_formula, random_scramble
from .cube_solver import solve
from .maze import MAX_MAZE_SIDE, MazeSizeError, generate_solved_maze, render_maze_pair
from .sudoku import (
    MAX_CLUES,
    MIN_CLUES,
    _clue_changed,
    _is_grid81,
    count_violations,
    format_grid81,
    generate_puzzle,
    is_complete,
    parse_grid81,
)

START_TOKEN = "<|startoftext|>"
END_TOKEN = "<|endoftext|>"
PROMPT_TAG = "[WP]"
RESPONSE_TAG = "[RESPONSE]"

_SINGLE_LINE_KINDS = ("cube", "sudoku")

DEFAULT_MAX_CHARS = 1024  # response budget standing in for GPT-2's 1,024-token context


class FramingError(ValueError):
    pass


class RecordKindError(ValueError):
    pass


class DivisibilityError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class PuzzleRecord:
    kind: str
    prompt: str
    response: str
    meta: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True, slots=True)
class RowIssue:
    """A rejected ingest row: 1-based line number plus the reason."""

    line: int
    reason: str


@dataclass(slots=True)
class CorpusSplit:
    train: list[PuzzleRecord]
    test: list[PuzzleRecord]


def canonical_key(record: PuzzleRecord) -> tuple[str, str]:
    """Dedup key: the puzzle state, not the solution, defines identity."""
    return (record.kind, record.prompt)


def serialize_record(record: PuzzleRecord) -> str:
    if record.kind in _SINGLE_LINE_KINDS:
        return (
            f"{START_TOKEN}{PROMPT_TAG} {record.prompt} "
            f"{RESPONSE_TAG} {record.response} {END_TOKEN}"
        )
    if record.kind == "maze":
        return (
            f"{START_TOKEN}{PROMPT_TAG}\n{record.prompt}\n"
            f"{RESPONSE_TAG}\n{record.response}\n{END_TOKEN}"
        )
    raise RecordKindError(f"unknown record kind {record.kind!r}")


def _detect_single_line_kind(prompt: str) -> str:
    if len(prompt) == 54 and not prompt.strip(FACES):
        return "cube"
    if _is_grid81(prompt):
        return "sudoku"
    raise RecordKindError("prompt shape matches no puzzle")


def parse_record(text: str) -> PuzzleRecord:
    """Invert serialize_record byte-exactly; meta comes back empty."""
    head = START_TOKEN + PROMPT_TAG
    if not text.startswith(head):
        raise FramingError("record must start with the prompt framing")
    if not text.endswith(END_TOKEN):
        raise FramingError("record must end with the end token")
    body = text[len(head):-len(END_TOKEN)]
    if "\n" in text:
        if not body.startswith("\n") or not body.endswith("\n"):
            raise FramingError("multi-line record framing tokens need their own lines")
        prompt, sep, response = body[1:-1].partition(f"\n{RESPONSE_TAG}\n")
        if not sep:
            raise FramingError("missing response delimiter")
        return PuzzleRecord("maze", prompt, response, {})
    if not body.startswith(" ") or not body.endswith(" "):
        raise FramingError("single-line record needs spaces around the framing")
    prompt, sep, response = body[1:-1].partition(f" {RESPONSE_TAG} ")
    if not sep:
        raise FramingError("missing response delimiter")
    return PuzzleRecord(_detect_single_line_kind(prompt), prompt, response, {})


def _cube_record(seed: int, length: int) -> PuzzleRecord:
    state = apply_formula(SOLVED_FACELETS, random_scramble(seed, length))
    # A scramble of length L has a solution of at most L moves.
    solution = solve(state, max_depth=length)
    return PuzzleRecord(
        "cube",
        state,
        format_formula(solution),
        {"kind": "cube", "seed": seed, "scramble_length": length},
    )


def build_cube_corpus(rng_seed: int, total: int, max_scramble: int) -> Iterator[PuzzleRecord]:
    """total/max_scramble scrambles per length 1..max_scramble, each paired
    with a minimal solving formula. Pre-dedup count is exactly `total`."""
    if max_scramble < 1:
        raise ValueError("max_scramble must be >= 1")
    if total % max_scramble:
        raise DivisibilityError(f"total {total} not divisible by max_scramble {max_scramble}")
    master = seeded_random(rng_seed)
    return (
        _cube_record(master.getrandbits(63), length)
        for length in range(1, max_scramble + 1)
        for _ in range(total // max_scramble)
    )


def _sudoku_record(seed: int, clues: int) -> PuzzleRecord:
    puzzle, solution = generate_puzzle(seed, clues)
    return PuzzleRecord(
        "sudoku",
        format_grid81(puzzle),
        format_grid81(solution),
        {"kind": "sudoku", "seed": seed, "clues": clues},
    )


def build_sudoku_corpus(
    rng_seed: int, total: int, clue_range: tuple[int, int] = (25, 35)
) -> Iterator[PuzzleRecord]:
    """Seeded unique puzzle/solution pairs with clue counts drawn uniformly
    from clue_range (inclusive)."""
    low, high = clue_range
    if not MIN_CLUES <= low <= high <= MAX_CLUES:
        raise ValueError(
            f"clue range must satisfy {MIN_CLUES} <= low <= high <= {MAX_CLUES}, got {clue_range}"
        )
    master = seeded_random(rng_seed)
    return (
        _sudoku_record(master.getrandbits(63), master.randint(low, high)) for _ in range(total)
    )


def _maze_record(seed: int, width: int, height: int) -> PuzzleRecord:
    unsolved, solved = render_maze_pair(*generate_solved_maze(seed, width, height))
    return PuzzleRecord(
        "maze",
        unsolved,
        solved,
        {"kind": "maze", "seed": seed, "width": width, "height": height},
    )


def build_maze_corpus(
    rng_seed: int,
    total: int,
    sizes: list[tuple[int, int]] = ((4, 4), (5, 5)),
) -> Iterator[PuzzleRecord]:
    """Unsolved/solved render pairs; sizes are cycled so each appears
    total/len(sizes) times (up to remainder)."""
    sizes = list(sizes)
    if not sizes:
        raise ValueError("need at least one maze size")
    for width, height in sizes:
        if width < 2 or height < 2 or width > MAX_MAZE_SIDE or height > MAX_MAZE_SIDE:
            raise MazeSizeError(
                f"maze sizes must be within 2x2..{MAX_MAZE_SIDE}x{MAX_MAZE_SIDE}, got {width}x{height}"
            )
    master = seeded_random(rng_seed)
    return (_maze_record(master.getrandbits(63), *sizes[i % len(sizes)]) for i in range(total))


def ingest_sudoku_csv(path, issues: list[RowIssue] | None = None) -> Iterator[PuzzleRecord]:
    """Read a puzzle/solution CSV in the public 1M-sudoku layout (header
    `quizzes,solutions`, 81-digit values). The file is opened and its
    header checked now; the records follow lazily, one per accepted row.
    Rows whose solution is not a consistent completion of the puzzle are
    rejected, not fatal: each goes to `issues` as it is read. Rows are
    numbered by physical line, the last line of a row that spans several;
    a line the csv module cannot read is a ValueError that names it."""
    rows = _ingest_rows(path, [] if issues is None else issues)
    next(rows)  # runs up to the header check
    return rows


def _ingest_rows(path, issues: list[RowIssue]) -> Iterator[PuzzleRecord | None]:
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        try:
            if reader.fieldnames is None or not {"quizzes", "solutions"} <= set(reader.fieldnames):
                raise ValueError("CSV must have a header with quizzes and solutions columns")
            yield None
            for row in reader:
                line = reader.reader.line_num
                quiz_text = (row.get("quizzes") or "").strip(whitespace)
                solution_text = (row.get("solutions") or "").strip(whitespace)
                try:
                    puzzle = parse_grid81(quiz_text)
                    solution = parse_grid81(solution_text)
                except ValueError as exc:
                    issues.append(RowIssue(line, str(exc)))
                    continue
                if not is_complete(solution):
                    issues.append(RowIssue(line, "solution is incomplete"))
                    continue
                if count_violations(solution):
                    issues.append(RowIssue(line, "solution has repeated digits"))
                    continue
                if _clue_changed(puzzle, solution):
                    issues.append(RowIssue(line, "solution conflicts with a puzzle clue"))
                    continue
                yield PuzzleRecord("sudoku", quiz_text, solution_text, {"kind": "sudoku", "source_line": line})
        except csv.Error as exc:  # such as a field over csv.field_size_limit()
            raise ValueError(f"line {reader.reader.line_num}: {exc}") from None


def dedup_and_split(
    records: Iterable[PuzzleRecord], rng_seed: int, test_fraction: float
) -> CorpusSplit:
    """Drop duplicate puzzle states (first occurrence wins), shuffle by
    seed, and give round(test_fraction * n) records to the test side. The
    records are read once, so a lazy stream of them is never held whole."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    rng = seeded_random(rng_seed)
    seen = set()
    unique = []
    for record in records:
        key = canonical_key(record)
        if key not in seen:
            seen.add(key)
            unique.append(record)
    rng.shuffle(unique)
    n_test = int(len(unique) * test_fraction + 0.5)
    return CorpusSplit(train=unique[n_test:], test=unique[:n_test])


def corpus_text(records: Iterable[PuzzleRecord]) -> str:
    return "".join([serialize_record(r) + "\n" for r in records])


def write_corpus(records: Iterable[PuzzleRecord], path) -> None:
    with atomic_writer(path) as out:
        for record in records:
            out.write(serialize_record(record) + "\n")


# json.dumps(..., sort_keys=True) without a new encoder per row
_encode_meta = json.JSONEncoder(sort_keys=True).encode


def _meta_line(record: PuzzleRecord) -> str:
    return _encode_meta(record.meta or {"kind": record.kind}) + "\n"


def write_meta(records: Iterable[PuzzleRecord], path) -> None:
    """The JSON-lines sidecar on its own."""
    with atomic_writer(path) as meta:
        for record in records:
            meta.write(_meta_line(record))


def write_corpus_and_meta(records: Iterable[PuzzleRecord], path) -> int:
    """Write each record's corpus line to `path` and its sidecar line to
    `<path>.meta.jsonl` as the record arrives, and return the count. Both
    files are written atomically: if `records` raises, neither changes."""
    count = 0
    with atomic_writer(f"{path}.meta.jsonl") as meta, atomic_writer(path) as out:
        for count, record in enumerate(records, start=1):
            out.write(serialize_record(record) + "\n")
            meta.write(_meta_line(record))
    return count


_JSON_TYPE_NAMES = {str: "string", dict: "object"}


def read_json_lines(path, expected: type) -> list:
    """The value on each non-blank line of a JSON-lines file; each must be
    an `expected` (str or dict). A blank line holds only ASCII whitespace,
    so any other line reaches json.loads. Errors name the file line."""
    values = []
    for line, row in enumerate(read_lines(path), start=1):
        if row.strip(whitespace):
            try:
                value = json.loads(row)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line}: {exc}") from exc
            if not isinstance(value, expected):
                wanted = _JSON_TYPE_NAMES[expected]
                raise ValueError(f"line {line}: expected a JSON {wanted}, got {type(value).__name__}")
            values.append(value)
    return values


def parse_corpus_text(text: str | Iterable[str]) -> list[PuzzleRecord]:
    return [parse_record(chunk) for chunk in split_framed_stream(text)]


def read_corpus(path) -> list[PuzzleRecord]:
    return parse_corpus_text(read_pieces(path))


def split_framed_stream(stream: str | Iterable[str]) -> Iterator[str]:
    """Cut a raw model-output stream, a str or its text in pieces, into
    record-sized chunks at lines that open with the start token, yielding
    each chunk once the next one starts. Content before the first marker
    becomes its own chunk so broken output still yields one verdict per
    chunk. Only a chunk of ASCII whitespace alone is dropped."""
    head = ""  # what a chunk's text lacks: nothing for the first, the start token after
    for chunk in split_pieces(stream, "\n" + START_TOKEN):
        chunk = (head + chunk).strip("\n")
        head = START_TOKEN
        if chunk.strip(whitespace):
            yield chunk

