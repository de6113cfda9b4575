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
"""
from __future__ import annotations

import csv
import json
import multiprocessing
import random
from dataclasses import dataclass, field

from ._util import atomic_write_text, read_text
from .cube import (
    FaceletCube,
    apply_formula,
    encode_facelets,
    format_formula,
    random_scramble,
)
from .cube_solver import solve
from .maze import MazeSizeError, generate_maze, render_maze, solve_maze
from .sudoku import _is_grid81, format_grid81, generate_puzzle, find_violations, is_complete, parse_grid81

START_TOKEN = "<|startoftext|>"
END_TOKEN = "<|endoftext|>"
PROMPT_TAG = "[WP]"
RESPONSE_TAG = "[RESPONSE]"

_SINGLE_LINE_KINDS = ("cube", "sudoku")

MAX_MAZE_SIDE = 6  # rendered 6x6 pairs already brush the 1024-character budget


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
    if len(prompt) == 54 and all(c in "URFDBL" for c in prompt):
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


def _map_records(worker, params, jobs: int):
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            return pool.map(worker, params)
    return [worker(p) for p in params]


def _cube_record(params) -> PuzzleRecord:
    seed, length, max_scramble = params
    scramble = random_scramble(seed, length, max_length=max_scramble)
    state = apply_formula(FaceletCube(), scramble)
    # A scramble of length L has a solution of at most L moves.
    solution = solve(state, max_depth=max_scramble)
    return PuzzleRecord(
        "cube",
        encode_facelets(state),
        format_formula(solution),
        {"kind": "cube", "seed": seed, "scramble_length": length},
    )


def build_cube_corpus(rng_seed: int, total: int, max_scramble: int, *, jobs: int = 1) -> list[PuzzleRecord]:
    """total/max_scramble scrambles per length 1..max_scramble, each paired
    with a minimal solving formula. Pre-dedup count is exactly `total`."""
    if max_scramble < 1:
        raise ValueError("max_scramble must be >= 1")
    if total % max_scramble:
        raise DivisibilityError(f"total {total} not divisible by max_scramble {max_scramble}")
    master = random.Random(rng_seed)
    params = [
        (master.getrandbits(63), length, max_scramble)
        for length in range(1, max_scramble + 1)
        for _ in range(total // max_scramble)
    ]
    return _map_records(_cube_record, params, jobs)


def _sudoku_record(params) -> PuzzleRecord:
    seed, clues, require_unique = params
    puzzle, solution = generate_puzzle(seed, clues, require_unique=require_unique)
    return PuzzleRecord(
        "sudoku",
        format_grid81(puzzle),
        format_grid81(solution),
        {"kind": "sudoku", "seed": seed, "clues": clues},
    )


def build_sudoku_corpus(
    rng_seed: int,
    total: int,
    clue_range: tuple[int, int] = (25, 35),
    *,
    require_unique: bool = True,
    jobs: int = 1,
) -> list[PuzzleRecord]:
    """Seeded puzzle/solution pairs with clue counts drawn uniformly from
    clue_range (inclusive)."""
    low, high = clue_range
    if not 17 <= low <= high <= 80:
        raise ValueError(f"clue range must satisfy 17 <= low <= high <= 80, got {clue_range}")
    master = random.Random(rng_seed)
    params = [
        (master.getrandbits(63), master.randint(low, high), require_unique)
        for _ in range(total)
    ]
    return _map_records(_sudoku_record, params, jobs)


def _maze_record(params) -> PuzzleRecord:
    seed, width, height = params
    maze = generate_maze(seed, width, height)
    path = solve_maze(maze, "bfs")
    return PuzzleRecord(
        "maze",
        render_maze(maze),
        render_maze(maze, path),
        {"kind": "maze", "seed": seed, "width": width, "height": height},
    )


def build_maze_corpus(
    rng_seed: int,
    total: int,
    sizes: list[tuple[int, int]] = ((4, 4), (5, 5)),
    *,
    jobs: int = 1,
) -> list[PuzzleRecord]:
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
    master = random.Random(rng_seed)
    params = [
        (master.getrandbits(63), *sizes[i % len(sizes)]) for i in range(total)
    ]
    return _map_records(_maze_record, params, jobs)


def ingest_sudoku_csv(path) -> tuple[list[PuzzleRecord], list[RowIssue]]:
    """Read a puzzle/solution CSV in the public 1M-sudoku layout (header
    `quizzes,solutions`, 81-digit values). Rows whose solution is not a
    consistent completion of the puzzle are rejected, not fatal."""
    records: list[PuzzleRecord] = []
    issues: list[RowIssue] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or not {"quizzes", "solutions"} <= set(reader.fieldnames):
            raise ValueError("CSV must have a header with quizzes and solutions columns")
        for line, row in enumerate(reader, start=2):
            quiz_text = (row.get("quizzes") or "").strip()
            solution_text = (row.get("solutions") or "").strip()
            try:
                puzzle = parse_grid81(quiz_text)
                solution = parse_grid81(solution_text)
            except ValueError as exc:
                issues.append(RowIssue(line, str(exc)))
                continue
            if not is_complete(solution):
                issues.append(RowIssue(line, "solution is incomplete"))
                continue
            if find_violations(solution):
                issues.append(RowIssue(line, "solution has repeated digits"))
                continue
            if any(p and p != s for p, s in zip(puzzle.cells, solution.cells)):
                issues.append(RowIssue(line, "solution conflicts with a puzzle clue"))
                continue
            records.append(
                PuzzleRecord("sudoku", quiz_text, solution_text, {"kind": "sudoku", "source_line": line})
            )
    return records, issues


def dedup_and_split(
    records: list[PuzzleRecord], rng_seed: int, test_fraction: float
) -> CorpusSplit:
    """Drop duplicate puzzle states (first occurrence wins), shuffle by
    seed, and give round(test_fraction * n) records to the test side."""
    if not 0 < test_fraction < 1:
        raise ValueError("test_fraction must be in (0, 1)")
    seen = set()
    unique = []
    for record in records:
        key = canonical_key(record)
        if key not in seen:
            seen.add(key)
            unique.append(record)
    random.Random(rng_seed).shuffle(unique)
    n_test = int(len(unique) * test_fraction + 0.5)
    return CorpusSplit(train=unique[n_test:], test=unique[:n_test])


def corpus_text(records: list[PuzzleRecord]) -> str:
    return "\n".join(serialize_record(r) for r in records) + "\n" if records else ""


def write_corpus(records: list[PuzzleRecord], path) -> None:
    atomic_write_text(path, corpus_text(records))


def write_meta(records: list[PuzzleRecord], path) -> None:
    lines = [json.dumps(r.meta or {"kind": r.kind}, sort_keys=True) for r in records]
    atomic_write_text(path, "\n".join(lines) + "\n" if lines else "")


_JSON_TYPE_NAMES = {str: "string", dict: "object"}


def read_json_lines(path, expected: type) -> list:
    """The value on each non-blank line of a JSON-lines file; each must be
    an `expected` (str or dict). Errors name the file line."""
    values = []
    for line, row in enumerate(read_text(path).split("\n"), start=1):
        if row.strip():
            try:
                value = json.loads(row)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line}: {exc}") from exc
            if not isinstance(value, expected):
                wanted = _JSON_TYPE_NAMES[expected]
                raise ValueError(f"line {line}: expected a JSON {wanted}, got {type(value).__name__}")
            values.append(value)
    return values


def read_meta(path) -> list[dict]:
    return read_json_lines(path, dict)


def parse_corpus_text(text: str) -> list[PuzzleRecord]:
    return [parse_record(chunk) for chunk in split_framed_stream(text)]


def read_corpus(path) -> list[PuzzleRecord]:
    return parse_corpus_text(read_text(path))


def split_framed_stream(text: str) -> list[str]:
    """Cut a raw model-output stream into record-sized chunks at lines that
    open with the start token. Content before the first marker becomes its
    own chunk so broken output still yields one verdict per chunk."""
    chunks: list[list[str]] = []
    current: list[str] = []
    for line in text.split("\n"):
        if line.startswith(START_TOKEN) and current:
            chunks.append(current)
            current = []
        current.append(line)
    if current:
        chunks.append(current)
    texts = ["\n".join(chunk).strip("\n") for chunk in chunks]
    return [t for t in texts if t.strip()]
