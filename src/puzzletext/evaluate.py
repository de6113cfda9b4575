"""Three-way scoring of model-generated puzzle text.

Every scored sample lands in exactly one class: invalid when the response
cannot be parsed under the puzzle grammar (or breaks a hard rule such as
changing a given clue), incorrect when it parses but does not solve the
puzzle, and correct when it solves it. Alongside the class, kind-specific
partial-progress metrics record how far a non-solving output got: solved
faces and uniform rows/columns for the cube, filled cells and repeated
digits for sudoku, and the fraction of the shortest path walked for mazes.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from . import corpus as corpus_mod
from ._util import read_lines, read_pieces
from .corpus import DEFAULT_MAX_CHARS
from .cube import (
    FACES,
    FaceletStringError,
    FormulaSyntaxError,
    apply_formula,
    decode_facelets,
    is_solved,
    parse_formula,
)
from .maze import (
    MazeParseError,
    MazeUnreachableError,
    parse_maze,
    solve_maze,
    validate_path,
)
from .sudoku import _clue_changed, count_violations, parse_grid81

INVALID, INCORRECT, CORRECT = "invalid", "incorrect", "correct"
_NOT_BROKEN_DOWN = frozenset(("kind", "seed", "source_line"))


class BadPromptError(ValueError):
    pass


class LineCountMismatchError(ValueError):
    def __init__(self, prompts: int, outputs: int):
        super().__init__(f"{prompts} prompts but {outputs} outputs")
        self.prompts = prompts
        self.outputs = outputs


class EmptyInputError(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class SampleVerdict:
    kind: str
    status: str  # invalid / incorrect / correct
    reason: str | None = None  # set only for invalid samples
    progress: object = None  # kind-specific metric; None for invalid samples


# per face: where its nine stickers start, the face solved, and one line of it
_FACE_BLOCKS = tuple((9 * index, face * 9, face * 3) for index, face in enumerate(FACES))


def cube_progress(cube: str) -> tuple[int, int]:
    """(solved faces, uniform three-sticker rows plus columns, 36 max)."""
    solved_faces = 0
    lines = 0
    for start, solved, line in _FACE_BLOCKS:
        block = cube[start: start + 9]
        if block == solved:
            solved_faces += 1
            lines += 6
        else:
            # rows, then columns
            lines += (
                (block[:3] == line) + (block[3:6] == line) + (block[6:] == line)
                + (block[::3] == line) + (block[1::3] == line) + (block[2::3] == line)
            )
    return solved_faces, lines


def classify_cube(initial: str, response: str) -> SampleVerdict:
    """Score a move-formula response against a 54-character start state. A
    response longer than DEFAULT_MAX_CHARS characters is invalid."""
    try:
        cube = decode_facelets(initial)
    except FaceletStringError as exc:
        raise BadPromptError(str(exc)) from exc

    if len(response) > DEFAULT_MAX_CHARS:
        return SampleVerdict("cube", INVALID, "too_long")
    try:
        formula = parse_formula(response)
    except FormulaSyntaxError as exc:
        return SampleVerdict("cube", INVALID, f"syntax_error:{exc.position}")
    final = apply_formula(cube, formula)
    progress = cube_progress(final)
    if is_solved(final):
        return SampleVerdict("cube", CORRECT, progress=progress)
    return SampleVerdict("cube", INCORRECT, progress=progress)


def classify_sudoku(puzzle: str, response: str) -> SampleVerdict:
    """Score an 81-digit response against an 81-digit puzzle. A response
    that changes a given clue is invalid."""
    try:
        puzzle_grid = parse_grid81(puzzle)
    except ValueError as exc:
        raise BadPromptError(str(exc)) from exc
    if count_violations(puzzle_grid):
        raise BadPromptError("prompt puzzle has repeated digits")

    try:
        response_grid = parse_grid81(response)
    except ValueError:
        return SampleVerdict("sudoku", INVALID, "bad_grid")
    if _clue_changed(puzzle_grid, response_grid):
        return SampleVerdict("sudoku", INVALID, "clue_changed")
    violations = count_violations(response_grid)
    filled = 81 - response_grid.count(0)
    progress = (filled, violations)
    if filled == 81 and not violations:
        return SampleVerdict("sudoku", CORRECT, progress=progress)
    return SampleVerdict("sudoku", INCORRECT, progress=progress)


def classify_maze(record_text: str) -> SampleVerdict:
    """Score one framed maze record (unsolved render, then solved render).

    Maze samples are generated unconditionally, so the prompt half is model
    output too: framing errors, unparseable halves, and wall disagreements
    between the halves are all invalid. Progress for non-solving paths is
    the walked fraction of the shortest path."""
    try:
        record = corpus_mod.parse_record(record_text)
    except ValueError:
        return SampleVerdict("maze", INVALID, "framing")
    if record.kind != "maze":
        return SampleVerdict("maze", INVALID, "framing")
    try:
        prompt_maze, _ = parse_maze(record.prompt)
    except MazeParseError:
        return SampleVerdict("maze", INVALID, "prompt_maze")
    try:
        response_maze, path = parse_maze(record.response)
    except MazeParseError:
        return SampleVerdict("maze", INVALID, "response_maze")
    if prompt_maze != response_maze:
        return SampleVerdict("maze", INVALID, "wall_mismatch")
    steps = path or ()
    result = validate_path(response_maze, steps)
    if result.ok:
        return SampleVerdict("maze", CORRECT, progress=1.0)
    try:
        shortest = len(solve_maze(prompt_maze))
    except MazeUnreachableError:
        return SampleVerdict("maze", INCORRECT, progress=0.0)
    walked = len(steps) if result.step_index is None else result.step_index  # wrong_endpoint walks every step
    progress = min(1.0, walked / shortest) if shortest else 0.0
    return SampleVerdict("maze", INCORRECT, progress=progress)


def _percentage(count: int, total: int) -> float:
    # 100 * count / total to one decimal, halves rounded up, in integers
    return (2000 * count + total) // (2 * total) / 10


def _progress_bucket(verdict: SampleVerdict) -> str:
    if verdict.kind == "maze":
        return f"{verdict.progress:.1f}"
    a, b = verdict.progress
    return f"{a}/{b}"


def aggregate(verdicts: list[SampleVerdict], params: list[dict] | None = None) -> dict:
    """The report, as the JSON object that `score --json` writes: total,
    counts and percentages (one decimal, halves away from zero) per class,
    progress histograms per kind (kind -> bucket -> count), and, when a
    parallel list of per-sample parameter dicts is supplied, class counts
    per generation parameter (param -> value -> class -> count). `kind`,
    `seed` and `source_line` are not broken down: a seed or a line names one
    record, not a generation parameter."""
    if params is not None and len(params) != len(verdicts):
        raise ValueError(f"meta sidecar has {len(params)} rows, expected {len(verdicts)}")
    if not verdicts:
        raise EmptyInputError("no verdicts to aggregate")
    counts = {INVALID: 0, INCORRECT: 0, CORRECT: 0}
    histogram: dict[str, dict[str, int]] = {}
    breakdown: dict[str, dict[str, dict[str, int]]] = {}
    for i, verdict in enumerate(verdicts):
        counts[verdict.status] += 1
        if verdict.progress is not None:
            kind_hist = histogram.setdefault(verdict.kind, {})
            bucket = _progress_bucket(verdict)
            kind_hist[bucket] = kind_hist.get(bucket, 0) + 1
        if params is not None:
            for key, value in params[i].items():
                if key in _NOT_BROKEN_DOWN:
                    continue
                per_value = breakdown.setdefault(key, {}).setdefault(str(value), {})
                per_value[verdict.status] = per_value.get(verdict.status, 0) + 1
    total = len(verdicts)
    return {
        "total": total,
        "counts": counts,
        "percentages": {cls: _percentage(n, total) for cls, n in counts.items()},
        "progress_histogram": histogram,
        "breakdown": breakdown,
    }


def format_report(report: dict) -> str:
    lines = [f"total samples: {report['total']}"]
    for cls in (CORRECT, INCORRECT, INVALID):
        lines.append(f"  {cls:<9} {report['counts'][cls]:>6}  ({report['percentages'][cls]}%)")
    for kind, hist in sorted(report["progress_histogram"].items()):
        lines.append(f"progress ({kind}):")
        for bucket, count in sorted(hist.items()):
            lines.append(f"  {bucket:<8} {count}")
    for param, values in sorted(report["breakdown"].items()):
        lines.append(f"breakdown by {param}:")
        for value, classes in sorted(values.items()):
            parts = ", ".join(f"{cls}={classes.get(cls, 0)}" for cls in (CORRECT, INCORRECT, INVALID))
            lines.append(f"  {value}: {parts}")
    return "\n".join(lines)


def ingest_external_outputs(
    prompts_path,
    outputs_path,
    kind: str,
    *,
    jsonl: bool = False,
) -> tuple[list[SampleVerdict], list[corpus_mod.RowIssue]]:
    """Score externally produced outputs. Cube and sudoku mode expect two
    line-aligned files (prompt i pairs with output i); maze mode consumes a
    single stream of framed multi-line records from outputs_path, or with
    jsonl one JSON string per non-blank line. Unusable prompts are skipped
    and reported; garbage outputs classify as invalid without stopping the
    run."""
    issues: list[corpus_mod.RowIssue] = []
    verdicts: list[SampleVerdict] = []
    if kind == "maze":
        if jsonl:
            samples = corpus_mod.read_json_lines(outputs_path, str)
        else:
            samples = corpus_mod.split_framed_stream(read_pieces(outputs_path))
        return [classify_maze(sample) for sample in samples], issues
    if kind not in ("cube", "sudoku"):
        raise ValueError(f"unknown kind {kind!r}")
    classify = classify_cube if kind == "cube" else classify_sudoku
    # A file's line count is its last non-empty line. Lines past both counts
    # pair blank prompts, so they give only issues, dropped once counts match.
    prompt_count = output_count = 0
    pairs = zip_longest(read_lines(prompts_path), read_lines(outputs_path), fillvalue="")
    for line, (prompt, output) in enumerate(pairs, start=1):
        if prompt:
            prompt_count = line
        if output:
            output_count = line
        try:
            verdicts.append(classify(prompt, output))
        except BadPromptError as exc:
            issues.append(corpus_mod.RowIssue(line, str(exc)))
    if prompt_count != output_count:
        raise LineCountMismatchError(prompt_count, output_count)
    return verdicts, [issue for issue in issues if issue.line <= prompt_count]
