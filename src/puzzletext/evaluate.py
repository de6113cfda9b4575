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
from decimal import ROUND_HALF_UP, Decimal

from . import corpus as corpus_mod
from ._util import read_text
from .cube import (
    FACES,
    FaceletCube,
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
    path_prefix_length,
    solve_maze,
    validate_path,
)
from .sudoku import find_violations, parse_grid81

INVALID, INCORRECT, CORRECT = "invalid", "incorrect", "correct"

DEFAULT_MAX_CHARS = 1024  # response budget standing in for a model token limit


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
    reason: str | None  # set only for invalid samples
    progress: object  # kind-specific metric; None for invalid samples
    generated_text: str
    prompt_key: str


@dataclass(slots=True)
class EvalReport:
    total: int
    invalid: int
    incorrect: int
    correct: int
    percentages: dict[str, float]
    progress_histogram: dict[str, dict[str, int]]  # kind -> bucket -> count
    breakdown: dict[str, dict[str, dict[str, int]]]  # param -> value -> class -> count


def cube_progress(cube: FaceletCube) -> tuple[int, int]:
    """(solved faces, uniform three-sticker rows plus columns, 36 max)."""
    s = cube.facelets
    solved_faces = 0
    lines = 0
    for face_index, face in enumerate(FACES):
        block = s[face_index * 9: face_index * 9 + 9]
        if block == face * 9:
            solved_faces += 1
        for r in range(3):
            if block[3 * r: 3 * r + 3] == face * 3:
                lines += 1
        for c in range(3):
            if block[c] == block[c + 3] == block[c + 6] == face:
                lines += 1
    return solved_faces, lines


def classify_cube(
    initial: str, response: str, max_chars: int = DEFAULT_MAX_CHARS
) -> SampleVerdict:
    """Score a move-formula response against a 54-character start state."""
    try:
        cube = decode_facelets(initial)
    except FaceletStringError as exc:
        raise BadPromptError(str(exc)) from exc

    def verdict(status, reason=None, progress=None):
        return SampleVerdict("cube", status, reason, progress, response, initial)

    if len(response) > max_chars:
        return verdict(INVALID, "too_long")
    try:
        formula = parse_formula(response)
    except FormulaSyntaxError as exc:
        return verdict(INVALID, f"syntax_error:{exc.position}")
    final = apply_formula(cube, formula)
    progress = cube_progress(final)
    if is_solved(final):
        return verdict(CORRECT, progress=progress)
    return verdict(INCORRECT, progress=progress)


def classify_sudoku(puzzle: str, response: str, strict_clues: bool = True) -> SampleVerdict:
    """Score an 81-digit response against an 81-digit puzzle. With
    strict_clues (default), changing a given clue is invalid; switch it off
    to score on completeness and consistency alone."""
    try:
        puzzle_grid = parse_grid81(puzzle)
    except ValueError as exc:
        raise BadPromptError(str(exc)) from exc
    if find_violations(puzzle_grid):
        raise BadPromptError("prompt puzzle has repeated digits")

    def verdict(status, reason=None, progress=None):
        return SampleVerdict("sudoku", status, reason, progress, response, puzzle)

    try:
        response_grid = parse_grid81(response)
    except ValueError:
        return verdict(INVALID, "bad_grid")
    if strict_clues and any(
        p and p != r for p, r in zip(puzzle_grid.cells, response_grid.cells)
    ):
        return verdict(INVALID, "clue_changed")
    violations = find_violations(response_grid)
    filled = sum(1 for d in response_grid.cells if d)
    progress = (filled, len(violations))
    if filled == 81 and not violations:
        return verdict(CORRECT, progress=progress)
    return verdict(INCORRECT, progress=progress)


def classify_maze(record_text: str) -> SampleVerdict:
    """Score one framed maze record (unsolved render, then solved render).

    Maze samples are generated unconditionally, so the prompt half is model
    output too: framing errors, unparseable halves, and wall disagreements
    between the halves are all invalid. Progress for non-solving paths is
    the walked fraction of the shortest path."""

    def verdict(status, reason=None, progress=None, key=""):
        return SampleVerdict("maze", status, reason, progress, record_text, key)

    try:
        record = corpus_mod.parse_record(record_text)
    except ValueError:
        return verdict(INVALID, "framing")
    if record.kind != "maze":
        return verdict(INVALID, "framing")
    try:
        prompt_maze, _ = parse_maze(record.prompt)
    except MazeParseError:
        return verdict(INVALID, "prompt_maze")
    try:
        response_maze, path = parse_maze(record.response)
    except MazeParseError:
        return verdict(INVALID, "response_maze", key=record.prompt)
    if prompt_maze != response_maze:
        return verdict(INVALID, "wall_mismatch", key=record.prompt)
    steps = path or ()
    result = validate_path(response_maze, steps)
    if result.ok:
        return verdict(CORRECT, progress=1.0, key=record.prompt)
    try:
        shortest = len(solve_maze(prompt_maze, "bfs"))
    except MazeUnreachableError:
        return verdict(INCORRECT, progress=0.0, key=record.prompt)
    walked = path_prefix_length(response_maze, steps)
    progress = min(1.0, walked / shortest) if shortest else 0.0
    return verdict(INCORRECT, progress=progress, key=record.prompt)


def _percentage(count: int, total: int) -> float:
    value = Decimal(100 * count) / Decimal(total)
    return float(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def _progress_bucket(verdict: SampleVerdict) -> str:
    if verdict.kind == "maze":
        return f"{verdict.progress:.1f}"
    a, b = verdict.progress
    return f"{a}/{b}"


def aggregate(
    verdicts: list[SampleVerdict], params: list[dict] | None = None
) -> EvalReport:
    """Counts, percentages (one decimal, halves away from zero), progress
    histograms per kind, and class breakdowns per generation parameter when
    a parallel list of per-sample parameter dicts is supplied."""
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
                if key in ("kind", "seed"):
                    continue
                per_value = breakdown.setdefault(key, {}).setdefault(str(value), {})
                per_value[verdict.status] = per_value.get(verdict.status, 0) + 1
    total = len(verdicts)
    assert counts[INVALID] + counts[INCORRECT] + counts[CORRECT] == total
    return EvalReport(
        total=total,
        invalid=counts[INVALID],
        incorrect=counts[INCORRECT],
        correct=counts[CORRECT],
        percentages={cls: _percentage(n, total) for cls, n in counts.items()},
        progress_histogram=histogram,
        breakdown=breakdown,
    )


def report_to_dict(report: EvalReport) -> dict:
    return {
        "total": report.total,
        "counts": {
            INVALID: report.invalid,
            INCORRECT: report.incorrect,
            CORRECT: report.correct,
        },
        "percentages": report.percentages,
        "progress_histogram": report.progress_histogram,
        "breakdown": report.breakdown,
    }


def format_report(report: EvalReport) -> str:
    lines = [f"total samples: {report.total}"]
    for cls, count in (
        (CORRECT, report.correct),
        (INCORRECT, report.incorrect),
        (INVALID, report.invalid),
    ):
        lines.append(f"  {cls:<9} {count:>6}  ({report.percentages[cls]}%)")
    for kind, hist in sorted(report.progress_histogram.items()):
        lines.append(f"progress ({kind}):")
        for bucket, count in sorted(hist.items()):
            lines.append(f"  {bucket:<8} {count}")
    for param, values in sorted(report.breakdown.items()):
        lines.append(f"breakdown by {param}:")
        for value, classes in sorted(values.items()):
            parts = ", ".join(f"{cls}={classes.get(cls, 0)}" for cls in (CORRECT, INCORRECT, INVALID))
            lines.append(f"  {value}: {parts}")
    return "\n".join(lines)


def _read_lines(path) -> list[str]:
    lines = read_text(path).split("\n")
    while lines and lines[-1] == "":
        lines.pop()
    return lines


def ingest_external_outputs(
    prompts_path,
    outputs_path,
    kind: str,
    *,
    max_chars: int = DEFAULT_MAX_CHARS,
    strict_clues: bool = True,
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
            samples = corpus_mod.split_framed_stream(read_text(outputs_path))
        return [classify_maze(sample) for sample in samples], issues
    if kind not in ("cube", "sudoku"):
        raise ValueError(f"unknown kind {kind!r}")
    prompts = _read_lines(prompts_path)
    outputs = _read_lines(outputs_path)
    if len(prompts) != len(outputs):
        raise LineCountMismatchError(len(prompts), len(outputs))
    for line, (prompt, output) in enumerate(zip(prompts, outputs), start=1):
        try:
            if kind == "cube":
                verdicts.append(classify_cube(prompt, output, max_chars=max_chars))
            else:
                verdicts.append(classify_sudoku(prompt, output, strict_clues=strict_clues))
        except BadPromptError as exc:
            issues.append(corpus_mod.RowIssue(line, str(exc)))
    return verdicts, issues
