import hashlib
import random

import pytest

from conftest import SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION
from puzzletext import sudoku
from puzzletext.corpus import build_sudoku_corpus, corpus_text
from puzzletext.sudoku import (
    GridDigitError,
    GridLengthError,
    InconsistentGridError,
    PuzzleGenerationError,
    UnsolvableGridError,
    Violation,
    _make_masks,
    _other_completion_exists,
    count_solutions,
    count_violations,
    find_violations,
    format_grid81,
    generate_puzzle,
    is_complete,
    parse_grid81,
    render_sudoku,
    solve_sudoku,
)

BLANK = "0" * 81


def brute_force_violations(grid):
    """Independent 27-unit scan: for every unit and digit, count occurrences."""
    found = []
    units = []
    for r in range(9):
        units.append(("row", r, [r * 9 + c for c in range(9)]))
    for c in range(9):
        units.append(("column", c, [r * 9 + c for r in range(9)]))
    for b in range(9):
        cells = []
        for r in range(3):
            for c in range(3):
                cells.append(((b // 3) * 3 + r) * 9 + (b % 3) * 3 + c)
        units.append(("block", b, cells))
    for kind, index, cells in units:
        for digit in range(1, 10):
            hits = [i for i in cells if grid[i] == digit]
            if len(hits) > 1:
                found.append(Violation(kind, index, digit, tuple(hits)))
    return found


def random_grid(rng):
    return tuple(rng.randrange(10) for _ in range(81))


# --- parsing ---


def test_parse_sample_puzzle_blanks():
    grid = parse_grid81(SAMPLE_SUDOKU_PUZZLE)
    assert grid.count(0) == 81 - 35
    assert grid[2] == 4  # first clue


def test_parse_all_blank():
    assert parse_grid81(BLANK) == (0,) * 81


def test_parse_length_error():
    with pytest.raises(GridLengthError):
        parse_grid81("0" * 80)


def test_parse_digit_error():
    with pytest.raises(GridDigitError) as exc:
        parse_grid81("0" * 40 + "x" + "0" * 40)
    assert exc.value.position == 40


def test_parse_accepts_ascii_digits_only():
    # U+0668 ARABIC-INDIC DIGIT EIGHT passes str.isdigit but is not grammar
    text = SAMPLE_SUDOKU_SOLUTION.replace("8", "\u0668", 1)
    with pytest.raises(GridDigitError) as exc:
        parse_grid81(text)
    assert exc.value.position == 0
    with pytest.raises(GridDigitError):
        parse_grid81("\uff15" + "0" * 80)  # FULLWIDTH DIGIT FIVE


def test_violation_is_an_immutable_hashable_record():
    violation = Violation("row", 0, 5, (0, 4))
    assert (violation.kind, violation.index, violation.digit, violation.positions) == ("row", 0, 5, (0, 4))
    assert violation == Violation("row", 0, 5, (0, 4))
    assert violation != Violation("column", 0, 5, (0, 4))
    assert len({violation, Violation("row", 0, 5, (0, 4))}) == 1
    with pytest.raises(AttributeError):
        violation.digit = 6


def test_format_round_trips_sample_pair():
    assert format_grid81(parse_grid81(SAMPLE_SUDOKU_PUZZLE)) == SAMPLE_SUDOKU_PUZZLE
    assert format_grid81(parse_grid81(SAMPLE_SUDOKU_SOLUTION)) == SAMPLE_SUDOKU_SOLUTION


# --- violations ---


def test_sample_solution_is_consistent_and_clue_preserving():
    puzzle = parse_grid81(SAMPLE_SUDOKU_PUZZLE)
    solution = parse_grid81(SAMPLE_SUDOKU_SOLUTION)
    assert find_violations(solution) == []
    assert is_complete(solution)
    assert all(p == 0 or p == s for p, s in zip(puzzle, solution))


def test_blank_grid_has_no_violations():
    assert find_violations(parse_grid81(BLANK)) == []


def test_single_row_violation():
    text = "5" + "0" * 3 + "5" + "0" * 76
    violations = find_violations(parse_grid81(text))
    assert violations == [Violation("row", 0, 5, (0, 4))]


def test_violations_match_brute_force_scan():
    rng = random.Random(17)
    for _ in range(2000):
        grid = random_grid(rng)
        expected = brute_force_violations(grid)
        assert find_violations(grid) == expected
        assert count_violations(grid) == len(expected)


def test_violations_when_every_unit_repeats_one_digit_nine_times():
    # the largest count a unit can hold, in every unit and for every digit
    for digit in range(1, 10):
        grid = (digit,) * 81
        violations = find_violations(grid)
        assert len(violations) == 27
        assert violations == brute_force_violations(grid)
        assert count_violations(grid) == 27


# --- solving ---


def test_solver_reproduces_sample_solution():
    # the sample puzzle is unique, so the deterministic first completion
    # must be the published solution
    assert solve_sudoku(parse_grid81(SAMPLE_SUDOKU_PUZZLE)) == parse_grid81(SAMPLE_SUDOKU_SOLUTION)


def test_solved_grid_is_a_fixpoint():
    solved = parse_grid81(SAMPLE_SUDOKU_SOLUTION)
    assert solve_sudoku(solved) == solved


def test_blank_grid_solves_deterministically():
    first = solve_sudoku(parse_grid81(BLANK))
    assert is_complete(first)
    assert find_violations(first) == []
    assert solve_sudoku(parse_grid81(BLANK)) == first


def test_solve_rejects_inconsistent_input():
    with pytest.raises(InconsistentGridError):
        solve_sudoku(parse_grid81("55" + "0" * 79))


def test_solve_unsolvable_raises():
    # cell (0,0) needs the missing 1, but column 0 already holds a 1
    text = list("023456789" + "0" * 72)
    text[9] = "1"  # row 1, column 0
    with pytest.raises(UnsolvableGridError):
        solve_sudoku(parse_grid81("".join(text)))


# --- counting ---


def test_count_solutions_solved_grid():
    solved = parse_grid81(SAMPLE_SUDOKU_SOLUTION)
    for limit in (1, 2, 5):
        assert count_solutions(solved, limit) == 1


def test_count_solutions_conflict_is_zero():
    assert count_solutions(parse_grid81("55" + "0" * 79), 2) == 0


def test_count_solutions_caps_at_limit():
    assert count_solutions(parse_grid81(BLANK), 3) == 3
    with pytest.raises(ValueError, match="limit must be >= 1"):
        count_solutions(parse_grid81(BLANK), 0)


def test_sample_puzzle_is_unique():
    assert count_solutions(parse_grid81(SAMPLE_SUDOKU_PUZZLE), 2) == 1


# --- generation ---


def test_generate_eighty_clues_unique_by_pigeonhole():
    puzzle, solution = generate_puzzle(5, 80)
    assert sum(1 for d in puzzle if d) == 80
    assert count_solutions(puzzle, 2) == 1
    assert solve_sudoku(puzzle) == solution


def test_generate_construction_invariants():
    for seed in (1, 2, 3):
        puzzle, solution = generate_puzzle(seed, 30)
        assert find_violations(puzzle) == []
        assert is_complete(solution)
        assert find_violations(solution) == []
        assert sum(1 for d in puzzle if d) == 30
        assert all(p == 0 or p == s for p, s in zip(puzzle, solution))
        assert count_solutions(puzzle, 2) == 1


def test_generate_deterministic():
    assert generate_puzzle(12, 28) == generate_puzzle(12, 28)


def test_solver_sound_on_100_generated_puzzles():
    for seed in range(100):
        puzzle, solution = generate_puzzle(seed, 28 + seed % 12)
        solved = solve_sudoku(puzzle)
        assert is_complete(solved)
        assert find_violations(solved) == []
        assert all(p == 0 or p == s for p, s in zip(puzzle, solved))
        assert solved == solution  # unique puzzles have one completion


def test_other_completion_check_matches_count_solutions():
    """generate_puzzle's uniqueness check, on every clue of 30 unique
    puzzles blanked in turn, against counting completions up to two."""
    cases = broken = 0
    for seed in range(30):
        puzzle, _ = generate_puzzle(seed, 30 + seed % 10)
        cells, masks = list(puzzle), _make_masks(puzzle)
        for cell, digit in enumerate(puzzle):
            if digit:
                expected = count_solutions(puzzle[:cell] + (0,) + puzzle[cell + 1:], 2) != 1
                assert _other_completion_exists(cells, masks, cell) == expected
                cases += 1
                broken += expected
        assert (cells, masks) == (list(puzzle), _make_masks(puzzle))  # the search ran on copies
    assert cases == 1035 and 0 < broken < cases  # both answers are checked


def test_generate_clue_bounds():
    with pytest.raises(ValueError):
        generate_puzzle(1, 16)
    with pytest.raises(ValueError):
        generate_puzzle(1, 81)


def test_generate_failure_is_reported(monkeypatch):
    # 17 clues with uniqueness is essentially unreachable by greedy removal
    monkeypatch.setattr(sudoku, "MAX_ATTEMPTS", 1)
    with pytest.raises(PuzzleGenerationError):
        generate_puzzle(0, 17)


# sha256 of the bytes below, recorded before the search was refactored.
PINNED_SEARCH_SHA256 = "dc6c516915fc9f2e8d9e3ef8e360ad0fa1b885e81e2ce5d146d706869102d3a5"


def test_seeded_search_bytes_are_pinned():
    """Generation, solving and counting share one backtracking search whose
    cell order, digit order and RNG calls are part of the byte contract."""
    digest = hashlib.sha256()
    for require_unique in (True, False):
        records = build_sudoku_corpus(20240, 12, (25, 35), require_unique=require_unique)
        digest.update(corpus_text(records).encode("utf-8"))
    rng = random.Random(31)
    for blanks in (0, 30, 45, 55, 65, 75, 81):
        cells = list(parse_grid81(SAMPLE_SUDOKU_SOLUTION))
        for i in rng.sample(range(81), blanks):
            cells[i] = 0
        grid = tuple(cells)
        digest.update(format_grid81(solve_sudoku(grid)).encode("utf-8"))
        digest.update(str(count_solutions(grid, 25)).encode("utf-8"))
    assert digest.hexdigest() == PINNED_SEARCH_SHA256


# --- rendering ---


def test_render_blank_grid():
    text = render_sudoku(parse_grid81(BLANK))
    assert text.count(".") == 81
    assert "*" not in text


def test_render_solved_grid_has_no_markers():
    assert "*" not in render_sudoku(parse_grid81(SAMPLE_SUDOKU_SOLUTION))


def test_render_marks_violating_cells():
    grid = parse_grid81("5" + "0" * 3 + "5" + "0" * 76)
    text = render_sudoku(grid, find_violations(grid))
    assert text.count("*") == 2
