"""9x9 Sudoku grid model: validation, backtracking solver, generation.

Grids travel as flat 81-digit strings, row-major, with 0 marking a blank
cell. A grid is consistent when no digit 1-9 repeats inside a row, column,
or 3x3 block; solved means complete and consistent.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import NamedTuple

ROW_UNITS = tuple(tuple(r * 9 + c for c in range(9)) for r in range(9))
COLUMN_UNITS = tuple(tuple(r * 9 + c for r in range(9)) for c in range(9))
BLOCK_UNITS = tuple(
    tuple((br * 3 + r) * 9 + (bc * 3 + c) for r in range(3) for c in range(3))
    for br in range(3)
    for bc in range(3)
)


class GridLengthError(ValueError):
    def __init__(self, length: int):
        super().__init__(f"grid string must have 81 characters, got {length}")
        self.length = length


class GridDigitError(ValueError):
    def __init__(self, position: int, char: str):
        super().__init__(f"character {char!r} at index {position} is not a digit")
        self.position = position
        self.char = char


class InconsistentGridError(ValueError):
    pass


class UnsolvableGridError(ValueError):
    pass


class PuzzleGenerationError(RuntimeError):
    pass


@dataclass(frozen=True, slots=True)
class SudokuGrid:
    cells: tuple[int, ...]  # 81 digits, 0 = blank


class Violation(NamedTuple):
    kind: str  # "row", "column", or "block"
    index: int  # 0..8 within the unit family
    digit: int
    positions: tuple[int, ...]  # cell indices holding the repeated digit


_DIGITS = "0123456789"  # the grid alphabet: ASCII digits only


def _is_grid81(text: str) -> bool:
    return len(text) == 81 and all(c in _DIGITS for c in text)


def parse_grid81(text: str) -> SudokuGrid:
    if len(text) != 81:
        raise GridLengthError(len(text))
    for position, char in enumerate(text):
        if char not in _DIGITS:
            raise GridDigitError(position, char)
    return SudokuGrid(tuple(int(c) for c in text))


def format_grid81(grid: SudokuGrid) -> str:
    return "".join(str(d) for d in grid.cells)


_tuple_new = tuple.__new__


def find_violations(grid: SudokuGrid) -> list[Violation]:
    """One Violation per (unit, digit) pair that appears twice or more.

    Order is deterministic: rows 0-8, then columns, then blocks, digits
    ascending within each unit. Blanks are exempt.
    """
    cells = grid.cells
    violations = []
    for kind, units in (("row", ROW_UNITS), ("column", COLUMN_UNITS), ("block", BLOCK_UNITS)):
        for index, unit in enumerate(units):
            counts = [0] * 10
            for i in unit:
                counts[cells[i]] += 1
            for digit in range(1, 10):
                if counts[digit] >= 2:
                    positions = tuple(i for i in unit if cells[i] == digit)
                    # what Violation(...) runs, minus its Python-level __new__
                    violations.append(_tuple_new(Violation, (kind, index, digit, positions)))
    return violations


def is_complete(grid: SudokuGrid) -> bool:
    return 0 not in grid.cells


_CELL_UNITS = tuple(
    (i // 9, 9 + i % 9, 18 + (i // 27) * 3 + (i % 9) // 3) for i in range(81)
)


def _make_masks(cells):
    # masks[u] bit d set when digit d is already used in unit u;
    # units 0-8 rows, 9-17 columns, 18-26 blocks.
    masks = [0] * 27
    for i, digit in enumerate(cells):
        if digit:
            bit = 1 << digit
            for u in _CELL_UNITS[i]:
                if masks[u] & bit:
                    return None  # direct conflict
                masks[u] |= bit
    return masks


def _candidates(masks, cell):
    used = 0
    for u in _CELL_UNITS[cell]:
        used |= masks[u]
    return [d for d in range(1, 10) if not used & (1 << d)]


def _pick_blank(cells, masks):
    # fewest candidates first, ties by lowest cell index
    best = None
    best_count = 10
    for i, digit in enumerate(cells):
        if digit == 0:
            n = len(_candidates(masks, i))
            if n < best_count:
                best, best_count = i, n
                if n <= 1:
                    break
    return best


def _solve_cells(cells, masks, limit, solutions, rng=None):
    """Backtracking search; appends up to `limit` completed cell tuples.
    Digits are tried in ascending order, or shuffled by `rng` when given."""
    cell = _pick_blank(cells, masks)
    if cell is None:
        solutions.append(tuple(cells))
        return len(solutions) >= limit
    digits = _candidates(masks, cell)
    if rng is not None:
        rng.shuffle(digits)
    for digit in digits:
        bit = 1 << digit
        cells[cell] = digit
        for u in _CELL_UNITS[cell]:
            masks[u] |= bit
        if _solve_cells(cells, masks, limit, solutions, rng):
            return True
        cells[cell] = 0
        for u in _CELL_UNITS[cell]:
            masks[u] &= ~bit
    return False


def solve_sudoku(grid: SudokuGrid) -> SudokuGrid:
    """First completion under the deterministic ordering (fewest-candidate
    cell, digits ascending). Raises if the input has violations or no
    completion exists."""
    if find_violations(grid):
        raise InconsistentGridError("input grid has repeated digits")
    cells = list(grid.cells)
    masks = _make_masks(cells)
    solutions: list[tuple[int, ...]] = []
    _solve_cells(cells, masks, 1, solutions)
    if not solutions:
        raise UnsolvableGridError("no completion exists")
    return SudokuGrid(solutions[0])


def count_solutions(grid: SudokuGrid, limit: int) -> int:
    """Number of distinct completions, capped at `limit` (early stop)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    masks = _make_masks(list(grid.cells))
    if masks is None:
        return 0
    solutions: list[tuple[int, ...]] = []
    _solve_cells(list(grid.cells), masks, limit, solutions)
    return len(solutions)


def _random_solved_grid(rng: random.Random) -> SudokuGrid:
    solutions: list[tuple[int, ...]] = []
    _solve_cells([0] * 81, [0] * 27, 1, solutions, rng)
    return SudokuGrid(solutions[0])


def generate_puzzle(
    rng_seed: int, clues: int, require_unique: bool = True, max_attempts: int = 20
) -> tuple[SudokuGrid, SudokuGrid]:
    """Seeded (puzzle, solution) pair with exactly `clues` filled cells.

    Builds a solved grid by randomized backtracking, then removes cells in
    seeded random order, skipping removals that break uniqueness when
    require_unique. Retries with fresh grids before giving up.
    """
    if not 17 <= clues <= 80:
        raise ValueError(f"clues must be in 17..80, got {clues}")
    rng = random.Random(rng_seed)
    for _ in range(max_attempts):
        solution = _random_solved_grid(rng)
        cells = list(solution.cells)
        order = list(range(81))
        rng.shuffle(order)
        remaining = 81
        for cell in order:
            if remaining == clues:
                break
            removed = cells[cell]
            cells[cell] = 0
            if require_unique and count_solutions(SudokuGrid(tuple(cells)), 2) != 1:
                cells[cell] = removed
            else:
                remaining -= 1
        if remaining == clues:
            return SudokuGrid(tuple(cells)), solution
    raise PuzzleGenerationError(f"could not reach {clues} clues with a unique solution")


def render_sudoku(grid: SudokuGrid, highlight: list[Violation] | None = None) -> str:
    """Console grid with box separators; blanks as '.', highlighted cells
    starred. Every cell renders as two characters (marker + digit)."""
    marked = set()
    for violation in highlight or ():
        marked.update(violation.positions)
    lines = []
    for r in range(9):
        if r in (3, 6):
            lines.append("-" * 6 + "+" + "-" * 6 + "+" + "-" * 6)
        row = []
        for c in range(9):
            i = r * 9 + c
            digit = grid.cells[i]
            char = str(digit) if digit else "."
            row.append(("*" if i in marked else " ") + char)
        lines.append("".join(row[0:3]) + "|" + "".join(row[3:6]) + "|" + "".join(row[6:9]))
    return "\n".join(lines)
