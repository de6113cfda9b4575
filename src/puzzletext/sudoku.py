"""9x9 Sudoku grid model: validation, backtracking solver, generation.

Grids travel as flat 81-digit strings, row-major, with 0 marking a blank
cell. A grid is consistent when no digit 1-9 repeats inside a row, column,
or 3x3 block; solved means complete and consistent.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, product
from operator import itemgetter
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


_UNITS = ROW_UNITS + COLUMN_UNITS + BLOCK_UNITS
# find_violations works on bytes: the 27 units' cells laid end to end (243
# bytes), then one 0/1 copy of those per digit 1-9, digit-major (2,187 bytes).
_UNIT_CELLS = itemgetter(*[i for unit in _UNITS for i in unit])
_ONE_HOT = [bytes(digit) + b"\x01" + bytes(255 - digit) for digit in range(1, 10)]
_AT_LEAST_TWO = bytes(2) + b"\x01" * 254
# Multiplying 0/1 bytes by this puts each 9-byte unit's count in its last
# byte; no count exceeds 9, so nothing carries.
_NINE_ONES = int.from_bytes(b"\x01" * 9, "little")
# digit-major (digit * 27 + unit) to unit-major (unit * 9 + digit)
_BY_UNIT = itemgetter(*[d * 27 + u for u in range(27) for d in range(9)])
# for each 9-byte 0/1 mask with two or more ones, the getter that picks the
# masked cells out of a unit as a tuple
_PICK = {
    bytes(bits): itemgetter(*compress(range(9), bits))
    for bits in product((0, 1), repeat=9)
    if sum(bits) >= 2
}
# per (unit, digit) in output order: kind, index, digit, the unit's cells and
# the slice of the one-hot bytes over them
_UNIT_DIGITS = tuple(
    (kind, u % 9, digit + 1, _UNITS[u], slice(digit * 243 + u * 9, digit * 243 + u * 9 + 9))
    for u, kind in enumerate(("row",) * 9 + ("column",) * 9 + ("block",) * 9)
    for digit in range(9)
)

_tuple_new = tuple.__new__


def find_violations(grid: SudokuGrid) -> list[Violation]:
    """One Violation per (unit, digit) pair that appears twice or more.

    Order is deterministic: rows 0-8, then columns, then blocks, digits
    ascending within each unit. Blanks are exempt.
    """
    by_unit = bytes(_UNIT_CELLS(grid.cells))
    one_hot = b"".join([by_unit.translate(table) for table in _ONE_HOT])
    sums = int.from_bytes(one_hot, "little") * _NINE_ONES
    counts = sums.to_bytes(len(one_hot) + 8, "little")[8::9]
    violations = []
    for kind, index, digit, unit, span in compress(
        _UNIT_DIGITS, _BY_UNIT(counts.translate(_AT_LEAST_TWO))
    ):
        positions = _PICK[one_hot[span]](unit)
        # what Violation(...) runs, minus its Python-level __new__
        violations.append(_tuple_new(Violation, (kind, index, digit, positions)))
    return violations


def is_complete(grid: SudokuGrid) -> bool:
    return 0 not in grid.cells


# The three unit numbers of each cell: rows 0-8, columns 9-17, blocks 18-26.
_CELL_UNITS = tuple(
    tuple(u for u, unit in enumerate(_UNITS) if i in unit)
    for i in range(81)
)


def _make_masks(cells):
    # masks[u] bit d set when digit d is already used in unit u
    masks = [0] * 27
    for i, digit in enumerate(cells):
        if digit:
            bit = 1 << digit
            for u in _CELL_UNITS[i]:
                if masks[u] & bit:
                    return None  # direct conflict
                masks[u] |= bit
    return masks


def _solve_cells(cells, masks, limit, solutions, rng=None):
    """Backtracking search; appends up to `limit` completed cell tuples.
    Each node fills the blank with the fewest candidates, ties to the lowest
    index. Digits are tried in ascending order, or shuffled by `rng` when given."""
    cell, free, fewest = None, 0, 10
    for i, digit in enumerate(cells):
        if digit == 0:
            row, column, block = _CELL_UNITS[i]
            options = ~(masks[row] | masks[column] | masks[block]) & 0b1111111110
            count = options.bit_count()
            if count < fewest:
                cell, free, fewest = i, options, count
                if count <= 1:
                    break
    if cell is None:
        solutions.append(tuple(cells))
        return len(solutions) >= limit
    digits = [d for d in range(1, 10) if free >> d & 1]
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
    cells = list(grid.cells)
    masks = _make_masks(cells)
    if masks is None:
        raise InconsistentGridError("input grid has repeated digits")
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
