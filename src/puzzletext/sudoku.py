"""9x9 Sudoku grid model: validation, backtracking solver, generation.

Grids travel as flat 81-digit strings, row-major, with 0 marking a blank
cell. A grid is consistent when no digit 1-9 repeats inside a row, column,
or 3x3 block; solved means complete and consistent.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import compress, islice, product
from operator import itemgetter
from typing import NamedTuple

from ._util import seeded_random

MIN_CLUES, MAX_CLUES = 17, 80  # fewer than 17 never pins one solution; 81 leaves nothing to solve
MAX_ATTEMPTS = 20  # solved grids generate_puzzle digs before it gives up

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


class Violation(NamedTuple):
    kind: str  # "row", "column", or "block"
    index: int  # 0..8 within the unit family
    digit: int
    positions: tuple[int, ...]  # cell indices holding the repeated digit


# A grid is its 81 cell digits, row-major, with 0 for a blank.
Grid = tuple[int, ...]


_DIGITS = "0123456789"  # the grid alphabet: ASCII digits only
_DIGIT_VALUES = bytes.maketrans(_DIGITS.encode(), bytes(range(10)))


def _is_grid81(text: str) -> bool:
    # isdigit alone also accepts digits such as '²' and '٣'
    return len(text) == 81 and text.isascii() and text.isdigit()


def parse_grid81(text: str) -> Grid:
    if len(text) != 81:
        raise GridLengthError(len(text))
    if not _is_grid81(text):
        for position, char in enumerate(text):
            if char not in _DIGITS:
                raise GridDigitError(position, char)
    return tuple(text.encode().translate(_DIGIT_VALUES))


def format_grid81(grid: Grid) -> str:
    return "".join(str(d) for d in grid)


_UNITS = ROW_UNITS + COLUMN_UNITS + BLOCK_UNITS
# Both violation counters work on 0/1 bytes, one copy of the cells per digit
# 1-9 made by translating with _ONE_HOT, digit-major, read as one big integer.
# Multiplying 0/1 bytes by a pattern of 1-bytes sums, in one byte of the
# product, the cells under the pattern; no sum exceeds 9, so nothing carries.
# find_violations first gathers the 27 units' cells end to end (243 bytes),
# so each unit's count lands in its last byte after one multiply by
# _NINE_ONES, and it then picks the cells of each repeated (unit, digit).
# count_violations only counts, straight from the 81 row-major cells (byte
# 81*(digit-1) + cell): rows and blocks by one multiply each, columns by
# adding shifted copies, then one bit_count per unit family.
_UNIT_CELLS = itemgetter(*[i for unit in _UNITS for i in unit])
_ONE_HOT = [bytes(digit) + b"\x01" + bytes(255 - digit) for digit in range(1, 10)]
_AT_LEAST_TWO = bytes(2) + b"\x01" * 254
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


def _count_bytes(last_cells) -> tuple[int, int]:
    """For the byte of each digit's copy that holds a unit family's counts
    (at these cells, one per unit): 126 to add there, which sets the byte's
    high bit exactly when its count is 2 or more, and the mask of those bits."""
    positions = [81 * digit + cell for digit in range(9) for cell in last_cells]
    ones = sum(1 << 8 * position for position in positions)
    return 126 * ones, 128 * ones


# a 3x3 block of 1-bytes: its product puts a block's count at its last cell
_BLOCK_ONES = sum(1 << 8 * (9 * r + c) for r in range(3) for c in range(3))
_ROW_ADD, _ROW_HIGH = _count_bytes([9 * r + 8 for r in range(9)])
_BLOCK_ADD, _BLOCK_HIGH = _count_bytes([27 * br + 20 + 3 * bc for br in range(3) for bc in range(3)])
_COLUMN_ADD, _COLUMN_HIGH = _count_bytes([72 + c for c in range(9)])

_tuple_new = tuple.__new__


def find_violations(grid: Grid) -> list[Violation]:
    """One Violation per (unit, digit) pair that appears twice or more.

    Order is deterministic: rows 0-8, then columns, then blocks, digits
    ascending within each unit. Blanks are exempt.
    """
    by_unit = bytes(_UNIT_CELLS(grid))
    one_hot = b"".join([by_unit.translate(table) for table in _ONE_HOT])
    sums = int.from_bytes(one_hot, "little") * _NINE_ONES
    repeated = sums.to_bytes(len(one_hot) + 8, "little")[8::9].translate(_AT_LEAST_TWO)
    violations = []
    for kind, index, digit, unit, span in compress(_UNIT_DIGITS, _BY_UNIT(repeated)):
        positions = _PICK[one_hot[span]](unit)
        # what Violation(...) runs, minus its Python-level __new__
        violations.append(_tuple_new(Violation, (kind, index, digit, positions)))
    return violations


def count_violations(grid: Grid) -> int:
    """len(find_violations(grid)), without gathering units or building the
    violations."""
    cells = bytes(grid)
    one_hot = int.from_bytes(b"".join([cells.translate(table) for table in _ONE_HOT]), "little")
    # a column's count, at its last cell, sums the cells 0 to 8 rows above it
    columns = one_hot + (one_hot << 72)
    columns += columns << 144
    columns += (columns << 288) + (one_hot << 576)
    return (
        ((one_hot * _NINE_ONES + _ROW_ADD) & _ROW_HIGH).bit_count()
        + ((one_hot * _BLOCK_ONES + _BLOCK_ADD) & _BLOCK_HIGH).bit_count()
        + ((columns + _COLUMN_ADD) & _COLUMN_HIGH).bit_count()
    )


# 0xFF for each clue (non-zero) cell value, 0 for a blank
_CLUE_MASK = bytes(0xFF if value else 0 for value in range(256))


def _clue_changed(puzzle_cells, response_cells) -> bool:
    """Whether the response holds another value in any cell where the
    puzzle has a clue."""
    puzzle = bytes(puzzle_cells)
    changed = int.from_bytes(puzzle, "big") ^ int.from_bytes(bytes(response_cells), "big")
    return bool(changed & int.from_bytes(puzzle.translate(_CLUE_MASK), "big"))


def is_complete(grid: Grid) -> bool:
    return 0 not in grid


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


@lru_cache(maxsize=None)  # a mask holds bits 1-9 only, so at most 512 keys
def _digits(free: int) -> tuple[int, ...]:
    """The digits whose bits are set in a candidate mask, ascending."""
    return tuple(d for d in range(1, 10) if free >> d & 1)


def _completions(cells, masks, rng=None):
    """Backtracking search, yielding each completed cell tuple in turn. Each
    node fills the blank with the fewest candidates, ties to the lowest
    index. Digits are tried in ascending order, or shuffled by `rng` when
    given. `cells` and `masks` are filled in place while the search runs."""
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
        yield tuple(cells)
        return
    digits = _digits(free)
    if rng is not None:
        digits = list(digits)
        rng.shuffle(digits)
    units = _CELL_UNITS[cell]
    for digit in digits:
        bit = 1 << digit
        cells[cell] = digit
        for u in units:
            masks[u] |= bit
        yield from _completions(cells, masks, rng)
        for u in units:
            masks[u] &= ~bit
    cells[cell] = 0


def solve_sudoku(grid: Grid) -> Grid:
    """First completion under the deterministic ordering (fewest-candidate
    cell, digits ascending). Raises if the input has violations or no
    completion exists."""
    cells = list(grid)
    masks = _make_masks(cells)
    if masks is None:
        raise InconsistentGridError("input grid has repeated digits")
    solution = next(_completions(cells, masks), None)
    if solution is None:
        raise UnsolvableGridError("no completion exists")
    return solution


def count_solutions(grid: Grid, limit: int) -> int:
    """Number of distinct completions, capped at `limit` (early stop)."""
    if limit < 1:
        raise ValueError("limit must be >= 1")
    masks = _make_masks(list(grid))
    if masks is None:
        return 0
    return sum(1 for _ in islice(_completions(list(grid), masks), limit))


def _other_completion_exists(cells, masks, cell: int) -> bool:
    """Whether the unique puzzle `cells`, whose unit masks are `masks`, has
    a completion with another digit in `cell` once that cell is blanked."""
    units = _CELL_UNITS[cell]
    swap = 1 << cells[cell]
    for other in _digits(~(masks[units[0]] | masks[units[1]] | masks[units[2]]) & 0b1111111110):
        # _completions leaves what it fills in place when stopped early: give it copies
        trial, filled = masks.copy(), list(cells)
        for u in units:
            trial[u] ^= swap | 1 << other
        filled[cell] = other
        if next(_completions(filled, trial), None) is not None:
            return True
    return False


def generate_puzzle(rng_seed: int, clues: int, require_unique: bool = True) -> tuple[Grid, Grid]:
    """Seeded (puzzle, solution) pair with exactly `clues` filled cells.

    Builds a solved grid by randomized backtracking, then removes cells in
    seeded random order. When require_unique, a removal is kept only if no
    completion puts another digit in the blanked cell: the puzzle before it
    has one known completion, so then it stays unique. Digs MAX_ATTEMPTS
    fresh grids before giving up. With uniqueness, 23 clues is the practical
    floor: seeds 0-19 all reach 23, but only 8 of them reach 22.
    """
    if not MIN_CLUES <= clues <= MAX_CLUES:
        raise ValueError(f"clues must be in {MIN_CLUES}..{MAX_CLUES}, got {clues}")
    rng = seeded_random(rng_seed)
    for _ in range(MAX_ATTEMPTS):
        solution = next(_completions([0] * 81, [0] * 27, rng))
        cells = list(solution)
        masks = [0b1111111110] * 27  # every unit of a solved grid holds all nine digits
        order = list(range(81))
        rng.shuffle(order)
        remaining = 81
        for cell in order:
            if remaining == clues:
                break
            if require_unique and _other_completion_exists(cells, masks, cell):
                continue
            for u in _CELL_UNITS[cell]:
                masks[u] ^= 1 << cells[cell]
            cells[cell] = 0
            remaining -= 1
        if remaining == clues:
            return tuple(cells), solution
    raise PuzzleGenerationError(f"could not reach {clues} clues with a unique solution")


def render_sudoku(grid: Grid, highlight: list[Violation] | None = None) -> str:
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
            digit = grid[i]
            char = str(digit) if digit else "."
            row.append(("*" if i in marked else " ") + char)
        lines.append("".join(row[0:3]) + "|" + "".join(row[3:6]) + "|" + "".join(row[6:9]))
    return "\n".join(lines)
