"""Perfect-maze generation, solving, and the ASCII wall/path codec.

A maze is its rows of cells, each row a `bytes` of 4-bit NESW wall masks,
so maze[y][x] is cell (x, y)'s mask. Renders use '+' at wall intersections,
'-' for horizontal walls, '|' for vertical walls; every cell is 4 characters
wide and 2 text rows tall plus a closing wall row. Navigation starts at the
top-left cell, marked "**", and ends at the bottom-right cell, which opens
through the outer south wall. Path steps are written into the cell they
enter using two-character arrow tokens: "^^" up, ">>" right, "vv" down,
"<<" left.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._util import seeded_random

NORTH, EAST, SOUTH, WEST = 1, 2, 4, 8

UP, RIGHT, DOWN, LEFT = "^^", ">>", "vv", "<<"
ARROWS = (UP, RIGHT, DOWN, LEFT)
ENTRY_MARK = "**"
_CELL_TOKENS = ("", ENTRY_MARK, *ARROWS)  # what a cell interior may hold, stripped

# (dx, dy, wall bit leaving the cell, opposite bit entering the neighbor)
_STEPS = {
    UP: (0, -1, NORTH, SOUTH),
    RIGHT: (1, 0, EAST, WEST),
    DOWN: (0, 1, SOUTH, NORTH),
    LEFT: (-1, 0, WEST, EAST),
}

# token -> its step and wall bit, and the token as written in the cell it enters
_MARKS = {token: (dx, dy, bit, token.center(3)) for token, (dx, dy, bit, _) in _STEPS.items()}


class MazeSizeError(ValueError):
    pass


class MazeParseError(ValueError):
    """Base class for text that does not match the maze codec."""


class MazeGeometryError(MazeParseError):
    def __init__(self, line: int, column: int, message: str = "bad wall geometry"):
        super().__init__(f"{message} at line {line}, column {column}")
        self.line = line
        self.column = column


class MazeTokenError(MazeParseError):
    def __init__(self, line: int, column: int, token: str):
        super().__init__(f"unknown cell token {token!r} at line {line}, column {column}")
        self.line = line
        self.column = column
        self.token = token


class DanglingPathError(MazeParseError):
    pass


class InvalidPathError(ValueError):
    pass


class MazeUnreachableError(RuntimeError):
    pass


# A maze is its rows of wall masks: maze[y][x] is cell (x, y)'s NESW mask.
Maze = tuple[bytes, ...]

# A path is an ordered tuple of arrow tokens.
MazePath = tuple[str, ...]


@dataclass(frozen=True, slots=True)
class PathVerdict:
    kind: str  # "valid", "wall_crossed", or "wrong_endpoint"
    step_index: int | None = None
    cell: tuple[int, int] | None = None

    @property
    def ok(self) -> bool:
        return self.kind == "valid"


# The largest side `gen maze` makes. Model output may describe a maze of any
# size, so the four caches (_grid, _row_lines, _wall_line and _body_line)
# keep only mazes up to this side.
MAX_MAZE_SIDE = 6


def _cached(function, width: int, height: int):
    """`function` for a width x height maze: itself, with its lru_cache, if
    neither side exceeds MAX_MAZE_SIDE, else the uncached original."""
    return function if max(width, height) <= MAX_MAZE_SIDE else function.__wrapped__


@lru_cache(maxsize=64)
def _grid(width: int, height: int) -> tuple[tuple[tuple[int, int, int, str], ...], ...]:
    """For each cell index y*width+x, its on-grid neighbors in N, E, S, W
    order as (neighbor index, wall bit, opposite bit, token)."""
    return tuple(
        tuple(
            ((y + dy) * width + x + dx, bit, opposite, token)
            for token, (dx, dy, bit, opposite) in _STEPS.items()
            if 0 <= x + dx < width and 0 <= y + dy < height
        )
        for y in range(height)
        for x in range(width)
    )


def generate_solved_maze(rng_seed: int, width: int, height: int) -> tuple[Maze, MazePath]:
    """Seeded recursive-backtracker maze, perfect by construction, with the
    exit opening carved through the outer south wall; and its entry-to-exit
    path, the backtracker's stack when it first reaches the exit. A perfect
    maze has one simple path, so this is what solve_maze returns."""
    if width < 2 or height < 2:
        raise MazeSizeError(f"maze must be at least 2x2, got {width}x{height}")
    # Random.choice(options) inlined: the same getrandbits draws, redrawn
    # until below len(options), as CPython 3.10 to 3.13 make.
    getrandbits = seeded_random(rng_seed).getrandbits
    grid = _cached(_grid, width, height)(width, height)
    goal = width * height - 1
    walls = [NORTH | EAST | SOUTH | WEST] * (width * height)
    visited = [False] * (width * height)
    visited[0] = True
    stack = []  # the cells below the current one on the backtracker's path
    tokens = []  # the steps from the entry along the stack to the current cell
    path = ()
    cell = 0
    while True:
        options = []  # a plain loop: before Python 3.12 a comprehension costs a call per step
        for step in grid[cell]:
            if not visited[step[0]]:
                options.append(step)
        if options:
            count = len(options)
            bits = count.bit_length()
            draw = getrandbits(bits)
            while draw >= count:
                draw = getrandbits(bits)
            neighbor, bit, opposite, token = options[draw]
            walls[cell] &= ~bit
            walls[neighbor] &= ~opposite
            visited[neighbor] = True
            stack.append(cell)
            tokens.append(token)
            cell = neighbor
            if cell == goal:
                path = tuple(tokens)
        elif stack:
            cell = stack.pop()
            tokens.pop()
        else:
            break
    walls[-1] &= ~SOUTH  # exit opening
    cells = bytes(walls)
    return tuple(cells[i: i + width] for i in range(0, width * height, width)), path


def generate_maze(rng_seed: int, width: int, height: int) -> Maze:
    """The maze of generate_solved_maze, without its path."""
    return generate_solved_maze(rng_seed, width, height)[0]


def solve_maze(maze: Maze) -> MazePath:
    """Entry-to-exit shortest path, by breadth-first search with neighbors in
    N, E, S, W order; a cell keeps the step that first reached it. A perfect
    maze has one simple path, so on it this is that path."""
    width, height = len(maze[0]), len(maze)
    grid = _cached(_grid, width, height)(width, height)
    walls = b"".join(maze)
    goal = len(walls) - 1
    came_from: dict[int, tuple[int, str] | None] = {0: None}  # cell -> (cell before, step token)
    queue = [0]
    for cell in queue:  # the list grows as it is walked: cells in the order they were reached
        if cell == goal:
            break
        mask = walls[cell]
        for neighbor, bit, _, token in grid[cell]:
            if not mask & bit and neighbor not in came_from:
                came_from[neighbor] = (cell, token)
                queue.append(neighbor)
    if goal not in came_from:
        raise MazeUnreachableError("exit not reachable from entry")
    steps = []
    link = came_from[goal]
    while link is not None:
        cell, token = link
        steps.append(token)
        link = came_from[cell]
    return tuple(reversed(steps))


def _walk(maze: Maze, path: MazePath) -> tuple[int, tuple[int, int]]:
    """Walk from the entry; return the number of leading steps that stay on
    the grid and cross no wall, and the cell those steps reach."""
    width, height = len(maze[0]), len(maze)
    x = y = 0
    for index, token in enumerate(path):
        if token not in _STEPS:
            return index, (x, y)
        dx, dy, bit, _ = _STEPS[token]
        nx, ny = x + dx, y + dy
        if maze[y][x] & bit or not (0 <= nx < width and 0 <= ny < height):
            return index, (x, y)
        x, y = nx, ny
    return len(path), (x, y)


def validate_path(maze: Maze, path: MazePath) -> PathVerdict:
    """Valid iff the path starts at entry, crosses no wall (grid edges
    count as walls), and ends at the exit; otherwise the first failure."""
    walked, cell = _walk(maze, path)
    if walked < len(path):
        return PathVerdict("wall_crossed", step_index=walked)
    if cell != (len(maze[0]) - 1, len(maze) - 1):
        return PathVerdict("wrong_endpoint", cell=cell)
    return PathVerdict("valid")


def path_prefix_length(maze: Maze, path: MazePath) -> int:
    """Number of leading steps that stay on the grid and cross no wall."""
    return _walk(maze, path)[0]


# A row's two lines draw no SOUTH wall (the next row's NORTH does), so the
# row cache is keyed by the row's masks without it, as bytes. A generated
# maze row of width w then has at most 2**(2w - 1) keys (its outer walls are
# closed, and each inner wall is one cell's EAST and the next one's WEST),
# 2,728 over widths 2 to MAX_MAZE_SIDE, so every generated row fits the bound.
_CLEAR_SOUTH = bytes(mask & ~SOUTH for mask in range(256))


@lru_cache(maxsize=4096)
def _row_lines(masks: bytes) -> tuple[str, str]:
    """The wall line above a row of cells and the row's body line with blank
    interiors, both unstripped."""
    wall = "".join(["+---" if mask & NORTH else "+   " for mask in masks]) + "+"
    body = "".join(["|   " if mask & WEST else "    " for mask in masks]) + ("|" if masks[-1] & EAST else " ")
    return wall, body


def _render_lines(maze: Maze) -> list[str]:
    """The render's lines with blank cell interiors, unstripped."""
    row_lines = _cached(_row_lines, len(maze[0]), len(maze))
    lines = []
    for masks in maze:
        lines += row_lines(masks.translate(_CLEAR_SOUTH))
    lines.append("".join(["+---" if mask & SOUTH else "+   " for mask in maze[-1]]) + "+")
    return lines


def _mark_lines(maze: Maze, lines: list[str], path: MazePath) -> None:
    """Write the entry mark and the path's arrows into the maze's render
    lines, checking each step as it is written. Unless the path is valid,
    InvalidPathError names the kind validate_path reports, and `lines` is
    left partly marked."""
    width, height = len(maze[0]), len(maze)
    x = y = 0
    lines[1] = lines[1][:1] + ENTRY_MARK.center(3) + lines[1][4:]
    for token in path:
        step = _MARKS.get(token)  # an unknown token counts as a wall
        if step is None or maze[y][x] & step[2]:
            raise InvalidPathError("path is not valid for this maze: wall_crossed")
        dx, dy, _, mark = step
        x += dx
        y += dy
        if not (0 <= x < width and 0 <= y < height):
            raise InvalidPathError("path is not valid for this maze: wall_crossed")
        line = lines[2 * y + 1]
        lines[2 * y + 1] = line[: 4 * x + 1] + mark + line[4 * x + 4:]
    if (x, y) != (width - 1, height - 1):
        raise InvalidPathError("path is not valid for this maze: wrong_endpoint")


def _join_lines(lines: list[str]) -> str:
    return "\n".join([line.rstrip() for line in lines])


def render_maze(maze: Maze, path: MazePath | None = None) -> str:
    """ASCII render; with a path, the entry shows "**" and every path cell
    shows the arrow of the step entering it, centered in the cell interior."""
    lines = _render_lines(maze)
    if path is not None:
        _mark_lines(maze, lines, path)
    return _join_lines(lines)


def render_maze_pair(maze: Maze, path: MazePath) -> tuple[str, str]:
    """(render_maze(maze), render_maze(maze, path)), building the lines once."""
    lines = _render_lines(maze)
    unsolved = _join_lines(lines)
    _mark_lines(maze, lines, path)
    return unsolved, _join_lines(lines)


class _LineError(Exception):
    """A bad character in one maze line, before its line number is known."""

    def __init__(self, column: int, message: str = "", token: str | None = None):
        self.column = column
        self.message = message
        self.token = token


@lru_cache(maxsize=4096)
def _wall_line(line: str) -> int:
    """A wall line of 4*width+1 characters as one byte per cell, first cell
    in the highest byte: 1 where the segment above the cell is '---'."""
    flags = bytearray()
    for col in range(0, len(line) - 1, 4):
        if line[col] != "+":
            raise _LineError(col + 1, "expected '+'")
        seg = line[col + 1: col + 4]
        if seg == "---":
            flags.append(1)
        elif seg == "   ":
            flags.append(0)
        else:
            raise _LineError(col + 2, "expected '---' or spaces")
    if line[-1] != "+":
        raise _LineError(len(line), "expected '+'")
    return int.from_bytes(flags, "big")


@lru_cache(maxsize=4096)
def _body_line(line: str) -> tuple[int, tuple[tuple[int, str], ...]]:
    """A body line of 4*width+1 characters as its WEST and EAST bits, one
    byte per cell with the first cell in the highest byte, and the
    (x, token) pairs of its non-blank cells."""
    width = len(line) // 4
    sides = bytearray(width)
    tokens = []
    for x in range(width + 1):
        col = 4 * x
        if line[col] == "|":
            if x < width:
                sides[x] |= WEST
            if x:
                sides[x - 1] |= EAST
        elif line[col] != " ":
            raise _LineError(col + 1, "expected '|' or space")
        if x < width:
            cell = line[col + 1: col + 4].strip(" ")
            if cell not in _CELL_TOKENS:
                raise _LineError(col + 2, token=cell)
            if cell:
                tokens.append((x, cell))
    return int.from_bytes(sides, "big"), tuple(tokens)


def parse_maze(text: str) -> tuple[Maze, MazePath | None]:
    """Invert render_maze: recover wall masks and, when an entry mark is
    present, the path walk. Trailing ASCII spaces are ignored per line. In a
    maze up to MAX_MAZE_SIDE a side, each distinct line is parsed once."""
    lines = [line.rstrip(" ") for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 3 or len(lines) % 2 == 0:
        raise MazeGeometryError(len(lines), 0, "maze text needs 2*height+1 lines")
    height = (len(lines) - 1) // 2
    top = lines[0]
    if len(top) < 5 or (len(top) - 1) % 4 != 0:
        raise MazeGeometryError(1, len(top), "wall line length must be 4*width+1")
    width = (len(top) - 1) // 4
    length = 4 * width + 1  # every line is checked to have it before it is parsed
    wall_line, body_line = _cached(_wall_line, width, height), _cached(_body_line, width, height)

    walls = []
    entries = []  # the cells holding the entry mark
    entered_from = {}  # cell -> the (token, cell) of each arrow naming it as the cell before
    arrows = 0
    number = 1  # the 1-based number of the line being parsed
    try:
        below = wall_line(top)
        for row in range(height):
            number += 1
            body = lines[number - 1]
            if len(body) != length:
                raise MazeGeometryError(number, len(body), "cell line length mismatch")
            sides, cells = body_line(body)
            for x, token in cells:
                if token == ENTRY_MARK:
                    entries.append((x, row))
                else:
                    dx, dy = _STEPS[token][:2]
                    entered_from.setdefault((x - dx, row - dy), []).append((token, (x, row)))
                    arrows += 1
            number += 1
            line = lines[number - 1]
            if len(line) != length:
                raise MazeGeometryError(number, len(line), "wall line length mismatch")
            above, below = below, wall_line(line)
            # one byte per cell: NORTH from the line above, SOUTH from the line
            # below, WEST and EAST from the body line; no byte carries
            walls.append((above * NORTH | below * SOUTH | sides).to_bytes(width, "big"))
    except _LineError as exc:
        if exc.token is None:
            raise MazeGeometryError(number, exc.column, exc.message) from None
        raise MazeTokenError(number, exc.column, exc.token) from None
    maze = tuple(walls)

    if not entries:
        if arrows:
            raise DanglingPathError("arrow tokens present without an entry mark")
        return maze, None
    if len(entries) > 1:
        raise DanglingPathError("multiple entry marks")

    # Rebuild the walk: each step enters the cell holding its arrow token,
    # from the cell the arrow names. Every arrow names one cell, so the walk
    # visits no cell twice.
    steps = []
    following = entered_from.get(entries[0])
    while following:
        if len(following) > 1:
            raise DanglingPathError("path branches; not a single walk")
        token, position = following[0]
        steps.append(token)
        following = entered_from.get(position)
    if len(steps) != arrows:
        raise DanglingPathError("arrow tokens not connected to the entry walk")
    return maze, tuple(steps)
