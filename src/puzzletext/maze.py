"""Perfect-maze generation, solving, and the ASCII wall/path codec.

A maze is a rectangular cell grid with a 4-bit wall mask per cell. Renders
use '+' at wall intersections, '-' for horizontal walls, '|' for vertical
walls; every cell is 4 characters wide and 2 text rows tall plus a closing
wall row. Navigation starts at the top-left cell, marked "**", and ends at
the bottom-right cell, which opens through the outer south wall. Path steps
are written into the cell they enter using two-character arrow tokens:
"^^" up, ">>" right, "vv" down, "<<" left.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

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


@dataclass(frozen=True, slots=True)
class Maze:
    width: int
    height: int
    walls: tuple[tuple[int, ...], ...]  # walls[y][x] is a NESW bitmask

    @property
    def entry(self) -> tuple[int, int]:
        return (0, 0)

    @property
    def exit(self) -> tuple[int, int]:
        return (self.width - 1, self.height - 1)


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


def generate_maze(rng_seed: int, width: int, height: int) -> Maze:
    """Seeded recursive-backtracker maze; perfect by construction, with the
    exit opening carved through the outer south wall."""
    if width < 2 or height < 2:
        raise MazeSizeError(f"maze must be at least 2x2, got {width}x{height}")
    rng = random.Random(rng_seed)
    full = NORTH | EAST | SOUTH | WEST
    walls = [[full] * width for _ in range(height)]
    visited = [[False] * width for _ in range(height)]
    stack = [(0, 0)]
    visited[0][0] = True
    while stack:
        x, y = stack[-1]
        neighbors = []
        for token, (dx, dy, bit, opposite) in _STEPS.items():
            nx, ny = x + dx, y + dy
            if 0 <= nx < width and 0 <= ny < height and not visited[ny][nx]:
                neighbors.append((nx, ny, bit, opposite))
        if not neighbors:
            stack.pop()
            continue
        nx, ny, bit, opposite = rng.choice(neighbors)
        walls[y][x] &= ~bit
        walls[ny][nx] &= ~opposite
        visited[ny][nx] = True
        stack.append((nx, ny))
    walls[height - 1][width - 1] &= ~SOUTH  # exit opening
    return Maze(width, height, tuple(tuple(row) for row in walls))


def _neighbors(maze: Maze, x: int, y: int):
    # deterministic N, E, S, W order
    for token in (UP, RIGHT, DOWN, LEFT):
        dx, dy, bit, _ = _STEPS[token]
        if not maze.walls[y][x] & bit:
            nx, ny = x + dx, y + dy
            if 0 <= nx < maze.width and 0 <= ny < maze.height:
                yield token, nx, ny


def solve_maze(maze: Maze, strategy: str = "bfs") -> MazePath:
    """Entry-to-exit path. BFS returns a shortest path; DFS takes the first
    path under N, E, S, W neighbor order. For perfect mazes they coincide."""
    if strategy not in ("bfs", "dfs"):
        raise ValueError(f"strategy must be 'bfs' or 'dfs', got {strategy!r}")
    start, goal = maze.entry, maze.exit
    if strategy == "bfs":
        queue = [start]  # grows while it is read, so it is walked in BFS order
        came_from = {start: None}
        for x, y in queue:
            if (x, y) == goal:
                break
            for token, nx, ny in _neighbors(maze, x, y):
                if (nx, ny) not in came_from:
                    came_from[(nx, ny)] = ((x, y), token)
                    queue.append((nx, ny))
        if goal not in came_from:
            raise MazeUnreachableError("exit not reachable from entry")
        steps = []
        node = goal
        while came_from[node] is not None:
            node, token = came_from[node]
            steps.append(token)
        return tuple(reversed(steps))
    # DFS with an explicit stack
    stack = [(start, ())]
    seen = {start}
    while stack:
        (x, y), steps = stack.pop()
        if (x, y) == goal:
            return steps
        # push reversed so N is explored first
        for token, nx, ny in reversed(list(_neighbors(maze, x, y))):
            if (nx, ny) not in seen:
                seen.add((nx, ny))
                stack.append(((nx, ny), steps + (token,)))
    raise MazeUnreachableError("exit not reachable from entry")


def _walk(maze: Maze, path: MazePath) -> tuple[int, tuple[int, int]]:
    """Walk from the entry; return the number of leading steps that stay on
    the grid and cross no wall, and the cell those steps reach."""
    x, y = maze.entry
    for index, token in enumerate(path):
        if token not in _STEPS:
            return index, (x, y)
        dx, dy, bit, _ = _STEPS[token]
        nx, ny = x + dx, y + dy
        if maze.walls[y][x] & bit or not (0 <= nx < maze.width and 0 <= ny < maze.height):
            return index, (x, y)
        x, y = nx, ny
    return len(path), (x, y)


def validate_path(maze: Maze, path: MazePath) -> PathVerdict:
    """Valid iff the path starts at entry, crosses no wall (grid edges
    count as walls), and ends at the exit; otherwise the first failure."""
    walked, cell = _walk(maze, path)
    if walked < len(path):
        return PathVerdict("wall_crossed", step_index=walked)
    if cell != maze.exit:
        return PathVerdict("wrong_endpoint", cell=cell)
    return PathVerdict("valid")


def path_prefix_length(maze: Maze, path: MazePath) -> int:
    """Number of leading steps that stay on the grid and cross no wall."""
    return _walk(maze, path)[0]


def render_maze(maze: Maze, path: MazePath | None = None) -> str:
    """ASCII render; with a path, the entry shows "**" and every path cell
    shows the arrow of the step entering it, centered in the cell interior."""
    interior = [["   "] * maze.width for _ in range(maze.height)]
    if path is not None:
        verdict = validate_path(maze, path)
        if not verdict.ok:
            raise InvalidPathError(f"path is not valid for this maze: {verdict.kind}")
        x, y = maze.entry
        interior[y][x] = ENTRY_MARK.center(3)
        for token in path:
            dx, dy, _, _ = _STEPS[token]
            x, y = x + dx, y + dy
            interior[y][x] = token.center(3)
    lines = []
    for y in range(maze.height):
        wall_line = []
        body_line = []
        for x in range(maze.width):
            mask = maze.walls[y][x]
            wall_line.append("+" + ("---" if mask & NORTH else "   "))
            body_line.append(("|" if mask & WEST else " ") + interior[y][x])
        wall_line.append("+")
        body_line.append("|" if maze.walls[y][maze.width - 1] & EAST else " ")
        lines.append("".join(wall_line))
        lines.append("".join(body_line))
    bottom = []
    for x in range(maze.width):
        bottom.append("+" + ("---" if maze.walls[maze.height - 1][x] & SOUTH else "   "))
    bottom.append("+")
    lines.append("".join(bottom))
    return "\n".join(line.rstrip() for line in lines)


def parse_maze(text: str) -> tuple[Maze, MazePath | None]:
    """Invert render_maze: recover wall masks and, when an entry mark is
    present, the path walk. Trailing whitespace is ignored per line."""
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    if len(lines) < 3 or len(lines) % 2 == 0:
        raise MazeGeometryError(len(lines), 0, "maze text needs 2*height+1 lines")
    height = (len(lines) - 1) // 2
    top = lines[0]
    if len(top) < 5 or (len(top) - 1) % 4 != 0:
        raise MazeGeometryError(1, len(top), "wall line length must be 4*width+1")
    width = (len(top) - 1) // 4

    walls = [[0] * width for _ in range(height)]
    tokens = {}  # (x, y) -> non-blank cell token
    for row in range(height + 1):
        line = lines[2 * row]
        if len(line) != 4 * width + 1:
            raise MazeGeometryError(2 * row + 1, len(line), "wall line length mismatch")
        for x in range(width):
            col = 4 * x
            if line[col] != "+":
                raise MazeGeometryError(2 * row + 1, col + 1, "expected '+'")
            seg = line[col + 1: col + 4]
            if seg == "---":
                if row < height:
                    walls[row][x] |= NORTH
                if row:
                    walls[row - 1][x] |= SOUTH
            elif seg != "   ":
                raise MazeGeometryError(2 * row + 1, col + 2, "expected '---' or spaces")
        if line[4 * width] != "+":
            raise MazeGeometryError(2 * row + 1, 4 * width + 1, "expected '+'")
        if row == height:
            break
        body = lines[2 * row + 1]
        if len(body) != 4 * width + 1:
            raise MazeGeometryError(2 * row + 2, len(body), "cell line length mismatch")
        masks = walls[row]
        for x in range(width + 1):
            col = 4 * x
            if body[col] == "|":
                if x < width:
                    masks[x] |= WEST
                if x:
                    masks[x - 1] |= EAST
            elif body[col] != " ":
                raise MazeGeometryError(2 * row + 2, col + 1, "expected '|' or space")
            if x < width:
                cell = body[col + 1: col + 4].strip()
                if cell not in _CELL_TOKENS:
                    raise MazeTokenError(2 * row + 2, col + 2, cell)
                if cell:
                    tokens[(x, row)] = cell
    maze = Maze(width, height, tuple(map(tuple, walls)))

    entry_cells = [cell for cell, token in tokens.items() if token == ENTRY_MARK]
    if not entry_cells:
        if tokens:
            raise DanglingPathError("arrow tokens present without an entry mark")
        return maze, None
    if len(entry_cells) > 1:
        raise DanglingPathError("multiple entry marks")

    # Rebuild the walk: each step enters the cell holding its arrow token.
    steps = []
    position = entry_cells[0]
    del tokens[position]  # the rest are arrow cells
    while True:
        x, y = position
        candidates = []
        for token in (UP, RIGHT, DOWN, LEFT):
            dx, dy, _, _ = _STEPS[token]
            neighbor = (x + dx, y + dy)
            if tokens.get(neighbor) == token:
                candidates.append((token, neighbor))
        if not candidates:
            break
        if len(candidates) > 1:
            raise DanglingPathError("path branches; not a single walk")
        token, position = candidates[0]
        del tokens[position]
        steps.append(token)
    if tokens:
        raise DanglingPathError("arrow tokens not connected to the entry walk")
    return maze, tuple(steps)
