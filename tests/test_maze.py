import hashlib
import random
import re

import pytest

from puzzletext.maze import (
    DOWN,
    EAST,
    LEFT,
    NORTH,
    RIGHT,
    SOUTH,
    UP,
    WEST,
    DanglingPathError,
    MazeGeometryError,
    MazeSizeError,
    MazeTokenError,
    InvalidPathError,
    MAX_MAZE_SIDE,
    MazeParseError,
    generate_maze,
    generate_solved_maze,
    parse_maze,
    path_prefix_length,
    render_maze,
    render_maze_pair,
    solve_maze,
    validate_path,
)
from puzzletext.maze import _body_line, _grid, _row_lines, _wall_line


def open_internal_edges(maze):
    """(cell, cell) pairs with no wall between them, each edge once."""
    edges = []
    width, height = len(maze[0]), len(maze)
    for y in range(height):
        for x in range(width):
            if x + 1 < width and not maze[y][x] & EAST:
                edges.append(((x, y), (x + 1, y)))
            if y + 1 < height and not maze[y][x] & SOUTH:
                edges.append(((x, y), (x, y + 1)))
    return edges


def is_spanning_tree(maze):
    """Union-find check: connected and exactly n-1 open internal edges."""
    parent = {(x, y): (x, y) for y in range(len(maze)) for x in range(len(maze[0]))}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edges = open_internal_edges(maze)
    merged = 0
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False  # cycle
        parent[ra] = rb
        merged += 1
    n = len(maze) * len(maze[0])
    return merged == n - 1 and len(edges) == n - 1


def all_simple_path_lengths(maze):
    """Exhaustive enumeration of simple entry-to-exit paths."""
    adjacency = {}
    for a, b in open_internal_edges(maze):
        adjacency.setdefault(a, []).append(b)
        adjacency.setdefault(b, []).append(a)
    lengths = []
    exit_cell = (len(maze[0]) - 1, len(maze) - 1)

    def walk(cell, seen, steps):
        if cell == exit_cell:
            lengths.append(steps)
            return
        for nxt in adjacency.get(cell, ()):
            if nxt not in seen:
                walk(nxt, seen | {nxt}, steps + 1)

    walk((0, 0), {(0, 0)}, 0)
    return lengths


def corridor_maze(length):
    """Hand-built 1-cell-wide vertical corridor of `length` cells."""
    walls = []
    for y in range(length):
        mask = EAST | WEST
        if y == 0:
            mask |= NORTH
        if y == length - 1:
            pass  # south opening is the exit
        else:
            pass
        walls.append(bytes((mask,)))
    return tuple(walls)


# --- generation ---


def test_generated_mazes_are_perfect():
    for seed in range(50):
        for size in ((4, 4), (5, 5), (6, 6), (3, 6)):
            assert is_spanning_tree(generate_maze(seed, *size))


def test_generation_deterministic():
    assert generate_maze(7, 4, 4) == generate_maze(7, 4, 4)


def test_two_by_two_has_three_open_edges():
    maze = generate_maze(1, 2, 2)
    assert len(open_internal_edges(maze)) == 3


def test_backtracker_reaches_few_mazes():
    """The recursive backtracker from the entry makes only depth-first
    spanning trees: of the 4, 192 and 100,352 perfect mazes at 2x2, 3x3 and
    4x4, these seeds reach 2, 14 and 322, which enumerating every draw
    sequence shows is all it can reach."""
    for side, seeds, reached in ((2, 200, 2), (3, 3_000, 14), (4, 40_000, 322)):
        assert len({generate_maze(seed, side, side) for seed in range(seeds)}) == reached


def test_size_errors():
    with pytest.raises(MazeSizeError):
        generate_maze(1, 1, 4)
    with pytest.raises(MazeSizeError):
        generate_maze(1, 4, 0)


def test_wall_symmetry():
    for seed in range(20):
        maze = generate_maze(seed, 5, 5)
        for y in range(5):
            for x in range(5):
                if x + 1 < 5:
                    east = bool(maze[y][x] & EAST)
                    west = bool(maze[y][x + 1] & WEST)
                    assert east == west
                if y + 1 < 5:
                    south = bool(maze[y][x] & SOUTH)
                    north = bool(maze[y + 1][x] & NORTH)
                    assert south == north


def test_boundary_walls_present_except_exit():
    maze = generate_maze(3, 4, 4)
    assert len(maze) == 4 and {len(row) for row in maze} == {4}
    for x in range(4):
        assert maze[0][x] & NORTH
        if x != 3:  # the exit cell
            assert maze[3][x] & SOUTH
    for y in range(4):
        assert maze[y][0] & WEST
        assert maze[y][3] & EAST
    assert not maze[3][3] & SOUTH


# --- solving ---


def test_corridor_maze_path():
    maze = corridor_maze(5)
    assert solve_maze(maze) == (DOWN,) * 4


def test_bfs_length_matches_exhaustive_minimum():
    for seed in range(30):
        maze = generate_maze(seed, 5, 5)
        lengths = all_simple_path_lengths(maze)
        assert len(lengths) == 1  # trees have exactly one simple path
        assert len(solve_maze(maze)) == min(lengths)


_OFFSETS = {UP: (0, -1, NORTH), RIGHT: (1, 0, EAST), DOWN: (0, 1, SOUTH), LEFT: (-1, 0, WEST)}


def knock_out_walls(maze, rng, count):
    """The maze with `count` random internal walls removed from both sides,
    so it may hold loops and more than one shortest path."""
    walls = [bytearray(row) for row in maze]
    width, height = len(maze[0]), len(maze)
    for _ in range(count):
        x, y = rng.randrange(width), rng.randrange(height)
        dx, dy, bit = _OFFSETS[rng.choice((RIGHT, DOWN))]
        if x + dx < width and y + dy < height:
            walls[y][x] &= ~bit
            walls[y + dy][x + dx] &= ~(NORTH if bit == SOUTH else WEST)
    return tuple(map(bytes, walls))


def naive_bfs(maze):
    """Coordinate BFS visiting neighbors in N, E, S, W order; a cell keeps
    the first step that reached it."""
    width, height = len(maze[0]), len(maze)
    came_from = {(0, 0): None}
    queue = [(0, 0)]
    for x, y in queue:
        for token in (UP, RIGHT, DOWN, LEFT):
            dx, dy, bit = _OFFSETS[token]
            nx, ny = x + dx, y + dy
            if (not maze[y][x] & bit and 0 <= nx < width and 0 <= ny < height
                    and (nx, ny) not in came_from):
                came_from[(nx, ny)] = ((x, y), token)
                queue.append((nx, ny))
    steps = []
    cell = (width - 1, height - 1)
    while came_from[cell] is not None:
        cell, token = came_from[cell]
        steps.append(token)
    return tuple(reversed(steps))


def test_bfs_on_mazes_with_loops_matches_naive_bfs():
    rng = random.Random(77)
    for _ in range(200):
        maze = generate_maze(rng.randrange(10**6), rng.randint(2, 8), rng.randint(2, 8))
        looped = knock_out_walls(maze, rng, rng.randint(1, 12))
        path = solve_maze(looped)
        assert path == naive_bfs(looped)
        assert validate_path(looped, path).ok


# --- path validation ---


def test_validate_solver_output():
    maze = generate_maze(9, 4, 4)
    assert validate_path(maze, solve_maze(maze)).ok


def test_validate_empty_path_wrong_endpoint():
    verdict = validate_path(generate_maze(1, 2, 2), ())
    assert verdict.kind == "wrong_endpoint"
    assert verdict.cell == (0, 0)


def test_validate_wall_crossing_reported_at_first_step():
    maze = generate_maze(1, 2, 2)
    verdict = validate_path(maze, (UP,))  # entry always has its north wall
    assert verdict.kind == "wall_crossed"
    assert verdict.step_index == 0


def test_path_prefix_length():
    maze = generate_maze(9, 4, 4)
    path = solve_maze(maze)
    assert path_prefix_length(maze, path) == len(path)
    assert path_prefix_length(maze, path[:-1]) == len(path) - 1
    assert path_prefix_length(maze, (UP,) + path) == 0


# --- rendering ---


def test_render_two_by_two_geometry():
    lines = render_maze(generate_maze(2, 2, 2)).split("\n")
    assert len(lines) == 5
    assert all(len(line) == 9 for line in lines)


def test_render_alphabet_without_path():
    text = render_maze(generate_maze(4, 5, 5))
    assert set(text) <= set("+-| \n")


def test_render_marks_entry_and_steps():
    maze = generate_maze(6, 4, 4)
    path = solve_maze(maze)
    text = render_maze(maze, path)
    assert text.count("**") == 1
    arrows = sum(text.count(tok) for tok in (UP, RIGHT, DOWN, LEFT))
    assert arrows == len(path)


def test_render_rejects_invalid_path():
    maze = generate_maze(6, 4, 4)
    with pytest.raises(InvalidPathError):
        render_maze(maze, (UP, UP))


def test_round_trip_unsolved_and_solved():
    for seed in range(60):
        width, height = [(4, 4), (5, 5), (6, 6)][seed % 3]
        maze = generate_maze(seed, width, height)
        path = solve_maze(maze)
        for p in (None, path):
            text = render_maze(maze, p)
            parsed_maze, parsed_path = parse_maze(text)
            assert parsed_maze == maze
            assert parsed_path == p
            assert render_maze(parsed_maze, parsed_path) == text


# --- one pass per record: generate_solved_maze and render_maze_pair ---


_OPPOSITE = {NORTH: SOUTH, EAST: WEST, SOUTH: NORTH, WEST: EAST}


def reference_backtracker(seed, width, height):
    """Recursive backtracker over (x, y) cells that draws with
    Random.choice from the unvisited neighbors in N, E, S, W order."""
    rng = random.Random(seed)
    walls = [[NORTH | EAST | SOUTH | WEST] * width for _ in range(height)]
    visited = {(0, 0)}
    stack = [(0, 0)]  # the backtracker's path, current cell last
    while stack:
        x, y = stack[-1]
        options = [
            (x + dx, y + dy, bit)
            for dx, dy, bit in _OFFSETS.values()
            if 0 <= x + dx < width and 0 <= y + dy < height and (x + dx, y + dy) not in visited
        ]
        if not options:
            stack.pop()
            continue
        nx, ny, bit = rng.choice(options)
        walls[y][x] &= ~bit
        walls[ny][nx] &= ~_OPPOSITE[bit]
        visited.add((nx, ny))
        stack.append((nx, ny))
    walls[-1][-1] &= ~SOUTH  # exit opening
    return tuple(map(bytes, walls))


def test_inlined_draws_match_random_choice():
    for width in range(2, 9):
        for height in range(2, 9):
            for seed in range(20):
                assert generate_maze(seed, width, height) == reference_backtracker(seed, width, height)
    assert generate_maze(2024, 20, 3) == reference_backtracker(2024, 20, 3)


def test_backtracker_path_is_the_solver_path():
    rng = random.Random(13)
    for _ in range(200):
        seed, width, height = rng.getrandbits(63), rng.randint(2, 8), rng.randint(2, 8)
        maze, path = generate_solved_maze(seed, width, height)
        assert maze == generate_maze(seed, width, height)
        assert path == solve_maze(maze)


def test_render_pair_matches_render_maze():
    for seed in range(60):
        maze, path = generate_solved_maze(seed, 2 + seed % 5, 2 + seed % 3)
        assert render_maze_pair(maze, path) == (render_maze(maze), render_maze(maze, path))
    looped = knock_out_walls(generate_maze(5, 6, 6), random.Random(5), 10)
    path = solve_maze(looped)
    assert render_maze_pair(looped, path) == (render_maze(looped), render_maze(looped, path))


def test_render_pair_rejects_invalid_path():
    maze, path = generate_solved_maze(6, 4, 4)
    for bad in ((UP, UP), path[:-1], path + (LEFT,)):
        with pytest.raises(InvalidPathError):
            render_maze_pair(maze, bad)


def test_marker_names_the_kind_validate_path_reports():
    maze, path = generate_solved_maze(6, 5, 5)
    open_maze = (bytes(3),) * 3  # no walls at all: only the grid's edge stops a step
    middle = len(path) // 2

    def into_wall(prefix):
        """`prefix` and then a step into a wall of the cell it reaches."""
        return next(prefix + (token,) for token in (UP, RIGHT, DOWN, LEFT)
                    if validate_path(maze, prefix + (token,)).step_index == len(prefix))

    cases = [
        (maze, path[:2] + ("??",) + path[3:], "wall_crossed"),  # an unknown token
        (open_maze, (UP, RIGHT, RIGHT), "wall_crossed"),  # the first step leaves the grid
        (maze, into_wall(path[:middle]) + path[middle + 1:], "wall_crossed"),
        (maze, into_wall(path[:-1]), "wall_crossed"),
        (maze, path + (DOWN,), "wall_crossed"),  # out through the exit opening
        (maze, path[:-1], "wrong_endpoint"),
        (maze, (), "wrong_endpoint"),
    ]
    expected = {m: render_maze_pair(m, solve_maze(m)) for m in (maze, open_maze)}
    for m, bad, kind in cases:
        assert validate_path(m, bad).kind == kind
        for render in (render_maze, render_maze_pair):
            with pytest.raises(InvalidPathError, match=f"^path is not valid for this maze: {kind}$"):
                render(m, bad)
            # a failed call leaves nothing behind in the shared row cache
            assert render_maze_pair(m, solve_maze(m)) == expected[m]
            assert render_maze(m, solve_maze(m)) == expected[m][1]


def test_marker_agrees_with_validate_path_on_random_walks():
    rng = random.Random(17)
    for seed in range(300):
        maze, path = generate_solved_maze(seed, 2 + seed % 5, 2 + seed % 4)
        if seed % 2:
            maze = knock_out_walls(maze, rng, 4)
        # a prefix of the solution and up to five random steps, which may stray or hold an unknown token
        walk = path[: rng.randrange(len(path) + 1)] + tuple(
            rng.choice((UP, RIGHT, DOWN, LEFT) * 2 + ("?",)) for _ in range(rng.randrange(6)))
        verdict = validate_path(maze, walk)
        if verdict.ok:
            assert render_maze(maze, walk).count("**") == 1
        else:
            with pytest.raises(InvalidPathError, match=f": {verdict.kind}$"):
                render_maze_pair(maze, walk)


def test_parse_trailing_whitespace_tolerated():
    maze = generate_maze(11, 4, 4)
    text = render_maze(maze)
    padded = "\n".join(line + "  " for line in text.split("\n")) + "\n"
    parsed, _ = parse_maze(padded)
    assert parsed == maze


@pytest.mark.parametrize(
    "line, old, new, error, message",
    [
        (1, " **", "\t**", MazeTokenError, "token '\\t**' at line 2, column 2"),
        (1, " **", "\u3000**", MazeTokenError, "token '\\u3000**' at line 2, column 2"),
        (1, None, "\r", MazeGeometryError, "cell line length mismatch at line 2"),
        (2, None, "\u3000", MazeGeometryError, "wall line length mismatch at line 3"),
    ],
    ids=["tab_before_entry", "ideographic_space_before_entry", "trailing_cr", "trailing_ideographic_space"],
)
def test_parse_strips_only_ascii_spaces(line, old, new, error, message):
    maze = generate_maze(11, 4, 4)
    lines = render_maze(maze, solve_maze(maze)).split("\n")
    assert lines[1].startswith("| **|")
    lines[line] = lines[line].replace(old, new, 1) if old else lines[line] + new
    with pytest.raises(error, match=re.escape(message)):
        parse_maze("\n".join(lines))


def test_parse_geometry_error_where_plus_expected():
    text = render_maze(generate_maze(2, 2, 2))
    broken = "-" + text[1:]
    with pytest.raises(MazeGeometryError) as exc:
        parse_maze(broken)
    assert exc.value.line == 1


def test_parse_unknown_token():
    maze = generate_maze(2, 2, 2)
    lines = render_maze(maze).split("\n")
    lines[1] = lines[1][0] + "@@ " + lines[1][4:]
    with pytest.raises(MazeTokenError):
        parse_maze("\n".join(lines))


def test_parse_dangling_path_after_deleting_an_arrow():
    maze = generate_maze(13, 4, 4)
    path = solve_maze(maze)
    text = render_maze(maze, path)
    # blank out the first step's arrow cell; the rest becomes unreachable
    token = path[0].center(3)
    broken = text.replace(token, "   ", 1)
    with pytest.raises(DanglingPathError):
        parse_maze(broken)


def test_parse_arrows_without_entry_mark():
    maze = generate_maze(13, 4, 4)
    path = solve_maze(maze)
    text = render_maze(maze, path).replace("**", "  ", 1)
    with pytest.raises(DanglingPathError):
        parse_maze(text)


def mutated_renders(seed, count):
    """Seeded `render_maze` outputs with up to three character substitutions,
    deletions or insertions from the codec's alphabet, or a swapped path token."""
    rng = random.Random(seed)
    alphabet = " +-|^>v<*x\n"
    for _ in range(count):
        maze = generate_maze(rng.randrange(10**6), rng.randint(2, 5), rng.randint(2, 5))
        text = render_maze(maze, solve_maze(maze) if rng.random() < 0.6 else None)
        for _ in range(rng.randint(0, 3)):
            op = rng.randrange(4)
            i = rng.randrange(len(text))
            if op == 0:
                text = text[:i] + rng.choice(alphabet) + text[i + 1:]
            elif op == 1:
                text = text[:i] + text[i + 1:]
            elif op == 2:
                text = text[:i] + rng.choice(alphabet) + text[i:]
            else:
                tokens = [m.start() for m in re.finditer(r"\^\^|>>|vv|<<|\*\*", text)]
                if tokens:
                    j = rng.choice(tokens)
                    text = text[:j] + rng.choice((UP, RIGHT, DOWN, LEFT, "**")) + text[j + 2:]
        yield text


def parse_outcome(text):
    try:
        maze, path = parse_maze(text)
    except MazeParseError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "column", None))
    # the walls in the form they had when the digest was recorded
    return (len(maze[0]), len(maze), tuple(map(tuple, maze)), path)


# sha256 of the outcomes below, recorded before the parser became one pass.
PINNED_PARSE_SHA256 = "925e83e2eeae074577be73f5afacb41e0ba9ca2021fc725f6d7b69daa7d62498"


def test_parse_outcomes_are_pinned():
    digest = hashlib.sha256()
    kinds = set()
    for text in mutated_renders(2024, 4000):
        outcome = parse_outcome(text)
        kinds.add(outcome[0] if isinstance(outcome[0], str) else "parsed")
        digest.update(repr(outcome).encode() + b"\n")
    assert kinds == {"parsed", "MazeGeometryError", "MazeTokenError", "DanglingPathError"}
    assert digest.hexdigest() == PINNED_PARSE_SHA256


# sha256 of the write side below, recorded before generate_maze, solve_maze
# and render_maze moved to flat cell indices. The third slot held a
# depth-first solver's path until that solver was removed; it now holds the
# BFS path, so the same digest checks that the two paths agree on all 125
# mazes.
PINNED_WRITE_SHA256 = "1afa5bd5812ab8f3a51557d636cefe80686a04ad655b6ce918f7c29b0d01c546"


def test_write_side_outcomes_are_pinned():
    digest = hashlib.sha256()
    for width in range(2, 7):
        for height in range(2, 7):
            for seed in range(5):
                maze = generate_maze(seed, width, height)
                path = solve_maze(maze)
                # the walls in the form they had when the digest was recorded
                outcome = (tuple(map(tuple, maze)), path, path, render_maze(maze), render_maze(maze, path))
                digest.update(repr(outcome).encode() + b"\n")
    assert digest.hexdigest() == PINNED_WRITE_SHA256


def line_cache_sizes():
    return _wall_line.cache_info().currsize, _body_line.cache_info().currsize


# (seed, width, height): wider, taller, and one cell over MAX_MAZE_SIDE on either side
UNCACHED_SIZES = [(40, 40, 2), (40, 2, 40), (7, MAX_MAZE_SIDE + 1, 2), (7, 2, MAX_MAZE_SIDE + 1)]


def test_long_and_bad_lines_stay_out_of_the_line_caches():
    before = _wall_line.cache_info(), _body_line.cache_info()
    for seed, width, height in UNCACHED_SIZES:
        maze = generate_maze(seed, width, height)
        path = solve_maze(maze)
        assert parse_maze(render_maze(maze)) == (maze, None)
        assert parse_maze(render_maze(maze, path)) == (maze, path)
    assert (_wall_line.cache_info(), _body_line.cache_info()) == before  # not even a lookup
    before = line_cache_sizes()
    with pytest.raises(MazeGeometryError, match="expected '---' or spaces at line 1, column 2"):
        parse_maze("+-x-+\n|   |\n+---+")
    assert line_cache_sizes() == before
    bodies = _body_line.cache_info().currsize
    with pytest.raises(MazeTokenError, match="line 2, column 2"):
        parse_maze("+---+\n| ? |\n+---+")
    assert _body_line.cache_info().currsize == bodies


def test_long_mazes_stay_out_of_the_neighbor_cache():
    before = _grid.cache_info()
    for seed, width, height in UNCACHED_SIZES:
        maze, path = generate_solved_maze(seed, width, height)
        assert solve_maze(maze) == path
        assert is_spanning_tree(generate_maze(seed + 1, width, height))
    assert _grid.cache_info() == before  # not even a lookup: hits and misses are unchanged


def test_wide_mazes_stay_out_of_the_row_cache():
    before = _row_lines.cache_info()
    for seed, width, height in UNCACHED_SIZES:
        maze, path = generate_solved_maze(seed, width, height)
        assert render_maze_pair(maze, path) == (render_maze(maze), render_maze(maze, path))
    assert _row_lines.cache_info() == before  # not even a lookup: hits and misses are unchanged


def test_the_largest_generated_maze_enters_every_cache():
    maze, path = generate_solved_maze(7, MAX_MAZE_SIDE, MAX_MAZE_SIDE)
    text = render_maze(maze, path)
    assert parse_maze(text) == (maze, path)
    caches = (_grid, _row_lines, _wall_line, _body_line)
    before = [cache.cache_info() for cache in caches]
    assert solve_maze(maze) == path
    assert render_maze(maze, path) == text
    assert parse_maze(text) == (maze, path)
    # the second pass finds everything in the caches: the neighbor table, the
    # six rows, the seven wall lines and the six body lines
    hits = [after.hits - info.hits for after, info in zip((c.cache_info() for c in caches), before)]
    assert hits == [1, MAX_MAZE_SIDE, MAX_MAZE_SIDE + 1, MAX_MAZE_SIDE]
    assert [c.cache_info().misses for c in caches] == [info.misses for info in before]


def test_every_generated_size_keeps_its_neighbor_table():
    sizes = [(w, h) for w in range(2, MAX_MAZE_SIDE + 1) for h in range(2, MAX_MAZE_SIDE + 1)]
    for width, height in sizes:
        generate_maze(0, width, height)
    before = _grid.cache_info()
    for width, height in sizes:
        _grid(width, height)
    assert _grid.cache_info().hits - before.hits == len(sizes) == 25
    assert _grid.cache_info().misses == before.misses
