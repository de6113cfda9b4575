"""Property tests: the referee's read side against the simpler readers it
replaced, kept here as references."""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from puzzletext.corpus import START_TOKEN, split_framed_stream  # noqa: E402
from puzzletext.cube import (  # noqa: E402
    ALL_MOVES,
    FACES,
    SOLVED_FACELETS,
    FormulaSyntaxError,
    apply_formula,
    parse_formula,
)
from puzzletext.evaluate import cube_progress  # noqa: E402
from puzzletext.maze import (  # noqa: E402
    DOWN,
    LEFT,
    RIGHT,
    UP,
    DanglingPathError,
    MazeParseError,
    generate_maze,
    parse_maze,
    render_maze,
    solve_maze,
)
from puzzletext.sudoku import (  # noqa: E402
    GridDigitError,
    GridLengthError,
    count_violations,
    find_violations,
    parse_grid81,
)

from test_markov import cut  # noqa: E402

FAST = settings(max_examples=300, deadline=None)
DIGITS = "0123456789"
NOT_DIGITS = ("²", "٣", "３", "٠", "x", " ", "\r", "-")


def reference_parse_grid81(text):
    if len(text) != 81:
        raise GridLengthError(len(text))
    for position, char in enumerate(text):
        if char not in DIGITS:
            raise GridDigitError(position, char)
    return tuple(int(c) for c in text)


def grid_outcome(parse, text):
    try:
        return parse(text)
    except GridLengthError as exc:
        return ("length", str(exc), exc.length)
    except GridDigitError as exc:
        return ("digit", str(exc), exc.position, exc.char)


@st.composite
def grid_texts(draw):
    text = draw(st.text(alphabet=DIGITS, min_size=80, max_size=82))
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(NOT_DIGITS)) + text[i + 1:]
    return text


@FAST
@given(grid_texts())
def test_parse_grid81_matches_per_character_reference(text):
    assert grid_outcome(parse_grid81, text) == grid_outcome(reference_parse_grid81, text)


@FAST
@given(st.text(alphabet=DIGITS, min_size=81, max_size=81))
def test_count_violations_is_the_number_of_violations(text):
    grid = tuple(map(int, text))
    assert count_violations(grid) == len(find_violations(grid))


def brute_force_count(grid):
    """The (unit, digit) pairs that repeat, counted cell by cell."""
    units = [[9 * r + c for c in range(9)] for r in range(9)]
    units += [[9 * r + c for r in range(9)] for c in range(9)]
    units += [
        [9 * (3 * (b // 3) + r) + 3 * (b % 3) + c for r in range(3) for c in range(3)]
        for b in range(9)
    ]
    return sum(
        sum(grid[i] == digit for i in unit) >= 2 for unit in units for digit in range(1, 10)
    )


@st.composite
def repeat_heavy_grids(draw):
    # blanks and two digits, so most units repeat a digit, many of them often
    first, second = draw(st.lists(st.integers(1, 9), min_size=2, max_size=2, unique=True))
    return tuple(draw(st.lists(st.sampled_from((0, first, second)), min_size=81, max_size=81)))


@FAST
@given(st.one_of(repeat_heavy_grids(), st.lists(st.integers(0, 9), min_size=81, max_size=81).map(tuple)))
def test_count_violations_matches_brute_force_count(grid):
    assert count_violations(grid) == brute_force_count(grid)


def reference_split_framed_stream(text):
    chunks = []
    current = []
    for line in text.split("\n"):
        if line.startswith(START_TOKEN) and current:
            chunks.append(current)
            current = []
        current.append(line)
    if current:
        chunks.append(current)
    texts = ["\n".join(chunk).strip("\n") for chunk in chunks]
    return [t for t in texts if t.strip(" \t\n\r\x0b\x0c")]


@FAST
@given(st.lists(st.sampled_from(["\n", " ", "x", "\r", "\x0b", "\u00a0", START_TOKEN]), max_size=40).map("".join))
def test_split_framed_stream_matches_line_loop(text):
    assert list(split_framed_stream(text)) == reference_split_framed_stream(text)


FRAMED_STREAMS = st.lists(
    st.sampled_from(["\n", " ", "x", "\r", "\x0b", "\u00a0", START_TOKEN, "\n" + START_TOKEN[:7]]), max_size=40,
).map("".join)


@FAST
@given(FRAMED_STREAMS, st.lists(st.integers(0, 600), max_size=10))
def test_split_framed_stream_over_pieces_matches_line_loop(text, cuts):
    assert list(split_framed_stream(iter(cut(text, cuts)))) == reference_split_framed_stream(text)


def test_split_framed_stream_over_pieces_cut_inside_the_separator():
    # a whitespace-only chunk (dropped), a non-ASCII-whitespace one (kept),
    # a broken separator, and a chunk longer than many pieces before a
    # short last one, whose separator arrives in a piece shorter than the
    # text carried
    stream = (" \t\n" + START_TOKEN + "a\n \n" + START_TOKEN + "\n\t\n\n" + START_TOKEN[:9] + "b\n" + START_TOKEN
              + "\u00a0\n" + START_TOKEN + "c" * 40 + "\n\n" + START_TOKEN + "d")
    want = reference_split_framed_stream(stream)
    assert len(want) == 5
    for i in range(len(stream) + 1):
        assert list(split_framed_stream(iter(cut(stream, [i])))) == want, i
        assert list(split_framed_stream(iter(cut(stream, range(i, len(stream), 3))))) == want, i
    assert list(split_framed_stream(iter(stream))) == want


CODEC = " +-|^>v<*\n"


@st.composite
def mutated_mazes(draw):
    maze = generate_maze(draw(st.integers(0, 10**6)), draw(st.integers(2, 5)), draw(st.integers(2, 5)))
    text = render_maze(maze, solve_maze(maze) if draw(st.booleans()) else None)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.text(alphabet=CODEC, max_size=3)) + text[i + draw(st.integers(0, 2)):]
    return text


@FAST
@given(st.one_of(st.text(alphabet=CODEC, max_size=120), mutated_mazes()))
def test_parse_maze_returns_a_maze_or_raises_a_parse_error(text):
    try:
        maze, path = parse_maze(text)
    except MazeParseError:
        return
    assert type(maze) is tuple and {type(row) for row in maze} == {bytes}
    lines = text.rstrip(" \n").split("\n")  # parse_maze drops trailing blank lines
    assert 2 * len(maze) + 1 == len(lines) and {len(row) for row in maze} == {(len(lines[0].rstrip(" ")) - 1) // 4}
    assert path is None or set(path) <= {UP, RIGHT, DOWN, LEFT}


TURN_SUFFIXES = ("", "2", "'")


def reference_parse_formula(text):
    tokens = [token for token in text.split(" ") if token]
    for position, token in enumerate(tokens, start=1):
        if token[0] not in FACES or token[1:] not in TURN_SUFFIXES:
            raise FormulaSyntaxError(position, token)
    return tuple(tokens)


def formula_outcome(parse, text):
    try:
        return parse(text)
    except FormulaSyntaxError as exc:
        return ("syntax", str(exc), exc.position, exc.token)


@FAST
@given(st.text(alphabet="URFDBL2' \tx\uff32", max_size=30))
def test_parse_formula_matches_per_token_grammar(text):
    assert formula_outcome(parse_formula, text) == formula_outcome(reference_parse_formula, text)


def reference_rebuild(tokens):
    """The path walk from a (x, y) -> token dict of non-blank cells,
    scanning the four neighbors of each walked cell."""
    entry_cells = [cell for cell, token in tokens.items() if token == "**"]
    if not entry_cells:
        if tokens:
            raise DanglingPathError("arrow tokens present without an entry mark")
        return None
    if len(entry_cells) > 1:
        raise DanglingPathError("multiple entry marks")
    offsets = {UP: (0, -1), RIGHT: (1, 0), DOWN: (0, 1), LEFT: (-1, 0)}
    steps = []
    position = entry_cells[0]
    del tokens[position]
    while True:
        x, y = position
        candidates = []
        for token, (dx, dy) in offsets.items():
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
    return tuple(steps)


def maze_outcome(parse, text):
    try:
        return parse(text)
    except MazeParseError as exc:
        return (type(exc).__name__, str(exc))


def reference_parse_maze(text):
    """parse_maze with the reference path rebuild. Errors in the lines come
    before the rebuild, so they are parse_maze's own; otherwise the walls
    are parse_maze's on the text with every cell interior blanked, and the
    tokens are read from those interiors."""
    try:
        parse_maze(text)
    except DanglingPathError:
        pass
    lines = [line.rstrip(" ") for line in text.split("\n")]
    width = (len(lines[0]) - 1) // 4
    tokens = {}
    for y, row in enumerate(range(1, len(lines) - 1, 2)):
        line = lines[row]
        for x in range(width):
            token = line[4 * x + 1: 4 * x + 4].strip(" ")
            if token:
                tokens[(x, y)] = token
        lines[row] = "".join(line[4 * x] + "   " for x in range(width)) + line[-1]
    maze, _ = parse_maze("\n".join(lines))
    return maze, reference_rebuild(tokens)


@st.composite
def marked_mazes(draw):
    """Solved or unsolved renders with up to four cells rewritten to another
    token or to blank, so paths branch, dangle, or leave arrows unconnected."""
    seed, width, height = draw(st.integers(0, 10**6)), draw(st.integers(2, 5)), draw(st.integers(2, 5))
    maze = generate_maze(seed, width, height)
    lines = render_maze(maze, solve_maze(maze) if draw(st.booleans()) else None).split("\n")
    for _ in range(draw(st.integers(0, 4))):
        x, y = draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1))
        token = draw(st.sampled_from(("", "**", UP, RIGHT, DOWN, LEFT)))
        line = lines[2 * y + 1].ljust(4 * width + 1)
        lines[2 * y + 1] = line[: 4 * x + 1] + token.center(3) + line[4 * x + 4:]
    return "\n".join(lines)


@FAST
@given(st.one_of(marked_mazes(), mutated_mazes(), st.text(alphabet=CODEC, max_size=120)))
def test_parse_maze_matches_neighbor_scan_rebuild(text):
    assert maze_outcome(parse_maze, text) == maze_outcome(reference_parse_maze, text)


def reference_cube_progress(cube):
    solved_faces = 0
    lines = 0
    for face_index, face in enumerate(FACES):
        block = cube[face_index * 9: face_index * 9 + 9]
        if block == face * 9:
            solved_faces += 1
        for r in range(3):
            if block[3 * r: 3 * r + 3] == face * 3:
                lines += 1
        for c in range(3):
            if block[c] == block[c + 3] == block[c + 6] == face:
                lines += 1
    return solved_faces, lines


@FAST
@given(st.lists(st.sampled_from(ALL_MOVES), max_size=12))
def test_cube_progress_matches_per_sticker_loop(formula):
    cube = apply_formula(SOLVED_FACELETS, tuple(formula))
    assert cube_progress(cube) == reference_cube_progress(cube)


def test_cube_progress_of_the_solved_cube():
    assert cube_progress(SOLVED_FACELETS) == reference_cube_progress(SOLVED_FACELETS) == (6, 36)
