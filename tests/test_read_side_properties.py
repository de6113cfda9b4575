"""Property tests: the referee's whole-string read side against the
per-character readers it replaced, kept here as references."""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from puzzletext.corpus import START_TOKEN, split_framed_stream  # noqa: E402
from puzzletext.maze import (  # noqa: E402
    DOWN,
    LEFT,
    RIGHT,
    UP,
    Maze,
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
    return [t for t in texts if t.strip()]


@FAST
@given(st.lists(st.sampled_from(["\n", " ", "x", "\r", START_TOKEN]), max_size=40).map("".join))
def test_split_framed_stream_matches_line_loop(text):
    assert split_framed_stream(text) == reference_split_framed_stream(text)


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
    assert isinstance(maze, Maze)
    assert len(maze.walls) == maze.height and {len(row) for row in maze.walls} == {maze.width}
    assert path is None or set(path) <= {UP, RIGHT, DOWN, LEFT}
