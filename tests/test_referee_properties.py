"""Property tests: on arbitrary text the referee's entry points return a
verdict or raise only their documented errors, and never call text correct
that does not solve its puzzle."""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION  # noqa: E402
from puzzletext.corpus import DEFAULT_MAX_CHARS, END_TOKEN, PROMPT_TAG, RESPONSE_TAG, START_TOKEN  # noqa: E402
from puzzletext.cube import (  # noqa: E402
    ALL_MOVES,
    FACES,
    SOLVED_FACELETS,
    FaceletStringError,
    FormulaSyntaxError,
    apply_formula,
    decode_facelets,
    is_solved,
    parse_formula,
)
from puzzletext.evaluate import (  # noqa: E402
    CORRECT,
    INCORRECT,
    INVALID,
    BadPromptError,
    classify_cube,
    classify_maze,
    classify_sudoku,
)
from puzzletext.maze import generate_maze, render_maze, solve_maze  # noqa: E402
from puzzletext.sudoku import find_violations, is_complete, parse_grid81  # noqa: E402

FAST = settings(max_examples=300, deadline=None)

# text over each grammar's own characters reaches past the first check more
# often than arbitrary Unicode does
FORMULA_TEXT = st.text(alphabet=FACES + "2' \t\nxＲ", max_size=40)
# formula text padded with spaces to the character budget, or one past it
BUDGET_TEXT = st.builds(str.ljust, FORMULA_TEXT, st.sampled_from((DEFAULT_MAX_CHARS, DEFAULT_MAX_CHARS + 1)))
FACELET_TEXT = st.one_of(
    st.text(alphabet=FACES + "x ", min_size=50, max_size=58),
    st.permutations(SOLVED_FACELETS).map("".join),
    st.lists(st.sampled_from(ALL_MOVES), max_size=3).map(lambda moves: apply_formula(SOLVED_FACELETS, tuple(moves))),
)
GRID_TEXT = st.text(alphabet="0123456789３x ", min_size=79, max_size=83)
MAZE_TEXT = st.text(alphabet="+-| *^><v\n", max_size=200)


def arbitrary(*grammar_texts):
    return st.one_of(st.text(max_size=120), *grammar_texts)


def assert_verdict(verdict, kind):
    assert verdict.kind == kind
    assert verdict.status in (INVALID, INCORRECT, CORRECT)
    assert (verdict.reason is None) == (verdict.status != INVALID)


@FAST
@given(arbitrary(FORMULA_TEXT))
def test_parse_formula_returns_moves_or_a_syntax_error(text):
    tokens = [token for token in text.split(" ") if token]
    try:
        formula = parse_formula(text)
    except FormulaSyntaxError as exc:
        assert exc.token == tokens[exc.position - 1]
    else:
        assert len(formula) == len(tokens)


@FAST
@given(arbitrary(FACELET_TEXT))
def test_decode_facelets_returns_the_text_or_a_facelet_error(text):
    try:
        assert decode_facelets(text) == text
    except FaceletStringError:
        pass


@FAST
@given(arbitrary(FACELET_TEXT), arbitrary(FORMULA_TEXT, BUDGET_TEXT))
def test_classify_cube_returns_a_verdict_or_a_bad_prompt(initial, response):
    try:
        verdict = classify_cube(initial, response)
    except BadPromptError:
        with pytest.raises(FaceletStringError):
            decode_facelets(initial)
        return
    assert_verdict(verdict, "cube")
    if verdict.status == CORRECT:
        assert len(response) <= DEFAULT_MAX_CHARS
        assert is_solved(apply_formula(initial, parse_formula(response)))


@st.composite
def near_solutions(draw):
    """The sample solution with its digits relabeled, which keeps it solved
    but changes clues, and with up to three cells rewritten."""
    relabel = str.maketrans("123456789", "".join(draw(st.permutations("123456789"))))
    text = draw(st.sampled_from((SAMPLE_SUDOKU_SOLUTION, SAMPLE_SUDOKU_SOLUTION.translate(relabel))))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, 80))
        text = text[:at] + draw(st.sampled_from("0123456789x３")) + text[at + 1:]
    return text


@FAST
@given(arbitrary(GRID_TEXT, near_solutions()), arbitrary(GRID_TEXT, near_solutions()))
def test_classify_sudoku_returns_a_verdict_or_a_bad_prompt(puzzle, response):
    for prompt in (puzzle, SAMPLE_SUDOKU_PUZZLE):
        try:
            verdict = classify_sudoku(prompt, response)
        except BadPromptError:
            assert prompt == puzzle
            continue
        assert_verdict(verdict, "sudoku")
        if verdict.status == CORRECT:
            grid = parse_grid81(response)
            assert is_complete(grid) and not find_violations(grid)
            clues = parse_grid81(prompt)
            assert all(clue in (0, digit) for clue, digit in zip(clues, grid))


@st.composite
def maze_records(draw):
    """Framed records whose halves are arbitrary maze-alphabet text or the
    renders of one maze, solved or not, with a few characters rewritten."""
    maze = generate_maze(draw(st.integers(0, 10**6)), draw(st.integers(2, 6)), draw(st.integers(2, 6)))
    halves = []
    for solved in (False, True):
        text = render_maze(maze, solve_maze(maze) if solved else None)
        for _ in range(draw(st.integers(0, 3))):
            at = draw(st.integers(0, len(text) - 1))
            text = text[:at] + draw(st.sampled_from("+-| *^><v\n")) + text[at + 1:]
        halves.append(draw(st.one_of(st.just(text), MAZE_TEXT)))
    return f"{START_TOKEN}{PROMPT_TAG}\n{halves[0]}\n{RESPONSE_TAG}\n{halves[1]}\n{END_TOKEN}"


@FAST
@given(arbitrary(maze_records(), MAZE_TEXT))
def test_classify_maze_returns_a_verdict(text):
    assert_verdict(classify_maze(text), "maze")
