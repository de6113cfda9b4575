"""The package's public names: a name added to or dropped from
puzzletext.__all__ is an API change and must show up here."""
import puzzletext

PUBLIC_NAMES = [
    "ALL_MOVES",
    "CorpusSplit",
    "DepthExceeded",
    "FACES",
    "Formula",
    "Maze",
    "MazePath",
    "PuzzleRecord",
    "SOLVED_FACELETS",
    "SampleVerdict",
    "Violation",
    "aggregate",
    "apply_formula",
    "apply_move",
    "build_cube_corpus",
    "build_maze_corpus",
    "build_sudoku_corpus",
    "classify_cube",
    "classify_maze",
    "classify_sudoku",
    "corpus",
    "count_solutions",
    "cube_progress",
    "decode_facelets",
    "dedup_and_split",
    "evaluate",
    "find_violations",
    "format_formula",
    "format_grid81",
    "generate_maze",
    "generate_puzzle",
    "inverse_formula",
    "is_solved",
    "markov",
    "maze",
    "parse_formula",
    "parse_grid81",
    "parse_maze",
    "random_scramble",
    "render_cube_net",
    "render_maze",
    "render_sudoku",
    "solve",
    "solve_maze",
    "solve_sudoku",
    "sudoku",
    "validate_path",
]


def test_all_is_the_declared_public_api():
    assert len(PUBLIC_NAMES) == 47
    assert len(set(puzzletext.__all__)) == len(puzzletext.__all__)
    assert sorted(puzzletext.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in puzzletext.__all__:
        assert hasattr(puzzletext, name), name
