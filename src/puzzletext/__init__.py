"""puzzletext: text-notation toolkit for cube, sudoku, and maze puzzles.

Builds seeded training corpora of solved puzzle pairs in plain-text
notations, trains and samples a character-level baseline model over them,
and scores any model's generated text as invalid, incorrect, or correct
with partial-progress metrics.
"""
from . import corpus, evaluate, markov, maze, sudoku
from .cube import (
    ALL_MOVES,
    FACES,
    SOLVED_FACELETS,
    Formula,
    apply_formula,
    apply_move,
    decode_facelets,
    format_formula,
    inverse_formula,
    is_solved,
    parse_formula,
    random_scramble,
    render_cube_net,
)
from .cube_solver import DepthExceeded, solve
from .corpus import CorpusSplit, PuzzleRecord, build_cube_corpus, build_maze_corpus, build_sudoku_corpus, dedup_and_split
from .evaluate import (
    SampleVerdict,
    aggregate,
    classify_cube,
    classify_maze,
    classify_sudoku,
    cube_progress,
)
from .maze import Maze, MazePath, generate_maze, parse_maze, render_maze, solve_maze, validate_path
from .sudoku import (
    Violation,
    count_solutions,
    find_violations,
    format_grid81,
    generate_puzzle,
    parse_grid81,
    render_sudoku,
    solve_sudoku,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_MOVES",
    "FACES",
    "SOLVED_FACELETS",
    "CorpusSplit",
    "DepthExceeded",
    "Formula",
    "Maze",
    "MazePath",
    "PuzzleRecord",
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
