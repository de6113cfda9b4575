"""Sudoku grids as flat 81-digit strings: validate, solve, generate.

Run: python demos/02_sudoku.py
"""
from puzzletext import (
    count_solutions,
    find_violations,
    format_grid81,
    generate_puzzle,
    parse_grid81,
    render_sudoku,
    solve_sudoku,
)

# A published puzzle from the public 1M-sudoku dump. Zeros are blanks.
puzzle = parse_grid81(
    "004300209005009001070060043006002087190007400050083000600000105003508690042910300"
)
print("puzzle:")
print(render_sudoku(puzzle))
print()

solution = solve_sudoku(puzzle)
print("solved (deterministic backtracking, fewest-candidates first):")
print(render_sudoku(solution))
print("as an 81-digit string:", format_grid81(solution))
print("unique solution:", count_solutions(puzzle, 2) == 1)
print()

# The validator reports one violation per (unit, digit) repeat; the
# renderer stars the offending cells.
broken = parse_grid81("55" + "0" * 43 + "7" + "0" * 8 + "7" + "0" * 26)
violations = find_violations(broken)
for v in violations:
    print(f"repeated {v.digit} in {v.kind} {v.index} at cells {v.positions}")
print(render_sudoku(broken))
print()

# Seeded generation: a solved grid is built first, then cells are removed
# while the solution stays unique.
generated_puzzle, generated_solution = generate_puzzle(rng_seed=7, clues=30)
print("generated 30-clue puzzle (unique):")
print(render_sudoku(generated_puzzle))
