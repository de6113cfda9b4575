"""Walk through the cube text notation: states, moves, solving.

Run: python demos/01_cube_notation.py
"""
from puzzletext import (
    SOLVED_FACELETS,
    apply_formula,
    format_formula,
    inverse_formula,
    is_solved,
    parse_formula,
    random_scramble,
    render_cube_net,
    solve,
)

# A cube state is 54 letters: nine stickers per face in U, R, F, D, B, L
# order. The solved cube is nine of each letter.
solved = SOLVED_FACELETS
print("solved state:", solved)
print(render_cube_net(solved))
print()

# Moves are single letters with optional ' (counterclockwise) or 2 (half
# turn). Apply a short formula and look at the unfolded net.
formula = parse_formula("R U' F2")
scrambled = apply_formula(solved, formula)
print("after R U' F2:", scrambled)
print(render_cube_net(scrambled))
print()

# Undoing the formula is its reversed, inverted move list.
print("inverse formula:", format_formula(inverse_formula(formula)))
print("undone:", is_solved(apply_formula(scrambled, inverse_formula(formula))))
print()

# Seeded scrambles never repeat a face twice in a row; the solver returns
# a minimal-length solution.
for seed in (1, 2, 3):
    scramble = random_scramble(seed, 5)
    state = apply_formula(solved, scramble)
    solution = solve(state)
    print(
        f"seed {seed}: scramble {format_formula(scramble):<16}"
        f" solution {format_formula(solution):<16}"
        f" solves: {is_solved(apply_formula(state, solution))}"
    )
