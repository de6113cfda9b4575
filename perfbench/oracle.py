"""Reference implementations that the benchmark checks the program against.

Nothing here calls the puzzletext code under test. The cube oracle reads
only the frozen permutation table (`cube_tables.py`, pure data); the sudoku
and maze oracles are written from the notation described in the package
docstrings. The same code builds the seeded `referee` inputs, so every
output is made without the generators and solvers being measured.
"""
from __future__ import annotations

import importlib.util
import random
from pathlib import Path

START, END, PROMPT_TAG, RESPONSE_TAG = "<|startoftext|>", "<|endoftext|>", "[WP]", "[RESPONSE]"
INVALID, INCORRECT, CORRECT = "invalid", "incorrect", "correct"

# ---------------------------------------------------------------- cube

FACES = "URFDBL"
SOLVED = "".join(face * 9 for face in FACES)
SUFFIX_TURNS = {"": 1, "2": 2, "'": 3}


def load_clockwise_perms(src: Path) -> dict:
    """CLOCKWISE_PERMS from the frozen table file, loaded without importing
    the puzzletext package."""
    path = src / "puzzletext" / "cube_tables.py"
    spec = importlib.util.spec_from_file_location("_bench_cube_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.CLOCKWISE_PERMS


class CubeOracle:
    def __init__(self, clockwise_perms: dict):
        # one composed permutation per move token: after k quarter turns,
        # new[i] = old[composed[i]]
        self.moves = {}
        for face, perm in clockwise_perms.items():
            composed = list(range(54))
            for suffix in ("", "2", "'"):
                composed = [composed[j] for j in perm]
                self.moves[face + suffix] = composed

    def apply(self, facelets: str, moves: list[str]) -> str:
        for token in moves:
            facelets = "".join(map(facelets.__getitem__, self.moves[token]))
        return facelets

    def is_formula(self, text: str) -> bool:
        return all(t and t[0] in FACES and t[1:] in SUFFIX_TURNS for t in text.split())


def random_moves(rng: random.Random, length: int) -> list[str]:
    moves, previous = [], None
    for _ in range(length):
        face = rng.choice([f for f in FACES if f != previous])
        moves.append(face + rng.choice(("", "2", "'")))
        previous = face
    return moves


def invert(moves: list[str]) -> list[str]:
    flip = {"": "'", "'": "", "2": "2"}
    return [m[0] + flip[m[1:]] for m in reversed(moves)]


# ---------------------------------------------------------------- sudoku

SUDOKU_UNITS = (
    [[r * 9 + c for c in range(9)] for r in range(9)]
    + [[r * 9 + c for r in range(9)] for c in range(9)]
    + [[(br + r) * 9 + bc + c for r in range(3) for c in range(3)]
       for br in (0, 3, 6) for bc in (0, 3, 6)]
)

# Published puzzle/solution pair from the public 1M-sudoku dump (the same
# fixture the repository's tests use).
SUDOKU_SOLUTION = "864371259325849761971265843436192587198657432257483916689734125713528694542916378"


def sudoku_has_repeat(grid: str) -> bool:
    for unit in SUDOKU_UNITS:
        digits = [grid[i] for i in unit if grid[i] != "0"]
        if len(digits) != len(set(digits)):
            return True
    return False


def sudoku_verdict(puzzle: str, response: str) -> str:
    """Strict-clue verdict of an ASCII response."""
    if len(response) != 81 or not all(c in "0123456789" for c in response):
        return INVALID
    if any(p != "0" and p != r for p, r in zip(puzzle, response)):
        return INVALID
    if "0" in response or sudoku_has_repeat(response):
        return INCORRECT
    return CORRECT


def relabelled_solution(rng: random.Random) -> str:
    """The fixture solution under a digit relabelling and in-band row
    permutations, both seeded."""
    digits = list("123456789")
    rng.shuffle(digits)
    relabel = dict(zip("123456789", digits))
    rows = [SUDOKU_SOLUTION[r * 9: r * 9 + 9] for r in range(9)]
    order = []
    for band in (0, 3, 6):
        block = [band, band + 1, band + 2]
        rng.shuffle(block)
        order += block
    return "".join(relabel[c] for r in order for c in rows[r])


# ---------------------------------------------------------------- maze

STEPS = {"^^": (0, -1), ">>": (1, 0), "vv": (0, 1), "<<": (-1, 0)}


class OracleMaze:
    """Cell grid with a set of open passages; (0, 0) is the entry and the
    bottom-right cell opens through the outer south wall."""

    def __init__(self, width: int, height: int, passages: set):
        self.width, self.height, self.passages = width, height, passages

    def is_open(self, a, b) -> bool:
        return (a, b) in self.passages or (b, a) in self.passages

    def path(self) -> list[str]:
        goal = (self.width - 1, self.height - 1)
        came = {(0, 0): None}
        frontier = [(0, 0)]
        while frontier:
            nxt = []
            for cell in frontier:
                for token, (dx, dy) in STEPS.items():
                    other = (cell[0] + dx, cell[1] + dy)
                    if other not in came and self.is_open(cell, other):
                        came[other] = (cell, token)
                        nxt.append(other)
            frontier = nxt
        steps, node = [], goal
        while came[node] is not None:
            node, token = came[node]
            steps.append(token)
        return steps[::-1]

    def render(self, path: list[str] | None = None, bad_cell=None) -> str:
        marks = {}
        if path is not None:
            x, y = 0, 0
            marks[(0, 0)] = "**"
            for token in path:
                dx, dy = STEPS[token]
                x, y = x + dx, y + dy
                marks[(x, y)] = token
        if bad_cell is not None:
            marks[bad_cell] = "##"
        lines = []
        for y in range(self.height):
            top = "".join(
                "+" + ("   " if y and self.is_open((x, y - 1), (x, y)) else "---")
                for x in range(self.width)
            ) + "+"
            body = ""
            for x in range(self.width):
                wall = x == 0 or not self.is_open((x - 1, y), (x, y))
                body += ("|" if wall else " ") + marks.get((x, y), "").rjust(3)
            lines += [top, body + "|"]
        bottom = "".join("+---" for _ in range(self.width - 1)) + "+   +"
        lines.append(bottom)
        return "\n".join(line.rstrip() for line in lines)


def random_maze(rng: random.Random, width: int, height: int) -> OracleMaze:
    """Perfect maze by randomized Prim's algorithm."""
    passages = set()
    inside = {(0, 0)}
    frontier = [((0, 0), (1, 0)), ((0, 0), (0, 1))]
    while frontier:
        a, b = frontier.pop(rng.randrange(len(frontier)))
        if b in inside:
            continue
        inside.add(b)
        passages.add((a, b))
        for dx, dy in STEPS.values():
            c = (b[0] + dx, b[1] + dy)
            if 0 <= c[0] < width and 0 <= c[1] < height and c not in inside:
                frontier.append((b, c))
    return OracleMaze(width, height, passages)


def frame_maze(prompt: str, response: str) -> str:
    return f"{START}{PROMPT_TAG}\n{prompt}\n{RESPONSE_TAG}\n{response}\n{END}"


# ------------------------------------------------------- referee inputs

CUBE_CASES = {
    "solve": CORRECT,
    "truncated": INCORRECT,
    "wrong_move": INCORRECT,
    "bad_token": INVALID,
    "too_long": INVALID,
}
SUDOKU_CASES = {
    "solve": CORRECT,
    "random_fill": INCORRECT,
    "random_fill_2": INCORRECT,
    "partial": INCORRECT,
    "row_swap": INCORRECT,
    "clue_changed": INVALID,
    "bad_grid": INVALID,
}
MAZE_CASES = {
    "solve": CORRECT,
    "truncated": INCORRECT,
    "wall_on_path": INCORRECT,
    "wall_mismatch": INVALID,
    "no_end_token": INVALID,
    "bad_token": INVALID,
}
MAZE_SIZES = ((4, 4), (5, 5), (6, 6))
BAD_CUBE_TOKENS = ("X", "R3", "u", "F'2", "B''", "2", "LL")


def _cube_output(rng, cube: CubeOracle, case: str):
    while True:
        scramble = random_moves(rng, rng.randint(4, 12))
        state = cube.apply(SOLVED, scramble)
        moves = invert(scramble)
        if case == "truncated":
            moves = moves[: rng.randrange(1, len(moves))]
        elif case == "wrong_move":
            i = rng.randrange(len(moves))
            moves[i] = rng.choice([m for m in (f + s for f in FACES for s in SUFFIX_TURNS) if m != moves[i]])
        elif case == "bad_token":
            moves.insert(rng.randrange(len(moves) + 1), rng.choice(BAD_CUBE_TOKENS))
        text = " ".join(moves)
        if case == "too_long":
            text += " U U U U" * 150
        expected = (
            INVALID if len(text) > 1024 or not cube.is_formula(text)
            else CORRECT if cube.apply(state, text.split()) == SOLVED
            else INCORRECT
        )
        if expected == CUBE_CASES[case]:
            return state, text


def _sudoku_output(rng, case: str):
    while True:
        solution = relabelled_solution(rng)
        clues = set(rng.sample(range(81), rng.randint(25, 35)))
        puzzle = "".join(d if i in clues else "0" for i, d in enumerate(solution))
        blanks = [i for i in range(81) if i not in clues]
        cells = list(solution)
        if case.startswith("random_fill"):
            for i in blanks:
                cells[i] = rng.choice("123456789")
        elif case == "partial":
            for i in rng.sample(blanks, rng.randint(1, 12)):
                cells[i] = "0"
        elif case == "row_swap":
            r = rng.randrange(9)
            row = [i for i in blanks if i // 9 == r]
            if len(row) >= 2:
                a, b = rng.sample(row, 2)
                cells[a], cells[b] = cells[b], cells[a]
        elif case == "clue_changed":
            i = rng.choice(sorted(clues))
            cells[i] = rng.choice([d for d in "123456789" if d != cells[i]])
        elif case == "bad_grid":
            if rng.random() < 0.5:
                cells.pop(rng.randrange(81))
            else:
                cells[rng.randrange(81)] = rng.choice("x.-a")
        response = "".join(cells)
        if sudoku_verdict(puzzle, response) == SUDOKU_CASES[case]:
            return puzzle, response


def _maze_output(rng, size, case: str) -> str:
    maze = random_maze(rng, *size)
    path = maze.path()
    prompt = maze.render()
    if case == "truncated":
        return frame_maze(prompt, maze.render(path[: rng.randrange(1, len(path))]))
    if case == "wall_on_path":
        i = rng.randrange(len(path))
        x, y = 0, 0
        for token in path[:i]:
            dx, dy = STEPS[token]
            x, y = x + dx, y + dy
        dx, dy = STEPS[path[i]]
        edge = ((x, y), (x + dx, y + dy))
        closed = OracleMaze(maze.width, maze.height, maze.passages - {edge, edge[::-1]})
        return frame_maze(closed.render(), closed.render(path))
    if case == "wall_mismatch":
        edge = rng.choice(sorted(maze.passages))
        closed = OracleMaze(maze.width, maze.height, maze.passages - {edge})
        return frame_maze(prompt, closed.render(path))
    if case == "no_end_token":
        return frame_maze(prompt, maze.render(path))[: -len(END) - 1]
    if case == "bad_token":
        cells = [(x, y) for y in range(maze.height) for x in range(maze.width)]
        return frame_maze(prompt, maze.render(path, bad_cell=rng.choice(cells)))
    return frame_maze(prompt, maze.render(path))


def _cycle(cases: dict, count: int) -> list[str]:
    names = list(cases)
    return [names[i % len(names)] for i in range(count)]


def build_referee_inputs(seed: int, sizes: dict, cube: CubeOracle) -> dict[str, str]:
    """File name -> text for the three `score` commands. Case order is a
    fixed cycle, so the verdict mix is the same at every seed; the seed
    chooses the puzzles and the damage. Each meta row names its case, so
    the report's breakdown shows which case earned which verdict."""
    rng = random.Random(seed)
    files: dict[str, list[str]] = {}
    for kind, build in (
        ("cube", lambda case: _cube_output(rng, cube, case)),
        ("sudoku", lambda case: _sudoku_output(rng, case)),
    ):
        cases = _cycle(CUBE_CASES if kind == "cube" else SUDOKU_CASES, sizes[f"{kind}_outputs"])
        pairs = [build(case) for case in cases]
        files[f"{kind}_prompts.txt"] = [p for p, _ in pairs]
        files[f"{kind}_outputs.txt"] = [o for _, o in pairs]
        files[f"{kind}_meta.jsonl"] = [f'{{"case": "{c}"}}' for c in cases]
    cases = _cycle(MAZE_CASES, sizes["maze_outputs"])
    files["maze_outputs.txt"] = [
        _maze_output(rng, MAZE_SIZES[(i // len(MAZE_CASES)) % len(MAZE_SIZES)], case)
        for i, case in enumerate(cases)
    ]
    files["maze_meta.jsonl"] = [f'{{"case": "{c}"}}' for c in cases]
    return {name: "\n".join(lines) + "\n" for name, lines in files.items()}


def expected_case_counts(cases: dict, count: int) -> dict[str, dict[str, int]]:
    """case -> {verdict: count} that a faithful scorer must report."""
    out: dict[str, dict[str, int]] = {}
    for case in _cycle(cases, count):
        out.setdefault(case, {INVALID: 0, INCORRECT: 0, CORRECT: 0})[cases[case]] += 1
    return out
