"""Acceptance suite: one test per ship criterion, each printing a PASS line
with its measured runtime (run with -s or -rA to see them on success).

Heavy artifacts (the 5,000-pair cube corpus, the 1,000-maze sample, the
10,000-record maze pipeline) are session fixtures so the determinism
criterion can regenerate them and compare bytes.
"""
import json
import time

import pytest

from puzzletext import corpus
from puzzletext.cli import run
from puzzletext.cube import (
    ALL_MOVES,
    CENTER_INDICES,
    FACES,
    SOLVED_FACELETS,
    apply_formula,
    apply_move,
    decode_facelets,
    inverse_formula,
    is_solved,
    parse_formula,
    random_scramble,
)
from puzzletext.cube_solver import solve
from puzzletext.evaluate import SampleVerdict, aggregate
from puzzletext.maze import generate_maze, parse_maze, render_maze, solve_maze
from puzzletext.sudoku import Violation, find_violations, parse_grid81

from conftest import SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION

SOLVED = SOLVED_FACELETS

CUBE_CORPUS_SEED = 2024
CUBE_CORPUS_TOTAL = 5000
MAZE_SAMPLE_SEEDS = range(1000)
E2E_SEED = 1234
E2E_TOTAL = 10000
E2E_SAMPLES = 100


def _report(criterion, elapsed, budget, detail=""):
    print(f"PASS criterion {criterion}: {detail} ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget


@pytest.fixture(scope="session")
def cube_corpus():
    records = list(corpus.build_cube_corpus(CUBE_CORPUS_SEED, CUBE_CORPUS_TOTAL, 5))
    return records, corpus.corpus_text(records)


@pytest.fixture(scope="session")
def maze_sample():
    sizes = [(4, 4), (5, 5), (6, 6)]
    mazes = [generate_maze(seed, *sizes[seed % 3]) for seed in MAZE_SAMPLE_SEEDS]
    text = "\n\n".join(render_maze(m, solve_maze(m)) for m in mazes)
    return mazes, text


def _run_e2e_pipeline(workdir):
    """gen maze -> train -> sample -> score, all through the CLI."""
    corpus_path = workdir / "maze_corpus.txt"
    model_path = workdir / "model.json"
    samples_path = workdir / "samples.jsonl"
    report_path = workdir / "report.json"
    prompt_path = workdir / "prompt.txt"
    prompt_path.write_text("<|startoftext|>[WP]\n", encoding="utf-8")
    assert run([
        "gen", "maze", "--seed", str(E2E_SEED), "--total", str(E2E_TOTAL),
        "--sizes", "4x4,5x5", "--out", str(corpus_path),
    ]) == 0
    assert run([
        "train", "--corpus", str(corpus_path), "--order", "6", "--alpha", "0.1",
        "--out", str(model_path),
    ]) == 0
    assert run([
        "sample", "--model", str(model_path), "--seed", "0",
        "--count", str(E2E_SAMPLES), "--max-chars", "1024",
        "--prompt-file", str(prompt_path), "--out", str(samples_path), "--jsonl",
    ]) == 0
    assert run([
        "score", "maze", "--outputs", str(samples_path), "--jsonl",
        "--json", str(report_path),
    ]) == 0
    return corpus_path, samples_path, report_path


@pytest.fixture(scope="session")
def e2e_artifacts(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("e2e")
    started = time.monotonic()
    corpus_path, samples_path, report_path = _run_e2e_pipeline(workdir)
    elapsed = time.monotonic() - started
    return {
        "elapsed": elapsed,
        "corpus": corpus_path.read_text(encoding="utf-8"),
        "samples": samples_path.read_text(encoding="utf-8"),
        "report": report_path.read_text(encoding="utf-8"),
    }


def test_c1_cube_group_properties():
    started = time.monotonic()
    quarter_turns = list(FACES)  # a bare face letter is its clockwise quarter turn
    inverses = {move: inverse_formula((move,))[0] for move in ALL_MOVES}
    for seed in range(10000):
        state = apply_formula(SOLVED, random_scramble(seed, 14))
        for move in ALL_MOVES:
            turned = apply_move(state, move)
            facelets = turned
            for face, center in zip(FACES, CENTER_INDICES):
                assert facelets.count(face) == 9
                assert facelets[center] == face
            assert apply_move(turned, inverses[move]) == state
        for move in quarter_turns:
            four = state
            for _ in range(4):
                four = apply_move(four, move)
            assert four == state
    _report(1, time.monotonic() - started, 10, "18 moves x 10,000 states conserve and invert")


def test_c2_solver_matches_brute_force_at_depth_three():
    started = time.monotonic()
    distances = {SOLVED: 0}
    frontier = [(SOLVED, None)]
    for depth in (1, 2, 3):
        next_frontier = []
        for state, last_face in frontier:
            for move in ALL_MOVES:
                if move[0] == last_face:
                    continue
                child = apply_move(state, move)
                if child not in distances:
                    distances[child] = depth
                    next_frontier.append((child, move[0]))
        frontier = next_frontier
    assert len(distances) == 3502  # 1 + 18 + 243 + 3240
    for facelets, distance in distances.items():
        # Reference label: at each step, the first move in ALL_MOVES order
        # whose child is one turn closer.
        expected = []
        state = facelets
        for closer in range(distance - 1, -1, -1):
            for move in ALL_MOVES:
                child = apply_move(state, move)
                if distances.get(child) == closer:
                    break
            else:
                pytest.fail(f"no move brings {state} to distance {closer}")
            expected.append(move)
            state = child
        assert is_solved(state)
        assert solve(facelets, 4) == tuple(expected)
    _report(2, time.monotonic() - started, 300,
            "first optimal formula on all 3,502 states within 3 moves")


def test_c3_cube_corpus_self_consistency(cube_corpus):
    started = time.monotonic()
    records, _ = cube_corpus
    assert len(records) == CUBE_CORPUS_TOTAL
    one_move_prompts = set()
    per_length = {}
    for record in records:
        state = decode_facelets(record.prompt)
        assert is_solved(apply_formula(state, parse_formula(record.response)))
        length = record.meta["scramble_length"]
        per_length[length] = per_length.get(length, 0) + 1
        if length == 1:
            one_move_prompts.add(record.prompt)
    assert per_length == {n: CUBE_CORPUS_TOTAL // 5 for n in range(1, 6)}
    assert len(one_move_prompts) <= 18
    split = corpus.dedup_and_split(records, 99, 0.2)
    train_keys = {r.prompt for r in split.train}
    test_keys = {r.prompt for r in split.test}
    assert not train_keys & test_keys
    _report(3, time.monotonic() - started, 120,
            f"{CUBE_CORPUS_TOTAL} records verified; length-1 bucket has {len(one_move_prompts)} states")


def test_c4_split_totals_in_expected_ballpark(cube_corpus):
    records, _ = cube_corpus
    split = corpus.dedup_and_split(records, 99, 0.2)
    total = len(split.train) + len(split.test)
    # a reference run of this pipeline kept 2,404 + 601 = 3,005 of 5,000
    # after dedup; exact totals are RNG-specific, so only the ballpark is
    # pinned here
    assert 2500 <= total <= 5000
    print(f"PASS criterion 4: dedup kept {total} of {CUBE_CORPUS_TOTAL} "
          f"({len(split.train)} train + {len(split.test)} test)")


def test_c5_sudoku_validator_matches_brute_force():
    import random as _random

    started = time.monotonic()
    units = []
    for r in range(9):
        units.append(("row", r, [r * 9 + c for c in range(9)]))
    for c in range(9):
        units.append(("column", c, [r * 9 + c for r in range(9)]))
    for b in range(9):
        units.append((
            "block", b,
            [((b // 3) * 3 + r) * 9 + (b % 3) * 3 + c for r in range(3) for c in range(3)],
        ))

    def oracle(grid):
        found = []
        for kind, index, cells in units:
            for digit in range(1, 10):
                hits = [i for i in cells if grid[i] == digit]
                if len(hits) > 1:
                    found.append(Violation(kind, index, digit, tuple(hits)))
        return found

    rng = _random.Random(77)
    for _ in range(10000):
        grid = tuple(rng.randrange(10) for _ in range(81))
        assert find_violations(grid) == oracle(grid)
    elapsed = time.monotonic() - started

    puzzle = parse_grid81(SAMPLE_SUDOKU_PUZZLE)
    solution = parse_grid81(SAMPLE_SUDOKU_SOLUTION)
    assert find_violations(solution) == []
    assert 0 not in solution
    assert all(p == 0 or p == s for p, s in zip(puzzle, solution))
    _report(5, elapsed, 5, "10,000 random grids agree with the 27-unit scan")


def test_c6_maze_properties(maze_sample):
    started = time.monotonic()
    mazes, _ = maze_sample

    def open_edges(maze, width, height):
        edges = []
        for y in range(height):
            for x in range(width):
                if x + 1 < width and not maze[y][x] & 2:  # EAST
                    edges.append(((x, y), (x + 1, y)))
                if y + 1 < height and not maze[y][x] & 4:  # SOUTH
                    edges.append(((x, y), (x, y + 1)))
        return edges

    for maze in mazes:
        width, height = len(maze[0]), len(maze)
        # union-find spanning tree check
        parent = {(x, y): (x, y) for y in range(height) for x in range(width)}

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        edges = open_edges(maze, width, height)
        assert len(edges) == width * height - 1
        for a, b in edges:
            ra, rb = find(a), find(b)
            assert ra != rb  # no cycles
            parent[ra] = rb

        path = solve_maze(maze)
        if width * height <= 25:
            # exhaustive minimum over all simple entry-to-exit paths
            adjacency = {}
            for a, b in edges:
                adjacency.setdefault(a, []).append(b)
                adjacency.setdefault(b, []).append(a)
            best = [None]

            def walk(cell, seen, steps):
                if cell == (width - 1, height - 1):
                    if best[0] is None or steps < best[0]:
                        best[0] = steps
                    return
                for nxt in adjacency.get(cell, ()):
                    if nxt not in seen:
                        walk(nxt, seen | {nxt}, steps + 1)

            walk((0, 0), {(0, 0)}, 0)
            assert len(path) == best[0]

        for p in (None, path):
            text = render_maze(maze, p)
            parsed_maze, parsed_path = parse_maze(text)
            assert parsed_maze == maze and parsed_path == p
            assert render_maze(parsed_maze, parsed_path) == text
    _report(6, time.monotonic() - started, 30,
            "1,000 mazes perfect; BFS optimal; codec round-trips byte-exact")


def test_c7_percentage_rounding_on_reference_counts():
    verdicts = []
    for status, count in (("invalid", 11), ("incorrect", 576), ("correct", 14)):
        progress = None if status == "invalid" else (0, 0)
        verdicts.extend(
            SampleVerdict("cube", status, None, progress) for _ in range(count)
        )
    report = aggregate(verdicts)
    assert report["total"] == 601
    assert report["percentages"] == {"invalid": 1.8, "incorrect": 95.8, "correct": 2.3}
    print("PASS criterion 7: counts 11/576/14 -> 1.8% / 95.8% / 2.3%")


def test_c8_end_to_end_maze_pipeline(e2e_artifacts):
    payload = json.loads(e2e_artifacts["report"])
    assert payload["total"] == E2E_SAMPLES
    assert sum(payload["counts"].values()) == E2E_SAMPLES
    records = corpus.parse_corpus_text(e2e_artifacts["corpus"])
    assert len(records) == E2E_TOTAL
    _report(8, e2e_artifacts["elapsed"], 300,
            f"gen {E2E_TOTAL} -> train -> {E2E_SAMPLES} samples -> "
            f"report {payload['counts']}")


def test_c9_reruns_are_byte_identical(cube_corpus, maze_sample, e2e_artifacts, tmp_path):
    started = time.monotonic()
    _, cube_text = cube_corpus
    again = corpus.corpus_text(corpus.build_cube_corpus(CUBE_CORPUS_SEED, CUBE_CORPUS_TOTAL, 5))
    assert again == cube_text

    _, maze_text = maze_sample
    sizes = [(4, 4), (5, 5), (6, 6)]
    regen = "\n\n".join(
        render_maze(m, solve_maze(m))
        for m in (generate_maze(seed, *sizes[seed % 3]) for seed in MAZE_SAMPLE_SEEDS)
    )
    assert regen == maze_text

    corpus_path, samples_path, report_path = _run_e2e_pipeline(tmp_path)
    assert corpus_path.read_text(encoding="utf-8") == e2e_artifacts["corpus"]
    assert samples_path.read_text(encoding="utf-8") == e2e_artifacts["samples"]
    assert report_path.read_text(encoding="utf-8") == e2e_artifacts["report"]
    print(f"PASS criterion 9: criteria 3, 6, 8 reruns byte-identical "
          f"({time.monotonic() - started:.1f}s)")
