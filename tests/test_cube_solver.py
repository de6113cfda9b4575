"""Solver tests against a brute-force breadth-first oracle.

The oracle enumerates move sequences outward from solved (skipping
consecutive same-face moves) and records the first depth each state is
reached at, independently of the solver's own machinery.
"""
import hashlib

import pytest

from puzzletext.corpus import build_cube_corpus, corpus_text
from puzzletext.cube import (
    ALL_MOVES,
    SOLVED_FACELETS,
    apply_formula,
    apply_move,
    format_formula,
    is_solved,
    random_scramble,
)
from puzzletext.cube_solver import (
    DepthExceeded,
    solve,
)

SOLVED = SOLVED_FACELETS


def bfs_distances(max_depth):
    """Brute-force exact distances for every state within max_depth."""
    distances = {SOLVED: 0}
    frontier = [(SOLVED, None)]
    for depth in range(1, max_depth + 1):
        next_frontier = []
        for state, last_face in frontier:
            for move in ALL_MOVES:
                if move.face == last_face:
                    continue
                child = apply_move(state, move)
                if child not in distances:
                    distances[child] = depth
                    next_frontier.append((child, move.face))
        frontier = next_frontier
    return distances


@pytest.fixture(scope="module")
def oracle_depth2():
    return bfs_distances(2)


def test_oracle_state_counts(oracle_depth2):
    # known group fact: 1 + 18 + 243 states within two face turns
    assert len(oracle_depth2) == 262


def test_solve_solved_is_empty():
    assert solve(SOLVED) == ()


def test_solve_single_move_inverse():
    state = apply_formula(SOLVED, (ALL_MOVES[3],))  # R
    solution = solve(state)
    assert format_formula(solution) == "R'"


def test_solve_optimal_within_depth_two(oracle_depth2):
    for facelets, distance in oracle_depth2.items():
        solution = solve(facelets, 4)
        assert len(solution) == distance
        assert is_solved(apply_formula(facelets, solution))


def test_solve_sound_on_1000_random_scrambles():
    for seed in range(1000):
        length = seed % 5 + 1
        state = apply_formula(SOLVED, random_scramble(seed, length))
        solution = solve(state, 6)
        assert len(solution) <= length
        assert is_solved(apply_formula(state, solution))


def test_solve_never_repeats_a_face_consecutively():
    for seed in range(100):
        state = apply_formula(SOLVED, random_scramble(seed, 5))
        solution = solve(state, 6)
        for a, b in zip(solution, solution[1:]):
            assert a.face != b.face


def test_depth_exceeded():
    state = apply_formula(SOLVED, random_scramble(8, 2))
    with pytest.raises(DepthExceeded):
        solve(state, 1)
    deep = apply_formula(SOLVED, random_scramble(4, 5))
    with pytest.raises(DepthExceeded):
        solve(deep, 3)


# sha256 of the bytes below, recorded before the search was simplified.
PINNED_SOLVER_SHA256 = "3cd954a9d11fff9a79071b39ffe57f300c23a2c9f29877bad55b84bc2782dc49"


def test_solver_bytes_are_pinned():
    """Corpus labels come from solve, so which of several optimal formulas
    it returns (set by the move order) is part of the byte contract, as is
    where DepthExceeded is raised."""
    digest = hashlib.sha256()
    for seed, max_scramble, total in ((11, 5, 40), (29, 6, 24)):
        digest.update(corpus_text(build_cube_corpus(seed, total, max_scramble)).encode("utf-8"))
    for seed in range(60):
        state = apply_formula(SOLVED, random_scramble(seed, seed % 6 + 1, max_length=6))
        for max_depth in (0, 2, 4, 6):
            try:
                text = format_formula(solve(state, max_depth))
            except DepthExceeded as exc:
                text = f"DepthExceeded {exc.max_depth}"
            digest.update((text + "\n").encode("utf-8"))
    assert digest.hexdigest() == PINNED_SOLVER_SHA256
