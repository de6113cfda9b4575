"""Solver tests against a brute-force breadth-first oracle.

The oracle enumerates move sequences outward from solved (skipping
consecutive same-face moves) and records the first depth each state is
reached at, independently of the solver's own machinery. A reference
IDA* built on it, pruning with the plain table bound only, checks that the
solver's sharper bound changes no label.
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
                if move[0] == last_face:
                    continue
                child = apply_move(state, move)
                if child not in distances:
                    distances[child] = depth
                    next_frontier.append((child, move[0]))
        frontier = next_frontier
    return distances


def reference_labels(distances):
    """First optimal formula for every state in `distances`: at each step,
    the first move in ALL_MOVES order whose child is one turn closer."""
    labels = {SOLVED: ()}
    for state, distance in sorted(distances.items(), key=lambda item: item[1]):
        if distance == 0:
            continue
        for move in ALL_MOVES:
            child = apply_move(state, move)
            if distances.get(child) == distance - 1:
                labels[state] = (move,) + labels[child]
                break
        else:
            pytest.fail(f"no move brings {state} to distance {distance - 1}")
    return labels


def reference_solve(state, max_depth, table):
    """IDA* that only knows a state outside `table` is at least one turn
    beyond the table's depth, returning a formula or the DepthExceeded cap."""
    bound = max(len(formula) for formula in table.values()) + 1

    def search(state, g, threshold, last_face):
        formula = table.get(state)
        if formula is not None:
            return list(formula) if g + len(formula) <= threshold else None
        if g + bound > threshold:
            return None
        for move in ALL_MOVES:
            if move[0] != last_face:
                found = search(apply_move(state, move), g + 1, threshold, move[0])
                if found is not None:
                    return [move] + found
        return None

    for threshold in range(max_depth + 1):
        found = search(state, 0, threshold, None)
        if found is not None:
            return tuple(found)
    return f"DepthExceeded {max_depth}"


@pytest.fixture(scope="module")
def oracle_depth2():
    return bfs_distances(2)


@pytest.fixture(scope="module")
def oracle_depth4():
    distances = bfs_distances(4)
    return distances, reference_labels(distances)


def test_oracle_state_counts(oracle_depth2):
    # known group fact: 1 + 18 + 243 states within two face turns
    assert len(oracle_depth2) == 262


def test_solve_solved_is_empty():
    assert solve(SOLVED) == ()
    with pytest.raises(ValueError, match="max_depth must be >= 0"):
        solve(SOLVED, -1)


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
            assert a[0] != b[0]


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
        state = apply_formula(SOLVED, random_scramble(seed, seed % 6 + 1))
        for max_depth in (0, 2, 4, 6):
            try:
                text = format_formula(solve(state, max_depth))
            except DepthExceeded as exc:
                text = f"DepthExceeded {exc.max_depth}"
            digest.update((text + "\n").encode("utf-8"))
    assert digest.hexdigest() == PINNED_SOLVER_SHA256


def test_solve_labels_every_state_within_four_moves(oracle_depth4):
    """Every depth-4 state must set its bit in the solver's bitset: a
    missing one would be pruned at threshold 4 and get a longer label or
    DepthExceeded."""
    distances, labels = oracle_depth4
    assert len(distances) == 46741  # 1 + 18 + 243 + 3240 + 43239
    for state, label in labels.items():
        assert solve(state, 4) == label


def test_solve_matches_reference_ida_star(oracle_depth4):
    distances, labels = oracle_depth4
    table = {state: labels[state] for state, distance in distances.items() if distance <= 3}
    for seed in range(500):
        state = apply_formula(SOLVED, random_scramble(seed, seed % 7 + 1))
        for max_depth in range(7):
            try:
                got = solve(state, max_depth)
            except DepthExceeded as exc:
                got = f"DepthExceeded {exc.max_depth}"
            assert got == reference_solve(state, max_depth, table), (seed, max_depth)
