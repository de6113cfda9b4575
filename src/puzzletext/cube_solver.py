"""Optimal cube solving by iterative deepening over the 18 face turns.

An exact-distance table holds every state within TABLE_DEPTH turns of
solved, computed once per process by breadth-first search. The search
only walks down to the table boundary: a state in the table is finished
by a greedy walk through it, and a state absent from it is at least
TABLE_DEPTH + 1 away, which is the bound that prunes everything else.
"""
from __future__ import annotations

from functools import lru_cache

from .cube import (
    ALL_MOVES,
    MOVE_PERMS,
    SOLVED_FACELETS,
    FaceletCube,
    Formula,
)

TABLE_DEPTH = 3

_MOVES_WITH_PERMS = tuple((move, MOVE_PERMS[(move.face, move.turn)]) for move in ALL_MOVES)


class DepthExceeded(RuntimeError):
    """No solution within the requested depth cap."""

    def __init__(self, max_depth: int):
        super().__init__(f"no solution within {max_depth} moves")
        self.max_depth = max_depth


@lru_cache(maxsize=1)
def _distance_table() -> dict[str, int]:
    table = {SOLVED_FACELETS: 0}
    frontier = [SOLVED_FACELETS]
    for depth in range(1, TABLE_DEPTH + 1):
        next_frontier = []
        for state in frontier:
            for _, perm in _MOVES_WITH_PERMS:
                child = "".join(map(state.__getitem__, perm))
                if child not in table:
                    table[child] = depth
                    next_frontier.append(child)
        frontier = next_frontier
    return table


def _walk_to_solved(facelets: str, distance: int, table: dict[str, int]) -> list:
    """Greedy descent through the exact-distance table."""
    moves = []
    while distance:
        for move, perm in _MOVES_WITH_PERMS:
            child = "".join(map(facelets.__getitem__, perm))
            if table.get(child, TABLE_DEPTH + 1) == distance - 1:
                moves.append(move)
                facelets = child
                distance -= 1
                break
        else:  # table is closed under one BFS step, so this cannot happen
            raise AssertionError("distance table walk failed")
    return moves


def _search(facelets: str, g: int, threshold: int, last_face, table) -> list | None:
    distance = table.get(facelets)
    if distance is not None:
        # Exact distance known: either finish here or prune, never recurse.
        if g + distance <= threshold:
            return _walk_to_solved(facelets, distance, table)
        return None
    if g + TABLE_DEPTH + 1 > threshold:
        return None
    for move, perm in _MOVES_WITH_PERMS:
        if move.face == last_face:
            continue
        child = "".join(map(facelets.__getitem__, perm))
        found = _search(child, g + 1, threshold, move.face, table)
        if found is not None:
            found.insert(0, move)
            return found
    return None


def solve(cube: FaceletCube, max_depth: int = 6) -> Formula:
    """Return a minimal-length solving formula, or raise DepthExceeded.

    Iterates the threshold upward from zero, so the first formula found has
    exactly the state's true distance.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    table = _distance_table()
    for threshold in range(max_depth + 1):
        found = _search(cube.facelets, 0, threshold, None, table)
        if found is not None:
            return tuple(found)
    raise DepthExceeded(max_depth)
