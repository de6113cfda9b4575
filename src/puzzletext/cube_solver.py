"""Optimal cube solving by iterative deepening over the 18 face turns.

A solution table maps every state within TABLE_DEPTH turns of solved to its
first optimal formula: at each step, the first move in ALL_MOVES order that
brings the cube one turn closer. One breadth-first search builds it, once
per process. The search only walks down to the table boundary: a state in
the table is finished by its stored formula, and a state absent from it is
at least TABLE_DEPTH + 1 away.

The same build turns the table's outer ring once more and marks the hash of
every state one turn past it in a bitset, so each state at depth
TABLE_DEPTH + 1 sets its bit. A state absent from the table whose bit is
clear is therefore at least TABLE_DEPTH + 2 away, a bound that prunes one
level earlier (Korf's pattern-database argument). Both bounds are
admissible: they cut only subtrees that hold no solution within the
threshold, so the depth-first order still returns the same first formula
and raises DepthExceeded at the same caps.

The table, the bitset and the search hold states as their 54 ASCII bytes
and turn them with cube.MOVE_INDEX. CPython hashes an ASCII string and its
bytes alike, so the bitset marks the same buckets as it would for the
strings. Those hashes differ between processes, which changes only which
far states share a bit with a near one and get expanded, never the result.
"""
from __future__ import annotations

from functools import lru_cache

from .cube import (
    ALL_MOVES,
    MOVE_INDEX,
    SOLVED_FACELETS,
    STATE_PAD,
    _INVERSE,
    Formula,
    encode_state,
)

TABLE_DEPTH = 3
_HASH_MASK = (1 << 20) - 1  # one bit per hash bucket: a 128 KB bitset

# Each move with its face, so the search compares a precomputed letter.
_MOVES_WITH_INDEX = tuple((move, move[0], MOVE_INDEX[move]) for move in ALL_MOVES)


class DepthExceeded(RuntimeError):
    """No solution within the requested depth cap."""

    def __init__(self, max_depth: int):
        super().__init__(f"no solution within {max_depth} moves")
        self.max_depth = max_depth


@lru_cache(maxsize=1)
def _solution_table() -> tuple[dict[bytes, Formula], bytearray]:
    """The solution table, and the bitset marking every state one turn
    beyond it."""
    solved = SOLVED_FACELETS.encode("ascii")
    table = {solved: ()}
    frontier = [solved]
    for _ in range(TABLE_DEPTH):
        level = {}
        # Turning a parent by the inverse of `move` reaches a child that
        # `move` takes back to the parent. Trying the moves in ALL_MOVES
        # order and keeping the first parent found gives each child the
        # first move that brings it one turn closer.
        padded = [parent + STATE_PAD for parent in frontier]
        for move in ALL_MOVES:
            index = MOVE_INDEX[_INVERSE[move]]
            for parent, padded_parent in zip(frontier, padded):
                child = index.translate(padded_parent)
                if child not in table and child not in level:
                    level[child] = (move,) + table[parent]
        table.update(level)
        frontier = list(level)
    beyond = bytearray((_HASH_MASK + 1) // 8)
    for parent in frontier:
        # Turns of the face that brings the parent closer stay in the table.
        closer_face = table[parent][0][0]
        padded = parent + STATE_PAD
        for _, face, index in _MOVES_WITH_INDEX:
            if face == closer_face:
                continue
            child = index.translate(padded)
            if child not in table:
                bucket = hash(child) & _HASH_MASK
                beyond[bucket >> 3] |= 1 << (bucket & 7)
    return table, beyond


def _search(facelets: bytes, g: int, threshold: int, last_face, table, beyond) -> list | None:
    formula = table.get(facelets)
    if formula is not None:
        # Optimal formula known: either finish here or prune, never recurse.
        if g + len(formula) <= threshold:
            return list(formula)
        return None
    if g + TABLE_DEPTH + 1 > threshold:
        return None
    if g + TABLE_DEPTH + 1 == threshold:
        # Only a state one turn beyond the table can finish in time.
        bucket = hash(facelets) & _HASH_MASK
        if not beyond[bucket >> 3] & (1 << (bucket & 7)):
            return None
    padded = facelets + STATE_PAD
    for move, face, index in _MOVES_WITH_INDEX:
        if face == last_face:
            continue
        child = index.translate(padded)
        found = _search(child, g + 1, threshold, face, table, beyond)
        if found is not None:
            found.insert(0, move)
            return found
    return None


def solve(cube: str, max_depth: int = 6) -> Formula:
    """Return a minimal-length solving formula, or raise DepthExceeded.

    Iterates the threshold upward from zero, so the first formula found has
    exactly the state's true distance.
    """
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    state = encode_state(cube)
    table, beyond = _solution_table()
    for threshold in range(max_depth + 1):
        found = _search(state, 0, threshold, None, table, beyond)
        if found is not None:
            return tuple(found)
    raise DepthExceeded(max_depth)
