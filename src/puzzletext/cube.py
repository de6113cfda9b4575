"""Rubik's cube state, move grammar, scrambling, and text codecs.

A cube state is a string of 54 face letters listing the stickers of each
face in the fixed order U, R, F, D, B, L, each face row-major as seen from
outside the cube. Sticker letters are the face letters themselves, so the
solved cube reads as nine U's, nine R's, and so on.

Moves use the common face-turn grammar: a bare letter ("R") is a clockwise
quarter turn, a letter with an ASCII apostrophe ("R'") the counterclockwise
quarter turn, and a letter with a 2 ("F2") a half turn. A move is its token
and a formula a tuple of tokens. In text, tokens are separated by one or
more ASCII spaces (U+0020); tabs, newlines and other Unicode whitespace are
not separators.
"""
from __future__ import annotations

from ._util import seeded_random
from .cube_tables import CLOCKWISE_PERMS

FACES = "URFDBL"
SOLVED_FACELETS = "".join(face * 9 for face in FACES)

# Center stickers never move; one per face at offset 4.
CENTER_INDICES = tuple(i * 9 + 4 for i in range(6))


class FormulaSyntaxError(ValueError):
    """A move token that does not match the formula grammar."""

    def __init__(self, position: int, token: str):
        super().__init__(f"bad move token {token!r} at position {position}")
        self.position = position  # 1-based token number
        self.token = token


class FaceletStringError(ValueError):
    """Base class for malformed 54-character cube strings."""


class FaceletLengthError(FaceletStringError):
    def __init__(self, length: int):
        super().__init__(f"cube string must have 54 characters, got {length}")
        self.length = length


class FaceletAlphabetError(FaceletStringError):
    def __init__(self, position: int, char: str):
        super().__init__(f"character {char!r} at index {position} is not one of {FACES}")
        self.position = position
        self.char = char


class FaceletCountError(FaceletStringError):
    def __init__(self, symbol: str, count: int):
        super().__init__(f"symbol {symbol!r} appears {count} times, expected 9")
        self.symbol = symbol
        self.count = count


class FaceletCenterError(FaceletStringError):
    def __init__(self, face: str, found: str):
        super().__init__(f"center of face {face} must be {face!r}, found {found!r}")
        self.face = face
        self.found = found


class ScrambleLengthError(ValueError):
    pass


# A formula is an ordered, possibly empty, tuple of move tokens.
Formula = tuple[str, ...]

_SUFFIXES = ("", "2", "'")  # quarter turn clockwise, half turn, counterclockwise
ALL_MOVES: Formula = tuple(face + s for face in FACES for s in _SUFFIXES)

# Each token to the token that undoes it: R to R', R2 to R2, R' to R.
_INVERSE = {face + s: face + t for face in FACES for s, t in zip(_SUFFIXES, _SUFFIXES[::-1])}

# The moves a scramble may take after a move on each face, in ALL_MOVES order.
_CANDIDATES_AFTER = {
    face: tuple(move for move in ALL_MOVES if move[0] != face) for face in FACES
}


def _compose(p, q):
    # apply p then q: new[i] = old[p[q[i]]]
    return tuple(p[j] for j in q)


def _build_move_perms():
    perms = {}
    for face, cw in CLOCKWISE_PERMS.items():
        half = _compose(cw, cw)
        perms[face] = cw
        perms[face + "2"] = half
        perms[face + "'"] = _compose(half, cw)
    return perms


MOVE_PERMS = _build_move_perms()
# The same permutations as 54 index bytes. A state's 54 ASCII sticker bytes,
# padded with STATE_PAD to 256, form a translation table, so
# MOVE_INDEX[move].translate(state + STATE_PAD) gathers state[perm[i]] for
# every i in one C call.
MOVE_INDEX = {move: bytes(perm) for move, perm in MOVE_PERMS.items()}
STATE_PAD = bytes(256 - 54)


def parse_formula(text: str) -> Formula:
    """Parse move tokens separated by runs of ASCII spaces; any other
    character, including tabs, newlines and Unicode spaces, raises
    FormulaSyntaxError."""
    tokens = tuple(filter(None, text.split(" ")))
    for position, token in enumerate(tokens, 1):
        if token not in MOVE_INDEX:
            raise FormulaSyntaxError(position, token)
    return tokens


def format_formula(formula: Formula) -> str:
    return " ".join(formula)


def inverse_formula(formula: Formula) -> Formula:
    if isinstance(formula, str):  # a str is 1-character tokens: "RU" would be R, U
        raise TypeError("a formula is a tuple of move tokens, not a str")
    return tuple(map(_INVERSE.__getitem__, reversed(formula)))


def encode_state(cube: str) -> bytes:
    """The 54 ASCII bytes of a cube string. Raises FaceletLengthError or
    FaceletAlphabetError; the letters themselves are not checked, so any
    54 ASCII characters turn like stickers."""
    if len(cube) != 54:
        raise FaceletLengthError(len(cube))
    try:
        return cube.encode("ascii")
    except UnicodeEncodeError as exc:
        raise FaceletAlphabetError(exc.start, cube[exc.start]) from None


def apply_move(cube: str, move: str) -> str:
    return apply_formula(cube, (move,))


def apply_formula(cube: str, formula: Formula) -> str:
    if isinstance(formula, str):  # a str is 1-character tokens: "RU" would be R, U
        raise TypeError("a formula is a tuple of move tokens, not a str")
    state = encode_state(cube)
    for move in formula:
        state = MOVE_INDEX[move].translate(state + STATE_PAD)
    return state.decode("ascii")


def decode_facelets(text: str) -> str:
    """Validate a 54-character cube string and return it.

    Checks, in order: length, alphabet, nine-of-each symbol counts, and the
    fixed center stickers. Raises a FaceletStringError subclass on the first
    failure, which callers use to flag malformed states.
    """
    if len(text) != 54:
        raise FaceletLengthError(len(text))
    if text.strip(FACES):  # some character is not a face letter
        for position, char in enumerate(text):
            if char not in FACES:
                raise FaceletAlphabetError(position, char)
    for symbol in FACES:
        count = text.count(symbol)
        if count != 9:
            raise FaceletCountError(symbol, count)
    for face, index in zip(FACES, CENTER_INDICES):
        if text[index] != face:
            raise FaceletCenterError(face, text[index])
    return text


def is_solved(cube: str) -> bool:
    return cube == SOLVED_FACELETS


def random_scramble(rng_seed: int, length: int) -> Formula:
    """Seeded scramble of exactly `length` moves, uniform over the 18-move
    set, with no two consecutive moves on the same face."""
    if length < 1:
        raise ScrambleLengthError(f"length must be at least 1, got {length}")
    rng = seeded_random(rng_seed)
    move = rng.choice(ALL_MOVES)
    moves = [move]
    for _ in range(length - 1):
        move = rng.choice(_CANDIDATES_AFTER[move[0]])
        moves.append(move)
    return tuple(moves)


def render_cube_net(cube: str) -> str:
    """Nine-line ASCII net: U on top, the L F R B band in the middle, D below."""
    def rows(face: str):
        base = FACES.index(face) * 9
        return [cube[base + 3 * r: base + 3 * r + 3] for r in range(3)]

    up, right, front, down, back, left = (rows(f) for f in FACES)
    pad = " " * 4
    lines = [pad + row for row in up]
    lines += [" ".join(band) for band in zip(left, front, right, back)]
    lines += [pad + row for row in down]
    return "\n".join(lines)
