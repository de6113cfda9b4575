"""Cube state, move grammar, and codec tests.

The frozen permutation tables are checked against the geometric cubie
model in tools/derive_cube_tables.py, which is the authority they were
generated from; everything else builds on top of that.
"""
import random

import pytest

from puzzletext.cube import (
    ALL_MOVES,
    CENTER_INDICES,
    FACES,
    MOVE_INDEX,
    MOVE_PERMS,
    SOLVED_FACELETS,
    FaceletAlphabetError,
    FaceletCenterError,
    FaceletCountError,
    FaceletLengthError,
    FormulaSyntaxError,
    ScrambleLengthError,
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
from puzzletext.cube_solver import DepthExceeded, solve
from puzzletext.cube_tables import CLOCKWISE_PERMS

SOLVED = SOLVED_FACELETS


def random_state(seed, length=14):
    return apply_formula(SOLVED, random_scramble(seed, length))


# --- permutation tables vs the geometric oracle ---


def test_frozen_tables_match_cubie_model(table_deriver):
    assert CLOCKWISE_PERMS == table_deriver.clockwise_permutations()


def test_tables_are_order_four_permutations():
    for face, perm in CLOCKWISE_PERMS.items():
        assert sorted(perm) == list(range(54))
        assert sum(1 for i, p in enumerate(perm) if i != p) == 20
        state = list(range(54))
        for _ in range(4):
            state = [state[i] for i in perm]
        assert state == list(range(54)), face


def test_centers_fixed_in_all_18_move_perms():
    for perm in MOVE_PERMS.values():
        for center in CENTER_INDICES:
            assert perm[center] == center


# --- formula grammar ---


def test_parse_formula_tokens():
    formula = parse_formula("R U' F2")
    assert formula == ("R", "U'", "F2")


def test_parse_empty_formula():
    assert parse_formula("") == ()
    assert parse_formula("   ") == ()


def test_parse_rejects_unknown_face():
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("R X")
    assert exc.value.position == 2
    assert exc.value.token == "X"


def test_parse_space_runs_keep_token_positions():
    assert parse_formula("  R   U'  ") == parse_formula("R U'")
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula("R    U  X")
    assert exc.value.position == 3


@pytest.mark.parametrize(
    "text, position, token",
    [
        ("R\tU", 1, "R\tU"),
        ("R U\nF", 2, "U\nF"),
        ("R U\r", 2, "U\r"),
        ("R\u3000U F", 1, "R\u3000U"),
        ("R \u00a0U", 2, "\u00a0U"),
        ("\tR", 1, "\tR"),
    ],
)
def test_parse_separator_is_ascii_space_only(text, position, token):
    with pytest.raises(FormulaSyntaxError) as exc:
        parse_formula(text)
    assert (exc.value.position, exc.value.token) == (position, token)


@pytest.mark.parametrize("bad", ["R''", "R3", "r", "2R", "R" + "’", "RU"])
def test_parse_rejects_malformed_tokens(bad):
    with pytest.raises(FormulaSyntaxError):
        parse_formula(bad)


def test_format_formula():
    assert format_formula(("R", "U'")) == "R U'"
    assert format_formula(()) == ""
    assert format_formula(("F2",)) == "F2"


def test_parse_format_round_trip_random():
    rng = random.Random(11)
    for _ in range(200):
        formula = tuple(rng.choice(ALL_MOVES) for _ in range(rng.randrange(12)))
        assert parse_formula(format_formula(formula)) == formula


def test_inverse_formula():
    assert format_formula(inverse_formula(parse_formula("R U'"))) == "U R'"
    assert format_formula(inverse_formula(parse_formula("F2"))) == "F2"
    assert inverse_formula(()) == ()


def test_all_moves_order_is_pinned():
    # The solver labels each state with its first optimal formula in this order.
    assert ALL_MOVES == (
        "U", "U2", "U'", "R", "R2", "R'", "F", "F2", "F'",
        "D", "D2", "D'", "B", "B2", "B'", "L", "L2", "L'",
    )
    assert set(MOVE_INDEX) == set(MOVE_PERMS) == set(ALL_MOVES)


@pytest.mark.parametrize("call", [
    lambda: apply_formula(SOLVED, "RU"),
    lambda: apply_formula(SOLVED, "R"),
    lambda: inverse_formula("RU"),
], ids=["apply_formula", "apply_formula_one_token", "inverse_formula"])
def test_a_str_is_not_a_formula(call):
    # A str is a sequence of 1-character tokens: "RU" must not turn R then U.
    with pytest.raises(TypeError):
        call()


# --- move application ---


def test_move_then_inverse_is_identity():
    state = random_state(7)
    for move in ALL_MOVES:
        (inverse,) = inverse_formula((move,))
        assert inverse[0] == move[0]
        assert apply_move(apply_move(state, move), inverse) == state
        assert apply_move(apply_move(state, inverse), move) == state


def test_four_quarter_turns_identity():
    for face in FACES:
        state = SOLVED
        for _ in range(4):
            state = apply_move(state, face)
        assert state == SOLVED


def test_ccw_is_three_cw_and_half_is_two_cw():
    for face in FACES:
        three = apply_move(apply_move(apply_move(SOLVED, face), face), face)
        assert apply_move(SOLVED, face + "'") == three
        two = apply_move(apply_move(SOLVED, face), face)
        assert apply_move(SOLVED, face + "2") == two


def test_u_move_matches_oracle_permutation(table_deriver):
    perm = table_deriver.clockwise_permutations()["U"]
    expected = "".join(SOLVED_FACELETS[i] for i in perm)
    turned = apply_move(SOLVED, "U")
    assert turned == expected
    # the U block itself stays all-U; the four side faces swap top rows
    assert turned[:9] == "U" * 9
    for face in "RFBL":
        base = FACES.index(face) * 9
        assert turned[base: base + 3] != face * 3
        assert turned[base + 3: base + 9] == face * 6


def test_apply_formula_folds_left_to_right():
    assert apply_formula(SOLVED, ()) == SOLVED
    assert apply_formula(SOLVED, parse_formula("R R'")) == SOLVED
    one_by_one = SOLVED
    formula = parse_formula("R U' F2 L D")
    for move in formula:
        one_by_one = apply_move(one_by_one, move)
    assert apply_formula(SOLVED, formula) == one_by_one


def reference_move(state, move):
    """One turn as a per-sticker gather over MOVE_PERMS."""
    return "".join(state[i] for i in MOVE_PERMS[move])


def test_apply_move_gathers_by_its_permutation():
    distinct = "".join(chr(c) for c in range(ord("0"), ord("0") + 54))
    assert len(set(distinct)) == 54
    for move in ALL_MOVES:
        assert apply_move(distinct, move) == reference_move(distinct, move), move


def test_apply_formula_matches_folded_reference_on_any_letters():
    # The referee turns any prompt that decode_facelets accepts, so the
    # states here are random strings over FACES that no scramble reaches.
    rng = random.Random(22)
    for _ in range(300):
        state = "".join(rng.choice(FACES) for _ in range(54))
        formula = tuple(rng.choice(ALL_MOVES) for _ in range(rng.randrange(12)))
        expected = state
        for move in formula:
            expected = reference_move(expected, move)
        assert apply_formula(state, formula) == expected


@pytest.mark.parametrize("state, error, detail", [
    (SOLVED_FACELETS + "XXXXXX", FaceletLengthError, ("length", 60)),
    (SOLVED_FACELETS[:50], FaceletLengthError, ("length", 50)),
    (SOLVED_FACELETS[:7] + "\u00dc" + SOLVED_FACELETS[8:], FaceletAlphabetError, ("position", 7)),
], ids=["60_chars", "50_chars", "non_ascii"])
def test_turns_and_solve_reject_a_state_that_is_no_54_ascii_string(state, error, detail):
    name, value = detail
    calls = (
        lambda: apply_move(state, ALL_MOVES[0]),
        lambda: apply_formula(state, ()),
        lambda: apply_formula(state, parse_formula("R U")),
        lambda: solve(state, 5),
    )
    for call in calls:
        with pytest.raises(error) as excinfo:
            call()
        assert getattr(excinfo.value, name) == value


def test_solve_on_54_ascii_letters_that_are_no_cube_exceeds_depth():
    with pytest.raises(DepthExceeded):
        solve("X" * 54, 5)


def test_scramble_then_inverse_returns_start():
    for seed in range(25):
        scramble = random_scramble(seed, 5)
        state = apply_formula(SOLVED, scramble)
        assert apply_formula(state, inverse_formula(scramble)) == SOLVED


def test_moves_conserve_counts_and_centers():
    rng = random.Random(3)
    for _ in range(300):
        state = random_state(rng.getrandbits(32))
        for move in ALL_MOVES:
            turned = apply_move(state, move)
            for face in FACES:
                assert turned.count(face) == 9
            for face, index in zip(FACES, CENTER_INDICES):
                assert turned[index] == face


# --- facelet codec ---


def test_encode_solved_is_nine_of_each():
    assert SOLVED == "U" * 9 + "R" * 9 + "F" * 9 + "D" * 9 + "B" * 9 + "L" * 9


def test_decode_round_trip():
    for seed in range(20):
        state = random_state(seed)
        assert decode_facelets(state) == state


def test_decode_length_error():
    with pytest.raises(FaceletLengthError):
        decode_facelets(SOLVED_FACELETS[:-1])


def test_decode_alphabet_error_position():
    bad = SOLVED_FACELETS[:10] + "X" + SOLVED_FACELETS[11:]
    with pytest.raises(FaceletAlphabetError) as exc:
        decode_facelets(bad)
    assert exc.value.position == 10


def test_decode_count_error():
    bad = "R" + SOLVED_FACELETS[1:]  # U appears 8 times, R ten
    with pytest.raises(FaceletCountError) as exc:
        decode_facelets(bad)
    assert exc.value.symbol == "U"


def test_decode_center_error():
    swapped = list(SOLVED_FACELETS)
    swapped[4], swapped[13] = swapped[13], swapped[4]
    with pytest.raises(FaceletCenterError):
        decode_facelets("".join(swapped))


# --- solved detection ---


def test_is_solved():
    assert is_solved(SOLVED)
    assert not is_solved(apply_move(SOLVED, "R"))


def test_no_short_scramble_reaches_identity():
    # exhaustive to depth 3 under same-face canonicalization
    frontier = [(SOLVED, None)]
    for _ in range(3):
        next_frontier = []
        for state, last_face in frontier:
            for move in ALL_MOVES:
                if move[0] == last_face:
                    continue
                child = apply_move(state, move)
                assert not is_solved(child)
                next_frontier.append((child, move[0]))
        frontier = next_frontier
    # sampled at depths 4 and 5
    for seed in range(100):
        for length in (4, 5):
            assert not is_solved(apply_formula(SOLVED, random_scramble(seed, length)))


# --- scrambles ---


def test_scramble_length_one_is_a_single_move():
    for seed in range(40):
        (move,) = random_scramble(seed, 1)
        assert move in ALL_MOVES


def test_scramble_deterministic_per_seed():
    assert random_scramble(99, 5) == random_scramble(99, 5)


def test_scramble_never_repeats_a_face():
    for seed in range(10000):
        a, b = random_scramble(seed, 2)
        assert a[0] != b[0]


def test_scramble_length_bounds():
    with pytest.raises(ScrambleLengthError):
        random_scramble(1, 0)
    assert len(random_scramble(1, 6)) == 6


# --- rendering ---


def test_render_solved_net():
    expected = "\n".join(
        ["    UUU"] * 3 + ["LLL FFF RRR BBB"] * 3 + ["    DDD"] * 3
    )
    assert render_cube_net(SOLVED) == expected


def test_render_has_nine_lines():
    assert len(render_cube_net(random_state(5)).split("\n")) == 9


def test_render_injective_on_sampled_states():
    states = {random_state(seed) for seed in range(1000)}
    renders = {render_cube_net(s) for s in states}
    assert len(renders) == len(states)
