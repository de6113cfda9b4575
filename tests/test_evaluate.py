import hashlib
import json
import random
import re
from decimal import ROUND_HALF_UP, Decimal

import pytest

from conftest import SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION
from puzzletext import corpus
from puzzletext.cube import (
    SOLVED_FACELETS,
    apply_formula,
    apply_move,
    format_formula,
    inverse_formula,
    is_solved,
    parse_formula,
    random_scramble,
)
from puzzletext.evaluate import (
    BadPromptError,
    EmptyInputError,
    LineCountMismatchError,
    SampleVerdict,
    _percentage,
    aggregate,
    classify_cube,
    classify_maze,
    classify_sudoku,
    cube_progress,
    format_report,
    ingest_external_outputs,
)
from puzzletext.maze import EAST, MAX_MAZE_SIDE, NORTH, SOUTH, WEST, generate_maze, render_maze, solve_maze
from puzzletext.maze import _body_line, _grid, _wall_line
from test_maze import mutated_renders

SOLVED = SOLVED_FACELETS


def make_verdicts(invalid, incorrect, correct):
    verdicts = []
    for status, count in (("invalid", invalid), ("incorrect", incorrect), ("correct", correct)):
        for _ in range(count):
            progress = None if status == "invalid" else (0, 0)
            verdicts.append(SampleVerdict("cube", status, None, progress))
    return verdicts


# --- cube progress ---


def test_progress_solved_cube():
    assert cube_progress(SOLVED) == (6, 36)


def test_progress_after_one_u_turn():
    # U and D faces stay whole; each side face keeps its two lower rows
    # and loses all three columns: 6 + 6 + 4 * 2 = 20 uniform lines
    turned = apply_move(SOLVED, "U")
    assert cube_progress(turned) == (2, 20)


def test_six_solved_faces_iff_solved():
    for seed in range(50):
        state = apply_formula(SOLVED, random_scramble(seed, seed % 5 + 1))
        faces, _ = cube_progress(state)
        assert (faces == 6) == is_solved(state)


# --- cube classification ---


def test_classify_cube_correct():
    state = apply_move(SOLVED, "R")
    verdict = classify_cube(state, "R'")
    assert verdict.status == "correct"
    assert verdict.progress == (6, 36)


def test_classify_cube_invalid_syntax():
    state = apply_formula(SOLVED, random_scramble(3, 3))
    verdict = classify_cube(state, "R X R")
    assert verdict.status == "invalid"
    assert verdict.reason.startswith("syntax_error")
    assert verdict.progress is None


def test_classify_cube_non_ascii_space_is_invalid():
    # R' solves the state, so only the separator makes these invalid.
    state = apply_move(SOLVED, "R")
    for separator in ("\t", "\u3000"):
        verdict = classify_cube(state, f"R'{separator}U U'")
        assert verdict.status == "invalid"
        assert verdict.reason == "syntax_error:1"


def test_classify_cube_empty_formula_is_incorrect():
    state = apply_formula(SOLVED, random_scramble(4, 3))
    verdict = classify_cube(state, "")
    assert verdict.status == "incorrect"
    assert verdict.progress == cube_progress(state)


def test_classify_cube_too_long():
    state = apply_formula(SOLVED, random_scramble(5, 3))
    verdict = classify_cube(state, "R U " * 300)
    assert verdict.status == "invalid"
    assert verdict.reason == "too_long"


def test_classify_cube_bad_prompt():
    with pytest.raises(BadPromptError):
        classify_cube("U" * 54, "R")


# --- sudoku classification ---


def test_classify_sudoku_published_pair_correct():
    verdict = classify_sudoku(SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION)
    assert verdict.status == "correct"
    assert verdict.progress == (81, 0)


def test_classify_sudoku_wrong_length_invalid():
    verdict = classify_sudoku(SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION[:-1])
    assert verdict.status == "invalid"
    assert verdict.reason == "bad_grid"


def test_classify_sudoku_echoing_the_puzzle_is_incorrect():
    verdict = classify_sudoku(SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_PUZZLE)
    assert verdict.status == "incorrect"
    filled, violations = verdict.progress
    assert filled == 35
    assert violations == 0


def test_classify_sudoku_clue_change_is_invalid():
    # a fully valid solved grid that disagrees with the sample's clues
    other = (
        "123456789456789123789123456214365897365897214897214365531642978642978531978531642"
    )
    assert classify_sudoku(SAMPLE_SUDOKU_PUZZLE, other).status == "invalid"
    assert classify_sudoku(SAMPLE_SUDOKU_PUZZLE, other).reason == "clue_changed"


def test_classify_sudoku_non_ascii_digit_is_invalid():
    response = SAMPLE_SUDOKU_SOLUTION.replace("8", "\u0668")  # ARABIC-INDIC EIGHT
    verdict = classify_sudoku(SAMPLE_SUDOKU_PUZZLE, response)
    assert verdict.status == "invalid"
    assert verdict.reason == "bad_grid"


def test_classify_sudoku_bad_prompt():
    with pytest.raises(BadPromptError):
        classify_sudoku("55" + "0" * 79, SAMPLE_SUDOKU_SOLUTION)
    with pytest.raises(BadPromptError):
        classify_sudoku("not a grid", SAMPLE_SUDOKU_SOLUTION)


# --- maze classification ---


def maze_record_text(seed=23, width=4, height=4):
    (record,) = corpus.build_maze_corpus(seed, 1, [(width, height)])
    return corpus.serialize_record(record)


def test_classify_maze_corpus_record_correct():
    verdict = classify_maze(maze_record_text())
    assert verdict.status == "correct"
    assert verdict.progress == 1.0


def test_classify_maze_framing_garbage():
    verdict = classify_maze("complete nonsense")
    assert verdict.status == "invalid"
    assert verdict.reason == "framing"
    (cube,) = corpus.build_cube_corpus(1, 1, 1)  # well framed, but a single-line kind
    assert classify_maze(corpus.serialize_record(cube)) == classify_maze("complete nonsense")


def test_classify_maze_wall_mismatch():
    maze_a = generate_maze(1, 4, 4)
    maze_b = generate_maze(2, 4, 4)
    record = corpus.PuzzleRecord(
        "maze", render_maze(maze_a), render_maze(maze_b, solve_maze(maze_b))
    )
    verdict = classify_maze(corpus.serialize_record(record))
    assert verdict.status == "invalid"
    assert verdict.reason == "wall_mismatch"


def test_classify_maze_broken_half():
    maze = generate_maze(3, 4, 4)
    record = corpus.PuzzleRecord("maze", "+--", render_maze(maze, solve_maze(maze)))
    verdict = classify_maze(corpus.serialize_record(record))
    assert verdict.status == "invalid"
    assert verdict.reason == "prompt_maze"


def test_classify_maze_truncated_path_progress():
    maze = generate_maze(29, 4, 4)
    path = solve_maze(maze)
    shortest = len(path)
    solved_lines = render_maze(maze, path).split("\n")
    # blank the arrow written into the exit cell, dropping the final step
    last = 2 * (len(maze) - 1) + 1
    body = list(solved_lines[last])
    col = 4 * (len(maze[0]) - 1) + 1
    body[col: col + 3] = "   "
    solved_lines[last] = "".join(body).rstrip()
    record = corpus.PuzzleRecord("maze", render_maze(maze), "\n".join(solved_lines))
    verdict = classify_maze(corpus.serialize_record(record))
    assert verdict.status == "incorrect"
    assert verdict.progress == pytest.approx((shortest - 1) / shortest)


def test_classify_maze_missing_path_is_incorrect():
    maze = generate_maze(7, 4, 4)
    record = corpus.PuzzleRecord("maze", render_maze(maze), render_maze(maze))
    verdict = classify_maze(corpus.serialize_record(record))
    assert verdict.status == "incorrect"
    assert verdict.progress == 0.0


def test_classify_maze_keeps_no_neighbor_table_for_large_mazes():
    # open rooms, built without generate_maze, one side over MAX_MAZE_SIDE
    for width, height in ((40, 40), (MAX_MAZE_SIDE + 1, 2), (2, MAX_MAZE_SIDE + 1)):
        walls = tuple(
            bytes(
                (NORTH if y == 0 else 0) | (WEST if x == 0 else 0) | (EAST if x == width - 1 else 0)
                | (SOUTH if y == height - 1 and x < width - 1 else 0)
                for x in range(width)
            )
            for y in range(height)
        )
        text = render_maze(walls)
        record = corpus.serialize_record(corpus.PuzzleRecord("maze", text, text))
        before = [cache.cache_info() for cache in (_grid, _wall_line, _body_line)]
        verdict = classify_maze(record)
        assert verdict.status == "incorrect"
        assert [cache.cache_info() for cache in (_grid, _wall_line, _body_line)] == before


# --- aggregation ---


def reference_percentage(count, total):
    value = Decimal(100 * count) / Decimal(total)
    return float(value.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))


def test_percentage_matches_decimal_half_up():
    pairs = [(count, total) for total in range(1, 301) for count in range(total + 1)]
    rng = random.Random(7)
    for _ in range(2000):
        total = rng.randint(1, 10**9)
        pairs.append((rng.randint(0, total), total))
    for count, total in pairs:
        assert _percentage(count, total) == reference_percentage(count, total), (count, total)


def test_aggregate_rounds_reference_counts_to_one_decimal():
    report = aggregate(make_verdicts(11, 576, 14))
    assert report["total"] == 601
    assert report["percentages"] == {"invalid": 1.8, "incorrect": 95.8, "correct": 2.3}


def test_aggregate_single_correct():
    report = aggregate(make_verdicts(0, 0, 1))
    assert report["percentages"] == {"invalid": 0.0, "incorrect": 0.0, "correct": 100.0}


def test_aggregate_partition():
    report = aggregate(make_verdicts(3, 5, 2))
    assert sum(report["counts"].values()) == report["total"] == 10


def test_aggregate_empty_rejected():
    with pytest.raises(EmptyInputError):
        aggregate([])
    with pytest.raises(EmptyInputError):
        aggregate([], [])


def test_aggregate_rejects_misaligned_params():
    with pytest.raises(ValueError, match="^meta sidecar has 0 rows, expected 2$"):
        aggregate(make_verdicts(1, 0, 1), [])
    # the length check comes first, so an empty run with meta rows names both counts
    with pytest.raises(ValueError, match="^meta sidecar has 1 rows, expected 0$"):
        aggregate([], [{"kind": "cube"}])


def test_aggregate_breakdown_by_scramble_length():
    verdicts = []
    params = []
    for seed in range(12):
        length = seed % 3 + 1
        state = apply_formula(SOLVED, random_scramble(seed, length))
        verdicts.append(classify_cube(state, ""))
        params.append({"kind": "cube", "seed": seed, "source_line": seed + 2, "scramble_length": length})
    report = aggregate(verdicts, params)
    # a seed or a source line names one record, not a generation parameter
    assert set(report["breakdown"]) == {"scramble_length"}
    assert sum(
        sum(classes.values()) for classes in report["breakdown"]["scramble_length"].values()
    ) == 12


def test_report_text_and_dict():
    report = aggregate(make_verdicts(1, 2, 3))
    assert report["counts"] == {"invalid": 1, "incorrect": 2, "correct": 3}
    # the report is a JSON value, and the text is printed from that same dict
    decoded = json.loads(json.dumps(report))
    assert decoded == report
    text = format_report(decoded)
    assert text == format_report(report)
    assert text.splitlines()[:4] == [
        "total samples: 6",
        "  correct        3  (50.0%)",
        "  incorrect      2  (33.3%)",
        "  invalid        1  (16.7%)",
    ]


# --- external output ingestion ---


def test_ingest_scores_a_corpus_against_itself(tmp_path):
    records = list(corpus.build_cube_corpus(17, 20, 5))
    prompts = tmp_path / "prompts.txt"
    outputs = tmp_path / "outputs.txt"
    prompts.write_text("\n".join(r.prompt for r in records) + "\n", encoding="utf-8")
    outputs.write_text("\n".join(r.response for r in records) + "\n", encoding="utf-8")
    verdicts, issues = ingest_external_outputs(prompts, outputs, "cube")
    assert not issues
    assert len(verdicts) == 20
    assert all(v.status == "correct" for v in verdicts)


def test_ingest_line_count_mismatch(tmp_path):
    prompts = tmp_path / "p.txt"
    outputs = tmp_path / "o.txt"
    prompts.write_text("U" * 54 + "\n", encoding="utf-8")
    outputs.write_text("R\nR\n", encoding="utf-8")
    with pytest.raises(LineCountMismatchError):
        ingest_external_outputs(prompts, outputs, "cube")
    with pytest.raises(ValueError, match="unknown kind 'chess'"):
        ingest_external_outputs(prompts, outputs, "chess")


def test_ingest_isolates_garbage_lines(tmp_path):
    records = list(corpus.build_cube_corpus(19, 5, 5))
    prompts = tmp_path / "p.txt"
    outputs = tmp_path / "o.txt"
    prompts.write_text("\n".join(r.prompt for r in records) + "\n", encoding="utf-8")
    lines = [r.response for r in records]
    lines[2] = "total garbage ###"
    outputs.write_text("\n".join(lines) + "\n", encoding="utf-8")
    verdicts, issues = ingest_external_outputs(prompts, outputs, "cube")
    assert not issues
    assert [v.status for v in verdicts].count("invalid") == 1
    assert [v.status for v in verdicts].count("correct") == 4


def test_ingest_skips_bad_prompts(tmp_path):
    prompts = tmp_path / "p.txt"
    outputs = tmp_path / "o.txt"
    prompts.write_text("U" * 54 + "\n" + list(corpus.build_cube_corpus(1, 1, 1))[0].prompt + "\n", encoding="utf-8")
    outputs.write_text("R\nR\n", encoding="utf-8")
    verdicts, issues = ingest_external_outputs(prompts, outputs, "cube")
    assert len(verdicts) == 1
    assert len(issues) == 1
    assert issues[0].line == 1


def test_ingest_maze_stream(tmp_path):
    records = corpus.build_maze_corpus(27, 3, [(4, 4)])
    outputs = tmp_path / "samples.txt"
    corpus.write_corpus(records, outputs)
    verdicts, issues = ingest_external_outputs(None, outputs, "maze")
    assert not issues
    assert len(verdicts) == 3
    assert all(v.status == "correct" for v in verdicts)


def test_carriage_return_stays_in_its_line(tmp_path):
    prompts = tmp_path / "p.txt"
    outputs = tmp_path / "o.txt"
    cubes = list(corpus.build_cube_corpus(5, 3, 1))
    prompts.write_bytes("".join(r.prompt + "\n" for r in cubes).encode())
    outputs.write_bytes(f"{cubes[0].response}\nR\rR'\n{cubes[2].response}\n".encode())
    verdicts, _ = ingest_external_outputs(prompts, outputs, "cube")
    assert [(v.status, v.reason) for v in verdicts] == [
        ("correct", None), ("invalid", "syntax_error:1"), ("correct", None)]

    outputs.write_bytes("".join(r.response + "\r\n" for r in cubes).encode())
    verdicts, _ = ingest_external_outputs(prompts, outputs, "cube")
    assert [v.reason for v in verdicts] == ["syntax_error:1"] * 3

    (sudoku,) = corpus.build_sudoku_corpus(5, 1, (30, 30))
    prompts.write_bytes(f"{sudoku.prompt}\n".encode())
    outputs.write_bytes(f"{sudoku.response[:40]}\r{sudoku.response[40:]}\n".encode())
    verdicts, _ = ingest_external_outputs(prompts, outputs, "sudoku")
    assert [v.reason for v in verdicts] == ["bad_grid"]

    mazes = corpus.build_maze_corpus(5, 3, [(4, 4)])
    outputs.write_bytes(corpus.corpus_text(mazes).replace("\n", "\r\n").encode())
    verdicts, _ = ingest_external_outputs(None, outputs, "maze")
    assert [v.reason for v in verdicts] == ["framing"] * 3


@pytest.mark.parametrize("blank", ["\u00a0", "\u3000", "\x1c", " \u00a0\t"])
def test_non_ascii_whitespace_chunk_is_scored_invalid(tmp_path, blank):
    records = corpus.corpus_text(corpus.build_maze_corpus(27, 2, [(4, 4)]))
    outputs = tmp_path / "samples.txt"
    outputs.write_text(f"{blank}\n{records}\n{blank}\n", encoding="utf-8")
    verdicts, _ = ingest_external_outputs(None, outputs, "maze")
    assert [(v.status, v.reason) for v in verdicts] == [
        ("invalid", "framing"), ("correct", None), ("invalid", "framing")]
    outputs.write_text(f" \t\x0b\x0c\r\n{records}", encoding="utf-8")
    verdicts, _ = ingest_external_outputs(None, outputs, "maze")
    assert [v.status for v in verdicts] == ["correct"] * 2


def test_ingest_maze_jsonl(tmp_path):
    records = corpus.build_maze_corpus(27, 3, [(4, 4)])
    outputs = tmp_path / "samples.jsonl"
    lines = [json.dumps(corpus.serialize_record(r)) for r in records]
    outputs.write_text("\n".join([lines[0], "", lines[1], "  ", lines[2], ""]), encoding="utf-8")
    verdicts, issues = ingest_external_outputs(None, outputs, "maze", jsonl=True)
    assert not issues
    assert [v.status for v in verdicts] == ["correct"] * 3


def test_ingest_maze_jsonl_rejects_non_string_line(tmp_path):
    outputs = tmp_path / "samples.jsonl"
    outputs.write_text(json.dumps("garbage") + "\n123\n", encoding="utf-8")
    with pytest.raises(ValueError, match="line 2"):
        ingest_external_outputs(None, outputs, "maze", jsonl=True)


def test_sudoku_corpus_scores_itself_correct(tmp_path):
    records = list(corpus.build_sudoku_corpus(33, 5, (30, 40)))
    prompts = tmp_path / "p.txt"
    outputs = tmp_path / "o.txt"
    prompts.write_text("\n".join(r.prompt for r in records) + "\n", encoding="utf-8")
    outputs.write_text("\n".join(r.response for r in records) + "\n", encoding="utf-8")
    verdicts, issues = ingest_external_outputs(prompts, outputs, "sudoku")
    assert not issues
    assert all(v.status == "correct" for v in verdicts)


def test_sudoku_violation_count_matches_brute_force():
    import random as _random

    from puzzletext.sudoku import find_violations, format_grid81

    rng = _random.Random(41)
    puzzle = "0" * 81  # no clue to change, so every response reaches the count
    for _ in range(300):
        response = "".join(str(rng.randrange(10)) for _ in range(81))
        verdict = classify_sudoku(puzzle, response)
        grid = tuple(int(c) for c in response)
        expected = len(find_violations(grid))
        if verdict.status == "invalid":
            continue
        assert verdict.progress[1] == expected


def test_cube_progress_is_full_iff_correct():
    records = corpus.build_cube_corpus(37, 20, 5)
    for record in records:
        full = classify_cube(record.prompt, record.response)
        assert full.status == "correct" and full.progress == (6, 36)
        truncated = classify_cube(record.prompt, " ".join(record.response.split()[:-1]))
        if truncated.status == "incorrect":
            assert truncated.progress != (6, 36)


# --- referee pin ---


def mutate(rng, text, alphabet, edits):
    """Up to `edits` seeded substitutions, deletions or insertions of
    characters from `alphabet`."""
    for _ in range(rng.randint(0, edits)):
        op = rng.randrange(3)
        i = rng.randrange(len(text) + 1)
        if op == 0 and i < len(text):
            text = text[:i] + rng.choice(alphabet) + text[i + 1:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(alphabet) + text[i:]
    return text


def referee_outcome(classify, *args, **kwargs):
    try:
        verdict = classify(*args, **kwargs)
    except ValueError as exc:
        return (type(exc).__name__, str(exc))
    return (verdict.status, verdict.reason, verdict.progress)


def cube_cases(rng, count):
    for _ in range(count):
        scramble = random_scramble(rng.randrange(10**6), rng.randint(1, 5))
        prompt = apply_formula(SOLVED, scramble)
        response = format_formula(inverse_formula(scramble))
        if rng.random() < 0.3:
            prompt = mutate(rng, prompt, "URFDBLx ²", 2)
        if rng.random() < 0.2:
            prompt = prompt[::-1]  # same counts, wrong centers
        response = mutate(rng, response, "URFDBL2' x\t ", 3)
        if rng.random() < 0.2:
            response = response.ljust(rng.choice((1024, 1025)))  # at, then past, the budget
        yield prompt, response


def sudoku_cases(rng, count):
    for _ in range(count):
        relabel = list("123456789")
        rng.shuffle(relabel)
        table = str.maketrans("123456789", "".join(relabel))
        puzzle = SAMPLE_SUDOKU_PUZZLE.translate(table)
        solution = SAMPLE_SUDOKU_SOLUTION.translate(table)
        cells = list(solution)
        op = rng.randrange(5)
        if op == 0:  # a random fill of the blanks
            cells = [p if p != "0" else str(rng.randrange(10)) for p in puzzle]
        elif op == 1:  # re-blanked cells
            for i in rng.sample(range(81), rng.randint(1, 20)):
                cells[i] = "0"
        elif op == 2:  # a changed clue or cell
            i = rng.randrange(81)
            cells[i] = str((int(cells[i]) + rng.randint(1, 9)) % 10)
        elif op == 3:  # a non-ASCII or non-digit character
            cells[rng.randrange(81)] = rng.choice(("²", "٣", "３", "x", " ", "\r"))
        response = mutate(rng, "".join(cells), "0123456789²٣", 1 if op == 4 else 0)
        if rng.random() < 0.1:
            puzzle = mutate(rng, puzzle, "0123456789²٣３", 2)
        yield puzzle, response


def maze_record_cases(count):
    rng = random.Random(77)
    previous = ""
    for text in mutated_renders(55, count):
        # the walls of this render, or now and then of the one before
        prompt = re.sub(r"\^\^|>>|vv|<<|\*\*", "  ", text if rng.random() < 0.9 else previous)
        previous = text
        record = corpus.serialize_record(corpus.PuzzleRecord("maze", prompt, text))
        if rng.random() < 0.1:
            record = mutate(rng, record, "\n<|>[]", 2)
        yield record


def mutated_streams(rng, count):
    records = list(maze_record_cases(40))
    for _ in range(count):
        stream = "\n".join(rng.sample(records, rng.randint(0, 4)))
        stream = mutate(rng, stream, ["\n", " ", "x", "\r", corpus.START_TOKEN, "\n" + corpus.START_TOKEN], 6)
        yield stream


# sha256 of the outcomes below. Re-recorded, on the code from before the
# referee's rules were fixed and with its default rules, when the cases
# stopped drawing a character budget and a clue rule: cube responses now
# reach too_long by running past the 1,024-character budget.
PINNED_REFEREE_SHA256 = "ea5900a38b717897df6a3425980512ade41a7da471a73882cc69c97d1e9d6070"


def test_referee_verdicts_are_pinned():
    digest = hashlib.sha256()
    seen = set()
    rng = random.Random(2026)
    outcomes = [referee_outcome(classify_cube, p, r) for p, r in cube_cases(rng, 3000)]
    outcomes += [referee_outcome(classify_sudoku, p, r) for p, r in sudoku_cases(rng, 3000)]
    outcomes += [referee_outcome(classify_maze, record) for record in maze_record_cases(3000)]
    for outcome in outcomes:
        seen.add(outcome[1].split(":")[0] if outcome[0] == "invalid" else outcome[0])
        digest.update(repr(outcome).encode() + b"\n")
    for stream in mutated_streams(rng, 500):
        digest.update(repr(list(corpus.split_framed_stream(stream))).encode() + b"\n")
    assert seen == {
        "correct", "incorrect", "BadPromptError", "too_long", "syntax_error", "bad_grid", "clue_changed",
        "framing", "prompt_maze", "response_maze", "wall_mismatch"}
    assert digest.hexdigest() == PINNED_REFEREE_SHA256
