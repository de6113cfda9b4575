import json

import pytest

from conftest import SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION
from puzzletext import corpus
from puzzletext.cube import (
    FaceletCube,
    Move,
    Turn,
    apply_formula,
    apply_move,
    encode_facelets,
    is_solved,
    parse_formula,
    random_scramble,
)
from puzzletext.evaluate import (
    BadPromptError,
    EmptyInputError,
    LineCountMismatchError,
    SampleVerdict,
    aggregate,
    classify_cube,
    classify_maze,
    classify_sudoku,
    cube_progress,
    format_report,
    ingest_external_outputs,
    report_to_dict,
)
from puzzletext.maze import generate_maze, render_maze, solve_maze

SOLVED = FaceletCube()


def make_verdicts(invalid, incorrect, correct):
    verdicts = []
    for status, count in (("invalid", invalid), ("incorrect", incorrect), ("correct", correct)):
        for _ in range(count):
            progress = None if status == "invalid" else (0, 0)
            verdicts.append(SampleVerdict("cube", status, None, progress, "", ""))
    return verdicts


# --- cube progress ---


def test_progress_solved_cube():
    assert cube_progress(SOLVED) == (6, 36)


def test_progress_after_one_u_turn():
    # U and D faces stay whole; each side face keeps its two lower rows
    # and loses all three columns: 6 + 6 + 4 * 2 = 20 uniform lines
    turned = apply_move(SOLVED, Move("U", Turn.CW90))
    assert cube_progress(turned) == (2, 20)


def test_six_solved_faces_iff_solved():
    for seed in range(50):
        state = apply_formula(SOLVED, random_scramble(seed, seed % 5 + 1))
        faces, _ = cube_progress(state)
        assert (faces == 6) == is_solved(state)


# --- cube classification ---


def test_classify_cube_correct():
    state = apply_move(SOLVED, Move("R", Turn.CW90))
    verdict = classify_cube(encode_facelets(state), "R'")
    assert verdict.status == "correct"
    assert verdict.progress == (6, 36)


def test_classify_cube_invalid_syntax():
    state = apply_formula(SOLVED, random_scramble(3, 3))
    verdict = classify_cube(encode_facelets(state), "R X R")
    assert verdict.status == "invalid"
    assert verdict.reason.startswith("syntax_error")
    assert verdict.progress is None


def test_classify_cube_non_ascii_space_is_invalid():
    # R' solves the state, so only the separator makes these invalid.
    state = apply_move(SOLVED, Move("R", Turn.CW90))
    for separator in ("\t", "\u3000"):
        verdict = classify_cube(encode_facelets(state), f"R'{separator}U U'")
        assert verdict.status == "invalid"
        assert verdict.reason == "syntax_error:1"


def test_classify_cube_empty_formula_is_incorrect():
    state = apply_formula(SOLVED, random_scramble(4, 3))
    verdict = classify_cube(encode_facelets(state), "")
    assert verdict.status == "incorrect"
    assert verdict.progress == cube_progress(state)


def test_classify_cube_too_long():
    state = apply_formula(SOLVED, random_scramble(5, 3))
    verdict = classify_cube(encode_facelets(state), "R U " * 300)
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


def test_classify_sudoku_clue_change_strict_vs_lenient():
    # a fully valid solved grid that disagrees with the sample's clues
    other = (
        "123456789456789123789123456214365897365897214897214365531642978642978531978531642"
    )
    assert classify_sudoku(SAMPLE_SUDOKU_PUZZLE, other).status == "invalid"
    assert classify_sudoku(SAMPLE_SUDOKU_PUZZLE, other).reason == "clue_changed"
    lenient = classify_sudoku(SAMPLE_SUDOKU_PUZZLE, other, strict_clues=False)
    assert lenient.status == "correct"


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
    path = solve_maze(maze, "bfs")
    shortest = len(path)
    solved_lines = render_maze(maze, path).split("\n")
    # blank the arrow written into the exit cell, dropping the final step
    body = list(solved_lines[2 * (maze.height - 1) + 1])
    col = 4 * (maze.width - 1) + 1
    body[col: col + 3] = "   "
    solved_lines[2 * (maze.height - 1) + 1] = "".join(body).rstrip()
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


# --- aggregation ---


def test_aggregate_rounds_reference_counts_to_one_decimal():
    report = aggregate(make_verdicts(11, 576, 14))
    assert report.total == 601
    assert report.percentages == {"invalid": 1.8, "incorrect": 95.8, "correct": 2.3}


def test_aggregate_single_correct():
    report = aggregate(make_verdicts(0, 0, 1))
    assert report.percentages == {"invalid": 0.0, "incorrect": 0.0, "correct": 100.0}


def test_aggregate_partition():
    report = aggregate(make_verdicts(3, 5, 2))
    assert report.invalid + report.incorrect + report.correct == report.total == 10


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
        verdicts.append(classify_cube(encode_facelets(state), ""))
        params.append({"kind": "cube", "seed": seed, "scramble_length": length})
    report = aggregate(verdicts, params)
    assert set(report.breakdown) == {"scramble_length"}
    assert sum(
        sum(classes.values()) for classes in report.breakdown["scramble_length"].values()
    ) == 12


def test_report_text_and_dict():
    report = aggregate(make_verdicts(1, 2, 3))
    text = format_report(report)
    assert "total samples: 6" in text
    payload = report_to_dict(report)
    assert payload["counts"] == {"invalid": 1, "incorrect": 2, "correct": 3}
    json.dumps(payload)  # must be serializable


# --- external output ingestion ---


def test_ingest_scores_a_corpus_against_itself(tmp_path):
    records = corpus.build_cube_corpus(17, 20, 5)
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


def test_ingest_isolates_garbage_lines(tmp_path):
    records = corpus.build_cube_corpus(19, 5, 5)
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
    prompts.write_text("U" * 54 + "\n" + corpus.build_cube_corpus(1, 1, 1)[0].prompt + "\n", encoding="utf-8")
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
    cubes = corpus.build_cube_corpus(5, 3, 1)
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
    records = corpus.build_sudoku_corpus(33, 5, (30, 40))
    prompts = tmp_path / "p.txt"
    outputs = tmp_path / "o.txt"
    prompts.write_text("\n".join(r.prompt for r in records) + "\n", encoding="utf-8")
    outputs.write_text("\n".join(r.response for r in records) + "\n", encoding="utf-8")
    verdicts, issues = ingest_external_outputs(prompts, outputs, "sudoku")
    assert not issues
    assert all(v.status == "correct" for v in verdicts)


def test_sudoku_violation_count_matches_brute_force():
    import random as _random

    from puzzletext.sudoku import SudokuGrid, find_violations, format_grid81

    rng = _random.Random(41)
    puzzle = SAMPLE_SUDOKU_PUZZLE
    for _ in range(300):
        response = "".join(str(rng.randrange(10)) for _ in range(81))
        verdict = classify_sudoku(puzzle, response, strict_clues=False)
        grid = SudokuGrid(tuple(int(c) for c in response))
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
