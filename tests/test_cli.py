import json

import pytest

from conftest import SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION
from puzzletext import corpus
from puzzletext.cli import run
from puzzletext.cube import SOLVED_FACELETS
from puzzletext.maze import parse_maze, validate_path


def read(path):
    return path.read_text(encoding="utf-8")


# --- generation ---


def test_gen_cube_writes_corpus_and_sidecar(tmp_path, capsys):
    out = tmp_path / "cube.txt"
    code = run(["gen", "cube", "--seed", "7", "--total", "20", "--max-scramble", "5", "--out", str(out)])
    assert code == 0
    records = corpus.read_corpus(out)
    assert len(records) == 20
    meta = corpus.read_meta(str(out) + ".meta.jsonl")
    assert len(meta) == 20
    assert {m["scramble_length"] for m in meta} == {1, 2, 3, 4, 5}


def test_gen_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert run(["gen", "maze", "--seed", "3", "--total", "4", "--sizes", "4x4", "--out", str(out)]) == 0
    assert read(a) == read(b)
    assert read(tmp_path / "a.txt.meta.jsonl") == read(tmp_path / "b.txt.meta.jsonl")


def test_gen_jobs_flag_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.txt", tmp_path / "p.txt"
    assert run(["gen", "cube", "--seed", "5", "--total", "10", "--max-scramble", "5", "--out", str(serial)]) == 0
    assert run(["gen", "cube", "--seed", "5", "--total", "10", "--max-scramble", "5", "--jobs", "2", "--out", str(parallel)]) == 0
    assert read(serial) == read(parallel)


def test_gen_seed_is_mandatory(tmp_path, capsys):
    code = run(["gen", "cube", "--total", "5", "--out", str(tmp_path / "x.txt")])
    assert code == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, entry", [("4x", "4x"), ("4x4,", ""), ("4x4,5", "5"), ("axb", "axb")])
def test_gen_maze_malformed_size_is_usage_error(tmp_path, capsys, sizes, entry):
    out = tmp_path / "maze.txt"
    code = run(["gen", "maze", "--seed", "1", "--total", "2", "--sizes", sizes, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert f"invalid maze size {entry!r} (expected WxH)" in err
    assert not out.exists()


def test_gen_maze_size_out_of_range_is_data_error(tmp_path, capsys):
    out = tmp_path / "maze.txt"
    code = run(["gen", "maze", "--seed", "1", "--total", "2", "--sizes", "1x4", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: maze sizes must be within")
    assert not out.exists()


def test_gen_data_error_leaves_no_file(tmp_path):
    out = tmp_path / "cube.txt"
    code = run(["gen", "cube", "--seed", "1", "--total", "7", "--max-scramble", "5", "--out", str(out)])
    assert code == 2
    assert not out.exists()


# --- solve / render ---


def test_solve_cube_solved_state_prints_empty_formula(capsys):
    assert run(["solve", "cube", "--state", SOLVED_FACELETS]) == 0
    assert capsys.readouterr().out == "\n"


def test_solve_cube_one_move(capsys):
    state = "UUFUUFUUFRRRRRRRRRFFDFFDFFDDDBDDBDDBUBBUBBUBBLLLLLLLLL"  # R turn
    assert run(["solve", "cube", "--state", state]) == 0
    assert capsys.readouterr().out.strip() == "R'"


def test_solve_cube_rejects_bad_state(capsys):
    assert run(["solve", "cube", "--state", "UUU"]) == 2
    assert "error" in capsys.readouterr().err


def test_solve_sudoku(capsys):
    assert run(["solve", "sudoku", "--grid", SAMPLE_SUDOKU_PUZZLE]) == 0
    assert capsys.readouterr().out.strip() == SAMPLE_SUDOKU_SOLUTION


def test_render_cube(capsys):
    assert run(["render", "cube", "--state", SOLVED_FACELETS]) == 0
    out = capsys.readouterr().out
    assert len(out.rstrip("\n").split("\n")) == 9


def test_render_sudoku_marks(capsys):
    grid = "5" + "0" * 3 + "5" + "0" * 76
    assert run(["render", "sudoku", "--grid", grid, "--mark-violations"]) == 0
    assert capsys.readouterr().out.count("*") == 2


def test_render_and_solve_maze_round_trip(tmp_path, capsys):
    assert run(["render", "maze", "--seed", "4", "--width", "4", "--height", "4"]) == 0
    unsolved = capsys.readouterr().out
    maze_file = tmp_path / "maze.txt"
    maze_file.write_text(unsolved, encoding="utf-8")
    assert run(["solve", "maze", "--in", str(maze_file)]) == 0
    solved = capsys.readouterr().out
    maze, path = parse_maze(solved)
    assert validate_path(maze, path).ok


# --- split ---


def test_split_command(tmp_path, capsys):
    src = tmp_path / "corpus.txt"
    assert run(["gen", "cube", "--seed", "9", "--total", "30", "--max-scramble", "5", "--out", str(src)]) == 0
    train_out, test_out = tmp_path / "train.txt", tmp_path / "test.txt"
    assert run([
        "split", "--in", str(src), "--seed", "2", "--test-fraction", "0.2",
        "--train-out", str(train_out), "--test-out", str(test_out),
    ]) == 0
    train = corpus.read_corpus(train_out)
    test = corpus.read_corpus(test_out)
    assert not {r.prompt for r in train} & {r.prompt for r in test}


# --- ingest ---


def test_ingest_sudoku_csv_command(tmp_path, capsys):
    csv_path = tmp_path / "games.csv"
    csv_path.write_text(
        f"quizzes,solutions\n{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\n",
        encoding="utf-8",
    )
    out = tmp_path / "sudoku.txt"
    assert run(["ingest", "sudoku-csv", "--csv", str(csv_path), "--out", str(out)]) == 0
    assert len(corpus.read_corpus(out)) == 1


# --- train / sample / score ---


def test_train_sample_score_maze_pipeline(tmp_path, capsys):
    corpus_path = tmp_path / "maze.txt"
    model_path = tmp_path / "model.json"
    samples_path = tmp_path / "samples.jsonl"
    report_path = tmp_path / "report.json"
    assert run(["gen", "maze", "--seed", "1", "--total", "30", "--sizes", "4x4", "--out", str(corpus_path)]) == 0
    assert run(["train", "--corpus", str(corpus_path), "--order", "6", "--out", str(model_path)]) == 0
    prompt_file = tmp_path / "prompt.txt"
    prompt_file.write_text("<|startoftext|>[WP]\n", encoding="utf-8")
    assert run([
        "sample", "--model", str(model_path), "--seed", "0", "--count", "10",
        "--max-chars", "1024", "--prompt-file", str(prompt_file),
        "--out", str(samples_path), "--jsonl",
    ]) == 0
    assert run([
        "score", "maze", "--outputs", str(samples_path), "--jsonl", "--json", str(report_path),
    ]) == 0
    stdout = capsys.readouterr().out
    assert "total samples: 10" in stdout
    payload = json.loads(read(report_path))
    assert payload["total"] == 10
    assert sum(payload["counts"].values()) == 10


@pytest.mark.parametrize("jsonl", [[], ["--jsonl"]])
def test_sample_count_zero_writes_nothing(tmp_path, capsys, jsonl):
    corpus_path = tmp_path / "maze.txt"
    model_path = tmp_path / "model.json"
    samples_path = tmp_path / "samples.txt"
    assert run(["gen", "maze", "--seed", "1", "--total", "4", "--sizes", "4x4", "--out", str(corpus_path)]) == 0
    assert run(["train", "--corpus", str(corpus_path), "--order", "3", "--out", str(model_path)]) == 0
    sample = ["sample", "--model", str(model_path), "--seed", "0", "--count", "0", *jsonl]
    assert run([*sample, "--out", str(samples_path)]) == 0
    assert read(samples_path) == ""
    capsys.readouterr()
    assert run(sample) == 0
    assert capsys.readouterr().out == ""


def test_score_cube_self_test_is_all_correct(tmp_path, capsys):
    out = tmp_path / "cube.txt"
    assert run(["gen", "cube", "--seed", "11", "--total", "10", "--max-scramble", "5", "--out", str(out)]) == 0
    records = corpus.read_corpus(out)
    prompts = tmp_path / "prompts.txt"
    outputs = tmp_path / "outputs.txt"
    prompts.write_text("\n".join(r.prompt for r in records) + "\n", encoding="utf-8")
    outputs.write_text("\n".join(r.response for r in records) + "\n", encoding="utf-8")
    report_path = tmp_path / "report.json"
    assert run([
        "score", "cube", "--prompts", str(prompts), "--outputs", str(outputs),
        "--json", str(report_path), "--meta", str(out) + ".meta.jsonl",
    ]) == 0
    payload = json.loads(read(report_path))
    assert payload["percentages"]["correct"] == 100.0
    assert "scramble_length" in payload["breakdown"]


def test_score_sudoku(tmp_path, capsys):
    prompts = tmp_path / "p.txt"
    outputs = tmp_path / "o.txt"
    prompts.write_text(SAMPLE_SUDOKU_PUZZLE + "\n", encoding="utf-8")
    outputs.write_text(SAMPLE_SUDOKU_SOLUTION + "\n", encoding="utf-8")
    assert run(["score", "sudoku", "--prompts", str(prompts), "--outputs", str(outputs)]) == 0
    assert "correct" in capsys.readouterr().out


def test_score_sudoku_lenient_clues(tmp_path, capsys):
    # a fully valid solved grid that disagrees with the sample's clues
    other = "123456789456789123789123456214365897365897214897214365531642978642978531978531642"
    prompts = tmp_path / "p.txt"
    outputs = tmp_path / "o.txt"
    prompts.write_text(SAMPLE_SUDOKU_PUZZLE + "\n", encoding="utf-8")
    outputs.write_text(other + "\n", encoding="utf-8")
    strict, lenient = tmp_path / "strict.json", tmp_path / "lenient.json"
    base = ["score", "sudoku", "--prompts", str(prompts), "--outputs", str(outputs)]
    assert run(base + ["--json", str(strict)]) == 0
    assert run(base + ["--lenient-clues", "--json", str(lenient)]) == 0
    assert json.loads(read(strict))["counts"]["invalid"] == 1
    assert json.loads(read(lenient))["counts"]["correct"] == 1


def test_score_maze_jsonl_non_string_line_is_data_error(tmp_path, capsys):
    samples = tmp_path / "samples.jsonl"
    samples.write_text('"not a maze"\n123\n', encoding="utf-8")
    assert run(["score", "maze", "--outputs", str(samples), "--jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2: expected a JSON string, got int\n"


def test_score_maze_jsonl_malformed_line_names_file_line(tmp_path, capsys):
    samples = tmp_path / "samples.jsonl"
    samples.write_text('"not a maze"\n{not json\n', encoding="utf-8")
    assert run(["score", "maze", "--outputs", str(samples), "--jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: Expecting property name")


# --- plumbing ---


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "puzzletext" in out and "format" in out


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    assert run(["train", "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "m.json")]) == 2
