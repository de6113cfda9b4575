import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

from conftest import REPO_ROOT, SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION
from puzzletext import corpus
from puzzletext.cli import run
from puzzletext.cube import SOLVED_FACELETS, apply_formula, parse_formula
from puzzletext.maze import NORTH, SOUTH, generate_maze, parse_maze, render_maze, solve_maze, validate_path


def read(path):
    return path.read_text(encoding="utf-8")


def scrambled(formula):
    return apply_formula(SOLVED_FACELETS, parse_formula(formula))


def python(args, cwd, stdin=None, **env):
    """Run a fresh interpreter on this source tree and return its result."""
    path = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env={**os.environ, "PYTHONPATH": path, **env},
                          stdin=stdin, capture_output=True, text=True, timeout=120, check=True)


# --- generation ---


def test_gen_cube_writes_corpus_and_sidecar(tmp_path, capsys):
    out = tmp_path / "cube.txt"
    code = run(["gen", "cube", "--seed", "7", "--total", "20", "--max-scramble", "5", "--out", str(out)])
    assert code == 0
    records = corpus.read_corpus(out)
    assert len(records) == 20
    meta = corpus.read_json_lines(str(out) + ".meta.jsonl", dict)
    assert len(meta) == 20
    assert {m["scramble_length"] for m in meta} == {1, 2, 3, 4, 5}


def test_gen_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (a, b):
        assert run(["gen", "maze", "--seed", "3", "--total", "4", "--sizes", "4x4", "--out", str(out)]) == 0
    assert read(a) == read(b)
    assert read(tmp_path / "a.txt.meta.jsonl") == read(tmp_path / "b.txt.meta.jsonl")


def test_gen_cube_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    # The solver's depth-4 bitset is indexed by str hash, which varies with
    # PYTHONHASHSEED; only the amount of search may change, not the labels.
    for hash_seed in ("0", "1"):
        python(["-m", "puzzletext.cli", "gen", "cube", "--seed", "1234", "--total", "50",
                "--max-scramble", "5", "--out", f"cube{hash_seed}.txt"], tmp_path, PYTHONHASHSEED=hash_seed)
    assert read(tmp_path / "cube0.txt") == read(tmp_path / "cube1.txt")
    assert read(tmp_path / "cube0.txt.meta.jsonl") == read(tmp_path / "cube1.txt.meta.jsonl")


def test_cli_import_leaves_multiprocessing_unloaded(tmp_path):
    result = python(["-c", "import sys, puzzletext.cli; print('multiprocessing' in sys.modules)"], tmp_path)
    assert result.stdout == "False\n"


def test_gen_seed_is_mandatory(tmp_path, capsys):
    code = run(["gen", "cube", "--total", "5", "--out", str(tmp_path / "x.txt")])
    assert code == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, entry", [
    ("4x", "4x"), ("4x4,", ""), ("4x4,5", "5"), ("axb", "axb"),
    ("\u0664x\u0664", "\u0664x\u0664"), ("+4x4", "+4x4"), ("4x4,4_0x4", "4_0x4"),
    ("\u30004x4", "\u30004x4"), ("4x4,5x5\x1c", "5x5\x1c"),
])
def test_gen_maze_malformed_size_is_usage_error(tmp_path, capsys, sizes, entry):
    out = tmp_path / "maze.txt"
    code = run(["gen", "maze", "--seed", "1", "--total", "2", "--sizes", sizes, "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert f"invalid maze size {entry!r} (expected WxH)" in err
    assert not out.exists()


def test_gen_maze_sizes_strip_ascii_whitespace(tmp_path, capsys):
    out = tmp_path / "maze.txt"
    assert run(["gen", "maze", "--seed", "1", "--total", "2", "--sizes", " 4x4\t,\n5x5 ", "--out", str(out)]) == 0
    assert [(m["width"], m["height"]) for m in corpus.read_json_lines(f"{out}.meta.jsonl", dict)] == [(4, 4), (5, 5)]


@pytest.mark.parametrize("argv, message", [
    (["gen", "cube", "--seed", "1", "--total", "-5"], "argument --total: must be at least 0, got -5"),
    (["gen", "sudoku", "--seed", "1", "--clue-min", "10"], "argument --clue-min: must be at least 17 and less than 81, got 10"),
    (["gen", "sudoku", "--seed", "1", "--clue-max", "81"], "argument --clue-max: must be at least 17 and less than 81, got 81"),
    (["sample", "--model", "m.json", "--seed", "0", "--count", "-2"], "argument --count: must be at least 0, got -2"),
    (["gen", "cube", "--seed", "1", "--total", "x"], "argument --total: invalid int value: 'x'"),
    (["render", "maze", "--seed", "1", "--width", "1"], "argument --width: must be at least 2, got 1"),
    (["sample", "--model", "m.json", "--seed", "0", "--count", "two"], "argument --count: invalid int value: 'two'"),
    (["sample", "--model", "m.json", "--seed", "0", "--max-chars", "0"], "argument --max-chars: must be at least 1, got 0"),
    (["sample", "--model", "m.json", "--seed", "0", "--temperature", "0"], "argument --temperature: must be greater than 0, got 0.0"),
    (["sample", "--model", "m.json", "--seed", "0", "--temperature", "nan"], "argument --temperature: must be greater than 0, got nan"),
    (["gen", "cube", "--seed", "1", "--total", "1_0"], "argument --total: invalid int value: '1_0'"),
    (["train", "--corpus", "c.txt", "--order", "-1"], "argument --order: must be at least 0, got -1"),
    (["train", "--corpus", "c.txt", "--alpha", "-0.5"], "argument --alpha: must be greater than 0, got -0.5"),
    (["gen", "cube", "--seed", "1", "--max-scramble", "0"], "argument --max-scramble: must be at least 1, got 0"),
    (["solve", "cube", "--state", SOLVED_FACELETS, "--max-depth", "-1"], "argument --max-depth: must be at least 0, got -1"),
    (["split", "--in", "c.txt", "--seed", "2", "--test-fraction", "1.5"],
     "argument --test-fraction: must be greater than 0 and less than 1, got 1.5"),
    (["split", "--in", "c.txt", "--seed", "2", "--test-fraction", "0"],
     "argument --test-fraction: must be greater than 0 and less than 1, got 0.0"),
    (["split", "--in", "c.txt", "--seed", "2", "--test-fraction", "x"], "argument --test-fraction: invalid float value: 'x'"),
    (["train", "--corpus", "c.txt", "--alpha", "inf"], "argument --alpha: must be finite, got inf"),
    (["train", "--corpus", "c.txt", "--alpha=-inf"], "argument --alpha: must be greater than 0, got -inf"),
    (["sample", "--model", "m.json", "--seed", "0", "--temperature", "inf"],
     "argument --temperature: must be finite, got inf"),
    (["split", "--in", "c.txt", "--seed", "2", "--test-fraction", "inf"],
     "argument --test-fraction: must be greater than 0 and less than 1, got inf"),
    (["render", "maze", "--seed", "1", "--height", "0"], "argument --height: must be at least 2, got 0"),
    (["sample", "--model", "m.json", "--seed", "-2"], "argument --seed: must be at least 0, got -2"),
    (["gen", "cube", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    (["gen", "sudoku", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    (["gen", "maze", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    (["split", "--in", "c.txt", "--seed", "-3"], "argument --seed: must be at least 0, got -3"),
    (["render", "maze", "--seed", "-1"], "argument --seed: must be at least 0, got -1"),
    (["gen", "maze", "--seed", "\u0663", "--total", "\u0661"], "argument --seed: invalid int value: '\u0663'"),
    (["sample", "--model", "m.json", "--seed", "0", "--count", "\uff12"], "argument --count: invalid int value: '\uff12'"),
    (["sample", "--model", "m.json", "--seed", "0", "--temperature", "1_0.5"],
     "argument --temperature: invalid float value: '1_0.5'"),
    (["split", "--in", "c.txt", "--seed", "2", "--test-fraction", "\u0660.5"],
     "argument --test-fraction: invalid float value: '\u0660.5'"),
])
def test_bad_counts_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "out.txt"
    assert run([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: ")
    assert err.endswith(f"error: {message}\n")
    assert not out.exists()


def test_numbers_at_their_bounds_are_accepted(tmp_path, capsys):
    corpus_path, model_path = tmp_path / "c.txt", tmp_path / "m.json"
    corpus_path.write_text("ab\nab\n", encoding="utf-8")
    assert run(["train", "--corpus", str(corpus_path), "--order", "0", "--alpha", "1e-9", "--out", str(model_path)]) == 0
    argv = ["sample", "--model", str(model_path), "--seed", "0", "--max-chars", "1", "--temperature", "1e-9"]
    assert run(argv) == 0
    assert len(capsys.readouterr().out) == 2  # one character and its newline
    argv = ["gen", "sudoku", "--seed", "1", "--total", "2", "--clue-min", "17", "--clue-max", "80", "--allow-multiple"]
    assert run([*argv, "--out", str(tmp_path / "s.txt")]) == 0
    assert run(["render", "maze", "--seed", "1", "--width", "2", "--height", "2"]) == 0
    assert run(["gen", "maze", "--seed", "0", "--total", "1", "--out", str(tmp_path / "m.txt")]) == 0


def test_gen_maze_size_out_of_range_is_data_error(tmp_path, capsys):
    out = tmp_path / "maze.txt"
    code = run(["gen", "maze", "--seed", "1", "--total", "2", "--sizes", "1x4", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: maze sizes must be within")
    assert not out.exists()


def test_gen_data_error_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "cube.txt"
    code = run(["gen", "cube", "--seed", "1", "--total", "7", "--max-scramble", "5", "--out", str(out)])
    assert code == 2
    assert not out.exists()
    out = tmp_path / "sudoku.txt"
    capsys.readouterr()
    assert run(["gen", "sudoku", "--seed", "1", "--clue-min", "30", "--clue-max", "25", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: clue range must satisfy 17 <= low <= high <= 80, got (30, 25)\n")
    assert not out.exists()


# --- streaming writes ---


def traced_peak(argv):
    """The tracemalloc peak of one successful `run(argv)`, in bytes."""
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind, flags", [("maze", []), ("cube", ["--max-scramble", "5"])])
def test_gen_memory_does_not_grow_with_total(tmp_path, capsys, kind, flags):
    def peak(total):
        return traced_peak(["gen", kind, "--seed", "1", "--total", str(total), *flags, "--out", str(tmp_path / "c.txt")])

    peak(10)  # builds what a process keeps after its first run
    small, large = peak(500), peak(4000)
    assert large - small < 2**20, (small, large)


def test_ingest_memory_does_not_grow_with_rows(tmp_path, capsys):
    def peak(rows):
        csv_path = tmp_path / f"games{rows}.csv"
        csv_path.write_text("quizzes,solutions\n" + f"{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\n" * rows,
                            encoding="utf-8")
        return traced_peak(["ingest", "sudoku-csv", "--csv", str(csv_path), "--out", str(tmp_path / "o.txt")])

    peak(10)
    small, large = peak(500), peak(4000)
    assert large - small < 2**20, (small, large)


def test_train_memory_does_not_grow_with_corpus(tmp_path, capsys):
    def peak(total):
        corpus_path = tmp_path / f"maze{total}.txt"
        assert run(["gen", "maze", "--seed", "1", "--total", str(total), "--out", str(corpus_path)]) == 0
        return traced_peak(["train", "--corpus", str(corpus_path), "--out", str(tmp_path / "model.json")])

    peak(10)
    small, large = peak(500), peak(4000)
    assert large - small <= 2**20, (small, large)


def test_split_memory_holds_unique_records_only(tmp_path, capsys):
    # 18 distinct one-move scrambles however many records there are
    def peak(total):
        corpus_path = tmp_path / f"cube{total}.txt"
        assert run(["gen", "cube", "--seed", "1", "--total", str(total), "--max-scramble", "1",
                    "--out", str(corpus_path)]) == 0
        return traced_peak(["split", "--in", str(corpus_path), "--seed", "2",
                            "--train-out", str(tmp_path / "train.txt"), "--test-out", str(tmp_path / "test.txt")])

    peak(10)
    small, large = peak(500), peak(4000)
    assert capsys.readouterr().err.endswith("4000 records -> 14 train + 4 test\n")
    assert large - small <= 2**20, (small, large)


# sha256 of model.json from `train --corpus - --order 6` on the CRLF copy of
# `gen maze --seed 1 --total 4 --sizes 4x4`, recorded while train read stdin whole
CRLF_STDIN_MODEL_SHA256 = "f2be25810829d60fc4078e8023a251773581fed46627a49af1a592f4d578e35d"


def test_train_on_crlf_stdin_keeps_its_model_bytes(tmp_path, capsys):
    lf = tmp_path / "lf.txt"
    assert run(["gen", "maze", "--seed", "1", "--total", "4", "--sizes", "4x4", "--out", str(lf)]) == 0
    crlf = tmp_path / "crlf.txt"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    with open(crlf, "rb") as stdin:
        python(["-m", "puzzletext.cli", "train", "--corpus", "-", "--order", "6", "--out", "stdin.json"],
               tmp_path, stdin=stdin)
    assert run(["train", "--corpus", str(crlf), "--order", "6", "--out", str(tmp_path / "file.json")]) == 0
    model = (tmp_path / "stdin.json").read_bytes()
    assert model == (tmp_path / "file.json").read_bytes()
    assert "\r" in json.loads(model)["alphabet"]
    assert hashlib.sha256(model).hexdigest() == CRLF_STDIN_MODEL_SHA256


@pytest.mark.parametrize("command", ["train", "split"])
def test_non_utf8_corpus_is_data_error_and_writes_nothing(tmp_path, capsys, command):
    good = tmp_path / "maze.txt"
    assert run(["gen", "maze", "--seed", "1", "--total", "300", "--out", str(good)]) == 0
    out = tmp_path / "out"
    out.mkdir()
    bad = tmp_path / "bad.txt"
    bad.write_bytes(good.read_bytes() + b"\xff\n" + good.read_bytes())  # the bad byte is past the first pieces
    argv = {
        "train": ["train", "--corpus", str(bad), "--out", str(out / "model.json")],
        "split": ["split", "--in", str(bad), "--seed", "1", "--train-out", str(out / "train.txt"),
                  "--test-out", str(out / "test.txt")],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1
    assert list(out.iterdir()) == []


REAL_MAZE_RECORD = corpus._maze_record


def maze_record_failing_on_5x5(seed, width, height):
    if width == 5:
        raise RuntimeError("no 5x5 mazes today")
    return REAL_MAZE_RECORD(seed, width, height)


def assert_left_as_before(tmp_path, files):
    assert {p.name: p.read_text(encoding="utf-8") for p in tmp_path.iterdir() if p.name in files} == files
    assert not list(tmp_path.glob("*.tmp"))


OLD_FILES = {"out.txt": "old corpus\n", "out.txt.meta.jsonl": '{"kind": "old"}\n'}


def test_gen_failing_midway_keeps_old_files(tmp_path, capsys, monkeypatch):
    for name, text in OLD_FILES.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    monkeypatch.setattr(corpus, "_maze_record", maze_record_failing_on_5x5)
    sizes = ",".join(["4x4"] * 11 + ["5x5"])  # the twelfth record fails, after eleven were written
    argv = ["gen", "maze", "--seed", "1", "--total", "24", "--sizes", sizes, "--out", str(tmp_path / "out.txt")]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", "error: no 5x5 mazes today\n")
    assert_left_as_before(tmp_path, OLD_FILES)


@pytest.mark.parametrize("text, message", [
    (f"{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\n",
     "error: CSV must have a header with quizzes and solutions columns\n"),
    (f"quizzes,solutions\n{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\n123,4\n" + "1" * 131_073 + ",2\n",
     "error: line 4: field larger than field limit (131072)\n"),
])
def test_ingest_failing_keeps_old_files(tmp_path, capsys, text, message):
    for name, old in OLD_FILES.items():
        (tmp_path / name).write_text(old, encoding="utf-8")
    csv_path = tmp_path / "games.csv"
    csv_path.write_text(text, encoding="utf-8")
    assert run(["ingest", "sudoku-csv", "--csv", str(csv_path), "--out", str(tmp_path / "out.txt")]) == 2
    assert capsys.readouterr() == ("", message)
    assert_left_as_before(tmp_path, OLD_FILES)


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


def test_solve_maze_reads_stdin_by_default(tmp_path):
    perfect = generate_maze(3, 4, 4)
    walls = [bytearray(row) for row in perfect]
    for x in range(4):  # open every wall between the second and third rows, which makes loops
        walls[1][x] &= ~SOUTH
        walls[2][x] &= ~NORTH
    maze = tuple(map(bytes, walls))
    assert len(solve_maze(maze)) < len(solve_maze(perfect))  # a shortcut, not the perfect maze's path
    unsolved = tmp_path / "maze.txt"
    unsolved.write_text(render_maze(maze) + "\n", encoding="utf-8")
    with open(unsolved, "rb") as stdin:
        result = python(["-m", "puzzletext.cli", "solve", "maze"], tmp_path, stdin=stdin)
    assert result.stdout == render_maze(maze, solve_maze(maze)) + "\n"


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


@pytest.mark.parametrize("test_name", ["same.txt", "./same.txt", "sub/../same.txt"])
def test_split_refuses_one_file_for_both_sides(tmp_path, capsys, monkeypatch, test_name):
    # the test side would overwrite the train side, so no output is made
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    assert run(["gen", "cube", "--seed", "1", "--total", "10", "--max-scramble", "5", "--out", "c10.txt"]) == 0
    capsys.readouterr()
    assert run(["split", "--in", "c10.txt", "--seed", "1", "--train-out", "same.txt", "--test-out", test_name]) == 2
    assert capsys.readouterr() == (
        "", f"error: --train-out and --test-out name the same file: same.txt, {test_name}\n")
    assert not (tmp_path / "same.txt").exists()


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


def test_ingest_numbers_rows_by_physical_line(tmp_path, capsys):
    csv_path = tmp_path / "games.csv"
    csv_path.write_text(
        f'quizzes,solutions\n"{SAMPLE_SUDOKU_PUZZLE}\n",{SAMPLE_SUDOKU_SOLUTION}\n123,456\n\n'
        f"{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\n",
        encoding="utf-8",
    )
    out = tmp_path / "sudoku.txt"
    assert run(["ingest", "sudoku-csv", "--csv", str(csv_path), "--out", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("rejected line 4: ") and err[1:] == [f"wrote 2 records to {out}"]
    assert [m["source_line"] for m in corpus.read_json_lines(f"{out}.meta.jsonl", dict)] == [3, 6]


def test_score_with_ingested_meta_has_no_per_line_breakdown(tmp_path, capsys):
    csv_path = tmp_path / "games.csv"
    csv_path.write_text(f"quizzes,solutions\n{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\n" * 2, encoding="utf-8")
    out = tmp_path / "sudoku.txt"
    assert run(["ingest", "sudoku-csv", "--csv", str(csv_path), "--out", str(out)]) == 0
    records = corpus.read_corpus(out)
    prompts, outputs = tmp_path / "p.txt", tmp_path / "o.txt"
    prompts.write_text("".join(r.prompt + "\n" for r in records), encoding="utf-8")
    outputs.write_text("".join(r.response + "\n" for r in records), encoding="utf-8")
    capsys.readouterr()
    argv = ["score", "sudoku", "--prompts", str(prompts), "--outputs", str(outputs),
            "--meta", f"{out}.meta.jsonl", "--json", str(tmp_path / "report.json")]
    assert run(argv) == 0
    assert "breakdown" not in capsys.readouterr().out
    assert json.loads(read(tmp_path / "report.json"))["breakdown"] == {}


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


# a fully valid solved grid that disagrees with the sample's clues
OTHER_SOLVED_SUDOKU = "123456789456789123789123456214365897365897214897214365531642978642978531978531642"


def test_score_sudoku_lenient_clues(tmp_path, capsys):
    """--lenient-clues is gone: a changed clue is always invalid."""
    prompts = tmp_path / "p.txt"
    outputs = tmp_path / "o.txt"
    prompts.write_text(SAMPLE_SUDOKU_PUZZLE + "\n", encoding="utf-8")
    outputs.write_text(OTHER_SOLVED_SUDOKU + "\n", encoding="utf-8")
    strict, lenient = tmp_path / "strict.json", tmp_path / "lenient.json"
    base = ["score", "sudoku", "--prompts", str(prompts), "--outputs", str(outputs)]
    assert run(base + ["--lenient-clues", "--json", str(lenient)]) == 1
    assert "error: unrecognized arguments: --lenient-clues\n" in capsys.readouterr().err
    assert not lenient.exists()
    assert run(base + ["--json", str(strict)]) == 0
    assert json.loads(read(strict)) == {
        "total": 1,
        "counts": {"invalid": 1, "incorrect": 0, "correct": 0},
        "percentages": {"invalid": 100.0, "incorrect": 0.0, "correct": 0.0},
        "progress_histogram": {},
        "breakdown": {},
    }


@pytest.mark.parametrize("prompts, outputs, code, err", [
    ("{a}\n\n{b}\n\n\n", "{ra}\nx\n{rb}\n\n", 0, "skipped line 2: "),
    ("{a}\n{b}\n\n\n", "R\nR\nR\n", 2, "error: 2 prompts but 3 outputs\n"),
    ("{a}\n{b}", "{ra}\n{rb}\n\n\n", 0, ""),
    ("\n{a}\n", "x\n", 2, "error: 2 prompts but 1 outputs\n"),
])
def test_score_pairs_lines_up_to_each_files_last_non_empty_line(tmp_path, capsys, prompts, outputs, code, err):
    # {a} and {b} are scrambled cubes, {ra} and {rb} their solutions
    names = dict(a=scrambled("R"), b=scrambled("U"), ra="R'", rb="U'")
    (tmp_path / "p.txt").write_text(prompts.format(**names), encoding="utf-8")
    (tmp_path / "o.txt").write_text(outputs.format(**names), encoding="utf-8")
    assert run(["score", "cube", "--prompts", str(tmp_path / "p.txt"), "--outputs", str(tmp_path / "o.txt")]) == code
    captured = capsys.readouterr()
    if code:
        assert captured == ("", err)
    else:
        assert captured.out.splitlines()[:2] == ["total samples: 2", "  correct        2  (100.0%)"]
        assert captured.err.startswith(err) and captured.err.count("\n") == (err != "")


@pytest.mark.parametrize("meta, message", [
    ('{"scramble_length": 1}\n[1]\n', "line 2: expected a JSON object, got list"),
    ('\n"R"\n', "line 2: expected a JSON object, got str"),
    ('{"scramble_length": 1}\n{not json\n', "line 2: Expecting property name enclosed in double quotes"),
])
def test_score_bad_meta_line_is_data_error(tmp_path, capsys, meta, message):
    prompts, outputs, meta_path = tmp_path / "p.txt", tmp_path / "o.txt", tmp_path / "m.jsonl"
    prompts.write_text(scrambled("R") + "\n", encoding="utf-8")
    outputs.write_text("R'\n", encoding="utf-8")
    meta_path.write_text(meta, encoding="utf-8")
    argv = ["score", "cube", "--prompts", str(prompts), "--outputs", str(outputs), "--meta", str(meta_path)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


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


@pytest.mark.parametrize("blank", ["\x1c", "\u00a0", "\u3000"])
def test_score_maze_jsonl_non_ascii_whitespace_line_is_data_error(tmp_path, capsys, blank):
    samples = tmp_path / "samples.jsonl"
    samples.write_text(f'"a"\n \t\n"b"\n{blank}\n', encoding="utf-8")
    assert run(["score", "maze", "--outputs", str(samples), "--jsonl"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 4: Expecting value")


def test_malformed_model_and_csv_files_are_data_errors(tmp_path, capsys):
    models = {
        '[1, 2]': "error: model file holds a JSON list, not an object",
        '{"format": 1}': "error: model file lacks order, alpha, alphabet, counts, char_counts",
        '{"format": 1, "order": 1, "alpha": 0.1, "alphabet": "ab", "counts": {"ab": 3}, "char_counts": {}}':
            "error: model counts and char_counts must hold JSON objects",
        # a count outside the alphabet would pass its mass to the alphabet's last character
        '{"format": 1, "order": 1, "alpha": 0.1, "alphabet": "ab", "counts": {"a": {"b": 1}}, '
        '"char_counts": {"a": 1, "z": 1000}}': "error: model char_counts must count characters of the alphabet only",
    }
    model = tmp_path / "model.json"
    for text, message in models.items():
        model.write_text(text, encoding="utf-8")
        assert run(["sample", "--model", str(model), "--seed", "0"]) == 2
        assert capsys.readouterr() == ("", message + "\n")
    csv_path = tmp_path / "big.csv"
    rows = ["quizzes,solutions", f"{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}", "1" * 131_073 + ",2", ""]
    csv_path.write_text("\n".join(rows), encoding="utf-8")
    assert run(["ingest", "sudoku-csv", "--csv", str(csv_path), "--out", str(tmp_path / "o.txt")]) == 2
    assert capsys.readouterr() == ("", "error: line 3: field larger than field limit (131072)\n")
    assert not (tmp_path / "o.txt").exists()


# --- plumbing ---


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    out = capsys.readouterr().out
    assert "puzzletext" in out and "format" in out


def test_unknown_command_is_usage_error(capsys):
    assert run(["frobnicate"]) == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    assert run(["train", "--corpus", str(tmp_path / "nope.txt"), "--out", str(tmp_path / "m.json")]) == 2


# --- transcript ---


# One invocation per line, split on whitespace, run in order in one directory.
TRANSCRIPT = f"""
--help
--version
--bogus
frobnicate
gen --help
gen
gen --bogus
gen cube --help
gen cube
gen cube --bogus
gen sudoku --help
gen sudoku
gen sudoku --bogus
gen maze --help
gen maze
gen maze --bogus
ingest --help
ingest
ingest --bogus
ingest sudoku-csv --help
ingest sudoku-csv
ingest sudoku-csv --bogus
split --help
split
split --bogus
solve --help
solve
solve --bogus
solve cube --help
solve cube
solve cube --bogus
solve sudoku --help
solve sudoku
solve sudoku --bogus
solve maze --help
solve maze --bogus
render --help
render
render --bogus
render cube --help
render cube
render cube --bogus
render sudoku --help
render sudoku
render sudoku --bogus
render maze --help
render maze
render maze --bogus
train --help
train
train --bogus
sample --help
sample
sample --bogus
score --help
score
score --bogus
score cube --help
score cube
score cube --bogus
score sudoku --help
score sudoku
score sudoku --bogus
score maze --help
score maze
score maze --bogus
gen cube --seed 7 --total 10 --max-scramble 5 --out cube.txt
gen cube --seed 7 --total 0 --out zero.txt
gen cube --seed 7 --total 7 --out bad.txt
gen cube --seed 7 --total x --out bad.txt
gen cube --seed 7 --total 5 --max-scramble 0 --out bad.txt
gen sudoku --seed 3 --total 2 --clue-min 34 --clue-max 35 --out sudoku.txt
gen sudoku --seed 3 --total 2 --clue-min 30 --clue-max 30 --allow-multiple --out multi.txt
gen sudoku --seed 3 --total 2 --clue-min 10 --out bad.txt
gen maze --seed 1 --total 6 --sizes 4x4,5x5 --out maze.txt
gen maze --seed 1 --total 2 --out default.txt
gen maze --seed 1 --total 2 --sizes 1x4 --out bad.txt
gen maze --seed 1 --total 2 --sizes 4x --out bad.txt
gen maze --seed 1 --total 2 --sizes axb --out bad.txt
gen maze --seed 1 --total 2 --sizes 4x4,5 --out bad.txt
gen maze --seed x --out bad.txt
gen maze --seed 1 --jobs x --out bad.txt
ingest sudoku-csv --csv games.csv --out ingested.txt
ingest sudoku-csv --csv noheader.csv --out bad.txt
ingest sudoku-csv --csv missing.csv --out bad.txt
split --in cube.txt --seed 2 --train-out train.txt --test-out test.txt
split --in cube.txt --seed 2 --test-fraction 0.5 --train-out train5.txt --test-out test5.txt
split --in cube.txt --seed 2 --test-fraction 1.5 --train-out t.txt --test-out u.txt
split --in cube.txt --seed 2 --test-fraction inf --train-out t.txt --test-out u.txt
split --in missing.txt --seed 2 --train-out t.txt --test-out u.txt
split --in maze.txt --seed 2 --train-out maze_train.txt --test-out maze_test.txt
solve cube --state {SOLVED_FACELETS}
solve cube --state {scrambled("R")}
solve cube --state {scrambled("R U F")} --max-depth 2
solve cube --state {scrambled("R")} --max-depth -1
solve cube --state UUU
solve sudoku --grid {SAMPLE_SUDOKU_PUZZLE}
solve sudoku --grid 123
solve sudoku --grid {"55" + "0" * 79}
solve maze --in maze_unsolved.txt
solve maze --in maze_unsolved.txt --strategy dfs
solve maze --in maze_unsolved.txt --strategy astar
solve maze --in bad_maze.txt
solve maze --in missing.txt
render cube --state {scrambled("R U")}
render cube --state UUU
render sudoku --grid {SAMPLE_SUDOKU_PUZZLE}
render sudoku --grid {"5000500" + "0" * 74} --mark-violations
render sudoku --grid 12x
render maze --seed 4
render maze --seed 4 --width 3 --height 2 --solved
render maze --seed 4 --width 1
train --corpus maze.txt --order 3 --out model.json
train --corpus maze.txt --order 2 --alpha 0.5 --out model2.json
train --corpus empty.txt --out bad.json
train --corpus maze.txt --alpha 0 --out bad.json
train --corpus maze.txt --order 3 --alpha inf --out inf_model.json
train --corpus maze.txt --order -1 --out bad.json
train --corpus missing.txt --out bad.json
sample --model model.json --seed 0 --count 2 --max-chars 60 --prompt <|startoftext|>[WP]
sample --model model.json --seed 0 --count 3 --max-chars 80 --prompt-file prompt.txt --out samples.jsonl --jsonl
sample --model model.json --seed 5 --count 2 --max-chars 60 --temperature 0.5 --out samples.txt
sample --model model.json --seed 0 --count 0 --out zero_samples.txt
sample --model model.json --seed 0 --max-chars 0
sample --model model.json --seed 0 --temperature 0
sample --model model.json --seed 0 --max-chars 20 --temperature inf
sample --model missing.json --seed 0
sample --model model.json --seed 0 --count x
score cube --prompts cube_prompts.txt --outputs cube_outputs.txt
score cube --prompts cube_prompts.txt --outputs cube_outputs.txt --max-chars 2 --json cube_report.json --meta cube_meta.jsonl
score cube --prompts cube_prompts.txt --outputs cube_short.txt
score cube --prompts cube_prompts.txt --outputs cube_outputs.txt --max-chars 0
score cube --prompts cube_prompts.txt --outputs cube_outputs.txt --meta meta_short.jsonl
score cube --prompts missing.txt --outputs cube_outputs.txt
score sudoku --prompts sudoku_prompts.txt --outputs sudoku_outputs.txt
score sudoku --prompts sudoku_prompts.txt --outputs sudoku_outputs.txt --lenient-clues --json sudoku_report.json
score maze --outputs maze.txt --meta maze.txt.meta.jsonl --json maze_report.json
score maze --outputs samples.jsonl --jsonl
score maze --outputs nonstring.jsonl --jsonl
score maze --outputs badjson.jsonl --jsonl
score maze --outputs empty.txt
score maze --outputs maze.txt --meta meta_short.jsonl
"""

TRANSCRIPT_INPUTS = {
    "games.csv": f"quizzes,solutions\n{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\n123,456\n",
    "noheader.csv": f"{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\n",
    "maze_unsolved.txt": render_maze(generate_maze(4, 4, 4)) + "\n",
    "bad_maze.txt": "not a maze\n",
    "empty.txt": "",
    "prompt.txt": "<|startoftext|>[WP]\n",
    "cube_prompts.txt": f"{scrambled('R')}\n{scrambled('R U')}\nXYZ\n{scrambled('F2')}\n",
    "cube_outputs.txt": "R'\nU' R'\nR R\nQ\n",
    "cube_short.txt": "R'\n",
    "cube_meta.jsonl": "".join(
        json.dumps({"kind": "cube", "seed": 1, "scramble_length": n}) + "\n" for n in (1, 2, 1)),
    "meta_short.jsonl": '{"kind": "cube", "scramble_length": 1}\n',
    "sudoku_prompts.txt": f"{SAMPLE_SUDOKU_PUZZLE}\n" * 2 + f"123\n{SAMPLE_SUDOKU_PUZZLE}\n" * 2,
    "sudoku_outputs.txt": f"{SAMPLE_SUDOKU_SOLUTION}\n{SAMPLE_SUDOKU_PUZZLE}\n{SAMPLE_SUDOKU_SOLUTION}\njunk\n"
    f"{SAMPLE_SUDOKU_SOLUTION}\n{OTHER_SOLVED_SUDOKU}\n",
    "nonstring.jsonl": '"not a maze"\n123\n',
    "badjson.jsonl": '"not a maze"\n{not json\n',
}

# sha256 of the transcript below. Re-recorded when out-of-range numeric flags became
# usage errors: only those eight invocations changed (exit 2 -> 1, message names the flag).
# Re-recorded when float flags had to be finite: `train --alpha inf` and
# `sample --temperature inf` became usage errors, so inf_model.json is never
# written.
# Re-recorded when `--jobs` was removed and `--clue-min`, `--clue-max` and `render maze
# --width` got ranges: the `gen <kind>` usage and help texts lost `--jobs`, `--jobs x` is
# now an unrecognized argument, and `--clue-min 10` and `--width 1` became usage errors.
# Re-recorded when the depth-first solver and `solve maze --strategy` were removed: only
# `solve maze --help`, `--strategy dfs` and `--strategy astar` changed; the last two are
# now unrecognized arguments.
# Re-recorded when `score cube --max-chars` and `score sudoku --lenient-clues` were
# removed: the `score cube` and `score sudoku` usage and help texts lost the flag, and
# the three invocations that pass one are now unrecognized arguments, so
# cube_report.json and sudoku_report.json are never written.
PINNED_TRANSCRIPT_SHA256 = "f292da6f2788b83e2736d9b19d0241a3b7d07808912919701d49177f90aa9d13"


def test_cli_transcript_is_pinned(tmp_path, monkeypatch, capsys):
    """Exit code, stdout, stderr and every file in the directory after each
    invocation; usage errors, help and data errors included."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    for name, text in TRANSCRIPT_INPUTS.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    digest = hashlib.sha256()
    for line in ["", *TRANSCRIPT.strip().split("\n")]:  # "" runs with no arguments
        code = run(line.split())
        out, err = capsys.readouterr()
        digest.update(f"$ {line}\n{code}\n{out}\n{err}\n".encode())
        for path in sorted(tmp_path.iterdir()):
            digest.update(path.name.encode() + b"\n" + path.read_bytes() + b"\n")
    assert digest.hexdigest() == PINNED_TRANSCRIPT_SHA256
