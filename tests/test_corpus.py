import pytest

from conftest import SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION
from puzzletext.corpus import (
    DivisibilityError,
    FramingError,
    PuzzleRecord,
    RecordKindError,
    build_cube_corpus,
    build_maze_corpus,
    build_sudoku_corpus,
    canonical_key,
    corpus_text,
    dedup_and_split,
    ingest_sudoku_csv,
    parse_corpus_text,
    parse_record,
    read_corpus,
    serialize_record,
    split_framed_stream,
    write_corpus,
    write_corpus_and_meta,
    write_meta,
)
from puzzletext.cube import ALL_MOVES, SOLVED_FACELETS, apply_formula, apply_move, is_solved, parse_formula
from puzzletext.cube import decode_facelets
from puzzletext.maze import MazeSizeError, parse_maze, validate_path
from puzzletext.sudoku import count_solutions, find_violations, is_complete, parse_grid81


# --- record framing ---


def test_sudoku_record_framing_bytes():
    record = PuzzleRecord("sudoku", SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION)
    expected = (
        f"<|startoftext|>[WP] {SAMPLE_SUDOKU_PUZZLE} "
        f"[RESPONSE] {SAMPLE_SUDOKU_SOLUTION} <|endoftext|>"
    )
    assert serialize_record(record) == expected
    parsed = parse_record(expected)
    assert parsed.kind == "sudoku"
    assert parsed.prompt == SAMPLE_SUDOKU_PUZZLE
    assert parsed.response == SAMPLE_SUDOKU_SOLUTION


def test_round_trip_all_kinds():
    records = (
        list(build_cube_corpus(3, 5, 5))
        + list(build_sudoku_corpus(4, 2, (30, 34)))
        + list(build_maze_corpus(5, 2, [(4, 4)]))
    )
    for record in records:
        text = serialize_record(record)
        assert serialize_record(parse_record(text)) == text
        assert parse_record(text) == record  # meta excluded from equality


def test_maze_record_layout():
    (record,) = build_maze_corpus(6, 1, [(4, 4)])
    text = serialize_record(record)
    lines = text.split("\n")
    assert lines[0] == "<|startoftext|>[WP]"
    assert lines[-1] == "<|endoftext|>"
    assert "[RESPONSE]" in lines


def test_parse_record_missing_response_delimiter():
    with pytest.raises(FramingError):
        parse_record("<|startoftext|>[WP] abc def <|endoftext|>")


def test_parse_record_missing_framing():
    with pytest.raises(FramingError):
        parse_record("[WP] abc [RESPONSE] def <|endoftext|>")
    with pytest.raises(FramingError):
        parse_record("<|startoftext|>[WP] abc [RESPONSE] def")
    with pytest.raises(FramingError, match="multi-line record framing tokens need their own lines"):
        parse_record("<|startoftext|>[WP] +---+\n[RESPONSE]\n+---+\n<|endoftext|>")
    with pytest.raises(FramingError, match="single-line record needs spaces around the framing"):
        parse_record("<|startoftext|>[WP]abc [RESPONSE] def<|endoftext|>")


def test_parse_record_unknown_prompt_shape():
    with pytest.raises(RecordKindError):
        parse_record("<|startoftext|>[WP] 12345 [RESPONSE] 12345 <|endoftext|>")
    with pytest.raises(RecordKindError, match="unknown record kind 'chess'"):
        serialize_record(PuzzleRecord("chess", "12345", "12345"))


def test_parse_record_sudoku_prompt_is_ascii_digits_only():
    prompt = "\u0668" * 81  # ARABIC-INDIC DIGIT EIGHT passes str.isdigit
    with pytest.raises(RecordKindError):
        parse_record(f"<|startoftext|>[WP] {prompt} [RESPONSE] {SAMPLE_SUDOKU_SOLUTION} <|endoftext|>")


# --- cube corpus ---


def test_cube_corpus_counts_and_self_consistency():
    records = list(build_cube_corpus(7, 25, 5))
    assert len(records) == 25
    by_length = {}
    for record in records:
        by_length.setdefault(record.meta["scramble_length"], 0)
        by_length[record.meta["scramble_length"]] += 1
        state = decode_facelets(record.prompt)
        formula = parse_formula(record.response)
        assert len(formula) <= record.meta["scramble_length"]
        assert is_solved(apply_formula(state, formula))
    assert by_length == {1: 5, 2: 5, 3: 5, 4: 5, 5: 5}


def test_cube_corpus_deterministic():
    a = corpus_text(build_cube_corpus(42, 20, 5))
    b = corpus_text(build_cube_corpus(42, 20, 5))
    assert a == b


def test_cube_corpus_divisibility():
    with pytest.raises(DivisibilityError):
        build_cube_corpus(1, 7, 5)
    with pytest.raises(ValueError, match="max_scramble must be >= 1"):
        build_cube_corpus(1, 0, 0)


def test_single_move_states_number_eighteen():
    # the whole universe of length-1 prompts
    states = {apply_move(SOLVED_FACELETS, m) for m in ALL_MOVES}
    assert len(states) == 18
    records = build_cube_corpus(11, 60, 1)
    assert {r.prompt for r in records} <= states


# --- sudoku corpus ---


def test_sudoku_corpus_records_solve_their_prompts():
    records = build_sudoku_corpus(9, 3, (30, 35))
    for record in records:
        puzzle = parse_grid81(record.prompt)
        solution = parse_grid81(record.response)
        assert is_complete(solution)
        assert find_violations(solution) == []
        assert all(p == 0 or p == s for p, s in zip(puzzle, solution))
        assert count_solutions(puzzle, 2) == 1
        assert 30 <= record.meta["clues"] <= 35


def test_sudoku_corpus_deterministic():
    assert corpus_text(build_sudoku_corpus(2, 3, (32, 36))) == corpus_text(
        build_sudoku_corpus(2, 3, (32, 36))
    )


# --- maze corpus ---


def test_maze_corpus_sizes_cycle_and_paths_validate():
    records = list(build_maze_corpus(8, 6, [(4, 4), (5, 5)]))
    sizes = [(r.meta["width"], r.meta["height"]) for r in records]
    assert sizes.count((4, 4)) == 3 and sizes.count((5, 5)) == 3
    for record in records:
        prompt_maze, prompt_path = parse_maze(record.prompt)
        assert prompt_path is None
        solved_maze, path = parse_maze(record.response)
        assert solved_maze == prompt_maze
        assert validate_path(prompt_maze, path).ok


def test_maze_corpus_rejects_oversize():
    with pytest.raises(MazeSizeError):
        build_maze_corpus(1, 2, [(7, 7)])
    with pytest.raises(ValueError, match="need at least one maze size"):
        build_maze_corpus(1, 2, [])


# --- dedup and split ---


def _dummy_records(n):
    return [PuzzleRecord("sudoku", f"{i:081d}", "1" * 81) for i in range(n)]


def test_split_arithmetic():
    split = dedup_and_split(_dummy_records(10), 5, 0.2)
    assert len(split.train) == 8 and len(split.test) == 2


def test_split_deduplicates_on_prompt():
    records = _dummy_records(6)
    records.insert(3, records[0])  # duplicate prompt, later occurrence
    split = dedup_and_split(records, 1, 0.5)
    keys = [canonical_key(r) for r in split.train + split.test]
    assert len(keys) == 6
    assert len(set(keys)) == 6


def test_split_sides_disjoint_and_idempotent():
    records = build_cube_corpus(21, 40, 5)
    split = dedup_and_split(records, 3, 0.25)
    train_keys = {canonical_key(r) for r in split.train}
    test_keys = {canonical_key(r) for r in split.test}
    assert not train_keys & test_keys
    again = dedup_and_split(split.train + split.test, 3, 0.25)
    assert len(again.train) + len(again.test) == len(split.train) + len(split.test)


def test_split_deterministic():
    records = _dummy_records(20)
    a = dedup_and_split(records, 7, 0.3)
    b = dedup_and_split(records, 7, 0.3)
    assert a.train == b.train and a.test == b.test


def test_split_fraction_bounds():
    with pytest.raises(ValueError):
        dedup_and_split(_dummy_records(4), 1, 0.0)
    with pytest.raises(ValueError):
        dedup_and_split(_dummy_records(4), 1, 1.0)


# --- csv ingestion ---


def test_ingest_sudoku_csv(tmp_path):
    bad_solution = SAMPLE_SUDOKU_SOLUTION[:-1] + (
        "1" if SAMPLE_SUDOKU_SOLUTION[-1] != "1" else "2"
    )
    incomplete = "0" + SAMPLE_SUDOKU_SOLUTION[1:]
    relabelled = SAMPLE_SUDOKU_SOLUTION.translate(str.maketrans("12", "21"))  # valid, but not these clues
    csv_path = tmp_path / "games.csv"
    csv_path.write_text(
        "quizzes,solutions\n"
        f"{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\n"
        f"{SAMPLE_SUDOKU_PUZZLE[:-1]},{SAMPLE_SUDOKU_SOLUTION}\n"
        f"{SAMPLE_SUDOKU_PUZZLE},{bad_solution}\n"
        f"{SAMPLE_SUDOKU_PUZZLE},{incomplete}\n"
        f"{SAMPLE_SUDOKU_PUZZLE},{relabelled}\n",
        encoding="utf-8",
    )
    issues = []
    records = list(ingest_sudoku_csv(csv_path, issues))
    assert len(records) == 1
    assert records[0].prompt == SAMPLE_SUDOKU_PUZZLE
    assert [issue.line for issue in issues] == [3, 4, 5, 6]
    assert "81 characters" in issues[0].reason
    assert [issue.reason for issue in issues[1:]] == [
        "solution has repeated digits", "solution is incomplete", "solution conflicts with a puzzle clue"]


def test_ingest_strips_ascii_whitespace_only(tmp_path):
    csv_path = tmp_path / "games.csv"
    csv_path.write_text(
        "quizzes,solutions\n"
        f" {SAMPLE_SUDOKU_PUZZLE}\t,{SAMPLE_SUDOKU_SOLUTION} \n"
        f"\u3000{SAMPLE_SUDOKU_PUZZLE} ,{SAMPLE_SUDOKU_SOLUTION}\x1c\n"
        f"{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\x1c\n",
        encoding="utf-8",
    )
    issues = []
    records = list(ingest_sudoku_csv(csv_path, issues))
    assert [(r.prompt, r.response) for r in records] == [(SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION)]
    assert [issue.line for issue in issues] == [3, 4]


def test_ingest_skips_a_leading_byte_order_mark(tmp_path):
    csv_path = tmp_path / "games.csv"
    csv_path.write_text(f"quizzes,solutions\n{SAMPLE_SUDOKU_PUZZLE},{SAMPLE_SUDOKU_SOLUTION}\n", encoding="utf-8-sig")
    assert csv_path.read_bytes().startswith(b"\xef\xbb\xbfquizzes")
    issues = []
    records = list(ingest_sudoku_csv(csv_path, issues))
    assert [(r.prompt, r.response, r.meta) for r in records] == [
        (SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION, {"kind": "sudoku", "source_line": 2})]
    assert issues == []


def test_ingest_missing_file():
    with pytest.raises(FileNotFoundError):
        ingest_sudoku_csv("/nonexistent/games.csv")


def test_ingest_requires_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ingest_sudoku_csv(path)


# --- corpus files ---


def test_write_read_corpus_round_trip(tmp_path):
    records = (
        list(build_cube_corpus(13, 10, 5))
        + list(build_maze_corpus(14, 2, [(4, 4)]))
        + list(build_sudoku_corpus(12, 2, (30, 34)))
        + list(build_maze_corpus(11, 1, [(4, 4)]))
    )
    path = tmp_path / "corpus.txt"
    write_corpus(records, path)
    assert read_corpus(path) == records
    spaced = "\n\n" + "\n\n\n".join(serialize_record(r) for r in records) + "\n\n"
    assert parse_corpus_text(spaced) == records


def test_one_pass_writer_matches_the_separate_writers(tmp_path):
    records = list(build_cube_corpus(17, 5, 5)) + list(build_maze_corpus(18, 2, [(4, 4)]))
    records.append(PuzzleRecord("sudoku", SAMPLE_SUDOKU_PUZZLE, SAMPLE_SUDOKU_SOLUTION))  # empty meta
    assert write_corpus_and_meta(iter(records), tmp_path / "one.txt") == 8
    write_corpus(records, tmp_path / "two.txt")
    write_meta(records, tmp_path / "two.txt.meta.jsonl")
    for name in ("{}.txt", "{}.txt.meta.jsonl"):
        assert (tmp_path / name.format("one")).read_bytes() == (tmp_path / name.format("two")).read_bytes()
    assert (tmp_path / "one.txt").read_text(encoding="utf-8") == corpus_text(records)
    assert write_corpus_and_meta([], tmp_path / "empty.txt") == 0
    assert (tmp_path / "empty.txt").read_bytes() == (tmp_path / "empty.txt.meta.jsonl").read_bytes() == b""


def test_parse_corpus_text_rejects_unterminated():
    (record,) = build_maze_corpus(15, 1, [(4, 4)])
    text = serialize_record(record)
    with pytest.raises(FramingError):
        parse_corpus_text(text.rsplit("\n", 1)[0])


def test_parse_corpus_text_rejects_inner_start_line():
    (record,) = build_maze_corpus(15, 1, [(4, 4)])
    text = serialize_record(record).replace("\n[RESPONSE]\n", "\n<|startoftext|>x\n[RESPONSE]\n")
    with pytest.raises(FramingError):
        parse_corpus_text(text)


def test_split_framed_stream_isolates_chunks():
    (record,) = build_maze_corpus(16, 1, [(4, 4)])
    good = serialize_record(record)
    stream = "garbage preamble\n" + good + "\n" + good.rsplit("\n", 2)[0] + "\n"
    chunks = list(split_framed_stream(stream))
    assert len(chunks) == 3
    assert chunks[0] == "garbage preamble"
    assert chunks[1] == good
