import io
import os

import pytest

from puzzletext import _util, corpus, cube, markov, maze, sudoku
from puzzletext._util import PIECE_CHARS, Counted, atomic_write_text, atomic_writer, read_lines, read_pieces


def test_write_creates_file_with_plain_open_mode(tmp_path):
    target = tmp_path / "out.txt"
    plain = tmp_path / "plain.txt"
    atomic_write_text(target, "hello\n")
    plain.write_text("hello\n", encoding="utf-8")
    assert target.read_text(encoding="utf-8") == "hello\n"
    assert os.stat(target).st_mode == os.stat(plain).st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", "plain.txt"]


def test_failed_write_keeps_old_contents_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write_text(target, "new \ud800\n")  # lone surrogate cannot encode
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_does_not_touch_a_stale_fixed_name_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    stale = tmp_path / "out.txt.tmp"
    stale.write_text("another writer\n", encoding="utf-8")
    atomic_write_text(target, "mine\n")
    assert stale.read_text(encoding="utf-8") == "another writer\n"
    assert target.read_text(encoding="utf-8") == "mine\n"


def test_writer_failing_midway_keeps_old_contents_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "old\n")
    with pytest.raises(RuntimeError, match="stream broke"):
        with atomic_writer(target) as handle:
            handle.write("new line\n" * 10_000)  # past the buffer, so the temp file has bytes
            raise RuntimeError("stream broke")
    assert target.read_text(encoding="utf-8") == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("edge", ["\u00e9", "\u20ac", "\U0001f600", "\r\n"])
def test_read_pieces_keeps_a_character_or_crlf_across_a_piece_edge(tmp_path, edge):
    # the edge's first character ends the first piece, and a multi-byte one
    # has its bytes cross byte 65,536; more multi-byte characters follow
    text = "a" * (PIECE_CHARS - 1) + edge + "\u00e9b\r" * 30_000 + edge
    path = tmp_path / "text.txt"
    path.write_bytes(text.encode("utf-8"))
    pieces = list(read_pieces(path))
    assert "".join(pieces) == text
    assert [len(piece) for piece in pieces[:-1]] == [PIECE_CHARS] * (len(pieces) - 1)
    assert pieces[0].endswith(edge[0]) and pieces[1].startswith(edge[1:])
    assert list(read_pieces(io.StringIO(text))) == pieces


@pytest.mark.parametrize("text", ["", "\n", "a", "ab\n", "\n\nabc\n\nd", "abcdefgh\n\n\n", "x\ny\r\nz\n\n"])
def test_read_lines_splits_like_str_split_across_piece_edges(tmp_path, monkeypatch, text):
    path = tmp_path / "text.txt"
    path.write_bytes(text.encode("utf-8"))
    for chars in (1, 2, 3):
        monkeypatch.setattr(_util, "PIECE_CHARS", chars)
        assert list(read_lines(path)) == text.split("\n")
        assert list(read_lines(io.StringIO(text))) == text.split("\n")


def test_counted_measures_what_has_been_read():
    pieces = Counted(iter(["ab", "", "cde"]), len)
    assert len(pieces) == 0
    assert list(pieces) == ["ab", "", "cde"]
    assert len(pieces) == 5
    items = Counted(x for x in "xyz")
    assert next(iter(items)) == "x" and len(items) == 1


def test_every_seeded_entry_point_refuses_a_negative_rng_seed():
    # random.Random seeds by the absolute value, so -3 would repeat seed 3
    def unread():
        raise AssertionError("records read before the seed was checked")
        yield

    model = markov.train("ab", 1, 0.1)
    draw = markov.sampler(model)
    calls = [
        lambda: maze.generate_solved_maze(-3, 4, 4),
        lambda: maze.generate_maze(-3, 4, 4),
        lambda: cube.random_scramble(-3, 5),
        lambda: sudoku.generate_puzzle(-3, 30),
        # the lazy builders raise before they return
        lambda: corpus.build_cube_corpus(-3, 5, 5),
        lambda: corpus.build_sudoku_corpus(-3, 5),
        lambda: corpus.build_maze_corpus(-3, 5),
        lambda: corpus.dedup_and_split(unread(), -3, 0.5),
        lambda: draw("a", 5, -3),
        lambda: markov.sample(model, "a", 5, -3),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^rng_seed must be at least 0, got -3$"):
            call()
