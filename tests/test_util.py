import os

import pytest

from puzzletext._util import atomic_write_text, atomic_writer


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
