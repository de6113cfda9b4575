"""Small shared helpers."""
from __future__ import annotations

import os
import random
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from functools import partial
from pathlib import Path

PIECE_CHARS = 1 << 16  # read_pieces yields pieces of at most this many characters


def read_pieces(source) -> Iterator[str]:
    """The text of `source`, a path or an open text handle, in pieces of at
    most PIECE_CHARS characters that join to what one read() returns. A path
    is read as UTF-8 with LF as the only line break, so a CR stays in its
    line, and a character is never cut between pieces."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8", newline="") as handle:
            yield from iter(partial(handle.read, PIECE_CHARS), "")
    else:
        yield from iter(partial(source.read, PIECE_CHARS), "")


def split_pieces(stream: str | Iterable[str], separator: str) -> Iterator[str]:
    """What "".join(stream).split(separator) returns, one part at a time:
    the text after the last separator found is carried into the next piece."""
    held: list[str] = []  # the text after the last separator found, in pieces
    held_chars = rest_chars = 0
    for piece in (stream,) if isinstance(stream, str) else stream:
        held.append(piece)
        held_chars += len(piece)
        if held_chars < 2 * rest_chars:
            continue  # a part longer than the pieces: join once it has doubled
        *parts, rest = "".join(held).split(separator)
        yield from parts
        held = [rest]
        held_chars = rest_chars = len(rest)
    yield from "".join(held).split(separator)


def read_lines(source) -> Iterator[str]:
    """What read_pieces(source) joined and split at "\n" gives, one line at a time."""
    return split_pieces(read_pieces(source), "\n")


def seeded_random(rng_seed: int) -> random.Random:
    """random.Random(rng_seed), which seeds by the absolute value; so a
    negative seed, which would repeat its positive twin, is refused."""
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be at least 0, got {rng_seed}")
    return random.Random(rng_seed)


class Counted:
    """One pass over `items` that adds up `size(item)` (1 by default) as it
    goes. len() is that sum so far: once the pass is over, it is the len()
    of the list (or, with size=len over text pieces, of the text) that the
    stream stands in for, as a caller that measures its input expects."""

    __slots__ = ("_items", "_size", "_total")

    def __init__(self, items: Iterable, size: Callable[..., int] | None = None):
        self._items = items
        self._size = size
        self._total = 0

    def __iter__(self) -> Iterator:
        size = self._size
        for item in self._items:
            self._total += 1 if size is None else size(item)
            yield item

    def __len__(self) -> int:
        return self._total


@contextmanager
def atomic_writer(path):
    """A UTF-8 text handle (LF written as is) on a uniquely named temp file
    in the same directory, renamed onto `path` when the block ends and
    removed if it raises. So a failed run leaves neither a partial file nor
    a temp file, and concurrent runs never share a temp file. The file gets
    the mode a plain open() gives it (0o666 less the umask)."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path, text: str) -> None:
    with atomic_writer(path) as handle:
        handle.write(text)
