"""Small shared helpers."""
from __future__ import annotations

import os
from pathlib import Path


def read_text(path) -> str:
    """The file as UTF-8 with LF as the only line break; a CR stays in its line."""
    with open(path, encoding="utf-8", newline="") as handle:
        return handle.read()


def atomic_write_text(path, text: str) -> None:
    """Write via a uniquely named temp file in the same directory and rename
    into place, so a failed run leaves neither a partial file nor a temp
    file, and concurrent runs never share a temp file. The file gets the
    mode a plain open() gives it (0o666 less the umask)."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
