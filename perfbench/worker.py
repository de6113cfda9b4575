"""Measured process: one fresh interpreter per repetition.

Set-up ends once `puzzletext.cli` is imported. With --probe the process
reports that moment and exits; otherwise child.py, imported only then, runs
the repetition described by the JSON spec in argv[1].
"""
import sys
import time

import puzzletext.cli

READY = time.perf_counter()

if __name__ == "__main__":
    if sys.argv[1:] == ["--probe"]:
        print(f'{{"ready": {READY!r}}}')
    else:
        import child

        child.main(READY, puzzletext.cli)
