"""Command-line entry point.

Subcommands map one-to-one onto the library: `gen` builds seeded corpora
(with a JSON-lines metadata sidecar next to each corpus file), `ingest`
converts an external sudoku CSV, `split` dedups and splits a corpus,
`solve` and `render` work on single puzzles, `train`/`sample` drive the
character-level baseline model, and `score` classifies model outputs and
emits a report. Exit codes: 0 success, 1 usage error, 2 data error. Data
goes to stdout or files; diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from string import whitespace

from . import __version__
from ._util import Counted, atomic_write_text, read_pieces
from . import corpus as corpus_mod
from . import evaluate as evaluate_mod
from . import markov as markov_mod
from . import maze as maze_mod
from . import sudoku as sudoku_mod
from .cube import decode_facelets, format_formula, render_cube_net
from .cube_solver import solve as solve_cube

FORMAT_VERSION = 1


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # each flag has one spelling: no prefix such as `--prompt` stands for `--prompt-file`
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(f"{self.format_usage().rstrip()}\n{self.prog}: error: {message}")

    def parse_known_args(self, args=None, namespace=None):
        # A subcommand's parser reads every argument after its name, so what it leaves is
        # unknown: report it with the subcommand's usage, not the root's.
        namespace, extras = super().parse_known_args(args, namespace)
        if extras and self._subparsers is None:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def _check_value(self, action, value):
        # Later argparse releases format the value with str() and no longer quote the
        # choices; build the message here so usage errors read the same on every Python.
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise argparse.ArgumentError(action, f"invalid choice: {value!r} (choose from {choices})")


def _number(convert, low, *, strict=False, below=None):
    """argparse type: `convert(text)` (int or float) no smaller than `low`,
    greater than it if `strict`, and less than `below` if given. NaN fails
    every bound, and infinity is refused as not finite. Each number has one
    spelling: an int only as str() writes it, so `+3`, ` 3`, `03`, `-0`,
    `٣` and `1_0` are invalid values, and a float only in ASCII without an
    underscore, a leading `+` or surrounding whitespace."""
    bound = f"{'greater than' if strict else 'at least'} {low}"
    if below is not None:
        bound += f" and less than {below}"

    def parse(text: str):
        value = convert(text)
        if convert is int:
            spelled = str(value) == text
        else:
            spelled = text.isascii() and "_" not in text and text[:1] != "+" and text == text.strip()
        if not spelled:
            raise ValueError(text)  # argparse reports "invalid int value: '+3'"
        in_range = (low < value if strict else low <= value) and (below is None or value < below)
        if not in_range:
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        if value == math.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {value}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in "invalid int value: 'x'"
    return parse


def _parse_sizes(text: str) -> list[tuple[int, int]]:
    """argparse type for --sizes: a comma-separated list of WxH entries,
    each side written in ASCII digits."""
    sizes = []
    for part in text.split(","):
        w, _, h = part.strip(whitespace).partition("x")
        if not all(side.isascii() and side.isdigit() for side in (w, h)):
            raise argparse.ArgumentTypeError(f"invalid maze size {part!r} (expected WxH)")
        sizes.append((int(w), int(h)))
    return sizes


def _cmd_gen(args) -> int:
    count = corpus_mod.write_corpus_and_meta(args.build(args), args.out)
    print(f"wrote {count} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_ingest_sudoku_csv(args) -> int:
    issues = []
    records = corpus_mod.ingest_sudoku_csv(args.csv, issues)
    count = corpus_mod.write_corpus_and_meta(records, args.out)
    for issue in issues:
        print(f"rejected line {issue.line}: {issue.reason}", file=sys.stderr)
    print(f"wrote {count} records to {args.out}", file=sys.stderr)
    return 0


def _cmd_split(args) -> int:
    if Path(args.train_out).resolve() == Path(args.test_out).resolve():
        # the test side would overwrite the train side
        raise ValueError(f"--train-out and --test-out name the same file: {args.train_out}, {args.test_out}")
    chunks = corpus_mod.split_framed_stream(read_pieces(args.in_path))
    records = Counted(map(corpus_mod.parse_record, chunks))
    split = corpus_mod.dedup_and_split(records, args.seed, args.test_fraction)
    corpus_mod.write_corpus(split.train, args.train_out)
    corpus_mod.write_corpus(split.test, args.test_out)
    print(
        f"{len(records)} records -> {len(split.train)} train + {len(split.test)} test",
        file=sys.stderr,
    )
    return 0


def _cmd_solve_cube(args) -> int:
    cube = decode_facelets(args.state)
    formula = solve_cube(cube, max_depth=args.max_depth)
    print(format_formula(formula))
    return 0


def _cmd_solve_sudoku(args) -> int:
    grid = sudoku_mod.parse_grid81(args.grid)
    print(sudoku_mod.format_grid81(sudoku_mod.solve_sudoku(grid)))
    return 0


def _read_pieces(path: str) -> Counted:
    """The text of `path` (stdin for "-") in pieces; len() is the characters read."""
    return Counted(read_pieces(sys.stdin if path == "-" else path), len)


def _cmd_solve_maze(args) -> int:
    maze, _ = maze_mod.parse_maze("".join(_read_pieces(args.in_path)))
    path = maze_mod.solve_maze(maze)
    print(maze_mod.render_maze(maze, path))
    return 0


def _cmd_render_cube(args) -> int:
    print(render_cube_net(decode_facelets(args.state)))
    return 0


def _cmd_render_sudoku(args) -> int:
    print(sudoku_mod.render_sudoku(sudoku_mod.parse_grid81(args.grid)))
    return 0


def _cmd_render_maze(args) -> int:
    maze, path = maze_mod.generate_solved_maze(args.seed, args.width, args.height)
    print(maze_mod.render_maze(maze, path if args.solved else None))
    return 0


def _cmd_train(args) -> int:
    model = markov_mod.train(_read_pieces(args.corpus), args.order, args.alpha)
    markov_mod.save_model(model, args.out)
    print(
        f"trained order-{args.order} model on {len(model['counts'])} contexts -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_sample(args) -> int:
    model = markov_mod.load_model(args.model)
    prompt = "".join(_read_pieces(args.prompt_file)) if args.prompt_file else ""
    draw = markov_mod.sampler(model, args.temperature)
    samples = [prompt + draw(prompt, args.max_chars, args.seed + i) for i in range(args.count)]
    lines = [json.dumps(s) for s in samples] if args.jsonl else samples
    text = "".join(line + "\n" for line in lines)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.count} samples to {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_score(args) -> int:
    verdicts, issues = evaluate_mod.ingest_external_outputs(
        args.prompts, args.outputs, args.kind, jsonl=args.jsonl
    )
    for issue in issues:
        print(f"skipped line {issue.line}: {issue.reason}", file=sys.stderr)
    params = corpus_mod.read_json_lines(args.meta, dict) if args.meta else None
    report = evaluate_mod.aggregate(verdicts, params)
    print(evaluate_mod.format_report(report))
    if args.json:
        atomic_write_text(args.json, json.dumps(report, sort_keys=True, indent=2) + "\n")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="puzzletext", description=__doc__)
    parser.add_argument(
        "--version",
        action="version",
        version=f"puzzletext {__version__} (format {FORMAT_VERSION})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded corpus").add_subparsers(
        dest="kind", required=True
    )

    def add_gen(kind, summary, total, build, *flags):
        # `build` looks its builder up on each call, so a wrapped builder is the one run
        g = gen.add_parser(kind, help=summary)
        g.add_argument("--seed", type=_number(int, 0), required=True)
        g.add_argument("--total", type=_number(int, 0), default=total)
        for flag, options in flags:
            g.add_argument(flag, **options)
        g.add_argument("--out", required=True)
        g.set_defaults(func=_cmd_gen, build=build)

    add_gen(
        "cube", "cube scramble/solution pairs", 5000,
        lambda a: corpus_mod.build_cube_corpus(a.seed, a.total, a.max_scramble),
        ("--max-scramble", dict(type=_number(int, 1), default=5)),
    )
    clues = _number(int, sudoku_mod.MIN_CLUES, below=sudoku_mod.MAX_CLUES + 1)
    add_gen(
        "sudoku", "sudoku puzzle/solution pairs", 1000,
        lambda a: corpus_mod.build_sudoku_corpus(a.seed, a.total, (a.clue_min, a.clue_max)),
        ("--clue-min", dict(type=clues, default=25, metavar="CLUES",
                            help="17..80; 23 is the practical floor for a unique puzzle")),
        ("--clue-max", dict(type=clues, default=35, metavar="CLUES")),
    )
    add_gen(
        "maze", "unsolved/solved maze render pairs", 10000,
        lambda a: corpus_mod.build_maze_corpus(a.seed, a.total, a.sizes),
        ("--sizes", dict(type=_parse_sizes, default="4x4,5x5", help="comma-separated WxH list")),
    )

    ingest = sub.add_parser("ingest", help="ingest an external dataset").add_subparsers(
        dest="source", required=True
    )
    g = ingest.add_parser("sudoku-csv", help="CSV with quizzes,solutions columns")
    g.add_argument("--csv", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_ingest_sudoku_csv)

    g = sub.add_parser("split", help="dedup a corpus and split train/test")
    g.add_argument("--in", dest="in_path", required=True)
    g.add_argument("--seed", type=_number(int, 0), required=True)
    g.add_argument("--test-fraction", type=_number(float, 0, strict=True, below=1), default=0.2)
    g.add_argument("--train-out", required=True)
    g.add_argument("--test-out", required=True)
    g.set_defaults(func=_cmd_split)

    solve = sub.add_parser("solve", help="solve a single puzzle").add_subparsers(
        dest="kind", required=True
    )
    g = solve.add_parser("cube")
    g.add_argument("--state", required=True, help="54-character cube string")
    g.add_argument("--max-depth", type=_number(int, 0), default=6)
    g.set_defaults(func=_cmd_solve_cube)
    g = solve.add_parser("sudoku")
    g.add_argument("--grid", required=True, help="81-digit puzzle, 0 for blanks")
    g.set_defaults(func=_cmd_solve_sudoku)
    g = solve.add_parser("maze")
    g.add_argument("--in", dest="in_path", default="-", help="maze text file, - for stdin")
    g.set_defaults(func=_cmd_solve_maze)

    render = sub.add_parser("render", help="render a puzzle to text").add_subparsers(
        dest="kind", required=True
    )
    g = render.add_parser("cube")
    g.add_argument("--state", required=True)
    g.set_defaults(func=_cmd_render_cube)
    g = render.add_parser("sudoku")
    g.add_argument("--grid", required=True)
    g.set_defaults(func=_cmd_render_sudoku)
    g = render.add_parser("maze")
    g.add_argument("--seed", type=_number(int, 0), required=True)
    g.add_argument("--width", type=_number(int, 2), default=5)
    g.add_argument("--height", type=_number(int, 2), default=5)
    g.add_argument("--solved", action="store_true")
    g.set_defaults(func=_cmd_render_maze)

    g = sub.add_parser("train", help="train the character-level baseline")
    g.add_argument("--corpus", required=True)
    g.add_argument("--order", type=_number(int, 0), default=6)
    g.add_argument("--alpha", type=_number(float, 0, strict=True), default=0.1)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_train)

    g = sub.add_parser("sample", help="draw seeded samples from a model")
    g.add_argument("--model", required=True)
    g.add_argument("--seed", type=_number(int, 0), required=True)
    g.add_argument("--count", type=_number(int, 0), default=1)
    g.add_argument("--max-chars", type=_number(int, 1), default=corpus_mod.DEFAULT_MAX_CHARS)
    g.add_argument("--temperature", type=_number(float, 0, strict=True), default=1.0)
    g.add_argument("--prompt-file", default=None, help="prompt text file, - for stdin")
    g.add_argument("--out", default=None)
    g.add_argument("--jsonl", action="store_true", help="one JSON-encoded sample per line")
    g.set_defaults(func=_cmd_sample)

    score = sub.add_parser("score", help="classify model outputs").add_subparsers(
        dest="kind", required=True
    )

    def add_score(kind, *flags, prompts=True):
        g = score.add_parser(kind)
        if prompts:
            g.add_argument("--prompts", required=True)
        g.add_argument("--outputs", required=True)
        for flag, options in flags:
            g.add_argument(flag, **options)
        g.add_argument("--json", default=None)
        g.add_argument("--meta", default=None)
        g.set_defaults(func=_cmd_score, prompts=None, jsonl=False)

    add_score("cube")
    add_score("sudoku")
    add_score("maze", ("--jsonl", dict(action="store_true")), prompts=False)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
