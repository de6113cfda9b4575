"""The benchmark workloads: CLI steps, seeded inputs and output checks.

Every workload is a closed-loop batch job: one `puzzletext.cli.run(argv)`
call after the other inside one measured process. A check returns, per
step, the problems found in that step's outputs; an empty dict means every
output passed. Checks never run inside the timed region.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracle

PROMPT = "<|startoftext|>[WP]\n"


@dataclass(frozen=True)
class Step:
    name: str
    argv: list[str]
    outputs: list[str]  # files the step writes, relative to the work dir
    stdout: bool = False  # whether the printed output is part of the result


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: dict  # full-size inputs
    smoke_sizes: dict  # reduced inputs for the smoke test
    steps: Callable[[Path, Path, int, dict], list[Step]]  # (work, inputs, seed, sizes)
    prepare: Callable[[Path, int, dict, "Context"], None] | None
    check: Callable[[Path, Path, int, dict, dict, "Context"], dict[str, list[str]]]


@dataclass
class Context:
    """What checks and input preparation share: the oracles and the program
    (imported only outside the measured process)."""

    cube: oracle.CubeOracle
    program: object  # the puzzletext package


def _lines(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    return text.split("\n")[:-1] if text.endswith("\n") else text.split("\n")


def _single_line_records(path: Path) -> list[tuple[str, str]]:
    head, mid, tail = f"{oracle.START}{oracle.PROMPT_TAG} ", f" {oracle.RESPONSE_TAG} ", f" {oracle.END}"
    pairs = []
    for line in _lines(path):
        if not (line.startswith(head) and line.endswith(tail) and mid in line):
            raise ValueError(f"bad record framing: {line[:60]!r}")
        prompt, _, response = line[len(head): -len(tail)].partition(mid)
        pairs.append((prompt, response))
    return pairs


def _meta(path: Path) -> list[dict]:
    return [json.loads(line) for line in _lines(path)]


def _problems(out: dict, step: str, ok: bool, message: str) -> None:
    if not ok:
        out.setdefault(step, []).append(message)


def _report_checks(out, step, work, report_name, stdout, total):
    report = json.loads((work / report_name).read_text(encoding="utf-8"))
    _problems(out, step, report["total"] == total, f"report total {report['total']} != {total}")
    _problems(out, step, sum(report["counts"].values()) == total, "report counts do not sum to total")
    _problems(out, step, stdout.startswith(f"total samples: {total}\n"), "printed report header")
    return report


# ------------------------------------------------------------ maze_loop

def _maze_loop_steps(work, inputs, seed, sizes):
    corpus, model, samples = str(work / "maze.txt"), str(work / "model.json"), str(work / "samples.jsonl")
    return [
        Step("gen maze", ["gen", "maze", "--seed", str(seed), "--total", str(sizes["mazes"]),
                          "--sizes", "4x4,5x5", "--out", corpus], ["maze.txt", "maze.txt.meta.jsonl"]),
        Step("train", ["train", "--corpus", corpus, "--order", "6", "--alpha", "0.1", "--out", model],
             ["model.json"]),
        Step("sample", ["sample", "--model", model, "--seed", str(seed), "--count", str(sizes["samples"]),
                        "--max-chars", "1024", "--prompt-file", str(inputs / "prompt.txt"),
                        "--out", samples, "--jsonl"], ["samples.jsonl"]),
        Step("score maze", ["score", "maze", "--outputs", samples, "--jsonl",
                            "--json", str(work / "report.json")], ["report.json"], stdout=True),
    ]


def _maze_loop_prepare(inputs, seed, sizes, ctx):
    (inputs / "prompt.txt").write_text(PROMPT, encoding="utf-8")


def _maze_loop_check(work, inputs, seed, sizes, stdouts, ctx):
    out: dict[str, list[str]] = {}
    evaluate = ctx.program.evaluate
    text = (work / "maze.txt").read_text(encoding="utf-8")
    parts = text.split(oracle.END)
    records = [p.lstrip("\n") + oracle.END for p in parts[:-1]]
    _problems(out, "gen maze", parts[-1] == "\n", "corpus does not end after the last record")
    _problems(out, "gen maze", len(records) == sizes["mazes"], f"{len(records)} maze records")
    wrong = sum(evaluate.classify_maze(r).status != oracle.CORRECT for r in records)
    _problems(out, "gen maze", not wrong, f"{wrong} generated mazes do not classify correct")
    meta = _meta(work / "maze.txt.meta.jsonl")
    _problems(out, "gen maze", len(meta) == len(records)
              and all(m["kind"] == "maze" and (m["width"], m["height"]) in ((4, 4), (5, 5)) for m in meta),
              "meta sidecar rows")

    model = json.loads((work / "model.json").read_text(encoding="utf-8"))
    _problems(out, "train", (model["format"], model["order"], model["alpha"]) == (1, 6, 0.1), "model header")
    _problems(out, "train", set(model["alphabet"]) == set(text), "model alphabet differs from corpus")
    transitions = sum(sum(bucket.values()) for bucket in model["counts"].values())
    _problems(out, "train", transitions == len(text) - 6, "model transition count")

    samples = [json.loads(line) for line in _lines(work / "samples.jsonl")]
    _problems(out, "sample", len(samples) == sizes["samples"], f"{len(samples)} samples")
    alphabet = set(model["alphabet"])
    for s in samples:
        body = s[len(PROMPT):]
        ok = (s.startswith(PROMPT) and 0 < len(body) <= 1024 and set(body) <= alphabet
              and (oracle.END not in body or body.endswith(oracle.END)))
        _problems(out, "sample", ok, "sample breaks the prompt, budget, alphabet or end-token rule")

    report = _report_checks(out, "score maze", work, "report.json", stdouts["score maze"], len(samples))
    counts = {oracle.INVALID: 0, oracle.INCORRECT: 0, oracle.CORRECT: 0}
    for s in samples:
        counts[evaluate.classify_maze(s).status] += 1
    _problems(out, "score maze", report["counts"] == counts, "report counts differ from per-sample verdicts")
    return out


# ---------------------------------------------------------- cube_corpus

def _cube_steps(work, inputs, seed, sizes):
    corpus = str(work / "cube.txt")
    return [
        Step("gen cube", ["gen", "cube", "--seed", str(seed), "--total", str(sizes["cubes"]),
                          "--max-scramble", "5", "--out", corpus], ["cube.txt", "cube.txt.meta.jsonl"]),
        Step("split", ["split", "--in", corpus, "--seed", str(seed), "--test-fraction", "0.2",
                       "--train-out", str(work / "train.txt"), "--test-out", str(work / "test.txt")],
             ["train.txt", "test.txt"]),
    ]


def _cube_check(work, inputs, seed, sizes, stdouts, ctx):
    out: dict[str, list[str]] = {}
    records = _single_line_records(work / "cube.txt")
    meta = _meta(work / "cube.txt.meta.jsonl")
    _problems(out, "gen cube", len(records) == len(meta) == sizes["cubes"], "record or meta count")
    bad = 0
    for (state, formula), row in zip(records, meta):
        moves = formula.split()
        bad += not (ctx.cube.apply(state, moves) == oracle.SOLVED and len(moves) <= row["scramble_length"])
    _problems(out, "gen cube", not bad, f"{bad} responses do not solve their prompt within the scramble length")

    unique = {}
    for line in _lines(work / "cube.txt"):
        unique.setdefault(line.split(" ")[1], line)
    train, test = _lines(work / "train.txt"), _lines(work / "test.txt")
    _problems(out, "split", sorted(train + test) == sorted(unique.values()),
              "train + test is not the deduplicated corpus")
    _problems(out, "split", len(test) == int(len(unique) * 0.2 + 0.5), "test share")
    return out


# -------------------------------------------------------------- referee

_REFEREE_CASES = {"cube": oracle.CUBE_CASES, "sudoku": oracle.SUDOKU_CASES, "maze": oracle.MAZE_CASES}


def _referee_steps(work, inputs, seed, sizes):
    steps = []
    for kind in ("cube", "sudoku"):
        steps.append(Step(f"score {kind}", [
            "score", kind, "--prompts", str(inputs / f"{kind}_prompts.txt"),
            "--outputs", str(inputs / f"{kind}_outputs.txt"), "--meta", str(inputs / f"{kind}_meta.jsonl"),
            "--json", str(work / f"{kind}_report.json")], [f"{kind}_report.json"], stdout=True))
    steps.append(Step("score maze", [
        "score", "maze", "--outputs", str(inputs / "maze_outputs.txt"),
        "--meta", str(inputs / "maze_meta.jsonl"), "--json", str(work / "maze_report.json")],
        ["maze_report.json"], stdout=True))
    return steps


def _referee_prepare(inputs, seed, sizes, ctx):
    for name, text in oracle.build_referee_inputs(seed, sizes, ctx.cube).items():
        (inputs / name).write_text(text, encoding="utf-8")


def _referee_check(work, inputs, seed, sizes, stdouts, ctx):
    out: dict[str, list[str]] = {}
    for kind, cases in _REFEREE_CASES.items():
        step, total = f"score {kind}", sizes[f"{kind}_outputs"]
        report = _report_checks(out, step, work, f"{kind}_report.json", stdouts[step], total)
        got = report["breakdown"].get("case", {})
        for case, want in oracle.expected_case_counts(cases, total).items():
            have = {cls: got.get(case, {}).get(cls, 0) for cls in want}
            _problems(out, step, have == want, f"case {case}: verdicts {have}, built for {want}")
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "maze_loop",
            "C8 pipeline gen maze -> train -> sample -> score: maze write side and markov do the work, "
            "the scorer is nearly idle",
            {"mazes": 10000, "samples": 200}, {"mazes": 200, "samples": 5},
            _maze_loop_steps, _maze_loop_prepare, _maze_loop_check,
        ),
        Workload(
            "cube_corpus",
            "gen cube then split: IDA* solving in cube_solver does most of the work, split re-reads the corpus",
            {"cubes": 10000}, {"cubes": 100},
            _cube_steps, None, _cube_check,
        ),
        Workload(
            "referee",
            "score cube, sudoku and maze outputs built by the benchmark: evaluate and the read-side parsers",
            {"cube_outputs": 10000, "sudoku_outputs": 8000, "maze_outputs": 8000},
            {"cube_outputs": 20, "sudoku_outputs": 21, "maze_outputs": 18},
            _referee_steps, _referee_prepare, _referee_check,
        ),
    )
}
