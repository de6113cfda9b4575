"""In-memory spans around the program's public functions, and the per-layer
metrics computed from them.

`install` replaces each function in TRACED with a wrapper at every module
attribute of the package that holds it, so calls made through
`from .x import y` bindings are caught as well. A span is
(name, start, end, parent index, observation); spans stay in a list until
the measured process writes them out after the timed region.
"""
from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

LAYERS = ("cli", "_util", "corpus", "cube", "cube_solver", "sudoku", "maze", "markov", "evaluate")

# module -> {function: observation taken from (args, kwargs, result), or None}
TRACED = {
    "_util": {"atomic_write_text": lambda a, k, r: len((a[1] if len(a) > 1 else k["text"]).encode("utf-8"))},
    "corpus": dict.fromkeys((
        "build_cube_corpus", "build_maze_corpus", "corpus_text", "write_meta",
        "parse_corpus_text", "split_framed_stream")) | {
        "dedup_and_split": lambda a, k, r: (len(a[0]), len(r.train) + len(r.test))},
    "cube": dict.fromkeys(("random_scramble", "apply_formula", "parse_formula", "decode_facelets")),
    "cube_solver": {"solve": lambda a, k, r: len(r)},
    "sudoku": {"find_violations": lambda a, k, r: len(r), "parse_grid81": None},
    "maze": dict.fromkeys((
        "generate_maze", "solve_maze", "render_maze", "parse_maze", "validate_path", "path_prefix_length")),
    "markov": {
        "train": lambda a, k, r: len(a[0]),
        "sample": lambda a, k, r: len(r),
        "save_model": None,
        "load_model": None,
    },
    "evaluate": dict.fromkeys(("aggregate", "ingest_external_outputs", "format_report")) | {
        name: (lambda a, k, r: r.status) for name in ("classify_cube", "classify_sudoku", "classify_maze")},
}

CLI_COMMANDS = ("gen", "split", "train", "sample", "score")
KINDS = ("cube", "sudoku", "maze")
VERDICTS = ("invalid", "incorrect", "correct")


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name, fn, observe=None, name_of=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name_of(args) if name_of else name, start, end, parent, None)
            if observe is not None:
                spans[index] = spans[index][:4] + (observe(args, kwargs, result),)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "puzzletext"]
        targets = [(sys.modules["puzzletext.cli"], "run", "cli", None, lambda a: f"cli.{a[0][0]}")]
        targets += [
            (sys.modules[f"puzzletext.{layer}"], fname, f"{layer}.{fname}", observe, None)
            for layer, funcs in TRACED.items()
            for fname, observe in funcs.items()
        ]
        for module, fname, name, observe, name_of in targets:
            original = getattr(module, fname)
            wrapper = self.wrap(name, original, observe, name_of)
            for other in modules:
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, seen) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "run": self.run_id, "name": name, "start": start,
                                         "end": end, "parent": parent, "observed": seen}) + "\n")


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    names = [f"cli.{c}.busy_s" for c in CLI_COMMANDS]
    names += ["util.atomic_write_text.calls", "util.atomic_write_text.busy_s", "util.atomic_write_text.bytes"]
    names += [f"corpus.{f}.busy_s" for f in TRACED["corpus"]] + ["corpus.dedup.kept_ratio"]
    for f in TRACED["cube"]:
        names += [f"cube.{f}.calls", f"cube.{f}.busy_s"]
    names += ["cube_solver.solve.calls", "cube_solver.solve.busy_s"]
    names += [f"cube_solver.solve.d{d}.p50_us" for d in range(1, 6)] + ["cube_solver.solve.d5.p99_us"]
    names += ["sudoku.find_violations.calls", "sudoku.find_violations.busy_s", "sudoku.violations_found",
              "sudoku.parse_grid81.calls", "sudoku.parse_grid81.busy_s"]
    for f in TRACED["maze"]:
        names += [f"maze.{f}.calls", f"maze.{f}.busy_s"]
    names += ["markov.train.busy_s", "markov.train.chars_per_s", "markov.sample.calls", "markov.sample.busy_s",
              "markov.sample.chars_per_s", "markov.sample.backoff_ratio", "markov.save_model.busy_s",
              "markov.load_model.busy_s"]
    for kind in KINDS:
        names += [f"evaluate.classify_{kind}.calls", f"evaluate.classify_{kind}.busy_s"]
    names += ["evaluate.aggregate.busy_s", "evaluate.ingest_external_outputs.busy_s", "evaluate.format_report.busy_s"]
    names += [f"evaluate.{kind}.{v}" for kind in KINDS for v in VERDICTS]
    names += [f"layer.{layer}.share" for layer in LAYERS]
    names += ["unattributed_share", "trace_overhead"]
    return names


def _percentile(sorted_values: list[float], q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def summarize(spans: list, wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced repetition. Latency percentiles need
    at least 1,000 calls and read 0 otherwise; markov.sample.backoff_ratio
    and trace_overhead are filled in by the caller."""
    busy: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    observed: dict[str, list] = {}
    layer_of = [name.split(".")[0] for name, *_ in spans]
    child_time = [0.0] * len(spans)
    layer_total = dict.fromkeys(LAYERS, 0.0)
    for i, (name, start, end, parent, seen) in enumerate(spans):
        duration = end - start
        busy[name] = busy.get(name, 0.0) + duration
        calls[name] = calls.get(name, 0) + 1
        if seen is not None:
            observed.setdefault(name, []).append((seen, duration))
        if parent >= 0:
            child_time[parent] += duration
        ancestor = parent
        while ancestor >= 0 and layer_of[ancestor] != layer_of[i]:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            layer_total[layer_of[i]] += duration
    for i, (name, start, end, *_rest) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - child_time[i]

    metrics = dict.fromkeys(metric_names(), 0)
    for name in busy:
        for stat, table in (("busy_s", busy), ("calls", calls)):
            key = f"{name.lstrip('_')}.{stat}"  # metric names must start with a letter
            if key in metrics:
                metrics[key] = table[name]

    writes = observed.get("_util.atomic_write_text", [])
    metrics["util.atomic_write_text.bytes"] = sum(n for n, _ in writes)
    dedup = observed.get("corpus.dedup_and_split", [])
    if dedup:
        metrics["corpus.dedup.kept_ratio"] = sum(k for (_, k), _ in dedup) / sum(n for (n, _), _ in dedup)
    by_depth: dict[int, list[float]] = {}
    for depth, duration in observed.get("cube_solver.solve", []):
        by_depth.setdefault(depth, []).append(duration * 1e6)
    for depth, values in by_depth.items():
        if 1 <= depth <= 5 and len(values) >= 1000:
            values.sort()
            metrics[f"cube_solver.solve.d{depth}.p50_us"] = _percentile(values, 0.5)
            if depth == 5:
                metrics["cube_solver.solve.d5.p99_us"] = _percentile(values, 0.99)
    metrics["sudoku.violations_found"] = sum(n for n, _ in observed.get("sudoku.find_violations", []))
    for fn in ("train", "sample"):
        chars = sum(n for n, _ in observed.get(f"markov.{fn}", []))
        if chars:
            metrics[f"markov.{fn}.chars_per_s"] = chars / busy[f"markov.{fn}"]
    for kind in KINDS:
        for status, _ in observed.get(f"evaluate.classify_{kind}", []):
            metrics[f"evaluate.{kind}.{status}"] += 1
    for layer in LAYERS:
        metrics[f"layer.{layer}.share"] = layer_total[layer] / wall
    attributed = sum(t for name, t in self_s.items() if not name.startswith("cli."))
    metrics["unattributed_share"] = (wall - attributed) / wall
    return metrics


_STAT_UNITS = {"calls": "count", "busy_s": "s", "p50_us": "us", "p99_us": "us",
               "bytes": "bytes", "chars_per_s": "chars/s", "violations_found": "count"}


def unit_of(name: str) -> str:
    stat = name.rsplit(".", 1)[-1]
    if stat in VERDICTS:
        return "count"
    return _STAT_UNITS.get(stat, "ratio")
