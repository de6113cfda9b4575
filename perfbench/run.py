"""Benchmark entry point: run one workload for a fixed time and report.

    python3 perfbench/run.py --workload maze_loop --seed 1234 --seconds 36 --trace 0

Run from the repository root. Each repetition of the workload runs in a
fresh interpreter (worker.py) that imports `puzzletext.cli` from ./src and
drives `cli.run(argv)` through the workload's steps. Between repetitions,
set-up probes start the interpreter and import the CLI only. Repetitions
continue while the next one still fits in --seconds.

--trace 0 reports the end-to-end metrics (medians over the repetitions);
--trace 1 alternates untraced and traced repetitions and reports the
per-layer metrics (medians over the traced ones). Outputs are checked after
the measurement: byte identity between repetitions, golden digests at the
default seed, and the workload's own consistency checks. A failed step
counts in `failed`, sets `correct` to false and makes the exit code 1.

The last stdout line is the JSON result; a full record of the run (every
repetition, provenance, the reference-loop diagnostic) goes to
.bench_out/runs/, spans of traced repetitions to .bench_out/spans/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import tracer  # noqa: E402
from workloads import PROMPT, WORKLOADS, Context  # noqa: E402

DEFAULT_SEED = 1234
PROBES_PER_REP = 4
MIN_SETUP_SAMPLES = 20
CHILD_TIMEOUT_S = 120
HASH_SEED = "0"
UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def reference_loop() -> float:
    """Fixed pure-Python loop, not puzzletext code: a host-speed diagnostic
    recorded next to each run and never compared between commits."""
    start = perf_counter()
    acc = 0
    for i in range(3_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - start


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Runner:
    def __init__(self, root: Path):
        self.root = root
        self.env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.worker = str(HERE / "worker.py")

    def _spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
        started = perf_counter()
        proc = subprocess.Popen([sys.executable, self.worker, *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=self.env, cwd=self.root, text=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
        return started, subprocess.CompletedProcess(proc.args, proc.returncode, out, err)

    def probe(self) -> float | None:
        started, done = self._spawn(["--probe"])
        if done.returncode != 0:
            return None
        return json.loads(done.stdout.splitlines()[-1])["ready"] - started

    def repetition(self, spec: dict) -> dict:
        started, done = self._spawn([json.dumps(spec)])
        try:
            result = json.loads(done.stdout.splitlines()[-1])
        except (IndexError, ValueError):
            return {"crashed": done.stderr[-2000:] or f"exit code {done.returncode}"}
        result["setup_s"] = result.pop("ready") - started
        return result


def measure(runner: Runner, workload, seed: int, sizes: dict, seconds: float, trace: bool, work_root: Path,
            spans_dir: Path):
    inputs = work_root / "inputs"
    reps, setups = [], []
    deadline = perf_counter() + seconds
    while True:
        began = perf_counter()
        k = len(reps)
        probes = PROBES_PER_REP if k else MIN_SETUP_SAMPLES // 2
        setups += [s for s in (runner.probe() for _ in range(probes)) if s is not None]
        work = work_root / f"rep{k}"
        work.mkdir()
        traced = trace and k % 2 == 1
        run_id = f"{workload.name}-seed{seed}-rep{k}"
        spec = {
            "src": str(runner.root / "src"), "work": str(work), "trace": traced, "run_id": run_id,
            "spans_out": str(spans_dir / f"{run_id}.jsonl"),
            "steps": [vars(s) for s in workload.steps(work, inputs, seed, sizes)],
        }
        rep = runner.repetition(spec)
        rep.update(index=k, traced=traced, work=str(work))
        reps.append(rep)
        if "setup_s" in rep:
            setups.append(rep["setup_s"])
        last = perf_counter() - began
        if perf_counter() + last > deadline and not (trace and len(reps) < 2):
            while len(setups) < MIN_SETUP_SAMPLES:
                setups += [s for s in [runner.probe()] if s is not None]
            return reps, setups


def check(workload, seed: int, sizes: dict, smoke: bool, reps: list, ctx: Context, golden: dict, inputs: Path):
    """(attempted, failed, problems): every step of every repetition is one
    attempt; a step fails when it raised, exited non-zero, or its outputs
    fail a check."""
    names = [s.name for s in workload.steps(Path("."), inputs, seed, sizes)]
    failed: set[tuple[int, str]] = set()
    problems: list[str] = []

    def fail(k, step, message):
        failed.add((k, step))
        problems.append(f"rep {k} step {step!r}: {message}")

    good = [r for r in reps if "crashed" not in r]
    for rep in reps:
        if "crashed" in rep:
            for name in names:
                fail(rep["index"], name, "process crashed: " + rep["crashed"])
            continue
        for step in rep["steps"]:
            if step["code"] != 0:
                fail(rep["index"], step["name"], f"exit code {step['code']}: {step['error']}")
    if not good:
        return len(reps) * len(names), len(failed), problems

    first = good[0]
    reference = {s["name"]: s["digests"] for s in first["steps"]}
    for rep in good[1:]:
        for step in rep["steps"]:
            if step["digests"] != reference[step["name"]]:
                fail(rep["index"], step["name"], "outputs differ from the first repetition")

    every = [r["index"] for r in reps]
    if not smoke and seed == DEFAULT_SEED:
        want = golden.get(workload.name)
        for name in names:
            if want is None or want.get(name) != reference[name]:
                for k in every:
                    fail(k, name, "outputs differ from the golden digests")

    stdouts = {s["name"]: s["stdout"] for s in first["steps"]}
    try:
        found = workload.check(Path(first["work"]), inputs, seed, sizes, stdouts, ctx)
    except (OSError, ValueError, KeyError, TypeError) as exc:  # unreadable outputs fail every step
        found = {name: [f"check raised {exc!r}"] for name in names}
    for name, messages in found.items():
        for k in every:
            fail(k, name, "; ".join(messages[:3]))
    return len(reps) * len(names), len(failed), problems


def backoff_ratio(work: Path) -> float:
    """Share of sampled characters whose order-k context the model never saw."""
    model = json.loads((work / "model.json").read_text(encoding="utf-8"))
    order, counts = model["order"], model["counts"]
    unseen = total = 0
    prompt_len = len(PROMPT)
    for line in (work / "samples.jsonl").read_text(encoding="utf-8").splitlines():
        text = json.loads(line)
        for i in range(prompt_len, len(text)):
            total += 1
            unseen += (text[:i][-order:] if order else "") not in counts
    return unseen / total if total else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs; golden digests are skipped")
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "puzzletext" / "cli.py").is_file():
        print(f"error: no puzzletext sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import puzzletext

    workload = WORKLOADS[args.workload]
    sizes = workload.smoke_sizes if args.smoke else workload.sizes
    out_dir = root / ".bench_out"
    work_root = out_dir / "work" / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    spans_dir = out_dir / "spans"
    shutil.rmtree(work_root, ignore_errors=True)
    (work_root / "inputs").mkdir(parents=True)
    (out_dir / "runs").mkdir(exist_ok=True)
    spans_dir.mkdir(exist_ok=True)
    ctx = Context(oracle.CubeOracle(oracle.load_clockwise_perms(src)), puzzletext)
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))

    phases = {"start": perf_counter()}
    try:
        if workload.prepare is not None:
            workload.prepare(work_root / "inputs", args.seed, sizes, ctx)
        runner = Runner(root)
        reference_before = reference_loop()
        runner.probe()  # warm-up: byte-compiles and pages in the package; not counted
        phases["measure"] = perf_counter()
        reps, setups = measure(runner, workload, args.seed, sizes, args.seconds, bool(args.trace), work_root,
                               spans_dir)
        reference_after = reference_loop()
        phases["check"] = perf_counter()
        attempted, failed, problems = check(
            workload, args.seed, sizes, args.smoke, reps, ctx, golden, work_root / "inputs")
        phases["end"] = perf_counter()

        plain = [r for r in reps if "crashed" not in r and not r["traced"]]
        traced = [r for r in reps if "crashed" not in r and r["traced"]]
        if args.trace:
            metrics = {}
            for name in tracer.metric_names():
                metrics[name] = statistics.median(r["layers"][name] for r in traced) if traced else 0
            if plain and traced:
                metrics["trace_overhead"] = (statistics.median(r["wall_s"] for r in traced)
                                             / statistics.median(r["wall_s"] for r in plain))
            if plain and (Path(plain[0]["work"]) / "samples.jsonl").exists():
                metrics["markov.sample.backoff_ratio"] = backoff_ratio(Path(plain[0]["work"]))
            units = {}
        else:
            metrics = {
                "wall_s": statistics.median(r["wall_s"] for r in plain) if plain else 0.0,
                "setup_s": statistics.median(setups) if setups else 0.0,
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain) if plain else 0.0,
            }
            units = UNITS
        correct = failed == 0 and bool(plain) and (bool(traced) or not args.trace)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed, "sizes": sizes,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
        "provenance": {
            "python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "git_sha": git_sha(root),
            "PYTHONHASHSEED": HASH_SEED, "platform": platform.platform(),
        },
        "reference_loop_s": {"before": reference_before, "after": reference_after},
        "phase_s": {"prepare": phases["measure"] - phases["start"], "measure": phases["check"] - phases["measure"],
                    "check": phases["end"] - phases["check"]},
        "setup_samples_s": setups,
        "repetitions": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "problems": problems, "attempted": attempted, "failed": failed, "metrics": metrics,
    }
    (out_dir / "runs" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problem in problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"# {workload.name} seed={args.seed} reps={len(reps)} (traced {len(traced)}) "
          f"setup samples={len(setups)} python={platform.python_version()} nproc={os.cpu_count()} "
          f"reference loop {reference_before:.3f}s/{reference_after:.3f}s")
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units.get(name, '')}".rstrip())
    print(f"{workload.name} fail_frac {failed / attempted if attempted else 1.0:.6g} ratio")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name) or tracer.unit_of(name)}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
