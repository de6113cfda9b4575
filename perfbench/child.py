"""Body of the measured process: run one repetition of a workload.

The spec (JSON in argv[1]) names the CLI steps, the work directory and
whether to trace. The timed region runs from the first `cli.run` call to
the return of the last one; digests, spans and the result are produced
after it. The result goes to the real stdout as one JSON line.
"""
from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter


def main(ready: float, cli) -> None:
    spec = json.loads(sys.argv[1])
    expected_src = Path(spec["src"]).resolve()
    if expected_src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"puzzletext imported from {cli.__file__}, expected under {expected_src}")
    spans = None
    if spec["trace"]:
        import tracer

        spans = tracer.Tracer(spec["run_id"])
        spans.install()

    real_out, real_err = sys.stdout, sys.stderr
    steps = []
    first = perf_counter()
    for step in spec["steps"]:
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            code, error = cli.run(step["argv"]), None
        except Exception:  # a raising step is a failed step, not a crashed benchmark
            code, error = None, traceback.format_exc()
        end = perf_counter()
        printed, diagnostics = sys.stdout.getvalue(), sys.stderr.getvalue()
        sys.stdout, sys.stderr = real_out, real_err
        steps.append({"name": step["name"], "code": code, "error": error or (diagnostics if code else None),
                      "seconds": end - start, "stdout": printed})
    wall = perf_counter() - first
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    work = Path(spec["work"])
    for step, result in zip(spec["steps"], steps):
        digests = {}
        for name in step["outputs"]:
            path = work / name
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        if step["stdout"]:
            digests[f"stdout:{step['name']}"] = hashlib.sha256(result["stdout"].encode("utf-8")).hexdigest()
        result["digests"] = digests
    result = {
        "ready": ready,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb,
        "steps": steps,
    }
    if spans is not None:
        spans.write(spec["spans_out"])
        result["layers"] = tracer.summarize(spans.spans, wall)
    real_out.write(json.dumps(result) + "\n")
