"""One fresh process of the benchmark: set up, then run one pass or probe.

    python3 worker.py <root> <work dir> <mode> <spawn time> <out file>

`mode` is one of
    setup   import lefsig and load the documents, then stop;
    pass    run every job once with tracing off;
    traced  run every job once with spans around the lefsig modules;
    probe   call word_action cold on each probe word and count failures.

`spawn time` is the parent's CLOCK_MONOTONIC reading just before it started
this process, so setup_s covers interpreter start-up as well.  Results go to
`out file` as JSON; the job answers are parsed after each job's timer stops.

Next to every timing the worker times `reference_loop`, a fixed piece of
exact arithmetic that does not touch lefsig: once after set-up, and between
jobs, so that each job is bracketed by two readings.  The harness divides
by these readings to remove the speed of the host at that moment.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path


_REFERENCE = tuple(tuple(Fraction(3 * i + j + 1, j + 2) for j in range(4)) for i in range(4))


def reference_loop() -> float:
    """Seconds taken by a fixed amount of Fraction and dict work, the kind of
    work lefsig does, written without lefsig so that no change to the
    program changes it."""
    start = time.perf_counter()
    m = _REFERENCE
    for _ in range(12):
        m = tuple(tuple(sum(a * b for a, b in zip(row, col)) for col in zip(*_REFERENCE))
                  for row in m)
        m = tuple(tuple(Fraction(x.numerator % 97 + 1, x.denominator % 89 + 1) for x in row)
                  for row in m)
    table = {}
    for i in range(3000):
        table[i, i * 7 % 13] = i
    return time.perf_counter() - start


def _parse_answer(argv: list[str], out: str) -> object:
    command = argv[0]
    if command == "signature":
        obj = json.loads(out)
        return [obj["signature"], len(obj["steps"])]
    if command == "power":
        obj = json.loads(out)
        return [obj["signature"], len(obj["corrections"])]
    lines = out.strip().splitlines()
    if command == "generate":
        return [int(lines[-1].removeprefix("signature: ")), out.count('"vector"')]
    if command == "meyer":
        return int(lines[-1].removeprefix("meyer cocycle: "))
    if command == "maslov":
        return [int(lines[0].removeprefix("maslov index: ")),
                all(line.endswith(": pass") for line in lines[1:]) and len(lines) == 4]
    raise ValueError(f"unknown command {command!r}")


def main() -> int:
    root, work, mode, spawned, out_file = sys.argv[1:6]
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import lefsig
    import lefsig.cli
    from lefsig import engine, positive, ratlinalg, symplectic

    if not Path(lefsig.__file__).resolve().is_relative_to(src.resolve()):
        print(f"lefsig imported from {lefsig.__file__}, not from {src}", file=sys.stderr)
        return 2

    work_dir = Path(work)
    os.chdir(work_dir)  # job documents are named relative to the work directory
    manifest = json.loads((work_dir / "jobs.json").read_text())
    texts = {p: (work_dir / p).read_text() for p in manifest["docs"]}
    words = {p: lefsig.cli.parse_fibration_document(texts[p]).word
             for p in manifest["library_docs"]}
    block = ratlinalg.Matrix.from_rows([list(r) for r in manifest["block_action"]])
    ready = time.monotonic()
    result: dict = {"setup_s": ready - float(spawned),
                    "setup_ref_s": statistics.median(reference_loop() for _ in range(5))}

    if mode == "probe":
        failed = 0
        for path in manifest["probe"]:
            word = lefsig.cli.parse_fibration_document(texts[path]).word
            try:
                symplectic.word_action(word)
            except Exception:  # noqa: BLE001 - any failure of a cold call counts
                failed += 1
        result.update(calls=len(manifest["probe"]), failed=failed)
    elif mode in ("pass", "traced"):
        tracer = None
        if mode == "traced":
            from tracing import Tracer
            tracer = Tracer()
            tracer.install()
        jobs = []
        clock = time.perf_counter
        ref_before = reference_loop()
        for i, job in enumerate(manifest["jobs"]):
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.job = i
            error = None
            raw: object = None
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                try:
                    if job["kind"] == "cli":
                        raw = lefsig.cli.main(job["argv"])
                    elif job["kind"] == "two_route":
                        word = words[job["doc"]]
                        ks = range(1, len(word) + 1)
                        raw = ([engine.local_sigma(word, k).sigma for k in ks],
                               [engine.local_sigma_via_maslov(word, k) for k in ks])
                    else:
                        raw = positive.signature_zero_certificate(block, job["n"])
                except (Exception, SystemExit) as exc:  # noqa: BLE001 - job boundary
                    error = type(exc).__name__
                elapsed = clock() - start
            ref_after = reference_loop()
            if tracer is not None:
                tracer.end_job()
            answer = None
            if error is None and job["kind"] == "cli":
                if raw != 0:
                    error = f"exit {raw}"
                else:
                    try:
                        answer = _parse_answer(job["argv"], out.getvalue())
                    except (ValueError, KeyError, IndexError) as exc:
                        error = f"unparsable output ({type(exc).__name__})"
            elif error is None and job["kind"] == "two_route":
                answer = [list(raw[0]), list(raw[1])]
            elif error is None:
                matrix, member = raw
                answer = [member, [[str(x) for x in row] for row in matrix.entries]]
            jobs.append({"s": elapsed, "ref_s": (ref_before + ref_after) / 2,
                         "error": error, "answer": answer})
            ref_before = ref_after
        if tracer is not None:
            tracer.uninstall()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["jobs"] = jobs
        if tracer is not None:
            tracer.write(work_dir / "spans.tsv")
            result["trace"] = tracer.summary()
            result["missing_targets"] = tracer.missing
    Path(out_file).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
