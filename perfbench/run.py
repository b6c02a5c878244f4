"""Benchmark for lefsig: four seeded workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a checkout.  The harness generates the workload's
documents from the seed (perfbench/workloads.py) into .perfbench/, then
starts fresh worker processes one after another; each imports lefsig from
src/ and runs the whole job set once through `lefsig.cli.main([...])` or the
library.  The harness checks every answer by a second route
(perfbench/checks.py) and prints one JSON object as its last line.

--trace 0 reports the end-to-end metrics:
    setup_s      median over fresh processes of interpreter start to the first
                 job being ready (import lefsig and lefsig.cli, load documents)
    wall_s       median over passes of the summed job times of one pass
    job_p50_s,   median and 90th percentile of the job times of all passes
    job_p90_s    (the sample count is printed)
    peak_rss_mb  median over passes of the worker's peak resident memory
Passes repeat while another one fits in --seconds (at least one), each in a
fresh process.

The times are in reference seconds: each measured time is multiplied by
REFERENCE_LOOP_S over the time worker.reference_loop took next to it (for
a job, the mean of the readings just before and just after it).  On a shared
host the same code runs up to half again slower in spells that last from
seconds to minutes; the ratio to the reference loop stays within a few
percent through them, where raw times do not.  The reference loop does not
call lefsig, so a change to the program moves these times fully.  The
printed summary line also gives the raw wall time.

--trace 1 runs one untraced and one traced pass on the same job set and
reports the per-layer metrics (perfbench/tracing.py), the tracing overhead
(traced minus untraced wall, both in reference seconds), fail_ratio, and, on
long-word, how many cold word_action calls fail.

Failed jobs (raised or exited non-zero) count in "failed".  A wrong answer
makes the run exit 1.  Without src/lefsig the run exits 2 and prints nothing.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import workloads
from checks import Checker
from tracing import MODULES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
SETUPS_PER_PASS = 2
REFERENCE_LOOP_S = 0.005  # near the 5-6 ms worker.reference_loop takes on a 2-vCPU Xeon
PER_LAYER = (
    "cli.main.self_s", "cli.parse.s",
    "engine.signature.calls", "engine.signature.s",
    "engine.local_sigma.calls", "engine.local_sigma.self_s",
    "engine.steps.solvable", "engine.steps.unsolvable", "engine.steps.null",
    "engine.max_phi_bits", "engine.max_witness_bits",
    "symplectic.word_action.calls", "symplectic.word_action.s", "symplectic.word_action.self_s",
    "symplectic.cold_word_action.calls", "symplectic.cold_word_action.failed",
    "symplectic.transvection.calls", "symplectic.transvection.s",
    "symplectic.is_symplectic.calls", "symplectic.is_symplectic.s",
    "symplectic.graph_lagrangians.s",
    "ratlinalg.matmul.calls", "ratlinalg.matmul.s",
    "ratlinalg.solve.calls", "ratlinalg.solve.s",
    "ratlinalg.span.calls", "ratlinalg.span.s",
    "ratlinalg.signature_symmetric.calls", "ratlinalg.signature_symmetric.s",
    "maslov.fiber_sum_defect.calls", "maslov.fiber_sum_defect.s",
    "maslov.wall_space.calls", "maslov.wall_space.self_s", "maslov.wall_dim.total",
    "cover.correction_sigma.calls", "cover.correction_sigma.s",
    "cover.correction_sigma.self_s", "cover.matmul.calls",
    "positive.generate.s", "positive.certificate.s",
    *(f"{m}.self_s" for m in MODULES),
    "trace.wall_s", "trace.overhead_s", "trace.spans", "fail_ratio",
)


def unit(name: str) -> str:
    if name.endswith("_bits"):
        return "bits"
    if name == "fail_ratio":
        return "ratio"
    return "s" if name.endswith(("_s", ".s")) else "count"


def _worker(work: Path, mode: str) -> dict:
    out = work / f"{mode}.out.json"
    out.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), str(work), mode,
         repr(spawned), str(out)],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(out.read_text())


def _prepare(workload: workloads.Workload, work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    (work / "docs").mkdir(parents=True)
    for path, text in workload.docs.items():
        (work / path).write_text(text)
    manifest = {
        "jobs": [job.spec for job in workload.jobs],
        "docs": sorted(workload.docs),
        "library_docs": [job.spec["doc"] for job in workload.jobs if "doc" in job.spec],
        "probe": workload.probe,
        "block_action": workloads.BLOCK_ACTION,
    }
    (work / "jobs.json").write_text(json.dumps(manifest))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _scaled(seconds: float, reference: float) -> float:
    return seconds * REFERENCE_LOOP_S / reference


def _times(run: dict) -> list[float]:
    return [_scaled(job["s"], job["ref_s"]) for job in run["jobs"]]


def _wall(run: dict) -> float:
    return sum(_times(run))


def measure(name: str, seed: int, seconds: float, trace: bool,
            small: bool = False, tamper: bool = False) -> tuple[dict, list[str]]:
    """Run one benchmark measurement; returns (result object, mismatches)."""
    workload = workloads.build(name, seed, small)
    work = WORK / f"{name}-{seed}-{'trace' if trace else 'plain'}{'-small' if small else ''}"
    _prepare(workload, work)
    _worker(work, "setup")  # compiles bytecode and warms the file cache; not reported
    runs: list[dict] = []
    if trace:
        runs.append(_worker(work, "pass"))
        runs.append(_worker(work, "traced"))
        probe = _worker(work, "probe") if workload.probe else {"calls": 0, "failed": 0}
    else:
        # set-up samples are spread over the run, so that one slow or fast
        # spell of a shared machine does not decide their median
        setups: list[dict] = []
        start = time.monotonic()
        while True:
            began = time.monotonic()
            setups += [_worker(work, "setup") for _ in range(SETUPS_PER_PASS)]
            runs.append(_worker(work, "pass"))
            setups.append(runs[-1])
            took = time.monotonic() - began
            if time.monotonic() - start + took > seconds:
                break

    checker = Checker()
    mismatches: list[str] = []
    for run in runs:
        mismatches += checker.mismatches(workload.jobs, run["jobs"], tamper)
    results = [job for run in runs for job in run["jobs"]]
    failed = [job["error"] for job in results if job["error"] is not None]
    passes = "an untraced and a traced pass" if trace else f"{len(runs)} pass(es)"
    raw = statistics.median(sum(job["s"] for job in run["jobs"]) for run in runs)
    print(f"{name} seed {seed}: {passes} of {len(workload.jobs)} jobs, "
          f"{len(results)} job samples, raw wall {raw:.3f} s")
    if failed:
        print(f"failed jobs by type: {dict(Counter(failed))}")
    label = "WRONG (expected value altered on purpose)" if tamper else "WRONG"
    for line in mismatches[:20]:
        print(f"{label}: {line}", file=sys.stderr)

    if trace:
        plain, traced = runs
        t = traced["trace"]
        if traced.get("missing_targets"):
            print(f"not traced (missing): {traced['missing_targets']}")
        values = dict(t)
        values["symplectic.cold_word_action.calls"] = probe["calls"]
        values["symplectic.cold_word_action.failed"] = probe["failed"]
        values["trace.wall_s"] = _wall(traced)
        values["trace.overhead_s"] = _wall(traced) - _wall(plain)
        values["fail_ratio"] = len(failed) / len(results)
        metrics = {key: _metric(values[key], unit(key)) for key in PER_LAYER}
        modules = {m: t[f"{m}.self_s"] for m in MODULES}
        total = sum(modules.values()) or 1.0
        print("module self time: " + ", ".join(
            f"{m} {v / total:.0%}" for m, v in sorted(modules.items(), key=lambda kv: -kv[1])))
        print(f"tracing overhead: {_wall(traced) - _wall(plain):.3f} reference s "
              f"({_wall(plain):.3f} untraced, {_wall(traced):.3f} traced)")
    else:
        times = [t for run in runs for t in _times(run)]
        metrics = {
            "setup_s": _metric(statistics.median(
                _scaled(r["setup_s"], r["setup_ref_s"]) for r in setups), "s"),
            "wall_s": _metric(statistics.median(_wall(run) for run in runs), "s"),
            "job_p50_s": _metric(statistics.median(times), "s"),
            "job_p90_s": _metric(statistics.quantiles(times, n=10)[8], "s"),
            "peak_rss_mb": _metric(statistics.median(run["peak_rss_mb"] for run in runs), "MB"),
        }
    result = {"correct": not mismatches, "attempted": len(results),
              "failed": len(failed), "metrics": metrics}
    return result, mismatches


def self_check() -> int:
    """Small run of every workload: every metric of BENCHMARK.json is emitted
    with its unit, counts repeat exactly, and a wrong expected value trips."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, wrong = measure(name, 1, 0, trace, small=True)
            if wrong or result["failed"]:
                problems.append(f"{name}: small run not clean: {wrong}")
            for m in spec[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append(f"{name}: metric {m['name']} missing or unit {got}")
            extra = set(result["metrics"]) - {m["name"] for m in spec[key]}
            if extra:
                problems.append(f"{name}: metrics not in BENCHMARK.json: {sorted(extra)}")
            if trace:
                again, _ = measure(name, 1, 0, True, small=True)
                for m in spec[key]:
                    if m["unit"] in ("count", "bits") and \
                            again["metrics"][m["name"]] != result["metrics"][m["name"]]:
                        problems.append(f"{name}: count {m['name']} differs between runs")
        _, wrong = measure(name, 1, 0, False, small=True, tamper=True)
        if not wrong:
            problems.append(f"{name}: a wrong expected value did not trip the check")
    for line in problems:
        print(f"SELF-CHECK FAILED: {line}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "lefsig" / "__init__.py").is_file():
        print(f"no lefsig sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.self_check:
        return self_check()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    result, mismatches = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
