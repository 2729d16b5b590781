"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Load is a closed loop with one client.  Workers (`worker.py`) are spawned one
at a time; each is a fresh single-threaded interpreter that imports cypairs
from `src/` and runs the workload's operations once, so every lru_cache
starts cold, as it does on every cypairs invocation.  Workers are spawned
until the next one would end after `--seconds`; at least one always runs.

With `--trace 0` the run reports the end-to-end metrics named in
BENCHMARK.json, as medians over its workers.  With `--trace 1` it alternates
untraced and traced workers and reports the per-layer metrics; the traced
workers wrap the public cypairs functions from outside the package
(`tracer.py`).  Every operation's result is checked; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The environment record and every sample go to
`perfbench/out/<workload>-seed<seed>-trace<t>.json`, the spans of the last
traced worker to `perfbench/out/spans-<workload>.npz`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import WRAPPED
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
OUT = BENCH / "out"
SRC = ROOT / "src" / "cypairs"

# Set-up is short (about 0.2 s) and noisy, so each run adds this many
# import-only workers to the set-up samples of its workload workers.
SETUP_PROBES = 6
# Each run must end within 180 s, whatever a worker does.
HARD_LIMIT_S = 170.0


def _clock() -> float:
    # CLOCK_MONOTONIC is system-wide, so a worker's import timestamp can be
    # compared with the moment this process spawned it
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Fatal(Exception):
    """The benchmark cannot run here; no result is printed."""


# Workers may write bytecode whatever the caller's environment says: an
# installed cypairs imports from bytecode, so set-up excludes compiling it.
WORKER_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def spawn(args: list[str], deadline: float) -> dict:
    """Run one worker to completion and return its sample."""
    spawned = _clock()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args], cwd=ROOT, env=WORKER_ENV,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "error": "timed out"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or [""]
        return {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}"}
    sample = json.loads(lines[-1])
    sample.update(ok=True, setup_s=sample["imported"] - spawned)
    return sample


def source_record() -> dict:
    """src lines per module and in total, and a digest of the sources."""
    digest = hashlib.sha256()
    lines = {}
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        count = data.count(b"\n")
        total += count
        lines[path.stem] = count
    return {
        "src_lines": total,
        "module_src_lines": {m: lines.get(m, 0) for m in WRAPPED},
        "src_sha256": digest.hexdigest(),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # a plain checkout; src_sha256 identifies the code
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def layer_values(summary: dict) -> dict:
    """Per-function and per-module calls and self time of one traced worker."""
    functions = summary["functions"]
    out = {}
    for mod, names in WRAPPED.items():
        out[f"{mod}.calls"] = 0
        out[f"{mod}.self_s"] = 0.0
        for name in names:
            row = functions.get(f"{mod}.{name}", {"calls": 0, "self_s": 0.0})
            out[f"{mod}.{name}.calls"] = row["calls"]
            out[f"{mod}.{name}.self_s"] = row["self_s"]
            out[f"{mod}.calls"] += row["calls"]
            out[f"{mod}.self_s"] += row["self_s"]
    # partitions the witness search examined: items partitions_of handed
    # directly to find_witness
    out["symfunc.witness_candidates"] = summary["yields"].get(
        "symfunc.find_witness>partitions.partitions_of", 0)
    return out


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def collect(workload: str, seed: int, seconds: int, trace: int, start: float):
    """Spawn the warm-up and set-up probes, then workers until the next cycle
    (one untraced worker, plus one traced worker when tracing) would end
    after `seconds`."""
    deadline = start + HARD_LIMIT_S
    # the first import in a fresh checkout also writes bytecode: not timed
    warm = spawn(["--setup-only"], deadline)
    if not warm["ok"]:
        raise Fatal(f"cypairs does not import: {warm['error']}")
    probes = [spawn(["--setup-only"], deadline) for _ in range(SETUP_PROBES)]

    base = ["--workload", workload, "--seed", str(seed)]
    kinds = [["--trace", "0"]]
    if trace:
        kinds.append(["--trace", "1", "--spans", str(OUT / f"spans-{workload}.npz")])
    workers = []
    longest = 0.0
    while True:
        cycle_start = _clock()
        for kind in kinds:
            sample = spawn(base + kind, deadline)
            sample["traced"] = kind[1] == "1"
            workers.append(sample)
        now = _clock()
        longest = max(longest, now - cycle_start)
        if now + longest > min(start + seconds, deadline):
            return warm, probes, workers


def tally(workers: list[dict], n_ops: int) -> tuple[int, int, list[str]]:
    """Attempted and failed ops over all workers.  A crashed worker fails all
    its ops; a traced op fails when its result differs from the untraced one."""
    plain = [w for w in workers if w["ok"] and not w["traced"]]
    reference = {row["op"]: row["digest"] for row in plain[0]["ops"]} if plain else {}
    attempted = failed = 0
    failures = []
    for w in workers:
        attempted += n_ops
        if not w["ok"]:
            failed += n_ops
            failures.append(f"worker: {w['error']}")
            continue
        for row in w["ops"]:
            error = row["error"]
            if error is None and w["traced"] and row["digest"] != reference.get(row["op"]):
                error = "traced result differs from the untraced result"
            if error is not None:
                failed += 1
                failures.append(f"{row['op']}: {error}")
    return attempted, failed, failures


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    start = _clock()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT.mkdir(exist_ok=True)
    warm, probes, workers = collect(workload, seed, seconds, trace, start)
    attempted, failed, failures = tally(workers, len(WORKLOADS[workload](seed)))
    failures += [f"set-up probe: {p['error']}" for p in probes if not p["ok"]]
    plain = [w for w in workers if w["ok"] and not w["traced"]]
    traced = [w for w in workers if w["ok"] and w["traced"]]
    if not plain or (trace and not traced):
        raise Fatal("no worker completed: " + "; ".join(failures[:3]))

    setups = [p for p in probes if p["ok"]] + plain + traced
    source = source_record()
    values = {
        "wall_s": median_of(plain, "wall_s"),
        "setup_s": median_of(setups, "setup_s"),
        "peak_rss_mb": median_of(plain, "peak_rss_mb"),
        "fail_ratio": failed / attempted,
        "ops": attempted,
        "src_lines": source["src_lines"],
        **{f"{m}.src_lines": n for m, n in source["module_src_lines"].items()},
    }
    if trace:
        layers = [layer_values(w["trace"]) for w in traced]
        for name in layers[0]:
            values[name] = statistics.median(layer[name] for layer in layers)
        values["trace.overhead_s"] = median_of(traced, "wall_s") - values["wall_s"]

    section = "per_layer" if trace else "end_to_end"
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[section]
    }
    environment = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": warm["numpy"],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "runner_affinity": sorted(os.sched_getaffinity(0)),
        "worker_affinity": sorted({tuple(w["affinity"]) for w in plain + traced}),
        "git_commit": git_commit(),
        **source,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "elapsed_s": _clock() - start,
        "environment": environment,
        "values": values,
        "failures": failures,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "workers": [
            {k: w.get(k) for k in ("ok", "traced", "error", "wall_s", "setup_s",
                                   "peak_rss_mb", "affinity", "ops", "trace")}
            for w in workers
        ],
    }
    (OUT / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    report = [
        f"workload {workload}  seed {seed}  trace {trace}  "
        f"workers {len(plain)} untraced, {len(traced)} traced  set-up samples {len(setups)}",
        f"  {'wall_s':<40} {values['wall_s']:.4f} s  "
        f"(median of {len(plain)}: {', '.join('%.3f' % w['wall_s'] for w in plain)})",
        f"  {'setup_s':<40} {values['setup_s']:.4f} s  (median of {len(setups)})",
        f"  {'peak_rss_mb':<40} {values['peak_rss_mb']:.1f} MB",
        f"  {'fail_ratio':<40} {values['fail_ratio']:g}  ({failed} of {attempted} ops)",
    ]
    if trace:
        report += [f"  {m['name']:<40} {values[m['name']]:.6g} {m['unit']}"
                   for m in spec["per_layer"] if m["name"] not in ("fail_ratio", "ops")]
    report += [f"  failure: {f}" for f in failures[:20]]
    report.append("environment " + json.dumps(environment, sort_keys=True))
    result = {"correct": not failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "__init__.py").is_file():
        print(f"error: no cypairs sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result, report = run(args.workload, args.seed, args.seconds, args.trace)
    except Fatal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
