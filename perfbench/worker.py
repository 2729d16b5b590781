"""One benchmark worker: a fresh interpreter that imports cypairs from the
checkout's `src`, runs one workload's operations in sequence and prints one
JSON line.  `run.py` spawns it; it is not meant to be run by hand.

    python3 perfbench/worker.py --workload verify --seed 1 --trace 0
    python3 perfbench/worker.py --setup-only

Everything before `import cypairs` and `import cypairs.cli` is kept to the
interpreter's own start-up, because the spawn-to-import interval is the
reported set-up time.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import cypairs  # noqa: E402
import cypairs.cli  # noqa: E402  (the command line is part of what users load)

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()[:16]


def run_ops(ops, tracer=None) -> list[dict]:
    """Run every op in order; time it, digest its result and check it.
    A raised exception or a failed check is recorded and the run goes on."""
    rows = []
    for op in ops:
        call = (lambda op=op: op.run(cypairs))
        t0 = time.perf_counter()
        try:
            result = call() if tracer is None else tracer.span("op:" + op.name, call)
        except Exception as exc:  # one failed op must not end the run
            rows.append({"op": op.name, "s": time.perf_counter() - t0, "digest": None,
                         "error": f"{type(exc).__name__}: {exc}"})
            continue
        elapsed = time.perf_counter() - t0
        try:
            error = op.check(result)
        except Exception as exc:  # a malformed result fails its check
            error = f"check raised {type(exc).__name__}: {exc}"
        rows.append({"op": op.name, "s": elapsed, "digest": _digest(result), "error": error})
    return rows


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where a traced worker writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    origin = os.path.dirname(os.path.abspath(cypairs.__file__))
    if origin != os.path.join(SRC, "cypairs"):
        print(f"cypairs imported from {origin}, not from {SRC}", file=sys.stderr)
        return 2
    out = {
        "imported": IMPORTED,
        "affinity": sorted(os.sched_getaffinity(0)),
        "numpy": sys.modules["numpy"].__version__,
    }
    if not args.setup_only:
        if args.workload is None:
            parser.error("--workload is required")
        ops = WORKLOADS[args.workload](args.seed)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            rows = run_ops(ops, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        out["ops"] = rows
        out["wall_s"] = sum(row["s"] for row in rows)
        if tracer is not None:
            out["trace"] = tracer.summary()
            if args.spans:
                tracer.write_spans(args.spans)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
