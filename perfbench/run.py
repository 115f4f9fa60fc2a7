"""Benchmark for udm: one command, three workloads (verify, codec, cli).

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run, whose spans are written to perfbench/results/. The
lines before it print the same numbers as a table, with the environment.
See perfbench/README.md for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(__file__).resolve().parent / "results"
WORKLOADS = ("verify", "codec", "cli")


def declared_units() -> dict:
    """Metric name -> unit for --trace 0 and --trace 1, from BENCHMARK.json.
    failed_share is carried by the result line's "failed" and "attempted"
    fields rather than as a metric, since it is 0 on correct code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        trace: {m["name"]: m["unit"] for m in spec[key]}
        for trace, key in ((0, "end_to_end"), (1, "per_layer"))
    }


def info_unit(name: str) -> str:
    """Unit of an ungated line, read from its name."""
    if name.startswith("samples."):
        return "count"
    if name == "failed_share":
        return "share"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if "_ms" in name:
        return "ms"
    return "s"


def import_udm():
    """Import udm from this checkout's src/ and nowhere else. A stray udm/
    directory elsewhere on sys.path would import as an empty namespace
    package, so the resolved file must lie under src/."""
    sys.path.insert(0, str(SRC))
    try:
        import udm
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import udm from {SRC}: {exc}")
    found = getattr(udm, "__file__", None)
    if found is None or not Path(found).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: udm was imported from {found}, not from {SRC}")
    return udm


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_units()[args.trace]
    udm = import_udm()
    import workloads
    from spans import NullTracer, Tracer

    try:
        workloads.size_guard()
    except workloads.SizeGuardError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "udm": udm.__file__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    tracer = Tracer() if args.trace else NullTracer()
    with workloads.make_workdir(RESULTS) as workdir:
        run = workloads.Run(args.seed, tracer, SRC, Path(workdir))
        if args.trace:
            values = workloads.traced(run, args.workload, tracer)
            info = {}
        else:
            values, info = workloads.end_to_end(run, args.workload, args.seconds)
    info["failed_share"] = run.failed / run.attempted
    if values.keys() != units.keys():
        print(f"perfbench: measured {sorted(values.keys() ^ units.keys())} "
              "not as declared in BENCHMARK.json", file=sys.stderr)
        return 1

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.dump(RESULTS / f"spans-{stem}.json")
    print(f"# env {json.dumps(env)}")
    for what in run.failures:
        print(f"# FAILED {what}")
    for name in sorted(values):
        print(f"{name:40s} {values[name]:>16.6g} {units[name]}")
    for name in sorted(info):
        print(f"# not gated: {name:28s} {info[name]:>16.6g} {info_unit(name)}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"result-{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"env": env, "failures": run.failures, "info": info, **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
