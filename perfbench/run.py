"""Benchmark of the torsion_bound package: one workload per process.

    python3 perfbench/run.py --workload gradient-max --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src/`` directory.  The run sets the workload up (timed, and timed again
in SETUP_PROBES fresh processes), then repeats rounds of the workload's
program calls for ``--seconds`` seconds, checking every round's outputs
after its timed section.  The last line of standard output is one JSON
object: correct, attempted, failed (operations are checks) and metrics,
the end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The result, and with ``--trace 1`` the spans of the last
round, are also written under ``.perfbench-out/``.  The exit code is 0
when every check passed but those the workload lists as known faults of
the program (``KNOWN_FAULTS``), 1 when another check failed and 2 when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
WORKLOADS = ("gradient-max", "exit-lemmas", "hh-suite")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"),
              ("rel_stderr", "1")]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time the set-up and print it as JSON")
    return p.parse_args(argv)


def set_up(workload: str, seed: int, trace: bool):
    """Import the package and build the workload; returns the workload, the
    set-up seconds (program import plus building, not the benchmark's own
    imports) and a tracer installed before the build when ``trace``."""
    t0 = time.perf_counter()
    import torsion_bound  # noqa: F401  (the import a CLI user pays)
    import torsion_bound.presets  # noqa: F401
    imported = time.perf_counter() - t0
    # the benchmark's modules import the package, so they load after it
    import bench_trace
    import bench_workloads
    tracer = bench_trace.Tracer().install() if trace else None
    t1 = time.perf_counter()
    wl = bench_workloads.WORKLOADS[workload](seed)
    return wl, imported + time.perf_counter() - t1, tracer


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "TORSION_BOUND_THREADS"}
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "torsion_bound" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'torsion_bound'}",
              file=sys.stderr)
        return 2
    # measure the default single-threaded path the CLI takes
    os.environ.pop("TORSION_BOUND_THREADS", None)
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        _wl, setup_s, _tracer = set_up(args.workload, args.seed, False)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    wl, setup_s, tracer = set_up(args.workload, args.seed, bool(args.trace))
    import bench_trace
    setups = [setup_s]
    setup_spans = tracer.take() if tracer else []
    if not tracer:
        setups += [probe_setup(args.workload, args.seed)
                   for _ in range(SETUP_PROBES)]

    round_s, layer_rounds, failures = [], [], []
    attempted = 0
    first = first_outputs = last_spans = None
    start = time.perf_counter()
    while not round_s or time.perf_counter() - start < args.seconds:
        t0 = time.perf_counter()
        outputs = wl.round()
        round_s.append(time.perf_counter() - t0)
        if tracer:
            last_spans = tracer.take()
            layer_rounds.append(bench_trace.layer_metrics(last_spans))
        results = wl.checks(outputs)
        printed = wl.fingerprint(outputs)
        if first is None:
            first, first_outputs = printed, outputs
        results.append(("outputs equal the first round's", printed == first))
        attempted += len(results)
        failures += [name for name, ok in results if not ok]
        if tracer:
            tracer.take()  # drop the spans of the checks' own program calls

    if tracer:
        construct = bench_trace.layer_metrics(setup_spans)
        metrics = {}
        for name, unit, _better in bench_trace.LAYER_METRICS:
            if name == "convex_geometry.construct.self_s":
                value = construct[name]
            else:
                value = statistics.median(r[name] for r in layer_rounds)
            metrics[name] = {"value": value, "unit": unit}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(round_s),
                  "peak_rss_mb": rss_mb,
                  "rel_stderr": statistics.median(wl.rel_stderrs(first_outputs))}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}

    # a check the workload names as a known fault of the program counts as
    # failed without making the run incorrect
    known = getattr(wl, "KNOWN_FAULTS", frozenset())
    correct = all(name in known for name in failures)
    result = {"correct": correct, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {**result, "rounds": len(round_s), "round_s": round_s,
              "setup_samples_s": setups, "failed_checks": sorted(set(failures))}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "rows", "note"],
             "setup": setup_spans, "last_round": last_spans}))
        tracer.uninstall()
    for name in sorted(set(failures)):
        print(f"{'KNOWN FAULT' if name in known else 'FAILED'}: {name}")
    print(f"{args.workload} seed {args.seed}: {len(round_s)} rounds, "
          f"{attempted} checks, {len(failures)} failed")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
