"""Host-time benchmark of the reproduction.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see README.md) in its own single-threaded process,
checks every shipped schedule, prints each metric with its unit and, as
the last line, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
ones with ``--trace 1``). Exits non-zero, without that line, when the
program cannot be run, and non-zero with ``"correct": false`` when any
output fails its check.
"""

import argparse
import json
import os
import subprocess
import sys
from time import perf_counter

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "workloads.py")
WORKLOADS = ("gpu_small_observed", "cpu_suite", "gpu_wide")

#: Timed set-ups per run; one untimed set-up first fills the bytecode cache.
SETUPS = 5
#: A workload process must end within this many seconds.
TIMEOUT = 170


def start(args):
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, WORKER] + args,
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def finish(process):
    """Wait for ``process``; its stdout lines after ``ready``."""
    try:
        out, _ = process.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise SystemExit("workload process timed out")
    if process.returncode != 0:
        raise SystemExit("workload process failed with exit code %d" % process.returncode)
    return out.splitlines()


def setup_seconds(base):
    """Process start to ready (imports, region generation, scheduler
    set-up), scaled by the probe the process runs once it is ready."""
    finish(start(base + ["--setup-only"]))
    samples = []
    for _ in range(SETUPS):
        began = perf_counter()
        process = start(base + ["--setup-only"])
        if process.stdout.readline().strip() != "ready":
            finish(process)
            raise SystemExit("set-up did not report ready")
        seconds = perf_counter() - began
        samples.append(stats.scaled(seconds, float(finish(process)[-1])))
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print("no src/repro next to %s: nothing to benchmark" % HERE, file=sys.stderr)
        return 2

    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [] if args.trace else setup_seconds(base)
    lines = finish(start(base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]))
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if setups:
        metrics = dict(setup_s={"value": stats.median(setups), "unit": "s"}, **metrics)
    info = result["info"]

    print("workload %s  seed %d  backend %s  strategy %s  geometry %s  path %s%s" % (
        args.workload, args.seed, info["backend"], info["strategy"], info["geometry"],
        info["path"], "  +observability" if info["observed"] else "",
    ))
    print("  %d regions, %d untraced passes; times are medians over passes, scaled to a"
          " quiet host (probe median %.3g ms, unscaled pass walls %s s)" % (
              info["regions"], info["passes"], info["probe_median_s"] * 1e3,
              ", ".join("%.3g" % w for w in info["unscaled_pass_walls_s"]),
          ))
    if info["tail_percentile"] is None:
        print("  too few regions for a tail percentile with 10 samples beyond it")
    else:
        print("  highest percentile with >=10 samples beyond it: p%g (p90 has %d beyond)" % (
            info["tail_percentile"], info["p90_samples_beyond"],
        ))
    if setups:
        print("  setup_s is the median of %d process starts, scaled" % len(setups))
    for name, metric in metrics.items():
        print("  %-28s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-28s %14.6g %s" % ("length_reduction_pct", info["length_reduction_pct"], "%"))
    failed_frac = result["failed"] / result["attempted"]
    print("  %-28s %14.6g %s" % ("failed_frac", failed_frac, "ratio"))
    if info["failed_regions"]:
        print("  failed regions: %s" % ", ".join(info["failed_regions"]))
    if not info["reference"]:
        print("  no reference digests for this seed: outputs checked by the verifier only")

    correct = result["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
