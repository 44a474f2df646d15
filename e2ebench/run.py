"""End-to-end benchmark of `ja`.

    python3 e2ebench/run.py --workload grid_stored --seed 1 --seconds 20 --trace 0

Run from the repository root.  Builds the release `ja` binary and the traced
replay (`e2ebench/tracer`) into $CARGO_TARGET_DIR (default `.bench_build`),
generates the workload's inputs from the seed, measures, checks every output
and prints one line per metric followed by a final JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (tracing off); `--trace 1` runs
the separate traced pass and reports the per-layer metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

import inputs
import measure
import traced
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def log(message):
    print(f"[e2ebench] {message}", file=sys.stderr, flush=True)


def build(root):
    """Builds `ja` and the tracer; returns (ja path, tracer path)."""
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "cli"))):
        raise SystemExit("e2ebench: run from the root of the ja repository (no crates/cli here)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for manifest, package in ((os.path.join(root, "Cargo.toml"), ["-p", "ja-cli"]),
                              (os.path.join(HERE, "tracer", "Cargo.toml"), [])):
        args = ["cargo", "build", "--release", "--offline", "--quiet",
                "--manifest-path", manifest, *package]
        done = subprocess.run(args, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"e2ebench: build failed: {' '.join(args)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "ja"), os.path.join(release, "e2e-tracer")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # A terminated benchmark still unwinds, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = os.getcwd()
    ja, tracer = build(root)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = workloads.Run(ja, work, args.workload, args.seed, args.seconds, log)
        with measure.IdleSpinners():
            if args.trace:
                metrics = traced.run(run, tracer)
            else:
                run.execute()
                metrics = run.metrics()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = run.samples()
    for name, metric in metrics.items():
        print(f"{name:<40} {metric['value']:>16.6g} {metric['unit']}")
    if not args.trace:
        for name, value in run.tails().items():
            print(f"{name:<40} {value:>16.6g} ms (not gated)")
    ratio = run.failed / run.attempted if run.attempted else 1.0
    print(f"{'failed_ratio':<40} {ratio:>16.6g} ratio ({run.failed}/{run.attempted} operations)")
    print("samples: " + ", ".join(f"{k}={v}" for k, v in samples.items()))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
