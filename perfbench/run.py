#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload wire-write|wire-read|cli \
        --seed N --seconds S --trace 0|1

`--workload all` runs the three workloads one after the other.  Run it
from the root of a source checkout.  It builds the hpjava binary
and the load generator (perfbench/hpbench.exe) with dune, then runs
hpbench.  It reports every metric it measured; the last line
printed here is the JSON result, cut down to the metrics BENCHMARK.json
lists (end_to_end with --trace 0, per_layer with --trace 1).  Everything it
writes stays inside the checkout: dune's _build/ and the benchmark's
_perfbench/ (work directories, temporary files, span traces).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("wire-write", "wire-read", "cli")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    needed = ("dune-project", os.path.join("bin", "hpjava.ml"), os.path.join("lib", "server"))
    missing = [p for p in needed if not os.path.exists(os.path.join(root, p))]
    if missing:
        print("perfbench: not a source checkout (missing %s); run from the repository root"
              % ", ".join(missing), file=sys.stderr)
        return 2

    work = os.path.join(root, "_perfbench")
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp, DUNE_CACHE="disabled",
               XDG_CACHE_HOME=os.path.join(work, "cache"))

    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/hpbench.exe", "./bin/hpjava.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        print("perfbench: build failed", file=sys.stderr)
        return 1

    hpbench = os.path.join("_build", "default", "perfbench", "hpbench.exe")
    hpjava = os.path.join("_build", "default", "bin", "hpjava.exe")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        code = drive(hpbench, hpjava, workload, args, env, listed)
        if code != 0:
            return code
    return 0


def drive(hpbench, hpjava, workload, args, env, listed):
    """Run hpbench, pass its report through, and end with the JSON
    line cut down to the metrics BENCHMARK.json lists."""
    proc = subprocess.Popen(
        [hpbench, "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace), "--hpjava", hpjava],
        env=env, stdout=subprocess.PIPE, text=True)
    last = None
    for line in proc.stdout:
        if last is not None:
            sys.stdout.write(last)
        last = line
    if proc.wait() != 0 or last is None:
        if last is not None:
            sys.stdout.write(last)
        return proc.returncode or 1
    result = json.loads(last)
    missing = [name for name in listed if name not in result["metrics"]]
    if missing:
        print("perfbench: %s reported no %s" % (workload, ", ".join(missing)), file=sys.stderr)
        return 1
    result["metrics"] = {name: result["metrics"][name] for name in listed}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
