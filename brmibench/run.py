#!/usr/bin/env python3
"""Build brmibench from the surrounding checkout and run one workload.

Run from the root of a checkout:

    python3 brmibench/run.py --workload hot-echo --seed 1 --seconds 30 --trace 0

The Go build cache, the binary and the trace files stay in .bench_build/
at the checkout root. The arguments are passed on to the binary; its exit
code is this script's.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        print("brmibench: %s holds no go.mod; run from a full checkout" % ROOT, file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
    })
    binary = os.path.join(BUILD, "brmibench")
    build = subprocess.run(
        ["go", "build", "-buildvcs=false", "-ldflags", "-X main.commit=" + revision(), "-o", binary, "."],
        cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("brmibench: build failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:] + ["--trace-dir", os.path.join(BUILD, "trace")]
    return subprocess.run([binary] + args).returncode


if __name__ == "__main__":
    sys.exit(main())
