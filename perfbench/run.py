#!/usr/bin/env python3
"""Build the benchmark and the dist worker from source, then run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Everything the build and the run write stays under .bench_build/ in the
checkout: the Go build cache, the binaries, scratch daemon caches and the
traced runs' span files. The last line of standard output is the
benchmark's JSON result. Without the repository's sources next to this
directory the build fails and the script exits non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")


def go_env():
    env = dict(os.environ)
    env.update(
        # The go command keeps its config and telemetry under the user
        # config directory; point that into the checkout as well.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOFLAGS="-buildvcs=false",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    """Build both binaries; return an error message or None."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        return "no go.mod at %s: run from the root of a dtnsim checkout" % ROOT
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    steps = [
        (["go", "build", "-o", os.path.join(BIN, "dtnsim-worker"), "./cmd/dtnsim-worker"], ROOT),
        (["go", "build", "-o", os.path.join(BIN, "perfbench"), "."], os.path.join(ROOT, "perfbench")),
    ]
    for cmd, cwd in steps:
        p = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        if p.returncode != 0:
            return "%s failed:\n%s" % (" ".join(cmd), p.stdout.decode(errors="replace"))
    return None


def main():
    err = build()
    if err:
        sys.stderr.write("perfbench: build failed: %s\n" % err)
        return 2
    cmd = [
        os.path.join(BIN, "perfbench"),
        "-build-dir", BUILD,
        "-worker-bin", os.path.join(BIN, "dtnsim-worker"),
    ]
    # Accept both --flag value and --flag=value spellings.
    args = [a[1:] if a.startswith("--") else a for a in sys.argv[1:]]
    p = subprocess.run(cmd + args, cwd=ROOT)
    return p.returncode


if __name__ == "__main__":
    sys.exit(main())
