#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload replay_read --seed 1 --seconds 10 --trace 0

The Go build cache and the binary go to $CARGO_TARGET_DIR (default
.bench_build) under the repository root; the traced run's ledger goes to
perfbench/out. Every other argument is passed to the benchmark binary.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    # Keep every file the toolchain writes inside the build directory,
    # and never reach for the network: the module has no dependencies.
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTELEMETRY": "off",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=readonly",
        "GOTOOLCHAIN": "local",
        "CGO_ENABLED": "0",
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    exe = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", exe, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    out = os.path.join(HERE, "out")
    os.execv(exe, [exe, "--out", out] + sys.argv[1:])


if __name__ == "__main__":
    main()
