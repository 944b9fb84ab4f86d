#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload kv-geo --seed 1 --seconds 20 --trace 0

Workloads: commit-tcp, commit-geo, commit-mesh, kv-geo, commit-crash. The
Go program in perfbench/ is built from the sources in this checkout into
.bench_build/, with the Go build cache kept there too, and then run with
the same arguments. Its last line of output is the JSON result. Exits non-zero,
without a result, when the sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "commit"))
            and os.path.isdir(os.path.join(ROOT, "kv"))):
        print("perfbench: the atomiccommit sources are missing from this checkout",
              file=sys.stderr)
        return 2

    out = os.path.join(ROOT, ".bench_build")
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(out, "gocache"),
               GOPATH=os.path.join(out, "gopath"),
               GOTOOLCHAIN="local",
               GOWORK="off",
               GOPROXY="off",
               GOFLAGS="",
               CGO_ENABLED="0",
               PPROF_TMPDIR=os.path.join(out, "pprof"))
    binary = os.path.join(out, "perfbench-bin")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    args = sys.argv[1:] + ["--out", os.path.join(out, "perfbench")]
    proc = subprocess.Popen([binary] + args, cwd=ROOT, env=env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
