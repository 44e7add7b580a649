#!/usr/bin/env python3
"""The cxxlookup serving benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload read-json --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --selftest

Workloads: read-json, read-1b-wide, edit-durable, routed-read (``all``
runs each untraced in turn).  With --trace 0 the real binaries are
driven over loopback TCP and the end-to-end metrics are reported; with
--trace 1 the same seeded stream is replayed in-process through each
layer and the per-layer metrics are reported.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.  ``--selftest`` checks that the inputs are a pure
function of the seed.

This script only builds (dune, from source) and hands over to the
benchmark executable, perfbench/cxxbench.ml.  See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "cxxbench.exe")
WORKLOADS = ["read-json", "read-1b-wide", "edit-durable", "routed-read"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def revision():
    """The git commit, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("bin", "lib"):
        for d, _, files in sorted(os.walk(top)):
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return "source-sha256:" + h.hexdigest()[:16]


def main(argv):
    for need in ("dune-project", os.path.join("bin", "cxxlookup.ml"), "lib"):
        if not os.path.exists(need):
            return fail("run from the root of a cxxlookup checkout (%s not found)" % need)
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "bin/cxxlookup.exe", "perfbench/cxxbench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        return fail("build failed")
    if argv == ["--selftest"]:
        return subprocess.run([EXE, "selftest"]).returncode
    rev = ["--commit", revision()]
    if argv[:2] == ["--workload", "all"]:
        rest = [a for a in argv[2:]]
        if "--trace" not in rest:
            rest += ["--trace", "0"]
        codes = [subprocess.run([EXE, "--workload", w] + rest + rev).returncode
                 for w in WORKLOADS]
        return max(codes)
    return subprocess.run([EXE] + argv + rev).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
