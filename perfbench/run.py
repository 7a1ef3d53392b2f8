#!/usr/bin/env python3
"""Build perfbench from the source tree it stamps, then run it.

Usage, from the repository root:

    python3 perfbench/run.py --workload metric-build [--seed 42] [--seconds 15] [--trace 0|1]

Every run rebuilds the binary (incrementally) from the current tree, links
the tree's hash into it, and passes the same hash at run time, so a stale
binary refuses to run. Build cache, temporary files, traces and scratch
state all stay under the build directory in the checkout ($CARGO_TARGET_DIR
if set, else .bench_build). The last line of standard output is the
benchmark's JSON result.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SKIP_DIRS = {".git"}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def tree_hash(build_dir):
    """Hash every Go source and module file of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(
            d for d in dirnames
            if d not in SKIP_DIRS and os.path.join(dirpath, d) != build_dir
        )
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
                h.update(b"\0")
    return h.hexdigest()[:16]


def git_stamp():
    """HEAD and a dirty flag, or "none" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none", "none"
    try:
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return "unknown", "unknown"
    return head, "true" if status.strip() else "false"


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")) or not os.path.isdir(os.path.join(ROOT, "internal")):
        fail("no Go module at %s: run from a full checkout of the repository" % ROOT)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ)
    for var, sub in (("GOCACHE", "gocache"), ("GOTMPDIR", "tmp"), ("TMPDIR", "tmp"),
                     ("GOMODCACHE", "gomodcache"), ("GOPATH", "gopath"),
                     ("XDG_CONFIG_HOME", "config")):
        env[var] = os.path.join(build_dir, sub)
        os.makedirs(env[var], exist_ok=True)
    env.update(GOFLAGS="", GOPROXY="off", GOSUMDB="off", GOWORK="off",
               GOTOOLCHAIN="local", GOENV="off")

    tree = tree_hash(build_dir)
    head, dirty = git_stamp()
    binary = os.path.join(build_dir, "perfbench")
    ldflags = "-X main.treeHash=%s -X main.gitHead=%s -X main.gitDirty=%s" % (tree, head, dirty)
    build = subprocess.run(["go", "build", "-o", binary, "-ldflags", ldflags, "."],
                           cwd=HERE, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("go build failed")
    run = subprocess.run([binary, "--expect-tree", tree, "--out", build_dir] + sys.argv[1:],
                         cwd=ROOT, env=env)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
