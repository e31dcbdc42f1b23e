"""Host and build stamp attached to every benchmark result.

Results from hosts with different core counts are not comparable
(parallel speed-ups need at least two cores), so each result carries
`nproc`, the source revision, `rustc -V` and the build profile.
"""

import hashlib
import os
import subprocess

SKIP_DIRS = {".git", ".bench_build", ".bench_out", "target", "__pycache__"}


def _run(argv, cwd):
    try:
        done = subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.decode().strip() if done.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the paths and bytes of the checkout's source files,
    for checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else []
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
            files += [os.path.join(dirpath, f) for f in sorted(filenames)]
        for f in files:
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def stamp(root):
    rev = None
    if os.path.isdir(os.path.join(root, ".git")):
        rev = _run(["git", "rev-parse", "HEAD"], root)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "rev": rev or "tree-" + source_digest(root),
        "rustc": _run(["rustc", "-V"], root) or "unknown",
        "profile": "release",
    }
