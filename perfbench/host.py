"""Host manifest attached to every benchmark row.

Records what the numbers depend on: usable cores, the cgroup CPU quota,
python and numpy versions, the code revision (read from ``.git`` files, no
subprocess) and a digest of the source tree, which identifies the code even
in a checkout without ``.git``.
"""

from __future__ import annotations

import hashlib
import os
import platform
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def nproc() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _read(path: str) -> Optional[str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def cpu_max() -> Optional[str]:
    """The cgroup CPU quota: v2 ``cpu.max``, else v1 ``quota period``."""
    value = _read("/sys/fs/cgroup/cpu.max")
    if value is not None:
        return value
    quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
    period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
    if quota is not None and period is not None:
        return f"{'max' if quota == '-1' else quota} {period}"
    return None


def git_revision(root: str = ROOT) -> Optional[str]:
    """The checked-out commit, resolved from ``.git`` without running git."""
    git = os.path.join(root, ".git")
    if os.path.isfile(git):  # a linked checkout: "gitdir: <path>"
        pointer = _read(git) or ""
        if pointer.startswith("gitdir:"):
            git = os.path.join(root, pointer.split(":", 1)[1].strip())
    head = _read(os.path.join(git, "HEAD"))
    if head is None:
        return None
    if not head.startswith("ref:"):
        return head
    ref = head.split(":", 1)[1].strip()
    value = _read(os.path.join(git, ref))
    if value is not None:
        return value
    for line in (_read(os.path.join(git, "packed-refs")) or "").splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[1] == ref:
            return parts[0]
    return None


def source_digest(src: str = SRC) -> str:
    """sha256 over every ``.py`` file under ``src`` (path and content)."""
    digest = hashlib.sha256()
    for directory, subdirs, files in sorted(os.walk(src)):
        subdirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def manifest(seed: int, cold: bool) -> dict:
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        numpy_version = None
    return {
        "nproc": nproc(),
        "cpu_max": cpu_max(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "revision": git_revision(),
        "src_digest": source_digest(),
        "seed": seed,
        "cold": cold,
    }
