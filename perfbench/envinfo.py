"""The environment block every result carries.

A number taken under another BLAS, thread setting or library version is
not comparable with this one; the block says which it was.
"""

from __future__ import annotations

import hashlib
import os
import platform
from pathlib import Path
from typing import Dict, Optional


def _blas(module) -> Dict[str, Optional[str]]:
    try:
        info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None, "config": None}
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "config": info.get("openblas configuration"),
    }


def _git_commit(root: Path) -> Optional[str]:
    """HEAD's commit, read from ``.git`` directly (no git process)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest(src: Path) -> str:
    """A digest of every Python file of the package under test."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def collect(root: Path, workload: str, seed: int) -> Dict[str, object]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"numpy": _blas(numpy), "scipy": _blas(scipy)},
        "num_threads": {
            key: value for key, value in sorted(os.environ.items())
            if key.endswith("_NUM_THREADS")
        },
        "commit": _git_commit(root),
        "source_sha256": source_digest(root / "src" / "repro"),
        "workload": workload,
        "seed": seed,
    }

