"""Where the benchmark finds the program, and the stamp that names it.

The benchmark lives in ``benchmarks/`` of a source checkout and runs the
package from ``src/`` of that same checkout, never an installed copy.
Only the standard library is imported here, so the orchestrator can use
it without paying for numpy.
"""
from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "fibweave"

# Pinned before numpy is imported in any benchmark process: one client,
# one thread, so BLAS must not spread a 2x2 product over the cores.
BLAS_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class MissingProgram(RuntimeError):
    """The checkout holds no ``src/fibweave`` to benchmark."""


def require_program():
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingProgram(f"no fibweave package under {SRC}")


def use_source_tree():
    """Put this checkout's ``src`` first on the import path and import it."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fibweave

    if Path(fibweave.__file__).resolve().parent != PACKAGE.resolve():
        raise MissingProgram(f"imported fibweave from {fibweave.__file__}, not {PACKAGE}")
    return fibweave


def child_env():
    env = dict(os.environ)
    env.update(BLAS_PINS)
    env["PYTHONHASHSEED"] = "0"
    # glibc's default mmap threshold (128 KiB), held fixed: the adaptive
    # threshold otherwise makes peak RSS depend on the order of the ops.
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def git_sha():
    """HEAD of the checkout, read from ``.git`` without running git.

    None when the checkout is not a git repository.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def source_digest():
    """sha256 over the package sources, so a run names its code even
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def stamp():
    """Host and source facts that do not need the package imported."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    return {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": cores,
        "blas_threads": BLAS_PINS,
    }
