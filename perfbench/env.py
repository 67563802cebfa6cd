"""Process set-up shared by the benchmark and its set-up probe.

Importing this module imports nothing heavy: ``configure`` must run before
numpy is loaded, because the BLAS reads its thread count at load time.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# One BLAS thread: every workload is a single-caller closed loop over small
# matrices (at most 500 x 96), so the load model is one busy core.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure() -> None:
    """Pin the BLAS threads and put the checkout's ``src`` first on the path.

    Exits non-zero when the checkout has no package sources, so that the
    benchmark never measures an installed copy instead.
    """
    if not (SRC / "sparsebandit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package sources at {SRC / 'sparsebandit'}")
    for var in _BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))


def _blas_threads():
    """Thread count reported by numpy's bundled OpenBLAS, or None."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            try:
                fn = getattr(ctypes.CDLL(path), symbol)
            except (OSError, AttributeError):
                continue
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def _src_digest() -> str:
    """SHA-256 over the package's Python sources, path and bytes."""
    h = hashlib.sha256()
    for path in sorted((SRC / "sparsebandit").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record() -> dict:
    import numpy
    import scipy

    import sparsebandit

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "backend": sparsebandit.BACKEND,
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "package_path": str(Path(sparsebandit.__file__).resolve().parent),
    }
