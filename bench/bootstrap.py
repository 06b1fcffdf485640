"""Start-up shared by the benchmark's entry points; imports nothing heavy.

`prepare` must run before numpy is imported anywhere in the process.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def prepare():
    """Pin BLAS to one thread and put this checkout's `src` first on the path.

    Must run before numpy is imported. Raises SystemExit if `src` is missing,
    so the benchmark never measures some other installed copy.
    """
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    package = ROOT / "src" / "clclsa"
    if not (package / "__init__.py").is_file():
        print(f"bench: no clclsa sources at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import clclsa

    if Path(clclsa.__file__).resolve().parent != package.resolve():
        print(f"bench: imported clclsa from {clclsa.__file__}, not {package}",
              file=sys.stderr)
        raise SystemExit(2)
