"""Run the suite with one BLAS thread, as the benchmark does.

The BLAS reads its thread count when numpy loads, so this must run before
any test module imports numpy. An explicit setting in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
