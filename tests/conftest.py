import os

# OpenBLAS reads its thread count once, when numpy loads, which it has not
# yet when pytest reads this file: the suite runs BLAS on one thread, as the
# `capsym` command does, so that the lanes do not nest BLAS threads.  Tests
# that set or remove the variable do so in their own subprocesses.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
