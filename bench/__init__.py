"""The repository benchmark: four workloads, end to end and layer by layer.

See ``bench/README.md`` for the workloads, metrics and how to run them, and
``BENCHMARK.json`` for the names, units, directions and regression bounds.
"""

import os

# One BLAS thread, set before anything imports numpy.  The models are 48-96
# wide, where a second OpenBLAS thread buys about 12% and spins on the
# other vCPU of a two-vCPU box: with any other process running, every
# matmul then waits for it (one busy-loop process tripled set-up time and
# pushed openroad_qa past saturation; with one thread it cost 15%).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
