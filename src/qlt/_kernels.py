# perfbench/run.py::host_block reads this constant for its kernel_path; it
# goes once ROADMAP item 1 drops that read.
NUMBA_ENABLED = False
