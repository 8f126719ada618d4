"""Test-session set-up: pin BLAS threads before any test module loads numpy.

OpenBLAS reads its thread count once, when numpy loads.  Importing
``scgpt.cli`` first copies ``SCGPT_THREADS`` (default 1) into every BLAS
thread variable that is not set yet, as the command line does, so a
local run computes with the thread count CI pins and the transfer tests
read the figures CI reads.
"""

from scgpt import cli  # noqa: F401  (sets the thread variables, then loads numpy)
