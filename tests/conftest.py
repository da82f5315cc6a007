"""Shared pytest wiring: print one line per acceptance criterion.

The acceptance tests record their verdicts in acceptance_log.RESULTS as
they run; this hook replays them in the terminal summary so each
criterion's PASS/FAIL line is visible regardless of output capture.

BLAS runs on one thread unless the caller chose otherwise, as in the
benchmark: the model's matrices are at most a few hundred rows, so a
second OpenBLAS thread adds no speed, only a core of busy-waiting that
slows the timed acceptance criteria on a loaded machine.  Outputs are
byte-identical either way.  This must run before numpy is imported.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import acceptance_log  # noqa: E402


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_log.RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_log.RESULTS:
            terminalreporter.write_line(line)
