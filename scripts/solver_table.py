"""The solver baseline table of ROADMAP.md, row by row.

Solves each row's Dirichlet problem on [-1,1]^2 with solve_dirichlet and
prints its V-cycles, accepted Newton steps, rejected steps, the
exit code `slfold solve` would give (0 converged, 2 no convergence), the
final residual and the wall time.  The tolerance is the default 1e-10,
except 1e-9 for the stall case.

    PYTHONPATH=src python scripts/solver_table.py
"""

import sys
import time

import numpy as np

from slfold.branch import params_from_levels
from slfold.errors import NoConvergenceError
from slfold.grid import BoundaryData, GridDomain
from slfold.pde import SolverConfig, solve_dirichlet

STALL_LEVELS = (-1.989, -0.5366, -1.7663, 0.56)


def stall_data(x, y):
    return -1.8139 * np.sin(-1.7264 * x - 1.6802 * y) - 0.9129 * x * y + 0.3054 * x**2 - 1.2218 * y


# (levels, data label, data, grid sides, tolerance)
ROWS = (
    ((1.0, -1.0), "x^2", lambda x, y: x**2 + 0 * y, (129, 257), 1e-10),
    ((0.1, 0.0), "5x^2", lambda x, y: 5 * x**2 + 0 * y, (33, 65, 129, 257), 1e-10),
    ((0.1, 0.0), "exp(2x) y", lambda x, y: np.exp(2 * x) * y, (65, 129, 257), 1e-10),
    ((1.0, 0.25, -1.0), "sin 3x + y^3", lambda x, y: np.sin(3 * x) + y**3, (129, 257), 1e-10),
    (STALL_LEVELS, "stall case", stall_data, (33, 65, 129), 1e-9),
)


def main() -> int:
    print(f"{'levels':>33} {'data':>13} {'grid':>6} {'cycles':>6} {'newton':>6} {'rejected':>8} "
          f"{'exit':>4} {'residual':>9} {'seconds':>7}")
    for levels, label, fn, sides, tol in ROWS:
        params = params_from_levels(levels)
        for m in sides:
            dom = GridDomain(-1.0, 1.0, -1.0, 1.0, m, m)
            phi = BoundaryData.from_function(dom, fn)
            t0 = time.perf_counter()
            try:
                sol = solve_dirichlet(params, dom, phi, SolverConfig(tolerance=tol))
                row = (sol.iterations, sol.newton_steps, sol.rejected_steps, 0, sol.final_residual)
            except NoConvergenceError as exc:
                row = (exc.iterations, "-", "-", 2, exc.residual)
            dt = time.perf_counter() - t0
            cycles, newton, rejected, code, residual = row
            print(f"{str(levels):>33} {label:>13} {m:>4}^2 {cycles:>6} {newton:>6} {rejected:>8} "
                  f"{code:>4} {residual:>9.2e} {dt:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
