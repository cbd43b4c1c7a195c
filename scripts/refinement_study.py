"""Grid-refinement study for the Dirichlet solver.

Solves f_xx + P'(w) f_yy = 0 with boundary data x^2 on a ladder of nested
grids and prints the max-norm differences between successive solutions at
shared nodes.  A second-order scheme gives ratios near 4.
"""

import sys
import time

import numpy as np

from slfold.branch import params_from_levels
from slfold.grid import BoundaryData, GridDomain
from slfold.pde import SolverConfig, solve_dirichlet


def main() -> int:
    levels = (1.0, -1.0)
    params = params_from_levels(levels)
    sizes = (9, 17, 33, 65, 129)
    cfg = SolverConfig(tolerance=1e-10, max_iterations=100_000)

    solutions = {}
    print(f"levels a = {levels}, boundary phi = x^2 on [-1,1]^2, tol = {cfg.tolerance:g}")
    print(f"{'nodes':>7} {'cycles':>7} {'residual':>10} {'margin':>8} {'seconds':>8}")
    for nn in sizes:
        dom = GridDomain(-1.0, 1.0, -1.0, 1.0, nn, nn)
        phi = BoundaryData.from_function(dom, lambda x, y: x**2 + 0 * y)
        t0 = time.perf_counter()
        sol = solve_dirichlet(params, dom, phi, cfg)
        dt = time.perf_counter() - t0
        solutions[nn] = sol.f.values
        print(f"{nn:>5}^2 {sol.iterations:>7} {sol.final_residual:>10.2e} "
              f"{sol.ellipticity_margin:>8.4f} {dt:>8.2f}")

    print(f"\n{'pair':>12} {'max diff':>10} {'ratio':>7}")
    prev_diff = None
    for coarse, fine in zip(sizes, sizes[1:]):
        diff = float(np.abs(solutions[coarse] - solutions[fine][::2, ::2]).max())
        ratio = "" if prev_diff is None else f"{prev_diff / diff:7.3f}"
        print(f"{coarse:>4}^2/{fine}^2 {diff:>10.3e} {ratio:>7}")
        prev_diff = diff
    return 0


if __name__ == "__main__":
    sys.exit(main())
