"""Grid-refinement study for the Dirichlet solver.

Solves f_xx + P'(w) f_yy = 0 on two ladders of nested grids and prints the
max-norm differences between successive solutions at shared nodes.  A
second-order scheme gives ratios near 4.

1. levels a = (1, -1), boundary data x^2 on [-1,1]^2, 9^2 to 129^2;
2. the singular levels a = (0, 0) (min(a) attained twice), boundary data
   x^2 - y^2/2 + 0.3xy on [-1,1] x [0.2,1.4], 17^2 to 65^2: the domain
   avoids y = 0, so the a-priori ellipticity bound is F(0.2^2) = 0.4.
"""

import sys
import time

import numpy as np

from slfold.branch import params_from_levels
from slfold.grid import BoundaryData, GridDomain
from slfold.pde import SolverConfig, solve_dirichlet


def ladder(levels, fn, label, bounds, sizes, cfg):
    params = params_from_levels(levels)
    solutions = {}
    print(f"levels a = {levels}, boundary phi = {label}, tol = {cfg.tolerance:g}")
    print(f"{'nodes':>7} {'cycles':>7} {'residual':>10} {'margin':>8} {'bound':>8} {'seconds':>8}")
    for nn in sizes:
        dom = GridDomain(*bounds, nn, nn)
        phi = BoundaryData.from_function(dom, fn)
        t0 = time.perf_counter()
        sol = solve_dirichlet(params, dom, phi, cfg)
        dt = time.perf_counter() - t0
        solutions[nn] = sol.f.values
        print(f"{nn:>5}^2 {sol.iterations:>7} {sol.final_residual:>10.2e} "
              f"{sol.ellipticity_margin:>8.4f} {sol.ellipticity_bound:>8.4f} {dt:>8.2f}")

    print(f"\n{'pair':>12} {'max diff':>10} {'ratio':>7}")
    prev_diff = None
    for coarse, fine in zip(sizes, sizes[1:]):
        diff = float(np.abs(solutions[coarse] - solutions[fine][::2, ::2]).max())
        ratio = "" if prev_diff is None else f"{prev_diff / diff:7.3f}"
        print(f"{coarse:>4}^2/{fine}^2 {diff:>10.3e} {ratio:>7}")
        prev_diff = diff


def main() -> int:
    cfg = SolverConfig(tolerance=1e-10, max_iterations=100_000)
    ladder((1.0, -1.0), lambda x, y: x**2 + 0 * y, "x^2 on [-1,1]^2",
           (-1.0, 1.0, -1.0, 1.0), (9, 17, 33, 65, 129), cfg)
    print()
    ladder((0.0, 0.0), lambda x, y: x**2 - y**2 / 2 + 0.3 * x * y,
           "x^2 - y^2/2 + 0.3xy on [-1,1] x [0.2,1.4]", (-1.0, 1.0, 0.2, 1.4), (17, 33, 65), cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
