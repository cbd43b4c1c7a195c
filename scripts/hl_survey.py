"""Survey of the gauge-constrained subfamily over a base grid.

One hl_triples call, the array solve that `slfold example hl` runs, produces
(u, v, w) at every grid point, and one hl_partials call their implicit partial
derivatives; the script reports the worst defect of every defining constraint
and of its differential along x and y (the partials have the reduced system
u_x = v_y, v_x = -P'(w) u_y built in, so these defects are what it rests on).
It does so for positive head levels and for negative ones, whose solved rows
must all lie on the branch w >= w0 (the count below it is expected to be 0).

    PYTHONPATH=src python scripts/hl_survey.py
"""

import sys

import numpy as np

from slfold.branch import eval_p, eval_p_prime
from slfold.families import HLConfig, hl_partials, hl_triples


# (head levels, b): positive heads, and the negative heads of `slfold example hl
# --a=-0.7703,-2.3912,-3.9233,0 --b=-0.088`
CONFIGS = (((1.0, 0.5), 0.2), ((-0.7703, -2.3912, -3.9233), -0.088))


def survey(cfg: HLConfig) -> None:
    xs = np.linspace(-1.4, 1.4, 15)
    ys = np.concatenate([np.linspace(-1.4, -0.2, 7), np.linspace(0.2, 1.4, 7)])
    x, y = np.meshgrid(xs, ys, indexing="ij")
    cols = hl_triples(cfg, x, y)
    # dx[k] = (u_x, v_x, w_x) and dy[k] = (u_y, v_y, w_y) at solved point k
    dx, dy = hl_partials(cfg, x, y, cols)
    ok = cols.status == "ok"
    x, y, u, v, w, dx, dy = (c[ok] for c in (x, y, cols.u, cols.v, cols.w, dx, dy))

    pw, pp = eval_p(cfg.params, w), eval_p_prime(cfg.params, w)
    (ux, vx, wx), (uy, vy, wy) = dx.T, dy.T
    defects = {
        "|w - x^2 - u^2 - b|": w - (x * x + u**2 + cfg.b),
        "|v u + x y|": v * u + x * y,
        "|P(w) - v^2 - y^2|": pw - (v**2 + y * y),
        "|d(w - x^2 - u^2)|": np.r_[wx - 2.0 * (x + u * ux), wy - 2.0 * u * uy],
        "|d(v u + x y)|": np.r_[vx * u + v * ux + y, vy * u + v * uy + x],
        "|d(P(w) - v^2 - y^2)|": np.r_[pp * wx - 2.0 * v * vx, pp * wy - 2.0 * (v * vy + y)],
    }

    print(f"levels a = {cfg.params.a}, b = {cfg.b}")
    print(f"solved {int(ok.sum())} points, {int((cols.status == 'degenerate').sum())} degenerate "
          f"(x = 0 with w(y^2) - b <= 0), {int((w < cfg.params.w0).sum())} below w0 = {cfg.params.w0 + 0.0:g}")
    for label, defect in defects.items():
        print(f"worst {label:<23}= {np.abs(defect).max(initial=0.0):.3e}")


def main() -> int:
    for head, b in CONFIGS:
        survey(HLConfig.from_head(head, b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
