"""Survey of the gauge-constrained subfamily over a base grid.

One hl_triples call, the array solve that `slfold example hl` runs, produces
(u, v, w) at every grid point; the script reports the worst defect of every
defining constraint and checks, via the implicit partial derivatives at each
solved point, that the subfamily satisfies the reduced first-order system.
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
    ok = cols.status == "ok"
    x, y, u, v, w = (c[ok] for c in (x, y, cols.u, cols.v, cols.w))

    pw = eval_p(cfg.params, w)
    pp = eval_p_prime(cfg.params, w)
    # d[k, 0] = (u_x, v_x, w_x) and d[k, 1] = (u_y, v_y, w_y) at solved point k
    d = np.array([hl_partials(cfg, float(xi), float(yi)) for xi, yi in zip(x, y)]).reshape(-1, 2, 3)
    worst = dict(
        gauge=np.abs(w - (x * x + u**2 + cfg.b)).max(initial=0.0),
        phase=np.abs(v * u + x * y).max(initial=0.0),
        modulus=np.abs(pw - (v**2 + y * y)).max(initial=0.0),
        curl=np.abs(d[:, 0, 0] - d[:, 1, 1]).max(initial=0.0),
        system=np.abs(d[:, 0, 1] + pp * d[:, 1, 0]).max(initial=0.0),
    )

    print(f"levels a = {cfg.params.a}, b = {cfg.b}")
    print(f"solved {int(ok.sum())} points, {int((cols.status == 'degenerate').sum())} degenerate "
          f"(x = 0 with w(y^2) - b <= 0), {int((w < cfg.params.w0).sum())} below w0 = {cfg.params.w0 + 0.0:g}")
    print(f"worst |w - x^2 - u^2 - b|    = {worst['gauge']:.3e}")
    print(f"worst |v u + x y|            = {worst['phase']:.3e}")
    print(f"worst |P(w) - v^2 - y^2|     = {worst['modulus']:.3e}")
    print(f"worst |u_x - v_y|            = {worst['curl']:.3e}")
    print(f"worst |v_x + P'(w) u_y|      = {worst['system']:.3e}")


def main() -> int:
    for head, b in CONFIGS:
        survey(HLConfig.from_head(head, b))
    return 0


if __name__ == "__main__":
    sys.exit(main())
