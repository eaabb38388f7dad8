"""Single-point perturbation experiment: how far does a moved observation
propagate through the penalized-spline fit versus a degree-5 polynomial?

Prints the maximum prediction change inside the perturbed point's
basis-support window and beyond it (>= p+1 knot spans away).
"""

import argparse

import numpy as np

from alps import core
from alps.baselines import fit_polynomial
from alps.basis import eval_basis
from alps.solver import fit_penalized
from alps.synth import gramacy_lee_series
from alps.timeseries import TimeSeries


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--n", type=int, default=150)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--delta", type=float, default=0.5,
                    help="perturbation added to one observation")
    ap.add_argument("--at", type=float, default=0.9,
                    help="perturb the observation nearest this epoch")
    args = ap.parse_args()

    series, _ = gramacy_lee_series(n=args.n, noise_sd=args.noise, seed=args.seed)
    model = core.fit(series)
    kv, p = model.knot_vector, model.p
    print(f"fit: m_hat={model.m_hat} lambda_hat={model.lambda_hat:.5g} "
          f"df_res={model.df_res:.1f}")

    idx = int(np.argmin(np.abs(series.times - args.at)))
    t_star = series.times[idx]
    perturbed = series.values.copy()
    perturbed[idx] += args.delta

    B = eval_basis(kv, series.times)
    base = fit_penalized(B, series.values, model.q, model.lambda_hat)
    pert = fit_penalized(B, perturbed, model.q, model.lambda_hat)

    grid = np.linspace(*model.domain, 800)
    Bg = eval_basis(kv, grid)
    delta = np.abs(Bg.values @ (pert.theta - base.theta))

    k_star, spans = int(B.first[idx]), Bg.first
    near = np.abs(spans - k_star) <= p
    far = np.abs(spans - k_star) >= p + 1

    poly_base = fit_polynomial(series, 5)
    poly_pert = fit_polynomial(TimeSeries(series.times, perturbed), 5)
    poly_delta = np.abs(poly_pert.predict(grid) - poly_base.predict(grid))

    print(f"perturbed epoch {t_star:.4f} (span {k_star} of {kv.m}) by {args.delta:+g}")
    print(f"{'model':<10} {'near max':>12} {'far max':>12} {'far/near':>10}")
    print(f"{'spline':<10} {delta[near].max():12.3e} {delta[far].max():12.3e} "
          f"{delta[far].max() / delta[near].max():10.4f}")
    print(f"{'poly5':<10} {poly_delta[near].max():12.3e} {poly_delta[far].max():12.3e} "
          f"{poly_delta[far].max() / poly_delta[near].max():10.4f}")


if __name__ == "__main__":
    main()
