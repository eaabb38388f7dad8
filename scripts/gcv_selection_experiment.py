"""GCV lambda selection quality over seeded replicates of the oscillating
benchmark.

Each row first gives the comparison acceptance criterion 5 asserts. On the
richest basis that fit scans (m = n - 1), where lambda does all of the
smoothing, lambda is chosen by GCV, and the truth RMSE of that fit is set
against the fits at the two lambda-grid endpoints. The remaining columns are
a diagnostic: the same comparison on the basis that fit selects (m_hat,
lambda_hat), where the knots already do most of the smoothing.

`--rules` adds a summary of other (m, lambda) selection rules on the
selected-basis reading: wins against the endpoints and mean truth RMSE.
"""

import argparse

import numpy as np

from alps import core
from alps.basis import build_knot_vector, eval_basis
from alps.solver import COST_TIE_RTOL, LambdaGrid, fit_penalized, minimize_gcv_lambda
from alps.synth import gramacy_lee, gramacy_lee_series

DEFAULT = core.FitConfig()
P, Q, GRID = DEFAULT.p, DEFAULT.q, DEFAULT.lambda_grid
TGRID = np.linspace(0.5, 2.5, 1000)
TRUTH = gramacy_lee(TGRID)


def truth_rmse(series, m, lam):
    kv = build_knot_vector(series.times, m, P)
    res = fit_penalized(eval_basis(kv, series.times), series.values, Q, lam)
    d = eval_basis(kv, TGRID).values @ res.theta - TRUTH
    return float(np.sqrt(np.mean(d * d)))


def compare(series, m, lam):
    """Truth RMSE at (m, lam) and at both grid endpoints on the same basis."""
    r = truth_rmse(series, m, lam)
    r_lo, r_hi = truth_rmse(series, m, GRID.lo), truth_rmse(series, m, GRID.hi)
    return r, r_lo, r_hi, r < r_lo and r < r_hi


def judged(rule, series, m, lam):
    r, _, _, win = compare(series, m, lam)
    return rule, r, win


def gcv_lambda(series, m):
    kv = build_knot_vector(series.times, m, P)
    return minimize_gcv_lambda([eval_basis(kv, series.times)], series.values, Q)[0][0]


def sequential(series):
    """Choose m by GCV at the grid floor, then lambda on that basis."""
    designs = (eval_basis(build_knot_vector(series.times, m, P), series.times)
               for m in range(1, len(series)))
    _, costs = minimize_gcv_lambda(designs, series.values, Q, LambdaGrid(GRID.lo, GRID.lo, 1))
    m = 1 + int(np.argmin(costs))
    return m, gcv_lambda(series, m)


def scaled_grid(series):
    """Joint (m, lambda) selection with each m's lambda grid scaled by n/c,
    the rate at which B'B grows against the penalty."""
    best = None
    for m in range(1, len(series)):
        kv = build_knot_vector(series.times, m, P)
        s = len(series) / kv.n_bases
        (lam,), (cost,) = minimize_gcv_lambda([eval_basis(kv, series.times)], series.values, Q,
                                              LambdaGrid(GRID.lo * s, GRID.hi * s))
        if np.isfinite(cost) and (best is None or cost < best[2]):
            best = (m, lam, cost)
    return best[:2]


def rule_rows(series, model):
    """(rule, rmse, win) for each selection rule, with rmse None where the
    rule only changes the comparators; and the number of other section
    counts whose GCV cost ties the selected one."""
    scan = [(m, lam, cost) for m, lam, cost in model.fit_metadata.scan if np.isfinite(cost)]
    ties = sum(m != model.m_hat and abs(cost - model.fit_metadata.gcv_cost)
               <= COST_TIE_RTOL * model.fit_metadata.gcv_cost for m, _, cost in scan)
    rows = [judged("today's joint rule", series, model.m_hat, model.lambda_hat)]
    r_joint = rows[0][1]

    m, lam, _ = min((r for r in scan if r[1] > GRID.lo), key=lambda r: r[2])
    rows.append(judged("skip floor-bound configurations", series, m, lam))

    rows.append(judged("choose m at lambda = grid floor, then lambda",
                       series, *sequential(series)))

    rows.append(judged("lambda grid scaled by n/c for each m", series, *scaled_grid(series)))

    pinned = [core.fit(series, core.FitConfig(lambda_grid=LambdaGrid(lam, lam, 1)))
              for lam in (GRID.lo, GRID.hi)]
    r_pinned = [truth_rmse(series, f.m_hat, f.lambda_hat) for f in pinned]
    rows.append(("endpoint full refits, m re-chosen by GCV", None,
                 r_joint < min(r_pinned)))

    low = core.fit(series, core.FitConfig(lambda_grid=LambdaGrid(lo=1e-7)))
    rows.append(judged("floor lowered to 1e-7", series, low.m_hat, low.lambda_hat))

    m, lam, _ = min(scan, key=lambda r: truth_rmse(series, r[0], r[1]))
    rows.append(judged("m chosen by the true RMSE (oracle)", series, m, lam))

    for m in (80, 100):
        rows.append(judged(f"fixed m={m}", series, m, gcv_lambda(series, m)))
    return rows, ties


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--replicates", type=int, default=30)
    ap.add_argument("--n", type=int, default=150)
    ap.add_argument("--noise", type=float, default=0.05)
    ap.add_argument("--seed0", type=int, default=0)
    ap.add_argument("--rules", action="store_true",
                    help="also summarize alternative selection rules (slow)")
    args = ap.parse_args()

    wins = {"rich": 0, "selected": 0}
    summary = {}
    tied = 0
    print(f"{'':>5} {'--- m = n-1 basis (criterion 5) ---':^48}   "
          f"{'--- selected basis (diagnostic) ---':^54}")
    print(f"{'seed':>5} {'lambda':>10} {'rmse(gcv)':>9} {'rmse(lo)':>9} {'rmse(hi)':>9} "
          f"{'win':>4}   {'m_hat':>5} {'lambda_hat':>10} {'rmse(gcv)':>9} {'rmse(lo)':>9} "
          f"{'rmse(hi)':>9} {'win':>4}")
    for k in range(args.replicates):
        seed = args.seed0 + k
        series, _ = gramacy_lee_series(n=args.n, noise_sd=args.noise, seed=seed)
        lam = gcv_lambda(series, len(series) - 1)
        rich = compare(series, len(series) - 1, lam)
        model = core.fit(series)
        sel = compare(series, model.m_hat, model.lambda_hat)
        wins["rich"] += rich[3]
        wins["selected"] += sel[3]
        print(f"{seed:>5} {lam:>10.4g} {rich[0]:>9.5f} {rich[1]:>9.5f} {rich[2]:>9.5f} "
              f"{'yes' if rich[3] else 'no':>4}   {model.m_hat:>5} {model.lambda_hat:>10.4g} "
              f"{sel[0]:>9.5f} {sel[1]:>9.5f} {sel[2]:>9.5f} {'yes' if sel[3] else 'no':>4}")
        if args.rules:
            rows, ties = rule_rows(series, model)
            tied += ties > 0
            for rule, r, win in rows:
                total = summary.setdefault(rule, [0, 0.0])
                total[0] += win
                total[1] += r if r is not None else float("nan")

    n_rep = args.replicates
    print(f"\nwins against both endpoints, m = n-1 basis: {wins['rich']}/{n_rep}")
    print(f"wins against both endpoints, selected basis: {wins['selected']}/{n_rep}")
    if args.rules:
        print(f"\n{'selection rule (selected-basis reading)':<46} {'wins':>6} {'mean rmse':>10}")
        for rule, (w, r) in summary.items():
            mean = f"{r / n_rep:.4f}" if np.isfinite(r) else "-"
            print(f"{rule:<46} {w:>3}/{n_rep:<2} {mean:>10}")
        print(f"\nreplicates where another m ties the selected GCV cost: {tied}/{n_rep}")


if __name__ == "__main__":
    main()
