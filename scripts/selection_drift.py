"""Record which (m_hat, lambda_hat, gcv_cost) every fit selects on named
inputs, with a sha256 of each fit's model document and one of its bands,
then its df_res and sigma2, and compare two such records.

    PYTHONPATH=src python scripts/selection_drift.py --out drift.json
    python scripts/selection_drift.py --compare parent.json change.json

The inputs:

- ``ice-field/s<seed>r<round>/cell<k>/<stage>``: the benchmark's ice-field
  cells, seeds 1-5, rounds 0-1, by stage: ``final`` is the final model of
  ``outliers.detect_and_refit``, ``fusion`` the difference model of
  ``fusion.reconstruct`` (cells with a dense series), and ``flags`` the
  level-1 and level-2 flag tuples. Keys name stages, not fits, so records
  stay aligned however many fits a stage makes;
- ``cli-batch/s<seed>r<round>/file<k>``: the benchmark's CLI series;
- ``criterion/<seed>``: the criterion-5 series (Gramacy-Lee, n = 150,
  noise 0.05), seeds 0-89, through ``core.fit``; ``criterion/<seed>/m=n-1``
  is the lambda search on the m = n - 1 basis that criterion 5 judges;
- ``degenerate/<seed>/k<k>/p<p>q<q>``: n = 12 points clustered on k = 1-4
  distinct epochs, through ``core.fit`` for every p = 2-4 and q < p. Where
  the fit raises, the entry is the exception's type name alone;
- ``terminus/n1500``: one n = 1500 record (tanh step, trend, seasonal term,
  noise 0.2) through ``core.fit`` with ``FitConfig(m_scan="strided")``, with
  its time.

The benchmark inputs come from ``perfbench/inputs.py``, imported read-only.
``--quick`` records only seeds 1, 0-9 and 0-2 and skips the long record.
Only the degenerate group and the long record need ``FitConfig``.

The band hash covers the ``predict`` and ``predict_derivative`` mean and
std bytes of ``model_from_dict(model_to_dict(model))`` at 101 epochs
across its domain, so a change of the document's format alone shows as
changed documents with unchanged bands.

``--compare`` lists every input whose outcome changed between a model and
an error (or between error types) before comparing the models, and every
cell whose flags changed, then the changed documents and the changed bands
apart. Over the models whose m_hat did not move it prints the largest
|dlog lambda| and the largest relative gap of gcv_cost, df_res and sigma2
(records made before df_res and sigma2 were recorded compare without
them). It exits 1 when any outcome, flag tuple, m_hat, model document or
band differs, and 0 otherwise.
"""

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def selected(model) -> list:
    from alps import core

    doc = core.model_to_dict(model)
    loaded = core.model_from_dict(doc)
    epochs = np.linspace(*loaded.domain, 101)
    bands = hashlib.sha256()
    for fn in (core.predict, core.predict_derivative):
        band = fn(loaded, epochs)
        bands.update(band.mean.tobytes())
        bands.update(band.std.tobytes())
    return [model.m_hat, model.lambda_hat, model.fit_metadata.gcv_cost,
            hashlib.sha256(json.dumps(doc).encode()).hexdigest(), bands.hexdigest(),
            model.df_res, model.sigma2]


def benchmark_inputs(out: dict, seeds) -> None:
    sys.path.insert(0, str(PERFBENCH))
    import inputs  # perfbench/inputs.py
    from alps import core, fusion, outliers
    from alps.timeseries import TimeSeries

    for seed in seeds:
        for k in (0, 1):
            tag = f"s{seed}r{k}"
            for c, cell in enumerate(inputs.ice_field(inputs.round_rng(seed, k))):
                key = f"ice-field/{tag}/cell{c}"
                report = outliers.detect_and_refit(TimeSeries(cell.times, cell.values))
                out[f"{key}/final"] = selected(report.final_model)
                out[f"{key}/flags"] = [list(report.level1_indices), list(report.level2_indices)]
                if cell.dense_times is not None:
                    dense = TimeSeries(cell.dense_times, cell.dense_values)
                    result = fusion.reconstruct(fusion.FusionInput(report.clean_data, dense))
                    out[f"{key}/fusion"] = selected(result.dibc_model)
            for f, (t, y) in enumerate(inputs.cli_series(inputs.round_rng(seed, k))):
                out[f"cli-batch/{tag}/file{f}"] = selected(core.fit(TimeSeries(t, y)))


def criterion_inputs(out: dict, seeds) -> None:
    from alps import core
    from alps.basis import build_knot_vector, eval_basis
    from alps.solver import minimize_gcv_lambda
    from alps.synth import gramacy_lee_series

    for seed in seeds:
        series, _ = gramacy_lee_series(n=150, noise_sd=0.05, seed=seed)
        model = core.fit(series)
        out[f"criterion/{seed}"] = selected(model)
        kv = build_knot_vector(series.times, len(series) - 1, 4)
        lam, cost = minimize_gcv_lambda([eval_basis(kv, series.times)], series.values, 2)
        out[f"criterion/{seed}/m=n-1"] = [kv.m, float(lam[0]), float(cost[0])]


def degenerate_inputs(out: dict, seeds) -> None:
    from alps import core
    from alps.errors import AlpsError
    from alps.timeseries import TimeSeries

    for seed in seeds:
        rng = np.random.default_rng([seed, 8])
        for k in (1, 2, 3, 4):
            centres = np.sort(rng.uniform(2000.0, 2010.0, k))
            t = np.sort(np.concatenate((centres, rng.choice(centres, 12 - k))))
            series = TimeSeries(t, rng.normal(size=t.size))
            for p in (2, 3, 4):
                for q in range(1, p):
                    try:
                        entry = selected(core.fit(series, core.FitConfig(p=p, q=q)))
                    except AlpsError as exc:
                        entry = [type(exc).__name__]
                    out[f"degenerate/{seed}/k{k}/p{p}q{q}"] = entry


def terminus_record(n: int = 1500, seed: int = 1):
    from alps.timeseries import TimeSeries

    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(2000.0, 2020.0, n))
    t[0], t[-1] = 2000.0, 2020.0
    y = (-8.0 * np.tanh((t - 2012.0) / 1.5) - 0.3 * (t - 2000.0)
         + 0.8 * np.sin(2.0 * np.pi * t) + rng.normal(0.0, 0.2, n))
    return TimeSeries(t, y)


def record(quick: bool) -> dict:
    from alps import core

    out = {}
    benchmark_inputs(out, [1] if quick else range(1, 6))
    criterion_inputs(out, range(10) if quick else range(90))
    degenerate_inputs(out, range(3) if quick else range(10))
    if not quick:
        started = time.perf_counter()
        model = core.fit(terminus_record(), core.FitConfig(m_scan="strided"))
        out["terminus/n1500"] = selected(model)
        out["terminus/n1500/seconds"] = time.perf_counter() - started
    return out


def _outcome(entry) -> str:
    # An entry of one element is the type name of the exception a fit raised.
    return entry[0] if len(entry) == 1 else f"model m_hat={entry[0]}"


def _largest(gaps) -> str:
    """The largest of (gap, key) pairs, naming its key only when it is
    above 0: every key ties at 0."""
    gap, key = max(gaps, default=(0.0, None))
    return f"{gap:.3g}" + (f" ({key})" if gap > 0 else "")


def _relative(a: float, b: float) -> float:
    return abs(b - a) / max(abs(a), 1e-300)


def compare(a: dict, b: dict) -> bool:
    """Print the differences between two records; whether any outcome,
    flag tuple, m_hat, model document or band differs."""
    keys = sorted(k for k in a.keys() & b.keys() if not k.endswith(("/seconds", "/flags")))
    flags = sorted(k for k in a.keys() & b.keys() if k.endswith("/flags"))
    flag_diff = [k for k in flags if a[k] != b[k]]
    print(f"flag tuples compared: {len(flags)}; differing: {len(flag_diff)}"
          + "".join(f"\n  {k}: {a[k]} -> {b[k]}" for k in flag_diff))
    raised = [k for k in keys if len(a[k]) == 1 or len(b[k]) == 1]
    changed = [k for k in raised if _outcome(a[k]) != _outcome(b[k])]
    print(f"inputs where a fit raised: {len(raised)}; outcome changed: {len(changed)}"
          + "".join(f"\n  {k}: {_outcome(a[k])} -> {_outcome(b[k])}" for k in changed))
    keys = [k for k in keys if k not in raised]
    m_diff = [k for k in keys if a[k][0] != b[k][0]]
    same = [k for k in keys if a[k][0] == b[k][0]]
    finite = [k for k in same if math.isfinite(a[k][2]) and math.isfinite(b[k][2])]
    bits = sum(1 for k in same if a[k][1:3] == b[k][1:3])
    # Entries of a lambda search alone (m=n-1) carry no model document.
    docs = [k for k in keys if len(a[k]) > 3 and len(b[k]) > 3]
    doc_diff = [k for k in docs if a[k][3] != b[k][3]]
    bands = [k for k in keys if len(a[k]) > 4 and len(b[k]) > 4]
    band_diff = [k for k in bands if a[k][4] != b[k][4]]
    fits = [k for k in same if len(a[k]) > 6 and len(b[k]) > 6]
    print(f"models compared: {len(keys)} (only in one record: "
          f"{len(a.keys() ^ b.keys())})")
    print(f"m_hat mismatches: {len(m_diff)}" + "".join(
        f"\n  {k}: {a[k][0]} -> {b[k][0]}" for k in m_diff))
    print(f"lambda_hat and gcv_cost bit-identical: {bits}/{len(same)}")
    print(f"largest |dlog lambda|: "
          f"{_largest((abs(math.log(b[k][1] / a[k][1])), k) for k in finite)}")
    for i, name, over in ((2, "gcv_cost", finite), (5, "df_res", fits), (6, "sigma2", fits)):
        print(f"largest relative {name} gap over {len(over)} models: "
              f"{_largest((_relative(a[k][i], b[k][i]), k) for k in over)}")
    print(f"model documents differing: {len(doc_diff)}/{len(docs)}"
          + "".join(f"\n  {k}" for k in doc_diff))
    print(f"bands differing: {len(band_diff)}/{len(bands)}"
          + "".join(f"\n  {k}" for k in band_diff))
    for k in sorted(a.keys() & b.keys()):
        if k.endswith("/seconds"):
            print(f"{k}: {a[k]:.2f} -> {b[k]:.2f}")
    return bool(changed or flag_diff or m_diff or doc_diff or band_diff)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", help="write the record here as JSON")
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = ap.parse_args()
    if args.compare:
        a, b = (json.loads(Path(p).read_text()) for p in args.compare)
        return int(compare(a, b))
    out = record(args.quick)
    text = json.dumps(out, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
