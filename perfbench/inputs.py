"""Seeded inputs for the benchmark workloads.

Every generator takes a ``numpy.random.Generator`` made from the run's
``--seed``; the sizes (sample counts, repeats, grid lengths) are fixed, so
the amount of work a round does is the same for every seed and only the
epochs, the noise and the spike positions move.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Per-cell sample plans for the ice field: (campaign dates, repeats per
# date, sparse tail epochs), so n = dates * repeats + tail = 40, 78, 98,
# 98, 98. Three cells share the middle size, so the median cell of a run
# is one of them rather than a step between two sizes.
ICE_CELL_PLAN = (
    (12, 2, 16),
    (20, 3, 18),
    (26, 3, 20),
    (26, 3, 20),
    (26, 3, 20),
)
# Cells (by index into ICE_CELL_PLAN) that are also fused with the dense
# companion series.
ICE_FUSION_CELLS = (0, 2)
ICE_SIGMA = 0.15
ICE_GRID_YEARS = (2004, 2018)

# Criterion-7 cells: 50 campaign dates on [0, 1], three repeats each,
# sin(2 pi t) + 0.5 t, sigma 0.1 and three 10-sigma spikes.
C7_DATES, C7_REPEATS, C7_SIGMA = 50, 3, 0.1

CLI_FILES = 4
CLI_N = 90
CLI_GRID = 20_000


@dataclass(frozen=True)
class Cell:
    times: np.ndarray
    values: np.ndarray
    spikes: np.ndarray  # indices of the planted spikes
    check_spikes: bool  # built the way acceptance criterion 7 builds its series
    dense_times: np.ndarray | None = None  # 10-day companion series, if fused
    dense_values: np.ndarray | None = None


def _plant_spikes(rng, y, lo, hi, count, size):
    while True:
        idx = np.sort(rng.choice(np.arange(lo, hi), size=count, replace=False))
        if np.all(np.diff(idx) >= 5):
            break
    y[idx] += rng.choice([-1.0, 1.0], size=count) * size
    return idx


def ice_cell(rng, dates: int, repeats: int, tail: int) -> Cell:
    """One grid cell: repeated campaign epochs 2003-2009.8, a sparse
    multi-sensor tail 2010.5-2019.5, thinning that accelerates plus a
    seasonal cycle, and two planted 10-sigma spikes."""
    camp = np.sort(rng.uniform(2003.0, 2009.8, dates))
    camp[0] = 2003.0
    t_tail = np.sort(rng.uniform(2010.5, 2019.5, tail))
    t_tail[-1] = 2019.5
    t = np.concatenate((np.repeat(camp, repeats), t_tail))
    rate = rng.uniform(0.3, 1.2)
    accel = rng.uniform(0.02, 0.08)
    phase = rng.uniform(0.0, 1.0)
    truth = (-rate * (t - 2003.0) - accel * (t - 2003.0) ** 2
             + 0.4 * np.sin(2.0 * np.pi * (t - phase)))
    y = truth + rng.normal(0.0, ICE_SIGMA, t.size)
    spikes = _plant_spikes(rng, y, 2, dates * repeats - 2, 2, 10 * ICE_SIGMA)
    return Cell(t, y, spikes, check_spikes=False)


def criterion7_cell(rng) -> Cell:
    camp = np.sort(rng.uniform(0.0, 1.0, C7_DATES))
    camp[0], camp[-1] = 0.0, 1.0
    t = np.repeat(camp, C7_REPEATS)
    y = np.sin(2 * np.pi * t) + 0.5 * t + rng.normal(0, C7_SIGMA, t.size)
    spikes = _plant_spikes(rng, y, 10, 140, 3, 10 * C7_SIGMA)
    return Cell(t, y, spikes, check_spikes=True)


def dense_companion(rng, start=2003.0, end=2019.5):
    """10-day surface-process-style series: seasonal cycle plus a slow
    random-walk drift."""
    cadence = 10.0 / 365.25
    t = np.arange(start, end + cadence / 2, cadence)
    t[-1] = max(t[-1], end)
    drift = np.cumsum(rng.normal(0.0, 0.01, t.size))
    return t, 0.5 * np.sin(2.0 * np.pi * (t - 0.2)) + drift


def ice_field(rng) -> list[Cell]:
    cells = []
    for k, plan in enumerate(ICE_CELL_PLAN):
        cell = ice_cell(rng, *plan)
        if k in ICE_FUSION_CELLS:
            dt, dv = dense_companion(rng)
            cell = Cell(cell.times, cell.values, cell.spikes, False, dt, dv)
        cells.append(cell)
    cells.append(criterion7_cell(rng))
    return cells


def cli_series(rng):
    """CLI_FILES moderate series, each thinning plus seasonal at CLI_N
    irregular epochs."""
    out = []
    for _ in range(CLI_FILES):
        t = np.sort(rng.uniform(2005.0, 2020.0, CLI_N))
        t[0], t[-1] = 2005.0, 2020.0
        y = (-0.6 * (t - 2005.0) + 0.3 * np.sin(2.0 * np.pi * t)
             + rng.normal(0.0, 0.1, CLI_N))
        out.append((t, y))
    return out


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    """Each round of a run gets its own inputs, drawn from (seed, round)."""
    return np.random.default_rng([seed, round_index])
