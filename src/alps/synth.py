"""Seeded synthetic datasets for experiments and acceptance checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .timeseries import TimeSeries

GRAMACY_LEE_DOMAIN = (0.5, 2.5)


def gramacy_lee(x) -> np.ndarray:
    """sin(10 pi x) / (2x) + (x - 1)^4 on [0.5, 2.5]: a standard test
    function mixing fast oscillation with a slow global trend."""
    x = np.asarray(x, dtype=float)
    return np.sin(10.0 * np.pi * x) / (2.0 * x) + (x - 1.0) ** 4


def gramacy_lee_series(
    n: int = 150, noise_sd: float = 0.05, seed: int = 0
) -> tuple[TimeSeries, np.ndarray]:
    """Irregularly sampled noisy series plus the noise-free truth at the
    same epochs. Endpoints are pinned so the domain is fully covered."""
    rng = np.random.default_rng(seed)
    lo, hi = GRAMACY_LEE_DOMAIN
    t = np.sort(rng.uniform(lo, hi, n))
    t[0], t[-1] = lo, hi
    truth = gramacy_lee(t)
    y = truth + rng.normal(0.0, noise_sd, n)
    return TimeSeries(t, y), truth


@dataclass(frozen=True)
class FusionSuite:
    """Decomposition benchmark: a fast seasonal dense series plus a slow
    smooth component, observed sparsely through their sum."""

    observations: TimeSeries
    dense_model: TimeSeries
    truth_total: np.ndarray  # true combined signal at the dense epochs
    truth_slow: np.ndarray  # true slow component at the dense epochs


def seasonal_component(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return 0.75 * np.sin(2.0 * np.pi * (t - 2000.0)) + 0.2 * np.sin(
        4.0 * np.pi * (t - 2000.0)
    )


def slow_component(t) -> np.ndarray:
    # Anchored to zero at the series start so the aligned difference
    # recovers it without a constant offset.
    t = np.asarray(t, dtype=float)
    return -3.0 * (np.tanh((t - 2003.0) / 0.8) - np.tanh(-3.75)) - 0.4 * (t - 2000.0)


def fusion_suite(
    n_obs: int = 25, noise_sd: float = 0.05, seed: int = 0
) -> FusionSuite:
    """Dense 10-day seasonal series over 2000-2006 and sparse noisy
    observations of seasonal + slow."""
    rng = np.random.default_rng(seed)
    start, end = 2000.0, 2006.0
    cadence = 10.0 / 365.25
    dense_t = np.arange(start, end + cadence / 2, cadence)
    h_s = seasonal_component(dense_t)

    obs_t = np.sort(rng.uniform(start, end, n_obs))
    obs_t[0], obs_t[-1] = dense_t[0], dense_t[-1]
    truth_at_obs = seasonal_component(obs_t) + slow_component(obs_t)
    obs_y = truth_at_obs + rng.normal(0.0, noise_sd, n_obs)

    return FusionSuite(
        observations=TimeSeries(obs_t, obs_y),
        dense_model=TimeSeries(dense_t, h_s),
        truth_total=h_s + slow_component(dense_t),
        truth_slow=slow_component(dense_t),
    )

