"""Forecast error metrics: RMSE, MAE, MAPE and R² over flow series.

MAPE terms whose actual flow is zero, or below `MAPE_MIN_ACTUAL` in
magnitude, are skipped (and counted in `mape_skipped`): dividing by a
near-zero actual says nothing about the forecast and can overflow. R²
with zero (or rounding-level) variance in the actuals is reported as
undefined rather than coerced.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# R² is undefined when the actuals' RMS deviation is below this share of
# their largest magnitude. Below it, rounding the inputs (~1e-16 relative)
# can move the variance by more than ~1e-7 relative; at rounding-level
# spreads R² came out as noise of order -1e30.
R2_MIN_REL_SPREAD = 1e-8
# Actual flows (veh/h) smaller than this in magnitude count as zero for
# MAPE, far below any measured flow.
MAPE_MIN_ACTUAL = 1e-6


@dataclass
class MetricReport:
    rmse: float
    mae: float
    mape: float | None  # percent; None when every actual was zero
    r2: float | None  # None when the actuals are (nearly) constant
    n: int
    mape_skipped: int = 0


def compute(actual, predicted):
    actual = np.asarray(actual, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    if actual.size == 0:
        raise ValueError("empty input")
    if actual.shape != predicted.shape:
        raise ValueError("length mismatch")

    err = actual - predicted
    rmse = float(np.sqrt(np.mean(err ** 2)))
    mae = float(np.mean(np.abs(err)))

    counted = np.abs(actual) >= MAPE_MIN_ACTUAL
    skipped = int((~counted).sum())
    if counted.any():
        mape = float(np.mean(np.abs(err[counted] / actual[counted])) * 100.0)
    else:
        mape = None

    ss_tot = float(np.sum((actual - actual.mean()) ** 2))
    floor = actual.size * (R2_MIN_REL_SPREAD * np.abs(actual).max()) ** 2
    r2 = None if ss_tot <= floor else 1.0 - float(np.sum(err ** 2)) / ss_tot

    return MetricReport(rmse=rmse, mae=mae, mape=mape, r2=r2,
                        n=int(actual.size), mape_skipped=skipped)
