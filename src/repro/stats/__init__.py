"""Statistics toolkit used by the failure analyses.

This package provides the statistical primitives the paper's analyses
rest on: empirical CDFs (Figures 6 and 9), five-number summaries for
boxplots (Figures 7, 10 and 11), parametric distribution fitting,
Kaplan-Meier survival estimation, and the correlation / goodness-of-fit
tests used to check the seasonality claims (RQ5).
"""

from repro.stats.changepoint import Changepoint, detect_changepoints
from repro.stats.correlation import pearson, spearman
from repro.stats.dispersion import (
    count_autocorrelation,
    gap_coefficient_of_variation,
    index_of_dispersion,
    window_counts,
)
from repro.stats.ecdf import ECDF
from repro.stats.fitting import (
    FitResult,
    fit_best,
    fit_distribution,
    SUPPORTED_DISTRIBUTIONS,
)
from repro.stats.summary import FiveNumberSummary, describe, five_number_summary
from repro.stats.survival import KaplanMeier
from repro.stats.tests import chi_square_gof, ks_two_sample

__all__ = [
    "Changepoint",
    "ECDF",
    "FiveNumberSummary",
    "FitResult",
    "KaplanMeier",
    "SUPPORTED_DISTRIBUTIONS",
    "chi_square_gof",
    "count_autocorrelation",
    "describe",
    "detect_changepoints",
    "gap_coefficient_of_variation",
    "index_of_dispersion",
    "window_counts",
    "fit_best",
    "fit_distribution",
    "five_number_summary",
    "ks_two_sample",
    "pearson",
    "spearman",
]
