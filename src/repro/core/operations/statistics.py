"""Across-thread statistics (PerfExplorer's ``BasicStatisticsOperation``).

Collapses the thread axis to a single synthetic thread per statistic —
mean, standard deviation, min, max, total — returning one result per
statistic in that order.  The mean result is what the paper's
``TrialMeanResult`` loads directly.

Also provides :class:`RatioOperation` (stddev/mean per event — the
imbalance statistic of §III.A), the :func:`trial_mean_result` /
:func:`trial_total_result` conveniences used by the script API, and
:func:`welch_t` — the unequal-variance two-sample t-test the regression
sentinel (:mod:`repro.regress`) uses to separate real slowdowns from
run-to-run noise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ...perfdmf import Trial
from ..result import AnalysisError, PerformanceResult
from .base import PerformanceAnalysisOperation

STAT_MEAN = "mean"
STAT_STDDEV = "stddev"
STAT_MIN = "min"
STAT_MAX = "max"
STAT_TOTAL = "total"
STAT_ORDER = (STAT_MEAN, STAT_STDDEV, STAT_MIN, STAT_MAX, STAT_TOTAL)

_REDUCERS = {
    STAT_MEAN: lambda a: a.mean(axis=1, keepdims=True),
    STAT_STDDEV: lambda a: a.std(axis=1, keepdims=True),
    STAT_MIN: lambda a: a.min(axis=1, keepdims=True),
    STAT_MAX: lambda a: a.max(axis=1, keepdims=True),
    STAT_TOTAL: lambda a: a.sum(axis=1, keepdims=True),
}


class BasicStatisticsOperation(PerformanceAnalysisOperation):
    """Reduce across threads; returns [mean, stddev, min, max, total]."""

    def process_data(self) -> list[PerformanceResult]:
        self.outputs = [self._reduce(stat) for stat in STAT_ORDER]
        return self.outputs

    def _reduce(self, stat: str) -> PerformanceResult:
        src = self.inputs[0]
        reduce = _REDUCERS[stat]
        builder = PerformanceResult.like(
            src, name=f"{src.name}:{stat}", n_threads=1
        )
        for metric in src.trial.metrics:
            builder.with_metric(
                metric,
                reduce(src.exclusive(metric.name)),
                reduce(src.inclusive(metric.name)),
            )
        builder.with_calls(reduce(src.calls()))
        return PerformanceResult(builder.build(validate=False))

    def _single(self, stat: str) -> PerformanceResult:
        # Single-statistic accessors reduce just their own statistic: the
        # mean of a 10k-thread trial shouldn't pay for stddev/min/max/total.
        if self.outputs:
            return self.outputs[STAT_ORDER.index(stat)]
        cache = self.__dict__.setdefault("_single_cache", {})
        if stat not in cache:
            cache[stat] = self._reduce(stat)
        return cache[stat]

    def mean(self) -> PerformanceResult:
        return self._single(STAT_MEAN)

    def stddev(self) -> PerformanceResult:
        return self._single(STAT_STDDEV)

    def total(self) -> PerformanceResult:
        return self._single(STAT_TOTAL)


class RatioOperation(PerformanceAnalysisOperation):
    """Per-event stddev/mean across threads, per metric.

    The output has one synthetic thread and the same metric names; a value
    of 0 means perfectly balanced, values above ~0.25 indicate the load
    imbalance the paper's rule fires on.  Events whose mean is zero get
    ratio 0 (no work, no imbalance).
    """

    def process_data(self) -> list[PerformanceResult]:
        src = self.inputs[0]
        builder = PerformanceResult.like(
            src, name=f"{src.name}:stddev/mean", n_threads=1
        )
        for metric in src.metrics:
            ratios = []
            for arr in (src.exclusive(metric), src.inclusive(metric)):
                mean = arr.mean(axis=1, keepdims=True)
                std = arr.std(axis=1, keepdims=True)
                ratios.append(
                    np.divide(std, mean, out=np.zeros_like(std), where=mean != 0)
                )
            builder.with_metric(metric, ratios[0], ratios[1], derived=True)
        self.outputs = [PerformanceResult(builder.build(validate=False))]
        return self.outputs


class WelchResult(NamedTuple):
    """Outcome of :func:`welch_t`.

    ``p_value`` is NaN when the test is inapplicable (fewer than two
    samples on either side); callers must then fall back to a pure
    threshold policy.
    """

    t_stat: float
    dof: float
    p_value: float

    @property
    def applicable(self) -> bool:
        return not math.isnan(self.p_value)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta (Lentz's method)."""
    TINY = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < TINY:
        d = TINY
    d = 1.0 / d
    h = d
    for m in range(1, 200):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < TINY:
            d = TINY
        c = 1.0 + aa / c
        if abs(c) < TINY:
            c = TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < TINY:
            d = TINY
        c = 1.0 + aa / c
        if abs(c) < TINY:
            c = TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) (stdlib only)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, dof: float) -> float:
    """Two-sided survival probability of Student's t at ``|t|``."""
    if dof <= 0 or math.isnan(t):
        return float("nan")
    if math.isinf(t):
        return 0.0
    return _betainc(dof / 2.0, 0.5, dof / (dof + t * t))


def welch_t(a, b) -> WelchResult:
    """Welch's unequal-variance t-test between two sample vectors.

    Returns :class:`WelchResult` with the two-sided p-value.  Degenerate
    inputs follow the conventions the regression detector needs:

    * fewer than two samples on either side → ``p_value = NaN``
      (inapplicable — threshold policy decides alone),
    * both variances zero with equal means → ``t = 0, p = 1``,
    * both variances zero with different means → ``t = ±inf, p = 0``.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    na, nb = a.size, b.size
    if na < 2 or nb < 2:
        return WelchResult(float("nan"), 0.0, float("nan"))
    mean_a, mean_b = float(a.mean()), float(b.mean())
    var_a = float(a.var(ddof=1))
    var_b = float(b.var(ddof=1))
    sa, sb = var_a / na, var_b / nb
    denom = math.sqrt(sa + sb)
    diff = mean_a - mean_b
    if denom == 0.0:
        if diff == 0.0:
            return WelchResult(0.0, float(na + nb - 2), 1.0)
        return WelchResult(math.copysign(float("inf"), diff), float(na + nb - 2), 0.0)
    t = diff / denom
    # Welch–Satterthwaite degrees of freedom
    dof = (sa + sb) ** 2 / (
        sa * sa / (na - 1) + sb * sb / (nb - 1)
    )
    return WelchResult(t, dof, student_t_sf(t, dof))


def paired_t(a, b) -> WelchResult:
    """Paired t-test on per-position differences ``a - b``.

    The regression detector prefers this over :func:`welch_t` when baseline
    and candidate share their thread topology: across-thread spread is
    *structural* (imbalance), so pairing threads removes it and leaves only
    the change under test.  Falls back to Welch when the sample sizes
    differ.  Degenerate conventions match :func:`welch_t`.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        return welch_t(a, b)
    n = a.size
    if n < 2:
        return WelchResult(float("nan"), 0.0, float("nan"))
    d = a - b
    mean_d = float(d.mean())
    sd = float(d.std(ddof=1))
    dof = float(n - 1)
    if sd == 0.0:
        if mean_d == 0.0:
            return WelchResult(0.0, dof, 1.0)
        return WelchResult(math.copysign(float("inf"), mean_d), dof, 0.0)
    t = mean_d / (sd / math.sqrt(n))
    return WelchResult(t, dof, student_t_sf(t, dof))


def trial_mean_result(trial: Trial) -> PerformanceResult:
    """Load a trial and reduce to the across-thread mean (the paper's
    ``TrialMeanResult(Utilities.getTrial(...))``)."""
    return BasicStatisticsOperation(PerformanceResult(trial)).mean()


def trial_total_result(trial: Trial) -> PerformanceResult:
    """Across-thread totals of a trial."""
    return BasicStatisticsOperation(PerformanceResult(trial)).total()
