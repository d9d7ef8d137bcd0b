"""The Zipf, Heaps and Gaussian fits, pinned bit for bit.

The literals below are ``float.hex`` values recorded with
``scipy.stats.linregress`` and ``scipy.stats.norm.fit`` (scipy 1.17.1,
numpy 2.4.6) on exactly these inputs, before the fits moved to numpy
closed forms.  They are compared with ``==``: a last-ulp drift would change
printed report values, and ``pytest.approx`` would not see it.

The regressions' covariance sums go through BLAS, whose summation order
is the kernel's.  The inputs are short (under 256 points), where the
FMA kernels (Haswell, Zen, SkylakeX and later) agree with each other;
pre-FMA kernels may differ in the last bits.
"""

from __future__ import annotations

import math

import numpy as np

from repro.analysis.ingredient_usage import fit_zipf
from repro.analysis.rank_frequency import curve_from_counts
from repro.analysis.size_distribution import size_distribution
from repro.analysis.vocabulary_growth import fit_heaps


def _inputs():
    """A Zipf-like curve with a zero tail, a growth array and sizes."""
    rng = np.random.default_rng(1904)
    ranks = np.arange(1, 161)
    counts = (5000 / ranks**0.85).astype(np.int64) + rng.integers(0, 9, 160)
    counts[-12:] = 0
    curve = curve_from_counts(counts.tolist(), n_transactions=5200, label="G")
    steps = rng.random(200) < 4.0 / np.sqrt(np.arange(1, 201))
    growth = 3 + np.cumsum(steps)
    sizes = rng.integers(2, 12, 3000) + rng.integers(0, 9, 3000)
    return curve, growth, sizes


def test_inputs_are_the_recorded_ones():
    curve, growth, sizes = _inputs()
    assert len(curve) == 160
    assert int(growth[-1]) == 95
    assert int(sizes.sum()) == 31822


def test_fit_zipf_golden():
    curve, _growth, _sizes = _inputs()
    fit = fit_zipf(curve)
    assert fit.exponent == float.fromhex("0x1.ab947e9a00e97p-1")
    assert fit.intercept == float.fromhex("-0x1.227fc54720060p-4")
    assert fit.r_squared == float.fromhex("0x1.ffd7f9c2aa1dcp-1")
    assert fit.n_ranks == 148


def test_fit_heaps_golden():
    _curve, growth, _sizes = _inputs()
    fit = fit_heaps(growth)
    assert fit.k == float.fromhex("0x1.7d955cb062c37p+1")
    assert fit.beta == float.fromhex("0x1.4df91869fcafep-1")
    assert fit.r_squared == float.fromhex("0x1.feda2af0bb46ep-1")


def test_fit_heaps_constant_growth_has_nan_r_squared():
    fit = fit_heaps(np.ones(50))
    assert fit.k == 1.0
    assert fit.beta == 0.0
    assert math.isnan(fit.r_squared)


def test_gaussian_fit_golden():
    _curve, _growth, sizes = _inputs()
    dist = size_distribution(sizes, "G")
    assert dist.gaussian_mu == float.fromhex("0x1.536f46508dfeap+3")
    assert dist.gaussian_sigma == float.fromhex("0x1.e7793b239088bp+1")
    assert dist.mean == dist.gaussian_mu
    assert dist.std == dist.gaussian_sigma
