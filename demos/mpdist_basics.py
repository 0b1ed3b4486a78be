"""
Comparing short windows with MPdist
===================================

MPdist calls two windows close when they share a local pattern, even if
one is shifted, scaled, or only matches in part. This script builds a few
toy windows and prints the distances side by side.
"""

import numpy as np

from saeti.mpdist import mpdist, znorm_dist_profile

rng = np.random.default_rng(0)

t = np.arange(64)
wave = np.sin(2 * np.pi * t / 16)

# an offset + rescaled copy is the "same" pattern to a z-normalized eye
copy = 5.0 + 3.0 * wave
print("wave vs affine copy   :", round(mpdist(wave, copy), 6))

# a different period is a different pattern
other = np.sin(2 * np.pi * t / 5)
print("wave vs other period  :", round(mpdist(wave, other), 6))

# noise hurts, but half-window matching keeps the distance moderate
noisy = wave + 0.3 * rng.normal(size=t.size)
print("wave vs noisy copy    :", round(mpdist(wave, noisy), 6))

# a window that matches only in its first half still scores low: the
# distance looks at the best-matching inner windows, not the whole thing
half = np.concatenate([wave[:32], rng.normal(size=32)])
print("wave vs half-match    :", round(mpdist(wave, half), 6))

# Under the hood everything is built from distance profiles: one query
# window slid across a longer series. The minimum marks where the query
# pattern lives inside the series.
series = np.concatenate([rng.normal(size=100), wave, rng.normal(size=100)])
profile = znorm_dist_profile(wave[:32], series, ell=32)
print()
print("query planted at index 100, profile argmin:",
      int(np.argmin(profile)))
