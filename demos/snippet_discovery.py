"""
Finding the typical behaviors of a series
=========================================

A snippet is a segment that stands in for many similar subsequences.
Here a series alternates between two waveforms; discovery should return
one snippet per behavior, each covering about half the series.
"""

import numpy as np

from saeti.snippets import find_snippets, label_subsequence

# 1600 points: blocks of 400 alternate between a fast and a slow wave.
# Each block restarts its pattern, so same-regime windows repeat exactly
# and the two behaviors stay unambiguous.
n, block, m = 1600, 400, 40
fast = 0.30 + 0.12 * np.sin(2 * np.pi * np.arange(5) / 5)
slow = 0.70 + 0.12 * np.sin(2 * np.pi * np.arange(16) / 16)
values = np.empty(n)
for s in range(0, n, block):
    pat = fast if (s // block) % 2 == 0 else slow
    values[s:s + block] = np.tile(pat, block // pat.size)

sset = find_snippets(values, m=m, k=2)
print(f"discovered {len(sset.items)} snippets (m={m}):")
for r, item in enumerate(sset.items):
    rows = (item.index - 1) * m
    print(f"  segment {item.index:3d} (rows {rows}..{rows + m - 1})"
          f"  frac={item.frac:.3f}  neighbors={np.count_nonzero(sset.ranks == r)}")

# fracs always sum to one: every subsequence belongs to exactly one snippet
print("frac total:", sum(item.frac for item in sset.items))

# a window of the series takes the rank of the snippet whose set holds
# its start (ranks and starts are 1-based here)
for name, row in [("fast", 10), ("slow", block + 10)]:
    print(f"window from {name} regime -> snippet rank", label_subsequence(row + 1, sset))
