#!/usr/bin/env python3
"""Distance-vs-n sweep for the window-exceedance experiment.

Reproduces the O(n^{-1/2}) decay of the centered-binomial approximation
error for the exceedance count: runs ``binapprox rates --app rscan`` at a
geometric ladder of n, writes one CSV row per scale plus a fitted-slope
footer.  Expect a few minutes at the preset rep count.  PRESET holds the
acceptance suite's settings; any ``rates`` flag given here overrides it,
e.g. ``--reps 100000 --out quick.csv``.
"""

import sys

from binapprox.cli import main

PRESET = ["rates", "--app", "rscan", "--scales", "400", "1600", "6400",
          "25600", "--r", "2", "--a", "1.0", "--dist", "exponential",
          "--reps", "1000000", "--seed", "20260825", "--metric", "tv",
          "--out", "rscan_rates.csv"]

if __name__ == "__main__":
    sys.exit(main(PRESET + sys.argv[1:]))
