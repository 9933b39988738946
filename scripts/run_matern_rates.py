#!/usr/bin/env python3
"""Distance-vs-intensity sweep for the hard-core point count experiment.

Runs ``binapprox rates --app matern`` at a geometric ladder of Poisson
intensities with the intensity product a held fixed, writes one CSV row
per scale plus a fitted-slope footer.  PRESET holds the acceptance
suite's settings; any ``rates`` flag given here overrides it, e.g.
``--reps 20000 --out quick.csv``.
"""

import sys

from binapprox.cli import main

PRESET = ["rates", "--app", "matern", "--scales", "200", "800", "3200",
          "12800", "--d", "1", "--a", "1.0", "--reps", "200000",
          "--seed", "20260825", "--metric", "tv", "--out", "matern_rates.csv"]

if __name__ == "__main__":
    sys.exit(main(PRESET + sys.argv[1:]))
