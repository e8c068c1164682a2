#!/usr/bin/env python3
"""Representation-number statistics for the five named forms.

Tabulates count(form, n) over [0, hi]: mean, extremes, and where the
minimum is attained.  The minimum staying >= 1 on every prefix is the
completeness claim seen through the counting lens; the n attaining it are
the hardest cases and good candidates for regression pins.
"""

from __future__ import annotations

import argparse
import sys

from mixedsums.forms import MixedForm
from mixedsums.oracle import count, spec_of


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--hi", type=int, default=2000, help="tabulate [0, hi] (default 2000)")
    p.add_argument("--top", type=int, default=3, help="how many extreme n to list")
    args = p.parse_args(argv)

    for form in MixedForm:
        spec = spec_of(form.value)
        counts = [count(spec, n) for n in range(args.hi + 1)]
        lo = min(counts)
        hi = max(counts)
        mean = sum(counts) / len(counts)
        thin = [n for n, c in enumerate(counts) if c == lo][: args.top]
        fat = [n for n, c in enumerate(counts) if c == hi][: args.top]
        print(f"{form.value:<10} mean={mean:7.2f}  min={lo} at {thin}  max={hi} at {fat}")
        if lo == 0:
            print(f"  !! {form.value} misses {thin} — counterexample to completeness")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
