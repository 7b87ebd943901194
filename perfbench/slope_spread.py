"""Information only: how much room the rate-hard-cvx slope leaves in its band.

    python3 perfbench/slope_spread.py

Runs the rate-hard-cvx experiment (the benchmark's sizing) once per
master seed 1..10 and prints one JSON document: every fitted slope, their
median and spread, and the smallest distance from a slope to either
edge of the -1/3 +/- 0.10 band.  It gates nothing and is not part of the
benchmark's checked runs.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

SEEDS = range(1, 11)


def main() -> int:
    from htclip import harness

    import workloads

    slopes = [
        harness.run_experiment(harness.parse_config(workloads.hard_config(s))).fit.slope
        for s in SEEDS
    ]
    centre, half = workloads.HARD_SLOPE, workloads.HARD_BAND
    q1, med, q3 = statistics.quantiles(slopes, n=4)
    print(json.dumps({
        "workload": "rate-hard-cvx",
        "band": [centre - half, centre + half],
        "seeds": list(SEEDS),
        "slopes": slopes,
        "median": med,
        "iqr": q3 - q1,
        "stdev": statistics.stdev(slopes),
        "min": min(slopes),
        "max": max(slopes),
        "min_margin_to_band_edge": min(half - abs(s - centre) for s in slopes),
    }, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
