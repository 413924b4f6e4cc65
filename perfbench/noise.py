"""Timing noise of the machine itself: a pure CPU loop, timed repeatedly.

    python3 perfbench/noise.py [--seconds 60]

Prints the median loop time, its range and the interquartile spread as a
share of the median, for single loops (about 0.2 s each) and for the
medians of 8-second windows.  Any benchmark spread below these figures is
the machine, not the program.
"""

import argparse
import statistics
import time


def loop() -> float:
    t0 = time.perf_counter()
    s = 0
    for i in range(1_000_000):
        s += i * i
    return time.perf_counter() - t0


def spread(xs):
    q = statistics.quantiles(xs, n=4)
    return (q[2] - q[0]) / statistics.median(xs)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seconds", type=float, default=60.0)
    args = ap.parse_args()
    xs = []
    end = time.perf_counter() + args.seconds
    while time.perf_counter() < end:
        xs.append(loop())
    med = statistics.median(xs)
    print(f"{len(xs)} loops: median {med:.4f} s, min {min(xs) / med:.2f}x, "
          f"max {max(xs) / med:.2f}x, IQR/median {spread(xs):.3f}")
    per = max(1, int(8 / med))
    windows = [statistics.median(xs[i:i + per]) for i in range(0, len(xs) - per + 1, per)]
    if len(windows) >= 2:
        print(f"{len(windows)} windows of 8 s: medians from {min(windows) / med:.2f}x "
              f"to {max(windows) / med:.2f}x of the overall median")


if __name__ == "__main__":
    main()
