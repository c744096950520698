#!/usr/bin/env python3
"""Print the partition-interval decay table for both circles.

The Delta(10)/Delta(0) ratios printed here are the regression constants
pinned in tests/test_acceptance.py.
"""

import argparse

from tropmarkov.hyperbolic import partition_table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=10)
    args = parser.parse_args()

    for side in ("boundary", "skeleton"):
        print(f"# {side}")
        print("n,count,delta,Delta")
        table = partition_table(args.depth, side)
        for n, (count, delta, big) in enumerate(table):
            print(f"{n},{count},{delta:.12f},{big:.12f}")
        print(f"# Delta({args.depth})/Delta(0) = {table[-1][2] / table[0][2]!r}")
        print()


if __name__ == "__main__":
    main()
