#!/usr/bin/env python3
"""Generate a random workload script file for replay/verify/dot.

Example:
    python scripts/make_workload.py --seed 7 --ops 10000 > workload.txt
    triheap verify workload.txt --policy relaxed
"""

import argparse
import sys

from triheap.workload import DEFAULT_WEIGHTS, format_script, generate_script


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--ops", type=int, default=10_000)
    parser.add_argument("--out", default="-", help="output path, - for stdout")
    for kind, weight in DEFAULT_WEIGHTS.items():
        parser.add_argument(f"--weight-{kind}", type=int, default=weight,
                            metavar="W")
    args = parser.parse_args()
    if args.ops < 0:
        parser.error("--ops must be >= 0")
    weights = {kind: getattr(args, f"weight_{kind.replace('-', '_')}")
               for kind in DEFAULT_WEIGHTS}
    try:
        script = generate_script(args.seed, args.ops, weights)
    except ValueError as exc:  # bad --weight-* values
        parser.error(str(exc))
    text = format_script(script)
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)


if __name__ == "__main__":
    main()
