#!/usr/bin/env python3
"""Emit the standard figure set as SVG files.

Writes the plane projection of a meromorphic and a mixed-parameter skeleton,
the per-cell orbit triangles at depths 1-3, and the ideal-triangle
tessellation of the disk.
"""

import argparse
from fractions import Fraction
from pathlib import Path

from tropmarkov.surface import Params
from tropmarkov.svgout import farey_svg, skeleton_svg, tessellation_svg


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # Each renderer returns its document as chunks of text.
    (out / "skeleton_punctured_torus.svg").write_text(
        "".join(skeleton_svg(Params.parse("inf,inf,inf,-2"), grid=96, span=Fraction(4))))
    (out / "skeleton_mixed.svg").write_text(
        "".join(skeleton_svg(Params.parse("-13/10,inf,-3/2,-23/10"), grid=96, span=Fraction(4))))
    for depth in (1, 2, 3):
        (out / f"farey_depth{depth}.svg").write_text("".join(farey_svg(Fraction(-2), depth)))
    (out / "tessellation.svg").write_text("".join(tessellation_svg(4)))
    for name in sorted(p.name for p in out.glob("*.svg")):
        print("wrote", out / name)


if __name__ == "__main__":
    main()
