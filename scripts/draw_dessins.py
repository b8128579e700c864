#!/usr/bin/env python3
"""Render the three dessins of the chain family to SVG files."""

import argparse
import pathlib

from dessins.maps import parse_map_expr
from dessins.render import render_graph

CHAINS = {
    "b11": "b(1,1)",
    "psi": "b(1,1).b(10,1)",
    "full": "b(1,1).b(10,1).f.pi(2,7,11)",
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="figures", metavar="DIR")
    args = parser.parse_args()

    out_dir = pathlib.Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name, chain in CHAINS.items():
        result = render_graph(parse_map_expr(chain))
        path = out_dir / f"{name}.svg"
        path.write_text(result.svg, encoding="utf-8")
        print(f"{path}: {result.arc_count} arcs, "
              f"{result.merged_black_count} black dots, "
              f"{result.merged_white_count} white dots")


if __name__ == "__main__":
    main()
