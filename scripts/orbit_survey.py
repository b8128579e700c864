#!/usr/bin/env python3
"""Survey dessin invariants along a subgroup orbit of a triple.

For each triple in the orbit, takes the dessin of the full chain as a
double cover of the one planar dessin of b(1,1).b(10,1).f, tabulates
passport, genus, and face count, then reports the isomorphism classes.
Words are over the alphabet a, b, A, B.
"""

import argparse
import time

from dessins.galois import SubgroupSpec, Triple, orbit_dessins


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--triple", default="2,7,11", metavar="I,J,K")
    parser.add_argument("--subgroup", default="a",
                        help="generator word, e.g. a, b, ab (default a)")
    args = parser.parse_args()

    base = Triple.of(int(v) for v in args.triple.split(","))
    spec = SubgroupSpec((args.subgroup,))
    t0 = time.perf_counter()
    report = orbit_dessins(spec, base)

    print(f"orbit of {base.as_tuple()} under <{report.subgroup}>: "
          f"{len(report.orbit)} triples")
    for t, p, g in zip(report.orbit, report.passports, report.genus):
        black = dict.fromkeys(p.black.parts, 0)
        for part in p.black.parts:
            black[part] += 1
        profile = " ".join(f"{k}^{v}" if v > 1 else str(k)
                           for k, v in sorted(black.items(), reverse=True))
        print(f"  {t.as_tuple()}: genus {g}, faces {len(p.faces.parts)}, "
              f"black {profile}")

    print(f"shared passport: {report.shared_passport}")
    print(f"isomorphism classes: "
          f"{[[t.as_tuple() for t in cls] for cls in report.iso_classes]}")
    print(f"{time.perf_counter() - t0:.1f}s")


if __name__ == "__main__":
    main()
