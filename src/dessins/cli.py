"""Command line front end.

Subcommands: roots | monodromy | dessin | orbit | evidence | render.
Payloads go to stdout as JSON; roots and monodromy, the only payloads
with floats, trim them to 15 significant digits (round_floats).
Failures go to stderr as a structured JSON error object.  Exit codes:
0 success, 2 bad arguments, 3 numerical failure (a refused allocation
included), 4 incomplete evidence.
Only monodromy and render track a continuation, and only they take
--config; render draws each half-edge on a fixed ladder of 48 rungs
(render.RUNGS), which no option changes.  dessin, orbit and evidence are
exact and load no numpy: monodromy and render import their numeric
modules when they run, and roots loads numpy for its root finder.  The
parser is built once per process and never changed; each call looks its
handler up by name, cmd_<command>, so a handler rebound on this module
takes effect.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import galois, maps, polynomials
from .dessin import dessin_json
from .maps import MapExprError
from .polynomials import EvidenceIncompleteError, RootFindingError
from .tracking import NotBelyiError, RenderError, TrackingConfig, TrackingError

PARSE_EXIT = 2
NUMERIC_EXIT = 3
EVIDENCE_EXIT = 4


def round_floats(obj):
    """Recursively trim floats to 15 significant digits."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def _emit(payload, pretty: bool) -> None:
    if pretty:
        text = json.dumps(payload, indent=2, sort_keys=False)
    else:
        text = json.dumps(payload, separators=(",", ":"))
    sys.stdout.write(text + "\n")


def _fail(exc: BaseException, code: int) -> int:
    body = {
        "error": type(exc).__name__,
        "message": str(exc),
        "exit_code": code,
    }
    sys.stderr.write(json.dumps(body) + "\n")
    return code


def _parse_triple(text: str) -> galois.Triple:
    parts = text.replace("(", "").replace(")", "").split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated labels, got {text!r}")
    try:
        i, j, k = (int(p.strip()) for p in parts)
    except ValueError:
        raise ValueError(f"triple entries must be integers: {text!r}") from None
    return galois.Triple.of((i, j, k))


def _load_config(path: str | None) -> TrackingConfig:
    if path is None:
        return TrackingConfig()
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return TrackingConfig.from_json_dict(data)


# ---------------------------------------------------------------------------
# command handlers


def cmd_roots(args):
    return round_floats(polynomials.roots_of_f().to_json_list())


def cmd_monodromy(args, cfg: TrackingConfig):
    from .monodromy import monodromy_json

    e = maps.parse_map_expr(args.map)
    return round_floats(monodromy_json(e, cfg, check_stability=args.check_stability))


def cmd_dessin(args):
    t = _parse_triple(args.triple)
    body = dessin_json(galois.planar_dessin().cover(t))
    return {
        "triple": list(t.as_tuple()),
        "map": maps.format_map_expr(galois.full_chain(t)),
        **body,
    }


def cmd_orbit(args):
    t = _parse_triple(args.triple)
    spec = galois.SubgroupSpec(generator_words=(args.subgroup,))
    report = galois.orbit_dessins(spec, t)
    return report.to_json_dict()


def cmd_evidence(args):
    return polynomials.s12_evidence(max_prime=args.max_prime).to_json_dict()


def cmd_render(args, cfg: TrackingConfig):
    from .render import render_graph

    e = maps.parse_map_expr(args.map)
    result = render_graph(e, cfg)
    if args.out == "-":
        sys.stdout.write(result.svg + "\n")
        return None
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(result.svg)
    return {
        "out": args.out,
        "map": maps.format_map_expr(e),
        "arcs": result.arc_count,
        "black_dots": result.merged_black_count,
        "white_dots": result.merged_white_count,
        "vertices": result.vertex_count,
    }


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call; the
    handler is not stored on it (see main)."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json-pretty", action="store_true",
                        help="indent the JSON output")
    tracking = argparse.ArgumentParser(add_help=False)
    tracking.add_argument("--config", metavar="PATH", default=None,
                          help="tracking configuration as a JSON file")

    parser = argparse.ArgumentParser(
        prog="dessins",
        description="Belyi maps on a family of elliptic curves: roots, "
                    "monodromy, dessins, Galois orbits, drawings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("roots", parents=[common],
                   help="labeled roots of the degree-12 polynomial f")

    p = sub.add_parser("monodromy", parents=[common, tracking],
                       help="permutation pair of a Belyi chain")
    p.add_argument("--map", required=True,
                   help='chain expression, e.g. "b(1,1).b(10,1)"')
    p.add_argument("--check-stability", action="store_true",
                   help="re-track with smaller loops and doubled sampling")

    p = sub.add_parser("dessin", parents=[common],
                       help="dessin invariants of the full chain at a triple")
    p.add_argument("--triple", required=True, metavar="I,J,K",
                   help="three distinct root labels, e.g. 2,7,11")

    p = sub.add_parser("orbit", parents=[common],
                       help="subgroup orbit of a triple with per-dessin data")
    p.add_argument("--triple", required=True, metavar="I,J,K")
    p.add_argument("--subgroup", required=True,
                   help="generator word(s) over a,b,A,B, e.g. a or ab")

    p = sub.add_parser("evidence", parents=[common],
                       help="factorization witnesses for the Galois group of f")
    p.add_argument("--max-prime", type=int, default=2000,
                   help="largest prime to scan (default 2000)")

    p = sub.add_parser("render", parents=[common, tracking],
                       help="draw the dessin of a chain as SVG")
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True,
                   help='output SVG path, or "-" for stdout')
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()[f"cmd_{args.command}"]
    if "config" in args:
        try:
            handler = functools.partial(handler, cfg=_load_config(args.config))
        except (OSError, ValueError) as exc:
            return _fail(exc, PARSE_EXIT)

    try:
        payload = handler(args)
    except EvidenceIncompleteError as exc:
        return _fail(exc, EVIDENCE_EXIT)
    except (RootFindingError, TrackingError, RenderError, ArithmeticError, MemoryError) as exc:
        return _fail(exc, NUMERIC_EXIT)
    except (MapExprError, galois.BadWordError, NotBelyiError, ValueError, OSError) as exc:
        return _fail(exc, PARSE_EXIT)

    if payload is not None:
        _emit(payload, args.json_pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
