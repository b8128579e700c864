#!/usr/bin/env python3
"""Mutation battery: each mutant must be caught by the tests named for it.

A mutant is a file under ``src/``, an exact text in it, the text that
replaces it and the test ids that must fail on the mutated code.  The
script first runs every named test on the code as it is, where all must
pass.  Then each mutant runs in a temporary copy of ``src/``, with the
repository's tests pointed at the copy through PYTHONPATH, and only its
own tests.  The script exits 1 when a mutant survives (one of its tests
does not fail), or when its text does not occur exactly once in its
file, so a refactor updates a mutant and never drops it silently.  Only
pass or fail is read, so pytest runs without assertion rewriting, which
where bytecode is not cached costs about two seconds per run.

    python3 scripts/mutants.py

The list only grows; a mutant is removed only with the code it mutates,
and CHANGES.md says why.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    text: str
    replacement: str
    tests: tuple[str, ...]


FITS = "tests/test_monodromy.py::TestFits::"
FIBER = "tests/test_monodromy.py::TestFiber::"
MATCH = "tests/test_monodromy.py::TestMatch::"
ADJACENT = "tests/test_dessin.py::TestAdjacentSheetsAgainstAllRoots::"
LABELS = "tests/test_monodromy.py::TestGoldenLabels::"
PATH_DATA = "tests/test_render.py::TestPathData::"
IS_BELYI = "tests/test_maps.py::TestBranchValues::test_is_belyi"
MONODROMY = "dessins/monodromy.py"
RENDER = "dessins/render.py"

MUTANTS = (
    Mutant(
        "gap guard: a NaN move is not refused", MONODROMY,
        "    out = moved < near\n",
        "    out = ~(moved >= near)\n",
        (FITS + "test_conjugates_closer_than_an_ulp_of_their_real_part[False]",
         FITS + "test_conjugates_closer_than_an_ulp_of_their_real_part[True]"),
    ),
    Mutant(
        "close pairs: the upper bound searched with side='left'", MONODROMY,
        're.searchsorted(queries + wide, side="right")',
        're.searchsorted(queries + wide, side="left")',
        (FITS + "test_conjugates_closer_than_an_ulp_of_their_real_part[False]",),
    ),
    Mutant(
        "gap guard: the reach is the move, without the 1 / 0.4", MONODROMY,
        "_close_pairs(xs, ms * 2.5)",
        "_close_pairs(xs, ms)",
        (FITS + "test_real_part_difference_on_the_reach",),
    ),
    Mutant(
        "gap guard: the same-row filter dropped", MONODROMY,
        "(row[i] == row[j]) & ",
        "",
        (FITS + "test_real_part_difference_on_the_reach",),
    ),
    Mutant(
        "close pairs: a point is paired with itself", MONODROMY,
        "    return i[keep], j[keep]\n",
        "    return i, j\n",
        (FITS + "test_long_rows_build_no_gaps",
         FITS + "test_real_part_difference_on_the_reach"),
    ),
    Mutant(
        "canonical search: the pair swap checked on g0 only", "dessins/dessin.py",
        "        elif _pair_swap_commutes(g0) and _pair_swap_commutes(g1):\n",
        "        elif _pair_swap_commutes(g0):\n",
        (ADJACENT + "test_swap_commutes_with_one_generator_only[1]",),
    ),
    Mutant(
        "canonical search: the even roots of each sheet pair kept", "dessins/dessin.py",
        "            roots = roots[::2]\n",
        "            roots = roots[1::2]\n",
        (ADJACENT + "test_random_tracked_pairs",
         ADJACENT + "test_cyclic_pairs_where_every_root_ties[3]"),
    ),
    Mutant(
        "fiber: the collision reach shrunk to match_tol / 2", MONODROMY,
        "_close_pairs(x, cfg.match_tol)",
        "_close_pairs(x, cfg.match_tol / 2)",
        (FIBER + "test_collision_at_the_dense_minimum[b(1,1).b(10,1)]",),
    ),
    Mutant(
        "loop permutations: labels 1 and 2 swapped at degree 22", MONODROMY,
        "    return Permutation(tuple((nearest + 1).tolist()))\n",
        "    images = (nearest + 1).tolist()\n"
        "    if len(images) == 22:\n"
        "        images[:2] = images[1::-1]\n"
        "    return Permutation(tuple(images))\n",
        (LABELS + "test_degree_22[b(20,2)]", LABELS + "test_degree_22[b(10,1).b(1,1)]"),
    ),
    Mutant(
        "end match: the reach without separation_factor", MONODROMY,
        "reach = cfg.separation_factor * max(cfg.match_tol, 1e-300)",
        "reach = max(cfg.match_tol, 1e-300)",
        (MATCH + "test_runner_up_on_the_reach[False]", MATCH + "test_runner_up_on_the_reach[True]"),
    ),
    Mutant(
        "end match: the dense fallback skipped for an end point with no candidate", MONODROMY,
        "    if not counts.all():\n        return None\n",
        "",
        (MATCH + "test_no_start_point_in_reach[0]", MATCH + "test_no_start_point_in_reach[30]",
         MATCH + "test_no_start_point_in_reach[-1]"),
    ),
    Mutant(
        "root finder: the Horner skip taken on a zero real part", "dessins/polynomials.py",
        "                if c:\n                    pv += c\n",
        "                if c.real:\n                    pv += c\n",
        ("tests/test_polynomials.py::TestSparseHorner::test_chains[imaginary]",),
    ),
    Mutant(
        "path data: a product on a half-integer taken as off it", RENDER,
        "(off < 0.5)",
        "(off <= 0.5)",
        (PATH_DATA + "test_next_to_ties",),
    ),
    Mutant(
        "path data: the sign-bit test dropped", RENDER,
        " & ~np.signbit(coords).any(axis=1)",
        "",
        (PATH_DATA + "test_negative_zero_and_small_negatives[-0.0]",
         PATH_DATA + "test_negative_zero_and_small_negatives[-0.004999]"),
    ),
    Mutant(
        "path data: a leading digit equal to its power of ten blanked", RENDER,
        "digit *= k >= 10**p",
        "digit *= k > 10**p",
        (PATH_DATA + "test_digit_counts",),
    ),
    Mutant(
        "path data: the fallback skipped, every row written by the kernel", RENDER,
        "    fast = (off < ",
        "    fast = True | (off < ",
        (PATH_DATA + "test_one_element_falls_back[nan]",
         PATH_DATA + "test_one_element_falls_back[0.015]"),
    ),
    Mutant(
        "CLI: only ZeroDivisionError of the arithmetic errors exits 3", "dessins/cli.py",
        "RenderError, ArithmeticError, MemoryError)",
        "RenderError, ZeroDivisionError, MemoryError)",
        ("tests/test_cli.py::TestMonodromy::test_overflow_is_numeric_failure[monodromy]",
         "tests/test_cli.py::TestMonodromy::test_overflow_is_numeric_failure[render]"),
    ),
    Mutant(
        "Belyi test: branch values within 1e-9 of 0 or 1 taken as 0 or 1", "dessins/maps.py",
        "all(v == 0 or v == 1 for v in branch_values(e))",
        "all(abs(v) < 1e-9 or abs(v - 1) < 1e-9 for v in branch_values(e))",
        (IS_BELYI + "[b(1,11).f-False]", IS_BELYI + "[b(1,1).b(1,11).f-False]",
         IS_BELYI + "[b(2,11).f-False]"),
    ),
    Mutant(
        "merge dots: a vertex joins the latest group in reach", RENDER,
        "                first = g\n",
        "                first = g\n                break\n",
        ("tests/test_render.py::TestMergeDots::test_joins_the_first_group_in_reach",),
    ),
    Mutant(
        "dense gaps: the diagonal left at zero, each point its own nearest", MONODROMY,
        "    d[..., diagonal, diagonal] = np.inf\n",
        "",
        ("tests/test_monodromy.py::TestSmallMonodromy::test_b11_published_pair",
         FITS + "test_real_part_difference_on_the_reach"),
    ),
    Mutant(
        "conjugation: kappa replaced by the identity", MONODROMY,
        "    return _match(Fiber(points.x.conj(), None), Fiber(points.x, None), cfg)\n",
        "    return np.arange(len(points.x))\n",
        ("tests/test_monodromy.py::TestPsi::test_cycle_types",
         "tests/test_monodromy.py::TestHalfLoops::test_equal_to_full_circles[b(4,4)]"),
    ),
    Mutant(
        "step growth: the cap raised to sixteen nominal steps", MONODROMY,
        "h_max = min(12 * h, max(h, 0.25))",
        "h_max = min(16 * h, max(h, 0.25))",
        ("tests/test_monodromy.py::TestStepGrowth::test_longest_loop_step[default]",
         "tests/test_monodromy.py::TestStepGrowth::test_guard_margin[b(20,2).f]",
         "tests/test_scripts.py::test_work_counts_match_the_table"),
    ),
    Mutant(
        "isomorphism: a disconnected pair answered, not refused", "dessins/dessin.py",
        "    if c1.degree != c2.degree:\n",
        "    if c1.degree != c2.degree or not (c1.transitive and c2.transitive):\n",
        ("tests/test_dessin.py::TestIsomorphism::test_disconnected_pair_raises",),
    ),
    Mutant(
        "doubling: the b-sheet's black edges follow g0, not g1", "dessins/dessin.py",
        "        g0[bk] = b[s1k]\n",
        "        g0[bk] = b[s0k]\n",
        ("tests/test_dessin.py::TestDoubled::test_white_vertex_on_each_edge",
         "tests/test_dessin.py::TestDoubled::test_published_psi_is_doubled_b101",
         "tests/test_galois.py::TestPlanarDessin::test_exact_is_the_tracked_d0"),
    ),
    Mutant(
        "end match: nearest interleaved with itself, not with its other sheet", MONODROMY,
        "np.column_stack((nearest, nearest ^ 1))",
        "np.column_stack((nearest, nearest))",
        (MATCH + "test_sheet_pairs_interleave", MATCH + "test_runner_up_on_the_reach[True]"),
    ),
    Mutant(
        "CLI: a refused allocation not among the errors that exit 3", "dessins/cli.py",
        "RenderError, ArithmeticError, MemoryError)",
        "RenderError, ArithmeticError)",
        ("tests/test_cli.py::TestMonodromy::test_refused_allocation_is_numeric_failure",),
    ),
    Mutant(
        "merge dots: the real-part cut taken one ulp short of tol", RENDER,
        "if v.x.real - g[0].x.real >= tol:",
        "if v.x.real - g[0].x.real >= np.nextafter(tol, 0):",
        ("tests/test_render.py::TestMergeDots::test_matches_naive_scan",),
    ),
)


def outcomes(src: Path, tests: tuple[str, ...]) -> tuple[set[str], set[str], str]:
    """The ids among ``tests`` that pass and that fail with the package
    imported from ``src``, and pytest's output."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    where = subprocess.run(
        [sys.executable, "-c", "import dessins; print(dessins.__file__)"],
        env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not Path(where).is_relative_to(src):
        raise RuntimeError(f"dessins imported from {where}, not from {src}")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-o", "addopts=", "-rA", "--assert=plain", *tests],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    ids = {"PASSED": set(), "FAILED": set()}
    for line in run.stdout.splitlines():
        word, _, rest = line.partition(" ")
        if word in ids and rest:
            ids[word].add(rest.split()[0])
    return ids["PASSED"] & set(tests), ids["FAILED"] & set(tests), run.stdout + run.stderr


def main() -> int:
    start = time.perf_counter()
    problems = 0
    named = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
    passed, _, output = outcomes(ROOT / "src", named)
    if passed != set(named):
        print(output)
        print(f"UNMUTATED CODE DOES NOT PASS {sorted(set(named) - passed)}")
        return 1
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            target = src / mutant.path
            code = target.read_text(encoding="utf-8")
            if code.count(mutant.text) != 1:
                problems += 1
                print(f"MISSING TEXT {mutant.name}: found {code.count(mutant.text)} times in {mutant.path}")
                continue
            target.write_text(code.replace(mutant.text, mutant.replacement), encoding="utf-8")
            _, failed, output = outcomes(src, mutant.tests)
        survived = [t for t in mutant.tests if t not in failed]
        if survived:
            problems += 1
            print(output)
            print(f"SURVIVED {mutant.name}: {', '.join(survived)} did not fail")
        else:
            print(f"killed   {mutant.name}")
    print(f"{len(MUTANTS)} mutants, {problems} problems, {time.perf_counter() - start:.1f}s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
