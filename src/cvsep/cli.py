"""Command-line interface: classify covariance matrices, reduce to standard
form, scan the boundary bounds, audit the criterion hierarchy, and query
extremal squeezing.

Input documents are JSON (format version 1) with exactly one of "matrix"
(4x4 nested or 16 flat numbers) or "standard_form" ({a, b, c1, c2}) plus an
optional "tol". Warnings go to stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .audit import run_audit
from .covariance import (_as_real, apply_symp, as_covariance, invariants, standard_matrix,
                         to_standard_form)
from .criteria import Outcome, classify
from .errors import CvsepError, DegenerateBlock, InvalidInput, OutOfDomain
from .matkit import DEFAULT_TOL, check_tol
from .squeezing import SCAN_HEADER, extremality_residual, optimal_squeeze, scan_table

EXIT_SEPARABLE = 0
EXIT_ENTANGLED = 1
EXIT_NONPHYSICAL = 2
EXIT_PARSE = 64
EXIT_DEGENERATE = 65
EXIT_DOMAIN = 66
EXIT_SOFTWARE = 70
EXIT_UNWRITABLE = 73

_OUTCOME_EXIT = {
    Outcome.SEPARABLE: EXIT_SEPARABLE,
    Outcome.ENTANGLED: EXIT_ENTANGLED,
    Outcome.NONPHYSICAL: EXIT_NONPHYSICAL,
}

#: Exit code of each error kind, first match wins; any other CvsepError is EXIT_SOFTWARE.
_ERROR_EXIT = (
    (InvalidInput, EXIT_PARSE),
    (DegenerateBlock, EXIT_DEGENERATE),
    (OutOfDomain, EXIT_DOMAIN),
)

SCHEMA_VERSION = 1
DEFAULT_GRID = "0.5,0.75,1,1.5,2,5"


def _g17(x: float) -> str:
    return format(float(x), ".17g")


#: Relative size below which a printed margin or witness entry is rounding.
_ROUNDING = 16.0 * sys.float_info.epsilon


def _fmt_value(x: float, scale: float) -> str:
    """x printed by ".12g", or 0 when |x| <= 16 eps * scale, -0.0 included: a
    margin that small (scale the verdict's scale) or a unit-vector entry
    that small (scale 1) is rounding, whose bits follow the LAPACK kernel."""
    x = float(x)
    return format(0.0 if abs(x) <= _ROUNDING * scale else x, ".12g")


def _fmt_vec(v: np.ndarray) -> str:
    return "[" + ", ".join(_fmt_value(x, 1.0) for x in v) + "]"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the parse-failure code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def tolerance(raw: str) -> float:
    """argparse type of --tol: a finite number in (0, 1), as check_tol has it."""
    try:
        return check_tol(float(raw))
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(f"{raw} is not in (0, 1)") from exc


def load_document(path: str) -> tuple[np.ndarray, float | None]:
    """Read an input document; returns (covariance matrix, tol override)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, parse_int=float)  # an integer past the float range is inf
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInput("input document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise InvalidInput(f"unsupported schema_version {version!r}")
    if ("matrix" in doc) == ("standard_form" in doc):
        raise InvalidInput("provide exactly one of 'matrix' or 'standard_form'")

    tol = None if doc.get("tol") is None else check_tol(doc["tol"])

    if "matrix" in doc:
        mat = _as_real(doc["matrix"], "matrix")
        if mat.shape == (16,):
            mat = mat.reshape(4, 4)
        # as_covariance bounds and averages any asymmetry; the CLI also warns.
        sym = as_covariance(mat)
        asym = float(np.abs(mat - mat.T).max())
        if asym > 0.0:
            print(
                f"warning: symmetrizing input (max asymmetry {asym:.3e})",
                file=sys.stderr,
            )
        return sym, tol

    sf = doc["standard_form"]
    if not isinstance(sf, dict) or set(sf) != {"a", "b", "c1", "c2"}:
        raise InvalidInput("standard_form needs exactly the keys a, b, c1, c2")
    return standard_matrix(**sf), tol


def cmd_classify(args) -> int:
    mat, doc_tol = load_document(args.input)
    # --tol wins over the document's "tol", which wins over the default.
    tol = next((t for t in (args.tol, doc_tol) if t is not None), DEFAULT_TOL)
    verdict = classify(mat, tol)
    print(f"verdict: {verdict.outcome.value}")
    print(f"tolerance: {verdict.tol:.3g}")
    sf = verdict.standard_form
    if sf is not None:
        print(
            f"standard form: a={sf.a:.12g} b={sf.b:.12g} "
            f"c1={sf.c1:.12g} c2={sf.c2:.12g}"
        )
    for name in ("physical", "simon", "simon_algebraic", "duan", "stringent", "p_rep_bound"):
        rep = verdict.reports.get(name)
        if rep is None:
            continue
        state = "ok" if rep.satisfied else "VIOLATED"
        line = f"criterion {name}: {state} margin={_fmt_value(rep.margin, verdict.scale)}"
        if rep.sign_branch is not None:
            branch = "both" if rep.sign_branch == 0 else f"{rep.sign_branch:+d}"
            line += f" branch={branch}"
        print(line)
        if rep.witness is not None:
            w = rep.witness
            print(
                f"  witness d={_fmt_vec(w.d)} f={_fmt_vec(w.f)} "
                f"g={_fmt_vec(w.g)} h={_fmt_vec(w.h)}"
            )
    print(f"stringent ensemble: {verdict.ensemble_used}")
    print(f"simon/p_rep consistent: {str(verdict.consistent).lower()}")
    return _OUTCOME_EXIT[verdict.outcome]


def cmd_standard_form(args) -> int:
    mat, _ = load_document(args.input)
    sf = to_standard_form(mat)
    reduced = apply_symp(mat, sf.s1, sf.s2)
    print(f"a = {_g17(sf.a)}")
    print(f"b = {_g17(sf.b)}")
    print(f"c1 = {_g17(sf.c1)}")
    print(f"c2 = {_g17(sf.c2)}")
    print(f"s1 = [[{_g17(sf.s1[0, 0])}, {_g17(sf.s1[0, 1])}], "
          f"[{_g17(sf.s1[1, 0])}, {_g17(sf.s1[1, 1])}]]")
    print(f"s2 = [[{_g17(sf.s2[0, 0])}, {_g17(sf.s2[0, 1])}], "
          f"[{_g17(sf.s2[1, 0])}, {_g17(sf.s2[1, 1])}]]")
    for label, before, after in zip(("det A", "det B", "det C", "det V"),
                                    invariants(mat), invariants(reduced)):
        print(f"{label}: before={_g17(before)} after={_g17(after)}")
    return 0


def _parse_values(raw: str, name: str) -> list[float]:
    try:
        vals = [float(x) for x in raw.split(",") if x.strip()]
    except ValueError as exc:
        raise InvalidInput(f"bad {name} list {raw!r}: {exc}") from exc
    if not vals:
        raise InvalidInput(f"{name} list is empty")
    return vals


def _csv_text(table: np.ndarray) -> str:
    """The scan CSV: SCAN_HEADER, then each row of the float64 table with its
    fields printed by "%.17g" (exactly as format(x, ".17g") prints them).

    A scan repeats most of its values, so each distinct value is formatted
    once. Values are told apart by their bits, not by ==, which would merge
    -0.0 with 0.0 and print "0" for "-0"."""
    bits, inverse = np.unique(table.ravel().view(np.int64), return_inverse=True)
    text = "%.17g\n" * len(bits) % tuple(bits.view(np.float64).tolist())
    strings = np.array(text.split("\n"), dtype=object)
    row = ",".join(["%s"] * len(SCAN_HEADER)) + "\n"
    return ",".join(SCAN_HEADER) + "\n" + row * len(table) % tuple(strings[inverse].tolist())


def cmd_scan(args) -> int:
    a_values = _parse_values(args.a, "--a")
    b_values = _parse_values(args.b, "--b")
    if args.t_steps < 1:
        raise InvalidInput("--t-steps must be at least 1")
    text = _csv_text(scan_table(a_values, b_values, np.linspace(0.0, 1.0, args.t_steps)))
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    return 0


def cmd_audit(args) -> int:
    result = run_audit(args.samples, args.seed, args.tol)
    print(f"audit: samples={result.samples} seed={result.seed}")
    print(f"pairs checked: {result.pairs}")
    print(f"p_representable states: {result.p_representable}")
    print(f"counterexamples: {result.counterexamples}")
    nonzero = result.nonzero_ensemble_pairs
    frac = result.stringent_stricter / nonzero if nonzero else 0.0
    print(
        "stringent margin strictly below simon: "
        f"{result.stringent_stricter}/{nonzero} ({_g17(frac)})"
    )
    return 0 if result.counterexamples == 0 else 1


def cmd_squeeze(args) -> int:
    sol = optimal_squeeze(args.a, args.b, args.t)
    resid = extremality_residual(args.a, args.b, sol.params)
    print(f"r1 = {_g17(sol.params.r1)}")
    print(f"r2 = {_g17(sol.params.r2)}")
    print(f"D = {_g17(sol.d_aux)}")
    print(f"c1_bound = {_g17(sol.c1_bound)}")
    print(f"c2_bound = {_g17(sol.c2_bound)}")
    print(f"extremality_residual = {_g17(resid)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cvsep",
        description="Classify two-mode Gaussian states from 4x4 covariance matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a covariance matrix")
    p_classify.add_argument("input", help="path to a JSON input document")
    p_classify.add_argument("--tol", type=tolerance, default=None,
                            help=f"PSD tolerance in (0, 1) (default {DEFAULT_TOL:g})")
    p_classify.set_defaults(func=cmd_classify)

    p_sf = sub.add_parser("standard-form", help="reduce to standard form")
    p_sf.add_argument("input", help="path to a JSON input document")
    p_sf.set_defaults(func=cmd_standard_form)

    p_scan = sub.add_parser("scan", help="boundary-bound scan to CSV")
    p_scan.add_argument("--a", default=DEFAULT_GRID,
                        help="comma-separated a values (each >= 0.5)")
    p_scan.add_argument("--b", default=DEFAULT_GRID,
                        help="comma-separated b values (each >= 0.5)")
    p_scan.add_argument("--t-steps", type=int, default=11,
                        help="number of t grid points on [0, 1]")
    p_scan.add_argument("--out", required=True, help="output CSV path")
    p_scan.set_defaults(func=cmd_scan)

    p_audit = sub.add_parser("audit", help="randomized hierarchy audit")
    p_audit.add_argument("--samples", type=int, default=1000)
    p_audit.add_argument("--seed", type=int, default=0)
    p_audit.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p_audit.set_defaults(func=cmd_audit)

    p_squeeze = sub.add_parser("squeeze", help="extremal squeezing at (a, b, t)")
    p_squeeze.add_argument("a", type=float)
    p_squeeze.add_argument("b", type=float)
    p_squeeze.add_argument("t", type=float)
    p_squeeze.set_defaults(func=cmd_squeeze)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CvsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for kind, code in _ERROR_EXIT if isinstance(exc, kind)), EXIT_SOFTWARE)
