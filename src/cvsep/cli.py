"""Command-line interface: classify covariance matrices, reduce to standard
form, scan the boundary bounds, audit the criterion hierarchy, and query
extremal squeezing.

Input documents are JSON (format version 1) with exactly one of "matrix"
(4x4 nested or 16 flat numbers) or "standard_form" ({a, b, c1, c2}) plus an
optional "tol". Warnings go to stderr, data to stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import statezoo
from .covariance import apply_symp, as_matrix4, det2, standard_matrix, to_standard_form
from .criteria import (
    Outcome,
    classify,
    duan_criterion,
    simon_criterion,
    stringent_criterion,
)
from .errors import (
    CvsepError,
    DegenerateBlock,
    InvalidInput,
    OutOfDomain,
)
from .matkit import DEFAULT_TOL, eig_sym, is_psd_sym
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

SCHEMA_VERSION = 1
DEFAULT_GRID = "0.5,0.75,1,1.5,2,5"


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _fmt_vec(v: np.ndarray) -> str:
    return "[" + ", ".join(format(float(x), ".12g") for x in v) + "]"


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the parse-failure code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def tolerance(raw: str) -> float:
    """argparse type of --tol: a finite number in (0, 1)."""
    tol = float(raw)
    if not 0.0 < tol < 1.0:  # also rejects nan and inf
        raise argparse.ArgumentTypeError(f"{raw} is not in (0, 1)")
    return tol


def load_document(path: str) -> tuple[np.ndarray, float | None]:
    """Read an input document; returns (covariance matrix, tol override)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInput("input document must be a JSON object")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise InvalidInput(f"unsupported schema_version {version!r}")
    if ("matrix" in doc) == ("standard_form" in doc):
        raise InvalidInput("provide exactly one of 'matrix' or 'standard_form'")

    tol = doc.get("tol")
    if tol is not None:
        if not isinstance(tol, (int, float)) or not 0.0 < float(tol) < 1.0:
            raise InvalidInput("tol must be a number in (0, 1)")
        tol = float(tol)

    if "matrix" in doc:
        try:
            mat = np.asarray(doc["matrix"], dtype=float)
        except (TypeError, ValueError) as exc:
            raise InvalidInput(f"matrix entries must be numbers: {exc}") from exc
        if mat.shape == (16,):
            mat = mat.reshape(4, 4)
        mat = as_matrix4(mat)
        asym = float(np.abs(mat - mat.T).max())
        if asym > 1e-9:
            raise InvalidInput(f"matrix asymmetry {asym:.3e} exceeds 1e-9")
        if asym > 0.0:
            print(
                f"warning: symmetrizing input (max asymmetry {asym:.3e})",
                file=sys.stderr,
            )
            mat = 0.5 * (mat + mat.T)
        return mat, tol

    sf = doc["standard_form"]
    if not isinstance(sf, dict) or set(sf) != {"a", "b", "c1", "c2"}:
        raise InvalidInput("standard_form needs exactly the keys a, b, c1, c2")
    try:
        vals = [float(sf[k]) for k in ("a", "b", "c1", "c2")]
    except (TypeError, ValueError) as exc:
        raise InvalidInput(f"standard_form entries must be numbers: {exc}") from exc
    if not all(np.isfinite(vals)):
        raise InvalidInput("standard_form entries must be finite")
    return standard_matrix(*vals), tol


def _pick_tol(args, doc_tol: float | None) -> float:
    if args.tol is not None:
        return args.tol
    if doc_tol is not None:
        return doc_tol
    return DEFAULT_TOL


def cmd_classify(args) -> int:
    mat, doc_tol = load_document(args.input)
    tol = _pick_tol(args, doc_tol)
    verdict = classify(mat, tol)
    print(f"verdict: {verdict.outcome.value}")
    print(f"tolerance: {tol:.3g}")
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
        line = f"criterion {name}: {state} margin={rep.margin:.12g}"
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
    for label, before, after in (
        ("det A", det2(mat[:2, :2]), det2(reduced[:2, :2])),
        ("det B", det2(mat[2:, 2:]), det2(reduced[2:, 2:])),
        ("det C", det2(mat[:2, 2:]), det2(reduced[:2, 2:])),
        ("det V", float(np.linalg.det(mat)), float(np.linalg.det(reduced))),
    ):
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


def cmd_scan(args) -> int:
    a_values = _parse_values(args.a, "--a")
    b_values = _parse_values(args.b, "--b")
    if args.t_steps < 1:
        raise InvalidInput("--t-steps must be at least 1")
    t_values = [0.0] if args.t_steps == 1 else np.linspace(0.0, 1.0, args.t_steps)
    table = scan_table(a_values, b_values, t_values)
    # "%.17g" formats a float exactly as format(x, ".17g") does.
    row = ",".join(["%.17g"] * len(SCAN_HEADER)) + "\n"
    text = ",".join(SCAN_HEADER) + "\n" + (row * len(table)) % tuple(table.ravel().tolist())
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_UNWRITABLE
    return 0


@dataclass
class AuditResult:
    samples: int
    seed: int
    pairs: int
    p_representable: int
    counterexamples: int
    stringent_stricter: int
    nonzero_ensemble_pairs: int


def _scaled_random_psd(rng: np.random.Generator, cap: np.ndarray) -> np.ndarray:
    """Random PSD matrix dominated by cap (which must be PSD within tolerance)."""
    res = eig_sym(cap)
    root = (res.vectors * np.sqrt(np.maximum(res.values, 0.0))) @ res.vectors.T
    g = rng.standard_normal((4, 4))
    w = g @ g.T
    top = float(np.linalg.eigvalsh(w)[-1])
    w *= float(rng.uniform(0.0, 1.0)) / top
    return root @ w @ root.T


def run_audit(samples: int, seed: int, tol: float = DEFAULT_TOL) -> AuditResult:
    """Check the criterion hierarchy on a seeded pool of random states.

    For each state and each admissible ensemble matrix (zero, the coherent
    excess when PSD, and a random PSD matrix dominated by it), verify
    P-representable => stringent => Simon => Duan. Returns the count of
    violations (expected zero) and how often the nonzero ensemble makes the
    stringent margin strictly smaller than Simon's.
    """
    if samples < 1:
        raise InvalidInput("audit needs at least one sample")
    rng = np.random.default_rng(seed)
    prep_count = 0
    bad = 0
    stricter = 0
    for i in range(samples):
        v = statezoo.mixed_physical_state(rng, i)
        excess = v - 0.5 * np.eye(4)
        si = simon_criterion(v, tol)
        du = duan_criterion(v, tol)
        if si.satisfied and not du.satisfied:
            bad += 1
        if not is_psd_sym(excess, tol):
            continue
        prep_count += 1
        # P-representable => stringent => Simon on every ensemble; at the zero
        # ensemble the stringent condition is Simon's criterion itself.
        if not si.satisfied:
            bad += 1
        for ens in (excess, _scaled_random_psd(rng, excess)):
            st = stringent_criterion(v, ens, tol)
            if not (st.satisfied and si.satisfied):
                bad += 1
            if st.margin < si.margin - 1e-12:
                stricter += 1
    nonzero = 2 * prep_count  # the coherent excess and a random PSD matrix below it
    return AuditResult(samples, seed, samples + nonzero, prep_count, bad, stricter, nonzero)


def cmd_audit(args) -> int:
    result = run_audit(args.samples, args.seed, args.tol)
    print(f"audit: samples={result.samples} seed={result.seed}")
    print(f"pairs checked: {result.pairs}")
    print(f"p_representable states: {result.p_representable}")
    print(f"counterexamples: {result.counterexamples}")
    frac = (
        0.0
        if result.nonzero_ensemble_pairs == 0
        else result.stringent_stricter / result.nonzero_ensemble_pairs
    )
    print(
        "stringent margin strictly below simon: "
        f"{result.stringent_stricter}/{result.nonzero_ensemble_pairs} ({_g17(frac)})"
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
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DegenerateBlock as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except OutOfDomain as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CvsepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
