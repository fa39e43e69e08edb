"""Golden CLI outputs: classify text for a few reference states, an audit
report, the digests of the default scan CSV and of further scans (other
t-step counts, an asymmetric a/b grid, a grid up to the a * b bound), the
squeeze text at points from the unit grid to the t and a * b edges and the
standard-form text from reference states to the degenerate and overflowing
blocks must stay byte-identical, as must a digest of classify's verdicts on
three audit pools.

golden_outputs.json holds what capture_outputs() returned on the code the
goldens were taken from; a refactor that changes any byte fails here.
"""

import contextlib
import functools
import hashlib
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

from conftest import epr_matrix, row_sum_scale
from cvsep import statezoo
from cvsep.cli import main
from cvsep.criteria import classify
from cvsep.covariance import apply_symp

GOLDEN = Path(__file__).with_name("golden_outputs.json")

CLASSIFY_STATES = {
    "vacuum": statezoo.vacuum(),
    "thermal_1_1.5": statezoo.thermal(1.0, 1.5),
    "two_mode_squeezed_0.5": statezoo.two_mode_squeezed(0.5),
    "scaled_two_mode_squeezed_0.9": 0.9 * statezoo.two_mode_squeezed(0.5),
    "random_separable_seed3": statezoo.random_separable(3),
}

#: Scan arguments besides --out, for the digests beyond the default scan.
SCAN_ARGS = {
    "t_steps_1": ["--t-steps", "1"],
    "t_steps_2": ["--t-steps", "2"],
    "t_steps_8": ["--t-steps", "8"],
    "t_steps_16": ["--t-steps", "16"],
    "asymmetric_grid_t_steps_9": ["--a", "0.5,1.5,7", "--b", "0.75,3", "--t-steps", "9"],
    "t_steps_1001": ["--t-steps", "1001"],
    "ab_bound_grid_t_steps_101": ["--a", "0.5,1e75,1e150", "--b", "1,0.5", "--t-steps", "101"],
}

#: Arguments of cvsep squeeze: a, b, t.
SQUEEZE_ARGS = [
    "1 1 0",
    "1 1 1",
    "0.5 0.5 0.5",
    "2 0.75 0.3",
    "1.5 0.8 0.4",
    "7 3 1e-17",
    "1.3 0.9 0.9999999999999999",
    "1e13 1 0.3",
    "1e75 1e75 1",
    "0.5 1e150 0.25",
]

#: SHA-256 of the squeeze entries as json.dumps(..., sort_keys=True) writes them,
#: so the stored texts cannot drift from the ones first taken.
SQUEEZE_DIGEST = "9c422bd031f81583f1d1f19a8c2c8d9a05d05ddfab0662e064869b921c32c90e"


def _standard_form_docs() -> dict:
    """Input documents of cvsep standard-form: reference states, five locally
    transformed audit-pool states (two rescaled), a state whose det V is
    past the float maximum (printed as inf), a strongly squeezed state whose
    det V of about 1/16 cancels from entries near 3e5, a standard_form
    document, a slightly asymmetric matrix and two blocks the reduction
    refuses."""
    docs = {
        "vacuum": statezoo.vacuum(),
        "thermal_1_1.5": statezoo.thermal(1.0, 1.5),
        "two_mode_squeezed_0.5": statezoo.two_mode_squeezed(0.5),
    }
    rng = np.random.default_rng(7)
    for i, scale in enumerate((1.0, 1.0, 1.0, 1e-3, 1e6)):
        v = statezoo.mixed_physical_state(rng, i)
        v = apply_symp(v, statezoo.random_symp2(rng), statezoo.random_symp2(rng))
        docs[f"pool_seed7_{i}_scale_{scale:g}"] = scale * v
    docs["two_mode_squeezed_0.5_scale_1e100"] = 1e100 * statezoo.two_mode_squeezed(0.5)
    docs["two_mode_squeezed_7"] = statezoo.two_mode_squeezed(7.0)
    asym = statezoo.two_mode_squeezed(0.3)
    asym[0, 2] += 1e-12
    docs["asymmetry_1e-12"] = asym
    docs["degenerate_block"] = np.diag([1.0, 0.0, 1.0, 1.0])
    docs["overflowing_block_determinant"] = np.diag([1e200, 1e200, 1.0, 1.0])
    docs = {name: {"matrix": v.tolist()} for name, v in docs.items()}
    docs["standard_form_document"] = {
        "standard_form": {"a": 1.25, "b": 0.75, "c1": 0.5, "c2": -0.25}}
    return docs


STANDARD_FORM_DOCS = _standard_form_docs()

#: SHA-256 of the standard_form entries as json.dumps(..., sort_keys=True) writes them.
STANDARD_FORM_DIGEST = "4a1e52ddadd82bba6e93721457582026ba2807c199c7ea66687685bf9c4f5a31"


#: Seeds of the audit pools whose verdicts are digested, the size of each pool,
#: and the tolerances each pool is classified at.
VERDICT_SEEDS = (7, 13, 31)
VERDICT_POOL_SIZE = 2000
VERDICT_TOLS = (1e-10, 1e-3)


@functools.cache
def _verdict_pool(seed: int) -> list:
    """The audit pool of a seed whose verdicts are digested, one state in five
    scaled by 0.8."""
    rng = np.random.default_rng(seed)
    return [(0.8 if i % 5 == 4 else 1.0) * statezoo.mixed_physical_state(rng, i)
            for i in range(VERDICT_POOL_SIZE)]


def _verdicts_digest() -> str:
    """SHA-256 over every verdict field whose bits do not depend on the BLAS
    kernel, on audit pools with one state in five scaled by 0.8: outcome,
    ensemble_used, consistent, each report's satisfied flag, Duan's margin and
    sign_branch (decided in closed form on Python floats), the raw bits of
    the standard form (a, b, c1, c2, s1, s2) and of the simon_algebraic and
    p_rep_bound margins. The physical, Simon and stringent margins, witnesses
    and sign_branch follow the LAPACK kernel and are left out."""
    digest = hashlib.sha256()
    for seed in VERDICT_SEEDS:
        for tol in VERDICT_TOLS:
            for v in _verdict_pool(seed):
                verdict = classify(v, tol)
                flags = " ".join(f"{name}={rep.satisfied}" for name, rep in verdict.reports.items())
                duan = verdict.reports["duan"]
                digest.update(f"{verdict.outcome.value} {verdict.ensemble_used} "
                              f"{verdict.consistent} {flags} {duan.sign_branch}\n".encode())
                digest.update(struct.pack("<d", duan.margin))
                sf = verdict.standard_form
                if sf is not None:
                    digest.update(struct.pack(
                        "<14d", sf.a, sf.b, sf.c1, sf.c2, *sf.s1.ravel(), *sf.s2.ravel(),
                        verdict.reports["simon_algebraic"].margin,
                        verdict.reports["p_rep_bound"].margin))
    return digest.hexdigest()


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def capture_outputs(work_dir: Path) -> dict:
    classify = {}
    for name, v in CLASSIFY_STATES.items():
        path = work_dir / f"{name}.json"
        path.write_text(json.dumps({"matrix": v.tolist()}))
        code, text = _run(["classify", str(path)])
        classify[name] = {"exit": code, "stdout": text}
    code, audit = _run(["audit", "--samples", "200", "--seed", "55"])
    csv_path = work_dir / "scan.csv"
    doc_path = work_dir / "standard_form.json"

    def standard_form(doc):
        doc_path.write_text(json.dumps(doc))
        return dict(zip(("exit", "stdout"), _run(["standard-form", str(doc_path)])))

    def scan(args):
        scan_code, _ = _run(["scan", *args, "--out", str(csv_path)])
        return {"exit": scan_code, "sha256": hashlib.sha256(csv_path.read_bytes()).hexdigest()}

    return {
        "classify": classify,
        "audit_samples200_seed55": {"exit": code, "stdout": audit},
        "scan_default": scan([]),
        "scan_digests": {name: scan(args) for name, args in SCAN_ARGS.items()},
        "squeeze": {
            args: dict(zip(("exit", "stdout"), _run(["squeeze", *args.split()])))
            for args in SQUEEZE_ARGS
        },
        "standard_form": {name: standard_form(doc) for name, doc in STANDARD_FORM_DOCS.items()},
        "verdicts": _verdicts_digest(),
    }


def test_cli_outputs_match_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert capture_outputs(tmp_path) == expected


#: A child process that runs cvsep classify on each document of a JSON object
#: {name: path} read from stdin and prints {name: {exit, stdout}} as JSON.
_CLASSIFY_CHILD = """
import contextlib, io, json, sys
from cvsep.cli import main
out = {}
for name, path in json.load(sys.stdin).items():
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = main(["classify", path])
    out[name] = {"exit": code, "stdout": text.getvalue()}
print(json.dumps(out))
"""


def test_classify_goldens_hold_on_the_sse3_kernel(tmp_path):
    # The physical, Simon and stringent margins and witnesses come from
    # LAPACK, whose last bits follow the CPU kernel OpenBLAS runs; classify
    # prints what is rounding as 0, so its text is the same on every kernel.
    # Prescott is the SSE3 baseline, which runs on any x86-64; the setting
    # does nothing where numpy does not use OpenBLAS.
    paths = {}
    for name, v in CLASSIFY_STATES.items():
        paths[name] = str(tmp_path / f"{name}.json")
        Path(paths[name]).write_text(json.dumps({"matrix": v.tolist()}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _CLASSIFY_CHILD], input=json.dumps(paths),
                           capture_output=True, text=True, env=env, check=True)
    assert json.loads(child.stdout) == json.loads(GOLDEN.read_text(encoding="utf-8"))["classify"]


def test_squeeze_goldens_match_their_digest():
    squeeze = json.loads(GOLDEN.read_text(encoding="utf-8"))["squeeze"]
    assert set(squeeze) == set(SQUEEZE_ARGS)
    text = json.dumps(squeeze, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == SQUEEZE_DIGEST


def test_standard_form_goldens_match_their_digest():
    standard_form = json.loads(GOLDEN.read_text(encoding="utf-8"))["standard_form"]
    assert set(standard_form) == set(STANDARD_FORM_DOCS)
    text = json.dumps(standard_form, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == STANDARD_FORM_DIGEST


#: The verdicts, by (seed, index) in the digested pools, that moved at tol 1e-3
#: when every PSD test of a state came to be judged against its one tolerance
#: scale s: Duan's flag (binding branch sigma = -1, now within -2 tol * s) or
#: ensemble_used (V - I/2, now within -tol * s). Each moved toward satisfied,
#: and no outcome or consistent flag moved; at tol 1e-10 nothing did.
MOVED_AT_TOL_1E_3 = {
    (7, 159): "duan",
    (7, 251): "duan",
    (7, 796): "ensemble_used",
    (7, 1103): "duan",
    (13, 887): "duan",
    (13, 1967): "duan",
    (31, 187): "duan",
    (31, 266): "ensemble_used",
    (31, 455): "duan",
}


def test_verdicts_moved_by_one_scale_per_state_lie_between_the_two_thresholds():
    # Each moved margin lies at or above its new threshold and below the old
    # one, -tol times the row_sum_scale of its own matrix.
    tol = 1e-3
    for (seed, index), moved in MOVED_AT_TOL_1E_3.items():
        v = _verdict_pool(seed)[index]
        verdict = classify(v, tol)
        duan = verdict.reports["duan"]
        assert duan.satisfied
        s = float(row_sum_scale(v))
        if moved == "duan":
            assert verdict.ensemble_used == "zero" and duan.sign_branch == -1
            m = np.array(epr_matrix(v.tolist(), -1)) - np.eye(4)
            lam, new = duan.margin, -2.0 * tol * s
        else:
            assert verdict.ensemble_used == "coherent_excess"
            m = v - 0.5 * np.eye(4)
            lam, new = float(np.linalg.eigvalsh(m)[0]), -tol * s
        assert new <= lam < -tol * float(row_sum_scale(m))
