"""The benchmark workloads and their correctness gates.

Each workload builds its inputs from the seed in its constructor (that is the
timed set-up), then serves a pass of ``pass_calls`` numbered calls:
``call(k)`` is the timed part, ``check(k, out)`` verifies its output against
a reference, ``items(k)`` says how many states, samples or rows the call
completed and ``key(k)`` names its input, equal for calls that do the same
work. The program only ever sees the generated inputs; the seed stays
in the benchmark.

Every workload reaches cvsep through module attributes looked up at call
time (``cvsep.classify``, ``cvsep.cli.main``), so the tracer's wrappers are
the functions that run when tracing is on.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from pathlib import Path

import numpy as np

import cvsep
import cvsep.cli
import cvsep.statezoo

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Margins reported by classify must agree with the reference within this
#: bound, relative to max(1, |reference margin|).
MARGIN_RTOL = 1e-9
#: Largest accepted scan disagreement between the three boundary routes.
SCAN_MAX_REL = 1e-8

#: Share of nonphysical matrices in the classify pool: one kind in five.
POOL_KINDS = 5


def _load(name: str):
    with open(REFERENCE_DIR / name, encoding="utf-8") as fh:
        return json.load(fh)


def _local_squeezed(rng: np.random.Generator) -> np.ndarray:
    """Two-mode squeezed vacuum under a random local symplectic pair."""
    zoo = cvsep.statezoo
    v = zoo.two_mode_squeezed(float(rng.uniform(0.0, 1.5)))
    return cvsep.apply_symp(v, zoo.random_symp2(rng), zoo.random_symp2(rng))


def build_pool(seed: int, size: int) -> list[np.ndarray]:
    """Seeded pool cycling through the audit's four physical kinds
    (uncorrelated, P-representable, correlated, locally transformed two-mode
    squeezed) and a nonphysical kind: a locally transformed pure state scaled
    by s in [0.5, 0.95], whose symplectic eigenvalues s/2 break the
    uncertainty relation."""
    zoo = cvsep.statezoo
    rng = np.random.default_rng(seed)
    pool = []
    for i in range(size):
        kind = i % POOL_KINDS
        if kind == 0:
            v = zoo.random_physical(rng)
        elif kind == 1:
            v = zoo.random_separable(rng)
        elif kind == 2:
            v = zoo.random_correlated_physical(rng)
        elif kind == 3:
            v = _local_squeezed(rng)
        else:
            v = float(rng.uniform(0.5, 0.95)) * _local_squeezed(rng)
        pool.append(v)
    return pool


def _omega(sign: int) -> np.ndarray:
    j = np.array([[0.0, 1.0], [-1.0, 0.0]])
    out = np.zeros((4, 4))
    out[:2, :2] = j
    out[2:, 2:] = sign * j
    return out


def _det2(m: np.ndarray) -> np.ndarray:
    return m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]


def pool_reference(pool: list[np.ndarray]) -> dict[str, np.ndarray]:
    """Expected outcome, physicality margin and Simon margin of every state,
    computed independently of cvsep.

    Outcomes come from the smallest symplectic eigenvalues of V and of its
    partial transpose, from the invariants det A, det B, det C and det V; a
    state is nonphysical when nu_- < 1/2 and entangled when the transposed
    nu_- < 1/2. Pure states sit exactly at nu_- = 1/2, so physicality is
    decided with a 1e-3 relative guard, far outside the pool's nonphysical
    scale factors. Margins are the smallest eigenvalues of
    V + (i/2) diag(J, sigma J) from one batched LAPACK call per branch.
    """
    v = np.asarray(pool, dtype=float)
    det_a = _det2(v[:, :2, :2])
    det_b = _det2(v[:, 2:, 2:])
    det_c = _det2(v[:, :2, 2:])
    det_v = np.linalg.det(v)

    def nu_minus_sq(delta):
        root = np.sqrt(np.maximum(delta * delta - 4.0 * det_v, 0.0))
        return 2.0 * det_v / (delta + root)

    nonphysical = nu_minus_sq(det_a + det_b + 2.0 * det_c) < 0.25 * (1.0 - 1e-3)
    entangled = nu_minus_sq(det_a + det_b - 2.0 * det_c) < 0.25
    outcome = np.where(nonphysical, "nonphysical", np.where(entangled, "entangled", "separable"))
    plus = np.linalg.eigvalsh(v + 0.5j * _omega(1))[:, 0]
    minus = np.linalg.eigvalsh(v + 0.5j * _omega(-1))[:, 0]
    return {"outcome": outcome, "physical": plus, "simon": np.minimum(plus, minus)}


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= MARGIN_RTOL * max(1.0, abs(ref))


class Workload:
    """Defaults for the optional steps; every call is its own input."""

    def prepare_checks(self) -> None:
        """Build references for ``check``; runs after the timed set-up."""

    def golden_check(self) -> tuple[int, int]:
        """Check stored golden outputs once; returns (attempted, failed)."""
        return 0, 0

    def close(self) -> None:
        """Remove what the calls left behind."""

    def key(self, k: int):
        return k


class ClassifyMixed(Workload):
    """``cvsep.classify(V)`` once per call on a seeded pool."""

    def __init__(self, seed: int, smoke: bool):
        self.pool = build_pool(seed, 50 if smoke else 2000)
        self.pass_calls = len(self.pool)
        self.warmup_calls = 5 if smoke else 50

    def prepare_checks(self) -> None:
        self.expected = pool_reference(self.pool)
        self.golden = _load("classify_golden.json")

    def call(self, k: int):
        return cvsep.classify(self.pool[k])

    def items(self, k: int) -> int:
        return 1

    def check(self, k: int, verdict) -> bool:
        exp = self.expected
        return (
            verdict.outcome.value == exp["outcome"][k]
            and verdict.consistent
            and _close(verdict.reports["physical"].margin, exp["physical"][k])
            and _close(verdict.reports["simon"].margin, exp["simon"][k])
        )

    def golden_check(self) -> tuple[int, int]:
        """Classify the stored golden states; outcomes, the set of reports and
        the consistency flag must match exactly, every margin within
        MARGIN_RTOL. Returns (attempted, failed)."""
        failed = 0
        for state in self.golden["states"]:
            verdict = cvsep.classify(np.array(state["matrix"], dtype=float).reshape(4, 4))
            margins = {name: rep.margin for name, rep in verdict.reports.items()}
            ok = (
                verdict.outcome.value == state["outcome"]
                and verdict.consistent == state["consistent"]
                and margins.keys() == state["margins"].keys()
                and all(_close(margins[n], m) for n, m in state["margins"].items())
            )
            failed += not ok
        return len(self.golden["states"]), failed


class ScanDense(Workload):
    """``cvsep scan`` through ``cli.main`` on the default a/b grid. A pass
    runs every stored t-step count equally often, in an order the seed
    shuffles, so passes of different seeds do the same amount of work."""

    GRID_POINTS = 36  # the default a/b grid is 6 x 6

    def __init__(self, seed: int, smoke: bool, out_dir: Path):
        ref = _load("scan.json")
        self.digests = {int(t): d for t, d in ref["digests"].items()}
        steps = sorted(self.digests)[:3] if smoke else sorted(self.digests) * 11
        self.t_steps = np.random.default_rng(seed).permutation(steps).tolist()
        self.pass_calls = len(self.t_steps)
        self.out = out_dir / f"scan-{os.getpid()}.csv"
        self.warmup_calls = 2 if smoke else 5

    def close(self) -> None:
        self.out.unlink(missing_ok=True)

    def call(self, k: int):
        argv = ["scan", "--t-steps", str(self.t_steps[k]), "--out", str(self.out)]
        return cvsep.cli.main(argv)

    def items(self, k: int) -> int:
        return self.GRID_POINTS * self.t_steps[k]

    def key(self, k: int) -> int:
        return self.t_steps[k]

    def check(self, k: int, code) -> bool:
        if code != 0:
            return False
        with open(self.out, "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != self.digests[self.t_steps[k]]:
            return False
        rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))
        return len(rows) == 1 + self.items(k) and max(float(r[-1]) for r in rows[1:]) <= SCAN_MAX_REL
