"""In-memory span tracer that wraps cvsep's public functions from outside.

No source file is edited. Installing the tracer replaces each target function,
in every loaded ``cvsep`` module that holds a reference to it, with a wrapper
that records one span per call: name, start, end, parent span and the index
of the workload call (the item) it belongs to. Replacing every reference
matters because callers look functions up in different places: ``criteria``
imports ``to_standard_form`` and ``optimal_squeeze`` by name, ``cli`` imports
``simon_criterion`` by name, and the package re-exports ``classify``.

A target that no longer exists is reported as absent rather than raising, so
the benchmark keeps running when a later change moves or removes a function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

import numpy as np

#: Functions traced per layer. ``statezoo.vacuum`` and ``cli.run_audit`` are
#: left out: no workload reaches them. ``prep`` is on no CLI path and stays
#: unmeasured.
TARGETS: dict[str, tuple[str, ...]] = {
    "matkit": ("is_psd_herm", "is_psd_sym", "eig_sym", "svd2_rotations"),
    "covariance": ("to_standard_form", "is_physical", "apply_symp"),
    "criteria": (
        "classify",
        "simon_criterion",
        "duan_criterion",
        "stringent_criterion",
        "simon_algebraic",
        "simon_bound",
    ),
    "squeezing": ("optimal_squeeze", "p_rep_bound_at", "duan_bound_at"),
    "statezoo": (
        "thermal",
        "two_mode_squeezed",
        "random_symp2",
        "random_physical",
        "random_separable",
        "random_correlated_physical",
    ),
    "cli": ("main", "scan_row"),
}

#: matkit calls that each run one LAPACK eigensolve.
EIGENSOLVERS = ("matkit.is_psd_herm", "matkit.eig_sym", "matkit.is_psd_sym")

#: Span item index for work outside the workload calls (input building).
SETUP_ITEM = -1


def target_names() -> list[str]:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: dict[str, str] = {}
    for name in target_names():
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for mod in TARGETS:
        units[f"{mod}.self_share"] = "frac"
    units["matkit.eigensolves_per_item"] = "1/item"
    units["matkit.eigensolves_per_item.base"] = "item"
    units["statezoo.rejection_attempts_per_state"] = "1/state"
    units["statezoo.rejection_attempts_per_state.base"] = "state"
    units["trace.items_per_s_traced"] = "1/s"
    units["trace.items_per_s_untraced"] = "1/s"
    units["trace.overhead_frac"] = "frac"
    units["trace.spans"] = "count"
    units["trace.absent_targets"] = "count"
    return units


def _cvsep_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "cvsep" or name.startswith("cvsep."))
    ]


class Tracer:
    """Records spans of the target functions while installed.

    Set ``item`` before each workload call; spans opened during the call carry
    it. Spans are kept in parallel lists and only turned into arrays when the
    metrics are computed or the spans are written out.
    """

    def __init__(self):
        self.names = target_names()
        self.absent: list[str] = []
        self.item = SETUP_ITEM
        self._name_ids: list[int] = []
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._parents: list[int] = []
        self._items: list[int] = []
        self._stack: list[int] = []

    def _wrap(self, name_id: int, fn):
        name_ids, starts, ends = self._name_ids, self._starts, self._ends
        parents, items, stack = self._parents, self._items, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            items.append(self.item)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target where callers look it up; restore on exit."""
        replaced = []
        self.absent = []
        try:
            for name_id, name in enumerate(self.names):
                mod_name, fn_name = name.split(".")
                try:
                    home = importlib.import_module(f"cvsep.{mod_name}")
                except ImportError:
                    self.absent.append(name)
                    continue
                original = getattr(home, fn_name, None)
                if not callable(original):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name_id, original)
                for mod in _cvsep_modules():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, original))
            yield self
        finally:
            for mod, attr, original in reversed(replaced):
                setattr(mod, attr, original)

    def _arrays(self):
        return (
            np.asarray(self._name_ids, dtype=np.int64),
            np.asarray(self._starts, dtype=float),
            np.asarray(self._ends, dtype=float),
            np.asarray(self._parents, dtype=np.int64),
            np.asarray(self._items, dtype=np.int64),
        )

    def layer_metrics(self, items_done: int) -> dict[str, float]:
        """Per-function calls and self time, per-module shares and the two
        ratios, all computed from the recorded spans.

        Self time is a span's duration minus the durations of its child spans.
        Shares are taken over the summed duration of root spans, so the six
        module shares add up to one. ``items_done`` is the base of
        eigensolves_per_item, which counts only spans inside workload calls.
        """
        name, start, end, parent, item = self._arrays()
        n_names = len(self.names)
        dur = end - start
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        calls = np.bincount(name, minlength=n_names)
        self_s = np.bincount(name, weights=dur - child, minlength=n_names)
        total = float(dur[~nested].sum())

        out: dict[str, float] = {}
        for i, fn in enumerate(self.names):
            out[f"{fn}.calls"] = int(calls[i])
            out[f"{fn}.self_s"] = float(self_s[i])
        for mod in TARGETS:
            mod_self = sum(out[f"{mod}.{fn}.self_s"] for fn in TARGETS[mod])
            out[f"{mod}.self_share"] = mod_self / total if total > 0.0 else 0.0

        ids = {fn: i for i, fn in enumerate(self.names)}
        in_items = item >= 0
        solves = int(np.isin(name[in_items], [ids[fn] for fn in EIGENSOLVERS]).sum())
        out["matkit.eigensolves_per_item"] = solves / items_done if items_done else 0.0
        out["matkit.eigensolves_per_item.base"] = int(items_done)

        accepted = int(calls[ids["statezoo.random_correlated_physical"]])
        parent_name = np.where(nested, name[np.maximum(parent, 0)], -1)
        attempts = int(
            np.sum(
                (name == ids["covariance.is_physical"])
                & (parent_name == ids["statezoo.random_correlated_physical"])
            )
        )
        out["statezoo.rejection_attempts_per_state"] = attempts / accepted if accepted else 0.0
        out["statezoo.rejection_attempts_per_state.base"] = accepted
        out["trace.spans"] = int(dur.size)
        out["trace.absent_targets"] = len(self.absent)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: a header naming the functions, then
        one [name, start_ns, end_ns, parent, item] row per span, with times
        relative to the first span's start."""
        name, start, end, parent, item = self._arrays()
        origin = float(start.min()) if start.size else 0.0
        start_ns = np.rint((start - origin) * 1e9).astype(np.int64)
        end_ns = np.rint((end - origin) * 1e9).astype(np.int64)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "absent": self.absent}) + "\n")
            for row in zip(name.tolist(), start_ns.tolist(), end_ns.tolist(),
                           parent.tolist(), item.tolist()):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
