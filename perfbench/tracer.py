"""Span tracer that wraps the public functions of the cypairs modules from
outside the package.

The set of wrapped functions is fixed in `WRAPPED`: it defines what each
module's self time means, so it must not follow whatever a later commit
happens to export.  A listed name that a module no longer defines is skipped
and reported in the summary under "missing".

Every call of a wrapped function is one span (name, start, end, parent).
A wrapped generator function is one call when it is created and one span
per resumption, so its self time is the time spent producing items.  The
self time of a span is its duration minus the durations of its direct child
spans; a module's self time is the sum over its wrapped functions.  Spans
are kept in flat typed arrays while the run lasts and written once at the
end, because the verify workload makes a few million calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

PACKAGE = "cypairs"

# module -> wrapped public functions; the keys are the nine layers
WRAPPED = {
    "partitions": (
        "trim", "is_partition", "check_partition", "weight", "conjugate",
        "partitions_of", "weyl_dimension", "littlewood_richardson",
    ),
    "symfunc": (
        "default_budget", "plethysm_wedge", "determinant_multiplicity",
        "find_witness", "dimension_gap", "schur_expansion_json",
    ),
    "bwb": (
        "canonicalize", "to_weight", "bott", "simple_reflection",
        "bott_by_reflections", "cohomology", "serre_dual",
    ),
    "bundles": (
        "wedge_q", "rank", "tensor", "cohomology_table", "verify_vanishing_claims",
    ),
    "koszul": (
        "koszul_page", "restricted_cohomology", "deformation_sweep",
        "family_dimension",
    ),
    "motivic": ("gaussian_binomial", "class_flag", "l_equivalence_certificate"),
    "hodge": ("poincare_grassmannian", "middle_decomposition"),
    "pluecker": (
        "as_matrix", "identity", "transpose", "mat_mul", "mat_vec", "det",
        "inverse", "compound", "pluecker_embed", "section_eval",
        "transposition_action", "symmetry_obstruction_probe",
    ),
    "cli": (
        "cmd_bwb", "cmd_decompose", "cmd_koszul", "cmd_motivic", "cmd_hodge",
        "cmd_plethysm", "cmd_pluecker", "run_suite", "cmd_verify", "main",
    ),
}


class Tracer:
    """Wraps the functions in `WRAPPED` while installed; not reentrant."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]  # open span indices; -1 is the root
        self._child = [0.0]  # time covered by direct children, per open span
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.yields: Counter = Counter()  # (consumer name, generator name) -> items
        self.missing: list[str] = []
        self._patches: list[tuple] = []

    def _fid(self, name: str) -> int:
        fid = self._ids.get(name)
        if fid is None:
            fid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return fid

    def span(self, name: str, call):
        """Run call() as one span that belongs to no module, such as one
        workload operation."""
        return self._wrap(name, call)()

    def _wrap(self, name, fn):
        # everything the wrappers touch is bound to a local: the verify
        # workload calls trim, is_partition and check_partition about a
        # million times each
        fid = self._fid(name)
        stack, child = self._stack, self._child
        sname, sparent = self.span_name, self.span_parent
        sstart, send = self.span_start, self.span_end
        calls, selfs, yields, names = self.calls, self.self_s, self.yields, self.names
        clock = time.perf_counter

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[fid] += 1
                it = fn(*args, **kwargs)
                while True:
                    consumer = stack[-1]
                    idx = len(sname)
                    sname.append(fid)
                    sparent.append(consumer)
                    sstart.append(0.0)
                    send.append(0.0)
                    stack.append(idx)
                    child.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        t1 = clock()
                        stack.pop()
                        d = t1 - t0
                        selfs[fid] += d - child.pop()
                        child[-1] += d
                        sstart[idx] = t0
                        send[idx] = t1
                    yields[(names[sname[consumer]] if consumer >= 0 else "", name)] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(sname)
            sname.append(fid)
            sparent.append(stack[-1])
            sstart.append(0.0)
            send.append(0.0)
            stack.append(idx)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                selfs[fid] += d - child.pop()
                child[-1] += d
                calls[fid] += 1
                sstart[idx] = t0
                send[idx] = t1

        return wrapper

    def install(self) -> None:
        """Replace every reference to a listed function, in the package and
        in each of its loaded modules, by its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        by_id = {}
        for mod_name, fn_names in WRAPPED.items():
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            for fn_name in fn_names:
                qual = f"{mod_name}.{fn_name}"
                fn = getattr(mod, fn_name, None)
                if fn is None:
                    self.missing.append(qual)
                    continue
                by_id[id(fn)] = (fn, self._wrap(qual, fn))
        for mod in self._package_modules():
            for attr, value in list(vars(mod).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        """Put back every attribute that install() replaced."""
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    @staticmethod
    def _package_modules():
        return [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def summary(self) -> dict:
        """Per-function call counts and self times, generator item counts by
        consumer, and the number of spans recorded."""
        functions = {
            name: {"calls": self.calls[i], "self_s": self.self_s[i]}
            for i, name in enumerate(self.names)
        }
        return {
            "functions": functions,
            "yields": {f"{c}>{g}": k for (c, g), k in sorted(self.yields.items())},
            "missing": list(self.missing),
            "spans": len(self.span_name),
        }

    def write_spans(self, path) -> None:
        """All spans as one .npz: names, and per span name index, parent span
        index (-1 for a root), start and end in perf_counter seconds."""
        import numpy as np  # only workers write spans, and they have numpy loaded

        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.intc),
            parent=np.frombuffer(self.span_parent, dtype=np.intc),
            start=np.frombuffer(self.span_start, dtype=np.double),
            end=np.frombuffer(self.span_end, dtype=np.double),
        )
