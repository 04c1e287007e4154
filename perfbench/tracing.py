"""Spans and counts around the public layer functions, from outside the package.

``Tracer.install`` replaces each traced name with a wrapper wherever a
caller looks it up: the module-level name in every loaded ``eismeasure``
module that binds the same function (``qexp`` imports ``enumerate_positive``
and ``evaluate`` by name, ``cli`` imports ``integrate`` and so on), or the
attribute on the class for methods.  ``uninstall`` puts the originals back.

A span records its name, start, end, parent span and whether it raised.
Spans stay in memory (one typed array per column) until the run ends.
Arithmetic dunders of ``KNum`` and ``PadicElt`` only count calls: a span per
field operation would cost more than the operation.
"""

from __future__ import annotations

import json
import os
import sys
import time
from array import array
from collections import Counter

#: Span names, "<layer>.<function>".  A layer's self time sums the self time
#: of its spans; time in untraced code goes to the nearest traced caller.
SPANNED = {
    # (module, owner class or None, attribute): span name
    ("hermitian", None, "enumerate_positive"): "hermitian.enumerate_positive",
    ("fields", "FieldData", "sigma_residue"): "fields.sigma_residue",
    ("fields", "CMElt", "embed"): "fields.CMElt.embed",
    ("fields", None, "norm_weight"): "fields.norm_weight",
    ("padic", "PadicElt", "from_rational"): "padic.PadicElt.from_rational",
    ("padic", "PadicElt", "with_abs_prec"): "padic.PadicElt.with_abs_prec",
    ("rings", "RationalRing", "coerce"): "rings.coerce",
    ("rings", "PadicRing", "coerce"): "rings.coerce",
    ("rings", "CyclotomicRing", "coerce"): "rings.coerce",
    ("functions", None, "evaluate"): "functions.evaluate",
    ("functions", None, "symmetrize"): "functions.symmetrize",
    ("functions", None, "weight_twist"): "functions.weight_twist",
    ("functions", None, "random_lc_function"): "functions.random_lc_function",
    ("functions", None, "check_equivariance"): "functions.check_equivariance",
    ("qexp", None, "eisenstein_qexp"): "qexp.eisenstein_qexp",
    ("qexp", "QExpansion", "congruent_mod"): "qexp.congruent_mod",
    ("qexp", "QExpansion", "to_json"): "qexp.to_json",
    ("diffops", None, "theta_apply"): "diffops.theta_apply",
    ("diffops", "MatrixPolynomial", "eval_matrix"): "diffops.eval_matrix",
    ("measure", None, "integrate"): "measure.integrate",
    ("measure", None, "kummer_check"): "measure.kummer_check",
    ("measure", None, "moment_detd"): "measure.moment_detd",
    ("automorphy", None, "selftest"): "automorphy.selftest",
    ("automorphy", None, "cocycle_check"): "automorphy.cocycle_check",
    ("automorphy", None, "section_infty"): "automorphy.section_infty",
    ("automorphy", None, "act"): "automorphy.act",
    ("automorphy", None, "factors"): "automorphy.factors",
    ("automorphy", None, "random_word"): "automorphy.random_word",
    ("automorphy", None, "random_point"): "automorphy.random_point",
    ("cli", None, "run_command"): "cli.run_command",
}

#: Arithmetic methods that are counted, never spanned.
COUNTED = {
    ("fields", "KNum"): ("fields.KNum.ops",
                         ("__add__", "__sub__", "__neg__", "__mul__",
                          "__rmul__", "__truediv__", "__pow__", "conj",
                          "norm", "inverse")),
    ("padic", "PadicElt"): ("padic.PadicElt.ops",
                            ("__add__", "__sub__", "__neg__", "__mul__",
                             "__truediv__", "__pow__", "invert")),
}

ROOT_SPAN = "bench.job"


def _size(result, args):
    return len(result)


def _is_nonzero(v, args) -> int:
    z = getattr(v, "is_zero", None)
    return int(not (v == 0 if z is None else z))


def _samples(report, args) -> int:
    # unit-point pairs offered: check_equivariance(f, w, points, ...)
    return len(args[2]) * len(args[0].field.unit_group)


def _json_bytes(data, args) -> int:
    # the CLI writes json.dumps(..., indent=2, sort_keys=True) plus a newline
    return len(json.dumps(data, indent=2, sort_keys=True).encode()) + 1


#: Work counts taken from a span's result and arguments:
#: span name -> (counter, function of (result, args)).
RESULT_COUNTS = {
    "hermitian.enumerate_positive": ("hermitian.enumerate_positive.matrices", _size),
    "hermitian.cusp_rule": ("hermitian.cusp_rule.terms", _size),
    "functions.evaluate": ("functions.evaluate.nonzero", _is_nonzero),
    "functions.check_equivariance": ("functions.check_equivariance.samples",
                                     _samples),
    "qexp.eisenstein_qexp": ("qexp.eisenstein_qexp.indices",
                             lambda q, args: len(q.terms)),
    "qexp.to_json": ("qexp.to_json.bytes", _json_bytes),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.raised = array("b")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._undo: list = []

    # -- recording -----------------------------------------------------------
    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, counter=None):
        """A wrapper that records a span and a call count around ``fn``."""
        nid = self.name_id(name)
        calls = name + ".calls"
        counts, stack = self.counts, self.stack
        name_col, start, end = self.name_col, self.start, self.end
        parent, raised = self.parent, self.raised
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name_col)
            name_col.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            raised.append(1)
            stack.append(idx)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                raised[idx] = 0
                return result
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
                counts[calls] += 1
                if counter is not None and not raised[idx]:
                    counts[counter[0]] += counter[1](result, args)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def job(self, fn, *args):
        """Run ``fn(*args)`` as the root span of one job."""
        return self.spanned(ROOT_SPAN, fn)(*args)

    # -- patching ------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every traced name in the loaded ``eismeasure`` modules."""
        modules = {name.rsplit(".", 1)[-1]: mod
                   for name, mod in list(sys.modules.items())
                   if mod is not None and (name == "eismeasure"
                                           or name.startswith("eismeasure."))}
        for (modname, clsname, attr), name in SPANNED.items():
            mod = modules.get(modname)
            if mod is None:
                continue
            counter = RESULT_COUNTS.get(name)
            if clsname is None:
                orig = getattr(mod, attr)
                wrapper = self.spanned(name, orig, counter)
                for other in modules.values():
                    if other.__dict__.get(attr) is orig:
                        self._set(other, attr, wrapper)
                continue
            cls = getattr(mod, clsname)
            desc = cls.__dict__[attr]
            if isinstance(desc, classmethod):
                self._set(cls, attr, classmethod(
                    self.spanned(name, desc.__func__, counter)))
            else:
                self._set(cls, attr, self.spanned(name, desc, counter))
        for (modname, clsname), (key, attrs) in COUNTED.items():
            mod = modules.get(modname)
            if mod is None:
                continue
            cls = getattr(mod, clsname)
            for attr in attrs:
                self._set(cls, attr, self.counted(key, cls.__dict__[attr]))
        hermitian = modules.get("hermitian")
        if hermitian is not None:
            self._wrap_cusp_rules(hermitian.CuspData)

    def _wrap_cusp_rules(self, cusp_cls):
        """Cusp rules are closures made per cusp; wrap them as they are made."""
        tracer = self
        counter = RESULT_COUNTS["hermitian.cusp_rule"]
        for attr in ("single_term", "divisor_rule"):
            make = cusp_cls.__dict__[attr].__func__

            def traced_make(cls, *args, _make=make, **kwargs):
                cusp = _make(cls, *args, **kwargs)
                return cls(cusp.label, cusp.n, tracer.spanned(
                    "hermitian.cusp_rule", cusp.rule, counter))

            self._set(cusp_cls, attr, classmethod(traced_make))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading -------------------------------------------------------------
    def __len__(self):
        return len(self.name_col)

    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus that of direct children."""
        n = len(self.name_col)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out: dict[str, float] = {}
        for i in range(n):
            name = self.names[self.name_col[i]]
            out[name] = out.get(name, 0.0) + dur[i] - child[i]
        return out

    def total_times(self) -> dict[str, float]:
        """Inclusive time per span name, counting only outermost calls."""
        out: dict[str, float] = {}
        for i in range(len(self.name_col)):
            nid, p = self.name_col[i], self.parent[i]
            # a recursive call lies inside its caller: count the outer one
            while p >= 0 and self.name_col[p] != nid:
                p = self.parent[p]
            if p < 0:
                name = self.names[nid]
                out[name] = out.get(name, 0.0) + self.end[i] - self.start[i]
        return out

    def raised_under(self, root_name: str, lo: int, hi: int) -> int:
        """Spans that raised and whose parent is a ``root_name`` span."""
        rid = self._ids.get(root_name)
        return sum(1 for i in range(lo, hi)
                   if self.raised[i] and self.parent[i] >= 0
                   and self.name_col[self.parent[i]] == rid)

    def dump(self, path: str, t_origin: float):
        """Write every span: a JSON header and one binary file of columns."""
        cols = (("name", self.name_col), ("start", self.start),
                ("end", self.end), ("parent", self.parent),
                ("raised", self.raised))
        with open(path + ".bin", "wb") as fh:
            for _, col in cols:
                col.tofile(fh)
        header = {"spans": len(self.name_col), "names": self.names,
                  "time_origin": t_origin,
                  "columns": [[name, col.typecode, col.itemsize]
                              for name, col in cols],
                  "data": os.path.basename(path) + ".bin",
                  "byteorder": sys.byteorder}
        with open(path, "w") as fh:
            json.dump(header, fh, indent=1)
