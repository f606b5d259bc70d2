"""Span tracing of exanova's layers, installed from outside the package.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent span, op id) in flat arrays.  A function that other
modules imported by name (`from .exactlin import projector`) is rebound
in every exanova module that holds it, so calls from every layer are
caught.  Methods and cached properties are replaced on their class.

Counts that need the arguments or the result (matrix sizes, integer bit
lengths) are taken only during the first `count_ops` ops, inside a
`trace.count` span of their own, so their cost is charged to neither
the traced function nor its caller.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from pathlib import Path

COUNT_SPAN = "trace.count"


def _bits(m) -> int:
    num, den = m.int_rows()
    return max([den.bit_length()] + [abs(v).bit_length() for r in num for v in r])


def _hook_incidence(c, args, res):
    c["effects.incidence.entries"] += res.nrows * res.ncols


def _hook_projector(c, args, res):
    c["exactlin.projector.max_dim"] = max(c["exactlin.projector.max_dim"], args[0].nrows)
    c["exactlin.max_bits"] = max(c["exactlin.max_bits"], _bits(res.matrix))


def _hook_matmul(c, args, res):
    a, b = args
    c["exactlin.matmul.mults"] += a.nrows * a.ncols * b.ncols
    c["exactlin.max_bits"] = max(c["exactlin.max_bits"], _bits(res))


# (span name, module, owner within the module or None, attribute, count hook)
TARGETS = [
    ("cli.main", "cli", None, "main", None),
    ("cli.parse_dataset", "cli", None, "parse_dataset", None),
    ("cli.layout_and_response", "cli", "Dataset", "layout_and_response", None),
    ("effects.incidence", "effects", None, "incidence", _hook_incidence),
    ("effects.effect_model_matrix", "effects", None, "effect_model_matrix", None),
    ("effects.c_block", "effects", None, "c_block", None),
    ("effects.h_projector", "effects", None, "h_projector", None),
    ("hypotest.type_ss", "hypotest", None, "type_ss", None),
    ("hypotest.type_numerator", "hypotest", None, "type_numerator", None),
    ("hypotest.testing_target", "hypotest", None, "testing_target", None),
    ("hypotest.quad_form", "hypotest", None, "quad_form", None),
    ("hypotest.rmfm_projector", "hypotest", None, "rmfm_projector", None),
    ("hypotest.sse", "hypotest", None, "sse", None),
    ("exactlin.projector", "exactlin", None, "projector", _hook_projector),
    ("exactlin.projector_minus", "exactlin", "Projector", "minus", None),
    ("exactlin.matmul", "exactlin", "RatMatrix", "__matmul__", _hook_matmul),
    ("exactlin.ratmatrix_init", "exactlin", "RatMatrix", "__init__", None),
    ("exactlin.colspace", "exactlin", "RatMatrix", "colspace", None),
    ("exactlin.nullspace", "exactlin", "RatMatrix", "nullspace", None),
    ("exactlin.intersect", "exactlin", "Subspace", "intersect", None),
    ("exactlin.complement", "exactlin", "Subspace", "complement", None),
    ("exactlin.is_nnd", "exactlin", None, "is_nnd", None),
    ("dominance.check_dominance", "dominance", None, "check_dominance", None),
    ("fdist.f_cdf", "fdist", None, "f_cdf", None),
    ("fdist.f_quantile", "fdist", None, "f_quantile", None),
    ("fdist.p_value_from", "fdist", None, "p_value_from", None),
    ("fdist.power", "fdist", None, "power", None),
    ("verify.verify_table1", "verify", None, "verify_table1", None),
    ("verify.verify_prop1", "verify", None, "verify_prop1", None),
    ("verify.verify_prop2", "verify", None, "verify_prop2", None),
    ("verify.verify_prop3", "verify", None, "verify_prop3", None),
]

# per-layer metrics: (metric, unit); "<span>.self_s" is mean self time per
# op, "<span>.calls" is calls per op over the first count_ops ops, and the
# rest are the hook counters (sums per op, or maxima)
PER_LAYER = [
    ("cli.parse_dataset.self_s", "s"),
    ("cli.layout_and_response.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("effects.incidence.self_s", "s"),
    ("effects.incidence.entries", "count"),
    ("effects.effect_model_matrix.calls", "count"),
    ("effects.effect_model_matrix.self_s", "s"),
    ("effects.c_block.calls", "count"),
    ("effects.h_projector.self_s", "s"),
    ("hypotest.type_ss.calls", "count"),
    ("hypotest.type_ss.self_s", "s"),
    ("hypotest.type_numerator.self_s", "s"),
    ("hypotest.testing_target.self_s", "s"),
    ("hypotest.quad_form.self_s", "s"),
    ("hypotest.rmfm_projector.self_s", "s"),
    ("hypotest.sse.self_s", "s"),
    ("exactlin.projector.calls", "count"),
    ("exactlin.projector.self_s", "s"),
    ("exactlin.projector.max_dim", "count"),
    ("exactlin.projector_minus.self_s", "s"),
    ("exactlin.matmul.calls", "count"),
    ("exactlin.matmul.self_s", "s"),
    ("exactlin.matmul.mults", "count"),
    ("exactlin.ratmatrix_init.calls", "count"),
    ("exactlin.ratmatrix_init.self_s", "s"),
    ("exactlin.colspace.calls", "count"),
    ("exactlin.colspace.self_s", "s"),
    ("exactlin.nullspace.self_s", "s"),
    ("exactlin.intersect.calls", "count"),
    ("exactlin.intersect.self_s", "s"),
    ("exactlin.complement.self_s", "s"),
    ("exactlin.is_nnd.self_s", "s"),
    ("exactlin.max_bits", "count"),
    ("dominance.check_dominance.calls", "count"),
    ("dominance.check_dominance.self_s", "s"),
    ("fdist.f_cdf.calls", "count"),
    ("fdist.f_cdf.self_s", "s"),
    ("fdist.f_quantile.calls", "count"),
    ("fdist.f_quantile.self_s", "s"),
    ("fdist.p_value_from.self_s", "s"),
    ("fdist.power.self_s", "s"),
    ("verify.verify_table1.self_s", "s"),
    ("verify.verify_prop1.self_s", "s"),
    ("verify.verify_prop2.self_s", "s"),
    ("verify.verify_prop3.self_s", "s"),
]
MAX_COUNTERS = ("exactlin.projector.max_dim", "exactlin.max_bits")


class Tracer:
    """Spans in flat arrays, kept in memory until `write`."""

    def __init__(self, count_ops: int):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.count_ops = count_ops
        self.counters = {m: 0 for m, u in PER_LAYER if u == "count" and not m.endswith(".calls")}
        self._originals: list[tuple[object, str, object]] = []

    @property
    def counting(self) -> bool:
        return 0 <= self.op_id < self.count_ops

    def _nid(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, nid: int, hook, count_nid: int):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                res = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None and self.counting:
                j = self._open(count_nid)
                hook(self.counters, args, res)
                self._close(j)
            return res

        return traced

    def install(self) -> None:
        """Replace every target in the loaded exanova modules."""
        count_nid = self._nid(COUNT_SPAN)
        modules = [m for k, m in sys.modules.items() if k == "exanova" or k.startswith("exanova.")]
        for span, modname, owner, attr, hook in TARGETS:
            mod = sys.modules[f"exanova.{modname}"]
            nid = self._nid(span)
            if owner is None:
                orig = getattr(mod, attr)
                wrapped = self._wrap(orig, nid, hook, count_nid)
                for m in modules:
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            self._originals.append((m, k, v))
                            setattr(m, k, wrapped)
                continue
            cls = getattr(mod, owner)
            orig = cls.__dict__[attr]
            if isinstance(orig, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(orig.func, nid, hook, count_nid))
                wrapped.__set_name__(cls, attr)
            else:
                wrapped = self._wrap(orig, nid, hook, count_nid)
            self._originals.append((cls, attr, orig))
            setattr(cls, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    def metrics(self, nops: int) -> dict[str, float]:
        """Per-layer metrics from the spans: self time is a span's duration
        minus the time its child spans cover."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = self.name[i]
            self_s[nid] += self.end[i] - self.start[i] - child[i]
            if 0 <= self.op[i] < self.count_ops:
                calls[nid] += 1
        nid_of = {name: i for i, name in enumerate(self.names)}
        out = {}
        for metric, _unit in PER_LAYER:
            span, _, field = metric.rpartition(".")
            if field == "self_s":
                out[metric] = self_s[nid_of[span]] / nops
            elif field == "calls":
                out[metric] = calls[nid_of[span]] / self.count_ops
            elif metric in MAX_COUNTERS:
                out[metric] = self.counters[metric]
            else:
                out[metric] = self.counters[metric] / self.count_ops
        return out

    def write(self, path: Path) -> None:
        """Spans as raw arrays, described by a JSON header beside them."""
        fields = ("name", "parent", "op", "start", "end")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for f in fields:
                getattr(self, f).tofile(fh)
        header = {
            "names": self.names,
            "spans": len(self.name),
            "fields": [[f, getattr(self, f).typecode] for f in fields],
            "count_ops": self.count_ops,
        }
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
