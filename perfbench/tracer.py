"""Span tracing around the package's public functions, from outside it.

``install`` replaces each traced function or method with a wrapper, in
every ``nilmat`` module namespace that binds it and on its class, and
edits no source file.  Each traced callable belongs to an operation
named ``layer.op``.  A call opens a span only when the innermost open
span is another operation, so the collector's recursion, or ``__pow__``
calling ``__mul__``, stays inside one span.  Spans are kept in memory in
flat arrays (operation, parent span, job id, start, end) and are
recorded only while a job runs; oracles and input generation run
between jobs and pass straight through.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, owner class or None, attribute, operation).  Wire forms count as
# the cli layer wherever they live.
TRACED = (
    ("matgroup", "UnitriangularMatrix", "__mul__", "matgroup.mul"),
    ("matgroup", "UnitriangularMatrix", "__pow__", "matgroup.mul"),
    ("matgroup", None, "commutator", "matgroup.mul"),
    ("matgroup", "UnitriangularMatrix", "inverse", "matgroup.inverse"),
    ("matgroup", None, "log_unipotent", "matgroup.log"),
    ("matgroup", None, "exp_nilpotent", "matgroup.log"),
    ("matgroup", "RationalNilpotentMatrix", "__add__", "matgroup.ratmat"),
    ("matgroup", "RationalNilpotentMatrix", "__sub__", "matgroup.ratmat"),
    ("matgroup", "RationalNilpotentMatrix", "__mul__", "matgroup.ratmat"),
    ("matgroup", "RationalNilpotentMatrix", "scale", "matgroup.ratmat"),
    ("matgroup", "RationalNilpotentMatrix", "bracket", "matgroup.ratmat"),
    ("matgroup", "RationalNilpotentMatrix", "upper_vector", "matgroup.ratmat"),
    ("matgroup", "RationalSquareMatrix", "__init__", "matgroup.ratmat"),
    ("matgroup", "RationalSquareMatrix", "__mul__", "matgroup.ratmat"),
    ("matgroup", "RationalSquareMatrix", "__pow__", "matgroup.ratmat"),
    ("matgroup", "RationalSquareMatrix", "inverse", "matgroup.ratmat"),
    ("matgroup", None, "matrix_to_json", "cli.json"),
    ("matgroup", None, "matrix_from_json", "cli.json"),
    *(
        ("presentation", "NilpotentPresentation", attr, "presentation.collect")
        for attr in ("multiply", "inverse", "power")
    ),
    ("presentation", None, "relation_failures", "presentation.relators"),
    ("presentation", None, "builtin", "presentation.builtin"),
    ("presentation", None, "presentation_to_json", "cli.json"),
    ("presentation", None, "presentation_from_json", "cli.json"),
    ("jennings", "JenningsBasis", "__init__", "jennings.basis"),
    ("jennings", "JenningsBasis", "element_matrix", "jennings.element_matrix"),
    ("jennings", "JenningsBasis", "action_matrix", "jennings.element_matrix"),
    ("jennings", None, "jennings_embedding", "jennings.embedding"),
    ("jennings", None, "embedding_to_json", "cli.json"),
    ("nickel", None, "act", "nickel.act"),
    ("nickel", None, "function_module", "nickel.function_module"),
    ("nickel", None, "nickel_embedding", "nickel.embedding"),
    ("nickel", None, "ordering_search", "nickel.orderings"),
    ("distortion", None, "standardize", "distortion.standardize"),
    ("distortion", None, "member_certificate", "distortion.member"),
    ("distortion", None, "member", "distortion.member"),
    ("distortion", None, "subgroup_depth", "distortion.depth"),
    ("distortion", None, "lower_central_gens", "distortion.depth"),
    ("distortion", None, "lie_span", "distortion.depth"),
    ("distortion", None, "distortion_degree", "distortion.degree"),
    ("distortion", None, "subgroup_from_json", "cli.json"),
    ("distortion", None, "subgroup_to_json", "cli.json"),
    ("distortion", None, "report_to_json", "cli.json"),
)

LAYERS = (
    "matgroup", "presentation", "jennings", "nickel", "distortion", "cli"
)


class Tracer:
    """Span recorder; ``job`` is the running job's id, or -1 between jobs."""

    def __init__(self):
        self.ops = []
        self.job = -1
        self.op_col = array("i")
        self.parent_col = array("i")
        self.job_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        # operation and span of each open span, innermost last; the base
        # entry stands for the job itself
        self.open_ops = [-1]
        self.open_spans = [-1]
        self.ratios = {}  # operation -> [numerator, denominator]

    def wrap(self, name, fn, ratio=None):
        if name not in self.ops:
            self.ops.append(name)
        op = self.ops.index(name)
        open_ops, open_spans = self.open_ops, self.open_spans
        op_col, parent_col = self.op_col, self.parent_col
        job_col, start_col, end_col = self.job_col, self.start_col, self.end_col
        acc = self.ratios.setdefault(name, [0, 0])
        tracer = self

        def traced(*args, **kwargs):
            job = tracer.job
            if job < 0 or open_ops[-1] == op:
                return fn(*args, **kwargs)
            span = len(op_col)
            op_col.append(op)
            parent_col.append(open_spans[-1])
            job_col.append(job)
            start_col.append(0.0)
            end_col.append(0.0)
            open_ops.append(op)
            open_spans.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_ops.pop()
                open_spans.pop()
                start_col[span] = start
                end_col[span] = end
            if ratio is not None:
                num, den = ratio(result)
                acc[0] += num
                acc[1] += den
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, ratios):
        """Wrap every entry of TRACED.  ``ratios`` maps an operation to a
        function of its result giving (numerator, denominator); the
        sums over spans are kept in ``self.ratios``."""
        modules = [
            m for k, m in sys.modules.items()
            if (k == "nilmat" or k.startswith("nilmat.")) and m is not None
        ]
        for mod_name, owner, attr, name in TRACED:
            mod = sys.modules[f"nilmat.{mod_name}"]
            if owner is not None:
                cls = getattr(mod, owner)
                setattr(cls, attr, self.wrap(name, cls.__dict__[attr]))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(name, orig, ratios.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, traced)

    def summary(self, job_walls):
        """Totals over all spans: per operation (calls, self seconds),
        and the seconds of each job's wall time outside every span."""
        n = len(self.op_col)
        dur = [e - s for s, e in zip(self.start_col, self.end_col)]
        self_s = list(dur)
        outside = list(job_walls)
        for span in range(n):
            parent = self.parent_col[span]
            if parent >= 0:
                self_s[parent] -= dur[span]
            else:
                outside[self.job_col[span]] -= dur[span]
        calls = [0] * len(self.ops)
        total = [0.0] * len(self.ops)
        for span in range(n):
            op = self.op_col[span]
            calls[op] += 1
            total[op] += self_s[span]
        ops = {
            name: (calls[k], total[k]) for k, name in enumerate(self.ops)
        }
        return ops, outside

    def write(self, path):
        """Spans as gzipped tab-separated text: span, parent, job,
        operation, start and end in seconds of the perf counter."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\tjob\top\tstart\tend\n")
            ops = self.ops
            for span in range(len(self.op_col)):
                fh.write(
                    f"{span}\t{self.parent_col[span]}\t{self.job_col[span]}"
                    f"\t{ops[self.op_col[span]]}\t{self.start_col[span]!r}"
                    f"\t{self.end_col[span]!r}\n"
                )
