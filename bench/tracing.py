"""Outside-in tracing for the benchmark's traced run.

The benchmark wraps the public functions the ``decompose`` pipeline calls,
at the module attribute the caller looks them up through, and keeps spans
with parent links in memory.  A span's layer is the first part of its name.
Work a hook does to count things (simplices, matrix nonzeros, bytes) runs in
an ``untimed`` span, which is subtracted from its parent and from the
report's wall time.  No program file is changed.
"""

import functools
import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("ingest", "vr", "obstruction", "criteria", "verify", "render")
ROOT = "report"
UNTIMED = "untimed"


class TraceError(RuntimeError):
    """The trace no longer matches the program: a wrapped name is gone or a
    layer that must do work read zero."""


class Span:
    __slots__ = ("id", "parent", "report", "name", "start", "end", "children")

    def __init__(self, id_, parent, report, name, start):
        self.id = id_
        self.parent = parent
        self.report = report
        self.name = name
        self.start = start
        self.end = None
        self.children = 0.0     # summed duration of direct children

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


def _homology_span(args, kwargs):
    """Verification calls pass ``max_deg``; obstruction profiles do not."""
    if "max_deg" not in kwargs:
        return "criteria.obstruction_homology"
    coeffs = args[1] if len(args) > 1 else kwargs.get("coeffs", "z")
    return "verify.homology." + ("zp" if coeffs.startswith("zp:") else coeffs)


def _count_input(tracer, result, args, kwargs):
    tracer.counts["ingest.input_bytes"] += os.path.getsize(args[0])


def _count_vr(tracer, result, args, kwargs):
    dim_cap = args[2] if len(args) > 2 else kwargs["dim_cap"]
    tracer.counts["vr.edges"] += len(result.edges())
    tracer.counts["vr.simplices"] += len(result.simplices(max_dim=dim_cap))


def _count_cross(tracer, result, args, kwargs):
    tracer.counts["obstruction.cross_simplices"] += len(result)


def _count_certificate(tracer, result, args, kwargs):
    if result is None:
        tracer.counts["obstruction.homology_only"] += 1
    else:
        tracer.counts["obstruction.certificate.found"] += 1


def _count_verdicts(tracer, result, args, kwargs):
    tracer.counts["criteria.inconclusive"] += sum(
        v.status == "inconclusive" for v in result.verdicts
    )


def _count_boundary(tracer, result, args, kwargs):
    """Nonzeros of every boundary matrix of each cover-square part, once per
    part (the part is passed once per field)."""
    if "max_deg" not in kwargs:
        return
    part = args[0]
    if any(part is seen for seen in tracer.parts):
        return
    tracer.parts.append(part)
    # Imported late: the runner puts the checkout's src on the path first.
    from ripsdecomp.homology import boundary_matrix

    for n in range(1, kwargs["max_deg"] + 2):
        entries = boundary_matrix(part, n).entries
        tracer.counts["verify.boundary_nnz"] += sum(
            1 for row in entries for x in row if x
        )


def _count_json(tracer, result, args, kwargs):
    tracer.counts["render.json_bytes"] += len(result.encode())


#: (module, attribute, span name or name function, counting hook).  Names
#: are wrapped where the pipeline looks them up: ``analyzer`` imported its
#: ``homology`` functions by name, while it calls ``metric_mod.<name>``.
TARGETS = (
    ("ripsdecomp.cli", "load_input", "ingest.load_input", _count_input),
    ("ripsdecomp.cli", "load_cover", "ingest.load_cover", None),
    ("ripsdecomp.cli", "cover_for_labels", "ingest.cover_for_labels", None),
    ("ripsdecomp.metric", "is_pseudometric", "ingest.is_pseudometric", None),
    ("ripsdecomp.metric", "vietoris_rips", "vr.vietoris_rips", _count_vr),
    ("ripsdecomp.analyzer", "enumerate_p_complement", "obstruction.enumerate", _count_cross),
    ("ripsdecomp.analyzer", "contractibility_certificate", "obstruction.certificate", _count_certificate),
    ("ripsdecomp.cli", "analyze_metric", "criteria.analyze_self", _count_verdicts),
    ("ripsdecomp.cli", "analyze", "criteria.analyze_self", _count_verdicts),
    ("ripsdecomp.analyzer", "analyze", "criteria.analyze_self", None),
    ("ripsdecomp.metric", "check_shared_witness", "criteria.metric_checks", None),
    ("ripsdecomp.metric", "shared_witnesses", "criteria.metric_checks", None),
    ("ripsdecomp.metric", "check_cross_domination", "criteria.metric_checks", None),
    ("ripsdecomp.metric", "check_simplex_assumption", "criteria.metric_checks", None),
    ("ripsdecomp.metric", "check_strong_simplex_assumption", "criteria.metric_checks", None),
    ("ripsdecomp.metric", "is_metric_gluing", "criteria.metric_checks", None),
    ("ripsdecomp.metric", "diam", "criteria.metric_checks", None),
    ("ripsdecomp.analyzer", "homology", _homology_span, _count_boundary),
    ("ripsdecomp.analyzer", "induced_map", "verify.induced_map", None),
    ("ripsdecomp.cli", "render_json", "render.render_json", _count_json),
)


class Tracer:
    """Spans and counts of the reports run inside ``report()``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.counts = Counter()
        self.parts = []           # cover-square parts seen in this report
        self._stack = []
        self._saved = []
        self._reports = 0

    # -------------------------------------------------------------- spans

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans),
            parent.id if parent else None,
            self._reports,
            name,
            time.perf_counter(),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].children += span.end - span.start

    @contextmanager
    def report(self):
        """Root span of one report; yields the span so the caller can read
        its timed duration after the block."""
        self._reports += 1
        self.parts = []
        span = self._open(ROOT)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def untimed(self):
        span = self._open(UNTIMED)
        try:
            yield
        finally:
            self._close(span)

    def untimed_in(self, root):
        return sum(
            s.end - s.start
            for s in self.spans[root.id:]
            if s.name == UNTIMED and s.report == root.report
        )

    # ----------------------------------------------------------- wrapping

    def _wrap(self, fn, name, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            span = tracer._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if hook is not None:
                with tracer.untimed():
                    hook(tracer, result, args, kwargs)
            return result

        return traced

    def install(self):
        """Wrap every target; raises TraceError naming any that is gone."""
        missing = []
        for module_name, attr, _, _ in self.targets:
            module = importlib.import_module(module_name)
            if not callable(getattr(module, attr, None)):
                missing.append(f"{module_name}.{attr}")
        if missing:
            raise TraceError("traced names no longer exist: " + ", ".join(missing))
        for module_name, attr, name, hook in self.targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name, hook))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    # ------------------------------------------------------------ summary

    def summary(self):
        """Self time and calls per span name plus the counts; layer self
        times; the timed wall time of all reports; the number of reports."""
        out = Counter(self.counts)
        layers = Counter()
        wall = 0.0
        reports = 0
        for s in self.spans:
            duration = s.end - s.start
            if s.name == ROOT:
                wall += duration
                reports += 1
            elif s.name == UNTIMED:
                wall -= duration
            else:
                own = duration - s.children
                out[s.name + ".s"] += own
                out[s.name + ".calls"] += 1
                layers[s.layer] += own
        return out, layers, wall, reports

    def dump(self, path):
        """Write the spans as JSON lines: id, parent, report, name, start, end."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps([s.id, s.parent, s.report, s.name, s.start, s.end]) + "\n"
                )
