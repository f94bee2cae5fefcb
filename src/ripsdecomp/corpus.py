"""Embedded regression corpus: six small distance spaces with covers.

Each case carries the exact distance table (lower-triangular rows), the
cover, the radius, and the expected analyzer outcomes.  ``run_case`` replays
a case through the metric analyzer and reports every mismatch, so the corpus
doubles as the golden regression suite for the whole pipeline.
"""

from .analyzer import analyze_metric
from .metric import DistanceSpace, MetricCover

__all__ = ["CASES", "CorpusCase", "compare", "run_case", "space_for"]


class CorpusCase:
    __slots__ = ("name", "labels", "rows", "x", "y", "r", "dim_cap", "fields", "expect")

    def __init__(self, name, labels, rows, x, y, r, expect, dim_cap=4, fields=("q", "z")):
        self.name = name
        self.labels = labels
        self.rows = rows          # row i: distances of labels[i] to labels[0..i-1]
        self.x = x
        self.y = y
        self.r = r
        self.dim_cap = dim_cap
        self.fields = fields
        self.expect = expect


def space_for(case, override=None):
    """Distance space of a case; ``override`` patches single cells by label pair."""
    n = len(case.labels)
    matrix = [[0] * n for _ in range(n)]
    for i in range(1, n):
        row = case.rows[i - 1]
        assert len(row) == i, f"{case.name}: triangular row {i} malformed"
        for j, value in enumerate(row):
            matrix[i][j] = value
            matrix[j][i] = value
    if override:
        index = {lab: k for k, lab in enumerate(case.labels)}
        for (a, b), value in override.items():
            matrix[index[a]][index[b]] = value
            matrix[index[b]][index[a]] = value
    return DistanceSpace(case.labels, matrix)


def run_case(case, override=None):
    """(report, mismatches) for one corpus case."""
    space = space_for(case, override)
    mc = MetricCover(space, case.x, case.y, case.r)
    report = analyze_metric(mc, dim_cap=case.dim_cap, fields=list(case.fields))
    return report, compare(report, case.expect)


def compare(report, expect):
    mismatches = []
    for part, per_coeffs in expect.get("reduced_betti", {}).items():
        for coeffs, want in per_coeffs.items():
            profile = report.profiles[part][coeffs]
            got = tuple(
                profile["betti"].get(str(d), 0) for d in range(len(want))
            )
            if got != tuple(want):
                mismatches.append(
                    f"betti[{part},{coeffs}]: expected {tuple(want)}, got {got}"
                )
    for crit, status in expect.get("verdicts", {}).items():
        got = report.verdict(crit).status
        if got != status:
            mismatches.append(f"verdict[{crit}]: expected {status}, got {got}")
    for crit, witness in expect.get("witness", {}).items():
        got = report.verdict(crit).witness
        if got != witness:
            mismatches.append(f"witness[{crit}]: expected {witness}, got {got}")
    for want in expect.get("induced", []):
        match = [
            rec
            for rec in report.induced or []
            if rec["field"] == want["field"] and rec["degree"] == want["degree"]
        ]
        if not match:
            mismatches.append(f"induced[{want['field']},{want['degree']}]: missing")
            continue
        rec = match[0]
        for key, value in want.items():
            if key in ("field", "degree"):
                continue
            if rec[key] != value:
                mismatches.append(
                    f"induced[{want['field']},{want['degree']}].{key}: "
                    f"expected {value}, got {rec[key]}"
                )
    census = expect.get("census")
    if census:
        if census.get("total") is not None and report.census["total"] != census["total"]:
            mismatches.append(
                f"census.total: expected {census['total']}, got {report.census['total']}"
            )
        for status, count in census.get("by_status", {}).items():
            got = report.census["by_status"].get(status, 0)
            if got != count:
                mismatches.append(
                    f"census[{status}]: expected {count}, got {got}"
                )
    for key, want in expect.get("items", {}).items():
        found = [
            it for it in report.items if ",".join(it["simplex"]) == key
        ]
        if not found:
            mismatches.append(f"item[{key}]: missing")
            continue
        it = found[0]
        if "status" in want and it["status"] != want["status"]:
            mismatches.append(
                f"item[{key}].status: expected {want['status']}, got {it['status']}"
            )
        if "obstruction" in want and it["obstruction_vertices"] != want["obstruction"]:
            mismatches.append(
                f"item[{key}].obstruction: expected {want['obstruction']}, "
                f"got {it['obstruction_vertices']}"
            )
        if "certificate" in want:
            got = (it["certificate"] or {}).get("simplex")
            if got != want["certificate"]:
                mismatches.append(
                    f"item[{key}].certificate: expected {want['certificate']}, got {got}"
                )
    if not report.soundness["ok"]:
        mismatches.append(f"soundness failed: {report.soundness['failures']}")
    return mismatches


_ZERO4 = (0, 0, 0, 0)

CASES = [
    CorpusCase(
        name="square-4pt",
        labels=("x", "a", "b", "y"),
        rows=[
            (1,),            # a
            (1, 2),          # b
            (1, 1, 1),       # y
        ],
        x=("x", "a", "b"),
        y=("a", "b", "y"),
        r=1,
        expect={
            "reduced_betti": {
                "union": {"q": (0, 1, 0, 0)},
                "total": {"q": _ZERO4},
                "a": {"q": (1, 0, 0, 0)},
            },
            "verdicts": {
                "contractible-obstructions": "fails",
                "acyclic-obstructions": "fails",
                "obstruction-connectivity": "fails",
                "edge-intersection-nonempty": "holds",
                "shared-witness": "holds",
                "metric-gluing": "fails",
            },
            "witness": {
                "edge-intersection-nonempty": "a",
                "shared-witness": "a",
            },
            "induced": [
                {"field": "q", "degree": 0, "iso": True},
                {
                    "field": "q",
                    "degree": 1,
                    "rank": 0,
                    "dim_source": 1,
                    "dim_target": 0,
                    "injective": False,
                    "surjective": True,
                },
            ],
            "census": {"total": 1, "by_status": {"homology-only": 1}},
            "items": {
                "x,y": {"status": "homology-only", "obstruction": ["a", "b"]}
            },
        },
    ),
    CorpusCase(
        name="six-pt-entry",
        labels=("x", "a1", "a2", "a3", "a4", "y"),
        rows=[
            (1,),                # a1
            (2, 1),              # a2
            (1, 1, 2),           # a3
            (1, 2, 1, 1),        # a4
            (1, 1, 2, 1, 1),     # y
        ],
        x=("x", "a1", "a2", "a3", "a4"),
        y=("a1", "a2", "a3", "a4", "y"),
        r=1,
        expect={
            "verdicts": {
                "contractible-obstructions": "holds",
                "no-cross-simplices": "fails",
                "shared-witness": "holds",
                "small-intersection-diameter": "fails",
                "metric-gluing": "fails",
            },
            "witness": {"shared-witness": "a1"},
            "induced": [
                {"field": "q", "degree": d, "iso": True} for d in range(4)
            ],
            "census": {"total": 1, "by_status": {"cone": 1}},
            "items": {
                "x,y": {
                    "status": "cone",
                    "obstruction": ["a1", "a3", "a4"],
                    "certificate": ["a3"],
                }
            },
        },
    ),
    CorpusCase(
        name="seven-pt-independence",
        labels=("x1", "x2", "a1", "a2", "a3", "a4", "y"),
        rows=[
            (1,),                   # x2
            (1, 2),                 # a1
            (1, 1, 1),              # a2
            (2, 1, 1, 2),           # a3
            (1, 1, 2, 1, 1),        # a4
            (1, 1, 1, 1, 2, 1),     # y
        ],
        x=("x1", "x2", "a1", "a2", "a3", "a4"),
        y=("a1", "a2", "a3", "a4", "y"),
        r=1,
        expect={
            "verdicts": {
                "contractible-obstructions": "holds",
                "radius-independence": "fails",
            },
            "induced": [
                {"field": "q", "degree": d, "iso": True} for d in range(4)
            ],
            "census": {"total": 3, "by_status": {"cone": 3}},
            "items": {
                "x1,y": {"obstruction": ["a1", "a2", "a4"]},
                "x2,y": {"obstruction": ["a2", "a4"]},
                "x1,x2,y": {"obstruction": ["a2", "a4"]},
            },
        },
    ),
    CorpusCase(
        name="five-pt-gluing",
        labels=("x1", "x2", "a1", "a2", "y"),
        rows=[
            (3,),           # x2
            (1, 4),         # a1
            (4, 1, 3),      # a2
            (3, 3, 2, 2),   # y
        ],
        x=("x1", "x2", "a1", "a2"),
        y=("a1", "a2", "y"),
        r=3,
        expect={
            "reduced_betti": {
                "x": {"q": (0, 1, 0, 0)},
                "union": {"q": (0, 1, 0, 0)},
                "total": {"q": _ZERO4},
                "y": {"q": _ZERO4},
            },
            "verdicts": {
                "metric-gluing": "holds",
                "gluing-simplex-condition": "holds",
                "gluing-strong-simplex-condition": "fails",
                "contractible-obstructions": "fails",
                "shared-witness": "fails",
            },
            "induced": [
                {"field": "q", "degree": 0, "iso": True},
                {
                    "field": "q",
                    "degree": 1,
                    "rank": 0,
                    "dim_source": 1,
                    "dim_target": 0,
                    "injective": False,
                    "surjective": True,
                },
            ],
            "census": {"total": 3, "by_status": {"cone": 2, "empty": 1}},
            "items": {"x1,x2,y": {"status": "empty", "obstruction": []}},
        },
    ),
    CorpusCase(
        name="eight-pt-s3",
        labels=("x1", "x2", "a11", "a12", "a21", "a22", "y1", "y2"),
        rows=[
            (6,),                    # x2
            (3, 9),                  # a11
            (5, 7, 4),               # a12
            (7, 5, 4, 6),            # a21
            (9, 3, 6, 4, 4),         # a22
            (8, 8, 5, 9, 3, 7),      # y1
            (8, 8, 7, 3, 9, 5, 6),   # y2
        ],
        x=("x1", "x2", "a11", "a12", "a21", "a22"),
        y=("a11", "a12", "a21", "a22", "y1", "y2"),
        r=8,
        expect={
            "reduced_betti": {
                "union": {"q": _ZERO4},
                "total": {"q": (0, 0, 0, 1), "z": (0, 0, 0, 1)},
            },
            "verdicts": {
                "metric-gluing": "holds",
                "gluing-simplex-condition": "holds",
                "gluing-strong-simplex-condition": "holds",
                "contractible-obstructions": "fails",
            },
            "induced": [
                {"field": "q", "degree": 0, "iso": True},
                {"field": "q", "degree": 1, "iso": True},
                {"field": "q", "degree": 2, "surjective": True},
                {
                    "field": "q",
                    "degree": 3,
                    "rank": 0,
                    "dim_source": 0,
                    "dim_target": 1,
                    "surjective": False,
                },
            ],
            "census": {"total": 9, "by_status": {"cone": 8, "empty": 1}},
            "items": {"x1,x2,y1,y2": {"status": "empty"}},
        },
    ),
    CorpusCase(
        name="nine-pt-circle",
        labels=tuple(f"z{i}" for i in range(1, 10)),
        rows=[
            (1,),
            (2, 1),
            (3, 2, 1),
            (4, 3, 2, 1),
            (4, 4, 3, 2, 1),
            (3, 4, 4, 3, 2, 1),
            (2, 3, 4, 4, 3, 2, 1),
            (1, 2, 3, 4, 4, 3, 2, 1),
        ],
        x=("z1", "z2", "z4", "z5", "z7", "z8"),
        y=("z1", "z3", "z4", "z6", "z7", "z9"),
        r=3,
        fields=("q", "zp:2", "z"),
        expect={
            "reduced_betti": {
                "total": {"q": (0, 0, 2, 0), "zp:2": (0, 0, 2, 0)},
                "union": {"q": (0, 0, 2, 0)},
                "x": {"q": (0, 0, 1, 0)},
                "y": {"q": (0, 0, 1, 0)},
                "a": {"q": _ZERO4},
            },
            "verdicts": {"contractible-obstructions": "holds"},
            "induced": [
                {"field": "q", "degree": d, "iso": True} for d in range(4)
            ]
            + [{"field": "zp:2", "degree": d, "iso": True} for d in range(4)],
        },
    ),
]
