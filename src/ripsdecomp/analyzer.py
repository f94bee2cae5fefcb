"""Decision procedures for cover decompositions of a simplicial complex.

Given a complex with a two-set vertex cover (or a distance space with a
cover and a radius), enumerate the cross simplices, classify their
obstruction complexes, evaluate a fixed catalog of decomposition criteria,
and cross-verify every certified conclusion against exact homology.

The criteria scan classes of cross simplices, one per (obstruction record,
dimension), in the order of their first cross simplices.  A cross simplex
passes or fails by its obstruction alone (sigma + mu is a simplex exactly
when mu is in obs(sigma)), so a witness, the first failing cross simplex in
report order, is the first one of the first failing class.

The catalog is a table of rules (``_RULES`` and ``_METRIC_RULES``): each
row names a criterion, its applicability guards and its hypothesis test.
One builder, ``_verdict``, turns a row's outcome into its verdict, and it
alone enforces the honesty rules:

* a claim above degree 0 that rests on the connectivity of obstruction
  complexes stands only when every one of them is certified contractible
  by a central simplex or a collapse sequence (``_certified``).  An
  n-indexed criterion then falls back to a lower n, down to n = 0, which
  needs no certificate; a claim with no lower degree to fall back to is
  ``inconclusive``.  So "contractible" is claimed only on a certificate,
  and trivial integral homology alone feeds the weaker acyclicity
  criterion instead;
* a criterion that reads every cross simplex reports the dimension cap in
  ``verified_up_to`` when enumeration stopped short of the whole complex.

Conclusions at the homotopy level are reported together with the
machine-checked homological shadow, and the soundness gate fails the whole
report if any certified conclusion disagrees with the verification.
"""

from bisect import bisect_right
from collections import Counter, namedtuple

from . import linalg
from . import metric as metric_mod
from .complexes import Cover, _bits, _mask_of, check_dim_cap, enumerate_p_complement
from .errors import InvalidInput
from .homology import (
    ContractibilityCertificate,
    contractibility_certificate,
    cover_square,
    homology,
    induced_map,
)

__all__ = [
    "CRITERIA",
    "CriterionVerdict",
    "DecompositionReport",
    "analyze",
    "analyze_metric",
]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not_applicable"

# Status of an obstruction record: empty, certified as a cone or by a
# collapse sequence, or homology-only when no certificate was found.
STATUS_EMPTY = "empty"
STATUS_CONE = "cone"
STATUS_COLLAPSE = "collapse"
STATUS_HOMOLOGY_ONLY = "homology-only"


class CriterionVerdict(
    namedtuple(
        "CriterionVerdict",
        "criterion status witness conclusion claim detail verified_up_to",
        defaults=(None,) * 5,
    )
):
    """Outcome of one criterion: hypothesis status, witness, conclusion.

    ``claim`` is the machine-checkable consequence for the inclusion of the
    cover union into the whole complex: which homology degrees must be
    isomorphisms ("all" or an upper bound), where a surjection is promised,
    and which coefficient characteristic is excluded, if any.
    """

    __slots__ = ()

    def to_dict(self):
        return self._asdict()

    @classmethod
    def from_dict(cls, data):
        optional = {name: data.get(name) for name in cls._fields[2:]}
        return cls(data["criterion"], data["status"], **optional)


#: the fields of a report, as ``to_dict`` gives them
_REPORT_FIELDS = (
    "kind",
    "cover",
    "radius",
    "dim_cap",
    "fields",
    "census",
    "items",
    "verdicts",
    "profiles",
    "induced",
    "soundness",
    "notes",
)


class DecompositionReport:
    """Everything the analyzer decided, as JSON-ready plain data.

    ``items`` is built lazily.  The analyzer leaves an item table
    (``item_table``): the id -> label map, one dict of the fields shared by
    the cross simplices of each obstruction record, and the (simplex, class)
    rows.  The first read of ``items`` builds the list of item dicts from
    it, caches the list and drops the table; assigning ``items`` drops it
    too.  While a report keeps its table, ``render_json`` writes the items
    straight from it.
    """

    __slots__ = tuple(name for name in _REPORT_FIELDS if name != "items") + (
        "_items",
        "item_table",
    )

    def __init__(self, **kw):
        for name in _REPORT_FIELDS:
            setattr(self, name, kw.get(name))
        self.notes = self.notes or []

    @property
    def items(self):
        if self.item_table is not None:
            self._items = _item_dicts(self.item_table)
            self.item_table = None
        return self._items

    @items.setter
    def items(self, value):
        self._items = value
        self.item_table = None

    def verdict(self, criterion):
        for v in self.verdicts:
            if v.criterion == criterion:
                return v
        raise KeyError(criterion)

    def to_dict(self):
        out = self.to_dict_without_items()
        out["items"] = self.items
        return out

    def to_dict_without_items(self):
        """``to_dict()`` less its ``items``, which this leaves unbuilt."""
        out = {name: getattr(self, name) for name in _REPORT_FIELDS if name != "items"}
        out["verdicts"] = [v.to_dict() for v in self.verdicts]
        return out

    @classmethod
    def from_dict(cls, data):
        kw = dict(data)
        kw["verdicts"] = [CriterionVerdict.from_dict(v) for v in data["verdicts"]]
        return cls(**kw)

    def __eq__(self, other):
        if not isinstance(other, DecompositionReport):
            return NotImplemented
        return self.to_dict() == other.to_dict()


# ------------------------------------------------------------------ context


class _Obstruction:
    """One distinct obstruction complex of a report, classified once.

    Cross simplices with equal obstructions point to the same record, so its
    certificate, integral profile, connectivity, central vertices and good
    vertex sets are computed once.
    """

    __slots__ = ("complex", "status", "certificate", "profile", "conn", "_good")

    def __init__(self, complex_, status, certificate):
        self.complex = complex_
        self.status = status
        self.certificate = certificate      # ContractibilityCertificate or None
        self.profile = None                 # reduced integral profile, on demand
        self.conn = None                    # see _Context.connectivity, on demand
        self._good = {}                     # k -> good(k), on demand

    @property
    def certified(self):
        return self.certificate is not None

    @property
    def central(self):
        """The vertices central in the obstruction complex."""
        return self.good(len(self.complex.vertices))

    def good(self, k):
        """Vertices v of the obstruction with rho + v in it for every simplex
        rho of it with at most k vertices: the central vertices once k is the
        vertex count, and in a flag complex once k >= 1, as a vertex that
        meets every other vertex extends every clique."""
        got = self._good.get(k)
        if got is None:
            o = self.complex
            if k == 0:
                got = frozenset(o.vertices)
            elif o.is_flag:
                got = frozenset(o.central_vertices())
            else:
                small = [rho for rho in o.simplices() if len(rho) <= k]
                got = frozenset(
                    v for v in o.vertices if all(rho + (v,) in o for rho in small)
                )
            self._good[k] = got
        return got


class _Class:
    """Cross simplices of one dimension and record: the first, and how many."""

    __slots__ = ("obs", "dim", "first", "size")

    def __init__(self, obs, dim, first):
        self.obs, self.dim, self.first, self.size = obs, dim, first, 0


class _Context:
    """One report's complex, cover and cross simplices, with the obstruction
    records they share; ``metric`` holds a metric report's distance facts,
    set by ``analyze_metric`` once the cross simplices are enumerated.
    ``items`` are ``(simplex, class)`` pairs in report order, and ``classes``
    index them by (record, dimension) in the order of their first items."""

    def __init__(self, complex_, cover, dim_cap):
        if dim_cap < 1:
            raise InvalidInput("the dimension cap must be at least 1")
        check_dim_cap(dim_cap)
        cover.validate(complex_)
        self.complex = complex_
        self.cover = cover
        self.dim_cap = dim_cap
        self.metric = None
        self.a = cover.a
        self.x_only = cover.x - cover.a
        self.y_only = cover.y - cover.a
        # Obstruction records by Complex.content_key, a full key here: every
        # complex recorded is a subcomplex of complex_, a full subcomplex when
        # complex_ is a flag complex.
        self._records = {}
        self._intersection = None
        self.items = items = []
        self.classes = []
        # records by id(obstruction), which enumeration shares, classes by it and dim
        index = {}
        for simplex, obstruction in enumerate_p_complement(complex_, cover, dim_cap):
            key = id(obstruction), len(simplex) - 1
            cls = index.get(key)
            if cls is None:
                if key[0] not in index:
                    index[key[0]] = self.record(obstruction)
                cls = index[key] = _Class(index[key[0]], key[1], simplex)
                self.classes.append(cls)
            cls.size += 1
            items.append((simplex, cls))
        self._dims = [cls.dim for cls in self.classes]
        # no cross simplex is a vertex
        self.edge_classes = self.classes_through(1)
        # Full coverage: no simplex above dim_cap and, when dim_cap is a flag
        # complex's own cap, none at it, as cliques past the cap go unseen.
        top = dim_cap if complex_.is_flag and dim_cap == complex_.dim_cap else dim_cap + 1
        self.full_coverage = not complex_.has_simplex_of_dim(top)
        self.verified_up_to = None if self.full_coverage else dim_cap

    def classes_through(self, dim):
        """The classes of dimension at most ``dim``: a prefix of ``classes``."""
        return self.classes[: bisect_right(self._dims, dim)]

    def label(self, v):
        return str(self.complex.label_of(v))

    def label_simplex(self, sigma):
        return "{" + ",".join(self.label(v) for v in sigma) + "}"

    def intersection(self):
        """K[A], the complex restricted to the intersection, built once."""
        if self._intersection is None:
            self._intersection = self.complex.restrict(self.a)
        return self._intersection

    def record(self, complex_):
        """The one record of a complex, classified on first sight: empty, or
        by certificate search (a cone or a collapse, or homology-only when
        none is found)."""
        key = complex_.content_key()
        obs = self._records.get(key)
        if obs is None:
            cert = None
            if complex_.is_empty:
                status = STATUS_EMPTY
            else:
                cert = contractibility_certificate(complex_)
                if cert is None:
                    status = STATUS_HOMOLOGY_ONLY
                elif cert.kind == ContractibilityCertificate.CENTRAL:
                    status = STATUS_CONE
                else:
                    status = STATUS_COLLAPSE
            obs = self._records[key] = _Obstruction(complex_, status, cert)
        return obs

    def obstruction_profile(self, obs):
        if obs.profile is None and obs.status != STATUS_EMPTY:
            obs.profile = homology(obs.complex.to_explicit(), "z", reduced=True)
        return obs.profile

    def connectivity(self, obs):
        """Homological connectivity of an obstruction: the largest n with
        trivial reduced integral homology through degree n ("all" when it
        is trivial in every degree, -1 when already disconnected, None when
        empty).  A cone or collapse certificate proves the complex
        contractible, so a certified record answers "all" without any
        homology; only a homology-only record is profiled, once.
        """
        if obs.status == STATUS_EMPTY:
            return None
        if obs.certified:
            return "all"
        if obs.conn is None:
            profile = self.obstruction_profile(obs)
            top = profile.degrees[-1]
            n = next(
                (
                    d - 1
                    for d in range(top + 1)
                    if profile.betti.get(d, 0) or profile.torsion_at(d)
                ),
                top,
            )
            obs.conn = "all" if n == top else n
        return obs.conn


class _MetricFacts:
    """The distance-level facts the metric rules read, computed once per
    report."""

    __slots__ = (
        "space", "r", "close", "close_pairs", "triangle", "shared", "dom",
        "diameter", "gluing_witness", "gluing", "simplex", "strong",
    )

    def __init__(self, mc):
        sp = self.space = mc.space
        self.r = mc.r
        self.close = sp.closeness(mc.r)
        self.close_pairs = mc.cross_pairs_within()
        self.triangle = metric_mod.is_pseudometric(sp)       # a broken triangle, or None
        self.shared = metric_mod.check_shared_witness(mc)
        self.dom = metric_mod.check_cross_domination(mc)
        # Read only under a shared witness or cross domination, and both
        # fail on an empty intersection.
        self.diameter = None
        if self.shared.ok or self.dom.ok:
            self.diameter = metric_mod.diam(sp, mc.labels_of(sorted(mc.a)))
        self.gluing_witness = None
        if self.triangle is None:
            self.gluing_witness = metric_mod.is_metric_gluing(
                sp, mc.labels_of(sorted(mc.x)), mc.labels_of(sorted(mc.y))
            )
        self.gluing = self.triangle is None and self.gluing_witness is None
        self.simplex = metric_mod.check_simplex_assumption(mc)
        self.strong = metric_mod.check_strong_simplex_assumption(mc)


# ------------------------------------------------------------- the builder
#
# A rule's test(ctx, n) returns an outcome (status, witness, detail, degree,
# needs).  On "holds", degree is the degree n of the claim ("all" for every
# degree, None for no claim) or the claim itself, and needs are the
# obstruction records whose connectivity the claim rests on.


def _holds(degree, witness=None, detail=None, needs=()):
    return HOLDS, witness, detail, degree, needs


def _fails(detail=None, witness=None):
    return FAILS, witness, detail, None, ()


def _claim_connected(n):
    if n == "all":
        return {"iso_upto": "all", "surj_at": None, "exclude_char": None}
    return {"iso_upto": n, "surj_at": n + 1, "exclude_char": None}


def _fibers_text(n):
    if n == "all":
        return "the inclusion of the cover union is a weak equivalence"
    return (
        f"homotopy fibers of the cover-union inclusion are {n}-connected: "
        f"homology isomorphism through degree {n}, surjection in degree {n + 1}"
    )


def _scan(ctx):
    """The degrees of an n-indexed criterion, best first: dim_cap - 1 to 0."""
    return range(ctx.dim_cap - 1, -1, -1)


def _all_or_0(ctx):
    """The degrees of a criterion on 0-connected obstructions: every degree
    when they are certified contractible, else 0."""
    return ("all", 0)


# One criterion of the catalog.  ``guards`` are (blocked, status, detail)
# triples, tried in order; the first with ``blocked(ctx)`` true is the
# verdict.  ``test(ctx, n)`` is the hypothesis, tried at each degree of
# ``degrees(ctx)`` in turn, or once at n = None without ``degrees``.
# ``conclusion`` replaces ``_fibers_text`` of the degree; it is formatted
# with the claim's fields.  ``vut`` lists the statuses that carry
# ``verified_up_to``: those of the criteria that read every cross simplex,
# and so see only up to the cap.
_Rule = namedtuple(
    "_Rule", "id test guards degrees conclusion vut", defaults=((), None, None, ())
)


def _certified(degree, needs):
    """The honesty predicate: a claim above degree 0 stands only when every
    obstruction record it rests on is certified contractible."""
    return degree == 0 or all(obs.certified for obs in needs)


def _verdict(rule, ctx):
    """The verdict of one rule: the first guard that blocks it, else its
    test at the best degree that holds with the certificates it needs.
    Every CriterionVerdict of a report is made here."""
    outcome = next(
        (
            (status, None, detail, None, ())
            for blocked, status, detail in rule.guards
            if blocked(ctx)
        ),
        None,
    )
    if outcome is None:
        for n in rule.degrees(ctx) if rule.degrees else (None,):
            outcome = rule.test(ctx, n)
            if outcome[0] == HOLDS and _certified(outcome[3], outcome[4]):
                break
        else:
            if outcome[0] == HOLDS:
                # Held only homologically, with no lower degree left.  Every
                # scan ends at degree 0, which needs no certificate, so only
                # a claim of "all" tested once gets here.
                needs = outcome[4]
                bad = next(c for c in ctx.classes if c.obs in needs and not c.obs.certified)
                outcome = (
                    INCONCLUSIVE,
                    ctx.label_simplex(bad.first),
                    "integrally acyclic obstruction without a contractibility certificate",
                    None,
                    (),
                )
    status, witness, detail, degree, _ = outcome
    claim = conclusion = None
    if status == HOLDS:
        claim = degree if degree is None or isinstance(degree, dict) else _claim_connected(degree)
        if rule.conclusion:
            conclusion = rule.conclusion.format(**(claim or {}))
        else:
            conclusion = _fibers_text(degree)
    vut = ctx.verified_up_to if status in rule.vut else None
    return CriterionVerdict(rule.id, status, witness, conclusion, claim, detail, vut)


# ---------------------------------------------------------------- guards

_FLAG = (
    lambda ctx: not ctx.complex.is_flag,
    NOT_APPLICABLE,
    "only meaningful for flag (clique) complexes",
)
_CROSS = (lambda ctx: not ctx.items, NOT_APPLICABLE, "no cross simplices")
_EDGES = (lambda ctx: not ctx.edge_classes, NOT_APPLICABLE, "no cross edges")
_NONEMPTY = (lambda ctx: not ctx.a, FAILS, "the intersection is empty")
_SINGLETON = (
    lambda ctx: len(ctx.a) != 1, NOT_APPLICABLE, "the intersection is not a single vertex"
)
_SINGLE_POINT = (
    lambda ctx: len(ctx.a) != 1, NOT_APPLICABLE, "the intersection is not a single point"
)
_SHARED = (lambda ctx: not ctx.metric.shared.ok, NOT_APPLICABLE, "needs a shared witness")
_DOMINATED = (lambda ctx: not ctx.metric.dom.ok, NOT_APPLICABLE, "needs cross domination")
_CLOSE_PAIRS = (lambda ctx: not ctx.metric.close_pairs, NOT_APPLICABLE, "no close cross pairs")
_GLUED = (lambda ctx: not ctx.metric.gluing, NOT_APPLICABLE, "needs a metric gluing")
# Both simplex conditions route each close cross pair through a shared
# point; a gluing along an empty intersection has none (its cross distances
# are inf, close only at an infinite radius).
_GLUED_ALONG_A = (
    lambda ctx: ctx.metric.close_pairs and not ctx.a,
    NOT_APPLICABLE,
    "needs a metric gluing along a nonempty intersection",
)


# ------------------------------------------------------------ hypotheses


def _records(classes):
    return {c.obs for c in classes}


def _conn_at_least(value, n):
    """Is a homological connectivity (None when empty) at least n?"""
    if value is None:
        return False
    if value == "all":
        return True
    return n != "all" and value >= n


def _first_unconnected(ctx, classes, n, why=None):
    """Failure at the first cross simplex whose obstruction is empty or not
    homologically n-connected, or None.  Every nonempty complex is
    (-1)-connected, so at n = -1 only an empty obstruction fails."""
    for c in classes:
        conn = ctx.connectivity(c.obs)
        if conn is None:
            return _fails("empty obstruction complex", ctx.label_simplex(c.first))
        if not _conn_at_least(conn, n):
            return _fails(why, ctx.label_simplex(c.first))
    return None


def _one_record(ctx, obs, n, detail):
    """Holds at n when one obstruction record is homologically n-connected."""
    conn = ctx.connectivity(obs)
    if conn is None:
        return _fails("empty complex")
    if not _conn_at_least(conn, n):
        return _fails(f"reduced homology obstructs {n}-connectivity")
    return _holds(n, detail=detail, needs=(obs,))


def _constant_family(classes):
    """The obstruction record every class shares, or None when they differ."""
    first = classes[0].obs if classes else None
    return first if all(c.obs is first for c in classes) else None


def _is_standard(obstruction):
    """A complex is a standard simplex when its full vertex set is a simplex."""
    verts = obstruction.vertices
    return not verts or tuple(verts) in obstruction


def _shared_edge_obstruction_vertices(ctx):
    """The vertices in the obstruction of every cross edge (there is one)."""
    return set.intersection(*(set(c.obs.complex.vertices) for c in ctx.edge_classes))


def _no_cross(ctx, n):
    if not ctx.items:
        return _holds("all")
    return _fails(
        f"{len(ctx.items)} cross simplices up to dimension {ctx.dim_cap}",
        ctx.label_simplex(ctx.items[0][0]),
    )


def _contractible(ctx, n):
    failed = _first_unconnected(ctx, ctx.classes, -1)
    if failed:
        return failed
    bad = next((c for c in ctx.classes if not c.obs.certified), None)
    if bad and ctx.connectivity(bad.obs) != "all":
        return _fails(
            "obstruction has nontrivial reduced integral homology", ctx.label_simplex(bad.first)
        )
    detail = "every obstruction carries a central-simplex or collapse certificate"
    if not ctx.items:
        detail = "vacuous: no cross simplices"
    return _holds("all", detail=detail, needs=_records(ctx.classes))


def _acyclic(ctx, n):
    detail = "every obstruction has trivial reduced integral homology"
    return _first_unconnected(
        ctx, ctx.classes, "all", "nontrivial reduced integral homology"
    ) or _holds("all", detail=detail + ("" if ctx.items else " (vacuous)"))


def _torsion(ctx, n):
    failed = _first_unconnected(ctx, ctx.classes, -1)
    if failed:
        return failed
    # contractible obstructions have no torsion
    uncertified = [c for c in ctx.classes if not c.obs.certified]
    primes = {
        p
        for c in uncertified
        for powers in ctx.obstruction_profile(c.obs).torsion.values()
        for q in powers
        for p, _ in linalg.prime_factorization(q)
    }
    if not primes:
        detail = "no torsion in any obstruction; see the acyclicity criterion"
        return NOT_APPLICABLE, None, detail, None, ()
    if len(primes) > 1:
        return _fails(f"torsion at several primes {sorted(primes)}; no single excluded prime")
    p = primes.pop()
    # The degree through which each obstruction's homology is p-torsion.  A
    # contractible record's profile is trivial through its top degree,
    # max(dim, 0) of the complex, fully enumerated.
    tops = [
        max(obs.complex.to_explicit().dim(), 0)
        for obs in _records(ctx.classes)
        if obs.certified
    ]
    for c in uncertified:
        profile = ctx.obstruction_profile(c.obs)
        if profile.betti.get(0, 0) != 0 or profile.betti.get(-1, 0) != 0:
            return _fails("obstruction is not connected", ctx.label_simplex(c.first))
        top = profile.degrees[-1]
        tops.append(next((d - 1 for d in range(1, top + 1) if profile.betti.get(d, 0)), top))
    best = min(tops)
    return _holds(
        {"iso_upto": best, "surj_at": best + 1, "exclude_char": p},
        str(p),
        f"all obstruction homology through degree {best} is {p}-torsion",
    )


def _obstruction_connectivity(ctx, n):
    failed = _first_unconnected(ctx, ctx.classes, -1) or _first_unconnected(
        ctx, ctx.classes, 0, "disconnected obstruction"
    )
    if failed:
        return failed
    detail = None
    shadow = min(
        (ctx.connectivity(c.obs) for c in ctx.classes),
        key=lambda v: 10**6 if v == "all" else v,
    )
    if n == 0 and shadow != 0:
        detail = (
            f"homological shadow reaches connectivity {shadow}, but simple "
            "connectivity is uncertified; certified degree stops at 0"
        )
    return _holds(n, detail=detail, needs=_records(ctx.classes))


# In the n-indexed tests below, classes_through(n + 1) is never empty when
# there are cross simplices: each has a cross edge as a face.


def _skeleton_connectivity(ctx, n):
    classes = ctx.classes_through(n + 1)
    detail = f"obstructions over cross simplices of dimension <= {n + 1}"
    return _first_unconnected(
        ctx, classes, n, f"reduced homology obstructs {n}-connectivity"
    ) or _holds(n, detail=detail, needs=_records(classes))


def _edge_intersection(ctx, n):
    common = _shared_edge_obstruction_vertices(ctx)
    if common:
        return _holds(0, ctx.label(min(common)))
    return _fails("the edge obstructions share no vertex")


def _constant(ctx, n):
    common = _constant_family(ctx.classes_through(n + 1))
    if common is None:
        return _fails("obstruction complexes differ across cross simplices")
    return _one_record(
        ctx, common, n, "one obstruction complex shared by every cross simplex in range"
    )


def _full_intersection(ctx, n):
    # K[A] is compared by content, so it is classified only as an obstruction
    key = ctx.intersection().content_key()
    for c in ctx.classes_through(n + 1):
        if c.obs.complex.content_key() != key:
            return _fails(
                "obstruction differs from the full intersection restriction",
                ctx.label_simplex(c.first),
            )
    ka = ctx.classes[0].obs
    if ka.status == STATUS_EMPTY:
        return _fails("the intersection restriction is empty")
    return _one_record(ctx, ka, n, "every obstruction equals the intersection restriction")


def _subsets_extend(ctx, n):
    a = tuple(sorted(ctx.a))
    for c in ctx.classes_through(n + 1):
        if a not in c.obs.complex:
            return _fails(
                "the simplex does not extend by the whole intersection",
                ctx.label_simplex(c.first),
            )
    # at n = dim_cap - 1 every cross simplex extends
    whole = n == ctx.dim_cap - 1 and ctx.full_coverage
    detail = "every cross simplex extends by every subset of the intersection"
    return _holds("all" if whole else n, detail=detail)


def _one_entry_point(ctx, n):
    # A cross simplex tau of dimension <= dim_cap splits as sigma + rho, with
    # sigma = tau - A a cross simplex of ctx.items and rho empty or a simplex
    # of obs(sigma); tau + v is a simplex exactly when rho + v is in
    # obs(sigma).  So v extends every such tau with |sigma| <= n + 2 when it
    # is good in obs(sigma) for rho of up to dim_cap + 1 - |sigma| vertices.
    ok = set(ctx.a)
    for c in ctx.classes_through(n + 1):
        ok &= c.obs.good(ctx.dim_cap - c.dim)
    if not ok:
        return _fails("no intersection vertex extends every small cross simplex")
    v = ctx.label(min(ok))
    return _holds(
        n,
        v,
        f"entry point {v} extends every cross simplex with at most "
        f"{n + 2} vertices outside the intersection",
    )


def _edge_standard(ctx, n):
    for c in ctx.edge_classes:
        if not _is_standard(c.obs.complex):
            return _fails("edge obstruction is not a standard simplex", ctx.label_simplex(c.first))
    for c in ctx.classes_through(n + 1):
        if c.obs.status == STATUS_EMPTY:
            return _fails("empty obstruction", ctx.label_simplex(c.first))
    return _holds(
        n,
        detail="edge obstructions are standard simplices; all obstructions in "
        f"range nonempty through dimension {n + 1}",
    )


def _edge_constant(ctx, n):
    common = _constant_family(ctx.edge_classes)
    if common is None:
        return _fails("edge obstruction complexes differ")
    conn = ctx.connectivity(common)
    if conn is None:
        return _fails("the common edge obstruction is empty")
    if conn == -1:
        return _fails("the common edge obstruction is disconnected")
    detail = "one obstruction complex shared by every cross edge"
    if n == 0 and conn != 0:
        detail = f"homological shadow reaches connectivity {conn}; certified degree stops at 0"
    return _holds(n, detail=detail, needs=(common,))


def _edge_full_intersection(ctx, n):
    for c in ctx.edge_classes:
        missing = ctx.a.difference(c.obs.complex.vertices)
        if missing:
            return _fails(
                "a cross edge fails to extend by an intersection vertex",
                f"{ctx.label_simplex(c.first)}+{ctx.label(min(missing))}",
            )
    ka = ctx.record(ctx.intersection())
    if ctx.connectivity(ka) in (None, -1):
        return _fails("the intersection restriction is empty or disconnected")
    return _holds(n, detail="every cross edge extends by every intersection vertex", needs=(ka,))


def _pairs_extend(ctx, n):
    if not ctx.edge_classes:
        return _holds("all", detail="vacuous: no cross edges")
    a = sorted(ctx.a)
    for c in ctx.edge_classes:
        for i, u in enumerate(a):
            for w in a[i:]:
                mu = (u,) if u == w else (u, w)
                if mu not in c.obs.complex:
                    return _fails(
                        "a cross edge fails to extend by a small intersection subset",
                        f"{ctx.label_simplex(c.first)}+{ctx.label_simplex(mu)}",
                    )
    detail = "every cross edge extends by every intersection subset of size <= 2"
    return _holds("all", detail=detail)


def _clique_entry_adjacent(ctx, n):
    spread = _mask_of(set().union(*(obs.complex.vertices for obs in _records(ctx.edge_classes))))
    adj = ctx.complex._adj
    for v in sorted(_shared_edge_obstruction_vertices(ctx)):
        if spread & (adj[v] | 1 << v) == spread:
            return _holds(
                "all",
                ctx.label(v),
                "an obstruction vertex shared by every cross edge is adjacent "
                "to every vertex of every edge obstruction",
            )
    return _fails("no shared obstruction vertex is adjacent to all obstruction vertices")


def _clique_entry_central(ctx, n):
    for v in sorted(_shared_edge_obstruction_vertices(ctx)):
        if all(v in obs.central for obs in _records(ctx.edge_classes)):
            return _holds("all", ctx.label(v), "one vertex is central in every edge obstruction")
    return _fails("no vertex is central in every edge obstruction")


def _clique_entry_local(ctx, n):
    # v extends a cross edge e and every e + a in the complex exactly when v
    # is a central vertex of e's obstruction; vacuous without cross edges.
    ok = set(ctx.a).intersection(*(obs.central for obs in _records(ctx.edge_classes)))
    if not ok:
        return _fails("no intersection vertex extends all small cross simplices")
    return _holds(
        "all",
        ctx.label(min(ok)),
        "one intersection vertex extends every cross edge and every "
        "cross edge plus one intersection vertex",
    )


def _two_entry_points(ctx, n):
    a = _mask_of(ctx.a)
    adj = ctx.complex._adj

    def entries(side):
        """Intersection vertices extending every edge from A into one side:
        v extends the edge uw when v is u or a common neighbour of both."""
        side, ok = _mask_of(side), a
        for u in _bits(a):
            for w in _bits(adj[u] & side):
                ok &= adj[u] & adj[w] | 1 << u
        return _bits(ok)

    edge_obstructions = [obs.complex for obs in _records(ctx.edge_classes)]
    ay_entries = entries(ctx.y_only)
    for ax in entries(ctx.x_only):
        for ay in ay_entries:
            if all((ax, ay) in o for o in edge_obstructions):
                return _holds(
                    "all",
                    f"({ctx.label(ax)},{ctx.label(ay)})",
                    "two entry points absorb the side edges and every cross edge",
                )
    return _fails("no pair of entry points works")


# -------------------------------------------------------- metric hypotheses


def _shared_witness(ctx, n):
    shared = ctx.metric.shared
    return _holds(0, str(shared.witness)) if shared.ok else _fails(shared.note or None)


def _witness_ball(ctx, n):
    """A shared witness whose ball absorbs every other witness of every
    close cross pair."""
    m = ctx.metric
    close, pairs, a = m.close, m.close_pairs, sorted(ctx.a)
    # shared points within r of both ends of some close cross pair
    pair_witnesses = [w for w in a if any(close[w][i] and close[w][j] for i, j in pairs)]
    # a shared witness is within r of both ends of every close cross pair
    targets = {u for pair in pairs for u in pair}.union(pair_witnesses)
    for v in a:
        if all(close[v][w] for w in targets):
            return _holds(
                "all",
                ctx.label(v),
                "every witness of a close cross pair sits within r of the entry point",
            )
    return _fails("every shared witness misses some pair witness")


def _small_diameter(ctx, n):
    m = ctx.metric
    if m.space.within(m.diameter, m.r):
        return _holds(
            "all", str(m.diameter), "the whole intersection lies within one ball of radius r"
        )
    return _fails("the intersection has diameter above r", str(m.diameter))


def _shared_singleton(ctx, n):
    shared = ctx.metric.shared
    return _holds("all", ctx.label(min(ctx.a))) if shared.ok else _fails(shared.note or None)


def _cross_domination(ctx, n):
    """Radius-free domination of cross distances over legs to the
    intersection."""
    dom = ctx.metric.dom
    if dom.ok:
        return _holds(0)
    return _fails(dom.note or None, str(dom.witness) if dom.witness else None)


def _dominates_diameter(ctx, n):
    """Every cross distance is at least the intersection diameter."""
    m = ctx.metric
    matrix, labels = m.space.matrix, m.space.labels
    for i in sorted(ctx.x_only):
        for j in sorted(ctx.y_only):
            if matrix[i][j] < m.diameter:
                return _fails(None, str((labels[i], labels[j])))
    return _holds("all", detail="every cross distance is at least the intersection diameter")


def _radius_independence(ctx, n):
    """The witness set of a close cross pair does not depend on the pair."""
    common = _constant_family(ctx.edge_classes)
    if common is None:
        return _fails("edge obstruction complexes depend on the pair")
    return _one_record(ctx, common, n, "one witness complex shared by every close cross pair")


def _full_witness_set(ctx, n):
    """Every intersection point witnesses every close cross pair."""
    m = ctx.metric
    close, labels = m.close, m.space.labels
    for i, j in m.close_pairs:
        for v in sorted(ctx.a):
            if not (close[i][v] and close[j][v]):
                return _fails(None, str((labels[i], labels[j], labels[v])))
    ka = ctx.record(ctx.intersection())
    detail = "the witness set of every close cross pair is the whole intersection"
    return _one_record(ctx, ka, n, detail)


def _metric_gluing(ctx, n):
    m = ctx.metric
    if m.triangle is not None:
        return _fails("the triangle inequality fails, so gluing is undefined", str(m.triangle))
    if m.gluing_witness is not None:
        return _fails(
            "a cross distance beats every detour through the intersection", str(m.gluing_witness)
        )
    return _holds(None, detail="triangle inequality verified; gluing equality verified")


def _gluing_simplex(ctx, n):
    check = ctx.metric.simplex
    if not check.ok:
        return _fails(None, str(check.witness))
    for c in ctx.edge_classes:
        if c.obs.status == STATUS_EMPTY or not _is_standard(c.obs.complex):
            raise AssertionError(
                "simplex condition certified but an edge obstruction is not a "
                f"nonempty standard simplex at {ctx.label_simplex(c.first)}"
            )
    return _holds(0, detail="every close cross edge has a nonempty standard-simplex obstruction")


def _gluing_strong_simplex(ctx, n):
    check = ctx.metric.strong
    if not check.ok:
        return _fails(None, str(check.witness))
    for simplex, c in ctx.items:
        s = set(simplex)
        one_sided = (
            len(s & ctx.x_only) == len(s & ctx.cover.x) == 1
            or len(s & ctx.y_only) == len(s & ctx.cover.y) == 1
        )
        standard = c.obs.status != STATUS_EMPTY and _is_standard(c.obs.complex)
        if one_sided and not standard:
            raise AssertionError(
                "strong simplex condition certified but a one-sided cross simplex "
                f"has a bad obstruction at {ctx.label_simplex(simplex)}"
            )
    return _holds(
        1,
        detail="one-sided cross simplices have nonempty standard-simplex "
        "obstructions (verified up to the dimension cap)",
    )


# --------------------------------------------------------------- the table

_EVERY = (HOLDS, FAILS, INCONCLUSIVE, NOT_APPLICABLE)
_CONNECTED = (
    "homotopy fibers of the cover-union inclusion are connected: "
    "isomorphism on degree-0 homology, surjection in degree 1"
)

#: The combinatorial criteria, in report order.  The clique block only
#: applies to flag complexes.
_RULES = [
    _Rule(
        "no-cross-simplices",
        _no_cross,
        conclusion="no simplex crosses the cover away from the intersection; "
        "the cover union is the whole complex up to weak equivalence",
    ),
    _Rule("contractible-obstructions", _contractible, vut=_EVERY),
    _Rule(
        "acyclic-obstructions",
        _acyclic,
        conclusion="the cover-union inclusion is an integral homology isomorphism",
        vut=_EVERY,
    ),
    _Rule(
        "torsion-obstructions",
        _torsion,
        conclusion="homology isomorphism through degree {iso_upto} and surjection in "
        "degree {surj_at} with coefficients in any field of characteristic other "
        "than {exclude_char}",
        vut=_EVERY,
    ),
    _Rule("obstruction-connectivity", _obstruction_connectivity, (_CROSS,), _all_or_0, vut=_EVERY),
    _Rule("skeleton-obstruction-connectivity", _skeleton_connectivity, (_CROSS,), _scan),
    _Rule("edge-intersection-nonempty", _edge_intersection, (_EDGES,), conclusion=_CONNECTED),
    _Rule("constant-obstruction", _constant, (_CROSS,), _scan),
    _Rule("full-intersection-obstruction", _full_intersection, (_CROSS,), _scan),
    _Rule("all-intersection-subsets-extend", _subsets_extend, (_CROSS, _NONEMPTY), _scan),
    _Rule(
        "singleton-intersection-extends", _subsets_extend, (_SINGLETON, _CROSS, _NONEMPTY), _scan
    ),
    _Rule("one-entry-point", _one_entry_point, (_CROSS, _NONEMPTY), _scan, vut=(HOLDS,)),
    _Rule("edge-standard-obstructions", _edge_standard, (_FLAG, _EDGES), _scan),
    _Rule("edge-constant-obstruction", _edge_constant, (_FLAG, _EDGES), _all_or_0),
    _Rule(
        "edge-full-intersection", _edge_full_intersection, (_FLAG, _EDGES, _NONEMPTY), _all_or_0
    ),
    _Rule("edge-pair-extension", _pairs_extend, (_FLAG, _NONEMPTY)),
    _Rule("edge-singleton-extension", _pairs_extend, (_FLAG, _SINGLETON, _NONEMPTY)),
    _Rule("clique-entry-point-adjacent", _clique_entry_adjacent, (_FLAG, _EDGES)),
    _Rule("clique-entry-point-central", _clique_entry_central, (_FLAG, _EDGES)),
    _Rule("clique-entry-point-local", _clique_entry_local, (_FLAG, _NONEMPTY)),
    _Rule("two-entry-points", _two_entry_points, (_FLAG, _NONEMPTY)),
]

#: The distance-level criteria of a metric report, which lead its verdicts.
_METRIC_RULES = [
    _Rule("shared-witness", _shared_witness, conclusion=_CONNECTED),
    _Rule("witness-ball-closure", _witness_ball, (_SHARED,)),
    _Rule("small-intersection-diameter", _small_diameter, (_SHARED,)),
    _Rule("shared-singleton", _shared_singleton, (_SINGLE_POINT,)),
    _Rule(
        "cross-domination",
        _cross_domination,
        conclusion="for every radius, every intersection point witnesses every "
        "close cross pair; fibers are connected",
    ),
    _Rule(
        "cross-dominates-diameter",
        _dominates_diameter,
        (_DOMINATED,),
        conclusion="weak equivalence at every radius",
    ),
    _Rule("radius-independence", _radius_independence, (_EDGES,), _all_or_0),
    _Rule("full-witness-set", _full_witness_set, (_CLOSE_PAIRS, _NONEMPTY), _all_or_0),
    _Rule(
        "metric-gluing",
        _metric_gluing,
        conclusion="every cross distance is realized through the intersection",
    ),
    _Rule(
        "gluing-simplex-condition",
        _gluing_simplex,
        (_GLUED, _GLUED_ALONG_A),
        conclusion="fibers connected: isomorphism on degree-0 homology and a "
        "surjection in degree 1 (triangle inequality used)",
    ),
    _Rule(
        "gluing-strong-simplex-condition",
        _gluing_strong_simplex,
        (_GLUED, _GLUED_ALONG_A),
        conclusion="fibers simply connected: isomorphism on homology in degrees "
        "0 and 1, surjection in degree 2 (triangle inequality used)",
    ),
]

#: Catalog of criterion ids, in report order.
CRITERIA = [rule.id for rule in _RULES]
METRIC_CRITERIA = [rule.id for rule in _METRIC_RULES]


# ------------------------------------------------------------- verification


_INDUCED_FIELDS = (
    "field", "degree", "rank", "dim_source", "dim_target", "injective", "surjective", "iso"
)


def _verification(complex_, cover, fields, dim_cap):
    """Profiles of the five complexes of the cover square plus induced maps.

    The parts share one reduction, run by the first ``homology`` call.
    """
    parts = cover_square(complex_, cover, dim_cap)
    max_deg = dim_cap - 1
    profiles = {}
    for name, part in parts.items():
        profiles[name] = {
            coeffs: homology(part, coeffs, max_deg=max_deg, reduced=True).to_dict()
            for coeffs in fields
        }
    induced = []
    for coeffs in fields:
        if coeffs == "z":
            continue
        for degree in range(0, max_deg + 1):
            rec = induced_map(parts["union"], parts["total"], degree, coeffs)
            induced.append({name: getattr(rec, name) for name in _INDUCED_FIELDS})
    return profiles, induced


def _soundness(verdicts, profiles, induced, fields, dim_cap):
    """Certified conclusions must agree with the homological verification."""
    failures = []
    max_deg = dim_cap - 1
    by_field = {}
    for rec in induced:
        by_field.setdefault(rec["field"], {})[rec["degree"]] = rec
    for v in verdicts:
        if v.status != HOLDS or not v.claim:
            continue
        iso_upto = v.claim.get("iso_upto")
        surj_at = v.claim.get("surj_at")
        exclude = v.claim.get("exclude_char")
        for coeffs, recs in by_field.items():
            if exclude is not None and linalg.characteristic(coeffs) == exclude:
                continue
            for degree, rec in recs.items():
                want_iso = iso_upto == "all" or (
                    isinstance(iso_upto, int) and degree <= iso_upto
                )
                if want_iso and not rec["iso"]:
                    failures.append(
                        f"{v.criterion}: expected isomorphism in degree {degree} "
                        f"over {coeffs}, verification disagrees"
                    )
                elif (
                    not want_iso
                    and surj_at is not None
                    and degree == surj_at
                    and not rec["surjective"]
                ):
                    failures.append(
                        f"{v.criterion}: expected surjection in degree {degree} "
                        f"over {coeffs}, verification disagrees"
                    )
        if iso_upto == "all" and exclude is None and "z" in fields and profiles:
            if profiles["union"]["z"] != profiles["total"]["z"]:
                failures.append(
                    f"{v.criterion}: integral profiles of the union and the whole "
                    "complex differ"
                )
    return failures


def _census(ctx):
    by_dim, by_status = Counter(), Counter()
    for c in ctx.classes:
        by_dim[str(c.dim)] += c.size
        by_status[c.obs.status] += c.size
    return {"total": len(ctx.items), "by_dim": dict(by_dim), "by_status": dict(by_status)}


#: A report's items as one table: ``labels`` maps vertex ids to labels,
#: ``records`` maps each obstruction record to the dict of the fields its
#: cross simplices share (``status``, ``obstruction_vertices``,
#: ``certificate``, ``profile``), and ``classes`` and ``rows`` are those of
#: the context: the (simplex, class) pairs of ``rows`` in report order.
_ItemTable = namedtuple("_ItemTable", "labels records classes rows")


def _item_table(ctx, include_profiles):
    """The item table of a context, each record's fields made once."""
    names = {v: ctx.label(v) for v in ctx.complex.vertices}
    records = {}
    for obs in _records(ctx.classes):
        cert = obs.certificate
        certificate = profile = None
        if cert is not None and cert.kind == ContractibilityCertificate.CENTRAL:
            certificate = {"kind": "central", "simplex": [names[v] for v in cert.central]}
        elif cert is not None:
            certificate = {"kind": "collapse", "steps": len(cert.collapses)}
        if include_profiles and obs.status == STATUS_HOMOLOGY_ONLY:
            profile = ctx.obstruction_profile(obs).to_dict()
        records[obs] = {
            "status": obs.status,
            "obstruction_vertices": [names[v] for v in obs.complex.vertices],
            "certificate": certificate,
            "profile": profile,
        }
    return _ItemTable(names, records, ctx.classes, ctx.items)


def _item_dicts(table):
    """One dict per cross simplex.  The dicts of one obstruction share its
    ``obstruction_vertices`` list, ``certificate`` dict and ``profile``."""
    names = table.labels
    fields = {c: {"dim": c.dim, **table.records[c.obs]} for c in table.classes}
    return [{"simplex": [names[v] for v in simplex], **fields[c]} for simplex, c in table.rows]


def analyze(complex_, cover, dim_cap=None, fields=("q", "z"), verify=True):
    """Evaluate every decomposition criterion for a complex with a cover.

    When ``verify`` is set the report also carries exact homology profiles of
    the five complexes in the cover square, the induced maps of the union
    inclusion over each requested field, and a soundness block that
    cross-checks every certified conclusion against them.  The report is
    built from one analysis context: the cross simplices are enumerated once,
    and each distinct obstruction complex among them is certified and
    profiled once, however many cross simplices share it.  The report's
    ``items`` are built lazily, on first read, from the item table the
    context leaves (see ``DecompositionReport``); the item dicts of one
    obstruction share their ``obstruction_vertices`` and ``certificate``
    objects (and ``profile``), so treat them as read-only.
    """
    if dim_cap is None:
        dim_cap = complex_.dim_cap if complex_.is_flag else 4
    return _analyze(_Context(complex_, cover, dim_cap), fields, verify)


def _analyze(ctx, fields, verify, kind="simplicial", radius=None, metric_rules=(), notes=()):
    """The report for a built context, with one verdict per rule; the
    verdicts of ``metric_rules`` lead.  A field listed twice is kept once,
    at its first place."""
    fields = list(dict.fromkeys(fields))
    complex_, cover, dim_cap = ctx.complex, ctx.cover, ctx.dim_cap
    verdicts = [_verdict(rule, ctx) for rule in [*metric_rules, *_RULES]]
    profiles = None
    induced = None
    failures = []
    if verify:
        profiles, induced = _verification(complex_, cover, fields, dim_cap)
        failures = _soundness(verdicts, profiles, induced, fields, dim_cap)
    report = DecompositionReport(
        kind=kind,
        cover={
            "X": [ctx.label(v) for v in sorted(cover.x)],
            "Y": [ctx.label(v) for v in sorted(cover.y)],
            "A": [ctx.label(v) for v in sorted(cover.a)],
        },
        radius=radius,
        dim_cap=dim_cap,
        fields=fields,
        census=_census(ctx),
        verdicts=verdicts,
        profiles=profiles,
        induced=induced,
        soundness={"ok": not failures, "failures": failures},
        notes=list(notes),
    )
    report.item_table = _item_table(ctx, include_profiles=verify)
    return report


def analyze_metric(mc, dim_cap=4, fields=("q", "z"), verify=True):
    """Build the Vietoris-Rips complex of a metric cover and analyze it,
    together with the distance-level criteria.  One analysis context serves
    both the distance-level and the combinatorial criteria.  The distance
    facts are built after the cross simplices are enumerated, so an input
    whose clique walk is refused pays for none of them."""
    complex_ = metric_mod.vietoris_rips(mc.space, mc.r, dim_cap)
    ctx = _Context(complex_, Cover(mc.x, mc.y), dim_cap)
    ctx.metric = _MetricFacts(mc)
    if ctx.metric.triangle is None:
        note = "the distance satisfies the triangle inequality"
    else:
        note = (
            f"the distance violates the triangle inequality at {ctx.metric.triangle}; "
            "gluing criteria are off, all other criteria never use it"
        )
    return _analyze(ctx, fields, verify, "metric", str(mc.r), _METRIC_RULES, [note])
