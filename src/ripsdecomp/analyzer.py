"""Decision procedures for cover decompositions of a simplicial complex.

Given a complex with a two-set vertex cover (or a distance space with a
cover and a radius), enumerate the cross simplices, classify their
obstruction complexes, evaluate a fixed catalog of decomposition criteria,
and cross-verify every certified conclusion against exact homology.

The criteria read classes of cross simplices, one per (obstruction record,
dimension), in the order of their first cross simplices.  A cross simplex
passes or fails by its obstruction alone (sigma + mu is a simplex exactly
when mu is in obs(sigma)), so a witness, the first failing cross simplex in
report order, is the first one of the first failing class.

Each distinct obstruction complex is one record (``_Obstruction``), made
from its content key when the classes are, and it classifies itself: it
searches for its certificate when it is made, which sets its status, and
answers its own profile, connectivity and rank, each computed once.  It
holds its vertices and its good(k) sets (``complexes.good_masks``, the last
of them its central vertices) as int bitmasks, so the criteria intersect
masks, not sets; a flag record reads them off the whole complex's graph,
with no ``Complex`` built.  The classes are read through one class table
per context (``_Context``): the connectivity ranks of their records as
prefix minima, the first class whose record fails each record test, and
prefix ANDs of the good(k) masks.  So an n-indexed criterion looks its
answer up at each n instead of scanning the classes again.

The catalog is a table of rules (``_RULES`` and ``_METRIC_RULES``): each
row names a criterion, its applicability guards and its hypothesis test.
One builder, ``_verdict``, turns a row's outcome into its verdict, and it
alone enforces the honesty rules:

* a claim above degree 0 that rests on the connectivity of obstruction
  complexes stands only when every one of them is certified contractible
  by a central simplex or a strong collapse to a vertex (``_certified``).
  An n-indexed criterion then falls back to a lower n, down to n = 0, which
  needs no certificate; a claim with no lower degree to fall back to is
  ``inconclusive``, with its test's witness and detail, whatever the rule.
  So "contractible" is claimed only on a certificate, and trivial integral
  homology alone feeds the weaker acyclicity criterion instead;
* a criterion that reads every cross simplex reports the dimension cap in
  ``verified_up_to`` when enumeration stopped short of the whole complex.

Conclusions at the homotopy level are reported together with the
machine-checked homological shadow, and the soundness gate fails the whole
report if any certified conclusion disagrees with exact homology.
Verification (``_verification``) keeps the records the homology layer
returns: a ``HomologyProfile`` per part of the cover square and field, and
an ``InducedMap`` of union -> total per field and degree.  The gate
(``_soundness``) reads no field and no record: it checks each claim against
the integral homology of (total, union), which settles every field.  The
report is built with the records, and with its item table of obstruction
records, as its ``records``; the report model and its writers are
``reporting``'s, which imports nothing from here.
"""

import math
from bisect import bisect_right
from collections import Counter, namedtuple
from functools import reduce
from itertools import accumulate
from operator import and_, or_

from . import linalg
from . import metric as metric_mod
from .complexes import (
    Cover, _bits, _low, _mask_of, check_dim_cap, enumerate_p_complement, good_masks
)
from .errors import InvalidInput
from .homology import (
    ContractibilityCertificate,
    contractibility_certificate,
    cover_square,
    homology,
    induced_map,
    relative_profile,
)
from .reporting import CriterionVerdict, DecompositionReport, _ItemTable

__all__ = [
    "CRITERIA",
    "analyze",
    "analyze_metric",
]

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not_applicable"

# Status of an obstruction record: empty, certified as a cone or by a
# strong collapse to a vertex, or homology-only when no certificate was found.
STATUS_EMPTY = "empty"
STATUS_CONE = "cone"
STATUS_COLLAPSE = "collapse"
STATUS_HOMOLOGY_ONLY = "homology-only"


# ------------------------------------------------------------------ context


# The connectivity rank of a record in the class table: -2 when it is empty,
# infinite when every reduced homology group is trivial, else its
# connectivity.  A record is homologically n-connected when its rank is at
# least n ("all": infinite).
_RANK_EMPTY = -2
_RANK_ALL = math.inf


def _rank_of(n):
    return _RANK_ALL if n == "all" else n


class _Obstruction:
    """One distinct obstruction complex of a report, classified once.

    The classes of cross simplices with equal obstructions point to the same
    record.  It is made from the whole complex (``total``) and the
    obstruction's content key (``key``, see ``CrossClass``), and carries its
    vertex bitmasks: ``mask``, its vertices, and ``goods``, its good(k) sets
    (``good``), the last of them its central vertices
    (``complexes.good_masks``).  A flag record reads them and its
    certificate off the total's graph on its mask, and builds its
    ``complex`` only for a rule that asks (the profile, the torsion rule's
    existence search, the pair-extension witness).  Its certificate is
    searched for when it is made, and its integral profile and connectivity
    are computed once, on demand.
    """

    __slots__ = (
        "total", "key", "mask", "goods", "status", "certificate", "_complex", "_profile", "_conn"
    )

    def __init__(self, total, key):
        self.total, self.key, self._complex = total, key, None
        on = (total, key) if total.is_flag else (self.complex,)
        self.goods = good_masks(*on)
        self.mask = self.goods[0]
        # empty, or by certificate search: a cone or a collapse, or
        # homology-only when none is found
        if not self.mask:
            self.status, self.certificate = STATUS_EMPTY, None
        else:
            self.certificate = cert = contractibility_certificate(*on)
            self.status = (
                STATUS_HOMOLOGY_ONLY if cert is None
                else STATUS_CONE if cert.kind == ContractibilityCertificate.CENTRAL
                else STATUS_COLLAPSE
            )
        self._profile = None
        self._conn = None

    @property
    def complex(self):
        """The obstruction complex, built on first use."""
        if self._complex is None:
            self._complex = self.total.subcomplex(self.key)
        return self._complex

    @property
    def certified(self):
        return self.certificate is not None

    @property
    def central(self):
        """The bitmask of the vertices central in the obstruction complex."""
        return self.goods[-1]

    def good(self, k):
        """The bitmask good(k) (see ``complexes.good_masks``)."""
        goods = self.goods
        return goods[k] if k < len(goods) else goods[-1]

    def profile(self):
        """The reduced integral profile, computed once (None when empty)."""
        if self._profile is None and self.status != STATUS_EMPTY:
            self._profile = homology(self.complex.to_explicit(), "z", reduced=True)
        return self._profile

    def connectivity(self):
        """Homological connectivity: the largest n with trivial reduced
        integral homology through degree n ("all" when it is trivial in every
        degree, -1 when already disconnected, None when empty).  A cone or
        collapse certificate proves the complex contractible, so a certified
        record answers "all" without any homology; only a homology-only
        record is profiled, once.
        """
        if self.status == STATUS_EMPTY:
            return None
        if self.certified:
            return "all"
        if self._conn is None:
            p = self.profile()
            top = p.degrees[-1]
            n = next((d - 1 for d in range(top + 1) if p.betti.get(d, 0) or p.torsion_at(d)), top)
            self._conn = "all" if n == top else n
        return self._conn

    def rank(self):
        """The connectivity as a rank in the class table (``_RANK_EMPTY``)."""
        conn = self.connectivity()
        return _RANK_EMPTY if conn is None else _rank_of(conn)


class _Context:
    """One report's complex, cover and cross simplices, with the obstruction
    records they share; ``metric`` holds a metric report's distance facts,
    set by ``analyze_metric`` once the cross simplices are enumerated.
    ``items`` are ``(simplex, class)`` pairs in report order, and ``classes``
    are their ``CrossClass`` objects by (record, dimension), in the order of
    their first items, each with ``obs`` set to its record.

    The criteria read the classes through one class table, built once:
    ``end(d)``, the number of classes of dimension at most d; the ranks of
    the classes' records in class order, as prefix minima, for
    ``first_unconnected``; the first class whose record fails a test
    (``first``); the prefix ANDs of the good(dim_cap - dim) masks
    (``entry_points``); and the AND and OR of the edge classes' vertex and
    central masks.  So each n-indexed hypothesis is a lookup, not a scan."""

    def __init__(self, complex_, cover, dim_cap):
        if dim_cap < 1:
            raise InvalidInput("the dimension cap must be at least 1")
        check_dim_cap(dim_cap)
        self.complex = complex_
        self.cover = cover
        self.dim_cap = dim_cap
        self.metric = None
        self.a = cover.a
        self.a_mask = _mask_of(self.a)
        self.x_only = cover.x - cover.a
        self.y_only = cover.y - cover.a
        # Obstruction records by Complex.content_key, a full key here: every
        # obstruction is a subcomplex of complex_, a full subcomplex when
        # complex_ is a flag complex.
        self._records = {}
        # refuses a cover that is not one of complex_ (CoverError)
        self.items = enumerate_p_complement(complex_, cover, dim_cap)
        # the content key of K[A], built eagerly: _is_intersection reads it on
        # every report with a cross simplex
        self.a_key = complex_.restrict(self.a).content_key()
        self.classes = classes = self.items.classes
        for c in classes:
            c.obs = self.record(c.obs)
        self._dims = [c.dim for c in classes]
        # no cross simplex is a vertex
        self.edge_classes = self.classes_through(1)
        # the AND and OR of the edge records' vertex masks, the AND of their
        # central masks
        self.edge_shared, self.edge_spread, self.edge_central = -1, 0, -1
        for c in self.edge_classes:
            self.edge_shared &= c.obs.mask
            self.edge_spread |= c.obs.mask
            self.edge_central &= c.obs.central
        self._low_ranks = []        # negated prefix minima of the ranks, so far
        self._firsts = {}           # test -> index of the first class failing it
        self._entry = None          # prefix ANDs of good(dim_cap - dim)
        # Full coverage: no simplex above dim_cap and, when dim_cap is a flag
        # complex's own cap, none at it, as cliques past the cap go unseen.
        top = dim_cap if complex_.is_flag and dim_cap == complex_.dim_cap else dim_cap + 1
        self.full_coverage = not complex_.has_simplex_of_dim(top)
        self.verified_up_to = None if self.full_coverage else dim_cap

    def end(self, dim):
        """The number of classes of dimension at most ``dim``."""
        return bisect_right(self._dims, dim)

    def classes_through(self, dim):
        """The classes of dimension at most ``dim``: a prefix of ``classes``."""
        return self.classes[: self.end(dim)]

    def first(self, test):
        """The index of the first class whose record fails ``test(ctx,
        record)``, or the class count; each test scans the classes once."""
        got = self._firsts.get(test)
        if got is None:
            got = next(
                (i for i, c in enumerate(self.classes) if not test(self, c.obs)),
                len(self.classes),
            )
            self._firsts[test] = got
        return got

    def first_unconnected(self, end, n):
        """The index of the first of the first ``end`` classes whose record is
        not homologically n-connected (empty, or of connectivity below n), or
        None.  The ranks are read in class order, only as far as a query
        needs, so no record past a failure is profiled before it is asked
        for; the prefix minima found so far answer by bisection."""
        want = _rank_of(n)
        low, classes = self._low_ranks, self.classes
        while len(low) < end and (not low or -low[-1] >= want):
            rank = classes[len(low)].obs.rank()
            low.append(max(-rank, low[-1]) if low else -rank)
        i = bisect_right(low, -want)
        return i if i < end else None

    def least_rank(self):
        """The least rank of every class's record (``_RANK_ALL`` with no
        classes)."""
        self.first_unconnected(len(self.classes), -math.inf)
        return -self._low_ranks[-1] if self._low_ranks else _RANK_ALL

    def entry_points(self, end):
        """The AND of good(dim_cap - dim) over the first ``end`` classes."""
        if self._entry is None:
            cap = self.dim_cap
            self._entry = list(accumulate((c.obs.good(cap - c.dim) for c in self.classes), and_))
        return self._entry[end - 1] if end else -1

    def label(self, v):
        return str(self.complex.label_of(v))

    def label_simplex(self, sigma):
        return "{" + ",".join(self.label(v) for v in sigma) + "}"

    def record(self, key):
        """The one record of the content key ``key``, made on first sight."""
        obs = self._records.get(key)
        if obs is None:
            obs = self._records[key] = _Obstruction(self.complex, key)
        return obs


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
# certified).  On "holds", degree is the degree n of the claim ("all" for
# every degree, None for no claim) or the claim itself, and certified tells
# whether every obstruction record whose connectivity the claim rests on is
# certified contractible.


def _holds(degree, witness=None, detail=None, certified=True):
    return HOLDS, witness, detail, degree, certified


def _fails(detail=None, witness=None):
    return FAILS, witness, detail, None, True


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


def _certified(degree, certified):
    """The honesty predicate: a claim above degree 0 stands only when every
    obstruction record it rests on is certified contractible."""
    return degree == 0 or certified


def _verdict(rule, ctx):
    """The verdict of one rule: the first guard that blocks it, else its
    test at the best degree that holds with the certificates it needs.
    Every CriterionVerdict of a report is made here."""
    outcome = next(
        (
            (status, None, detail, None, True)
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
                # Held without the certificates it needs, with no lower
                # degree left (every scan ends at degree 0, which needs
                # none): inconclusive, with the test's witness and detail.
                outcome = (INCONCLUSIVE, outcome[1], outcome[2], None, True)
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
#
# The record tests that ``_Context.first`` takes, each a function of the
# context and one record.


def _is_certified(ctx, obs):
    return obs.certified


def _is_nonempty(ctx, obs):
    return obs.status != STATUS_EMPTY


def _is_standard(ctx, obs):
    """A complex is a standard simplex when its full vertex set is a simplex,
    which is when every vertex is central (add them one at a time)."""
    return obs.central == obs.mask


def _spans_a(ctx, obs):
    """The obstruction's vertices are all of A, as they are when a cross
    edge extends by every intersection vertex."""
    return obs.mask == ctx.a_mask


def _holds_a(ctx, obs):
    """A is a simplex of the obstruction, whose vertices lie in A."""
    return obs.mask == ctx.a_mask and obs.central == obs.mask


def _is_leading(ctx, obs):
    return obs is ctx.classes[0].obs


def _is_intersection(ctx, obs):
    # K[A] is compared by content, so it is classified only as an obstruction
    return obs.key == ctx.a_key


def _first_unconnected(ctx, end, n, why=None):
    """Failure at the first cross simplex of the first ``end`` classes whose
    obstruction is empty or not homologically n-connected, or None.  Every
    nonempty complex is (-1)-connected, so at n = -1 only an empty
    obstruction fails."""
    i = ctx.first_unconnected(end, n)
    if i is None:
        return None
    c = ctx.classes[i]
    if c.obs.status == STATUS_EMPTY:
        return _fails("empty obstruction complex", ctx.label_simplex(c.first))
    return _fails(why, ctx.label_simplex(c.first))


def _first_failing(ctx, test, end, detail):
    """Failure at the first cross simplex of the first class, among the
    first ``end``, whose record fails ``test``; None when there is none."""
    i = ctx.first(test)
    return _fails(detail, ctx.label_simplex(ctx.classes[i].first)) if i < end else None


def _one_record(ctx, obs, n, detail):
    """Holds at n when one obstruction record is homologically n-connected."""
    rank = obs.rank()
    if rank == _RANK_EMPTY:
        return _fails("empty complex")
    if rank < _rank_of(n):
        return _fails(f"reduced homology obstructs {n}-connectivity")
    return _holds(n, detail=detail, certified=obs.certified)


def _no_cross(ctx, n):
    if not ctx.items:
        return _holds("all")
    return _fails(
        f"{len(ctx.items)} cross simplices up to dimension {ctx.dim_cap}",
        ctx.label_simplex(ctx.items[0][0]),
    )


def _contractible(ctx, n):
    every = len(ctx.classes)
    failed = _first_unconnected(ctx, every, -1)
    if failed:
        return failed
    i = ctx.first(_is_certified)
    if i < every:
        c = ctx.classes[i]
        if c.obs.connectivity() != "all":
            why = "obstruction has nontrivial reduced integral homology"
            return _fails(why, ctx.label_simplex(c.first))
        why = "integrally acyclic obstruction without a contractibility certificate"
        return _holds("all", ctx.label_simplex(c.first), why, certified=False)
    detail = "every obstruction carries a central-simplex or collapse certificate"
    return _holds("all", detail=detail if ctx.items else "vacuous: no cross simplices")


def _acyclic(ctx, n):
    detail = "every obstruction has trivial reduced integral homology"
    return _first_unconnected(
        ctx, len(ctx.classes), "all", "nontrivial reduced integral homology"
    ) or _holds("all", detail=detail + ("" if ctx.items else " (vacuous)"))


def _torsion(ctx, n):
    failed = _first_unconnected(ctx, len(ctx.classes), -1)
    if failed:
        return failed
    # contractible obstructions have no torsion
    uncertified = [c for c in ctx.classes if not c.obs.certified]
    primes = {
        p
        for c in uncertified
        for powers in c.obs.profile().torsion.values()
        for q in powers
        for p, _ in linalg.prime_factorization(q)
    }
    if not primes:
        detail = "no torsion in any obstruction; see the acyclicity criterion"
        return NOT_APPLICABLE, None, detail, None, True
    if len(primes) > 1:
        return _fails(f"torsion at several primes {sorted(primes)}; no single excluded prime")
    p = primes.pop()
    # The least degree through which each obstruction's homology is
    # p-torsion: below its first Betti number for an uncertified record, and
    # for a contractible one its top degree, max(dim, 0) of the whole
    # complex.  That is found by existence search, with no simplex
    # enumerated, and only up to the least degree so far.
    best = math.inf
    for c in uncertified:
        profile = c.obs.profile()
        if profile.betti.get(0, 0) != 0 or profile.betti.get(-1, 0) != 0:
            return _fails("obstruction is not connected", ctx.label_simplex(c.first))
        top = profile.degrees[-1]
        best = min(best, next((d - 1 for d in range(1, top + 1) if profile.betti.get(d, 0)), top))
    for obs in dict.fromkeys(c.obs for c in ctx.classes):
        if obs.certified:
            d = 0
            while d < best and obs.complex.has_simplex_of_dim(d + 1):
                d += 1
            best = d
    return _holds(
        {"iso_upto": best, "surj_at": best + 1, "exclude_char": p},
        str(p),
        f"all obstruction homology through degree {best} is {p}-torsion",
    )


def _obstruction_connectivity(ctx, n):
    every = len(ctx.classes)
    failed = _first_unconnected(ctx, every, -1) or _first_unconnected(
        ctx, every, 0, "disconnected obstruction"
    )
    if failed:
        return failed
    detail = None
    shadow = ctx.least_rank()
    if n == 0 and shadow != 0:
        detail = (
            f"homological shadow reaches connectivity "
            f"{'all' if shadow == _RANK_ALL else shadow}, but simple "
            "connectivity is uncertified; certified degree stops at 0"
        )
    return _holds(n, detail=detail, certified=ctx.first(_is_certified) == every)


# In the n-indexed tests below, some class has dimension at most n + 1 when
# there are cross simplices: each has a cross edge as a face.


def _skeleton_connectivity(ctx, n):
    end = ctx.end(n + 1)
    detail = f"obstructions over cross simplices of dimension <= {n + 1}"
    return _first_unconnected(
        ctx, end, n, f"reduced homology obstructs {n}-connectivity"
    ) or _holds(n, detail=detail, certified=ctx.first(_is_certified) >= end)


def _edge_intersection(ctx, n):
    common = ctx.edge_shared
    if common:
        return _holds(0, ctx.label(_low(common)))
    return _fails("the edge obstructions share no vertex")


def _shared_record(ctx, n, end, differs, detail):
    """Holds at n when the first ``end`` classes share one record and it is
    homologically n-connected."""
    if ctx.first(_is_leading) < end:
        return _fails(differs)
    return _one_record(ctx, ctx.classes[0].obs, n, detail)


def _constant(ctx, n):
    differs = "obstruction complexes differ across cross simplices"
    detail = "one obstruction complex shared by every cross simplex in range"
    return _shared_record(ctx, n, ctx.end(n + 1), differs, detail)


def _full_intersection(ctx, n):
    differs = "obstruction differs from the full intersection restriction"
    failed = _first_failing(ctx, _is_intersection, ctx.end(n + 1), differs)
    if failed:
        return failed
    ka = ctx.classes[0].obs
    if ka.status == STATUS_EMPTY:
        return _fails("the intersection restriction is empty")
    return _one_record(ctx, ka, n, "every obstruction equals the intersection restriction")


def _subsets_extend(ctx, n):
    differs = "the simplex does not extend by the whole intersection"
    failed = _first_failing(ctx, _holds_a, ctx.end(n + 1), differs)
    if failed:
        return failed
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
    ok = ctx.a_mask & ctx.entry_points(ctx.end(n + 1))
    if not ok:
        return _fails("no intersection vertex extends every small cross simplex")
    v = ctx.label(_low(ok))
    return _holds(
        n,
        v,
        f"entry point {v} extends every cross simplex with at most "
        f"{n + 2} vertices outside the intersection",
    )


def _edge_standard(ctx, n):
    edges = len(ctx.edge_classes)
    detail = (
        "edge obstructions are standard simplices; all obstructions in "
        f"range nonempty through dimension {n + 1}"
    )
    return (
        _first_failing(ctx, _is_standard, edges, "edge obstruction is not a standard simplex")
        or _first_failing(ctx, _is_nonempty, ctx.end(n + 1), "empty obstruction")
        or _holds(n, detail=detail)
    )


def _edge_constant(ctx, n):
    if ctx.first(_is_leading) < len(ctx.edge_classes):
        return _fails("edge obstruction complexes differ")
    common = ctx.classes[0].obs
    conn = common.connectivity()
    if conn is None:
        return _fails("the common edge obstruction is empty")
    if conn == -1:
        return _fails("the common edge obstruction is disconnected")
    detail = "one obstruction complex shared by every cross edge"
    if n == 0 and conn != 0:
        detail = f"homological shadow reaches connectivity {conn}; certified degree stops at 0"
    return _holds(n, detail=detail, certified=common.certified)


def _edge_full_intersection(ctx, n):
    i = ctx.first(_spans_a)
    if i < len(ctx.edge_classes):
        c = ctx.classes[i]
        return _fails(
            "a cross edge fails to extend by an intersection vertex",
            f"{ctx.label_simplex(c.first)}+{ctx.label(_low(ctx.a_mask & ~c.obs.mask))}",
        )
    ka = ctx.record(ctx.a_key)
    if ka.connectivity() in (None, -1):
        return _fails("the intersection restriction is empty or disconnected")
    return _holds(
        n,
        detail="every cross edge extends by every intersection vertex",
        certified=ka.certified,
    )


def _pairs_extend(ctx, n):
    # In a flag obstruction every subset of A of at most two vertices is a
    # simplex exactly when A is.
    if not ctx.edge_classes:
        return _holds("all", detail="vacuous: no cross edges")
    i = ctx.first(_holds_a)
    if i < len(ctx.edge_classes):
        c, a = ctx.classes[i], sorted(ctx.a)
        small = ((u,) if u == w else (u, w) for j, u in enumerate(a) for w in a[j:])
        mu = next(mu for mu in small if mu not in c.obs.complex)
        return _fails(
            "a cross edge fails to extend by a small intersection subset",
            f"{ctx.label_simplex(c.first)}+{ctx.label_simplex(mu)}",
        )
    detail = "every cross edge extends by every intersection subset of size <= 2"
    return _holds("all", detail=detail)


def _clique_entry_adjacent(ctx, n):
    spread = ctx.edge_spread
    adj = ctx.complex._adj
    for v in _bits(ctx.edge_shared):
        if spread & (adj[v] | 1 << v) == spread:
            return _holds(
                "all",
                ctx.label(v),
                "an obstruction vertex shared by every cross edge is adjacent "
                "to every vertex of every edge obstruction",
            )
    return _fails("no shared obstruction vertex is adjacent to all obstruction vertices")


def _clique_entry_central(ctx, n):
    ok = ctx.edge_central
    if ok:
        return _holds("all", ctx.label(_low(ok)), "one vertex is central in every edge obstruction")
    return _fails("no vertex is central in every edge obstruction")


def _clique_entry_local(ctx, n):
    # v extends a cross edge e and every e + a in the complex exactly when v
    # is a central vertex of e's obstruction; vacuous without cross edges.
    ok = ctx.a_mask & ctx.edge_central
    if not ok:
        return _fails("no intersection vertex extends all small cross simplices")
    return _holds(
        "all",
        ctx.label(_low(ok)),
        "one intersection vertex extends every cross edge and every "
        "cross edge plus one intersection vertex",
    )


def _two_entry_points(ctx, n):
    a, adj, shared = ctx.a_mask, ctx.complex._adj, ctx.edge_shared

    def entries(side):
        """Intersection vertices extending every edge from A into one side:
        v extends the edge uw when v is u or a common neighbour of both."""
        side, ok = _mask_of(side), a
        for u in _bits(a):
            for w in _bits(adj[u] & side):
                ok &= adj[u] & adj[w] | 1 << u
        return _bits(ok)

    ay_entries = entries(ctx.y_only)
    for ax in entries(ctx.x_only):
        for ay in ay_entries:
            # {ax, ay} is a simplex of every edge obstruction, a full subcomplex
            pair = 1 << ax | 1 << ay
            if pair & shared == pair and (ax == ay or adj[ax] >> ay & 1 or not ctx.edge_classes):
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
    close, a = ctx.metric.close, sorted(ctx.a)
    ends = [_mask_of(pair) for pair in ctx.metric.close_pairs]
    # shared points within r of both ends of some close cross pair
    pair_witnesses = [w for w in a if any(close[w] & e == e for e in ends)]
    # a shared witness is within r of both ends of every close cross pair
    targets = reduce(or_, ends, _mask_of(pair_witnesses))
    for v in a:
        if close[v] & targets == targets:
            return _holds(
                "all",
                ctx.label(v),
                "every witness of a close cross pair sits within r of the entry point",
            )
    return _fails("every shared witness misses some pair witness")


def _small_diameter(ctx, n):
    m = ctx.metric
    if m.diameter <= m.r:
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
    labels, (scale, sentinel, rows) = m.space.labels, m.space.scaled()
    top = sentinel if m.diameter == math.inf else int(m.diameter * scale)
    ys = sorted(ctx.y_only)
    for i in sorted(ctx.x_only):
        for j in ys:
            if rows[i][j] < top:
                return _fails(None, str((labels[i], labels[j])))
    return _holds("all", detail="every cross distance is at least the intersection diameter")


def _radius_independence(ctx, n):
    """The witness set of a close cross pair does not depend on the pair."""
    differs = "edge obstruction complexes depend on the pair"
    detail = "one witness complex shared by every close cross pair"
    return _shared_record(ctx, n, len(ctx.edge_classes), differs, detail)


def _full_witness_set(ctx, n):
    """Every intersection point witnesses every close cross pair."""
    m = ctx.metric
    close, labels = m.close, m.space.labels
    for i, j in m.close_pairs:
        missed = ctx.a_mask & ~(close[i] & close[j])
        if missed:
            return _fails(None, str((labels[i], labels[j], labels[_low(missed)])))
    ka = ctx.record(ctx.a_key)
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
        if c.obs.status == STATUS_EMPTY or not _is_standard(ctx, c.obs):
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
        standard = c.obs.status != STATUS_EMPTY and _is_standard(ctx, c.obs)
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


def _verification(parts, fields, top):
    """The verification records of the square ``parts``: the
    ``HomologyProfile`` of each of its five complexes per field, keyed part,
    then field, and the ``InducedMap`` of union -> total per field (z
    excepted) and degree.

    ``cover_square`` returns the parts reduced, so each call here reads
    filled memos.
    """
    profiles = {
        name: {coeffs: homology(part, coeffs, max_deg=top, reduced=True) for coeffs in fields}
        for name, part in parts.items()
    }
    induced = [
        induced_map(parts["union"], parts["total"], degree, coeffs)
        for coeffs in fields
        if coeffs != "z"
        for degree in range(0, top + 1)
    ]
    return profiles, induced


def _soundness(verdicts, union, total, top):
    """The failures of the held claims against integral homology through
    degree ``top`` (``relative_profile``), which settles every field.  By
    the long exact sequence of (total, union), a claim of isomorphism
    through degree k ("all": ``top``) and surjection at s, away from p
    (``exclude_char``), holds over Z[1/p] (Z without p) exactly when
    H_n(total, union; Z) is 0, or p-primary, for n up to
    min(k + 1 if s = k + 1 else k, top), and, unless s = k + 1 <= top, the
    union and the total agree in degree min(k, top) up to p-power torsion:
    d_(top + 2) is not reduced, and a surjection between isomorphic finitely
    generated groups is one-to-one.
    """

    def group(profile, n, p):  # H_n as (Betti number, torsion), less p-power torsion
        return profile.betti.get(n, 0), tuple(q for q in profile.torsion_at(n) if not p or q % p)

    relative = relative_profile(total, union, top)
    sides = relative_profile(union, None, top), relative_profile(total, None, top)
    failures = []
    for v in verdicts:
        if v.status != HOLDS or not v.claim:
            continue
        k, s, p = map(v.claim.get, ("iso_upto", "surj_at", "exclude_char"))
        k = top if k == "all" else k
        for n in range(min(k + 1 if s == k + 1 else k, top) + 1):
            if group(relative, n, p) != (0, ()):
                want = "= 0" if p is None else f"to be {p}-primary torsion"
                failures.append(
                    f"{v.criterion}: expected H_{n}(total, union; Z) {want}, verification "
                    f"reads betti {relative.betti[n]}, torsion {list(relative.torsion_at(n))}"
                )
        d = min(k, top)
        if (s != k + 1 or s > top) and group(sides[0], d, p) != group(sides[1], d, p):
            failures.append(
                f"{v.criterion}: integral profiles of the union and the whole complex "
                f"differ in degree {d}" + (f" beyond {p}-power torsion" if p else "")
            )
    return failures


def _census(ctx):
    by_dim, by_status = Counter(), Counter()
    for c in ctx.classes:
        by_dim[str(c.dim)] += c.size
        by_status[c.obs.status] += c.size
    return {"total": len(ctx.items), "by_dim": dict(by_dim), "by_status": dict(by_status)}


def _item_records(ctx, include_profiles):
    """The item table of a context: its records, and with
    ``include_profiles`` the profiles of the homology-only ones."""
    names = {v: ctx.label(v) for v in ctx.complex.vertices}
    records = list(dict.fromkeys(c.obs for c in ctx.classes))
    profiles = {
        obs: obs.profile()
        for obs in records if include_profiles and obs.status == STATUS_HOMOLOGY_ONLY
    }
    return _ItemTable(names, records, profiles, ctx.classes, ctx.items)


def analyze(complex_, cover, dim_cap=None, fields=("q", "z"), verify=True):
    """Evaluate every decomposition criterion for a complex with a cover.

    When ``verify`` is set the report also carries exact homology profiles of
    the five complexes in the cover square, the induced maps of the union
    inclusion over each requested field, and a soundness block that checks
    every certified conclusion against integral homology.  The report is
    built from one analysis context: the cross simplices are enumerated once,
    and each distinct obstruction complex among them is certified and
    profiled once, however many cross simplices share it.  The report's
    ``items``, ``profiles`` and ``induced`` are built lazily, on first read,
    from the item table of obstruction records the context leaves and the
    verification records (see ``DecompositionReport``).
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
    records, failures = {}, []
    if verify:
        parts = cover_square(complex_, cover, dim_cap)
        profiles, induced = _verification(parts, fields, dim_cap - 1)
        failures = _soundness(verdicts, parts["union"], parts["total"], dim_cap - 1)
        records = {"profiles": profiles, "induced": induced}
    return DecompositionReport(
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
        soundness={"ok": not failures, "failures": failures},
        notes=list(notes),
        records={**records, "items": _item_records(ctx, include_profiles=verify)},
    )


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
