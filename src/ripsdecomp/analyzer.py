"""Decision procedures for cover decompositions of a simplicial complex.

Given a complex with a two-set vertex cover (or a distance space with a
cover and a radius), enumerate the cross simplices, classify their
obstruction complexes, evaluate a fixed catalog of decomposition criteria,
and cross-verify every certified conclusion against exact homology.

Honesty rules, enforced throughout:

* "contractible" is claimed only on a certificate (central simplex or
  collapse sequence); trivial integral homology alone feeds the weaker
  acyclicity criterion instead;
* connectivity above degree 0 is claimed only when the obstruction is
  certified contractible; a homologically n-connected but uncertified
  obstruction makes the verdict ``inconclusive``;
* conclusions at the homotopy level are reported together with the
  machine-checked homological shadow, and the soundness gate fails the
  whole report if any certified conclusion disagrees with the verification.
"""

from bisect import bisect_right

from . import linalg
from . import metric as metric_mod
from .complexes import (
    Cover,
    STATUS_COLLAPSE,
    STATUS_CONE,
    STATUS_EMPTY,
    STATUS_HOMOLOGY_ONLY,
    enumerate_p_complement,
    make_simplex,
)
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

#: Catalog of criterion ids, in report order.  The clique block only applies
#: to flag complexes; the metric block only to distance-space analyses.
CRITERIA = [
    "no-cross-simplices",
    "contractible-obstructions",
    "acyclic-obstructions",
    "torsion-obstructions",
    "obstruction-connectivity",
    "skeleton-obstruction-connectivity",
    "edge-intersection-nonempty",
    "constant-obstruction",
    "full-intersection-obstruction",
    "all-intersection-subsets-extend",
    "singleton-intersection-extends",
    "one-entry-point",
    "edge-standard-obstructions",
    "edge-constant-obstruction",
    "edge-full-intersection",
    "edge-pair-extension",
    "edge-singleton-extension",
    "clique-entry-point-adjacent",
    "clique-entry-point-central",
    "clique-entry-point-local",
    "two-entry-points",
]

METRIC_CRITERIA = [
    "shared-witness",
    "witness-ball-closure",
    "small-intersection-diameter",
    "shared-singleton",
    "cross-domination",
    "cross-dominates-diameter",
    "radius-independence",
    "full-witness-set",
    "metric-gluing",
    "gluing-simplex-condition",
    "gluing-strong-simplex-condition",
]


class CriterionVerdict:
    """Outcome of one criterion: hypothesis status, witness, conclusion.

    ``claim`` is the machine-checkable consequence for the inclusion of the
    cover union into the whole complex: which homology degrees must be
    isomorphisms ("all" or an upper bound), where a surjection is promised,
    and which coefficient characteristic is excluded, if any.
    """

    __slots__ = (
        "criterion",
        "status",
        "witness",
        "conclusion",
        "claim",
        "detail",
        "verified_up_to",
    )

    def __init__(
        self,
        criterion,
        status,
        witness=None,
        conclusion=None,
        claim=None,
        detail=None,
        verified_up_to=None,
    ):
        self.criterion = criterion
        self.status = status
        self.witness = witness
        self.conclusion = conclusion
        self.claim = claim
        self.detail = detail
        self.verified_up_to = verified_up_to

    def to_dict(self):
        return {
            "criterion": self.criterion,
            "status": self.status,
            "witness": self.witness,
            "conclusion": self.conclusion,
            "claim": self.claim,
            "detail": self.detail,
            "verified_up_to": self.verified_up_to,
        }

    @classmethod
    def from_dict(cls, data):
        return cls(
            data["criterion"],
            data["status"],
            data.get("witness"),
            data.get("conclusion"),
            data.get("claim"),
            data.get("detail"),
            data.get("verified_up_to"),
        )

    def __eq__(self, other):
        if not isinstance(other, CriterionVerdict):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self):
        return f"CriterionVerdict({self.criterion}, {self.status})"


class DecompositionReport:
    """Everything the analyzer decided, as JSON-ready plain data."""

    __slots__ = (
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

    def __init__(self, **kw):
        for name in self.__slots__:
            setattr(self, name, kw.get(name))
        self.notes = self.notes or []

    def verdict(self, criterion):
        for v in self.verdicts:
            if v.criterion == criterion:
                return v
        raise KeyError(criterion)

    def to_dict(self):
        return {
            "kind": self.kind,
            "cover": self.cover,
            "radius": self.radius,
            "dim_cap": self.dim_cap,
            "fields": self.fields,
            "census": self.census,
            "items": self.items,
            "verdicts": [v.to_dict() for v in self.verdicts],
            "profiles": self.profiles,
            "induced": self.induced,
            "soundness": self.soundness,
            "notes": self.notes,
        }

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

    __slots__ = ("complex", "status", "certificate", "profile", "conn", "_central", "_good")

    def __init__(self, complex_, status, certificate):
        self.complex = complex_
        self.status = status
        self.certificate = certificate      # ContractibilityCertificate or None
        self.profile = None                 # reduced integral profile, on demand
        self.conn = None                    # see _Context.connectivity, on demand
        self._central = None                # see central, on demand
        self._good = {}                     # k -> good(k), on demand

    @property
    def certified(self):
        return self.certificate is not None

    @property
    def central(self):
        """The vertices central in the obstruction complex."""
        if self._central is None:
            o = self.complex
            self._central = frozenset(v for v in o.vertices if o.is_central((v,)))
        return self._central

    def good(self, k):
        """Vertices v of the obstruction with rho + v in it for every simplex
        rho of it with at most k vertices.  In a flag complex, a vertex that
        meets every other vertex extends every clique, so for k >= 1 these
        are the central vertices."""
        got = self._good.get(k)
        if got is None:
            o = self.complex
            if k == 0:
                got = frozenset(o.vertices)
            elif o.is_flag:
                got = self.central
            else:
                small = [rho for rho in o.simplices() if len(rho) <= k]
                got = frozenset(
                    v for v in o.vertices if all(rho + (v,) in o for rho in small)
                )
            self._good[k] = got
        return got


class _Cross:
    """A cross simplex and the record of its obstruction complex."""

    __slots__ = ("simplex", "obs", "dim")

    def __init__(self, simplex, obs):
        self.simplex = simplex
        self.obs = obs
        self.dim = len(simplex) - 1


class _Context:
    def __init__(self, complex_, cover, dim_cap):
        if dim_cap < 1:
            raise InvalidInput("the dimension cap must be at least 1")
        cover.validate(complex_)
        self.complex = complex_
        self.cover = cover
        self.dim_cap = dim_cap
        self.a = cover.a
        self.x_only = cover.x - cover.a
        self.y_only = cover.y - cover.a
        # Obstruction records by Complex.content_key, a full key here: every
        # complex recorded is a subcomplex of complex_, a full subcomplex when
        # complex_ is a flag complex.
        self._records = {}
        self.items = [
            _Cross(raw.simplex, self.record(raw.obstruction, raw.certificate))
            for raw in enumerate_p_complement(complex_, cover, dim_cap)
        ]
        self.edge_items = [it for it in self.items if it.dim == 1]
        self._dims = [it.dim for it in self.items]
        # Full coverage: no simplex above dim_cap and, when dim_cap is a flag
        # complex's own cap, none at it, as cliques past the cap go unseen.
        top = dim_cap if complex_.is_flag and dim_cap == complex_.dim_cap else dim_cap + 1
        self.full_coverage = not complex_.has_simplex_of_dim(top)

    def items_through(self, dim):
        """The cross simplices of dimension at most ``dim``: a prefix of
        ``items``, which enumeration orders by dimension."""
        return self.items[: bisect_right(self._dims, dim)]

    def label(self, v):
        return str(self.complex.label_of(v))

    def label_simplex(self, sigma):
        return "{" + ",".join(self.label(v) for v in sigma) + "}"

    def find(self, complex_):
        """The record of a complex already seen in this report, or None."""
        return self._records.get(complex_.content_key())

    def record(self, complex_, central=None):
        """The one record of a complex, classified on first sight: empty, a
        cone on ``central`` when enumeration found it, else by certificate
        search (a cone or a collapse, or homology-only when none is found)."""
        key = complex_.content_key()
        obs = self._records.get(key)
        if obs is None:
            if complex_.is_empty:
                obs = _Obstruction(complex_, STATUS_EMPTY, None)
            elif central is not None:
                cert = ContractibilityCertificate(
                    ContractibilityCertificate.CENTRAL, central=central
                )
                obs = _Obstruction(complex_, STATUS_CONE, cert)
            else:
                cert = contractibility_certificate(complex_)
                if cert is None:
                    status = STATUS_HOMOLOGY_ONLY
                elif cert.kind == ContractibilityCertificate.CENTRAL:
                    status = STATUS_CONE
                else:
                    status = STATUS_COLLAPSE
                obs = _Obstruction(complex_, status, cert)
            self._records[key] = obs
        return obs

    def obstruction_profile(self, obs):
        if obs.profile is None and obs.status != STATUS_EMPTY:
            obs.profile = homology(obs.complex.to_explicit(full=True), "z", reduced=True)
        return obs.profile

    def connectivity(self, obs):
        """(certified contractible, homological connectivity) of an obstruction.

        Homological connectivity is the largest n with trivial reduced
        integral homology through degree n ("all" when it is trivial in
        every degree, -1 when already disconnected, None when empty).  A
        cone or collapse certificate proves the complex contractible, so a
        certified record answers (True, "all") without any homology; only a
        homology-only record is profiled.  Computed once per record.
        """
        if obs.conn is None:
            if obs.status == STATUS_EMPTY:
                obs.conn = (False, None)
            elif obs.certified:
                obs.conn = (True, "all")
            else:
                profile = self.obstruction_profile(obs)
                top = profile.degrees[-1]
                n = -1
                for d in range(0, top + 1):
                    if profile.betti.get(d, 0) == 0 and not profile.torsion_at(d):
                        n = d
                    else:
                        break
                obs.conn = (obs.certified, "all" if n == top else n)
        return obs.conn

    def certain_connectivity(self, obs):
        """Largest n for which "the obstruction is n-connected" is certified.

        Certificates give every n ("all"); otherwise only degree 0 can be
        certified homologically, and anything beyond is inconclusive.
        """
        certified, conn = self.connectivity(obs)
        if conn is None:
            return None
        if certified:
            return "all"
        if conn == -1:
            return -1
        return 0

    def shadow_connectivity(self, obs):
        return self.connectivity(obs)[1]


def _conn_at_least(value, n):
    if value is None:
        return False
    if value == "all":
        return True
    return value >= n


def _claim_weak_equivalence():
    return {"iso_upto": "all", "surj_at": None, "exclude_char": None}


def _claim_connected(n):
    if n == "all":
        return _claim_weak_equivalence()
    return {"iso_upto": n, "surj_at": n + 1, "exclude_char": None}


def _fibers_text(n):
    if n == "all":
        return "the inclusion of the cover union is a weak equivalence"
    return (
        f"homotopy fibers of the cover-union inclusion are {n}-connected: "
        f"homology isomorphism through degree {n}, surjection in degree {n + 1}"
    )


def _scan_best_n(ctx, holds_at):
    """Best n in [0, dim_cap - 1] for an n-indexed criterion.

    ``holds_at(n)`` returns (status, witness, detail).  Scans downward and
    returns the first n that holds, else the n = 0 outcome.
    """
    for n in range(ctx.dim_cap - 1, -1, -1):
        status, witness, detail = holds_at(n)
        if status == HOLDS:
            return n, status, witness, detail
    return 0, *holds_at(0)


# ----------------------------------------------------------------- criteria


def _crit_no_cross(ctx):
    if not ctx.items:
        return CriterionVerdict(
            "no-cross-simplices",
            HOLDS,
            conclusion="no simplex crosses the cover away from the intersection; "
            "the cover union is the whole complex up to weak equivalence",
            claim=_claim_weak_equivalence(),
        )
    return CriterionVerdict(
        "no-cross-simplices",
        FAILS,
        witness=ctx.label_simplex(ctx.items[0].simplex),
        detail=f"{len(ctx.items)} cross simplices up to dimension {ctx.dim_cap}",
    )


def _crit_contractible(ctx):
    vut = None if ctx.full_coverage else ctx.dim_cap
    if not ctx.items:
        return CriterionVerdict(
            "contractible-obstructions",
            HOLDS,
            conclusion=_fibers_text("all"),
            claim=_claim_weak_equivalence(),
            detail="vacuous: no cross simplices",
            verified_up_to=vut,
        )
    for it in ctx.items:
        if it.obs.status == STATUS_EMPTY:
            return CriterionVerdict(
                "contractible-obstructions",
                FAILS,
                witness=ctx.label_simplex(it.simplex),
                detail="empty obstruction complex",
                verified_up_to=vut,
            )
    bad = [it for it in ctx.items if not it.obs.certified]
    if not bad:
        return CriterionVerdict(
            "contractible-obstructions",
            HOLDS,
            conclusion=_fibers_text("all"),
            claim=_claim_weak_equivalence(),
            detail="every obstruction carries a central-simplex or collapse certificate",
            verified_up_to=vut,
        )
    it = bad[0]
    if ctx.shadow_connectivity(it.obs) == "all":
        return CriterionVerdict(
            "contractible-obstructions",
            INCONCLUSIVE,
            witness=ctx.label_simplex(it.simplex),
            detail="integrally acyclic obstruction without a contractibility certificate",
            verified_up_to=vut,
        )
    return CriterionVerdict(
        "contractible-obstructions",
        FAILS,
        witness=ctx.label_simplex(it.simplex),
        detail="obstruction has nontrivial reduced integral homology",
        verified_up_to=vut,
    )


def _crit_acyclic(ctx):
    vut = None if ctx.full_coverage else ctx.dim_cap
    for it in ctx.items:
        if it.obs.status == STATUS_EMPTY:
            return CriterionVerdict(
                "acyclic-obstructions",
                FAILS,
                witness=ctx.label_simplex(it.simplex),
                detail="empty obstruction complex",
                verified_up_to=vut,
            )
        if ctx.shadow_connectivity(it.obs) != "all":
            return CriterionVerdict(
                "acyclic-obstructions",
                FAILS,
                witness=ctx.label_simplex(it.simplex),
                detail="nontrivial reduced integral homology",
                verified_up_to=vut,
            )
    return CriterionVerdict(
        "acyclic-obstructions",
        HOLDS,
        conclusion="the cover-union inclusion is an integral homology isomorphism",
        claim=_claim_weak_equivalence(),
        detail="every obstruction has trivial reduced integral homology"
        + ("" if ctx.items else " (vacuous)"),
        verified_up_to=vut,
    )


def _crit_torsion(ctx):
    vut = None if ctx.full_coverage else ctx.dim_cap
    primes = set()
    for it in ctx.items:
        if it.obs.status == STATUS_EMPTY:
            return CriterionVerdict(
                "torsion-obstructions",
                FAILS,
                witness=ctx.label_simplex(it.simplex),
                detail="empty obstruction complex",
                verified_up_to=vut,
            )
        if it.obs.certified:
            continue        # contractible: no torsion
        profile = ctx.obstruction_profile(it.obs)
        for powers in profile.torsion.values():
            for q in powers:
                primes.update(p for p, _ in linalg.prime_factorization(q))
    if not primes:
        return CriterionVerdict(
            "torsion-obstructions",
            NOT_APPLICABLE,
            detail="no torsion in any obstruction; see the acyclicity criterion",
            verified_up_to=vut,
        )
    if len(primes) > 1:
        return CriterionVerdict(
            "torsion-obstructions",
            FAILS,
            detail=f"torsion at several primes {sorted(primes)}; no single excluded prime",
            verified_up_to=vut,
        )
    p = primes.pop()
    # A contractible record's profile is trivial through its top degree,
    # max(dim, 0) of the complex, fully enumerated.
    tops = [
        max(obs.complex.to_explicit(full=True).dim(), 0)
        for obs in {it.obs for it in ctx.items if it.obs.certified}
    ]
    best = min(tops, default=None)
    for it in ctx.items:
        if it.obs.certified:
            continue
        profile = ctx.obstruction_profile(it.obs)
        if profile.betti.get(0, 0) != 0 or profile.betti.get(-1, 0) != 0:
            return CriterionVerdict(
                "torsion-obstructions",
                FAILS,
                witness=ctx.label_simplex(it.simplex),
                detail="obstruction is not connected",
                verified_up_to=vut,
            )
        top = profile.degrees[-1]
        n = top
        for d in range(1, top + 1):
            if profile.betti.get(d, 0) != 0:
                n = d - 1
                break
        best = n if best is None else min(best, n)
    return CriterionVerdict(
        "torsion-obstructions",
        HOLDS,
        witness=str(p),
        conclusion=(
            f"homology isomorphism through degree {best} and surjection in degree "
            f"{best + 1} with coefficients in any field of characteristic other than {p}"
        ),
        claim={"iso_upto": best, "surj_at": best + 1, "exclude_char": p},
        detail=f"all obstruction homology through degree {best} is {p}-torsion",
        verified_up_to=vut,
    )


def _connectivity_over(ctx, items, n):
    """Status of "every obstruction in items is n-connected"."""
    for it in items:
        if it.obs.status == STATUS_EMPTY:
            return FAILS, ctx.label_simplex(it.simplex), "empty obstruction complex"
        if not _conn_at_least(ctx.shadow_connectivity(it.obs), n):
            return (
                FAILS,
                ctx.label_simplex(it.simplex),
                f"reduced homology obstructs {n}-connectivity",
            )
    if n >= 1:
        for it in items:
            if not it.obs.certified:
                return (
                    INCONCLUSIVE,
                    ctx.label_simplex(it.simplex),
                    "homologically fine but simple connectivity is uncertified",
                )
    return HOLDS, None, None


def _crit_obstruction_connectivity(ctx):
    crit = "obstruction-connectivity"
    vut = None if ctx.full_coverage else ctx.dim_cap
    if not ctx.items:
        return CriterionVerdict(
            crit, NOT_APPLICABLE, detail="no cross simplices", verified_up_to=vut
        )
    certain = [ctx.certain_connectivity(it.obs) for it in ctx.items]
    if any(c is None for c in certain):
        it = ctx.items[[c is None for c in certain].index(True)]
        return CriterionVerdict(
            crit,
            FAILS,
            witness=ctx.label_simplex(it.simplex),
            detail="empty obstruction complex",
            verified_up_to=vut,
        )
    if any(c == -1 for c in certain):
        it = ctx.items[certain.index(-1)]
        return CriterionVerdict(
            crit,
            FAILS,
            witness=ctx.label_simplex(it.simplex),
            detail="disconnected obstruction",
            verified_up_to=vut,
        )
    if all(c == "all" for c in certain):
        n = "all"
    else:
        n = 0
    shadow = min(
        (ctx.shadow_connectivity(it.obs) for it in ctx.items),
        key=lambda v: 10**6 if v == "all" else v,
    )
    detail = None
    if n != "all" and shadow != 0:
        detail = (
            f"homological shadow reaches connectivity {shadow}, but simple "
            "connectivity is uncertified; certified degree stops at 0"
        )
    return CriterionVerdict(
        crit,
        HOLDS,
        conclusion=_fibers_text(n),
        claim=_claim_connected(n),
        detail=detail,
        verified_up_to=vut,
    )


def _crit_skeleton_connectivity(ctx):
    crit = "skeleton-obstruction-connectivity"
    if not ctx.items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross simplices")

    def holds_at(n):
        items = ctx.items_through(n + 1)
        return _connectivity_over(ctx, items, n)

    n, status, witness, detail = _scan_best_n(ctx, holds_at)
    if status == HOLDS:
        return CriterionVerdict(
            crit,
            HOLDS,
            conclusion=_fibers_text(n),
            claim=_claim_connected(n),
            detail=f"obstructions over cross simplices of dimension <= {n + 1}",
        )
    return CriterionVerdict(crit, status, witness=witness, detail=detail)


def _crit_edge_intersection(ctx):
    crit = "edge-intersection-nonempty"
    if not ctx.edge_items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross edges")
    common = set(ctx.edge_items[0].obs.complex.vertices)
    for it in ctx.edge_items[1:]:
        common &= set(it.obs.complex.vertices)
    if common:
        v = min(common)
        return CriterionVerdict(
            crit,
            HOLDS,
            witness=ctx.label(v),
            conclusion="homotopy fibers of the cover-union inclusion are connected: "
            "isomorphism on degree-0 homology, surjection in degree 1",
            claim=_claim_connected(0),
        )
    return CriterionVerdict(
        crit,
        FAILS,
        detail="the edge obstructions share no vertex",
    )


def _constant_family(items):
    """The obstruction record every item shares, or None when they differ."""
    if not items:
        return None
    first = items[0].obs
    if any(it.obs is not first for it in items[1:]):
        return None
    return first


def _status_for_target(cert, conn, n):
    if conn is None:
        return FAILS, "empty complex"
    if not _conn_at_least(conn, n):
        return FAILS, f"reduced homology obstructs {n}-connectivity"
    if n >= 1 and not cert:
        return INCONCLUSIVE, "simple connectivity is uncertified"
    return HOLDS, None


def _crit_constant_obstruction(ctx):
    crit = "constant-obstruction"
    if not ctx.items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross simplices")

    def holds_at(n):
        items = ctx.items_through(n + 1)
        if not items:
            return NOT_APPLICABLE, None, "no cross simplices in range"
        common = _constant_family(items)
        if common is None:
            return FAILS, None, "obstruction complexes differ across cross simplices"
        cert, conn = ctx.connectivity(common)
        status, why = _status_for_target(cert, conn, n)
        return status, None, why

    n, status, witness, detail = _scan_best_n(ctx, holds_at)
    if status == HOLDS:
        return CriterionVerdict(
            crit,
            HOLDS,
            conclusion=_fibers_text(n),
            claim=_claim_connected(n),
            detail="one obstruction complex shared by every cross simplex in range",
        )
    return CriterionVerdict(crit, status, witness=witness, detail=detail)


def _crit_full_intersection(ctx):
    crit = "full-intersection-obstruction"
    if not ctx.items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross simplices")
    # None when no cross simplex has K[A] as its obstruction
    ka = ctx.find(ctx.complex.restrict(ctx.a))

    def holds_at(n):
        items = ctx.items_through(n + 1)
        if not items:
            return NOT_APPLICABLE, None, "no cross simplices in range"
        for it in items:
            if it.obs is not ka:
                return (
                    FAILS,
                    ctx.label_simplex(it.simplex),
                    "obstruction differs from the full intersection restriction",
                )
        if ka.status == STATUS_EMPTY:
            return FAILS, None, "the intersection restriction is empty"
        status, why = _status_for_target(*ctx.connectivity(ka), n)
        return status, None, why

    n, status, witness, detail = _scan_best_n(ctx, holds_at)
    if status == HOLDS:
        return CriterionVerdict(
            crit,
            HOLDS,
            conclusion=_fibers_text(n),
            claim=_claim_connected(n),
            detail="every obstruction equals the intersection restriction",
        )
    return CriterionVerdict(crit, status, witness=witness, detail=detail)


def _crit_all_subsets_extend(ctx):
    crit = "all-intersection-subsets-extend"
    if not ctx.items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross simplices")
    if not ctx.a:
        return CriterionVerdict(crit, FAILS, detail="the intersection is empty")
    a_sorted = tuple(sorted(ctx.a))

    def extends(it):
        return make_simplex(it.simplex + a_sorted) in ctx.complex

    def holds_at(n):
        items = ctx.items_through(n + 1)
        if not items:
            return NOT_APPLICABLE, None, "no cross simplices in range"
        for it in items:
            if not extends(it):
                return (
                    FAILS,
                    ctx.label_simplex(it.simplex),
                    "the simplex does not extend by the whole intersection",
                )
        return HOLDS, None, None

    n, status, witness, detail = _scan_best_n(ctx, holds_at)
    if status == HOLDS:
        best = "all" if all(extends(it) for it in ctx.items) and ctx.full_coverage else n
        return CriterionVerdict(
            crit,
            HOLDS,
            conclusion=_fibers_text(best),
            claim=_claim_connected(best),
            detail="every cross simplex extends by every subset of the intersection",
        )
    return CriterionVerdict(crit, status, witness=witness, detail=detail)


def _crit_singleton_extends(ctx):
    crit = "singleton-intersection-extends"
    if len(ctx.a) != 1:
        return CriterionVerdict(
            crit, NOT_APPLICABLE, detail="the intersection is not a single vertex"
        )
    verdict = _crit_all_subsets_extend(ctx)
    return CriterionVerdict(
        crit,
        verdict.status,
        witness=verdict.witness,
        conclusion=verdict.conclusion,
        claim=verdict.claim,
        detail=verdict.detail,
        verified_up_to=verdict.verified_up_to,
    )


def _crit_one_entry_point(ctx):
    crit = "one-entry-point"
    if not ctx.items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross simplices")
    if not ctx.a:
        return CriterionVerdict(crit, FAILS, detail="the intersection is empty")
    # A cross simplex tau of dimension <= dim_cap splits as sigma + rho, with
    # sigma = tau - A a cross simplex of ctx.items and rho empty or a simplex
    # of obs(sigma); tau + v is a simplex exactly when rho + v is in
    # obs(sigma).  So v extends every such tau with |sigma| <= n + 2 when it
    # is good in obs(sigma) for rho of up to dim_cap + 1 - |sigma| vertices.
    by_size = {}
    for it in ctx.items:
        by_size.setdefault(len(it.simplex), set()).add(it.obs)
    candidates = sorted(ctx.a)

    def holds_at(n):
        ok = set(ctx.a)
        for size, group in by_size.items():
            if size <= n + 2:
                for obs in group:
                    ok &= obs.good(ctx.dim_cap + 1 - size)
        for v in candidates:
            if v in ok:
                return HOLDS, ctx.label(v), None
        return FAILS, None, "no intersection vertex extends every small cross simplex"

    n, status, witness, detail = _scan_best_n(ctx, holds_at)
    if status == HOLDS:
        return CriterionVerdict(
            crit,
            HOLDS,
            witness=witness,
            conclusion=_fibers_text(n),
            claim=_claim_connected(n),
            detail=(
                f"entry point {witness} extends every cross simplex with at most "
                f"{n + 2} vertices outside the intersection"
            ),
            verified_up_to=None if ctx.full_coverage else ctx.dim_cap,
        )
    return CriterionVerdict(crit, status, witness=witness, detail=detail)


# --------------------------------------------------------- clique criteria


def _not_clique(crit):
    return CriterionVerdict(
        crit, NOT_APPLICABLE, detail="only meaningful for flag (clique) complexes"
    )


def _is_standard(obstruction):
    """A complex is a standard simplex when its full vertex set is a simplex."""
    verts = obstruction.vertices
    if not verts:
        return True
    return tuple(verts) in obstruction


def _crit_edge_standard(ctx):
    crit = "edge-standard-obstructions"
    if not ctx.complex.is_flag:
        return _not_clique(crit)
    if not ctx.edge_items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross edges")
    for it in ctx.edge_items:
        if not _is_standard(it.obs.complex):
            return CriterionVerdict(
                crit,
                FAILS,
                witness=ctx.label_simplex(it.simplex),
                detail="edge obstruction is not a standard simplex",
            )

    def holds_at(n):
        items = ctx.items_through(n + 1)
        for it in items:
            if it.obs.status == STATUS_EMPTY:
                return FAILS, ctx.label_simplex(it.simplex), "empty obstruction"
        return HOLDS, None, None

    n, status, witness, detail = _scan_best_n(ctx, holds_at)
    if status == HOLDS:
        return CriterionVerdict(
            crit,
            HOLDS,
            conclusion=_fibers_text(n),
            claim=_claim_connected(n),
            detail="edge obstructions are standard simplices; all obstructions in "
            f"range nonempty through dimension {n + 1}",
        )
    return CriterionVerdict(crit, status, witness=witness, detail=detail)


def _crit_edge_constant(ctx):
    crit = "edge-constant-obstruction"
    if not ctx.complex.is_flag:
        return _not_clique(crit)
    if not ctx.edge_items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross edges")
    common = _constant_family(ctx.edge_items)
    if common is None:
        return CriterionVerdict(
            crit, FAILS, detail="edge obstruction complexes differ"
        )
    cert, conn = ctx.connectivity(common)
    if conn is None:
        return CriterionVerdict(crit, FAILS, detail="the common edge obstruction is empty")
    if conn == -1:
        return CriterionVerdict(
            crit, FAILS, detail="the common edge obstruction is disconnected"
        )
    n = "all" if cert else 0
    detail = None
    if n != "all" and conn != 0:
        detail = (
            f"homological shadow reaches connectivity {conn}; certified degree stops at 0"
        )
    return CriterionVerdict(
        crit,
        HOLDS,
        conclusion=_fibers_text(n),
        claim=_claim_connected(n),
        detail=detail or "one obstruction complex shared by every cross edge",
    )


def _crit_edge_full_intersection(ctx):
    crit = "edge-full-intersection"
    if not ctx.complex.is_flag:
        return _not_clique(crit)
    if not ctx.edge_items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross edges")
    if not ctx.a:
        return CriterionVerdict(crit, FAILS, detail="the intersection is empty")
    for it in ctx.edge_items:
        for v in sorted(ctx.a):
            if make_simplex(it.simplex + (v,)) not in ctx.complex:
                return CriterionVerdict(
                    crit,
                    FAILS,
                    witness=f"{ctx.label_simplex(it.simplex)}+{ctx.label(v)}",
                    detail="a cross edge fails to extend by an intersection vertex",
                )
    cert, conn = ctx.connectivity(ctx.record(ctx.complex.restrict(ctx.a)))
    if conn is None or conn == -1:
        return CriterionVerdict(
            crit, FAILS, detail="the intersection restriction is empty or disconnected"
        )
    n = "all" if cert else 0
    return CriterionVerdict(
        crit,
        HOLDS,
        conclusion=_fibers_text(n),
        claim=_claim_connected(n),
        detail="every cross edge extends by every intersection vertex",
    )


def _crit_edge_pair_extension(ctx):
    crit = "edge-pair-extension"
    if not ctx.complex.is_flag:
        return _not_clique(crit)
    if not ctx.a:
        return CriterionVerdict(crit, FAILS, detail="the intersection is empty")
    if not ctx.edge_items:
        return CriterionVerdict(
            crit,
            HOLDS,
            conclusion=_fibers_text("all"),
            claim=_claim_weak_equivalence(),
            detail="vacuous: no cross edges",
        )
    a_sorted = sorted(ctx.a)
    for it in ctx.edge_items:
        for i, u in enumerate(a_sorted):
            for w in a_sorted[i:]:
                mu = (u,) if u == w else (u, w)
                if make_simplex(it.simplex + mu) not in ctx.complex:
                    return CriterionVerdict(
                        crit,
                        FAILS,
                        witness=f"{ctx.label_simplex(it.simplex)}+{ctx.label_simplex(mu)}",
                        detail="a cross edge fails to extend by a small intersection subset",
                    )
    return CriterionVerdict(
        crit,
        HOLDS,
        conclusion=_fibers_text("all"),
        claim=_claim_weak_equivalence(),
        detail="every cross edge extends by every intersection subset of size <= 2",
    )


def _crit_edge_singleton_extension(ctx):
    crit = "edge-singleton-extension"
    if not ctx.complex.is_flag:
        return _not_clique(crit)
    if len(ctx.a) != 1:
        return CriterionVerdict(
            crit, NOT_APPLICABLE, detail="the intersection is not a single vertex"
        )
    inner = _crit_edge_pair_extension(ctx)
    return CriterionVerdict(
        crit,
        inner.status,
        witness=inner.witness,
        conclusion=inner.conclusion,
        claim=inner.claim,
        detail=inner.detail,
    )


def _edge_obstruction_common_vertices(ctx):
    common = None
    for it in ctx.edge_items:
        verts = set(it.obs.complex.vertices)
        common = verts if common is None else common & verts
    return common or set()


def _crit_clique_entry_adjacent(ctx):
    crit = "clique-entry-point-adjacent"
    if not ctx.complex.is_flag:
        return _not_clique(crit)
    if not ctx.edge_items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross edges")
    for v in sorted(_edge_obstruction_common_vertices(ctx)):
        ok = True
        for it in ctx.edge_items:
            for w in it.obs.complex.vertices:
                if w != v and make_simplex((v, w)) not in ctx.complex:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return CriterionVerdict(
                crit,
                HOLDS,
                witness=ctx.label(v),
                conclusion=_fibers_text("all"),
                claim=_claim_weak_equivalence(),
                detail="an obstruction vertex shared by every cross edge is adjacent "
                "to every vertex of every edge obstruction",
            )
    return CriterionVerdict(
        crit, FAILS, detail="no shared obstruction vertex is adjacent to all obstruction vertices"
    )


def _crit_clique_entry_central(ctx):
    crit = "clique-entry-point-central"
    if not ctx.complex.is_flag:
        return _not_clique(crit)
    if not ctx.edge_items:
        return CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross edges")
    for v in sorted(_edge_obstruction_common_vertices(ctx)):
        if all(v in it.obs.central for it in ctx.edge_items):
            return CriterionVerdict(
                crit,
                HOLDS,
                witness=ctx.label(v),
                conclusion=_fibers_text("all"),
                claim=_claim_weak_equivalence(),
                detail="one vertex is central in every edge obstruction",
            )
    return CriterionVerdict(
        crit, FAILS, detail="no vertex is central in every edge obstruction"
    )


def _crit_clique_entry_local(ctx):
    crit = "clique-entry-point-local"
    if not ctx.complex.is_flag:
        return _not_clique(crit)
    if not ctx.a:
        return CriterionVerdict(crit, FAILS, detail="the intersection is empty")
    # v extends a cross edge e and every e + a in the complex exactly when v
    # is a central vertex of e's obstruction; vacuous without cross edges.
    ok = set(ctx.a)
    for obs in {it.obs for it in ctx.edge_items}:
        ok &= obs.central
    for v in sorted(ctx.a):
        if v in ok:
            return CriterionVerdict(
                crit,
                HOLDS,
                witness=ctx.label(v),
                conclusion=_fibers_text("all"),
                claim=_claim_weak_equivalence(),
                detail="one intersection vertex extends every cross edge and every "
                "cross edge plus one intersection vertex",
            )
    return CriterionVerdict(
        crit, FAILS, detail="no intersection vertex extends all small cross simplices"
    )


def _crit_two_entry_points(ctx):
    crit = "two-entry-points"
    if not ctx.complex.is_flag:
        return _not_clique(crit)
    if not ctx.a:
        return CriterionVerdict(crit, FAILS, detail="the intersection is empty")
    edges = ctx.complex.edges()
    xa_edges = [
        e for e in edges if (e[0] in ctx.a) != (e[1] in ctx.a)
        and (e[0] in ctx.x_only or e[1] in ctx.x_only)
    ]
    ya_edges = [
        e for e in edges if (e[0] in ctx.a) != (e[1] in ctx.a)
        and (e[0] in ctx.y_only or e[1] in ctx.y_only)
    ]
    cross = [it.simplex for it in ctx.edge_items]
    a_sorted = sorted(ctx.a)
    for ax in a_sorted:
        if not all(make_simplex(e + (ax,)) in ctx.complex for e in xa_edges):
            continue
        for ay in a_sorted:
            if not all(make_simplex(e + (ay,)) in ctx.complex for e in ya_edges):
                continue
            if all(make_simplex(t + (ax, ay)) in ctx.complex for t in cross):
                return CriterionVerdict(
                    crit,
                    HOLDS,
                    witness=f"({ctx.label(ax)},{ctx.label(ay)})",
                    conclusion=_fibers_text("all"),
                    claim=_claim_weak_equivalence(),
                    detail="two entry points absorb the side edges and every cross edge",
                )
    return CriterionVerdict(crit, FAILS, detail="no pair of entry points works")


_CRITERION_FUNCS = {
    "no-cross-simplices": _crit_no_cross,
    "contractible-obstructions": _crit_contractible,
    "acyclic-obstructions": _crit_acyclic,
    "torsion-obstructions": _crit_torsion,
    "obstruction-connectivity": _crit_obstruction_connectivity,
    "skeleton-obstruction-connectivity": _crit_skeleton_connectivity,
    "edge-intersection-nonempty": _crit_edge_intersection,
    "constant-obstruction": _crit_constant_obstruction,
    "full-intersection-obstruction": _crit_full_intersection,
    "all-intersection-subsets-extend": _crit_all_subsets_extend,
    "singleton-intersection-extends": _crit_singleton_extends,
    "one-entry-point": _crit_one_entry_point,
    "edge-standard-obstructions": _crit_edge_standard,
    "edge-constant-obstruction": _crit_edge_constant,
    "edge-full-intersection": _crit_edge_full_intersection,
    "edge-pair-extension": _crit_edge_pair_extension,
    "edge-singleton-extension": _crit_edge_singleton_extension,
    "clique-entry-point-adjacent": _crit_clique_entry_adjacent,
    "clique-entry-point-central": _crit_clique_entry_central,
    "clique-entry-point-local": _crit_clique_entry_local,
    "two-entry-points": _crit_two_entry_points,
}


# ----------------------------------------------------------- metric criteria


def _metric_verdicts(mc, ctx):
    """Verdicts for the distance-level hypotheses of a metric cover."""
    sp = mc.space
    verdicts = []
    triangle_witness = metric_mod.is_pseudometric(sp)
    pseudometric = triangle_witness is None
    a_sorted = sorted(mc.a)
    a_labels = mc.labels_of(a_sorted)
    close = sp.closeness(mc.r)
    close_pairs = mc.cross_pairs_within()

    # shared witness point within r of both ends of every close cross pair
    shared = metric_mod.check_shared_witness(mc)
    if shared.ok:
        verdicts.append(
            CriterionVerdict(
                "shared-witness",
                HOLDS,
                witness=str(shared.witness),
                conclusion="homotopy fibers of the cover-union inclusion are "
                "connected: isomorphism on degree-0 homology, surjection in degree 1",
                claim=_claim_connected(0),
            )
        )
    else:
        verdicts.append(
            CriterionVerdict("shared-witness", FAILS, detail=shared.note or None)
        )

    witnesses = metric_mod.shared_witnesses(mc) if shared.ok else []

    # a witness whose ball absorbs every other witness of every close pair
    crit = "witness-ball-closure"
    if not shared.ok:
        verdicts.append(
            CriterionVerdict(crit, NOT_APPLICABLE, detail="needs a shared witness")
        )
    else:
        # shared points within r of both ends of some close cross pair
        pair_witnesses = [
            w for w in a_sorted if any(close[w][i] and close[w][j] for i, j in close_pairs)
        ]
        found = next(
            (v for v in witnesses if all(close[v][w] for w in pair_witnesses)), None
        )
        if found is not None:
            verdicts.append(
                CriterionVerdict(
                    crit,
                    HOLDS,
                    witness=str(sp.labels[found]),
                    conclusion=_fibers_text("all"),
                    claim=_claim_weak_equivalence(),
                    detail="every witness of a close cross pair sits within r of the entry point",
                )
            )
        else:
            verdicts.append(
                CriterionVerdict(
                    crit, FAILS, detail="every shared witness misses some pair witness"
                )
            )

    # diameter of the intersection at most r (with a shared witness)
    crit = "small-intersection-diameter"
    if not shared.ok:
        verdicts.append(
            CriterionVerdict(crit, NOT_APPLICABLE, detail="needs a shared witness")
        )
    elif sp.within(metric_mod.diam(sp, a_labels), mc.r):
        verdicts.append(
            CriterionVerdict(
                crit,
                HOLDS,
                witness=str(metric_mod.diam(sp, a_labels)),
                conclusion=_fibers_text("all"),
                claim=_claim_weak_equivalence(),
                detail="the whole intersection lies within one ball of radius r",
            )
        )
    else:
        verdicts.append(
            CriterionVerdict(
                crit,
                FAILS,
                witness=str(metric_mod.diam(sp, a_labels)),
                detail="the intersection has diameter above r",
            )
        )

    # singleton intersection (with a shared witness)
    crit = "shared-singleton"
    if len(mc.a) != 1:
        verdicts.append(
            CriterionVerdict(crit, NOT_APPLICABLE, detail="the intersection is not a single point")
        )
    elif shared.ok:
        verdicts.append(
            CriterionVerdict(
                crit,
                HOLDS,
                witness=str(a_labels[0]),
                conclusion=_fibers_text("all"),
                claim=_claim_weak_equivalence(),
            )
        )
    else:
        verdicts.append(CriterionVerdict(crit, FAILS, detail=shared.note or None))

    # radius-free domination of cross distances over legs to the intersection
    dom = metric_mod.check_cross_domination(mc)
    if dom.ok:
        verdicts.append(
            CriterionVerdict(
                "cross-domination",
                HOLDS,
                conclusion="for every radius, every intersection point witnesses every "
                "close cross pair; fibers are connected",
                claim=_claim_connected(0),
            )
        )
    else:
        verdicts.append(
            CriterionVerdict(
                "cross-domination",
                FAILS,
                witness=str(dom.witness) if dom.witness else None,
                detail=dom.note or None,
            )
        )

    # domination plus cross distances at least the intersection diameter
    crit = "cross-dominates-diameter"
    if not dom.ok:
        verdicts.append(
            CriterionVerdict(crit, NOT_APPLICABLE, detail="needs cross domination")
        )
    else:
        diameter = metric_mod.diam(sp, a_labels) if a_labels else None
        bad = None
        for i in sorted(mc.x - mc.a):
            for j in sorted(mc.y - mc.a):
                if sp.matrix[i][j] < diameter:
                    bad = (sp.labels[i], sp.labels[j])
                    break
            if bad:
                break
        if bad is None:
            verdicts.append(
                CriterionVerdict(
                    crit,
                    HOLDS,
                    conclusion="weak equivalence at every radius",
                    claim=_claim_weak_equivalence(),
                    detail="every cross distance is at least the intersection diameter",
                )
            )
        else:
            verdicts.append(CriterionVerdict(crit, FAILS, witness=str(bad)))

    # the witness set of a close cross pair does not depend on the pair
    crit = "radius-independence"
    if not ctx.edge_items:
        verdicts.append(CriterionVerdict(crit, NOT_APPLICABLE, detail="no cross edges"))
    else:
        common = _constant_family(ctx.edge_items)
        if common is None:
            verdicts.append(
                CriterionVerdict(
                    crit, FAILS, detail="edge obstruction complexes depend on the pair"
                )
            )
        else:
            cert, conn = ctx.connectivity(common)
            status, why = _status_for_target(cert, conn, 0)
            if status == HOLDS:
                n = "all" if cert else 0
                verdicts.append(
                    CriterionVerdict(
                        crit,
                        HOLDS,
                        conclusion=_fibers_text(n),
                        claim=_claim_connected(n),
                        detail="one witness complex shared by every close cross pair",
                    )
                )
            else:
                verdicts.append(CriterionVerdict(crit, status, detail=why))

    # every intersection point witnesses every close cross pair
    crit = "full-witness-set"
    if not close_pairs:
        verdicts.append(
            CriterionVerdict(crit, NOT_APPLICABLE, detail="no close cross pairs")
        )
    else:
        bad = next(
            (
                (sp.labels[i], sp.labels[j], sp.labels[v])
                for i, j in close_pairs
                for v in a_sorted
                if not (close[i][v] and close[j][v])
            ),
            None,
        )
        if bad is not None:
            verdicts.append(CriterionVerdict(crit, FAILS, witness=str(bad)))
        elif not mc.a:
            verdicts.append(
                CriterionVerdict(crit, FAILS, detail="the intersection is empty")
            )
        else:
            cert, conn = ctx.connectivity(ctx.record(ctx.complex.restrict(ctx.a)))
            status, why = _status_for_target(cert, conn, 0)
            if status == HOLDS:
                n = "all" if cert else 0
                verdicts.append(
                    CriterionVerdict(
                        crit,
                        HOLDS,
                        conclusion=_fibers_text(n),
                        claim=_claim_connected(n),
                        detail="the witness set of every close cross pair is the whole intersection",
                    )
                )
            else:
                verdicts.append(CriterionVerdict(crit, status, detail=why))

    # metric gluing detection (needs the triangle inequality)
    crit = "metric-gluing"
    gluing_witness = None
    if not pseudometric:
        verdicts.append(
            CriterionVerdict(
                crit,
                FAILS,
                witness=str(triangle_witness),
                detail="the triangle inequality fails, so gluing is undefined",
            )
        )
        gluing = False
    else:
        gluing_witness = metric_mod.is_metric_gluing(
            sp, mc.labels_of(sorted(mc.x)), mc.labels_of(sorted(mc.y))
        )
        gluing = gluing_witness is None
        if gluing:
            verdicts.append(
                CriterionVerdict(
                    crit,
                    HOLDS,
                    conclusion="every cross distance is realized through the intersection",
                    detail="triangle inequality verified; gluing equality verified",
                )
            )
        else:
            verdicts.append(
                CriterionVerdict(
                    crit,
                    FAILS,
                    witness=str(gluing_witness),
                    detail="a cross distance beats every detour through the intersection",
                )
            )

    # Both simplex conditions route each close cross pair through a shared
    # point; a gluing along an empty intersection has none (its cross
    # distances are inf, close only at an infinite radius).
    if not gluing:
        needs = "needs a metric gluing"
    elif close_pairs and not mc.a:
        needs = "needs a metric gluing along a nonempty intersection"
    else:
        needs = None

    # gluing + simplex condition
    crit = "gluing-simplex-condition"
    simplex_check = metric_mod.check_simplex_assumption(mc)
    if needs:
        verdicts.append(CriterionVerdict(crit, NOT_APPLICABLE, detail=needs))
    elif simplex_check.ok:
        for it in ctx.edge_items:
            if it.obs.status == STATUS_EMPTY or not _is_standard(it.obs.complex):
                raise AssertionError(
                    "simplex condition certified but an edge obstruction is not a "
                    f"nonempty standard simplex at {ctx.label_simplex(it.simplex)}"
                )
        verdicts.append(
            CriterionVerdict(
                crit,
                HOLDS,
                conclusion="fibers connected: isomorphism on degree-0 homology and a "
                "surjection in degree 1 (triangle inequality used)",
                claim=_claim_connected(0),
                detail="every close cross edge has a nonempty standard-simplex obstruction",
            )
        )
    else:
        verdicts.append(
            CriterionVerdict(crit, FAILS, witness=str(simplex_check.witness))
        )

    # gluing + strong simplex condition
    crit = "gluing-strong-simplex-condition"
    strong_check = metric_mod.check_strong_simplex_assumption(mc)
    if needs:
        verdicts.append(CriterionVerdict(crit, NOT_APPLICABLE, detail=needs))
    elif strong_check.ok:
        for it in ctx.items:
            one_sided = (
                len(set(it.simplex) & ctx.x_only) == len(set(it.simplex) & mc.x) == 1
                or len(set(it.simplex) & ctx.y_only) == len(set(it.simplex) & mc.y) == 1
            )
            standard = it.obs.status != STATUS_EMPTY and _is_standard(it.obs.complex)
            if one_sided and not standard:
                raise AssertionError(
                    "strong simplex condition certified but a one-sided cross simplex "
                    f"has a bad obstruction at {ctx.label_simplex(it.simplex)}"
                )
        verdicts.append(
            CriterionVerdict(
                crit,
                HOLDS,
                conclusion="fibers simply connected: isomorphism on homology in degrees "
                "0 and 1, surjection in degree 2 (triangle inequality used)",
                claim=_claim_connected(1),
                detail="one-sided cross simplices have nonempty standard-simplex "
                "obstructions (verified up to the dimension cap)",
            )
        )
    else:
        verdicts.append(
            CriterionVerdict(crit, FAILS, witness=str(strong_check.witness))
        )

    notes = []
    if pseudometric:
        notes.append("the distance satisfies the triangle inequality")
    else:
        notes.append(
            f"the distance violates the triangle inequality at {triangle_witness}; "
            "gluing criteria are off, all other criteria never use it"
        )
    return verdicts, notes


# ------------------------------------------------------------- verification


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
            induced.append(
                {
                    "field": coeffs,
                    "degree": degree,
                    "rank": rec.rank,
                    "dim_source": rec.dim_source,
                    "dim_target": rec.dim_target,
                    "injective": rec.injective,
                    "surjective": rec.surjective,
                    "iso": rec.iso,
                }
            )
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
    by_dim = {}
    by_status = {}
    for it in ctx.items:
        by_dim[str(it.dim)] = by_dim.get(str(it.dim), 0) + 1
        by_status[it.obs.status] = by_status.get(it.obs.status, 0) + 1
    return {"total": len(ctx.items), "by_dim": by_dim, "by_status": by_status}


def _item_records(ctx, include_profiles):
    """One record per cross simplex.  The labels of each obstruction
    record's vertices and central simplex are made once and copied into
    every cross simplex that shares the record."""
    labels = {}
    records = []
    for it in ctx.items:
        obs, cert = it.obs, it.obs.certificate
        hit = labels.get(obs)
        if hit is None:
            central = None
            if cert is not None and cert.kind == ContractibilityCertificate.CENTRAL:
                central = [ctx.label(v) for v in cert.central]
            hit = labels[obs] = ([ctx.label(v) for v in obs.complex.vertices], central)
        vertices, central = hit
        if cert is None:
            certificate = None
        elif central is not None:
            certificate = {"kind": "central", "simplex": list(central)}
        else:
            certificate = {"kind": "collapse", "steps": len(cert.collapses)}
        rec = {
            "simplex": [ctx.label(v) for v in it.simplex],
            "dim": it.dim,
            "status": obs.status,
            "obstruction_vertices": list(vertices),
            "certificate": certificate,
            "profile": None,
        }
        if include_profiles and obs.status == STATUS_HOMOLOGY_ONLY:
            rec["profile"] = ctx.obstruction_profile(obs).to_dict()
        records.append(rec)
    return records


def _clique_shortcut_audit(ctx, samples=5):
    """On flag complexes the obstruction comes from neighbor intersections;
    spot-check it against the definitional vertex/edge computation."""
    if not ctx.complex.is_flag:
        return
    for it in ctx.items[:samples]:
        sigma = it.simplex
        direct_vertices = [
            v
            for v in sorted(ctx.a)
            if make_simplex(sigma + (v,)) in ctx.complex
        ]
        if list(it.obs.complex.vertices) != direct_vertices:
            raise AssertionError(
                f"obstruction vertices disagree with the definition at {sigma}"
            )
        for i, u in enumerate(direct_vertices):
            for w in direct_vertices[i + 1 :]:
                expected = make_simplex(sigma + (u, w)) in ctx.complex
                got = (u, w) in it.obs.complex
                if expected != got:
                    raise AssertionError(
                        f"obstruction edge ({u},{w}) disagrees with the definition at {sigma}"
                    )


def analyze(complex_, cover, dim_cap=None, fields=("q", "z"), verify=True):
    """Evaluate every decomposition criterion for a complex with a cover.

    When ``verify`` is set the report also carries exact homology profiles of
    the five complexes in the cover square, the induced maps of the union
    inclusion over each requested field, and a soundness block that
    cross-checks every certified conclusion against them.  The report is
    built from one analysis context: the cross simplices are enumerated once,
    and each distinct obstruction complex among them is certified and
    profiled once, however many cross simplices share it.
    """
    if dim_cap is None:
        dim_cap = complex_.dim_cap if complex_.is_flag else 4
    return _analyze(_Context(complex_, cover, dim_cap), fields, verify)


def _analyze(ctx, fields, verify, kind="simplicial", radius=None, verdicts=(), notes=()):
    """The report for a built context; ``verdicts`` and ``notes`` lead.
    A field listed twice is kept once, at its first place."""
    fields = list(dict.fromkeys(fields))
    complex_, cover, dim_cap = ctx.complex, ctx.cover, ctx.dim_cap
    _clique_shortcut_audit(ctx)
    verdicts = list(verdicts)
    for crit in CRITERIA:
        verdicts.append(_CRITERION_FUNCS[crit](ctx))
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
        items=_item_records(ctx, include_profiles=verify),
        verdicts=verdicts,
        profiles=profiles,
        induced=induced,
        soundness={"ok": not failures, "failures": failures},
        notes=list(notes),
    )
    return report


def analyze_metric(mc, dim_cap=4, fields=("q", "z"), verify=True):
    """Build the Vietoris-Rips complex of a metric cover and analyze it,
    together with the distance-level criteria.  One analysis context serves
    both the distance-level and the combinatorial criteria."""
    complex_ = metric_mod.vietoris_rips(mc.space, mc.r, dim_cap)
    ctx = _Context(complex_, Cover(mc.x, mc.y), dim_cap)
    metric_verdicts, notes = _metric_verdicts(mc, ctx)
    return _analyze(ctx, fields, verify, "metric", str(mc.r), metric_verdicts, notes)
