"""Distance spaces, Vietoris-Rips construction, gluings, and the metric
hypotheses as decidable predicates."""

import math
import struct
import tracemalloc
from collections import Counter
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations
from types import SimpleNamespace

import pytest

from ripsdecomp import (
    DistanceSpace,
    InvalidInput,
    MetricCover,
    analyze_metric,
    analyzer,
    check_cross_domination,
    check_shared_witness,
    check_simplex_assumption,
    check_strong_simplex_assumption,
    diam,
    is_metric_gluing,
    is_pseudometric,
    validate,
    vietoris_rips,
)
from ripsdecomp import cli, metric
from ripsdecomp.corpus import space_for
from ripsdecomp.io import load_input
from ripsdecomp.reporting import render_json

from conftest import (
    case_by_name,
    circle_cover,
    close_oracle,
    cross_domination_oracle,
    cross_pairs_oracle,
    full_witness_oracle,
    label_simplices,
    pseudometric_oracle,
    random_metric_cover,
    random_pseudometric,
    rng_for,
    shared_witnesses_oracle,
    simplex_assumption_oracle,
    witness_ball_oracle,
)
from oracles import d_label, glue, metric_gluing_oracle, obstruction, subspace


def mc_for(name, r=None):
    case = case_by_name(name)
    space = space_for(case)
    return MetricCover(space, case.x, case.y, case.r if r is None else r)


class TestValidate:
    def test_nine_point_table_ok(self):
        assert validate(space_for(case_by_name("nine-pt-circle"))) == []

    def test_symmetry_violation_located(self):
        space = DistanceSpace(["1", "2"], [[0, 1], [2, 0]])
        assert validate(space) == [(0, 1)]

    def test_reflexivity_violation_located(self):
        space = DistanceSpace(["1", "2"], [["1/2", 1], [1, 0]])
        assert validate(space) == [(0, 0)]

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInput):
            DistanceSpace(["1", "2"], [[0, 1]])

    def test_negative_rejected(self):
        with pytest.raises(InvalidInput):
            DistanceSpace(["1", "2"], [[0, -1], [-1, 0]])


class TestParseOnce:
    """Each distinct entry is parsed once per matrix, keyed by its type and
    value, so equal values of different types stay apart."""

    def test_mixed_spellings_of_one(self):
        space = DistanceSpace(
            ["a", "b", "c"], [[0, 1, "1"], [1.0, 0, "2/2"], ["1", 1, 0]]
        )
        assert space.matrix == tuple(
            tuple(Fraction(i != j) for j in range(3)) for i in range(3)
        )

    def test_parses_each_distinct_entry_once(self, monkeypatch):
        seen = []
        real = metric.parse_distance
        monkeypatch.setattr(metric, "parse_distance", lambda v: seen.append(v) or real(v))
        DistanceSpace(["a", "b", "c"], [[0, 1, "1"], [1, 0, "1"], ["1", 1.0, 0]])
        keys = [(type(v), v) for v in seen]
        assert keys == [(int, 0), (int, 1), (str, "1"), (float, 1.0)]

    @pytest.mark.parametrize("bad", [True, [1], "x"])
    def test_refusals_unchanged_after_an_equal_entry(self, bad):
        with pytest.raises(InvalidInput) as err:
            DistanceSpace(["a", "b"], [[0, 1], [bad, 0]])
        with pytest.raises(InvalidInput) as alone:
            metric.parse_distance(bad)
        assert str(err.value) == str(alone.value)

    def test_true_after_one_exits_2(self, tmp_path, capsys):
        path = tmp_path / "points.json"
        path.write_text('{"points": ["a", "b"], "distances": [[0, 1], [true, 0]]}')
        assert cli.main(["vr", str(path), "-r", "1"]) == 2
        assert "cannot parse distance True" in capsys.readouterr().err


class TestOutOfRangeDistances:
    """A negative infinity is a negative distance, and a decimal exponent
    past ``MAX_DIGITS`` either way is refused before it is expanded."""

    @pytest.mark.parametrize("value", [-math.inf, Decimal("-Infinity")], ids=["float", "decimal"])
    def test_negative_infinity_is_refused(self, value):
        with pytest.raises(InvalidInput, match="negative distance"):
            metric.parse_distance(value)

    def test_a_negative_infinity_literal_is_refused(self, tmp_path):
        path = tmp_path / "points.json"
        path.write_text('{"points": ["a", "b"], "distances": [[0, -Infinity], [-Infinity, 0]]}')
        with pytest.raises(InvalidInput, match="negative distance -inf"):
            load_input(path)

    @pytest.mark.parametrize(
        "value",
        ["1e999999999", "1e-999999999", Decimal("1E+999999999"), " 2E+4301 ", Decimal("1e-4301")],
    )
    def test_a_huge_exponent_is_refused(self, value):
        with pytest.raises(InvalidInput, match="exponent beyond 4300 digits"):
            metric.parse_distance(value)

    def test_exponents_within_the_bound_parse_exactly(self):
        assert metric.parse_distance("1e4000") == 10**4000
        assert metric.parse_distance(Decimal("1e-4300")) == Fraction(1, 10**4300)
        assert metric.parse_distance("0.5e-4299") == Fraction(1, 2 * 10**4299)


class TestTablesAgainstEachEntry:
    """The two tables of a space, read per distinct entry, against
    ``parse_distance`` applied to every entry on its own."""

    # spellings of one exact value each; 2**60 and float(2**60) are equal
    # as Python numbers but parse to different rationals
    SPELLINGS = (
        (0, 0.0, "0", Decimal("0.00")),
        (1, 1.0, "1", "2/2", Fraction(1), Decimal("1.0")),
        (0.25, "0.25", "1/4", Decimal("0.25")),
        (0.1, "0.1", "1/10", Decimal("0.1")),
        ("2/3", Fraction(2, 3), " 4/6 "),
        (3, "3", 3.0),
        (2**60, str(2**60)),
        (float(2**60), "1.152921504606847e+18"),
        ("inf", math.inf, "Infinity", "+inf"),
    )
    BAD = (True, False, -1, -0.5, "-1/2", math.nan, None, [1], {}, "x", Decimal("-0.1"))

    @staticmethod
    def oracle(rows):
        return tuple(tuple(metric.parse_distance(v) for v in row) for row in rows)

    def random_rows(self, rng, n, symmetric):
        groups = self.SPELLINGS[1:]
        rows = [[rng.choice(self.SPELLINGS[0]) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(n if not symmetric else i):
                if i == j and rng.random() < 0.8:
                    continue
                group = rng.choice(groups)
                rows[i][j] = rng.choice(group)
                if symmetric:
                    rows[j][i] = rng.choice(group)
        return rows

    def test_matrix_scaling_closeness_and_edges(self):
        rng = rng_for(1501)
        seen = {"mixed": 0, "one-type": 0, "valid": 0, "edges": 0, "inf": 0}
        for trial in range(400):
            n = trial % 8
            rows = self.random_rows(rng, n, symmetric=rng.random() < 0.6)
            space = DistanceSpace([f"p{i}" for i in range(n)], rows)
            exact = self.oracle(rows)
            assert space.matrix == exact
            scale, sentinel, ints = space.scaled()
            finite = [v for row in exact for v in row if v != math.inf]
            assert sentinel == 2 * max((v * scale for v in finite), default=0) + 1
            assert ints == tuple(
                tuple(sentinel if v == math.inf else int(v * scale) for v in row)
                for row in exact
            )
            assert all((v * scale).denominator == 1 for v in finite)
            for r in (*map(Fraction, (0, "1/4", "2/3", 1, 2**60)), math.inf):
                close = space.closeness(r)
                assert len(close) == n and all(type(m) is int and m >> n == 0 for m in close)
                assert [[bool(mask >> j & 1) for j in range(n)] for mask in close] == [
                    [v <= r for v in row] for row in exact
                ]
                if validate(space):
                    continue
                pairs = combinations(range(n), 2)
                edges = [(i, j) for i, j in pairs if exact[i][j] <= r]
                assert vietoris_rips(space, r, 1).edges() == edges
                seen["edges"] += len(edges)
            seen["mixed" if len({type(v) for row in rows for v in row}) > 1 else "one-type"] += 1
            seen["valid"] += not validate(space)
            seen["inf"] += sentinel in (v for row in ints for v in row)
        assert min(seen.values()) >= 20, seen

    def test_one_type_matrices(self):
        rng = rng_for(1502)
        for spelling in (int, float, str, Decimal, Fraction):
            for _ in range(20):
                n = rng.randint(1, 6)
                rows = [
                    [spelling(rng.choice((0, 1, 2, 5)) if i != j else 0) for j in range(n)]
                    for i in range(n)
                ]
                space = DistanceSpace(list(range(n)), rows)
                assert space.matrix == self.oracle(rows)

    def test_the_first_bad_entry_in_row_order_is_named(self):
        rng = rng_for(1503)
        for trial in range(300):
            n = trial % 5 + 1
            rows = self.random_rows(rng, n, symmetric=False)
            for _ in range(rng.randint(1, 3)):
                rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(self.BAD)
            first = next(v for row in rows for v in row if self.refusal(v) is not None)
            with pytest.raises(InvalidInput) as err:
                DistanceSpace([f"p{i}" for i in range(n)], rows)
            assert str(err.value) == self.refusal(first)

    @staticmethod
    def refusal(value):
        try:
            metric.parse_distance(value)
        except InvalidInput as exc:
            return str(exc)
        return None

    def test_a_value_only_key_would_merge_two_to_the_sixty(self):
        rows = [[0, 2**60], [float(2**60), 0]]
        by_value = {v: metric.parse_distance(v) for v in dict.fromkeys(chain.from_iterable(rows))}
        assert tuple(tuple(map(by_value.__getitem__, row)) for row in rows) != self.oracle(rows)
        assert DistanceSpace("ab", rows).matrix == self.oracle(rows)
        assert DistanceSpace("ab", rows).matrix[1][0] == Fraction("1.152921504606847e+18")


class TestPseudometric:
    def test_packed_screen_reports_exactly_the_violating_pairs(self):
        rng = rng_for(314)
        fired = 0
        shared = Counter()      # the lift table, or a lift made per pair
        for _ in range(600):
            n = rng.randint(0, 9)
            top = rng.choice((1, 2, 3, 7, 8, 1000, 2**40))
            rows = [[rng.choice((0, 1, top // 2, top - 1, top, rng.randint(0, top))) for _ in range(n)] for _ in range(n)]
            expected = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if any(rows[i][k] > rows[i][j] + rows[j][k] for k in range(n))
            ]
            assert list(metric._triangle_screen(rows)) == expected
            fired += bool(expected)
            shared[len(set(chain.from_iterable(rows))) <= n] += 1
        assert 100 < fired < 550
        assert min(shared.values()) > 100, shared

    @staticmethod
    def packed_formats(monkeypatch):
        """The struct formats the screen packs with, in order."""
        formats = []

        def recorded(fmt):
            formats.append(fmt[-1])
            return struct.Struct(fmt)

        monkeypatch.setattr(metric, "struct", SimpleNamespace(Struct=recorded))
        return formats

    def test_every_field_width_against_the_pair_list(self, monkeypatch):
        # tops on each side of every byte boundary: 1-, 2-, 4- and 8-byte
        # fields, then 9 and 10 bytes, packed by to_bytes
        widths = {31: "B", 32: "H", 2**13 - 1: "H", 2**13: "I", 2**29 - 1: "I",
                  2**29: "Q", 2**61 - 1: "Q", 2**61: None, 2**70: None}
        formats = self.packed_formats(monkeypatch)
        rng = rng_for(315)
        fired = Counter()
        for trial in range(450):
            top = list(widths)[trial % len(widths)]
            n = rng.randint(1, 8)
            picks = (0, 1, top // 2, top - 1, top)
            rows = [[rng.choice((*picks, rng.randint(0, top))) for _ in range(n)] for _ in range(n)]
            rows[rng.randrange(n)][rng.randrange(n)] = top
            expected = [
                (i, j)
                for i in range(n)
                for j in range(n)
                if any(rows[i][k] > rows[i][j] + rows[j][k] for k in range(n))
            ]
            del formats[:]
            assert list(metric._triangle_screen(rows)) == expected
            assert formats == ([widths[top]] if widths[top] else [])
            fired[widths[top], bool(expected)] += 1
        assert min(fired.values()) >= 10 and len(fired) == 10, fired

    def test_the_sentinel_sets_the_field_width(self, monkeypatch):
        # finite entries up to 20 fit a byte, their sentinel 41 does not;
        # finite entries up to 2**60 fit 8 bytes, their sentinel does not
        formats = self.packed_formats(monkeypatch)
        rng = rng_for(316)
        seen = Counter()
        for trial in range(200):
            top, want = (20, "H") if trial % 2 else (2**60, None)
            n = rng.randint(2, 7)
            picks = (0, 1, top // 2, top, math.inf)
            base = [[rng.choice(picks) for _ in range(n)] for _ in range(n)]
            base[0][1] = top
            base[1][0] = math.inf
            space = DistanceSpace([f"p{i}" for i in range(n)], base)
            del formats[:]
            expected = pseudometric_oracle(space)
            assert is_pseudometric(space) == expected
            assert formats == ([want] if want else [])
            seen[want, expected is None] += 1
        assert min(seen.values()) >= 10 and len(seen) == 4, seen

    def test_many_distinct_distances_keep_the_screen_small(self):
        # an L-infinity cloud with 6-decimal coordinates: about n^2 / 2
        # distinct distances, where one 480-byte lift per value held 4.5 MB
        rng = rng_for(317)
        n = 120
        pts = [(rng.randrange(10**6), rng.randrange(10**6)) for _ in range(n)]
        rows = [[Decimal(max(abs(p[0] - q[0]), abs(p[1] - q[1]))).scaleb(-6) for q in pts] for p in pts]
        space = DistanceSpace([f"p{i}" for i in range(n)], rows)
        assert len(set(chain.from_iterable(space.scaled()[2]))) > 7000
        tracemalloc.start()
        try:
            assert is_pseudometric(space) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_eight_point_table_is_metric(self):
        assert is_pseudometric(space_for(case_by_name("eight-pt-s3"))) is None

    def test_witness_triple(self):
        space = DistanceSpace(
            ["x", "y", "z"], [[0, 1, 3], [1, 0, 1], [3, 1, 0]]
        )
        assert is_pseudometric(space) == ("x", "y", "z")

    def test_glue_outputs_are_pseudometrics(self):
        rng = rng_for(201)
        for _ in range(20):
            shared = ["s0", "s1"]
            dx = random_pseudometric(rng, shared + ["p0", "p1"])
            dy_raw = random_pseudometric(rng, shared + ["q0"])
            # force agreement on the shared block
            matrix = [list(row) for row in dy_raw.matrix]
            for i, a in enumerate(shared):
                for j, b in enumerate(shared):
                    matrix[i][j] = d_label(dx, a, b)
            dy = DistanceSpace(dy_raw.labels, matrix)
            if is_pseudometric(dy) is not None:
                continue
            glued = glue(dx, dy, shared)
            assert is_pseudometric(glued) is None

    def test_matches_the_rational_oracle_with_its_first_witness(self):
        rng = rng_for(211)
        violating = 0
        for trial in range(400):
            n = trial % 7
            labels = [f"p{i}" for i in range(n)]
            if rng.random() < 0.5:
                space = random_pseudometric(rng, labels, 4, (1, 2, 3, 7))
                base = [list(row) for row in space.matrix]
            else:
                # unvalidated: asymmetric, nonzero diagonal
                base = [
                    [Fraction(rng.randint(0, 9), rng.choice((1, 2, 5, 6))) for _ in labels]
                    for _ in labels
                ]
            for _ in range(rng.randint(0, 3) if n else 0):
                i, j = rng.randrange(n), rng.randrange(n)
                base[i][j] = rng.choice(
                    [math.inf, Fraction(rng.randint(0, 30), rng.randint(1, 11))]
                )
                if rng.random() < 0.7:
                    base[j][i] = base[i][j]
            space = DistanceSpace(labels, base)
            expected = pseudometric_oracle(space)
            assert is_pseudometric(space) == expected, base
            violating += expected is not None
        assert 100 < violating < 300

    def test_infinity_against_finite_sums(self):
        inf = math.inf
        split = DistanceSpace("abc", [[0, 1, inf], [1, 0, inf], [inf, inf, 0]])
        assert is_pseudometric(split) is None
        bridged = DistanceSpace("abc", [[0, 1, inf], [1, 0, 1], [inf, 1, 0]])
        assert is_pseudometric(bridged) == pseudometric_oracle(bridged) == ("a", "b", "c")
        assert is_pseudometric(DistanceSpace([], [])) is None
        assert is_pseudometric(DistanceSpace(["a"], [[inf]])) is None


class TestDiam:
    def test_singleton(self):
        space = space_for(case_by_name("nine-pt-circle"))
        assert diam(space, ["z3"]) == 0

    def test_inscribed_triangle(self):
        space = space_for(case_by_name("nine-pt-circle"))
        assert diam(space, ["z1", "z4", "z7"]) == 3

    def test_matches_pairwise_scan(self):
        rng = rng_for(202)
        space = random_pseudometric(rng, [f"p{i}" for i in range(7)])
        for _ in range(20):
            pts = rng.sample(space.labels, rng.randint(1, 7))
            brute = max(
                (d_label(space, a, b) for a, b in combinations(pts, 2)),
                default=Fraction(0),
            )
            assert diam(space, pts) == brute

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            diam(space_for(case_by_name("nine-pt-circle")), [])


class TestVietorisRips:
    def test_below_minimum_distance_is_discrete(self):
        space = space_for(case_by_name("nine-pt-circle"))
        k = vietoris_rips(space, "1/2", 2)
        assert len(k.simplices()) == 9

    def test_nine_point_profile(self):
        from ripsdecomp import homology

        space = space_for(case_by_name("nine-pt-circle"))
        k = vietoris_rips(space, 3, 4)
        assert homology(k, "q", max_deg=4).betti_vector(0, 4) == (0, 0, 2, 0, 0)

    def test_a_negative_cap_is_refused_before_the_closeness_masks(self, monkeypatch):
        space = space_for(case_by_name("nine-pt-circle"))

        def built(self, r):
            raise AssertionError("closeness masks built for a refused cap")

        monkeypatch.setattr(DistanceSpace, "closeness", built)
        with pytest.raises(InvalidInput, match="dim_cap must be nonnegative"):
            vietoris_rips(space, 3, -1)

    def test_threshold_monotone(self):
        space = space_for(case_by_name("nine-pt-circle"))
        small = set(vietoris_rips(space, 1, 1).edges())
        large = set(vietoris_rips(space, 2, 1).edges())
        assert small <= large

    def test_restriction_identity(self):
        rng = rng_for(203)
        for name in ("nine-pt-circle", "eight-pt-s3", "six-pt-entry"):
            case = case_by_name(name)
            space = space_for(case)
            k = vietoris_rips(space, case.r, 3)
            subset = rng.sample(space.labels, rng.randint(1, len(space.labels)))
            restricted = k.restrict({space.index(p) for p in subset})
            direct = vietoris_rips(subspace(space, subset), case.r, 3)
            assert label_simplices(restricted) == label_simplices(direct)


class TestGlue:
    def test_one_side_contained_degenerates(self):
        rng = rng_for(204)
        dx = random_pseudometric(rng, ["a", "b", "c", "d"])
        dy = subspace(dx, ["b", "c"])
        glued = glue(dx, dy, ["b", "c"])
        assert glued.labels == dx.labels
        assert glued.matrix == dx.matrix

    def test_eight_point_halves_reproduce_cross_distances(self):
        case = case_by_name("eight-pt-s3")
        space = space_for(case)
        shared = ["a11", "a12", "a21", "a22"]
        dx = subspace(space, ["x1", "x2"] + shared)
        dy = subspace(space, shared + ["y1", "y2"])
        glued = glue(dx, dy, shared)
        for p in space.labels:
            for q in space.labels:
                assert d_label(glued, p, q) == d_label(space, p, q)

    def test_disagreement_rejected(self):
        dx = DistanceSpace(["a", "x"], [[0, 1], [1, 0]])
        dy = DistanceSpace(["a", "y"], [[0, 2], [2, 0]])
        glue(dx, dy, ["a"])  # fine: "a" alone carries no distances
        dx2 = DistanceSpace(["a", "b", "x"], [[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        dy2 = DistanceSpace(["a", "b", "y"], [[0, 2, 1], [2, 0, 1], [1, 1, 0]])
        with pytest.raises(InvalidInput, match="disagree"):
            glue(dx2, dy2, ["a", "b"])

    def test_empty_shared_part_warns_and_gives_infinite(self):
        dx = DistanceSpace(["x"], [[0]])
        dy = DistanceSpace(["y"], [[0]])
        with pytest.warns(UserWarning):
            glued = glue(dx, dy, [])
        assert d_label(glued, "x", "y") == float("inf")

    def test_output_is_metric_gluing(self):
        rng = rng_for(205)
        for _ in range(15):
            shared = ["s0", "s1"]
            dx = random_pseudometric(rng, shared + ["p0", "p1"])
            dy = DistanceSpace(
                subspace(dx, shared).labels + ("q0",),
                [
                    [d_label(dx, "s0", "s0"), d_label(dx, "s0", "s1"), 2],
                    [d_label(dx, "s1", "s0"), d_label(dx, "s1", "s1"), 3],
                    [2, 3, 0],
                ],
            )
            if is_pseudometric(dy) is not None:
                continue
            glued = glue(dx, dy, shared)
            assert is_metric_gluing(glued, dx.labels, dy.labels) is None


class TestIsMetricGluing:
    def test_eight_point_table(self):
        case = case_by_name("eight-pt-s3")
        assert is_metric_gluing(space_for(case), case.x, case.y) is None

    def test_shortcut_not_through_intersection(self):
        # four points, the cross pair cheaper than any detour
        space = DistanceSpace(
            ["p", "a", "b", "q"],
            [
                [0, 1, 1, "141/100"],
                [1, 0, "141/100", 1],
                [1, "141/100", 0, 1],
                ["141/100", 1, 1, 0],
            ],
        )
        assert is_pseudometric(space) is None
        assert is_metric_gluing(space, ["p", "a", "b"], ["a", "b", "q"]) == ("p", "q")

    @pytest.mark.parametrize("cross, witness", [("2", False), ("5/2", True), ("inf", True)])
    def test_a_cross_distance_off_its_route_is_a_witness(self, cross, witness):
        """x - a - y with legs of 1: the route is 2, and only a cross
        distance of exactly 2 is realized."""
        space = DistanceSpace(["x", "a", "y"], [[0, 1, cross], [1, 0, 1], [cross, 1, 0]])
        expected = ("x", "y") if witness else None
        assert is_metric_gluing(space, ["x", "a"], ["a", "y"]) == expected
        assert metric_gluing_oracle(space, ["x", "a"], ["a", "y"]) == expected

    def test_matches_the_rational_oracle_with_infinities(self):
        """Scaled-int gluing test against the ``Fraction`` oracle on seeded
        tables with infinite entries, unvalidated tables and empty
        intersections: the same first witness pair, or None on both sides.
        Half the tables set each cross distance to its route through the
        intersection plus a small offset, often 0, so realized pairs and
        pairs just off their route both occur."""
        rng = rng_for(215)
        seen = Counter()
        for _ in range(1000):
            n = rng.randint(1, 7)
            labels = [f"p{i}" for i in range(n)]
            shared = rng.choice((0, 0.3))
            x, y = [], []
            for i in range(n):
                roll = rng.random()
                if roll < shared + (1 - shared) / 2:
                    x.append(i)
                if roll < shared or roll >= shared + (1 - shared) / 2:
                    y.append(i)
            a = set(x) & set(y)
            cross = [(i, j) for i in x if i not in a for j in y if j not in a]
            matrix = [[Fraction(0)] * n for _ in range(n)]
            for i, j in combinations(range(n), 2):
                if rng.random() < 0.25:
                    v = math.inf
                else:
                    v = Fraction(rng.randint(0, 12), rng.choice((1, 2, 3, 7)))
                matrix[i][j] = v
                matrix[j][i] = v if rng.random() < 0.9 else Fraction(rng.randint(0, 12))
            if rng.random() < 0.5:
                for i, j in cross:
                    route = min((matrix[i][k] + matrix[k][j] for k in a), default=math.inf)
                    offset = rng.choice((0, Fraction(1, 7), Fraction(1, 2), Fraction(3, 2)))
                    matrix[i][j] = matrix[j][i] = route + offset
            space = DistanceSpace(labels, matrix)
            x, y = [labels[i] for i in x], [labels[j] for j in y]
            expected = metric_gluing_oracle(space, x, y)
            assert is_metric_gluing(space, x, y) == expected, (matrix, x, y)
            seen["witness" if expected else "realized"] += 1
            seen["inf-realized"] += expected is None and any(
                matrix[i][j] == math.inf for i, j in cross
            )
            seen["no-intersection"] += not a and bool(cross)
        assert len(seen) == 4 and min(seen.values()) >= 200, seen


class TestSharedWitness:
    def test_square_holds_with_first_point(self):
        res = check_shared_witness(mc_for("square-4pt"))
        assert res.ok and res.witness == "a"

    def test_empty_intersection_fails(self):
        space = DistanceSpace(["x", "y"], [[0, 1], [1, 0]])
        res = check_shared_witness(MetricCover(space, ["x"], ["y"], 1))
        assert not res.ok

    def test_vacuous_when_no_close_cross_pairs(self):
        space = DistanceSpace(
            ["x", "a", "y"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        )
        res = check_shared_witness(MetricCover(space, ["x", "a"], ["a", "y"], 1))
        assert res.ok and res.witness == "a"

    def test_cross_pairs_computed_once_in_point_order(self):
        mc = circle_cover(12)
        first = mc.cross_pairs_within()
        sp = mc.space
        assert first == [
            (i, j)
            for i in sorted(mc.x - mc.a)
            for j in sorted(mc.y - mc.a)
            if sp.matrix[i][j] <= mc.r
        ]
        assert first
        analyze_metric(mc, dim_cap=2, verify=False)
        assert mc.cross_pairs_within() is first


class TestCrossDomination:
    def test_collinear_midpoint_holds(self):
        space = DistanceSpace(
            ["x", "v", "y"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        )
        assert check_cross_domination(MetricCover(space, ["x", "v"], ["v", "y"], 1)).ok

    def test_far_witness_point(self):
        space = DistanceSpace(
            ["x", "v", "y"], [[0, 2, 1], [2, 0, 1], [1, 1, 0]]
        )
        res = check_cross_domination(MetricCover(space, ["x", "v"], ["v", "y"], 1))
        assert not res.ok and res.witness == ("x", "y", "v")

    def test_empty_intersection_fails_with_reason(self):
        space = DistanceSpace(["x", "y"], [[0, 1], [1, 0]])
        res = check_cross_domination(MetricCover(space, ["x"], ["y"], 1))
        assert not res.ok and res.note

    @staticmethod
    def one_point_gluing(rng, n):
        """Two segments glued at 0: n points at random positions on each
        side, in shuffled label order, with the glue point v in the middle."""
        pos = {"v": 0}
        for i in range(n):
            pos[f"x{i}"] = -rng.randint(1, 9)
            pos[f"y{i}"] = rng.randint(1, 9)
        labels = list(pos)
        rng.shuffle(labels)
        rows = [[abs(pos[p] - pos[q]) for q in labels] for p in labels]
        x = [lab for lab in labels if lab[0] in "xv"]
        y = [lab for lab in labels if lab[0] in "yv"]
        return labels, rows, x, y

    def test_one_point_gluing_of_121_points(self):
        rng = rng_for(207)
        labels, rows, x, y = self.one_point_gluing(rng, 60)
        mc = MetricCover(DistanceSpace(labels, rows), x, y, 2)
        assert cross_domination_oracle(mc) is None
        assert check_cross_domination(mc) == (True, None, "")
        # shorten only the last cross pair in scan order below its longer leg
        i, j = max(mc.x - mc.a), max(mc.y - mc.a)
        v = labels.index("v")
        rows[i][j] = rows[j][i] = max(rows[i][v], rows[j][v]) - 1
        mc = MetricCover(DistanceSpace(labels, rows), x, y, 2)
        expected = cross_domination_oracle(mc)
        assert expected == (labels[i], labels[j], "v")
        assert check_cross_domination(mc) == (False, expected, "")

    def test_singleton_domination_implies_shared_witness(self):
        rng = rng_for(206)
        found = 0
        for _ in range(40):
            labels = ["v"] + [f"x{i}" for i in range(2)] + [f"y{i}" for i in range(2)]
            space = random_pseudometric(rng, labels)
            mc = MetricCover(
                space, ["v", "x0", "x1"], ["v", "y0", "y1"],
                rng.randint(1, 8),
            )
            if check_cross_domination(mc).ok:
                found += 1
                assert check_shared_witness(mc).ok
        assert found > 0


class TestSimplexAssumptions:
    def test_eight_point_both_hold(self):
        mc = mc_for("eight-pt-s3")
        assert check_simplex_assumption(mc).ok
        assert check_strong_simplex_assumption(mc).ok

    def test_five_point_simplex_holds_strong_fails(self):
        mc = mc_for("five-pt-gluing")
        assert check_simplex_assumption(mc).ok
        strong = check_strong_simplex_assumption(mc)
        assert not strong.ok
        assert strong.witness == ("y", "a1", "a2")

    def test_both_checks_share_one_scan(self, monkeypatch):
        """One pass over the near pairs answers both checks, kept on the
        cover: a second call of either scans nothing."""
        calls = []
        real = metric._cross_edge_vertices
        monkeypatch.setattr(metric, "_cross_edge_vertices", lambda mc: calls.append(1) or real(mc))
        mc = mc_for("five-pt-gluing")
        simplex, strong = check_simplex_assumption(mc), check_strong_simplex_assumption(mc)
        assert check_simplex_assumption(mc) is simplex
        assert check_strong_simplex_assumption(mc) is strong
        assert calls == [1]

    def test_far_apart_intersection_witness(self):
        # both intersection points sit within r of the cross edge's ends but
        # lie 2r apart from each other
        space = DistanceSpace(
            ["x", "a", "b", "y"],
            [
                [0, 1, 1, 1],
                [1, 0, 2, 1],
                [1, 2, 0, 1],
                [1, 1, 1, 0],
            ],
        )
        mc = MetricCover(space, ["x", "a", "b"], ["a", "b", "y"], 1)
        res = check_simplex_assumption(mc)
        assert not res.ok and res.witness == ("x", "a", "b")

    def test_strong_arithmetic_witness(self):
        space = DistanceSpace(
            ["x", "a", "b", "y"],
            [
                [0, "1/2", "1/2", 1],
                ["1/2", 0, 1, "1/2"],
                ["1/2", 1, 0, "1/2"],
                [1, "1/2", "1/2", 0],
            ],
        )
        mc = MetricCover(space, ["x", "a", "b"], ["a", "b", "y"], 1)
        assert check_simplex_assumption(mc).ok
        res = check_strong_simplex_assumption(mc)
        assert not res.ok and res.witness == ("x", "a", "b")

    def test_strong_implies_simplex_on_random_instances(self):
        rng = rng_for(207)
        strong_hits = 0
        for _ in range(60):
            labels = [f"x{i}" for i in range(2)] + ["a0", "a1"] + [f"y{i}" for i in range(2)]
            space = random_pseudometric(rng, labels, max_whole=4)
            mc = MetricCover(
                space,
                ["x0", "x1", "a0", "a1"],
                ["a0", "a1", "y0", "y1"],
                rng.randint(2, 6),
            )
            if check_strong_simplex_assumption(mc).ok:
                strong_hits += 1
                assert check_simplex_assumption(mc).ok
        assert strong_hits > 0

    def test_simplex_assumption_matches_standard_simplex_stars(self):
        # equivalent form: the obstruction of every cross-edge vertex over the
        # intersection is a standard simplex
        for name in ("eight-pt-s3", "five-pt-gluing", "square-4pt"):
            case = case_by_name(name)
            space = space_for(case)
            mc = MetricCover(space, case.x, case.y, case.r)
            k = vietoris_rips(space, case.r, 4)
            a = {space.index(p) for p in set(case.x) & set(case.y)}
            verdict = check_simplex_assumption(mc).ok
            stars_standard = True
            for i, j in mc.cross_pairs_within():
                for v in (i, j):
                    obs = obstruction(k, (v,), a)
                    verts = tuple(obs.vertices)
                    if verts and verts not in obs:
                        stars_standard = False
            assert verdict == stars_standard


class TestCoverValidation:
    def test_cover_must_use_every_point(self):
        space = DistanceSpace(
            ["x", "a", "y"], [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        )
        from ripsdecomp import CoverError

        with pytest.raises(CoverError):
            MetricCover(space, ["x"], ["y"], 1)


class TestAnalyzeMetric:
    def test_gluing_along_an_empty_intersection_at_infinite_radius(self):
        # the cross pair is close only because r is inf; its obstruction over
        # the empty intersection is empty, so neither simplex condition applies
        space = DistanceSpace(["x", "y"], [[0, math.inf], [math.inf, 0]])
        report = analyze_metric(MetricCover(space, ["x"], ["y"], math.inf), dim_cap=2)
        assert report.verdict("metric-gluing").status == "holds"
        for crit in ("gluing-simplex-condition", "gluing-strong-simplex-condition"):
            verdict = report.verdict(crit)
            assert verdict.status == "not_applicable"
            assert verdict.detail == "needs a metric gluing along a nonempty intersection"
        assert report.soundness["ok"]

    @pytest.mark.parametrize("kind", ["circle-42", "grid-60"])
    def test_the_report_path_builds_no_exact_table(self, kind):
        rng = rng_for(719)
        if kind == "circle-42":
            n, r = 42, Fraction(21, 2)
            rows = [[min(abs(i - j), n - abs(i - j)) for j in range(n)] for i in range(n)]
        else:
            n, r = 60, 2
            pts = rng.sample([(a, b) for a in range(9) for b in range(9)], n)
            rows = [[max(abs(p[0] - q[0]), abs(p[1] - q[1])) for q in pts] for p in pts]
        labels = [f"p{i}" for i in range(n)]
        mc = MetricCover(
            DistanceSpace(labels, rows), labels[0::3] + labels[1::3], labels[0::3] + labels[2::3], r
        )
        render_json(analyze_metric(mc, dim_cap=3, verify=False))
        assert mc.space._matrix is None
        assert mc.space.matrix == TestTablesAgainstEachEntry.oracle(rows)

    @staticmethod
    def two_point_intersection():
        """A = {a1, a2} at distance 3, X = A + x, Y = A + y, r = 2: the
        gluing holds, but the cross edge {x, y} sees both of a1 and a2, which
        are not close, so both simplex conditions fail."""
        rows = [[0, 3, 1, 1], [3, 0, 2, 2], [1, 2, 0, 2], [1, 2, 2, 0]]
        space = DistanceSpace(["a1", "a2", "x", "y"], rows)
        return MetricCover(space, ["a1", "a2", "x"], ["a1", "a2", "y"], 2)

    @pytest.mark.parametrize(
        "check, criterion",
        [
            ("check_simplex_assumption", "gluing-simplex-condition"),
            ("check_strong_simplex_assumption", "gluing-strong-simplex-condition"),
        ],
    )
    def test_a_simplex_check_that_passes_wrongly_trips_the_self_check(
        self, monkeypatch, check, criterion
    ):
        report = analyze_metric(self.two_point_intersection(), dim_cap=3)
        assert report.verdict("metric-gluing").status == "holds"
        verdict = report.verdict(criterion)
        assert (verdict.status, verdict.witness) == ("fails", "('x', 'a1', 'a2')")
        monkeypatch.setattr(metric, check, lambda mc: metric.CheckResult(True))
        with pytest.raises(AssertionError, match=r"certified but .* at \{x,y\}"):
            analyze_metric(self.two_point_intersection(), dim_cap=3)

    def test_one_enumeration_per_report(self, monkeypatch):
        calls = []
        enumerate_p_complement = analyzer.enumerate_p_complement

        def counted(*args):
            calls.append(args)
            return enumerate_p_complement(*args)

        monkeypatch.setattr(analyzer, "enumerate_p_complement", counted)
        report = analyze_metric(mc_for("nine-pt-circle"), dim_cap=3)
        assert len(calls) == 1 and report.census["total"] > 0


class TestIntegerChecksAgainstFractions:
    """Every threshold and order test on the scaled ints agrees with the
    Fraction reference, ``inf`` entries and infinite radii included."""

    def test_closeness_table_and_checks(self):
        rng = rng_for(311)
        seen = {"shared": 0, "no-shared": 0, "simplex-fails": 0, "inf-radius": 0}
        for _ in range(300):
            mc = random_metric_cover(rng, max_points=10)
            sp = mc.space
            n = len(sp)
            close = sp.closeness(mc.r)
            assert len(close) == n and all(type(m) is int and m >> n == 0 for m in close)
            for i, mask in enumerate(close):
                assert [bool(mask >> j & 1) for j in range(n)] == [
                    close_oracle(sp, i, j, mc.r) for j in range(n)
                ]
            assert sp.closeness(mc.r) is close
            assert mc.cross_pairs_within() == cross_pairs_oracle(mc)
            witnesses = shared_witnesses_oracle(mc)
            assert metric.shared_witnesses(mc) == witnesses
            shared = check_shared_witness(mc)
            assert shared.ok == bool(mc.a and witnesses)
            assert shared.witness == (sp.labels[witnesses[0]] if shared.ok else None)
            for strong, check in ((False, check_simplex_assumption), (True, check_strong_simplex_assumption)):
                res = check(mc)
                expected = simplex_assumption_oracle(mc, strong)
                assert (res.ok, res.witness) == (expected is None, expected)
            dom = check_cross_domination(mc)
            if mc.a:
                expected = cross_domination_oracle(mc)
                assert (dom.ok, dom.witness) == (expected is None, expected)
            edges = [(i, j) for i, j in combinations(range(n), 2) if close_oracle(sp, i, j, mc.r)]
            assert vietoris_rips(sp, mc.r, 2).edges() == edges
            seen["shared" if shared.ok else "no-shared"] += 1
            seen["simplex-fails"] += not check_simplex_assumption(mc).ok
            seen["inf-radius"] += mc.r == math.inf
        assert min(seen.values()) >= 5, seen

    def test_asymmetric_tables_are_read_by_row(self):
        """An unvalidated table answers each test at (row, column), as the
        Fraction references read it."""
        rng = rng_for(313)
        seen = Counter()
        for _ in range(400):
            mc = random_metric_cover(rng, max_points=8)
            rows = [list(row) for row in mc.space.matrix]
            values = sorted({v for row in rows for v in row}, key=str)
            for i, j in combinations(range(len(rows)), 2):
                if rng.random() < 0.4:
                    rows[rng.choice((i, j))][rng.choice((i, j))] = rng.choice(values)
            sp = DistanceSpace(mc.space.labels, rows)
            mc = MetricCover(sp, mc.labels_of(sorted(mc.x)), mc.labels_of(sorted(mc.y)), mc.r)
            assert mc.cross_pairs_within() == cross_pairs_oracle(mc)
            assert metric.shared_witnesses(mc) == shared_witnesses_oracle(mc)
            for strong, check in ((False, check_simplex_assumption), (True, check_strong_simplex_assumption)):
                expected = simplex_assumption_oracle(mc, strong)
                assert check(mc).witness == expected
                seen[f"strong={strong} fails"] += expected is not None
            seen["asymmetric"] += bool(validate(sp))
        assert min(seen.values()) >= 5, seen

    def test_witness_loops_of_the_report(self):
        rng = rng_for(312)
        seen = {"ball-holds": 0, "ball-fails": 0, "full-holds": 0, "full-fails": 0}
        for _ in range(300):
            mc = random_metric_cover(rng, max_points=10)
            report = analyze_metric(mc, dim_cap=2, verify=False)
            ball = report.verdict("witness-ball-closure")
            if check_shared_witness(mc).ok:
                found = witness_ball_oracle(mc)
                assert ball.witness == (None if found is None else str(found))
                assert ball.status == ("fails" if found is None else "holds")
                seen["ball-" + ball.status] += 1
            full = report.verdict("full-witness-set")
            if mc.cross_pairs_within():
                bad = full_witness_oracle(mc)
                if bad is not None:
                    assert (full.status, full.witness) == ("fails", str(bad))
                    seen["full-fails"] += 1
                elif mc.a:
                    assert full.witness is None and full.status != "fails"
                    seen["full-holds"] += 1
        assert min(seen.values()) >= 3, seen

    def test_cross_distances_against_the_exact_diameter(self):
        # dominated covers by construction: each cross distance is at least
        # both ends' legs into the intersection, whose own distances (and
        # so its diameter) may be larger, fractional or infinite
        rng = rng_for(317)
        seen = Counter()
        for _ in range(200):
            n_a, n_x, n_y = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 3)
            labels = [f"p{i}" for i in range(n_a + n_x + n_y)]
            rng.shuffle(labels)
            a, xs, ys = labels[:n_a], labels[n_a:n_a + n_x], labels[n_a + n_x:]
            d = {}
            for p, q in combinations(labels, 2):
                if p in a and q in a:
                    v = rng.choice((Fraction(rng.randint(0, 40), rng.choice((1, 3))), math.inf))
                elif p in a or q in a or (p in xs) == (q in xs):
                    v = Fraction(rng.randint(0, 10), rng.choice((1, 2)))
                else:
                    v = None        # a cross pair, set below
                d[p, q] = d[q, p] = v
            leg = {p: max(d[p, v] for v in a) for p in xs + ys}
            for p in xs:
                for q in ys:
                    v = rng.choice((max(leg[p], leg[q]) + rng.randint(0, 30), math.inf))
                    d[p, q] = d[q, p] = v
            rows = [[d.get((p, q), 0) for q in labels] for p in labels]
            mc = MetricCover(DistanceSpace(labels, rows), a + xs, a + ys, 1)
            assert check_cross_domination(mc).ok
            m, ids = mc.space.matrix, sorted(mc.a)
            top = max((m[p][q] for p, q in combinations(ids, 2)), default=0)
            cross = [(i, j) for i in sorted(mc.x - mc.a) for j in sorted(mc.y - mc.a)]
            bad = next(((labels[i], labels[j]) for i, j in cross if m[i][j] < top), None)
            verdict = analyze_metric(mc, dim_cap=1, verify=False).verdict("cross-dominates-diameter")
            assert (verdict.status, verdict.witness) == (
                ("holds", None) if bad is None else ("fails", str(bad))
            )
            seen[verdict.status, top == math.inf] += 1
        assert min(seen.values()) >= 10 and len(seen) == 4, seen

    def test_validate_on_ints(self):
        rng = rng_for(313)
        for _ in range(100):
            n = rng.randint(1, 5)
            entries = [Fraction(1, 3), Fraction(2, 6), 0, 1, math.inf, Fraction(5, 7)]
            matrix = [[rng.choice(entries) for _ in range(n)] for _ in range(n)]
            space = DistanceSpace([f"p{i}" for i in range(n)], matrix)
            m = space.matrix
            expected = []
            for i in range(n):
                if m[i][i] != 0:
                    expected.append((i, i))
                expected += [(i, j) for j in range(i + 1, n) if m[i][j] != m[j][i]]
            assert validate(space) == expected
