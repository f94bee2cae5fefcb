"""Distance spaces, Vietoris-Rips construction, gluings, and the metric
hypotheses as decidable predicates."""

import math
from decimal import Decimal
from fractions import Fraction
from itertools import chain, combinations

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
from ripsdecomp.corpus import case_by_name, space_for
from ripsdecomp.io import load_input

from conftest import (
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
from oracles import d_label, glue, obstruction, subspace


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
        # the last 0 is the tolerance, parsed on its own
        keys = [(type(v), v) for v in seen]
        assert keys == [(int, 0), (int, 1), (str, "1"), (float, 1.0), (int, 0)]

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
            tol = rng.choice((0, 0, "1/3", 0.5))
            space = DistanceSpace([f"p{i}" for i in range(n)], rows, tol=tol)
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
                assert close == tuple(tuple(space.within(v, r) for v in row) for row in exact)
                if validate(space):
                    continue
                pairs = combinations(range(n), 2)
                edges = [(i, j) for i, j in pairs if space.within(exact[i][j], r)]
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
        assert 100 < fired < 550

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
    Fraction reference, ``inf`` entries, tolerances and infinite radii
    included."""

    def test_closeness_table_and_checks(self):
        rng = rng_for(311)
        seen = {"shared": 0, "no-shared": 0, "simplex-fails": 0, "inf-radius": 0}
        for _ in range(300):
            mc = random_metric_cover(rng, max_points=10)
            sp = mc.space
            n = len(sp)
            close = sp.closeness(mc.r)
            assert close == tuple(
                tuple(close_oracle(sp, i, j, mc.r) for j in range(n)) for i in range(n)
            )
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
