"""Unit and property tests for finiteness dependencies: the FinD type,
refinement order, closure/entailment, and reduced covers."""

from hypothesis import given, settings, strategies as st

from repro.finds.closure import (
    attribute_closure,
    bounded_variables,
    closure_finds,
    derives_brute_force,
    entails,
    entails_all,
    equivalent_covers,
)
from repro.finds.covers import (
    cover_intersection,
    cover_project,
    cover_size,
    cover_union,
    mentioned_variables,
    reduce_cover,
)
from repro.finds.find import FinD, find, format_finds, refines


class TestFinD:
    def test_shorthand_constructor(self):
        d = find("x y", "z")
        assert d.lhs == {"x", "y"} and d.rhs == {"z"}

    def test_empty_sides(self):
        d = find("", "x")
        assert d.lhs == frozenset()

    def test_trivial(self):
        assert find("x y", "x").is_trivial()
        assert not find("x", "y").is_trivial()

    def test_mentions(self):
        assert find("x", "y").mentions(["y", "q"])
        assert not find("x", "y").mentions(["q"])

    def test_str_uses_zero_for_empty(self):
        assert str(find("", "x")) == "0 -> x"


class TestRefinement:
    def test_paper_example(self):
        # x -> zw refines xy -> z
        assert refines(find("x", "z w"), find("x y", "z"))

    def test_not_symmetric(self):
        assert not refines(find("x y", "z"), find("x", "z w"))

    def test_reflexive(self):
        d = find("x", "y")
        assert refines(d, d)

    def test_transitive_example(self):
        a, b, c = find("", "x y z"), find("x", "y z"), find("x w", "y")
        assert refines(a, b) and refines(b, c) and refines(a, c)

    def test_refinement_implies_entailment(self):
        a, b = find("x", "z w"), find("x y", "z")
        assert entails({a}, b)


class TestClosure:
    def test_basic_transitivity(self):
        finds = {find("x", "y"), find("y", "z")}
        assert attribute_closure({"x"}, finds) == {"x", "y", "z"}

    def test_empty_lhs_bounds(self):
        finds = {find("", "x"), find("x", "y")}
        assert bounded_variables(finds) == {"x", "y"}

    def test_entails(self):
        finds = {find("", "x"), find("x", "y")}
        assert entails(finds, find("", "y"))
        assert not entails(finds, find("", "z"))

    def test_entails_all(self):
        finds = {find("", "x y")}
        assert entails_all(finds, [find("", "x"), find("x", "y")])

    def test_equivalent_covers(self):
        a = {find("", "x"), find("x", "y")}
        b = {find("", "x y")}
        assert equivalent_covers(a, b)
        assert not equivalent_covers(a, {find("", "x")})

    def test_closure_finds_is_sound_and_nontrivial(self):
        finds = {find("x", "y")}
        full = closure_finds(finds, {"x", "y"})
        assert all(not d.is_trivial() for d in full)
        assert all(entails(finds, d) for d in full)
        assert find("x", "y") in full


class TestReducedCovers:
    def test_removes_trivial(self):
        assert reduce_cover({find("x", "x")}) == frozenset()

    def test_left_reduction(self):
        # x -> y makes the bigger LHS redundant
        out = reduce_cover({find("x", "y"), find("x z", "y")})
        assert out == {find("x", "y")}

    def test_redundancy_elimination(self):
        out = reduce_cover({find("x", "y"), find("y", "z"), find("x", "z")})
        assert find("x", "z") not in out
        assert equivalent_covers(out, {find("x", "y"), find("y", "z")})

    def test_merging_per_lhs(self):
        out = reduce_cover({find("x", "y"), find("x", "z")})
        assert out == {find("x", "y z")}

    def test_union_closes_through(self):
        out = cover_union({find("", "x")}, {find("x", "y")})
        assert entails(out, find("", "y"))

    def test_intersection_keeps_common_only(self):
        out = cover_intersection([{find("", "x y")}, {find("", "x")}])
        assert entails(out, find("", "x"))
        assert not entails(out, find("", "y"))

    def test_intersection_paper_q5_shape(self):
        left = {find("", "x"), find("x", "y")}
        right = {find("", "y"), find("y", "x")}
        out = cover_intersection([left, right])
        assert entails(out, find("", "x y"))

    def test_intersection_nontrivial_lhs(self):
        out = cover_intersection([{find("x", "y")}, {find("x", "y"), find("", "z")}])
        assert entails(out, find("x", "y"))
        assert not entails(out, find("", "z"))

    def test_project_keeps_derived(self):
        out = cover_project({find("", "x"), find("x", "y")}, ["x"])
        assert out == {find("", "y")}

    def test_project_drops_mentions(self):
        out = cover_project({find("x", "y")}, ["x"])
        assert out == frozenset()

    def test_project_empty_drop_is_reduce(self):
        finds = {find("x", "y"), find("x z", "y")}
        assert cover_project(finds, []) == reduce_cover(finds)

    def test_cover_size(self):
        assert cover_size({find("x y", "z"), find("", "w")}) == 4

    def test_mentioned_variables(self):
        assert mentioned_variables({find("x", "y"), find("", "z")}) == {"x", "y", "z"}

    def test_format(self):
        assert "x -> y" in format_finds({find("x", "y")})


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

_VARS = ["a", "b", "c", "d"]


@st.composite
def finds_strategy(draw, max_finds=5):
    n = draw(st.integers(0, max_finds))
    out = set()
    for _ in range(n):
        lhs = draw(st.sets(st.sampled_from(_VARS), max_size=2))
        rhs = draw(st.sets(st.sampled_from(_VARS), min_size=1, max_size=2))
        out.add(FinD(frozenset(lhs), frozenset(rhs)))
    return frozenset(out)


class TestProperties:
    @given(finds_strategy())
    def test_reduce_preserves_equivalence(self, finds):
        assert equivalent_covers(reduce_cover(finds), finds)

    @given(finds_strategy())
    def test_reduce_is_idempotent(self, finds):
        once = reduce_cover(finds)
        assert reduce_cover(once) == once

    @given(finds_strategy())
    def test_reduce_never_larger(self, finds):
        # compared against the merged-per-LHS rendering of the input
        merged: dict[frozenset, set] = {}
        for d in finds:
            if not d.is_trivial():
                merged.setdefault(d.lhs, set()).update(d.rhs)
        assert len(reduce_cover(finds)) <= max(len(merged), 0) or not merged

    @settings(max_examples=40)
    @given(finds_strategy(max_finds=3), finds_strategy(max_finds=3))
    def test_intersection_entailed_by_both(self, a, b):
        out = cover_intersection([a, b])
        assert entails_all(a, out)
        assert entails_all(b, out)

    @settings(max_examples=40)
    @given(finds_strategy(max_finds=3), st.sets(st.sampled_from(_VARS), max_size=2))
    def test_projection_sound_and_scoped(self, finds, drop):
        out = cover_project(finds, drop)
        assert entails_all(finds, out)
        for d in out:
            assert not d.mentions(drop)

    @settings(max_examples=30)
    @given(finds_strategy(max_finds=3))
    def test_fast_entailment_matches_brute_force(self, finds):
        candidates = [find("a", "b"), find("", "a"), find("a b", "c d"),
                      find("c", "a")]
        for dep in candidates:
            assert entails(finds, dep) == derives_brute_force(finds, dep)

    @settings(max_examples=30)
    @given(finds_strategy(max_finds=4))
    def test_closure_finds_complete_for_entailment(self, finds):
        universe = mentioned_variables(finds) | {"a"}
        full = closure_finds(finds, universe)
        # every closure member is entailed; every entailed single-target
        # FinD over the universe appears (possibly merged) in the closure
        assert entails_all(finds, full)
        for lhs_var in universe:
            for rhs_var in universe:
                dep = FinD(frozenset({lhs_var}), frozenset({rhs_var}))
                if dep.is_trivial():
                    continue
                member = any(
                    d.lhs <= {lhs_var} and rhs_var in d.rhs for d in full
                )
                assert member == entails(finds, dep)


class TestHeuristicFallback:
    """Above EXACT_LIMIT relevant variables the disjunction/projection
    operations switch to the sound candidate heuristic; these tests pin
    soundness (never unsound) on wide variable sets."""

    def _wide_covers(self, width):
        a = {find("", " ".join(f"v{i}" for i in range(width)))}
        b = {find(f"v{i}", f"v{i+1}") for i in range(width - 1)} | {find("", "v0")}
        return a, b

    def test_intersection_heuristic_sound(self):
        a, b = self._wide_covers(16)
        out = cover_intersection([a, b], exact_limit=4)
        assert entails_all(a, out)
        assert entails_all(b, out)

    def test_intersection_heuristic_finds_chain(self):
        a, b = self._wide_covers(16)
        out = cover_intersection([a, b], exact_limit=4)
        # both covers bound v0 outright; the heuristic must keep that
        assert entails(out, find("", "v0"))

    def test_projection_heuristic_sound(self):
        finds = {find("", "v0")} | {
            find(f"v{i}", f"v{i+1}") for i in range(15)
        }
        out = cover_project(finds, ["v3"], exact_limit=4)
        assert entails_all(finds, out)
        assert all(not d.mentions(["v3"]) for d in out)

    def test_projection_heuristic_keeps_derivable(self):
        finds = {find("", "v0"), find("v0", "v1"), find("v1", "v2")}
        out = cover_project(finds, ["v1"], exact_limit=0)
        # v2 is still derivable without v1 (closure through the seed
        # left sides); the heuristic must retain 0 -> v2
        assert entails(out, find("", "v2"))

    def test_exact_and_heuristic_agree_on_small_inputs(self):
        a = {find("", "x"), find("x", "y")}
        b = {find("", "y"), find("y", "x")}
        exact = cover_intersection([a, b])
        heuristic = cover_intersection([a, b], exact_limit=0)
        assert entails_all(exact, heuristic)  # heuristic never stronger
