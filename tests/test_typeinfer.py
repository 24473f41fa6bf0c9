"""Tests for the plan type inferencer (repro.analysis.typeinfer).

Covers the ColumnFact lattice, per-node inference (types, nullability,
constants, keys, provenance), the term_k finiteness certificate, the
TY0xx diagnostics, refinement checking, and the typed-plan rendering.
"""

from repro.algebra.ast import (
    AdomK,
    CApp,
    CConst,
    Col,
    Condition,
    Diff,
    Join,
    Lit,
    Params,
    Product,
    Project,
    Rel,
    Select,
    Union,
)
from repro.analysis.typeinfer import (
    TYPE_ANY,
    TYPE_NEVER,
    ColumnFact,
    infer_plan_types,
    join_types,
    meet_types,
    refinement_violations,
    render_typed_plan,
    value_type,
)
from repro.core.schema import (
    DatabaseSchema,
    FunctionSignature,
    RelationSchema,
)
from repro.data.interpretation import UNDEFINED

CATALOG = {"R": 2, "S": 1, "T": 2}


def typed_schema() -> DatabaseSchema:
    return DatabaseSchema(
        relations=[
            RelationSchema("R", 2, types=("int", "str")),
            RelationSchema("S", 1, types=("int",)),
            RelationSchema("T", 2),
        ],
        functions=[
            FunctionSignature("f", 1, returns="int", arg_types=("int",)),
            FunctionSignature("p", 1, total=False, returns="int"),
        ],
    )


class TestLattice:
    def test_value_type(self):
        assert value_type(3) == "int"
        assert value_type("x") == "str"
        assert value_type(UNDEFINED) == TYPE_ANY

    def test_join_types(self):
        assert join_types("int", "int") == "int"
        assert join_types("int", "str") == TYPE_ANY
        assert join_types(TYPE_NEVER, "int") == "int"
        assert join_types("int", TYPE_ANY) == TYPE_ANY

    def test_meet_types(self):
        assert meet_types("int", "int") == "int"
        assert meet_types("int", "str") == TYPE_NEVER
        assert meet_types(TYPE_ANY, "int") == "int"

    def test_merge_never_is_bottom(self):
        never = ColumnFact(vtype=TYPE_NEVER)
        fact = ColumnFact(vtype="int", is_const=True, const=3)
        assert never.merge(fact) == fact
        assert fact.merge(never) == fact

    def test_merge_consts(self):
        a = ColumnFact(vtype="int", is_const=True, const=3)
        b = ColumnFact(vtype="int", is_const=True, const=3)
        c = ColumnFact(vtype="int", is_const=True, const=4)
        assert a.merge(b).is_const
        assert not a.merge(c).is_const
        assert a.merge(c).vtype == "int"

    def test_describe(self):
        fact = ColumnFact(vtype="int", nullable=True, is_const=True,
                          const=3)
        assert fact.describe() == "int?=3"


class TestLeafInference:
    def test_rel_types_from_schema(self):
        types = infer_plan_types(Rel("R"), CATALOG, typed_schema())
        assert [c.vtype for c in types.root.columns] == ["int", "str"]
        assert types.root.columns[0].sources == frozenset({("R", 1)})

    def test_rel_without_schema_is_any(self):
        types = infer_plan_types(Rel("R"), CATALOG)
        assert all(c.vtype == TYPE_ANY for c in types.root.columns)

    def test_unknown_relation_is_reported(self):
        types = infer_plan_types(Rel("Nope"), CATALOG)
        assert types.root is None
        assert [d.code for d in types.diagnostics] == ["PL004"]

    def test_out_of_range_column_is_reported_not_raised(self):
        types = infer_plan_types(Project((Col(3),), Rel("R")), CATALOG)
        assert types.root is not None and types.root.arity == 1
        assert [d.code for d in types.diagnostics] == ["PL001"]
        types = infer_plan_types(
            Select(frozenset({Condition(Col(1), "=", Col(7))}), Rel("R")),
            CATALOG)
        assert [d.code for d in types.diagnostics] == ["PL003"]

    def test_mismatched_union_is_reported_not_zipped(self):
        plan = Union(Rel("R"), Project((Col(1),), Rel("R")))
        types = infer_plan_types(plan, CATALOG)
        assert types.root is None
        assert [d.code for d in types.diagnostics] == ["PL002"]

    def test_empty_lit_is_never(self):
        types = infer_plan_types(Lit(2, frozenset()), CATALOG)
        assert all(c.vtype == TYPE_NEVER for c in types.root.columns)

    def test_lit_consts_and_keys(self):
        lit = Lit(2, frozenset({(1, "a"), (1, "b")}))
        types = infer_plan_types(lit, CATALOG)
        first, second = types.root.columns
        assert first.is_const and first.const == 1
        assert first.vtype == "int"
        assert second.vtype == "str"
        # column 2 is distinct across the rows: a single-column key
        assert frozenset({2}) in types.root.keys

    def test_singleton_lit_has_empty_key(self):
        lit = Lit(2, frozenset({(1, 2)}))
        types = infer_plan_types(lit, CATALOG)
        assert frozenset() in types.root.keys

    def test_lit_nullable_when_undefined_present(self):
        lit = Lit(1, frozenset({(UNDEFINED,), (3,)}))
        types = infer_plan_types(lit, CATALOG)
        assert types.root.columns[0].nullable

    def test_params_and_adom(self):
        p = infer_plan_types(Params(2), CATALOG)
        assert p.root.arity == 2
        assert p.root.columns[0].sources == frozenset({("<params>", 1)})
        a = infer_plan_types(AdomK(3, frozenset()), CATALOG)
        assert a.root.columns[0].depth == 3


class TestExpressionsAndCertificate:
    def test_function_depth_certifies_term_k(self):
        plan = Project((CApp("f", (CApp("f", (Col(1),)),)),), Rel("S"))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert types.root.columns[0].depth == 2
        cert = types.root.certificate()
        assert cert.k == 2
        assert str(cert) == "term_2(adom(I) + consts)"

    def test_depth_zero_certificate(self):
        types = infer_plan_types(Rel("S"), CATALOG)
        assert str(types.root.certificate()) == "adom(I) + consts"

    def test_declared_return_type(self):
        plan = Project((CApp("f", (Col(1),)),), Rel("S"))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert types.root.columns[0].vtype == "int"

    def test_partial_function_is_nullable(self):
        plan = Project((CApp("p", (Col(1),)),), Rel("S"))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert types.root.columns[0].nullable

    def test_total_function_on_clean_input_not_nullable(self):
        plan = Project((CApp("f", (Col(1),)),), Rel("S"))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert not types.root.columns[0].nullable

    def test_undeclared_function_warns_ty001(self):
        plan = Project((CApp("mystery", (Col(1),)),), Rel("S"))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert any(d.code == "TY001" for d in types.diagnostics)
        # and the column is conservatively nullable/any
        assert types.root.columns[0].nullable
        assert types.root.columns[0].vtype == TYPE_ANY

    def test_wrong_arity_errors_ty002(self):
        plan = Project((CApp("f", (Col(1), Col(1))),), Rel("S"))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert any(d.code == "TY002" and d.is_error
                   for d in types.diagnostics)

    def test_argument_type_conflict_ty006(self):
        # f declares arg 1 as int; feed it R's str column
        plan = Project((CApp("f", (Col(2),)),), Rel("R"))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert any(d.code == "TY006" for d in types.diagnostics)

    def test_no_schema_no_function_diagnostics(self):
        plan = Project((CApp("mystery", (Col(1),)),), Rel("S"))
        types = infer_plan_types(plan, CATALOG)
        assert not types.diagnostics


class TestNarrowing:
    def test_equality_pins_constant(self):
        plan = Select(frozenset({Condition(Col(1), "=", CConst(7))}),
                      Rel("S"))
        types = infer_plan_types(plan, CATALOG)
        col = types.root.columns[0]
        assert col.is_const and col.const == 7
        assert col.vtype == "int"

    def test_comparison_clears_nullability(self):
        lit = Lit(1, frozenset({(UNDEFINED,), (3,)}))
        plan = Select(frozenset({Condition(Col(1), "=", CConst(3))}), lit)
        types = infer_plan_types(plan, CATALOG)
        assert not types.root.columns[0].nullable

    def test_not_equal_keeps_nullability(self):
        lit = Lit(1, frozenset({(UNDEFINED,), (3,)}))
        plan = Select(frozenset({Condition(Col(1), "!=", CConst(3))}), lit)
        types = infer_plan_types(plan, CATALOG)
        assert types.root.columns[0].nullable

    def test_disjoint_comparison_warns_ty003(self):
        # R's str column compared to an int constant
        plan = Select(frozenset({Condition(Col(2), "=", CConst(3))}),
                      Rel("R"))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert any(d.code == "TY003" for d in types.diagnostics)

    def test_ordering_on_nullable_notes_ty004(self):
        lit = Lit(1, frozenset({(UNDEFINED,), (3,)}))
        plan = Select(frozenset({Condition(Col(1), "<", CConst(5))}), lit)
        types = infer_plan_types(plan, CATALOG)
        assert any(d.code == "TY004" for d in types.diagnostics)

    def test_const_comparison_notes_ty005(self):
        plan = Select(frozenset({Condition(CConst(1), "=", CConst(2))}),
                      Rel("S"))
        types = infer_plan_types(plan, CATALOG)
        assert any(d.code == "TY005" for d in types.diagnostics)

    def test_join_equality_meets_types(self):
        # S(int) joined to T(any): the joined columns meet to int
        plan = Join(frozenset({Condition(Col(1), "=", Col(2))}),
                    Rel("S"), Rel("S"))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert [c.vtype for c in types.root.columns] == ["int", "int"]

    def test_two_constants_leave_the_column_empty(self):
        # @1 pinned to 2 and to 7, whichever conjunct is seen first
        plan = Select(frozenset({Condition(CConst(2), "=", Col(1)),
                                 Condition(Col(1), "=", CConst(7))}),
                      Rel("T"))
        assert infer_plan_types(plan, CATALOG).root.columns[0].vtype == \
            TYPE_NEVER

    def test_equal_columns_narrow_together(self):
        # T.1 = T.2 holds below the projection and the join that types
        # T.2 as int: T.1 is int at the root too
        below = Project((Col(2), Col(1)), Select(
            frozenset({Condition(Col(2), "=", Col(1))}), Rel("T")))
        plan = Join(frozenset({Condition(Col(1), "=", Col(2))}),
                    Rel("S"), below)
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert [c.vtype for c in types.root.columns] == ["int"] * 3


class TestKeys:
    def test_join_composes_keys(self):
        # both inputs are singleton literals: composed empty key
        a = Lit(1, frozenset({(1,)}))
        b = Lit(1, frozenset({(2,)}))
        types = infer_plan_types(Product(a, b), CATALOG)
        assert frozenset() in types.root.keys

    def test_project_remaps_keys(self):
        lit = Lit(2, frozenset({(1, "a"), (2, "b")}))
        plan = Project((Col(2), Col(1)), lit)
        types = infer_plan_types(plan, CATALOG)
        # both source columns were keys; remapped through the swap
        assert frozenset({1}) in types.root.keys
        assert frozenset({2}) in types.root.keys

    def test_project_drops_keys_through_function(self):
        lit = Lit(2, frozenset({(1, "a"), (2, "b")}))
        plan = Project((CApp("f", (Col(1),)),), lit)
        types = infer_plan_types(plan, CATALOG)
        assert types.root.keys == frozenset()

    def test_diff_keeps_left_keys(self):
        lit = Lit(2, frozenset({(1, "a"), (2, "b")}))
        types = infer_plan_types(Diff(lit, Rel("R")), CATALOG)
        assert frozenset({1}) in types.root.keys

    def test_union_merges_columns(self):
        a = Lit(1, frozenset({(1,)}))
        b = Lit(1, frozenset({("x",)}))
        types = infer_plan_types(Union(a, b), CATALOG)
        assert types.root.columns[0].vtype == TYPE_ANY
        assert types.root.keys == frozenset()


class TestRefinement:
    def test_narrowing_is_ok(self):
        before = infer_plan_types(Rel("S"), CATALOG).root
        after = infer_plan_types(
            Select(frozenset({Condition(Col(1), "=", CConst(1))}),
                   Rel("S")), CATALOG).root
        assert refinement_violations(after, before) == []

    def test_empty_refines_everything(self):
        before = infer_plan_types(Rel("S"), CATALOG, typed_schema()).root
        after = infer_plan_types(Lit(1, frozenset()), CATALOG).root
        assert refinement_violations(after, before) == []

    def test_depth_growth_is_flagged(self):
        before = infer_plan_types(Project((Col(1),), Rel("S")),
                                  CATALOG).root
        after = infer_plan_types(
            Project((CApp("f", (Col(1),)),), Rel("S")), CATALOG).root
        problems = refinement_violations(after, before)
        assert any("depth" in p for p in problems)

    def test_arity_change_is_flagged(self):
        before = infer_plan_types(Rel("R"), CATALOG).root
        after = infer_plan_types(Rel("S"), CATALOG).root
        assert refinement_violations(after, before) == [
            "arity changed from 2 to 1"]

    def test_gained_provenance_is_flagged(self):
        before = infer_plan_types(Rel("S"), CATALOG).root
        after = infer_plan_types(Project((Col(1),), Rel("T")),
                                 CATALOG).root
        problems = refinement_violations(after, before)
        assert any("provenance" in p for p in problems)


class TestRendering:
    def test_render_typed_plan(self):
        plan = Project((Col(1),),
                       Join(frozenset({Condition(Col(2), "=", Col(3))}),
                            Rel("R"), Rel("S")))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        text = render_typed_plan(plan, types)
        assert "::" in text
        assert "rel R" in text and "rel S" in text
        assert text.splitlines()[0].startswith("project")

    def test_shared_subplans_share_inference(self):
        sub = Join(frozenset({Condition(Col(1), "=", Col(3))}),
                   Rel("R"), Rel("R"))
        plan = Union(sub, sub)
        types = infer_plan_types(plan, CATALOG)
        # structural memoization: one facts entry for the repeated join
        assert types.facts_of(sub) is types.facts_of(
            Join(frozenset({Condition(Col(1), "=", Col(3))}),
                 Rel("R"), Rel("R")))

    def test_diagnostics_deduplicated(self):
        dup = Project((CApp("mystery", (Col(1),)),), Rel("S"))
        plan = Union(dup, Project((CApp("mystery", (Col(1),)),), Rel("S")))
        types = infer_plan_types(plan, CATALOG, typed_schema())
        assert len([d for d in types.diagnostics
                    if d.code == "TY001"]) == 1
