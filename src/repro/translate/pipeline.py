"""The end-to-end translation pipeline (Section 7).

``translate_query`` runs the four steps of the paper's algorithm on an
em-allowed calculus query and returns the equivalent extended-algebra
plan together with the full transformation trace:

1. standardize bound variables apart;
2. safety check (em-allowed; refuse otherwise — can be disabled to
   study how the pipeline fails on unsafe input);
3. ENF (T1–T9, :mod:`repro.translate.enf`);
4. RANF + algebra emission (T10, T13–T16,
   :mod:`repro.translate.compiler`), followed by the head projection
   (output terms may apply functions — the paper's q1 compiles to
   ``project([g(f(@1))], R)``) and algebraic cleanup — the
   normalization rules of :mod:`repro.engine.rewrite`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.algebra.ast import AlgebraExpr, Project, algebra_size
from repro.analysis.typeinfer import check_plan, verify_plans_enabled
from repro.analysis.validate import check_rewrites
from repro.core.formulas import Formula
from repro.core.queries import CalculusQuery
from repro.core.schema import DatabaseSchema
from repro.engine.rewrite import RewriteStep, simplify
from repro.errors import TranslationError
from repro.obs.tracing import NULL_TRACER, SpanTracer
from repro.safety.em_allowed import require_em_allowed
from repro.semantics.eval_calculus import query_schema
from repro.translate.compiler import compile_formula, _term_colexpr
from repro.translate.enf import to_enf
from repro.translate.trace import TranslationTrace

__all__ = ["TranslationResult", "translate_query", "translate_formula"]


@dataclass(frozen=True, slots=True)
class TranslationResult:
    """Everything the translation produced.

    * ``plan`` — the algebra expression (one column per head term);
    * ``enf`` — the intermediate ENF formula;
    * ``trace`` — every transformation application, in order;
    * ``schema`` — the schema inferred from (or supplied with) the query,
      usable as the evaluation catalog.
    """

    plan: AlgebraExpr
    enf: Formula
    trace: TranslationTrace
    schema: DatabaseSchema

    @property
    def plan_size(self) -> int:
        return algebra_size(self.plan)


def translate_formula(formula: Formula, trace: TranslationTrace | None = None,
                      enable_t10: bool = True):
    """Translate a bare formula into ``(enf, compiled_context)`` — a
    context plan with one column per free variable (the pipeline without
    the head projection); mainly for tests and walkthroughs."""
    if trace is None:
        trace = TranslationTrace()
    enf = to_enf(formula, trace)
    return enf, compile_formula(enf, trace, enable_t10)


def translate_query(query: CalculusQuery,
                    schema: DatabaseSchema | None = None,
                    check_safety: bool = True,
                    enable_t10: bool = True,
                    annotations=None,
                    tracer: SpanTracer | None = None,
                    verify_plans: bool | None = None,
                    validate_rewrites: bool | None = None) -> TranslationResult:
    """Translate an em-allowed calculus query into the extended algebra.

    Raises :class:`~repro.errors.NotEmAllowedError` when ``check_safety``
    and the query fails the criterion, and
    :class:`~repro.errors.TransformationStuckError` when the rule set
    cannot complete (only reachable with ``enable_t10=False`` on
    em-allowed input, or with ``check_safety=False`` on unsafe input).

    ``annotations`` (an :class:`~repro.finds.annotations.AnnotationRegistry`)
    activates the [RBS87]/[Coh86] inverse-information extension: the
    safety check and the compiler may then bound variables through
    declared function annotations, emitting
    :class:`~repro.algebra.ast.Enumerate` operators whose enumerators
    must be registered on the interpretation at evaluation time.

    ``tracer`` (an :class:`~repro.obs.tracing.SpanTracer`) records one
    timed span per pipeline phase — standardize, safety, enf, compile,
    simplify — nested under a ``translate`` root span; ``None`` (the
    default) uses the shared disabled tracer and adds no overhead.

    ``verify_plans`` checks the plan's structure
    (:func:`repro.analysis.typeinfer.check_plan`) after the compile and
    simplify phases, raising :class:`~repro.errors.PlanInvariantError`
    on any structurally invalid plan; ``None`` (the default) defers to
    the module-wide default
    (:func:`repro.analysis.typeinfer.set_verify_plans` — off in
    production, on throughout the test suite), so the disabled path
    costs one boolean test.

    ``validate_rewrites`` additionally certifies the simplify phase with
    the translation validator (:mod:`repro.analysis.validate`): every
    recorded normalization step is replayed, the simplified plan's root
    column facts must *refine* the compiled plan's (TV003), and the
    phase must neither change the root arity nor introduce relation
    scans (TV001/TV002).  Any violation raises
    :class:`~repro.errors.RewriteValidationError`.  ``None`` (the
    default) follows the resolved ``verify_plans`` value, so turning
    verification off disables the validator too.  The steps are dropped
    once validated: translation results carry the plan only.
    """
    if tracer is None:
        tracer = NULL_TRACER
    trace = TranslationTrace()
    with tracer.span("translate") as root_span:
        if tracer.enabled:
            root_span.attrs["query"] = str(query)
        with tracer.span("standardize"):
            query = query.standardized()
        if check_safety:
            with tracer.span("safety"):
                require_em_allowed(query, annotations=annotations)

        with tracer.span("enf") as enf_span:
            enf = to_enf(query.body, trace)
            if tracer.enabled:
                enf_span.attrs["steps"] = len(trace)
        with tracer.span("compile") as compile_span:
            compiled = compile_formula(enf, trace, enable_t10, annotations)

            missing = [v for v in query.head_variables if not compiled.has(v)]
            if missing:
                raise TranslationError(
                    f"compiled context lacks head variables {missing} "
                    f"(bound: {list(compiled.vars)})"
                )
            positions = {name: i + 1 for i, name in enumerate(compiled.vars)}
            head_exprs = tuple(_term_colexpr(t, positions) for t in query.head)
            plan: AlgebraExpr = Project(head_exprs, compiled.plan)
            trace.record("head-project", "algebra",
                         f"project head terms {[str(t) for t in query.head]}")
            if tracer.enabled:
                compile_span.attrs["plan_ops"] = algebra_size(plan)

        resolved_schema = query_schema(query, schema)
        catalog = {decl.name: decl.arity
                   for decl in resolved_schema.relations}
        verify = verify_plans_enabled(verify_plans)
        if verify:
            check_plan(plan, catalog, phase="compile",
                       expected_arity=query.arity)
        with tracer.span("simplify") as simplify_span:
            compiled_plan = plan
            steps: list[RewriteStep] = []
            plan = simplify(plan, catalog, steps)
            if verify:
                check_plan(plan, catalog, phase="simplify",
                           expected_arity=query.arity)
            validate = (validate_rewrites if validate_rewrites is not None
                        else verify)
            if validate:
                check_rewrites(compiled_plan, plan, steps, shared=(),
                               catalog=catalog, schema=resolved_schema,
                               phase="simplify")
            if tracer.enabled:
                simplify_span.attrs["plan_ops"] = algebra_size(plan)
    return TranslationResult(plan=plan, enf=enf, trace=trace, schema=resolved_schema)
