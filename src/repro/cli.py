"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``check  'QUERY'``               — parse and classify under every safety
  criterion, printing ``bd`` and the reasons for any refusal;
  ``--explain`` renders the full structured diagnostics (code, offending
  subformula, suggested fix) for every failed entailment;
* ``lint   'QUERY'``               — run the static formula linter
  (:mod:`repro.analysis.linter`): schema misuse, quantifier hygiene,
  trivial atoms, and the em-allowed safety rules, as compiler-style
  diagnostics; ``--json [OUT]`` exports the diagnostics bundle;
* ``translate 'QUERY'``            — run the four-step translation and print
  the ENF formula, the transformation trace, and the algebra plan;
* ``typecheck 'QUERY'``            — translate, then run the plan type
  inferencer (:mod:`repro.analysis.typeinfer`): the typed operator tree
  (per-column value types, nullability, constants, keys), the ``term_k``
  finiteness certificate, and the ``TY0xx`` diagnostics; with ``--data``
  the optimizer also runs and every recorded rewrite step is certified
  by the translation validator (:mod:`repro.analysis.validate`,
  ``TV0xx``); ``--json [OUT]`` exports the report;
* ``run 'QUERY' --data FILE``      — translate and execute against a JSON
  instance (see :mod:`repro.data.io`); scalar functions come from
  ``--functions mod.py`` (a Python file defining ``FUNCTIONS = {...}``)
  or default to a deterministic demo interpretation; ``--analyze``
  appends the applied rewrite steps and the EXPLAIN ANALYZE operator
  tree; ``--batch-size N`` (also on ``profile`` and ``bench-service``)
  sets the engine's rows-per-batch, defaulting to the
  ``REPRO_BATCH_SIZE`` environment variable; ``--optimize`` /
  ``--no-optimize`` (also on ``profile`` and ``serve``) gates the
  cost-based rewrite pass, defaulting to the ``REPRO_OPTIMIZE``
  environment variable (on);
* ``stats --data FILE``            — dump the collected per-relation
  statistics (row counts, per-column distincts) feeding the optimizer's
  cardinality estimates, as text or ``--json``;
* ``profile 'QUERY' --data FILE``  — instrumented run: translation phase
  spans, per-operator estimated-vs-actual rows and timings, q-error
  summary, optional ``--json out.json`` export;
* ``serve --requests FILE --data FILE`` — drive a
  :class:`~repro.service.QueryService` over a JSON request file (plain
  and parameterized requests, batched parameter rows), printing one
  line per request plus cache/latency statistics; ``--json`` exports
  the reports and metrics;
* ``bench-service``                — in-process serving benchmark:
  cold-vs-warm plan-cache speedup over the gallery and batched-vs-
  looped parameter binding;
* ``demo``                         — walk the paper's query gallery.

Exit codes: 0 success, 1 refusal (``translate``/``run`` on an unsafe
query) or warnings only (``lint``), 2 errors — safety violations from
``check``, lint errors, or any other library error — and
3 missing/unparseable ``--data`` file.

The CLI is a thin veneer over the public API; everything it does is a
few lines of library code (printed with ``--show-code``-free honesty in
the examples/ directory).
"""

from __future__ import annotations

import argparse
import runpy
import sys

from repro.algebra.printer import explain, to_algebra_text
from repro.core.parser import parse_query
from repro.data.generators import standard_functions
from repro.data.interpretation import Interpretation
from repro.data.io import load_instance
from repro.engine.executor import execute
from repro.errors import EvaluationError, NotEmAllowedError, ReproError
from repro.obs.explain import q_error_summary, render_explain_analyze
from repro.obs.export import save_bundle
from repro.obs.metrics import MetricsRegistry
from repro.obs.profile import ExecutionProfile
from repro.obs.tracing import SpanTracer
from repro.finds.find import format_finds
from repro.safety import (
    allowed,
    bd,
    range_restricted,
    safe_top91,
)
from repro.translate.pipeline import translate_query

__all__ = ["main", "DATA_ERROR_EXIT"]

#: Exit code for a missing or unparseable ``--data`` file.
DATA_ERROR_EXIT = 3


_DATA_HINT = ('--data expects an instance JSON file like '
              '{"R": {"arity": 1, "rows": [[1], [2]]}}')


class _DataFileError(ReproError):
    """A CLI data file could not be read, parsed, or written."""

    def __init__(self, message: str, hint: str = _DATA_HINT):
        super().__init__(message)
        self.hint = hint


def _load_data(path: str):
    """Load the instance behind ``--data``, raising :class:`_DataFileError`
    with a one-line hint instead of a traceback on failure."""
    try:
        return load_instance(path)
    except OSError as err:
        reason = err.strerror or str(err)
        raise _DataFileError(
            f"cannot read data file {path!r}: {reason}") from None
    except EvaluationError as err:
        raise _DataFileError(
            f"cannot parse data file {path!r}: {err}") from None


def _cmd_check(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import render_diagnostics
    from repro.safety.em_allowed import em_allowed_diagnostics

    query = parse_query(args.query)
    body = query.body
    print(f"query:            {query}")
    print(f"bd(body):         {format_finds(bd(body))}")
    diagnostics = em_allowed_diagnostics(body)
    print(f"em-allowed:       {not diagnostics}")
    for diagnostic in diagnostics:
        print(f"  - {diagnostic.message}")
    print(f"allowed [GT91]:   {allowed(body)}")
    try:
        print(f"safe [Top91]:     {safe_top91(body)}")
    except ValueError as err:
        print(f"safe [Top91]:     skipped ({err})")
    print(f"range-restricted: {range_restricted(body)}")
    if args.explain and diagnostics:
        print()
        print(render_diagnostics(diagnostics, source=args.query))
    return 0 if not diagnostics else 2


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import (
        diagnostics_to_json,
        has_errors,
        render_diagnostics,
    )
    from repro.analysis.linter import lint_source

    diagnostics = lint_source(args.query)
    if args.json is not None:
        payload = diagnostics_to_json(diagnostics, source=args.query)
        if args.json == "-":
            print(payload)
        else:
            try:
                with open(args.json, "w") as handle:
                    handle.write(payload + "\n")
            except OSError as err:
                reason = err.strerror or str(err)
                raise _DataFileError(
                    f"cannot write lint report to {args.json!r}: {reason}",
                    hint="--json expects a writable output path") from None
            print(f"lint report written to {args.json}")
    else:
        print(render_diagnostics(diagnostics, source=args.query))
    if has_errors(diagnostics):
        return 2
    return 1 if diagnostics else 0


def _cmd_translate(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    try:
        result = translate_query(query)
    except NotEmAllowedError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 1
    print(f"query: {query}")
    print(f"ENF:   {result.enf}")
    if args.trace:
        print("trace:")
        for step in result.trace.steps:
            print(f"  {step}")
    else:
        print(f"trace: {result.trace.counts()}")
    print(f"plan:  {to_algebra_text(result.plan)}")
    if args.explain:
        print(explain(result.plan))
    return 0


def _cmd_typecheck(args: argparse.Namespace) -> int:
    from repro.analysis.diagnostics import (
        diagnostics_to_dict,
        has_errors,
        render_diagnostics,
        sort_diagnostics,
    )
    from repro.analysis.typeinfer import infer_plan_types, render_typed_plan
    from repro.analysis.validate import validate_rewrites

    query = parse_query(args.query)
    try:
        result = translate_query(query)
    except NotEmAllowedError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 1
    schema = result.schema
    catalog = {decl.name: decl.arity for decl in schema.relations}
    plan = result.plan
    diagnostics = []
    rewrite_note = None
    if args.data:
        from repro.engine.caches import stats_for
        from repro.engine.rewrite import optimize_plan

        instance = _load_data(args.data)
        try:
            outcome = optimize_plan(plan, stats_for(instance), catalog,
                                    verify=False, schema=schema)
        except EvaluationError as err:
            rewrite_note = f"optimizer skipped ({err})"
        else:
            diagnostics.extend(validate_rewrites(
                plan, outcome.plan, outcome.steps, outcome.shared,
                catalog, schema))
            plan = outcome.plan
            rewrite_note = (f"{len(outcome.steps)} rewrite step(s) "
                            "validated")
    types = infer_plan_types(plan, catalog, schema)
    diagnostics.extend(types.diagnostics)
    diagnostics = sort_diagnostics(diagnostics)
    certificate = types.root.certificate()

    if args.json is not None:
        import json as _json
        payload = _json.dumps({
            "query": str(query),
            "arity": types.root.arity,
            "columns": [c.describe() for c in types.root.columns],
            "certificate": str(certificate),
            "function_depth": certificate.k,
            "rewrites": rewrite_note,
            "diagnostics": diagnostics_to_dict(diagnostics,
                                               source=args.query),
        }, indent=2)
        if args.json == "-":
            print(payload)
        else:
            try:
                with open(args.json, "w") as handle:
                    handle.write(payload + "\n")
            except OSError as err:
                reason = err.strerror or str(err)
                raise _DataFileError(
                    f"cannot write typecheck report to {args.json!r}: "
                    f"{reason}",
                    hint="--json expects a writable output path") from None
            print(f"typecheck report written to {args.json}")
    else:
        print(f"query: {query}")
        print(f"result columns: {types.root.describe()}")
        print(f"finiteness: every output value lies in {certificate}")
        if rewrite_note is not None:
            print(f"rewrites: {rewrite_note}")
        print()
        print(render_typed_plan(plan, types))
        print()
        print(render_diagnostics(diagnostics, source=args.query))
    if has_errors(diagnostics):
        return 2
    return 1 if diagnostics else 0


def _load_functions(path: str | None, schema) -> Interpretation:
    if path is None:
        return standard_functions(schema)
    namespace = runpy.run_path(path)
    functions = namespace.get("FUNCTIONS")
    if not isinstance(functions, dict):
        raise ReproError(
            f"{path} must define FUNCTIONS = {{name: callable, ...}}")
    return Interpretation(functions, name=path)


def _cmd_run(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    instance = _load_data(args.data)
    result = translate_query(query)
    interp = _load_functions(args.functions, result.schema)
    profile = ExecutionProfile(query=args.query) if args.analyze else None
    report = execute(result.plan, instance, interp, schema=result.schema,
                     profile=profile, batch_size=args.batch_size,
                     optimize=args.optimize, batch_repr=args.batch_repr)
    print(f"plan:   {to_algebra_text(result.plan)}")
    print(f"stats:  {report.summary()}")
    for row in sorted(report.result.rows, key=repr)[:args.limit]:
        print("  " + "\t".join(str(v) for v in row))
    if len(report.result) > args.limit:
        print(f"  ... ({len(report.result)} rows total)")
    if profile is not None:
        print()
        _print_rewrites(report)
        print("explain analyze:")
        print(render_explain_analyze(profile))
    return 0


def _print_rewrites(report) -> None:
    """Render the optimizer's applied rewrite steps (if any)."""
    if report.rewrites:
        print(f"rewrites ({report.optimize_seconds * 1e3:.2f} ms):")
        for step in report.rewrites:
            print(f"  {step}")
    else:
        print("rewrites: none applied")
    print()


def _cmd_profile(args: argparse.Namespace) -> int:
    query = parse_query(args.query)
    instance = _load_data(args.data)
    tracer = SpanTracer()
    metrics = MetricsRegistry()
    try:
        with metrics.time("translate"):
            result = translate_query(query, tracer=tracer)
    except NotEmAllowedError as err:
        print(f"refused: {err}", file=sys.stderr)
        return 1
    interp = _load_functions(args.functions, result.schema)
    profile = ExecutionProfile(query=args.query)
    with metrics.time("execute"):
        report = execute(result.plan, instance, interp,
                         schema=result.schema, profile=profile,
                         batch_size=args.batch_size,
                         optimize=args.optimize,
                         batch_repr=args.batch_repr)
    metrics.gauge("plan.size").set(result.plan_size)
    metrics.counter("trace.steps").inc(len(result.trace))
    metrics.counter("operator.rows").inc(profile.total_rows())
    metrics.counter("function.calls").inc(report.function_calls)

    print(f"query: {query}")
    print(f"plan:  {to_algebra_text(result.plan)}")
    print()
    print("translation spans:")
    print(tracer.render())
    print()
    _print_rewrites(report)
    print("explain analyze:")
    print(render_explain_analyze(profile))
    print()
    print("q-error by operator class:")
    print(q_error_summary(profile))
    if args.json:
        try:
            save_bundle(args.json, profile=profile, tracer=tracer,
                        metrics=metrics)
        except OSError as err:
            reason = err.strerror or str(err)
            raise _DataFileError(
                f"cannot write profile to {args.json!r}: {reason}",
                hint="--json expects a writable output path") from None
        print(f"\nprofile written to {args.json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import QueryService, load_requests

    try:
        requests = load_requests(args.requests)
    except OSError as err:
        reason = err.strerror or str(err)
        raise _DataFileError(
            f"cannot read requests file {args.requests!r}: {reason}",
            hint="--requests expects a JSON array of request objects") from None
    except ValueError as err:
        raise _DataFileError(
            f"cannot parse requests file {args.requests!r}: {err}",
            hint="--requests expects a JSON array of request objects") from None
    instance = _load_data(args.data)
    interp = None
    if args.functions:
        interp = _load_functions(args.functions, None)
    service = QueryService(instance, interpretation=interp,
                           cache_size=args.cache_size,
                           max_workers=args.workers,
                           default_timeout_s=args.timeout,
                           optimize=args.optimize)
    with service:
        reports = service.run_many(requests)
    failures = 0
    for i, report in enumerate(reports):
        print(f"[{i}] {report.query}")
        print(f"    {report.summary()}")
        for row in report.rows()[:args.limit]:
            print("      " + "\t".join(str(v) for v in row))
        if report.result is not None and len(report.result) > args.limit:
            print(f"      ... ({len(report.result)} rows total)")
        if report.status in ("error", "timeout"):
            failures += 1
    stats = service.stats()
    lookups = stats["hits"] + stats["misses"]
    rate = stats["hits"] / lookups if lookups else 0.0
    print()
    print(f"served {stats['requests']} requests: "
          f"{stats['hits']} cache hits, {stats['misses']} misses "
          f"({rate:.0%} hit rate), {stats['evictions']} evictions, "
          f"{stats['refusals']} refusals, {stats['errors']} errors, "
          f"{stats['timeouts']} timeouts")
    if args.json:
        import json as _json
        payload = {
            "reports": [r.to_dict() for r in reports],
            "stats": stats,
            "metrics": service.metrics.snapshot(),
        }
        try:
            with open(args.json, "w") as handle:
                _json.dump(payload, handle, indent=2, default=str)
                handle.write("\n")
        except OSError as err:
            reason = err.strerror or str(err)
            raise _DataFileError(
                f"cannot write service report to {args.json!r}: {reason}",
                hint="--json expects a writable output path") from None
        print(f"report written to {args.json}")
    return 0 if failures == 0 else 2


def _cmd_bench_service(args: argparse.Namespace) -> int:
    from repro.service.bench import render_service_bench, run_service_bench

    measurements = run_service_bench(repeat=args.repeat,
                                     batch_sizes=tuple(args.batch),
                                     engine_batch_size=args.batch_size,
                                     engine_batch_repr=args.batch_repr)
    print(render_service_bench(measurements))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.engine.stats import collect_stats

    instance = _load_data(args.data)
    stats = collect_stats(instance)
    if args.json is not None:
        import json as _json
        payload = _json.dumps({
            name: {"rows": table.rows, "distinct": list(table.distinct)}
            for name, table in sorted(stats.tables.items())
        }, indent=2)
        if args.json == "-":
            print(payload)
        else:
            try:
                with open(args.json, "w") as handle:
                    handle.write(payload + "\n")
            except OSError as err:
                reason = err.strerror or str(err)
                raise _DataFileError(
                    f"cannot write stats to {args.json!r}: {reason}",
                    hint="--json expects a writable output path") from None
            print(f"stats written to {args.json}")
        return 0
    if not stats.tables:
        print("instance has no relations")
        return 0
    width = max(len(name) for name in stats.tables)
    for name, table in sorted(stats.tables.items()):
        distinct = ", ".join(str(d) for d in table.distinct)
        print(f"{name:>{width}}: {table.rows} rows; "
              f"distinct per column: [{distinct}]")
    return 0


def _cmd_demo(_args: argparse.Namespace) -> int:
    from repro.workloads.gallery import GALLERY
    print("The paper's query gallery (see examples/safety_lab.py for the "
          "full walkthrough):\n")
    for key, entry in GALLERY.items():
        print(f"{key:>14}: {entry.text}")
        print(f"{'':>14}  {entry.description}")
    return 0


def _add_batch_size(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-size", type=int, default=None, metavar="N",
        help="engine rows per batch (default: REPRO_BATCH_SIZE env "
             "var, else 1024)")


def _add_optimize(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--optimize", action=argparse.BooleanOptionalAction, default=None,
        help="cost-based rewrite pass (default: REPRO_OPTIMIZE env "
             "var, else on)")


def _add_batch_repr(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--batch-repr", choices=("tuple", "column"), default=None,
        help="engine batch representation (default: REPRO_BATCH_REPR "
             "env var, else tuple); column runs NumPy-vectorized "
             "kernels and falls back to tuple batches without NumPy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Safety and translation of calculus queries with "
                    "scalar functions (PODS 1993 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="classify a query under the safety criteria")
    check.add_argument("query", help="e.g. \"{ x | R(x) & exists y (f(x) = y & ~R(y)) }\"")
    check.add_argument("--explain", action="store_true",
                       help="render the full structured diagnostics for "
                            "every safety violation")
    check.set_defaults(fn=_cmd_check)

    lint = sub.add_parser(
        "lint",
        help="run the static formula linter (schema misuse, quantifier "
             "hygiene, trivial atoms, em-allowed safety)")
    lint.add_argument("query")
    lint.add_argument("--json", nargs="?", const="-", metavar="OUT",
                      help="emit the diagnostics bundle as JSON to OUT "
                           "(or stdout when no path is given)")
    lint.set_defaults(fn=_cmd_lint)

    translate = sub.add_parser("translate", help="translate a query to the algebra")
    translate.add_argument("query")
    translate.add_argument("--trace", action="store_true",
                           help="print every transformation application")
    translate.add_argument("--explain", action="store_true",
                           help="print the operator tree")
    translate.set_defaults(fn=_cmd_translate)

    typecheck = sub.add_parser(
        "typecheck",
        help="infer per-column plan types (value types, nullability, "
             "keys, term_k finiteness certificate); with --data also "
             "validate every optimizer rewrite")
    typecheck.add_argument("query")
    typecheck.add_argument("--data", default=None,
                           help="instance JSON file: run the cost-based "
                                "optimizer and certify its rewrite steps")
    typecheck.add_argument("--json", nargs="?", const="-", metavar="OUT",
                           help="emit the typecheck report as JSON to OUT "
                                "(or stdout when no path is given)")
    typecheck.set_defaults(fn=_cmd_typecheck)

    run = sub.add_parser("run", help="translate and execute against a JSON instance")
    run.add_argument("query")
    run.add_argument("--data", required=True, help="instance JSON file")
    run.add_argument("--functions",
                     help="Python file defining FUNCTIONS = {name: callable}")
    run.add_argument("--limit", type=int, default=20, help="max rows to print")
    run.add_argument("--analyze", action="store_true",
                     help="print the EXPLAIN ANALYZE operator tree "
                          "(estimated vs actual rows and timings)")
    _add_batch_size(run)
    _add_optimize(run)
    _add_batch_repr(run)
    run.set_defaults(fn=_cmd_run)

    profile = sub.add_parser(
        "profile",
        help="instrumented run: phase spans, per-operator metrics, "
             "EXPLAIN ANALYZE, q-errors")
    profile.add_argument("query")
    profile.add_argument("--data", required=True, help="instance JSON file")
    profile.add_argument("--functions",
                         help="Python file defining FUNCTIONS = {name: callable}")
    profile.add_argument("--json", metavar="OUT",
                         help="write the profile/span/metrics bundle as JSON")
    _add_batch_size(profile)
    _add_optimize(profile)
    _add_batch_repr(profile)
    profile.set_defaults(fn=_cmd_profile)

    serve = sub.add_parser(
        "serve",
        help="run a QueryService over a JSON request file "
             "(plan caching, batched parameters, thread pool)")
    serve.add_argument("--requests", required=True,
                       help="JSON array of requests: {\"query\": ...} or "
                            "{\"params\": [...], \"head\": [...], "
                            "\"body\": ..., \"rows\": [[...]]}")
    serve.add_argument("--data", required=True, help="instance JSON file")
    serve.add_argument("--functions",
                       help="Python file defining FUNCTIONS = {name: callable}")
    serve.add_argument("--cache-size", type=int, default=256,
                       help="plan cache capacity (default 256)")
    serve.add_argument("--workers", type=int, default=4,
                       help="thread pool size (default 4)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="per-request timeout in seconds")
    serve.add_argument("--limit", type=int, default=5,
                       help="max rows to print per request")
    serve.add_argument("--json", metavar="OUT",
                       help="write reports + cache stats + metrics as JSON")
    _add_optimize(serve)
    serve.set_defaults(fn=_cmd_serve)

    bench_service = sub.add_parser(
        "bench-service",
        help="in-process serving benchmark: cold-vs-warm plan cache, "
             "batched-vs-looped parameter binding")
    bench_service.add_argument("--repeat", type=int, default=5,
                               help="warm repetitions per query (default 5)")
    bench_service.add_argument("--batch", type=int, nargs="+",
                               default=[1, 8, 64],
                               help="parameter batch sizes (default 1 8 64)")
    _add_batch_size(bench_service)
    _add_batch_repr(bench_service)
    bench_service.set_defaults(fn=_cmd_bench_service)

    stats = sub.add_parser(
        "stats",
        help="dump collected per-relation statistics (rows, per-column "
             "distinct counts) — the optimizer's estimator inputs")
    stats.add_argument("--data", required=True, help="instance JSON file")
    stats.add_argument("--json", nargs="?", const="-", metavar="OUT",
                       help="emit the statistics as JSON to OUT "
                            "(or stdout when no path is given)")
    stats.set_defaults(fn=_cmd_stats)

    demo = sub.add_parser("demo", help="list the paper's query gallery")
    demo.set_defaults(fn=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _DataFileError as err:
        print(f"error: {err}", file=sys.stderr)
        print(f"hint: {err.hint}", file=sys.stderr)
        return DATA_ERROR_EXIT
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
