"""Interpretations of scalar function symbols.

The paper separates the *syntax* of scalar functions from their meaning:
an interpretation ``F`` assigns to each function symbol of the schema a
total function over the underlying domain.  This module provides:

* :class:`Interpretation` — wraps Python callables, with call counting
  (used by the benchmark harness);
* :class:`TabulatedInterpretation` — a finite table plus fallback,
  the building block for the embedded-domain-independence experiments,
  where two interpretations must *agree on a neighborhood* of the active
  domain and be arbitrary elsewhere.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, Mapping

from repro.core.schema import DatabaseSchema
from repro.errors import EvaluationError

__all__ = ["Interpretation", "TabulatedInterpretation", "perturbed_outside",
           "UNDEFINED", "partial_function"]


class _Undefined:
    """The result of applying a partial scalar function outside its
    domain (Section 9 practical setting).

    Semantics fixed across the library: any atom whose term evaluation
    is UNDEFINED is *false* (hence its negation is true), and a
    constructed row containing UNDEFINED is dropped.  This keeps the
    calculus semantics, the algebra evaluator, and the physical engine
    in agreement — tested in tests/test_partial_functions.py.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"

    def __bool__(self) -> bool:
        return False


#: Singleton undefined value.
UNDEFINED = _Undefined()


def partial_function(fn, exceptions=(ArithmeticError, ValueError, TypeError)):
    """Wrap a host function so that the listed exceptions (and explicit
    ``None`` results) become :data:`UNDEFINED` instead of propagating."""
    def wrapper(*args):
        try:
            out = fn(*args)
        except exceptions:
            return UNDEFINED
        return UNDEFINED if out is None else out
    return wrapper


class Interpretation:
    """Maps scalar function names to Python callables.

    Implements ``__getitem__`` so it can be passed directly wherever a
    plain mapping of functions is expected (e.g.
    :func:`repro.core.terms.evaluate_term`).  Each lookup returns a
    counting wrapper, so ``interp.call_count("f")`` reports how many
    times ``f`` was applied — the paper's practical discussion (Section 9)
    is about limiting exactly these applications, and benchmark E6 counts
    them.  Callers that apply :meth:`raw` functions themselves report
    their applications through :meth:`add_calls`.
    """

    def __init__(self, functions: Mapping[str, Callable], name: str = "",
                 enumerators: Mapping[str, Callable] | None = None):
        self.name = name
        self._functions: dict[str, Callable] = dict(functions)
        self._enumerators: dict[str, Callable] = dict(enumerators or {})
        self._calls: dict[str, int] = {fname: 0 for fname in self._functions}

    # -- mapping protocol -------------------------------------------------------

    def __getitem__(self, name: str) -> Callable:
        try:
            fn = self._functions[name]
        except KeyError:
            raise EvaluationError(f"interpretation has no function {name!r}") from None

        def wrapper(*args):
            self._calls[name] = self._calls.get(name, 0) + 1
            return fn(*args)

        return wrapper

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    @property
    def function_names(self) -> tuple[str, ...]:
        return tuple(self._functions)

    def raw(self, name: str) -> Callable:
        """The underlying callable, without counting."""
        try:
            return self._functions[name]
        except KeyError:
            raise EvaluationError(f"interpretation has no function {name!r}") from None

    def apply(self, name: str, *args) -> Hashable:
        """Apply function ``name`` (counted)."""
        return self[name](*args)

    def enumerator(self, name: str) -> Callable:
        """The inverse enumerator registered under ``name`` (see
        :mod:`repro.finds.annotations`); called with the known values,
        it yields tuples of derived values."""
        try:
            return self._enumerators[name]
        except KeyError:
            raise EvaluationError(
                f"interpretation has no enumerator {name!r}") from None

    # -- statistics ----------------------------------------------------------------

    def call_count(self, name: str | None = None) -> int:
        if name is None:
            return sum(self._calls.values())
        return self._calls.get(name, 0)

    def add_calls(self, name: str, n: int) -> None:
        """Count ``n`` applications of ``name`` made through :meth:`raw`
        (the engine's kernels count locally and report once per
        batch)."""
        self._calls[name] = self._calls.get(name, 0) + n

    def reset_counts(self) -> None:
        self._calls = {fname: 0 for fname in self._functions}

    # -- validation ------------------------------------------------------------------

    def validate(self, schema: DatabaseSchema) -> None:
        """Every function of the schema must be interpreted."""
        for sig in schema.functions:
            if sig.name not in self._functions:
                raise EvaluationError(
                    f"interpretation missing function {sig.name!r} required by schema"
                )

    def __repr__(self) -> str:
        label = self.name or "anonymous"
        return f"Interpretation({label}: {', '.join(self._functions)})"


class TabulatedInterpretation(Interpretation):
    """An interpretation given by finite tables with a fallback rule.

    For each function name, a dict from argument tuples to values; calls
    outside the table go to ``fallback(name, args)``.  Two tabulated
    interpretations sharing tables but with different fallbacks *agree on
    the tabulated neighborhood* — the construction behind the
    embedded-domain-independence experiments (E2).
    """

    def __init__(self, tables: Mapping[str, Mapping[tuple, Hashable]],
                 fallback: Callable[[str, tuple], Hashable],
                 name: str = ""):
        self.tables = {fname: dict(t) for fname, t in tables.items()}
        self.fallback = fallback

        def make(fname: str) -> Callable:
            table = self.tables[fname]

            def fn(*args):
                if args in table:
                    return table[args]
                return fallback(fname, args)

            return fn

        super().__init__({fname: make(fname) for fname in self.tables}, name=name)


def perturbed_outside(base: Interpretation, protected_args: Iterable[tuple],
                      twist: Callable[[str, tuple], Hashable],
                      name: str = "perturbed") -> Interpretation:
    """A new interpretation agreeing with ``base`` on protected argument
    tuples and answering ``twist(fname, args)`` elsewhere.

    ``protected_args`` is an iterable of *argument tuples* (any arity);
    an application ``f(a1, ..., an)`` is protected when ``(a1, ..., an)``
    is in the set.  Used to realize "interpretations that agree on
    ``term_k(adom(q, I))``" in the EDI experiments.
    """
    protected = set(tuple(a) for a in protected_args)

    def make(fname: str) -> Callable:
        raw = base.raw(fname)

        def fn(*args):
            if args in protected:
                return raw(*args)
            return twist(fname, args)

        return fn

    return Interpretation({fname: make(fname) for fname in base.function_names},
                          name=name)
