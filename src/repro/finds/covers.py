"""Reduced covers for FinD sets (Section 8 of the paper).

A *reduced cover* is a succinct canonical representative of a FinD set:
singleton decomposition, left-reduction, removal of redundant
dependencies, and merging per left side.  The paper introduces these so
that the translation algorithm can carry FinD information through the
formula without ever materializing exponential closures; the E5
benchmark measures exactly that saving.

Besides reduction, this module implements the three cover operations
``bd`` needs:

* :func:`cover_union` — conjunction: dependencies of either conjunct;
* :func:`cover_intersection` — disjunction: dependencies entailed by
  *both* disjuncts (the closure intersection);
* :func:`cover_project` — quantification: dependencies among the
  remaining variables entailed by the original set (close, then discard
  anything mentioning the quantified variables — rules B10/B11).

Closure intersection and projection are exact (subset enumeration) up
to ``exact_limit`` relevant variables and fall back to a sound
candidate-based heuristic beyond it; the heuristic can only make the
safety analysis more conservative, never unsound.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable

from repro.finds.closure import attribute_closure
from repro.finds.find import FinD

__all__ = [
    "reduce_cover",
    "cover_union",
    "cover_intersection",
    "cover_project",
    "cover_size",
    "mentioned_variables",
    "EXACT_LIMIT",
]

#: Default bound on the number of relevant variables up to which the
#: disjunction/projection operations enumerate all subsets exactly.
EXACT_LIMIT = 12


def mentioned_variables(finds: Iterable[FinD]) -> frozenset[str]:
    """All variables occurring in any dependency of the set."""
    out: set[str] = set()
    for dep in finds:
        out |= dep.variables
    return frozenset(out)


def cover_size(finds: Iterable[FinD]) -> int:
    """Total number of variable occurrences — the paper's length measure
    ('time linear in the length of rbd(...)')."""
    return sum(len(dep.lhs) + len(dep.rhs) for dep in finds)


def reduce_cover(finds: Iterable[FinD]) -> frozenset[FinD]:
    """The reduced cover of ``finds``.

    Steps (standard minimal-cover construction, cf. [Mai83], adapted to
    FinDs exactly as the paper adapts FD machinery):

    1. drop trivial dependencies, decompose right sides to singletons;
    2. left-reduce each dependency (remove extraneous LHS variables);
    3. drop dependencies implied by the others;
    4. merge dependencies sharing a left side.

    The result entails, and is entailed by, the input.
    """
    # 1. singleton decomposition
    singles: set[FinD] = set()
    for dep in finds:
        for attr in dep.rhs - dep.lhs:
            singles.add(FinD(dep.lhs, frozenset({attr})))
    working = list(singles)

    # 2. left-reduction
    reduced: list[FinD] = []
    for dep in working:
        lhs = set(dep.lhs)
        for attr in sorted(dep.lhs):
            if attr not in lhs:
                continue
            trial = lhs - {attr}
            if dep.rhs <= attribute_closure(trial, working):
                lhs = trial
        reduced.append(FinD(frozenset(lhs), dep.rhs))
    # deduplicate after left-reduction
    working = list(dict.fromkeys(reduced))

    # 3. redundancy elimination — iterate until stable; removal order is
    # deterministic (sorted) so covers are canonical for equal inputs.
    working.sort(key=lambda d: (sorted(d.lhs), sorted(d.rhs)))
    changed = True
    while changed:
        changed = False
        for i, dep in enumerate(working):
            rest = working[:i] + working[i + 1:]
            if dep.rhs <= attribute_closure(dep.lhs, rest):
                working = rest
                changed = True
                break

    # 4. merge per left side
    merged: dict[frozenset[str], set[str]] = {}
    for dep in working:
        merged.setdefault(dep.lhs, set()).update(dep.rhs)
    return frozenset(FinD(lhs, frozenset(rhs)) for lhs, rhs in merged.items())


def cover_union(*covers: Iterable[FinD]) -> frozenset[FinD]:
    """Reduced cover of the union — the ``bd`` rule for conjunction."""
    combined: set[FinD] = set()
    for cover in covers:
        combined |= set(cover)
    return reduce_cover(combined)


def _subsets(items: frozenset[str]):
    ordered = sorted(items)
    return chain.from_iterable(combinations(ordered, r) for r in range(len(ordered) + 1))


def cover_intersection(covers: list[Iterable[FinD]],
                       exact_limit: int = EXACT_LIMIT) -> frozenset[FinD]:
    """Dependencies entailed by *every* cover — the ``bd`` rule for
    disjunction (B6): a disjunction guarantees only what all branches do.

    Exact when the union of mentioned variables is small (subset
    enumeration of left sides); beyond ``exact_limit`` variables a sound
    candidate heuristic is used (left sides drawn from the input covers
    and their pairwise unions).
    """
    covers = [list(c) for c in covers]
    if not covers:
        return frozenset()
    if len(covers) == 1:
        return reduce_cover(covers[0])

    relevant = frozenset().union(*(mentioned_variables(c) for c in covers))
    out: set[FinD] = set()

    if len(relevant) <= exact_limit:
        candidate_lhss = [frozenset(s) for s in _subsets(relevant)]
    else:
        seeds: set[frozenset[str]] = {frozenset()}
        for cover in covers:
            for dep in cover:
                seeds.add(dep.lhs)
        pairwise = {a | b for a in seeds for b in seeds}
        candidate_lhss = sorted(seeds | pairwise, key=lambda s: (len(s), sorted(s)))

    for lhs in candidate_lhss:
        common = relevant
        for cover in covers:
            common = common & attribute_closure(lhs, cover)
            if not common - lhs:
                break
        rhs = common - lhs
        if rhs:
            out.add(FinD(lhs, rhs))
    return reduce_cover(out)


def cover_project(finds: Iterable[FinD], drop: Iterable[str],
                  exact_limit: int = EXACT_LIMIT) -> frozenset[FinD]:
    """Dependencies among the *remaining* variables entailed by ``finds``
    — the ``bd`` rule for quantifiers (B10/B11): close, then discard
    every dependency in which a quantified variable occurs.

    This is FD projection: for each left side X over the kept variables,
    emit ``X -> (closure(X) & kept) - X``.  Exact up to ``exact_limit``
    kept-and-relevant variables; heuristic (left sides from the input,
    restricted to kept variables) beyond.
    """
    finds = list(finds)
    drop = frozenset(drop)
    if not drop:
        return reduce_cover(finds)
    relevant = mentioned_variables(finds)
    kept = relevant - drop
    out: set[FinD] = set()

    if len(kept) <= exact_limit:
        candidate_lhss = [frozenset(s) for s in _subsets(kept)]
    else:
        seeds: set[frozenset[str]] = {frozenset()}
        for dep in finds:
            seeds.add(dep.lhs & kept)
        pairwise = {a | b for a in seeds for b in seeds}
        candidate_lhss = sorted(seeds | pairwise, key=lambda s: (len(s), sorted(s)))

    for lhs in candidate_lhss:
        closed = attribute_closure(lhs, finds)
        rhs = (closed & kept) - lhs
        if rhs:
            out.add(FinD(lhs, rhs))
    return reduce_cover(out)
