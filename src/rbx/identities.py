"""The identity catalog and the machinery that evaluates it.

Every checkable identity in the toolkit is registered here under a stable
tag.  An entry computes the list of summands of the residual at one tuple
of basis indices; the identity holds iff the summands add to zero at every
tuple.  Checkers assemble reports by running catalog entries
(`run_identities`, which inside a `shared_verdicts` scope computes each
report once, under a key read off the whole context), composite checkers
assemble theirs from named parts (`run_parts`), search compiles the
same entries into GF(p) rows, one per residual entry of each (tag, basis
tuple) step (`steps`), and the fault-injection hook (used by the
mutation-sensitivity tests) flips the sign of a single summand of a single
identity.  One function may be registered under several tags; each tag
keeps its own faults.

Operands are checked once, where data enter a checker: the checker applies
its shape rules (`structures.square_on` and the like) and builds a `Ctx`,
which refuses data over two fields and coerces scalar data, so a context
holds stored data only.  Term functions and the helpers they call then
call the kernel's unchecked cores (`Matrix._apply`, `_mul`, `_delta`,
`kernel._leg_apply`, ...), never the public ops, which check their
operands for callers outside the catalog.  A context's data are stored
and over one field (`Ctx` refuses data over none), and each field has one
column-sum rule: `evaluate` adds a step's nonzero summands column by
column, vectors and container entries alike, and reduces each entry once,
by `% p` over GF(p) (`_sum_mod`) and over Q as ints, normalised once
(`_sum`), so an entry in any other form fails loudly.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter
from typing import Callable

from .errors import PayloadError
from .kernel import (GFElement, Matrix, Tensor2, Tensor3, _all_zero, _Container,
                     _q_lowest, _QFraction, same_field, show)
from .report import Report, Violation, make_report

CATALOG: dict[str, "Identity"] = {}

# Tags that appear in reports but are not sign-flippable residual identities
# (structural predicates such as nondegeneracy, and named hypothesis gates).
EXTRA_TAGS = {
    "frobenius:nondegenerate",
    "frobenius:symmetry",
    "antisymmetric-tensor",
    "central-element",
    "orthogonal-product",
    "commutative-carrier",
    "cocommutative-carrier",
    "map-equality",
    "field-characteristic",
    "rep-homomorphism",
    "equivalence-mismatch",
}


@dataclass(frozen=True)
class Identity:
    tag: str
    spaces: tuple[str, ...]
    terms: Callable


def identity(tag: str, spaces: tuple[str, ...] = ()):
    """Register `terms` under `tag`, quantified over the basis tuples of
    `spaces`.  Search compiles a tag's steps into GF(p) quadratic rows by
    evaluating each step once on maps whose entries are variables, and it
    refuses a step whose residual has degree above 2 in them; a seeded
    fault flips a summand's sign and keeps its degree."""
    def register(fn):
        if tag in CATALOG:
            raise ValueError(f"duplicate identity tag {tag!r}")
        CATALOG[tag] = Identity(tag, tuple(spaces), fn)
        return fn
    return register


def known_tags():
    return set(CATALOG) | EXTRA_TAGS


_SCALARS = {int, Fraction, _QFraction, GFElement}  # the types of a scalar datum


class Ctx:
    """Attribute bag handed to identity term functions.

    `spaces` maps a space name (e.g. "A", "C", "M") to its basis labels;
    identities quantify over the spaces they declare.  `field` is the one
    field of every datum that has one (tuples of data are looked into);
    data over two different fields raise `FieldError`, and data over none
    `PayloadError`.  A scalar datum (an int, a `Fraction` or a `GFElement`)
    goes to the field's stored form (`coerce`, which refuses a scalar of
    another field), so a context holds stored data only: containers and
    tables, which keep their entries stored, and coerced scalars.  Both are
    slots, so `vars(ctx)` holds exactly the data, each under its name.
    """

    __slots__ = ("spaces", "field", "__dict__")

    def __init__(self, spaces=None, **data):
        self.spaces = {k: tuple(v) for k, v in (spaces or {}).items()}
        field = None
        for v in data.values():
            for item in v if isinstance(v, tuple) else (v,):
                f = getattr(item, "field", None)
                if f is field or f is None:
                    continue
                if field is None:
                    field = f
                else:
                    same_field(field, f)
        if field is None:
            raise PayloadError("a context needs data over a field")
        self.field = field
        for k, v in data.items():
            if type(v) in _SCALARS:
                data[k] = field.coerce(v)
        vars(self).update(data)


_FAULTS: dict[str, int] = {}

# the open `shared_verdicts` scope's memo, or None outside every scope
_VERDICTS: ContextVar[dict | None] = ContextVar("rbx_shared_verdicts", default=None)


@contextmanager
def seeded_fault(tag: str, term: int = 0):
    """Flip the sign of one summand of one identity while the context is
    open.  Inside a `shared_verdicts` scope, the fault's lifetime gets a
    fresh memo, so no verdict computed under the fault outlives it and no
    verdict computed without it is served under it; the outer memo is
    restored when the fault closes.  Faults are process-global test
    tooling: every thread evaluates under them, but only the opening
    thread's memo is swapped, so open none while another thread shares
    verdicts."""
    if tag not in CATALOG:
        raise KeyError(f"unknown identity tag {tag!r}")
    token = None if _VERDICTS.get() is None else _VERDICTS.set({})
    _FAULTS[tag] = term
    try:
        yield
    finally:
        _FAULTS.pop(tag, None)
        if token is not None:
            _VERDICTS.reset(token)


@contextmanager
def shared_verdicts():
    """Share checker verdicts while the context is open: inside it,
    `run_identities` computes each report once and serves repeats from a
    memo that is dropped when the outermost scope closes.  Scopes nest, an
    inner one reusing the outer memo.  The memo lives in a `ContextVar`, so
    a scope is seen only by its own thread (and context), and it is never
    pickled: a worker process opens its own.  A seeded fault opened inside
    a scope swaps in a memo of its own."""
    memo = _VERDICTS.get()
    token = _VERDICTS.set({} if memo is None else memo)
    try:
        yield
    finally:
        _VERDICTS.reset(token)


def _itself(value):
    return value


# how a datum of each kernel type keys a shared verdict: a container by its
# class, shape and entries, read in C (its field is the context's, which the
# key names), a scalar by value; a datum of any other type, a tuple of
# containers included, keys it by identity (`id`)
_KEY_OF = {cls: attrgetter("__class__", *cls.__slots__, "entries")
           for cls in (Matrix, Tensor2, Tensor3)}
_KEY_OF.update(dict.fromkeys(_SCALARS, _itself))


def _neg(value):
    if isinstance(value, tuple):
        return tuple(-x for x in value)
    return -value


def _container_sum(terms, p):
    """The sum of container summands over the field of modulus `p` (None
    over Q), in stored form: after each one's type, field and shape check,
    the nonzero ones are summed entry by entry, each entry reduced once
    (`% p`, or `_q_column` over Q); a lone nonzero summand, or the first
    when all are zero, is the sum as it is."""
    first = terms[0]
    cls, head, live = type(first), first._head(first), []
    for t in terms:
        if type(t) is not cls:
            raise TypeError(f"a {type(t).__name__} summand among {cls.__name__} summands")
        if t._head(t) != head:
            first._shared_head(t)  # raises: another field, or another shape
        if any(t.entries) if p else not _all_zero(None, t.entries):
            live.append(t)
    if len(live) < 2:
        return live[0] if live else first
    cols = zip(*[t.entries for t in live])
    if p:
        return first._make(*head, tuple([sum(col) % p for col in cols]))
    return first._make(*head, tuple(map(_q_column, cols)))


def _sum_mod(terms, p):
    """The sum of the summands over GF(p), in stored form: the nonzero
    vectors (`any`) summed column by column, each column reduced once (the
    zero vector if none is nonzero), containers by `_container_sum`, and
    scalars summed and reduced.  A search-compile entry (`_Quadratic`)
    folds by `+`, as an int does."""
    first = terms[0]
    if isinstance(first, tuple):
        live = [t for t in terms if any(t)]
        return tuple([sum(col) % p for col in zip(*live)]) if live else (0,) * len(first)
    if isinstance(first, _Container):
        return _container_sum(terms, p)
    return sum(terms) % p


def _sum(terms):
    """The sum of the summands over Q, in stored form: the nonzero vectors
    summed column by column (`_q_column`; a lone one, or the first when all
    are zero, as it is), containers by `_container_sum`, scalars by
    `_q_column`."""
    first = terms[0]
    if isinstance(first, tuple):
        live = [t for t in terms if not _all_zero(None, t)]
        if len(live) < 2:
            return live[0] if live else first
        return tuple([_q_column(col) for col in zip(*live)])
    if isinstance(first, _Container):
        return _container_sum(terms, None)
    return _q_column(terms)


def _q_column(col):
    """The sum of one column of stored Q entries: as ints, normalised once
    (`kernel._q_lowest`), as the kernel ops sum their products.  An int
    entry has no `_numerator` slot and fails loudly."""
    num, den = 0, 1  # the sum so far, not in lowest terms
    for x in col:
        nx = x._numerator
        if nx:
            dx = x._denominator
            if dx == den:
                num += nx
            else:
                num, den = num * dx + nx * den, den * dx
    return _q_lowest(num, den)


def _is_zero(value, p):
    """Whether a stored residual over the field of modulus `p` (None over Q)
    is zero, never by `Fraction.__bool__` (`kernel._all_zero`)."""
    if isinstance(value, _Container):
        return value.is_zero()
    if isinstance(value, tuple):
        return not any(value) if p else _all_zero(None, value)
    return not (value if p else value._numerator)


def _render(value):
    if isinstance(value, tuple):
        return tuple(map(show, value))
    if isinstance(value, _Container):
        return value.render() or ("0",)
    return (show(value),)


def evaluate(tag: str, ctx: Ctx, idx: tuple[int, ...]):
    """Residual of one identity at one basis tuple (with any seeded fault
    applied), in stored form: `_sum_mod` over GF(p), `_sum` over Q."""
    terms = CATALOG[tag].terms(ctx, idx)
    hit = _FAULTS.get(tag)
    if hit is not None and hit < len(terms):
        terms = list(terms)
        terms[hit] = _neg(terms[hit])
    p = ctx.field.modulus
    return _sum_mod(terms, p) if p else _sum(terms)


def _run(check: str, tags, ctx: Ctx):
    """The report of `run_identities`, evaluated afresh."""
    violations = []
    p = ctx.field.modulus
    for tag in tags:
        ident = CATALOG[tag]
        label_sets = [ctx.spaces[s] for s in ident.spaces]
        for idx in itertools.product(*(range(len(ls)) for ls in label_sets)):
            res = evaluate(tag, ctx, idx)
            if not _is_zero(res, p):
                inputs = tuple(label_sets[k][i] for k, i in enumerate(idx))
                violations.append(Violation(tag, inputs, _render(res)))
    return make_report(check, violations)


def run_identities(check: str, tags, ctx: Ctx):
    """Evaluate a tag tuple over all basis tuples; report every violation.

    Inside a `shared_verdicts` scope the report is computed once per key,
    and a repeat gets the same object.  The key is the check, the tags, each
    space with its labels, the field and every datum of `ctx` under its
    name (`_KEY_OF`); the entry holds the data, and through them the field,
    so no id that the key names is reused while the entry lives.  Outside
    every scope no key is built."""
    memo = _VERDICTS.get()
    if memo is None:
        return _run(check, tags, ctx)
    data = vars(ctx)
    key = (check, tags, tuple(ctx.spaces.items()), id(ctx.field), tuple(data),
           *[_KEY_OF.get(type(v), id)(v) for v in data.values()])
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = (_run(check, tags, ctx), tuple(data.values()))
    return hit[0]


def run_parts(check: str, parts, violations=()):
    """The one runner of composite reports: a report named `check` with
    `violations` and one sub-report per part, in order.  A part is a ready
    `Report`, taken as it is, or a (name, tags, ctx) triple, run as
    `run_identities(name, tags, ctx)`."""
    return make_report(check, violations, [
        part if isinstance(part, Report) else run_identities(*part) for part in parts])


def steps(tags, ctx: Ctx) -> tuple:
    """Every (tag, basis tuple) step of `tags` over the spaces of `ctx`, in
    the order `run_identities` evaluates them."""
    return tuple(
        (tag, idx) for tag in tags
        for idx in itertools.product(
            *(range(len(ctx.spaces[s])) for s in CATALOG[tag].spaces)))
