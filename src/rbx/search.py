"""Exhaustive finite-field enumeration and sampled-exact family checks.

A job's condition is built from the identity catalog over the tag tuple
that the kind's checker runs, with one context per group of tags that the
candidate's components are bound into (`_groups`).  A group binds each of
its names to one component plus a constant map (`_Bound`); a search job
binds each name to its own component, and the regression scans bind
S = R + lam*id.  `_compile` binds each group's names to components whose
entries are variables, one per entry of the candidate's k components,
and evaluates each (tag, basis tuple) step once through `evaluate` (so
seeded faults reach the rows) over a private polynomial scalar
(`kernel._Quadratic`): each residual entry comes out as one row of GF(p)
coefficients over the monomials of degree at most 2 in the k*d*d
entries, and a step of higher degree is refused, so a job is one system
of quadratic equations over GF(p).  `_rows` scales and de-duplicates the
rows for the solver, and `fast_predicate` tests one candidate against a
job's rows.
`solve_parts` solves a condition given as a checker's parts under any
such binding, which is how the regression scans are decided.  `_solve`
assigns the entries depth-first in index order and tests each row as
soon as its highest entry is assigned: a row that is linear in that
entry is solved for it, any other is tried at the p values.  The
survivors come out in candidate index order, and each is re-verified
through the public checkers, which run the same catalog entries in full
and return the full report.  Survivors that share a verdict share it
(`identities.shared_verdicts`): a bisystem's hits check their carriers'
ASI-bialgebra axioms once, and each distinct (R, S) or (Q, T) pair once.
No other kind's survivors repeat a verdict, so only a bisystem job opens
a scope (`_verdict_scope`).  A serial `run_search` opens it around the
compile and all of its shards, so the compile's axiom verdict serves
every shard; a shard in a worker process opens its own.  The memo is
dropped when the scope closes and is never pickled.  The independent
second opinion on a hit set is the brute-force oracles of the test suite.
Work is partitioned across shards by the index of the first component,
which makes shards embarrassingly parallel and the merged result
independent of the shard count; `run_search` builds and compiles a job's
groups once for all of its shards.
"""

from __future__ import annotations

import itertools
import os
import random
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Callable, NamedTuple

from .bisystems import ASIBisystem, bisystem_identities, check_bisystem
from .errors import BudgetError, FieldError, PayloadError
from .identities import Ctx, _stored, evaluate, shared_verdicts, steps
from .kernel import Matrix, Tensor2, _Quadratic, same_field
from .report import make_report
from .representations import adjoint_admissible_identities, adjoint_admissible_report
from .structures import _Multiplicative, check_axioms
from .systems import (_ALG_KINDS, _COALG_KINDS, _YBPAIR_TAGS, CoOperatorSystem,
                      OperatorSystem, check_cosystem, check_operator_system,
                      check_symmetric_ybpair, cosystem_identities,
                      operator_system_identities)
from .yangbaxter import _AYBE_TAGS, check_aybe

DEFAULT_BUDGET = 2 ** 32


# ---------------------------------------------------------------------------
# jobs and hits

@dataclass
class SearchJob:
    field: object                  # PrimeField
    carrier: object                # Algebra | LieAlgebra | Coalgebra | LieCoalgebra
    kind: str
    cocarrier: object = None       # coalgebra side for quadruple kinds
    weight: object = None
    fixed: dict | None = None      # e.g. {"R": Matrix, "S": Matrix}
    antisymmetric: bool = False
    shard: tuple = (0, 1)
    budget: int | None = None


@dataclass(frozen=True)
class Hit:
    index: int
    parts: tuple


# kind -> its components: "map" is a dim x dim matrix, "tensor" a 2-tensor
_KINDS = {
    **{kind: ("map",) * nmaps
       for kind, (_, nmaps, _) in {**_ALG_KINDS, **_COALG_KINDS}.items()},
    "adjoint_admissible": ("map", "map"),
    "bisystem": ("map", "map", "map", "map"),
    "aybe": ("tensor",),
    "symmetric_ybpair": ("tensor", "tensor"),
}


def _budget(job):
    """The job's candidate budget: `job.budget`, else `RBX_BUDGET`, else the
    default.  Anything but an integer of at least 1 is refused."""
    budget = job.budget
    if budget is None:
        env = os.environ.get("RBX_BUDGET")
        if not env:
            return DEFAULT_BUDGET
        try:
            budget = int(env)
        except ValueError:
            raise BudgetError(f"RBX_BUDGET is not an integer: {env!r}") from None
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 1:
        raise BudgetError(f"budget must be an integer of at least 1, got {budget!r}")
    return budget


def search_space(job: SearchJob) -> int:
    comps = _spec(job)
    d = job.carrier.dim
    return job.field.modulus ** (len(comps) * d * d)


def _spec(job):
    if job.kind not in _KINDS:
        raise PayloadError(f"unknown search kind {job.kind!r}")
    if not job.field.modulus:
        raise FieldError(f"search needs a prime field, got {job.field!r}")
    if job.kind == "bisystem" and job.cocarrier is None:
        raise PayloadError("kind 'bisystem' needs a cocarrier")
    for s in (job.carrier, job.cocarrier):
        if s is not None:
            same_field(job.field, s.field)
    return _KINDS[job.kind]


# ---------------------------------------------------------------------------
# conditions from the catalog

class _Bound(NamedTuple):
    """One group of a condition: a checker's tag tuple, one context for it,
    the context names that a candidate binds, and what each is bound to, a
    (component, constant) pair: the name is that component of the candidate
    plus the constant map (None for none), as S = R + lam*id binds S to R's
    component plus lam*id."""
    names: tuple
    tags: tuple
    ctx: Ctx
    on: tuple

    def bind(self, parts):
        """Set each name to its component of `parts` plus its constant."""
        for name, (k, const) in zip(self.names, self.on):
            setattr(self.ctx, name, parts[k] if const is None else parts[k] + const)


def _on(names, tags, ctx) -> _Bound:
    """A group whose names are components 0, 1, ... of a candidate."""
    return _Bound(names, tags, ctx, tuple((k, None) for k in range(len(names))))


def _by_name(tags, ctx, binding) -> _Bound:
    """A group that binds each name of `binding`, a {name: (component,
    constant)} dict, that the context carries a map for."""
    names = tuple(name for name in binding if getattr(ctx, name, None) is not None)
    return _Bound(names, tags, ctx, tuple(binding[name] for name in names))


# a bisystem's maps (R, S, Q, T) are its components 0 to 3
_BISYSTEM = {"R": (0, None), "S": (1, None), "Q": (2, None), "T": (3, None)}


def _fixed(job):
    """The fixed maps (R, S) of an `adjoint_admissible` job."""
    fixed = job.fixed or {}
    if not all(isinstance(fixed.get(k), Matrix) for k in ("R", "S")):
        raise PayloadError("kind 'adjoint_admissible' needs fixed maps R and S")
    return fixed["R"], fixed["S"]


def _bind(job, kind, carrier) -> _Bound:
    """The condition of one kind on one carrier, every component zero until
    a candidate is bound; a bad payload raises the checker's own error."""
    zero = Matrix.zero(job.field, carrier.dim)
    if kind in _ALG_KINDS:
        two = _ALG_KINDS[kind][1] == 2
        tags, ctx = operator_system_identities(kind, OperatorSystem(
            carrier, zero, zero if two else None, weight=job.weight))
        return _on(("R", "S")[:1 + two], tags, ctx)
    if kind in _COALG_KINDS:
        two = _COALG_KINDS[kind][1] == 2
        tags, ctx = cosystem_identities(kind, CoOperatorSystem(
            carrier, zero, zero if two else None, weight=job.weight))
        return _on(("Q", "T")[:1 + two], tags, ctx)
    if kind == "adjoint_admissible":
        R, S = _fixed(job)
        OperatorSystem(carrier, R, S)  # the checker's shape rules
        return _on(("Q", "T"), *adjoint_admissible_identities(carrier, R, S, zero, zero))
    if not isinstance(carrier, _Multiplicative):
        raise PayloadError(f"kind {kind!r} needs an algebra carrier")
    zero = Tensor2.zero(job.field, carrier.dim)
    if kind == "aybe":
        return _on(("r",), _AYBE_TAGS, Ctx({}, A=carrier, r=zero))
    return _on(("r", "s"), _YBPAIR_TAGS, Ctx({}, A=carrier, r=zero, s=zero))


def _groups(job):
    """(ok, groups): whether any candidate can hold at all, and the job's
    condition as groups.  A bisystem's groups are the parts of
    `check_bisystem` (`bisystems.bisystem_identities`): the paired system
    on (R, S), the paired cosystem on (Q, T) and the two admissibility tag
    tuples on all four maps; it has no hit unless its carriers form an ASI
    bialgebra."""
    _spec(job)
    if job.kind != "bisystem":
        return True, (_bind(job, job.kind, job.carrier),)
    A, C = job.carrier, job.cocarrier
    zero = Matrix.zero(job.field, A.dim)
    parts = bisystem_identities(ASIBisystem(A, C, zero, zero, zero, zero))
    ok = check_axioms("asi_bialgebra", (A, C)).passed
    return ok, tuple(_by_name(tags, ctx, _BISYSTEM) for _, tags, ctx in parts)


def fast_predicate(job: SearchJob) -> Callable:
    """The job's condition on a tuple of components, as `decode_candidate`
    returns them: every row of `_system(job)` vanishes at the candidate's
    entries, which holds exactly on the candidates that the solver keeps."""
    rows, p = _system(job), job.field.modulus

    def holds(parts) -> bool:
        y = [v for part in parts for v in part.entries] + [1]
        return all(sum(c * y[v] * y[w] for c, v, w in row) % p == 0 for row in rows)
    return holds


# ---------------------------------------------------------------------------
# candidates

def _component(field, d, flavor, entries):
    if flavor == "map":
        return Matrix._make(field, d, d, entries)
    return Tensor2._make(field, d, entries)


def decode_candidate(job: SearchJob, index: int):
    """Candidate at one index, as the components of `Hit.parts`: the index
    in base p, most significant digit first, is the row-major entries of
    each component in turn.  An index outside the search space is refused."""
    comps = _spec(job)
    space = search_space(job)
    if not 0 <= index < space:
        raise PayloadError(f"candidate index {index} is outside [0, {space})")
    p = job.field.modulus
    width = job.carrier.dim ** 2
    digits = []
    for _ in range(len(comps) * width):
        index, digit = divmod(index, p)
        digits.append(digit)
    digits.reverse()
    return tuple(_component(job.field, job.carrier.dim, flavor,
                            tuple(digits[k * width:(k + 1) * width]))
                 for k, flavor in enumerate(comps))


# ---------------------------------------------------------------------------
# the condition as GF(p) quadratic forms, and their solver
#
# Variable k*d*d + e is entry e of component k, so a candidate's index is its
# variables read as base-p digits.  A row is a tuple of monomials (c, v, w),
# c * y_v * y_w with v >= w, where the index -1 stands for the constant 1.

def _compile(field, d, flavors, groups) -> dict:
    """{(tag, basis tuple): rows} for every step of the groups, one row per
    residual entry, over the entries of the components that `flavors`
    lists ("map" or "tensor", each d x d).  Each group's names are bound to
    components whose entries are variables (`kernel._Quadratic`), each name
    plus its constant, and each step goes through `evaluate` once: every
    residual entry comes out as its own polynomial in those variables,
    exact over GF(2), where y^2 = y, too.  A step whose residual has degree
    above 2 in them raises `RuntimeError`: it has no rows."""
    p, n = field.modulus, d * d
    compiled = {}
    for bound in groups:
        bound.bind({k: _component(field, d, flavors[k],
                                  tuple(_Quadratic({(k * n + e,): 1}, p) for e in range(n)))
                    for k, _ in bound.on})
        for tag, idx in steps(bound.tags, bound.ctx):
            try:
                res = _stored(evaluate(tag, bound.ctx, idx), field)
            except RuntimeError as exc:
                raise RuntimeError(f"{tag} at {idx} in {bound.names}: {exc}") from exc
            compiled[tag, idx] = tuple(
                _row(x) for x in (res if isinstance(res, tuple) else res.entries))
    return compiled


def _row(x) -> tuple:
    """The monomials (c, v, w) of one stored residual entry."""
    if type(x) is int:
        return ((x, -1, -1),) if x else ()
    return tuple((c, *(m + (-1, -1))[:2]) for m, c in x.terms.items())


def _unique(rows, p) -> tuple:
    """The rows, each scaled to a leading coefficient 1, with zero and
    duplicate rows dropped."""
    unique = {}
    for row in rows:
        row = sorted((t for t in row if t[0] % p), key=lambda t: t[1:])
        if row:
            inv = pow(row[-1][0], -1, p)
            unique[tuple((c * inv % p, v, w) for c, v, w in row)] = None
    return tuple(unique)


def _rows(field, d, flavors, groups) -> tuple:
    """The rows that the solver needs for `groups` (`_compile`), through
    `_unique`.  Plain int tuples, so the rows of one compile can be handed
    to every shard."""
    compiled = _compile(field, d, flavors, groups)
    return _unique((row for rows in compiled.values() for row in rows), field.modulus)


def _system(job) -> tuple:
    """The job's rows (`_rows`), plus r[i,j] + r[j,i] = 0 for i <= j when
    `aybe` asks for antisymmetric r (exactly `Tensor2.is_antisymmetric`).
    A bisystem on carriers that form no ASI bialgebra gets the one row
    1 = 0."""
    ok, groups = _groups(job)
    if not ok:
        return (((1, -1, -1),),)
    d = job.carrier.dim
    rows = _rows(job.field, d, _spec(job), groups)
    if job.kind == "aybe" and job.antisymmetric:
        p = job.field.modulus
        rows = _unique(rows + tuple(
            ((2 % p, i * d + i, -1),) if i == j else ((1, j * d + i, -1), (1, i * d + j, -1))
            for i in range(d) for j in range(i, d)), p)
    return rows


def solve_parts(field, d, parts, binding) -> list:
    """The survivors of a condition given as a checker's (name, tags, ctx)
    parts, such as `bridges.lie_bisystem_identities` returns: every
    assignment of the entries of the d x d map components that `binding`
    binds on which every compiled row vanishes, in lexicographic order.
    `binding` is a {name: (component, constant)} dict, and a part binds each
    of its names that its context carries a map for (`_by_name`)."""
    groups = [_by_name(tags, ctx, binding) for _, tags, ctx in parts]
    count = 1 + max(k for k, _ in binding.values())
    rows = _rows(field, d, ("map",) * count, groups)
    return list(_solve(rows, field.modulus, count * d * d, 0, (0, 1)))


def _solve(rows, p, count, first, shard):
    """Every assignment of the `count` variables on which every row
    vanishes, in lexicographic order; the shard (s, K) keeps those whose
    first `first` variables, read in base p, are s modulo K.  A row is
    tested once its level, its highest variable, is assigned: there it is
    A + B x + C x^2 in the level's value x, with A and B known."""
    levels = [[] for _ in range(count)]
    for row in rows:
        top = max(v for _, v, _ in row)
        if top < 0:
            return  # a nonzero constant: nothing holds
        a = tuple(t for t in row if t[1] != top)
        b = tuple((c, w) for c, v, w in row if v == top != w)
        levels[top].append((sum(c for c, v, w in row if v == w == top), a, b))
    for level in levels:
        level.sort(key=lambda r: r[0] != 0)  # rows linear in x first
    s, K = shard
    every = range(p)
    inverse = [0] + [pow(x, -1, p) for x in range(1, p)]
    y = [0] * count + [1]  # y[-1] is the constant 1

    def values(top):
        """The values of variable `top` that every row of its level allows."""
        xs = every
        for C, a, b in levels[top]:
            A = sum(c * y[v] * y[w] for c, v, w in a)
            B = sum(c * y[w] for c, w in b) % p
            if C:
                xs = [x for x in xs if (A + (B + C * x) * x) % p == 0]
            elif B:
                x = -A * inverse[B] % p
                xs = (x,) if x in xs else ()
            elif A % p:
                return ()
            if not xs:
                return ()
        return xs

    stack = [iter(values(0))]
    while stack:
        top = len(stack) - 1
        for x in stack[-1]:
            y[top] = x
            if top == first - 1 and K > 1:
                index = 0
                for v in y[:first]:
                    index = index * p + v
                if index % K != s:
                    continue
            if top == count - 1:
                yield tuple(y[:count])
                continue
            stack.append(iter(values(top + 1)))
            break
        else:
            stack.pop()


def verify_hit(job: SearchJob, parts) -> bool:
    """Public-checker verdict on one candidate: the full report over the same
    catalog entries that the compiled rows come from.  A malformed job, or
    parts that are not one per component of its kind, raise `PayloadError`
    (or the checkers' own errors) before any check runs."""
    kind, comps = job.kind, _spec(job)
    if len(parts) != len(comps):
        raise PayloadError(f"kind {kind!r} takes {len(comps)} components, got {len(parts)}")
    if kind == "bisystem":
        return check_bisystem(ASIBisystem(job.carrier, job.cocarrier, *parts)).passed
    if kind == "adjoint_admissible":
        return adjoint_admissible_report(job.carrier, *_fixed(job), *parts).passed
    if kind == "aybe":
        (r,) = parts
        if job.antisymmetric and not r.is_antisymmetric():
            return False
        return check_aybe(job.carrier, r).passed
    if kind == "symmetric_ybpair":
        return check_symmetric_ybpair(job.carrier, *parts).passed
    if kind in _COALG_KINDS:
        return check_cosystem(kind, CoOperatorSystem(
            job.carrier, *parts, weight=job.weight)).passed
    return check_operator_system(kind, OperatorSystem(
        job.carrier, *parts, weight=job.weight)).passed


def _admit(job):
    """The number of values of one component, once the job's candidate space
    is within its budget and its shard is valid."""
    comps = _spec(job)
    base = job.field.modulus ** (job.carrier.dim ** 2)
    space, budget = base ** len(comps), _budget(job)
    if space > budget:
        raise BudgetError(f"search space {space} exceeds budget {budget}")
    s, K = job.shard
    if not (0 <= s < K):
        raise PayloadError(f"bad shard {job.shard}")
    if K > base:
        raise PayloadError(f"at most {base} shards for this candidate space")
    return base


def _verdict_scope(job):
    """The verdict scope of a job's compile and re-verification: a
    `shared_verdicts` scope when its condition has several groups
    (`_groups`), which only a bisystem's has, since only then do survivors
    repeat a verdict (the carriers' axioms, an (R, S) or (Q, T) pair);
    otherwise no scope, so no verdict key is built."""
    return shared_verdicts() if job.kind == "bisystem" else nullcontext()


def enumerate_hits(job: SearchJob, *, rows=None) -> list[Hit]:
    """Run one shard: solve the job's compiled `rows` (compiled here if
    None), re-verify every survivor through the reference checkers, and
    emit the hits in lexicographic candidate order.  Where verdicts can
    repeat (`_verdict_scope`), the compile and the survivors share them
    (`identities.shared_verdicts`), inside the caller's scope if one is
    open, else in one that closes on return."""
    _admit(job)
    comps = _spec(job)
    p, d = job.field.modulus, job.carrier.dim
    n = d * d
    hits: list[Hit] = []
    with _verdict_scope(job):
        if rows is None:
            rows = _system(job)
        for y in _solve(rows, p, len(comps) * n, n, job.shard):
            index = 0
            for v in y:
                index = index * p + v
            parts = tuple(_component(job.field, d, flavor, y[k * n:(k + 1) * n])
                          for k, flavor in enumerate(comps))
            if not verify_hit(job, parts):
                raise RuntimeError(
                    f"compiled rows and reference checker disagree at candidate {index}")
            hits.append(Hit(index, parts))
    return hits


def run_search(job: SearchJob, shards: int = 1, processes: int | None = None) -> list[Hit]:
    """All shards, merged in candidate order; shards may run in parallel on
    at most `os.cpu_count()` worker processes (None runs them serially).  A
    bad job is refused before any shard starts: `_admit` checks its kind,
    field, cocarrier, budget and shards, and the compile applies the
    checkers' payload rules.  The job's groups are built and compiled once
    here for all of its shards; serial shards share that compile's verdict
    scope (`_verdict_scope`), while the compile for a pool runs outside any
    scope, since a forked worker would inherit an open one."""
    if shards < 1:
        raise PayloadError(f"need at least one shard, got {shards}")
    if processes is not None and processes < 1:
        raise PayloadError(f"need at least one process, got {processes}")
    jobs = [replace(job, shard=(k, shards)) for k in range(shards)]
    for j in jobs:
        _admit(j)
    if processes:
        processes = min(processes, shards, os.cpu_count() or 1)
    if processes and processes > 1:
        run = partial(enumerate_hits, rows=_system(job))
        with ProcessPoolExecutor(max_workers=processes) as pool:
            chunks = list(pool.map(run, jobs))
    else:
        with _verdict_scope(job):
            rows = _system(job)
            chunks = [enumerate_hits(j, rows=rows) for j in jobs]
    merged = [h for chunk in chunks for h in chunk]
    merged.sort(key=lambda h: h.index)
    return merged


# ---------------------------------------------------------------------------
# parametric families

@dataclass(frozen=True)
class Constraint:
    name: str
    holds: Callable


@dataclass(frozen=True)
class FamilySpec:
    name: str
    kind: str                  # "symmetric_rbs" | "symmetric_rb_cosystem"
    params: tuple
    constraints: tuple
    build: Callable            # (field, {param: scalar}) -> (Matrix, Matrix)


def _sample_point(fam, rng):
    for _ in range(1000):
        params = {}
        for name in fam.params:
            num = rng.randint(1, 97) * rng.choice((1, -1))
            den = rng.randint(1, 97) * rng.choice((1, -1))
            params[name] = Fraction(num, den)
        if all(c.holds(params) for c in fam.constraints):
            return params
    raise BudgetError(f"could not sample parameters for family {fam.name}")


def verify_family(fam: FamilySpec, carrier, samples: int, seed: int):
    """Exact check of a parametric family at `samples` random rational
    points; the seed and every sampled point are recorded."""
    if samples < 1:
        raise PayloadError("need at least one sample")
    rng = random.Random(seed)
    violations = []
    points = []
    for _ in range(samples):
        params = _sample_point(fam, rng)
        m1, m2 = fam.build(carrier.field, params)
        if fam.kind == "symmetric_rbs":
            rep = check_operator_system("symmetric_rbs",
                                        OperatorSystem(carrier, m1, m2))
        else:
            rep = check_cosystem("symmetric_rb_cosystem",
                                 CoOperatorSystem(carrier, m1, m2))
        points.append({"params": {k: str(v) for k, v in params.items()},
                       "passed": rep.passed})
        violations.extend(rep.violations)
    return make_report(f"family:{fam.name}", violations,
                       provenance={"seed": seed, "points": points})


def family_members_mod_p(fam: FamilySpec, field) -> set:
    """All map pairs the family realizes over GF(p), constraints respected."""
    out = set()
    values = field.elements()
    for combo in itertools.product(values, repeat=len(fam.params)):
        params = dict(zip(fam.params, combo))
        if not all(c.holds(params) for c in fam.constraints):
            continue
        out.add(fam.build(field, params))
    return out


def cross_tabulate(hits, families, field):
    """Which families (for some parameter choice mod p) contain each hit."""
    tables = {fam.name: family_members_mod_p(fam, field) for fam in families}
    rows = []
    unclassified = []
    for hit in hits:
        pair = tuple(hit.parts)
        names = [name for name, members in tables.items() if pair in members]
        rows.append((hit, tuple(names)))
        if not names:
            unclassified.append(hit)
    return rows, unclassified
