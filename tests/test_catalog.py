"""The identity catalog as a whole: its tags are stable keys, one identity
has one registered body however many tags restate it, each body's summands
keep their order, and `evaluate` adds them as a left fold does."""

import hashlib
import random
import sys
from collections import defaultdict
from fractions import Fraction
from functools import reduce
from operator import add

import pytest

from rbx import fixtures as fx
from rbx import identities, kernel, search, structures
from rbx.bisystems import bisystem_identities
from rbx.identities import (CATALOG, Ctx, Identity, evaluate, run_identities, seeded_fault,
                            steps)
from rbx.kernel import Matrix, PrimeField, Rationals, Tensor2, Tensor3, _Container, _Quadratic
from rbx.representations import Bimodule
from rbx.structures import (Algebra, BilinearForm, Coalgebra, _Comultiplicative,
                            _Multiplicative)

from kernel_diff import MODULI, field_of, is_stored, poly, sum_round

# every registered tag, grouped by the spaces it quantifies over
TAGS_BY_SPACES = {
    (): ("de:eh#1a", "de:eh#1b", "de:eh#2a", "de:eh#2b", "eq:db4", "eq:dg#1",
         "eq:dg#2", "eq:dh", "eq:dh1"),
    ("A",): ("de:ev#3a", "de:ev#3b", "de:ev#3c", "de:he#3", "de:he#4b",
             "eq:ck5#1", "eq:ck5#2", "eq:ck6#1", "eq:ck6#2", "eq:ck7#1",
             "eq:ck7#2", "eq:ck8#1", "eq:ck8#2", "eq:db2", "eq:db5", "eq:de",
             "eq:de1", "eq:de1de1", "eq:de2", "eq:de2de2", "eq:de3", "eq:de3de3",
             "eq:de4", "eq:de4de4", "eq:de5", "eq:de5de5", "eq:dede", "eq:dm1#1", "eq:dm1#2", "eq:emm3#1", "eq:emm3#2",
             "eq:emm4#1", "eq:emm4#2", "eq:er3", "eq:er4", "eq:et5#1", "eq:et5#2",
             "eq:et6#1", "eq:et6#2"),
    ("A", "A"): ("de:1.1#cov1", "de:1.1#cov2", "de:1.1#deriv1", "de:1.1#deriv2",
                 "de:cv#1", "de:cv#2", "de:ev#2a", "de:ev#2b", "de:ev#2c",
                 "de:he#2", "de:he#4a", "de:hf#1", "de:hi#1", "de:hi#2", "de:hi#3",
                 "de:hi#4", "de:hi#5", "de:hi#6", "de:hi#7", "eq:cee", "eq:ck#1",
                 "eq:ck#2", "eq:ck1#1", "eq:ck1#2", "eq:ck2#1", "eq:ck2#2",
                 "eq:ck3#1", "eq:ck3#2", "eq:cxx1", "eq:cxx2", "eq:db1", "eq:ea0#1",
                 "eq:ea0#2", "eq:ea1#1", "eq:ea1#2", "eq:emm1#1", "eq:emm1#2",
                 "eq:emm2#1", "eq:emm2#2", "eq:er1", "eq:er2", "eq:et1#1",
                 "eq:et1#2", "eq:et3#1", "eq:et3#2", "eq:et4#1", "eq:et4#2",
                 "eq:ew1", "eq:gh0", "eq:gh1", "eq:rbs1", "eq:rbs2",
                 "lie-bialgebra:cocycle", "lie:antisymmetry"),
    ("A", "A", "A"): ("associativity", "de:hf#3a", "de:hf#3b", "eq:1.2a",
                      "eq:1.2b", "eq:1.2c", "frobenius:invariance", "lie:jacobi",
                      "perm:leftcommutativity", "prelie"),
    ("A", "A", "M"): ("eq:cb#1", "eq:cb#2", "eq:cb1", "eq:reppreliealg1",
                      "eq:reppreliealg2"),
    ("A", "M"): ("de:eo#1a", "de:eo#1b", "de:eo#2a", "de:eo#2b", "eq:cf#1",
                 "eq:cf#2", "eq:cf1#1", "eq:cf1#2", "eq:cf2#1", "eq:cf2#2",
                 "eq:cf3#1", "eq:cf3#2", "eq:cj#1", "eq:cj#2", "eq:cj1#1",
                 "eq:cj1#2", "eq:cj2#1", "eq:cj2#2", "eq:cj3#1", "eq:cj3#2",
                 "eq:dn#1", "eq:dn#2", "eq:dn1#1", "eq:dn1#2", "eq:dn2#1",
                 "eq:dn2#2", "eq:dn3#1", "eq:dn3#2", "weighted-rep#1",
                 "weighted-rep#2"),
    ("C",): ("coassociativity", "colie:antisymmetry", "colie:jacobi", "de:hg#1",
             "de:hg#2", "de:hg#3", "de:hg#4", "de:hg#5", "eq:cu#1", "eq:cu#2",
             "eq:cu1#1", "eq:cu1#2", "eq:ek0", "eq:ek1", "eq:et2#1", "eq:et2#2",
             "rmk:gb#2"),
    ("M",): ("eq:dk1", "eq:dk2", "thm:do#compat1", "thm:do#compat2"),
    ("M", "M"): ("eq:dk",),
}


def test_catalog_tags_and_spaces_are_pinned():
    pinned = sorted((tag, spaces) for spaces, tags in TAGS_BY_SPACES.items()
                    for tag in tags)
    assert len(pinned) == 169
    assert sorted((tag, ident.spaces) for tag, ident in CATALOG.items()) == pinned


def _random_ctx(F, rng):
    """Raw 2-dimensional carriers with random structure constants, random
    maps R, S, Q, T and a random weight, and a random 3-dimensional bimodule
    M with random maps alpha, beta, xi, zeta on it and rho its left actions:
    no axiom holds by accident."""
    def entries(n):
        return [rng.randrange(F.modulus) for _ in range(n)]

    def table():
        return [[entries(2) for _ in range(2)] for _ in range(2)]
    A, C = Algebra(F, table(), raw=True), Coalgebra(F, table(), raw=True)
    maps = {n: Matrix(F, 2, 2, entries(4)) for n in "RSQT"}
    lam = F.of(rng.randrange(F.modulus))
    M = Bimodule(3, *([Matrix(F, 3, 3, entries(9)) for _ in range(2)] for _ in range(2)))
    maps.update({n: Matrix(F, 3, 3, entries(9)) for n in ("alpha", "beta", "xi", "zeta")})
    return Ctx({"A": A.basis, "C": C.basis, "M": M.labels}, A=A, C=C, M=M,
               rho=M.left, lam=lam, **maps)


def _contexts():
    # several seeds: on a single one, two different identities can agree
    return [_random_ctx(PrimeField(7), random.Random(seed)) for seed in range(5)]


def _stored_form(value, field):
    """A summand or residual in stored form, as its type name and entries:
    the vector helpers leave GF(p) ints outside [0, p)."""
    if isinstance(value, tuple):
        value = field.reduce(value)
    elif not isinstance(value, _Container):
        value = field.coerce(value)
    return type(value).__name__, getattr(value, "entries", value)


def _residual(tag, ctx, idx):
    return _stored_form(evaluate(tag, ctx, idx), ctx.field)


def _summands(tag, ctx, idx):
    return tuple(_stored_form(term, ctx.field) for term in CATALOG[tag].terms(ctx, idx))


def _at_every_step(tag, ctx, form):
    """`form(tag, ctx, idx)` at every basis tuple of `tag` over `ctx`, or
    None when the entry reads a datum that `ctx` does not carry."""
    try:
        return tuple(form(tag, ctx, idx) for _, idx in steps((tag,), ctx))
    except AttributeError as err:
        assert err.obj is ctx, (tag, err)  # a missing datum, not a broken body
        return None


def test_tags_with_one_residual_share_one_body():
    ctxs = _contexts()
    by_residuals = defaultdict(list)
    for tag in CATALOG:
        key = tuple(_at_every_step(tag, ctx, _residual) for ctx in ctxs)
        if None not in key:
            by_residuals[key].append(tag)
    evaluated = {tag for tags in by_residuals.values() for tag in tags}
    assert {"eq:cee", "rmk:gb#2", "eq:ck#1", "eq:ck5#1", "eq:er2", "de:he#4b",
            "associativity", "coassociativity", "eq:cf#1", "eq:cj#1",
            "eq:dn#1"} <= evaluated
    for tags in by_residuals.values():
        assert len({CATALOG[tag].terms for tag in tags}) == 1, sorted(tags)


def _summand_digests():
    """tag -> digest of its summands, each in stored form and in order, at
    every basis tuple of every seeded context, for every tag they reach."""
    ctxs = _contexts()
    out = {}
    for tag in sorted(CATALOG):
        runs = [_at_every_step(tag, ctx, _summands) for ctx in ctxs]
        if None not in runs:
            out[tag] = hashlib.sha256(repr(runs).encode()).hexdigest()[:16]
    return out


# `_summand_digests()`, pinned: seeded faults flip summands by index, so a
# rewritten body keeps every summand in its place
SUMMAND_DIGESTS = {
    "associativity": "2fe11d80f8fc2e05", "coassociativity": "ec57daf42305abb3",
    "colie:antisymmetry": "b80022e26fc14799", "colie:jacobi": "ecfc513045ae5e98",
    "de:cv#1": "4098c04f2db0b542", "de:cv#2": "3783ea59c8061b10",
    "de:eo#1a": "96e2a69c62408d4b", "de:eo#1b": "ad0401ba222acd64",
    "de:eo#2a": "dda436bc51909401", "de:eo#2b": "4e92559981b1f632",
    "de:ev#2a": "a5acc33f698f6cff", "de:ev#2b": "a648dee147c8881b",
    "de:ev#2c": "1da2edd92d6bd83b", "de:ev#3a": "3e7832e94fddb48c",
    "de:ev#3b": "6001390bc49033b4", "de:ev#3c": "d5a241df60120e9a",
    "de:he#2": "3235618226519745", "de:he#3": "271056b72f3385ab",
    "de:he#4a": "d560915e4e3b1988", "de:he#4b": "02cdd10a4746cda4",
    "eq:cb#1": "4186429fca09ef9f", "eq:cb#2": "a6b7aa389841de06",
    "eq:cb1": "cc85eae562372e19", "eq:cee": "3235618226519745",
    "eq:cf#1": "96e2a69c62408d4b", "eq:cf#2": "ad0401ba222acd64",
    "eq:cf1#1": "dda436bc51909401", "eq:cf1#2": "4e92559981b1f632",
    "eq:cf2#1": "a350aa63d4e71b46", "eq:cf2#2": "da348988b0c4924d",
    "eq:cf3#1": "44e510c3107614b2", "eq:cf3#2": "ea4e996fd01e3fbe",
    "eq:cj#1": "28dda9517d65cb77", "eq:cj#2": "4f6c5e111ba90afe",
    "eq:cj1#1": "ceaf02cbf24432b1", "eq:cj1#2": "e698397297156919",
    "eq:cj2#1": "5618b8f340cc1d2f", "eq:cj2#2": "7f972142048ccdb4",
    "eq:cj3#1": "0c5fe75130514725", "eq:cj3#2": "da1361514610c717",
    "eq:ck#1": "3f8b22417779e6bf", "eq:ck#2": "d5e4c864a48bd2ea",
    "eq:ck1#1": "48022a21336af78a", "eq:ck1#2": "ca05e00602319aeb",
    "eq:ck2#1": "87749c3b0886b996", "eq:ck2#2": "47e36c218da034a2",
    "eq:ck3#1": "150f50ebab2d34dd", "eq:ck3#2": "8a84e595fc74bf37",
    "eq:ck5#1": "30d23c5367bc168d", "eq:ck5#2": "6e5a038d2aa839a3",
    "eq:ck6#1": "9f4650c7df1d5503", "eq:ck6#2": "a1bd9ae01a537b26",
    "eq:ck7#1": "0653908fa1c9b3b9", "eq:ck7#2": "71108ee7ce28056a",
    "eq:ck8#1": "92c3f319670ed3bf", "eq:ck8#2": "e7ed1e1326ada9d3",
    "eq:cu#1": "481c534767f04bb6", "eq:cu#2": "471264f39a289270",
    "eq:cu1#1": "d74d7a2a2f0d7a32", "eq:cu1#2": "f97a472dd1c22750",
    "eq:cxx1": "9441fc6a3b8eb655", "eq:cxx2": "1c66fe39d06c4a46",
    "eq:dn#1": "5c20d4ddf4ac8029", "eq:dn#2": "85cc7fef3d8bdca0",
    "eq:dn1#1": "da45bc76c45c6923", "eq:dn1#2": "045e41f032f30032",
    "eq:dn2#1": "c0ba25f28316fe7e", "eq:dn2#2": "0d96cc0217c9c335",
    "eq:dn3#1": "6d1a0630f2734ff2", "eq:dn3#2": "b4b7b4b29c89b517",
    "eq:ea0#1": "c8c4b51d54162dd9", "eq:ea0#2": "40238b0337100fe8",
    "eq:ea1#1": "4498e4be8f2eee5e", "eq:ea1#2": "fe39bcbd9d527a1f",
    "eq:ek0": "481c534767f04bb6", "eq:ek1": "d74d7a2a2f0d7a32",
    "eq:emm1#1": "d5e4c864a48bd2ea", "eq:emm1#2": "3f8b22417779e6bf",
    "eq:emm2#1": "47e36c218da034a2", "eq:emm2#2": "87749c3b0886b996",
    "eq:emm3#1": "30d23c5367bc168d", "eq:emm3#2": "6e5a038d2aa839a3",
    "eq:emm4#1": "0653908fa1c9b3b9", "eq:emm4#2": "71108ee7ce28056a",
    "eq:er1": "dcb687580c30acc6", "eq:er2": "d560915e4e3b1988",
    "eq:er3": "32b69317ffb66935", "eq:er4": "9fcc4c01dcf599fc",
    "eq:et1#1": "a5acc33f698f6cff", "eq:et1#2": "6e95ae9ff9291977",
    "eq:et2#1": "3e7832e94fddb48c", "eq:et2#2": "57072d411205ee61",
    "eq:et3#1": "a648dee147c8881b", "eq:et3#2": "1da2edd92d6bd83b",
    "eq:et4#1": "229ac368b692fc2e", "eq:et4#2": "ffc09cae230a0efc",
    "eq:et5#1": "6001390bc49033b4", "eq:et5#2": "d5a241df60120e9a",
    "eq:et6#1": "f2f4613b8e96a98d", "eq:et6#2": "ef9f9761cfd4da23",
    "eq:ew1": "358cb083dad4334a", "eq:gh0": "c8c4b51d54162dd9",
    "eq:gh1": "4498e4be8f2eee5e", "eq:rbs1": "c8c4b51d54162dd9",
    "eq:rbs2": "4498e4be8f2eee5e", "lie-bialgebra:cocycle": "b8794c4becf99319",
    "lie:antisymmetry": "6f72d476b4a886a7", "lie:jacobi": "cce71d85eb950c93",
    "perm:leftcommutativity": "3a69f12b558e0620", "prelie": "6256b6cf5178d1c4",
    "rmk:gb#2": "271056b72f3385ab", "weighted-rep#1": "196e93210dd941a3",
    "weighted-rep#2": "b13411620c120c1c",
}


def test_summands_are_pinned():
    assert _summand_digests() == SUMMAND_DIGESTS


# evaluate adds only the nonzero summands; the sum must be the left fold's

@pytest.mark.parametrize("p", MODULI, ids=lambda p: "Q" if p is None else f"GF{p}")
def test_sum_matches_a_left_fold(p):
    # random summand lists with zero summands among them (tests/kernel_diff.py)
    rng, field = random.Random(p or 1), field_of(p)
    assert sum(sum_round(rng, field) for _ in range(100)) == (400 if p else 300)


def _fold(terms):
    if isinstance(terms[0], tuple):
        return tuple(reduce(add, col) for col in zip(*terms))
    return reduce(add, terms)


def test_evaluate_sums_like_a_left_fold(monkeypatch):
    QQ, F3 = Rationals(), PrimeField(3)
    q = QQ.of
    y = [_Quadratic({(v,): 1}, 3) for v in range(2)]
    cases = {
        "GF(3) ints": [(0, 0), (4, -2), (0, 0), (-1, 5)],
        "GF(3) one nonzero": [(0, 0), (0, 2), (0, 0)],
        "GF(3) all zero": [(0, 0), (0, 0)],
        "Q stored": [(q(1, 2), q(0)), (q(0), q(0)), (q(1, 3), q(-1, 6)), (q(-5, 6), q(7, 6))],
        "Q stored cancelling": [(q(1, 2), q(2)), (q(-1, 2), q(-2))],
        "Q scalars": [q(1, 2), q(0), q(-1, 3), q(5, 6)],
        "Tensor2": [Tensor2.zero(QQ, 2), Tensor2(QQ, 2, [1, q(1, 2), 0, 3]),
                    Tensor2(QQ, 2, [q(-1, 3), 0, 0, 1])],
        "Tensor3": [Tensor3(F3, 2, range(8)), Tensor3.zero(F3, 2), Tensor3(F3, 2, [2] * 8)],
        "compile scalars": [(y[0], 0), (0, 0), (y[1] * 2, y[0] + 1), (2 * y[0], y[1])],
    }
    for name, terms in cases.items():
        field = QQ if name.startswith(("Q", "Tensor2")) else F3
        ctx = Ctx({}, A=fx.fix_a(field))
        monkeypatch.setitem(CATALOG, "test:sum", Identity("test:sum", (), lambda ctx, idx: terms))
        got, want = evaluate("test:sum", ctx, ()), _fold(terms)
        if field is F3 and isinstance(got, tuple):  # the GF(3) sum is reduced
            assert [poly(3, x) for x in got] == [poly(3, x) for x in want], name
            assert all(type(x) is _Quadratic or 0 <= x < 3 for x in got), name
        else:
            assert got == want, name
        if name == "compile scalars":
            assert type(got[0]) is _Quadratic
        if field is QQ:  # every entry stored: so is the sum
            assert all(type(x) is QQ.stored for x in _entries(got)), name


def test_a_context_needs_data_over_a_field():
    # a residual is summed by its field's rule, so a context whose data
    # carry no field is refused where it is built
    from rbx.errors import PayloadError
    for data in ({}, {"lam": 1}, {"lam": Fraction(1, 2)}):
        with pytest.raises(PayloadError):
            Ctx({}, **data)


def _zero(value):
    """The summand is zero, by comparing each entry with 0."""
    entries = value.entries if hasattr(value, "entries") else value
    return all(x == 0 for x in entries)


def test_a_fault_on_a_zero_summand_keeps_the_verdict():
    # the fault negates its summand before the sum, so a fault on a summand
    # that is zero at every step leaves the bundled bisystem passing, and a
    # fault on any other summand fails it (over Q, -2s is not zero)
    seen = set()
    for name, tags, ctx in bisystem_identities(fx.fix_bi()):
        assert run_identities(name, tags, ctx).passed
        for tag in tags:
            summands = [CATALOG[tag].terms(ctx, idx) for _, idx in steps((tag,), ctx)]
            for k in range(len(summands[0])):
                zero = all(_zero(terms[k]) for terms in summands)
                with seeded_fault(tag, k):
                    assert run_identities(name, tags, ctx).passed is zero, (tag, k)
                seen.add(zero)
    assert seen == {True, False}


# the boundary: public ops check their operands, catalog code calls the cores

# the public ops that check their operands, each with a core; the module
# functions are patched at every binding site in the package
PUBLIC_METHODS = [(Matrix, "apply"), (Matrix, "__matmul__"), (_Multiplicative, "mul"),
                  (_Comultiplicative, "delta"), (_Comultiplicative, "coapply_first"),
                  (_Comultiplicative, "coapply_second"), (BilinearForm, "value")]
PUBLIC_FUNCTIONS = [(kernel, "leg_apply"), (kernel, "leg_apply3"), (kernel, "combine"),
                    (structures, "placement_product")]

# each core with its operands, as (field, entries, length) triples
CORE_METHODS = {
    (Matrix, "_apply"): lambda m, v: [(m.field, m.entries, m.rows * m.cols),
                                      (m.field, v, m.cols)],
    (Matrix, "_matmul"): lambda a, b: [(a.field, a.entries, a.rows * a.cols),
                                       (b.field, b.entries, a.cols * b.cols)],
    (_Multiplicative, "_mul"): lambda A, x, y: [(A.field, x, A.dim), (A.field, y, A.dim)],
    (_Comultiplicative, "_delta"): lambda C, x: [(C.field, x, C.dim)],
    (_Comultiplicative, "_coapply_first"): lambda C, t: [(t.field, t.entries, C.dim ** 2)],
    (_Comultiplicative, "_coapply_second"): lambda C, t: [(t.field, t.entries, C.dim ** 2)],
    (BilinearForm, "_value"): lambda B, x, y: [(B.field, x, B.dim), (B.field, y, B.dim)],
}
CORE_FUNCTIONS = {
    (kernel, "_product"): lambda F, a, r, k, b, m, op="@": [(F, a, r * k), (F, b, k * m)],
    (kernel, "_leg_apply"): lambda t, m, leg: [(t.field, t.entries, t.dim ** 2),
                                               (m.field, m.entries, t.dim ** 2)],
    (kernel, "_leg_apply3"): lambda t, m, leg: [(t.field, t.entries, t.dim ** 3),
                                                (m.field, m.entries, t.dim ** 2)],
    (kernel, "_combine"): lambda F, n, coeffs, mat: [(F, coeffs, len(coeffs))]
    + [(F, mat(k).entries, n * n) for k in range(len(coeffs))],
    (structures, "_placement_product"): lambda A, x, px, y, py: [
        (x.field, x.entries, A.dim ** 2), (y.field, y.entries, A.dim ** 2)],
}


def _boundary_ctx(F, rng):
    """A context that carries every datum the catalog reads, random and raw
    over F: carriers of dimension 2, a module of dimension 3, and every map
    and tensor on them, so that every tag runs."""
    def entries(n):
        if F.modulus:
            return [rng.randrange(F.modulus) for _ in range(n)]
        return [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]

    def table(cls):
        return cls(F, [[entries(2) for _ in range(2)] for _ in range(2)], raw=True)

    def maps(names, rows, cols):
        return {name: Matrix(F, rows, cols, entries(rows * cols)) for name in names}
    A, C = table(Algebra), table(Coalgebra)
    M = Bimodule(3, *([Matrix(F, 3, 3, entries(9)) for _ in range(2)] for _ in range(2)))
    data = dict(A=A, C=C, M=M, rho=M.left, phi=M.right, P=A, lam=F.of(rng.randrange(1, 5)),
                B=BilinearForm(F, Matrix(F, 2, 2, entries(4))), aybe=Tensor3(F, 2, entries(8)),
                **maps("RSQT", 2, 2), **maps(("rplus",), 2, 2), **maps(("tmap",), 2, 3),
                **maps(("alpha", "beta", "xi", "zeta"), 3, 3),
                **{name: table(Algebra) for name in ("prec", "succ", "gt", "lt", "circ")},
                **{name: table(Coalgebra)
                   for name in ("eta", "theta", "vartheta", "d1", "d2", "DT")},
                **{name: Tensor2(F, 2, entries(4))
                   for name in ("r", "s", "sym", "X1", "X2", "X3", "X4", "Lam", "Gam")})
    return Ctx({"A": A.basis, "C": C.basis, "M": M.labels}, **data)


def _patch_everywhere(monkeypatch, module, name, wrapper):
    """Replace the function `name` of `module` at every binding site in the
    package."""
    fn = getattr(module, name)
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("rbx") and vars(mod).get(name) is fn:
            monkeypatch.setattr(mod, name, wrapper(fn))


@pytest.fixture
def boundary(monkeypatch):
    """Spies on the kernel's public ops and their cores.  `state["catalog"]`
    counts the open `_run` and `evaluate` calls; a public op entered inside
    one is recorded in `state["public"]`.  Every core asserts that each
    operand is a tuple of the right length whose entries have the stored
    type of its field, the core's field (the search compile's `_Quadratic`
    too, while `state["compile"]` is set), and counts its calls."""
    state = {"catalog": 0, "compile": False, "public": [], "cores": defaultdict(int)}

    def scope(fn):
        def wrapped(*args, **kwargs):
            state["catalog"] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                state["catalog"] -= 1
        return wrapped

    def public(name):
        def wrapper(fn):
            def spy(*args, **kwargs):
                if state["catalog"]:
                    state["public"].append(name)
                return fn(*args, **kwargs)
            return spy
        return wrapper

    def core(name, operands):
        def wrapper(fn):
            def spy(*args):
                triples = operands(*args)
                field = triples[0][0]
                allowed = {field.stored} | ({_Quadratic} if state["compile"] else set())
                for f, values, n in triples:
                    assert f == field, (name, f, field)
                    assert type(values) is tuple and len(values) == n, (name, values, n)
                    assert {type(x) for x in values} <= allowed, (name, values)
                state["cores"][name] += 1
                return fn(*args)
            return spy
        return wrapper

    for fn in (identities._run, identities.evaluate):
        for mod in (identities, search):
            if vars(mod).get(fn.__name__) is fn:
                monkeypatch.setattr(mod, fn.__name__, scope(fn))
    for cls, name in PUBLIC_METHODS:
        monkeypatch.setattr(cls, name, public(name)(getattr(cls, name)))
    for module, name in PUBLIC_FUNCTIONS:
        _patch_everywhere(monkeypatch, module, name, public(name))
    for (cls, name), operands in CORE_METHODS.items():
        monkeypatch.setattr(cls, name, core(name, operands)(getattr(cls, name)))
    for (module, name), operands in CORE_FUNCTIONS.items():
        _patch_everywhere(monkeypatch, module, name, core(name, operands))
    return state


@pytest.mark.parametrize("p", (7, None), ids=lambda p: "Q" if p is None else f"GF{p}")
def test_catalog_code_calls_only_the_cores_on_stored_operands(p, boundary):
    # every tag on seeded contexts that carry every datum it reads, and on
    # the pinned contexts of `_contexts()`: the checkers' `_run` enters no
    # public op, and each core gets tuples of stored scalars
    field = field_of(p)
    for seed in range(3):
        identities._run("boundary", tuple(CATALOG), _boundary_ctx(field, random.Random(seed)))
    for ctx in _contexts() if p else ():
        for tag in CATALOG:
            try:
                identities._run("boundary", (tag,), ctx)
            except AttributeError as err:
                assert err.obj is ctx, (tag, err)  # a datum that ctx does not carry
    assert boundary["public"] == []
    assert set(boundary["cores"]) == {name for _, name in [*CORE_METHODS, *CORE_FUNCTIONS]}


def test_the_search_compile_calls_only_the_cores(boundary):
    # the compile of each bench search kind evaluates every step on maps
    # whose entries are variables (`_Quadratic`), through the same cores
    from test_search import PINNED, _bench_job
    boundary["compile"] = True
    for kind in sorted(PINNED):
        search._system(_bench_job(kind))
    assert boundary["public"] == []
    assert {"_mul", "_apply", "_delta", "_leg_apply", "_placement_product",
            "_coapply_first", "_coapply_second"} <= set(boundary["cores"])


# past the boundary, data are stored: every residual entry has the stored
# type of the context's field, and a residual over Q is summed only from
# stored entries, so an entry in any other form fails loudly

def _entries(value):
    if isinstance(value, _Container):
        return value.entries
    return value if isinstance(value, tuple) else (value,)


def _assert_stored_residuals(field):
    """Evaluate every tag at every step on the seeded contexts of `field`
    that carry every datum, and over GF(7) on `_contexts()` too; every
    residual entry must be a stored scalar of `field`."""
    ctxs = [_boundary_ctx(field, random.Random(seed)) for seed in range(3)]
    ctxs += _contexts() if field.modulus == 7 else []
    for ctx in ctxs:
        for tag in CATALOG:
            for _, idx in steps((tag,), ctx):
                try:
                    res = evaluate(tag, ctx, idx)
                except AttributeError as err:
                    assert err.obj is ctx, (tag, err)  # a datum that ctx does not carry
                    break
                assert all(is_stored(field, x) for x in _entries(res)), (tag, idx, res)


@pytest.mark.parametrize("p", (7, None), ids=lambda p: "Q" if p is None else f"GF{p}")
def test_every_residual_entry_is_stored(p):
    _assert_stored_residuals(field_of(p))


def test_an_int_entry_over_q_fails_the_residual_guard(monkeypatch):
    # a zero int summand among stored Q summands is not folded silently
    real = CATALOG["associativity"]

    def terms(ctx, idx):
        summands = real.terms(ctx, idx)
        return [*summands, (0,) * len(summands[0])]

    monkeypatch.setitem(CATALOG, "associativity", Identity(real.tag, real.spaces, terms))
    _assert_stored_residuals(field_of(7))  # an int is a stored GF(7) scalar
    with pytest.raises(AssertionError):
        _assert_stored_residuals(field_of(None))


def test_every_compiled_residual_entry_is_an_int_or_a_quadratic(monkeypatch):
    # the compile of each bench search kind evaluates every step on maps
    # whose entries are variables: each residual entry is a stored int or
    # the compile's `_Quadratic`
    from test_search import PINNED, _bench_job
    seen = set()

    def spy(tag, ctx, idx):
        res = evaluate(tag, ctx, idx)
        kinds = {type(x) for x in _entries(res)}
        assert kinds <= {int, _Quadratic}, (tag, idx, res)
        assert all(0 <= x < ctx.field.modulus for x in _entries(res) if type(x) is int)
        seen.update(kinds)
        return res

    monkeypatch.setattr(search, "evaluate", spy)
    for kind in sorted(PINNED):
        search._system(_bench_job(kind))
    assert seen == {int, _Quadratic}


def _bad_data():
    """Calls that hand a checker mis-shaped data, by name."""
    from rbx import bridges, representations, systems, yangbaxter
    F3 = PrimeField(3)
    A, C, g = fx.fix_a(F3), fx.fix_c(F3), fx.fix_lie(F3)
    Z2, Z3, T3 = Matrix.zero(F3, 2), Matrix.zero(F3, 3), Tensor2.zero(F3, 3)
    C3 = fx.zero_coalgebra(F3, 3)
    R, S = fx.fix_rs(F3)
    sys2 = systems.OperatorSystem(A, R, S)
    rep = representations.Representation(representations.adjoint_bimodule(A), Z2, Z2)
    return {
        "crossed products": lambda: systems.check_crossed_products(A, Z3, Z2),
        "coadjoint admissible": lambda: representations.coadjoint_admissible_report(
            A, C3, Z2, Z2, Z2, Z2),
        "prelie representation": lambda: representations.check_prelie_representation(
            A, [Z2, Z2], [Z2]),
        "prelie action shape": lambda: representations.check_prelie_representation(
            A, [Z2, Z2], [Z2, Z3]),
        "aybe residual": lambda: yangbaxter.aybe_residual(A, T3),
        "o-operator transport": lambda: yangbaxter.check_o_operator_transport(
            sys2, Z3, Z2, Z2),
        "o-operator solution": lambda: yangbaxter.o_operator_solution(
            sys2, rep, Z2, Z3, Z2, Z2, Z2),
        "thm de": lambda: yangbaxter.thm_de_ctx(A, R, S, Z2, Z2, T3),
        "lie representation": lambda: bridges.check_lie_representation(
            systems.OperatorSystem(g, Z2, Z2), bridges.coadjoint_actions(g), Z3, Z2),
        "apre-perm bialgebra": lambda: structures.check_axioms(
            "apreperm_bialgebra", (A, A, C3, C3)),
        "covariant dimensions": lambda: structures.check_axioms(
            "covariant_bialgebra", (A, C3, C3, C3)),
        "covariant types": lambda: structures.check_axioms("covariant_bialgebra", (A, A, C, C)),
    }


@pytest.mark.parametrize("case", sorted(_bad_data()))
def test_checkers_refuse_mis_shaped_data_where_it_enters(case):
    # catalog code runs unchecked cores, so each checker refuses mis-shaped
    # data before a step runs; at the parent each case reached the catalog
    # and raised a plain ValueError, IndexError or AttributeError there
    from rbx.errors import PayloadError
    with pytest.raises(PayloadError):
        _bad_data()[case]()


def test_data_over_another_field_is_refused_where_it_enters():
    # a bimodule's actions, a form's gram matrix and a context's scalars
    # share one field; a context's scalars are stored as it coerces them
    from rbx.errors import FieldError
    from rbx.kernel import GFElement
    F3, F5, QQ = PrimeField(3), PrimeField(5), Rationals()
    A, Z2 = fx.fix_a(F3), Matrix.zero(F3, 2)
    for mixed in (lambda: Bimodule(2, [Z2], [Matrix.zero(F5, 2)]),
                  lambda: BilinearForm(F3, Matrix.identity(QQ, 2)),
                  lambda: Ctx({"A": A.basis}, A=A, lam=GFElement(1, 5)),
                  lambda: Ctx({"A": A.basis}, A=fx.fix_a(QQ), lam=GFElement(1, 3))):
        with pytest.raises(FieldError):
            mixed()
    ctx = Ctx({"A": A.basis}, A=A, lam=GFElement(4, 3))
    assert type(ctx.lam) is int and ctx.lam == 1
    assert type(Ctx({"A": A.basis}, A=fx.fix_a(QQ), lam=Fraction(1, 2)).lam) is QQ.stored
