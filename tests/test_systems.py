import collections
import itertools
import random
import threading

import pytest

from rbx import identities, regression
from rbx import fixtures as fx
from rbx import search
from rbx.errors import PayloadError, PreconditionError
from rbx.identities import (_VERDICTS, CATALOG, Ctx, evaluate, run_identities,
                            seeded_fault, shared_verdicts)
from rbx.kernel import Matrix, PrimeField, Tensor2, bv
from rbx.structures import Algebra, check_axioms
from rbx.systems import (_ALG_KINDS, _COALG_KINDS, _YBPAIR_TAGS,
                         CoOperatorSystem, OperatorSystem, check_cosystem,
                         check_crossed_products, check_operator_system,
                         check_symmetric_ybpair, check_ybpair,
                         cocommutator_lift, commutator_lift, derived_products,
                         nijenhuis_from_srbs, split_dendriform,
                         srbs_from_central, srbs_from_ybpair, weight_embed)
from rbx.representations import _CK5_TAGS, _CK_TAGS, adjoint_bimodule
from rbx.search import _KINDS, SearchJob, enumerate_hits
from rbx.yangbaxter import _AYBE_TAGS
from conftest import all_matrices, all_tensors
from test_golden_reports import _scan_instances


def test_fixture_pair_is_symmetric(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    assert check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)).passed


def test_zero_maps_pass(QQ):
    A = fx.fix_a(QQ)
    Z = Matrix.zero(QQ, 2)
    assert check_operator_system("symmetric_rbs", OperatorSystem(A, Z, Z)).passed


def test_identity_pair_fails_with_witness(QQ):
    A = fx.fix_a(QQ)
    eye = Matrix.identity(QQ, 2)
    rep = check_operator_system("symmetric_rbs", OperatorSystem(A, eye, eye))
    assert not rep.passed
    assert ("f", "f") in {v.inputs for v in rep.violations}


def test_lie_system_fixture(QQ):
    R, S = fx.gc_maps(QQ)
    rep = check_operator_system("lie_rbs", OperatorSystem(fx.fix_lie(QQ), R, S))
    assert rep.passed


def test_missing_map_rejected(QQ):
    A = fx.fix_a(QQ)
    R, _ = fx.fix_rs(QQ)
    with pytest.raises(PayloadError):
        check_operator_system("symmetric_rbs", OperatorSystem(A, R))
    with pytest.raises(PayloadError):
        check_operator_system("rb_weight", OperatorSystem(A, R))


def test_cosystem_fixture(QQ):
    C = fx.fix_c(QQ)
    Q, T = fx.fix_qt(QQ)
    assert check_cosystem("symmetric_rb_cosystem",
                          CoOperatorSystem(C, Q, T)).passed


def test_cosystem_zero(QQ):
    C = fx.fix_c(QQ)
    Z = Matrix.zero(QQ, 2)
    assert check_cosystem("symmetric_rb_cosystem", CoOperatorSystem(C, Z, Z)).passed


def test_lie_cosystem_fixture(QQ):
    Q, T = fx.emm_maps(QQ)
    rep = check_cosystem("lie_rb_cosystem",
                         CoOperatorSystem(fx.fix_delta(QQ), Q, T))
    assert rep.passed


# weight embedding -------------------------------------------------------

def test_weight_embed_zero(QQ):
    A = fx.fix_a(QQ)
    sys = weight_embed(A, Matrix.zero(QQ, 2), 0)
    assert check_operator_system("symmetric_rbs", sys).passed


def test_weight_embed_negative_lambda_identity(QQ):
    A = fx.fix_a(QQ)
    lam = QQ.of(3)
    R = Matrix.identity(QQ, 2).scale(-lam)
    assert check_operator_system("rb_weight",
                                 OperatorSystem(A, R, weight=lam)).passed
    assert check_operator_system("symmetric_rbs", weight_embed(A, R, lam)).passed


def test_weight_embed_equivalence_gf3_exhaustive(F3):
    # both directions, all maps, all weights
    A = fx.fix_a(F3)
    for R in all_matrices(F3):
        for lam_val in range(3):
            lam = F3.of(lam_val)
            weighted = check_operator_system(
                "rb_weight", OperatorSystem(A, R, weight=lam)).passed
            embedded = check_operator_system(
                "symmetric_rbs", weight_embed(A, R, lam)).passed
            swapped = check_operator_system(
                "symmetric_rbs", weight_embed(A, R, lam).swap()).passed
            assert weighted == embedded == swapped


# central elements -------------------------------------------------------

def test_central_zero_elements(QQ):
    A = fx.fix_a(QQ)
    z = (QQ.zero(), QQ.zero())
    sys = srbs_from_central(A, z, z)
    assert check_operator_system("symmetric_rbs", sys).passed


def test_central_annihilating_element(QQ):
    A = fx.central_pair_algebra(QQ)
    v = bv(QQ, 2, 1)
    sys = srbs_from_central(A, v, v)
    assert check_operator_system("symmetric_rbs", sys).passed


def test_central_rejects_noncentral(QQ):
    A = fx.fix_a(QQ)
    f = bv(QQ, 2, 1)  # f.e = e but e.f = 0
    with pytest.raises(PreconditionError):
        srbs_from_central(A, f, (QQ.zero(), QQ.zero()))


def test_central_rejects_nonorthogonal(QQ):
    A = fx.central_pair_algebra(QQ)
    u = bv(QQ, 2, 0)  # central idempotent: u.u = u != 0
    with pytest.raises(PreconditionError):
        srbs_from_central(A, u, u)


# Yang-Baxter pairs ------------------------------------------------------

def test_ybpair_zero(QQ):
    A = fx.fix_a(QQ)
    z = Tensor2.zero(QQ, 2)
    sys = srbs_from_ybpair(A, z, z)
    assert sys.R.is_zero() and sys.S.is_zero()


def test_ybpair_sandwich_annihilates(QQ):
    # r = e(x)e gives R(a) = e.a.e = 0 on the fixture algebra
    A = fx.fix_a(QQ)
    r = Tensor2.from_terms(QQ, 2, [(0, 0, 1)])
    sys = srbs_from_ybpair(A, r, r)
    assert sys.R.is_zero()


def test_ybpair_exhaustive_gf2(F2):
    A = fx.fix_a(F2)
    hits = enumerate_hits(SearchJob(F2, A, "symmetric_ybpair"))
    assert hits
    for hit in hits:
        r, s = hit.parts
        sys = srbs_from_ybpair(A, r, s)
        assert check_operator_system("symmetric_rbs", sys).passed


def test_symmetric_pair_is_both_orderings_gf2(F2):
    A = fx.fix_a(F2)
    tensors = all_tensors(F2)
    for r in tensors[:64]:
        for s in tensors[:16]:
            sym = check_symmetric_ybpair(A, r, s).passed
            both = check_ybpair(A, r, s).passed and check_ybpair(A, s, r).passed
            assert sym == both


def test_ybpair_rejects_non_solution(QQ):
    A = fx.dual_numbers(QQ)
    r = Tensor2.from_terms(QQ, 2, [(0, 0, 1)])  # u(x)u fails the pair condition
    with pytest.raises(PreconditionError):
        srbs_from_ybpair(A, r, r)


# dendriform and derived products ---------------------------------------

def test_split_dendriform_fixture(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    (prec, succ), (precp, succp) = split_dendriform(A, R, S)
    assert check_axioms("dendriform", (prec, succ)).passed
    assert check_axioms("dendriform", (precp, succp)).passed


def test_split_dendriform_zero(QQ):
    A = fx.fix_a(QQ)
    Z = Matrix.zero(QQ, 2)
    (prec, succ), _ = split_dendriform(A, Z, Z)
    assert all(not any(c for c in cell) for row in prec.table for cell in row)


def test_split_dendriform_bisystem_maps(QQ):
    bi = fx.fix_bi(QQ)
    for pair in split_dendriform(bi.algebra, bi.R, bi.S):
        assert check_axioms("dendriform", pair).passed


def test_derived_products_value(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    star, starp, bullet, bulletp = derived_products(A, R, S)
    # f*f = R(f).f + f.S(f) = e.f + 2 f.e = 2e
    assert star.product(1, 1) == (QQ.of(2), QQ.zero())
    assert check_axioms("associative", star).passed
    assert check_axioms("associative", starp).passed
    assert check_axioms("prelie", bullet).passed
    assert check_axioms("prelie", bulletp).passed


def test_derived_products_zero(QQ):
    A = fx.fix_a(QQ)
    Z = Matrix.zero(QQ, 2)
    star, starp, bullet, bulletp = derived_products(A, Z, Z)
    for alg in (star, starp, bullet, bulletp):
        assert all(not any(c for c in cell) for row in alg.table for cell in row)


def test_derived_products_exhaustive_gf2(F2):
    A = fx.fix_a(F2)
    for hit in enumerate_hits(SearchJob(F2, A, "symmetric_rbs")):
        R, S = hit.parts
        star, starp, bullet, bulletp = derived_products(A, R, S)
        assert check_axioms("associative", star).passed
        assert check_axioms("associative", starp).passed
        assert check_axioms("prelie", bullet).passed
        assert check_axioms("prelie", bulletp).passed
        (prec, succ), (precp, succp) = split_dendriform(A, R, S)
        assert check_axioms("dendriform", (prec, succ)).passed
        assert check_axioms("dendriform", (precp, succp)).passed


# Nijenhuis --------------------------------------------------------------

def test_nijenhuis_equal_maps(QQ):
    A = fx.fix_a(QQ)
    R, _ = fx.fix_rs(QQ)
    n1, n2 = nijenhuis_from_srbs(A, R, R)
    assert n1.R.is_zero()
    assert check_operator_system("nijenhuis", n1).passed
    assert check_operator_system("nijenhuis", n2).passed


def test_nijenhuis_bisystem_maps(QQ):
    # the bundled map pair satisfies the crossed-product conditions (it
    # extends to a bisystem with negated co-maps), so both derived
    # structures carry R - S as a Nijenhuis operator
    bi = fx.fix_bi(QQ)
    assert check_crossed_products(bi.algebra, bi.R, bi.S).passed
    for sysn in nijenhuis_from_srbs(bi.algebra, bi.R, bi.S):
        assert check_operator_system("nijenhuis", sysn).passed


def test_nijenhuis_construction_checks_each_hypothesis_once(monkeypatch):
    # the builder checks the symmetric paired system through
    # `derived_products` alone, and the regression row shares one verdict
    # scope, so its own crossed-product check serves the builder's
    counts = collections.Counter()
    real = identities._run

    def spy(check, tags, ctx):
        counts[check] += 1
        return real(check, tags, ctx)

    monkeypatch.setattr(identities, "_run", spy)
    bi = fx.fix_bi()
    nijenhuis_from_srbs(bi.algebra, bi.R, bi.S)
    assert counts["operator-system:symmetric_rbs"] == 1
    assert counts["crossed-products"] == 1
    counts.clear()
    assert regression.row_nijenhuis_double().passed
    assert counts["crossed-products"] == 1


def test_nijenhuis_identity_map(QQ):
    for alg in (fx.fix_a(QQ), fx.dual_numbers(QQ)):
        eye = Matrix.identity(QQ, 2)
        assert check_operator_system("nijenhuis", OperatorSystem(alg, eye)).passed


def test_nijenhuis_identity_map_gf2_all_associative(F2):
    eye = Matrix.identity(F2, 2)
    for bits in itertools.product(range(2), repeat=8):
        table = [[(F2.of(bits[0 + 2 * (2 * i + j)]), F2.of(bits[1 + 2 * (2 * i + j)]))
                  for j in range(2)] for i in range(2)]
        A = Algebra(F2, table, raw=True)
        if check_axioms("associative", A).passed:
            assert check_operator_system("nijenhuis", OperatorSystem(A, eye)).passed


def test_nijenhuis_precondition_gate(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.fix_rs(QQ)
    if not check_crossed_products(A, R, S).passed:
        with pytest.raises(PreconditionError):
            nijenhuis_from_srbs(A, R, S)


# commutator lifts -------------------------------------------------------

def test_commutator_lift_fixture(QQ):
    R, S = fx.gc_maps(QQ)
    sys = commutator_lift(fx.fix_a(QQ), R, S)
    assert sys.carrier == fx.fix_lie(QQ)
    assert check_operator_system("lie_rbs", sys).passed


def test_cocommutator_lift_fixture(QQ):
    Q, T = fx.emm_maps(QQ)
    sys = cocommutator_lift(fx.fix_c(QQ), Q, T)
    assert sys.carrier == fx.fix_delta(QQ)
    assert check_cosystem("lie_rb_cosystem", sys).passed


def test_lift_zero_maps(QQ):
    Z = Matrix.zero(QQ, 2)
    assert check_operator_system(
        "lie_rbs", commutator_lift(fx.fix_a(QQ), Z, Z)).passed
    assert check_cosystem(
        "lie_rb_cosystem", cocommutator_lift(fx.fix_c(QQ), Z, Z)).passed


# invariants --------------------------------------------------------------

def test_swap_symmetry_exhaustive_gf2(F2):
    A = fx.fix_a(F2)
    mats = all_matrices(F2)
    for R in mats:
        for S in mats[:8]:
            lhs = check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)).passed
            rhs = check_operator_system("symmetric_rbs", OperatorSystem(A, S, R)).passed
            assert lhs == rhs


def test_commutative_carrier_rbs_is_symmetric(F2):
    # on every commutative associative dim-2 product over GF(2), the one-sided
    # pair condition already implies the symmetric one
    for bits in itertools.product(range(2), repeat=8):
        table = [[(F2.of(bits[0 + 2 * (2 * i + j)]), F2.of(bits[1 + 2 * (2 * i + j)]))
                  for j in range(2)] for i in range(2)]
        A = Algebra(F2, table, raw=True)
        if not A.is_commutative() or not check_axioms("associative", A).passed:
            continue
        plain = {h.index for h in enumerate_hits(SearchJob(F2, A, "rbs"))}
        sym = {h.index for h in enumerate_hits(SearchJob(F2, A, "symmetric_rbs"))}
        assert plain == sym


def test_degenerate_pair_claim_counterexample(QQ):
    # One map of a symmetric pair need NOT be an averaging operator, and
    # the pair with one map zeroed need not stay a paired system: this
    # instance of the first parametric family is a symmetric pair whose R
    # fails R(a)R(b) = R(aR(b)) and whose (0, S) fails the plain pair
    # condition.  Kept as a witness that no such implication is assumed
    # anywhere in the package.
    A = fx.fix_a(QQ)
    one = QQ.one()
    R, S = fx.FAMILIES["cee-a"].build(QQ, {"p1": one, "p2": one, "p3": one})
    Z = Matrix.zero(QQ, 2)
    assert check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)).passed
    assert not check_operator_system("averaging", OperatorSystem(A, R)).passed
    assert not check_operator_system("rbs", OperatorSystem(A, Z, S)).passed


def test_all_families_at_sampled_points(QQ):
    from rbx.search import verify_family
    A, C = fx.fix_a(QQ), fx.fix_c(QQ)
    for fam in fx.CEE_FAMILIES + fx.CUU_FAMILIES:
        carrier = A if fam.kind == "symmetric_rbs" else C
        assert verify_family(fam, carrier, 5, seed=97).passed, fam.name


def test_family_d_valid_without_distinctness(QQ):
    # the recorded side condition p2 != p1 is not needed for the identities
    fam = fx.FAMILIES["cee-d"]
    A = fx.fix_a(QQ)
    p = QQ.of(5, 3)
    R, S = fam.build(QQ, {"p1": p, "p2": p})
    assert check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)).passed


# tags with one body share one registered function, and keep their own faults;
# one group per module whose bodies carry bridge tags too

@pytest.mark.parametrize("group", [("eq:rbs1", "eq:ea0#1", "eq:gh0"),
                                   ("eq:rbs2", "eq:ea1#1", "eq:gh1"),
                                   ("eq:cu#1", "eq:ek0"), ("eq:cu1#1", "eq:ek1"),
                                   ("eq:cee", "de:he#2"), ("rmk:gb#2", "de:he#3"),
                                   ("eq:ck#1", "eq:emm1#2"), ("eq:ck5#1", "eq:emm3#1"),
                                   ("eq:er2", "de:he#4a")])
def test_alias_tags_share_one_body_and_fault_alone(QQ, group):
    assert len({CATALOG[tag].terms for tag in group}) == 1
    one = Matrix.identity(QQ, 2)  # every first summand is nonzero at e1
    A, C = fx.fix_a(QQ), fx.fix_c(QQ)
    ctx = Ctx({"A": A.basis, "C": C.basis}, A=A, C=C, R=one, S=one, Q=one, T=one,
              lam=QQ.one())
    idx = (1,) * len(CATALOG[group[0]].spaces)
    clean = {tag: evaluate(tag, ctx, idx) for tag in group}
    assert len({str(v) for v in clean.values()}) == 1
    for faulted in group:
        with seeded_fault(faulted, 0):
            for tag in group:
                assert (evaluate(tag, ctx, idx) == clean[tag]) == (tag != faulted)


# tags affine in the second component of a two-component search kind: every
# summand is affine in it, so the solver solves each of their rows for that
# component's entries instead of trying the p values

AFFINE = {tag: ("rbs", "S") for tag in ("eq:rbs1",)}
AFFINE.update({tag: ("symmetric_rbs", "S") for tag in ("eq:ea0#1", "eq:ea0#2")})
AFFINE.update({"eq:gh0": ("lie_rbs", "S"), "eq:ek0": ("lie_rb_cosystem", "T")})
AFFINE.update({tag: ("symmetric_rb_cosystem", "T") for tag in ("eq:cu#1", "eq:cu#2")})
AFFINE.update({tag: ("symmetric_ybpair", "s") for tag in ("de:eh#1a", "de:eh#1b")})
AFFINE.update({tag: ("adjoint_admissible", "T") for tag in (
    "eq:ck#1", "eq:ck#2", "eq:ck1#1", "eq:ck1#2", "eq:ck2#1", "eq:ck3#1")})
AFFINE_TAGS = sorted(AFFINE)


def _random_ctx(F, rng, lie):
    A, C = (fx.fix_lie(F), fx.fix_delta(F)) if lie else (fx.fix_a(F), fx.fix_c(F))
    maps = {n: Matrix(F, 2, 2, [rng.randrange(F.modulus) for _ in range(4)])
            for n in "RSQT"}
    tensors = {n: Tensor2(F, 2, [rng.randrange(F.modulus) for _ in range(4)])
               for n in "rs"}
    return Ctx({"A": A.basis, "C": C.basis}, A=A, C=C, **maps, **tensors,
               lam=rng.randrange(F.modulus))


def _affine_failures(tag, name, ctx, rng):
    """(basis tuple, summand) pairs at which a random finite difference in
    `name` shows f(Y1+Y2) + f(0) != f(Y1) + f(Y2) or
    f(cY) - f(0) != c(f(Y) - f(0))."""
    F, p = ctx.field, ctx.field.modulus
    ident, old = CATALOG[tag], getattr(ctx, name)

    def rand():
        entries = [rng.randrange(p) for _ in range(4)]
        return (Tensor2(F, 2, entries) if isinstance(old, Tensor2)
                else Matrix(F, 2, 2, entries))

    def summands(value, idx):
        setattr(ctx, name, value)
        return [F.reduce(t) if isinstance(t, tuple) else t.entries
                for t in ident.terms(ctx, idx)]

    failures = []
    for idx in itertools.product(*(range(len(ctx.spaces[s])) for s in ident.spaces)):
        y1, y2, c = rand(), rand(), rng.randrange(2, p)
        f0, f1, f2 = summands(old.scale(0), idx), summands(y1, idx), summands(y2, idx)
        f12, fc = summands(y1 + y2, idx), summands(y1.scale(c), idx)
        for k, (z, a, b, ab, ca) in enumerate(zip(f0, f1, f2, f12, fc)):
            additive = all((u + w - x - y) % p == 0 for u, w, x, y in zip(ab, z, a, b))
            homogeneous = all((u - w - c * (x - w)) % p == 0 for u, w, x in zip(ca, z, a))
            if not (additive and homogeneous):
                failures.append((idx, k))
    setattr(ctx, name, old)
    return failures


def _search_job(kind, F):
    carrier = {"lie_rbs": fx.fix_lie, "lie_rb_cosystem": fx.fix_delta}.get(
        kind, fx.fix_c if kind in _COALG_KINDS else fx.fix_a)(F)
    R, S = fx.fix_rs(F)
    return SearchJob(F, carrier, kind, cocarrier=fx.fix_c(F), weight=F.one(),
                     fixed={"R": R, "S": S})


@pytest.mark.parametrize("tag", AFFINE_TAGS)
def test_affine_declarations_hold(tag):
    kind, name = AFFINE[tag]
    rng = random.Random(tag)
    for p in (3, 5):  # not 2: there y^2 = y hides a quadratic summand
        for lie in (False, True):
            for _ in range(3):
                ctx = _random_ctx(PrimeField(p), rng, lie)
                assert _affine_failures(tag, name, ctx, rng) == [], (p, lie, name)
        # no compiled row of the tag multiplies two entries of the component
        job = _search_job(kind, PrimeField(p))
        ok, groups = search._groups(job)
        (bound,) = groups
        k = bound.names.index(name)
        own = range(4 * k, 4 * k + 4)
        compiled = search._compile(job.field, 2, search._KINDS[kind], groups)
        rows = [row for (t, _), rows in compiled.items() if t == tag for row in rows]
        assert ok and rows
        assert [m for row in rows for m in row if m[1] in own and m[2] in own] == []


def test_affine_check_catches_a_quadratic_summand():
    # S(a)S(b) makes eq:ea1#1 quadratic in S
    rng = random.Random(5)
    ctx = _random_ctx(PrimeField(3), rng, False)
    assert _affine_failures("eq:ea1#1", "S", ctx, rng)


# every summand of a tag that search compiles has degree at most 2 in all
# the names that its search kinds and equivalence scans bind, taken jointly;
# the compile refuses any step that has not, and this test looks for such a
# summand at random contexts beyond the fixtures that searches run on

# kind -> the (tags, names) groups that its search binds
SEARCHED = {kind: [(tags, "RS"[:n])] for kind, (tags, n, _) in _ALG_KINDS.items()}
SEARCHED.update((kind, [(tags, "QT"[:n])]) for kind, (tags, n, _) in _COALG_KINDS.items())
SEARCHED.update(aybe=[(_AYBE_TAGS, "r")], symmetric_ybpair=[(_YBPAIR_TAGS, "rs")],
                adjoint_admissible=[(_CK_TAGS, "QT")],
                bisystem=SEARCHED["symmetric_rbs"] + SEARCHED["symmetric_rb_cosystem"]
                + [(_CK_TAGS + _CK5_TAGS, "RSQT")])


def _scan_groups():
    """The groups of both sides of each equivalence scan over GF(3), at
    lam = 0 and 2 on a weighted scan."""
    F3 = PrimeField(3)
    for scan in regression._SCANS.values():
        A, C = (make(F3) for make in scan.carriers)
        for lam in (0, 2) if scan.weighted else (None,):
            for parts, binding in regression._sides(scan, A, C, lam):
                for _, tags, ctx in parts:
                    yield search._by_name(tags, ctx, binding)


def _bound_names():
    """{tag: every name that some search kind or scan binds in its group}."""
    names = collections.defaultdict(set)
    groups = [group for kind in SEARCHED for group in SEARCHED[kind]]
    for tags, bound in groups + [(g.tags, g.names) for g in _scan_groups()]:
        for tag in tags:
            names[tag].update(bound)
    return names


BOUND_NAMES = _bound_names()
QUADRATIC_TAGS = sorted(BOUND_NAMES)


def _cubic_failures(terms, spaces, names, ctx, rng):
    """(basis tuple, summand) pairs at which a random third finite difference
    in all of `names` at once, the alternating sum of f(Y + sum of a subset
    of {H1, H2, H3}) over the eight subsets, Y and each H_k giving a random
    value to every name, is nonzero; it vanishes on joint degree <= 2."""
    F, p = ctx.field, ctx.field.modulus
    old = {name: getattr(ctx, name) for name in names}

    def rand():
        values = {}
        for name, value in old.items():
            entries = [rng.randrange(p) for _ in range(4)]
            values[name] = (Tensor2(F, 2, entries) if isinstance(value, Tensor2)
                            else Matrix(F, 2, 2, entries))
        return values

    def summands(point, idx):
        for name, value in point.items():
            setattr(ctx, name, value)
        return [F.reduce(t) if isinstance(t, tuple) else t.entries
                for t in terms(ctx, idx)]

    failures = []
    for idx in itertools.product(*(range(len(ctx.spaces[s])) for s in spaces)):
        y, hs = rand(), [rand() for _ in range(3)]
        total = None
        for subset in itertools.product((0, 1), repeat=3):
            point = dict(y)
            for h, on in zip(hs, subset):
                if on:
                    point = {name: point[name] + h[name] for name in names}
            sign = (-1) ** (3 - sum(subset))
            values = [[sign * x for x in t] for t in summands(point, idx)]
            total = values if total is None else [
                [u + w for u, w in zip(a, b)] for a, b in zip(total, values)]
        failures += [(idx, k) for k, t in enumerate(total) if any(x % p for x in t)]
    for name, value in old.items():
        setattr(ctx, name, value)
    return failures


@pytest.mark.parametrize("tag", QUADRATIC_TAGS)
def test_quadratic_declarations_hold(tag):
    rng = random.Random(tag)
    ident = CATALOG[tag]
    for p in (5, 7):  # not 2 or 3: there y^3 = y hides a cubic summand
        for lie in (False, True):
            for _ in range(3):
                ctx = _random_ctx(PrimeField(p), rng, lie)
                assert _cubic_failures(ident.terms, ident.spaces, sorted(BOUND_NAMES[tag]),
                                       ctx, rng) == [], (p, lie)


def _cubic(ctx, idx):
    # R(R(R(e_i))) is cubic in R; it is not a catalog entry
    return [ctx.R.apply(ctx.R.apply(ctx.R.col(idx[0])))]


def _joint(ctx, idx):
    # R(S(Q(e_i))) is affine in each of R, S and Q, and cubic in them jointly
    return [ctx.R.apply(ctx.S.apply(ctx.Q.col(idx[0])))]


def test_quadratic_check_catches_a_cubic_summand():
    rng = random.Random(7)
    for p in (5, 7):
        ctx = _random_ctx(PrimeField(p), rng, False)
        assert _cubic_failures(_cubic, ("A",), ("R",), ctx, rng)


def test_quadratic_check_catches_a_jointly_cubic_summand():
    rng = random.Random(11)
    for p in (5, 7):
        ctx = _random_ctx(PrimeField(p), rng, False)
        for name in "RSQ":
            assert _cubic_failures(_joint, ("A",), (name,), ctx, rng) == []
        assert _cubic_failures(_joint, ("A",), ("R", "S"), ctx, rng) == []
        assert _cubic_failures(_joint, ("A",), ("R", "S", "Q"), ctx, rng)


def test_compile_refuses_a_cubic_summand(monkeypatch):
    # the compile measures each step's degree as it evaluates it: the cubic
    # entry raises, naming its step, and the jointly cubic one raises once
    # R, S and Q are all bound
    for tag, terms in (("test:cubic", _cubic), ("test:joint", _joint)):
        monkeypatch.setitem(CATALOG, tag, identities.Identity(tag, ("A",), terms))
    for p in (3, 5):
        F = PrimeField(p)
        A, zero = fx.fix_a(F), Matrix.zero(F, 2)
        ctx = Ctx({"A": A.basis}, A=A, R=zero, S=zero, Q=Matrix.identity(F, 2))
        with pytest.raises(RuntimeError, match=r"test:cubic at \(0,\)"):
            search._compile(F, 2, ("map",), (search._on(("R",), ("test:cubic",), ctx),))
        two, three = (search._on(names, ("test:joint",), ctx)
                      for names in (("R", "S"), ("R", "S", "Q")))
        assert any(search._compile(F, 2, ("map",) * 2, (two,)).values())
        with pytest.raises(RuntimeError, match="test:joint"):
            search._compile(F, 2, ("map",) * 3, (three,))


def test_search_kinds_declare_quadratic_tags():
    # SEARCHED, whose names the degree test covers, is what each kind's
    # search binds, and every group of every scan binds some name
    F3 = PrimeField(3)
    assert set(SEARCHED) == set(_KINDS)
    for kind, groups in SEARCHED.items():
        _, bound = search._groups(_search_job(kind, F3))
        assert {tag: "".join(g.names) for g in bound for tag in g.tags} == {
            tag: names for tags, names in groups for tag in tags}, kind
    assert all(g.names for g in _scan_groups())


# ---------------------------------------------------------------------------
# axiom, operator-system and cosystem verdicts shared inside one scope

def _count_evaluations(monkeypatch, axioms):
    """Counts, by check name, the reports that `identities._run` evaluates
    rather than `run_identities` serving them from a shared memo: those of
    `check_axioms` if `axioms`, else every other."""
    counts = collections.Counter()
    real = identities._run

    def spy(check, tags, ctx):
        if check.startswith("axioms:") == axioms:
            counts[check] += 1
        return real(check, tags, ctx)
    monkeypatch.setattr(identities, "_run", spy)
    return counts


@pytest.fixture
def evaluations(monkeypatch):
    """Counts, by check name, the operator-system, cosystem, bisystem-part,
    bridge-part and other verdicts that are evaluated rather than served
    from a shared memo."""
    return _count_evaluations(monkeypatch, axioms=False)


@pytest.fixture
def axiom_evaluations(monkeypatch):
    """The same count for `check_axioms` verdicts."""
    return _count_evaluations(monkeypatch, axioms=True)


# what the verdict of each single-map-pair part of a scan's checkers reads
# of an instance (lam, R, Q); every other part reads R and Q
_READS = {"rb-algebra": "R", "rb-coalgebra": "Q", "averaging-algebra": "R",
          "averaging-coalgebra": "Q", "rb-lie-algebra": "R", "rb-lie-coalgebra": "Q",
          "lie-system": "R", "lie-cosystem": "Q", "operator-system": "R",
          "co-operator-system": "Q"}


def _row(scan):
    return scan.__name__[len("scan_"):-len("_equivalence")].replace("_", "-")


def _axioms(scan):
    return (("lie", "lie_coalgebra", "lie_bialgebra") if "lie" in scan.__name__
            else ("associative", "coassociative", "asi_bialgebra"))


@pytest.mark.parametrize("scan, per_kind, kinds", [
    (regression.scan_weighted_equivalence, 32,
     ("rb-algebra", "rb-coalgebra", "operator-system", "co-operator-system")),
    (regression.scan_averaging_equivalence, 16,
     ("averaging-algebra", "averaging-coalgebra", "operator-system",
      "co-operator-system")),
    (regression.scan_averaging_lie_equivalence, 16, ("lie-system", "lie-cosystem")),
    (regression.scan_weighted_lie_equivalence, 32,
     ("rb-lie-algebra", "rb-lie-coalgebra", "lie-system", "lie-cosystem")),
])
def test_scans_evaluate_each_verdict_once(evaluations, axiom_evaluations, scan,
                                         per_kind, kinds):
    # both checkers on every GF(2) instance of a scan inside one scope: up to
    # 512 instances, but only 16 or 32 distinct maps per single-map-pair part,
    # and one carrier pair whose axioms are checked once
    with shared_verdicts():
        pairs = list(_scan_instances(_row(scan)))
    assert _VERDICTS.get() is None
    assert all(left.passed == right.passed for left, right in pairs)
    got = dict(evaluations)
    assert {kind: got.pop(kind) for kind in kinds} == dict.fromkeys(kinds, per_kind)
    assert set(got.values()) == {len(pairs)}  # the parts on both maps
    # the instances also build the other scans' carriers, and so check their
    # associativity and coassociativity
    assert set(axiom_evaluations.values()) == {1}
    assert {f"axioms:{kind}" for kind in _axioms(scan)} <= set(axiom_evaluations)


@pytest.mark.parametrize("scan", [
    regression.scan_weighted_equivalence, regression.scan_averaging_equivalence,
    regression.scan_averaging_lie_equivalence, regression.scan_weighted_lie_equivalence])
def test_solved_scans_evaluate_each_survivor_verdict_once(evaluations, axiom_evaluations,
                                                         scan):
    # the solved scan runs both checkers on the instances that either side's
    # rows keep, and computes one verdict per distinct map among them
    F2, row = PrimeField(2), _row(scan)
    A, C = (make(F2) for make in regression._SCANS[row].carriers)
    hits = []
    for lam, left, right in regression._survivors(regression._SCANS[row], A, C):
        assert left == right
        hits += [(lam, y) for y in left]
    evaluations.clear()
    axiom_evaluations.clear()
    assert regression._mismatches(row, F2) == []
    assert _VERDICTS.get() is None

    def key(check, lam, y):
        reads = _READS.get(check, "RQ")
        return lam, y[:4] if "R" in reads else None, y[4:] if "Q" in reads else None
    assert len(evaluations) >= 4
    assert evaluations == {check: len({key(check, *hit) for hit in hits})
                           for check in evaluations}
    assert axiom_evaluations == {f"axioms:{kind}": 1 for kind in _axioms(scan)}


@pytest.mark.parametrize("scan, kinds", [(regression.scan_averaging_equivalence, 4),
                                         (regression.scan_averaging_lie_equivalence, 2)])
def test_scoped_scan_reports_equal_unscoped_ones(monkeypatch, scan, kinds):
    # over all 256 instances, the reports built inside one scope share their
    # single-map-pair verdicts, each the object of one evaluation, and equal
    # the reports built outside any scope
    made = []
    real = identities._run

    def spy(check, tags, ctx):
        made.append(real(check, tags, ctx))
        return made[-1]
    monkeypatch.setattr(identities, "_run", spy)
    with shared_verdicts():
        scoped = list(_scan_instances(_row(scan)))
    monkeypatch.undo()
    assert len(scoped) == 256
    ops = [sub for pair in scoped for rep in pair for sub in rep.subreports
           if sub.check in _READS]
    assert len(ops) == 256 * kinds
    shared = {id(rep) for rep in ops}
    assert len(shared) == 16 * kinds  # shared objects
    assert shared == {id(rep) for rep in made if rep.check in _READS}
    assert scoped == list(_scan_instances(_row(scan)))


def test_search_shares_verdicts_and_drops_them(F2, evaluations):
    # a bisystem hit re-verifies its (R, S), its (Q, T) and the two
    # admissibility parts on all four maps; repeats come from the shard's
    # memo, which is gone when the shard returns
    job = SearchJob(F2, fx.fix_a(F2), "bisystem", cocarrier=fx.fix_c(F2))
    runs = []
    for _ in range(2):
        evaluations.clear()
        hits = enumerate_hits(job)
        assert _VERDICTS.get() is None
        runs.append(dict(evaluations))
    assert len(hits) == 48
    assert runs[0] == runs[1] == {
        "operator-system": len({h.parts[:2] for h in hits}),
        "co-operator-system": len({h.parts[2:] for h in hits}),
        "adjoint-admissible": len(hits), "coadjoint-admissible": len(hits)}
    assert runs[0]["operator-system"] < len(hits)


def test_verdict_key_reads_every_datum(QQ, evaluations):
    # inside one scope, contexts that differ in exactly one datum get verdicts
    # of their own, whatever the datum and whether or not a tag reads it;
    # equal contexts share one report object; outside a scope nothing is kept
    A = fx.fix_a(QQ)
    R, S = fx.gc_maps()
    data = dict(A=A, R=R, r=Tensor2.from_terms(QQ, 2, [(0, 1, 1)]), lam=QQ.coerce(1),
                M=adjoint_bimodule(A), alpha=S)
    other = dict(A=fx.fix_a(QQ), R=S, r=Tensor2.from_terms(QQ, 2, [(1, 0, 1)]),
                 lam=QQ.coerce(2), M=adjoint_bimodule(A), alpha=R)
    run = lambda **changed: run_identities(
        "key", ("associativity",), Ctx({"A": A.basis}, **{**data, **changed}))
    with shared_verdicts():
        first = run()
        assert run() is first
        assert run(R=Matrix(QQ, 2, 2, R.entries), lam=QQ.coerce(1)) is first
        reports = [run(**{name: value}) for name, value in other.items()]
        assert len({id(rep) for rep in [first, *reports]}) == 1 + len(other)
        assert all(run(**{name: value}) is rep
                   for (name, value), rep in zip(other.items(), reports))
        assert len(_VERDICTS.get()) == 1 + len(other)
    assert evaluations["key"] == 1 + len(other)
    assert run() is not run() and _VERDICTS.get() is None
    assert evaluations["key"] == 3 + len(other)


def test_shared_verdicts_never_hide_a_seeded_fault(QQ, evaluations):
    A = fx.fix_a(QQ)
    R, S = fx.gc_maps()
    check = lambda: check_operator_system("symmetric_rbs", OperatorSystem(A, R, S))
    with shared_verdicts():
        memo = _VERDICTS.get()
        clean = check()
        assert clean.passed and len(memo) == 1
        with seeded_fault("eq:ea0#1", 0):
            assert not check().passed
            assert not check().passed  # served from the fault's own memo
        assert check() is clean
        with shared_verdicts():
            assert _VERDICTS.get() is memo  # an inner scope reuses the memo
            assert check() is clean
        assert len(memo) == 1
    assert _VERDICTS.get() is None
    assert evaluations["operator-system:symmetric_rbs"] == 2


def test_shared_verdicts_keep_carriers_and_weights_apart(QQ):
    R, S = fx.gc_maps()
    minus = Matrix.identity(QQ, 2).scale(QQ.coerce(-1))
    with shared_verdicts():
        for _ in range(2):
            assert check_operator_system(
                "symmetric_rbs", OperatorSystem(fx.fix_a(QQ), R, S)).passed
            assert not check_operator_system(
                "symmetric_rbs", OperatorSystem(fx.dual_numbers(QQ), R, S)).passed
            assert [check_operator_system(
                "rb_weight", OperatorSystem(fx.fix_a(QQ), minus, weight=w)).passed
                for w in (0, 1, -1)] == [False, True, False]


def test_verdict_computed_under_a_fault_is_not_stored(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.gc_maps()
    with shared_verdicts():
        with seeded_fault("eq:ea0#1", 0):
            assert not check_operator_system(
                "symmetric_rbs", OperatorSystem(A, R, S)).passed
        assert _VERDICTS.get() == {}
        assert check_operator_system("symmetric_rbs", OperatorSystem(A, R, S)).passed


def test_shared_verdicts_scope_is_per_thread(QQ):
    A = fx.fix_a(QQ)
    R, S = fx.gc_maps()
    opened, checked = threading.Event(), threading.Event()
    seen = {}

    def owner():
        with shared_verdicts():
            seen["owner"] = _VERDICTS.get()
            opened.set()
            checked.wait(timeout=30)

    def other():
        seen["other"] = _VERDICTS.get()
        check_operator_system("symmetric_rbs", OperatorSystem(A, R, S))

    first = threading.Thread(target=owner)
    first.start()
    assert opened.wait(timeout=30)
    second = threading.Thread(target=other)
    second.start()
    second.join(timeout=30)
    checked.set()
    first.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()
    assert seen["owner"] == {} and seen["other"] is None
    assert _VERDICTS.get() is None
