"""The identity catalog as a whole: its tags are stable keys, and one
identity has one registered body however many tags restate it."""

import itertools
import random
from collections import defaultdict

from rbx.identities import CATALOG, Ctx, _stored, evaluate
from rbx.kernel import Matrix, PrimeField
from rbx.structures import Algebra, Coalgebra

# every registered tag, grouped by the spaces it quantifies over
TAGS_BY_SPACES = {
    (): ("de:eh#1a", "de:eh#1b", "de:eh#2a", "de:eh#2b", "eq:db4", "eq:dg#1",
         "eq:dg#2", "eq:dh", "eq:dh1"),
    ("A",): ("de:ev#3a", "de:ev#3b", "de:ev#3c", "de:he#3", "de:he#4b",
             "eq:ck5#1", "eq:ck5#2", "eq:ck6#1", "eq:ck6#2", "eq:ck7#1",
             "eq:ck7#2", "eq:ck8#1", "eq:ck8#2", "eq:cxx3", "eq:cxx4", "eq:db2",
             "eq:db5", "eq:de", "eq:de1", "eq:de1de1", "eq:de2", "eq:de2de2",
             "eq:de3", "eq:de3de3", "eq:de4", "eq:de4de4", "eq:de5", "eq:de5de5",
             "eq:dede", "eq:dm1#1", "eq:dm1#2", "eq:emm3#1", "eq:emm3#2",
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
    assert len(pinned) == 171
    assert sorted((tag, ident.spaces) for tag, ident in CATALOG.items()) == pinned


def _random_ctx(F, rng):
    """Raw 2-dimensional carriers with random structure constants, random
    maps R, S, Q, T and a random weight: no axiom holds by accident."""
    def table():
        return [[[rng.randrange(F.modulus) for _ in range(2)] for _ in range(2)]
                for _ in range(2)]
    A, C = Algebra(F, table(), raw=True), Coalgebra(F, table(), raw=True)
    maps = {n: Matrix(F, 2, 2, [rng.randrange(F.modulus) for _ in range(4)])
            for n in "RSQT"}
    return Ctx({"A": A.basis, "C": C.basis}, A=A, C=C,
               lam=F.of(rng.randrange(F.modulus)), **maps)


def _residuals(tag, ctx):
    """Every residual of `tag` on `ctx`, in stored form, or None when the
    entry reads a datum that `ctx` does not carry."""
    out = []
    for idx in itertools.product(range(2), repeat=len(CATALOG[tag].spaces)):
        try:
            res = _stored(evaluate(tag, ctx, idx), ctx.field)
        except AttributeError as err:
            assert err.obj is ctx, (tag, err)  # a missing datum, not a broken body
            return None
        out.append((type(res).__name__, getattr(res, "entries", res)))
    return tuple(out)


def test_tags_with_one_residual_share_one_body():
    # Several seeds: on a single one, two different identities can agree.
    F = PrimeField(7)
    ctxs = [_random_ctx(F, random.Random(seed)) for seed in range(5)]
    by_residuals = defaultdict(list)
    for tag in CATALOG:
        key = tuple(_residuals(tag, ctx) for ctx in ctxs)
        if None not in key:
            by_residuals[key].append(tag)
    evaluated = {tag for tags in by_residuals.values() for tag in tags}
    assert {"eq:cee", "rmk:gb#2", "eq:ck#1", "eq:ck5#1", "eq:er2", "de:he#4b",
            "associativity", "coassociativity"} <= evaluated
    for tags in by_residuals.values():
        assert len({CATALOG[tag].terms for tag in tags}) == 1, sorted(tags)
