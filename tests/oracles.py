"""Independently coded brute-force oracles used by the test suite.

These deliberately avoid the package's evaluation machinery: explicit
integer loops mod p for the finite-field counts and hit sets, and a direct
triple-loop expansion of the three tensor products for the equation
residual.  Search evaluates the identity catalog, and so do the checkers
that re-verify its hits; these oracles are the independent second
implementation that a hit set is compared with.
"""

import itertools

from rbx.kernel import Tensor3


def naive_mul(table, p, x, y):
    d = len(table)
    out = [0] * d
    for i in range(d):
        for j in range(d):
            if x[i] and y[j]:
                for k in range(d):
                    out[k] = (out[k] + x[i] * y[j] * table[i][j][k]) % p
    return tuple(out)


def naive_apply(cols, p, v):
    d = len(cols)
    out = [0] * d
    for j in range(d):
        for k in range(d):
            out[k] = (out[k] + v[j] * cols[j][k]) % p
    return tuple(out)


FIXTURE_TABLE = (((0, 0), (0, 0)), ((1, 0), (0, 1)))


def naive_count(p, kind, lam=0, table=FIXTURE_TABLE):
    return len(naive_hits(p, kind, lam, table))


def naive_hits(p, kind, lam=0, table=FIXTURE_TABLE):
    """Hit indices of an algebra-side map kind over the full space: a map's
    index in base p is its row-major entries, and a pair's index is R's
    index times p^4 plus S's."""
    d = 2
    basis = [(1, 0), (0, 1)]
    maps = list(itertools.product(range(p), repeat=4))

    def cols(entries):
        return tuple(tuple(entries[i * d + j] for i in range(d)) for j in range(d))

    def add(u, v):
        return tuple((a + b) % p for a, b in zip(u, v))

    hits = set()
    if kind in ("rbs", "symmetric_rbs"):
        for index, (re_, se_) in enumerate(itertools.product(maps, repeat=2)):
            R, S = cols(re_), cols(se_)
            good = True
            for i in range(d):
                for j in range(d):
                    lhs_r = naive_mul(table, p, R[i], R[j])
                    lhs_s = naive_mul(table, p, S[i], S[j])
                    arg1 = add(naive_mul(table, p, R[i], basis[j]),
                               naive_mul(table, p, basis[i], S[j]))
                    if lhs_r != naive_apply(R, p, arg1):
                        good = False
                    if lhs_s != naive_apply(S, p, arg1):
                        good = False
                    if kind == "symmetric_rbs":
                        arg2 = add(naive_mul(table, p, S[i], basis[j]),
                                   naive_mul(table, p, basis[i], R[j]))
                        if lhs_r != naive_apply(R, p, arg2):
                            good = False
                        if lhs_s != naive_apply(S, p, arg2):
                            good = False
            if good:
                hits.add(index)
        return hits
    for index, re_ in enumerate(maps):
        R = cols(re_)
        good = True
        for i in range(d):
            for j in range(d):
                lhs = naive_mul(table, p, R[i], R[j])
                if kind == "rb_weight":
                    arg = add(add(naive_mul(table, p, R[i], basis[j]),
                                  naive_mul(table, p, basis[i], R[j])),
                              tuple(lam * c % p for c in table[i][j]))
                    if lhs != naive_apply(R, p, arg):
                        good = False
                elif kind == "averaging":
                    if lhs != naive_apply(R, p, naive_mul(table, p, R[i], basis[j])):
                        good = False
                    if lhs != naive_apply(R, p, naive_mul(table, p, basis[i], R[j])):
                        good = False
                elif kind == "nijenhuis":
                    lhs2 = add(lhs, naive_apply(R, p, naive_apply(R, p, table[i][j])))
                    rhs = naive_apply(R, p, add(naive_mul(table, p, R[i], basis[j]),
                                                naive_mul(table, p, basis[i], R[j])))
                    if lhs2 != rhs:
                        good = False
        if good:
            hits.add(index)
    return hits


def naive_aybe_residual(A, r):
    """Triple-loop expansion of r12 r13 + r13 r23 - r23 r12."""
    d = A.dim
    f = A.field
    t12_13 = [[[f.zero()] * d for _ in range(d)] for _ in range(d)]
    t13_23 = [[[f.zero()] * d for _ in range(d)] for _ in range(d)]
    t23_12 = [[[f.zero()] * d for _ in range(d)] for _ in range(d)]
    for a in range(d):
        for b in range(d):
            ca = r[a, b]
            if not ca:
                continue
            for c in range(d):
                for e in range(d):
                    cb = r[c, e]
                    if not cb:
                        continue
                    coef = ca * cb
                    prod = A.product(a, c)     # r1 rbar1 (x) r2 (x) rbar2
                    for k, x in enumerate(prod):
                        t12_13[k][b][e] = t12_13[k][b][e] + coef * x
                    prod = A.product(b, e)     # r1 (x) rbar1 (x) r2 rbar2
                    for k, x in enumerate(prod):
                        t13_23[a][c][k] = t13_23[a][c][k] + coef * x
                    prod = A.product(a, e)     # placed at 23 then 12
                    for k, x in enumerate(prod):
                        t23_12[c][k][b] = t23_12[c][k][b] + coef * x
    flat = [t12_13[i][j][k] + t13_23[i][j][k] - t23_12[i][j][k]
            for i in range(d) for j in range(d) for k in range(d)]
    return Tensor3(A.field, d, flat)


# --- full-space hit-index oracles -------------------------------------------
#
# A candidate's index written in base p, most significant digit first, is
# the row-major entries of each of its components in turn: a map's entry
# [a][b] sends e_b to e_a with that coefficient, a 2-tensor's entry [a][b]
# weights e_a (x) e_b.  Structure tables are read as plain ints mod p.

def _grids(p, d, count):
    """(index, grids) for every tuple of `count` d x d grids of residues."""
    w = d * d
    for index, digits in enumerate(itertools.product(range(p), repeat=count * w)):
        yield index, [[list(digits[k * w + a * d:k * w + a * d + d]) for a in range(d)]
                      for k in range(count)]


def _zero2(d):
    return [[0] * d for _ in range(d)]


def _comul(table, p, v):
    """Delta(v) = sum_i v_i Delta(e_i) as a d x d grid mod p."""
    d = len(table)
    out = _zero2(d)
    for i in range(d):
        for a in range(d):
            for b in range(d):
                out[a][b] = (out[a][b] + v[i] * table[i][a][b]) % p
    return out


def _leg(m, t, leg, p):
    """(m (x) id)t for leg 1, (id (x) m)t for leg 2."""
    d = len(t)
    out = _zero2(d)
    for a in range(d):
        for b in range(d):
            for u in range(d):
                if leg == 1:
                    out[a][b] = (out[a][b] + m[a][u] * t[u][b]) % p
                else:
                    out[a][b] = (out[a][b] + m[b][u] * t[a][u]) % p
    return out


def _column(m, i):
    return [m[a][i] for a in range(len(m))]


def _cos_zero(table, p, i, outer, first, second):
    """(outer (x) outer)D(e_i) = (first (x) id)D(outer e_i) + (id (x) second)D(outer e_i)."""
    lhs = _leg(outer, _leg(outer, table[i], 1, p), 2, p)
    dout = _comul(table, p, _column(outer, i))
    one, two = _leg(first, dout, 1, p), _leg(second, dout, 2, p)
    d = len(table)
    return all((lhs[a][b] - one[a][b] - two[a][b]) % p == 0
               for a in range(d) for b in range(d))


def coalgebra_hits(table, p, kind, lam=0):
    """Hit indices of a coalgebra-side search kind over the full space."""
    d = len(table)
    rng = range(d)
    if kind in ("symmetric_rb_cosystem", "lie_rb_cosystem"):
        hits = set()
        for index, (Q, T) in _grids(p, d, 2):
            triples = [(Q, Q, T), (T, Q, T)]
            if kind == "symmetric_rb_cosystem":
                triples += [(Q, T, Q), (T, T, Q)]
            if all(_cos_zero(table, p, i, *tr) for i in rng for tr in triples):
                hits.add(index)
        return hits
    hits = set()
    for index, (Q,) in _grids(p, d, 1):
        good = True
        for i in rng:
            lhs = _leg(Q, _leg(Q, table[i], 1, p), 2, p)
            dq = _comul(table, p, _column(Q, i))
            one, two = _leg(Q, dq, 1, p), _leg(Q, dq, 2, p)
            for a in rng:
                for b in rng:
                    if kind == "coaveraging":
                        good &= (lhs[a][b] - one[a][b]) % p == 0
                        good &= (lhs[a][b] - two[a][b]) % p == 0
                    else:  # rb_coalgebra_weight
                        good &= (lhs[a][b] - one[a][b] - two[a][b]
                                 - lam * dq[a][b]) % p == 0
        if good:
            hits.add(index)
    return hits


def placed(table, x, px, y, py, zero=0):
    """Product of x on legs px and y on legs py, multiplied in the one shared
    leg (x's factor on the left), as a nested d x d x d list."""
    d = len(table)
    (shared,) = set(px) & set(py)
    out = [[[zero] * d for _ in range(d)] for _ in range(d)]
    for u in range(d):
        for v in range(d):
            for w in range(d):
                for t in range(d):
                    c = x[u][v] * y[w][t]
                    if not c:
                        continue
                    xlegs = {px[0]: u, px[1]: v}
                    ylegs = {py[0]: w, py[1]: t}
                    prod = table[xlegs.pop(shared)][ylegs.pop(shared)]
                    for k in range(d):
                        pos = {shared: k, **xlegs, **ylegs}
                        out[pos[1]][pos[2]][pos[3]] += c * prod[k]
    return out


def _vanishes(p, *signed):
    """Whether the signed sum of d x d x d lists is zero mod p."""
    d = len(signed[0][1])
    return all(sum(sign * t[a][b][c] for sign, t in signed) % p == 0
               for a in range(d) for b in range(d) for c in range(d))


def aybe_hits(table, p, antisymmetric=False):
    """Hit indices of the aybe search: r12 r13 + r13 r23 - r23 r12 = 0."""
    d = len(table)
    hits = set()
    for index, (r,) in _grids(p, d, 1):
        if antisymmetric and any((r[a][b] + r[b][a]) % p
                                 for a in range(d) for b in range(d)):
            continue
        if _vanishes(p, (1, placed(table, r, (1, 2), r, (1, 3))),
                     (1, placed(table, r, (1, 3), r, (2, 3))),
                     (-1, placed(table, r, (2, 3), r, (1, 2)))):
            hits.add(index)
    return hits


def symmetric_ybpair_hits(table, p):
    """Hit indices of the symmetric Yang-Baxter pair search: for (x, y)
    both (r, s) and (s, r), x12 x23 = x13 x12 + y23 x13 = x13 y12 + x23 x13."""
    hits = set()
    for index, (r, s) in _grids(p, len(table), 2):
        good = True
        for x, y in ((r, s), (s, r)):
            head = placed(table, x, (1, 2), x, (2, 3))
            good = good and _vanishes(
                p, (1, head), (-1, placed(table, x, (1, 3), x, (1, 2))),
                (-1, placed(table, y, (2, 3), x, (1, 3))))
            good = good and _vanishes(
                p, (1, head), (-1, placed(table, x, (1, 3), y, (1, 2))),
                (-1, placed(table, x, (2, 3), x, (1, 3))))
        if good:
            hits.add(index)
    return hits


def _image(m, v, p):
    """m applied to the vector v, mod p."""
    d = len(m)
    return tuple(sum(m[a][b] * v[b] for b in range(d)) % p for a in range(d))


def _unit(d, i):
    return tuple(int(k == i) for k in range(d))


def lie_rbs_hits(table, p):
    """Hit indices of the lie_rbs search, the product being the bracket:
    R(a)R(b) = R(R(a)b + aS(b)) and S(a)S(b) = S(R(a)b + aS(b))."""
    d = len(table)
    rng = range(d)
    hits = set()
    for index, (R, S) in _grids(p, d, 2):
        good = True
        for i in rng:
            for j in rng:
                Ra, Rb, Sa, Sb = (_column(R, i), _column(R, j),
                                  _column(S, i), _column(S, j))
                arg = tuple((x + y) % p for x, y in
                            zip(naive_mul(table, p, Ra, _unit(d, j)),
                                naive_mul(table, p, _unit(d, i), Sb)))
                good = (naive_mul(table, p, Ra, Rb) == _image(R, arg, p)
                        and naive_mul(table, p, Sa, Sb) == _image(S, arg, p))
                if not good:
                    break
            if not good:
                break
        if good:
            hits.add(index)
    return hits


def adjoint_admissible_hits(table, R, S, p):
    """Hit indices of the adjoint_admissible search over (Q, T) with R and S
    fixed (d x d grids): the eight conditions, at a = e_i and b = e_j,
      Q(R(a)b) = Q(aQ(b)) + S(a)Q(b)   Q(R(a)b) = R(a)Q(b) + T(aQ(b))
      Q(aR(b)) = Q(Q(a)b) + Q(a)S(b)   Q(aR(b)) = Q(a)R(b) + T(Q(a)b)
      T(S(a)b) = Q(aT(b)) + S(a)T(b)   T(S(a)b) = T(aT(b)) + R(a)T(b)
      T(aS(b)) = Q(T(a)b) + T(a)S(b)   T(aS(b)) = T(T(a)b) + T(a)R(b)."""
    d = len(table)
    rng = range(d)

    def mul(x, y):
        return naive_mul(table, p, x, y)

    def holds(Q, T, i, j):
        a, b = _unit(d, i), _unit(d, j)
        col = {name: (_column(m, i), _column(m, j))
               for name, m in (("R", R), ("S", S), ("Q", Q), ("T", T))}
        (Ra, Rb), (Sa, Sb), (Qa, Qb), (Ta, Tb) = (col[n] for n in "RSQT")
        sides = [
            (_image(Q, mul(Ra, b), p), _image(Q, mul(a, Qb), p), mul(Sa, Qb)),
            (_image(Q, mul(Ra, b), p), mul(Ra, Qb), _image(T, mul(a, Qb), p)),
            (_image(Q, mul(a, Rb), p), _image(Q, mul(Qa, b), p), mul(Qa, Sb)),
            (_image(Q, mul(a, Rb), p), mul(Qa, Rb), _image(T, mul(Qa, b), p)),
            (_image(T, mul(Sa, b), p), _image(Q, mul(a, Tb), p), mul(Sa, Tb)),
            (_image(T, mul(Sa, b), p), _image(T, mul(a, Tb), p), mul(Ra, Tb)),
            (_image(T, mul(a, Sb), p), _image(Q, mul(Ta, b), p), mul(Ta, Sb)),
            (_image(T, mul(a, Sb), p), _image(T, mul(Ta, b), p), mul(Ta, Rb)),
        ]
        return all((x - y - z) % p == 0 for lhs, one, two in sides
                   for x, y, z in zip(lhs, one, two))

    return {index for index, (Q, T) in _grids(p, d, 2)
            if all(holds(Q, T, i, j) for i in rng for j in rng)}


# the coproduct half of the admissibility conditions at x = e_i, each
#   (L (x) id or id (x) L) D(Px) = (M on its leg) D(P'x) + (id (x) Y)(X (x) id) D(x)
# written (L, leg, P, M, leg, P', X, Y)
_COPRODUCT_CONDITIONS = (
    ("Q", 1, "R", "R", 2, "R", "T", "R"),
    ("Q", 1, "R", "R", 2, "S", "Q", "R"),
    ("Q", 2, "R", "R", 1, "S", "R", "Q"),
    ("Q", 2, "R", "R", 1, "R", "R", "T"),
    ("T", 1, "S", "S", 2, "R", "T", "S"),
    ("T", 1, "S", "S", 2, "S", "Q", "S"),
    ("T", 2, "S", "S", 1, "S", "S", "Q"),
    ("T", 2, "S", "S", 1, "R", "S", "T"),
)


def _split(index, p, d, count):
    """The `count` d x d grids of a candidate index."""
    w = d * d
    digits = []
    for _ in range(count * w):
        index, digit = divmod(index, p)
        digits.append(digit)
    digits.reverse()
    return [[digits[k * w + a * d:k * w + a * d + d] for a in range(d)]
            for k in range(count)]


def bisystem_hits(table, cotable, p):
    """Hit indices of the bisystem search over (R, S, Q, T), for carriers
    that form an ASI bialgebra: a pair (R, S) among the symmetric_rbs hits
    of `table` and a pair (Q, T) among the symmetric_rb_cosystem hits of
    `cotable` make a hit when the eight product conditions of
    `adjoint_admissible_hits` and the eight coproduct conditions
    `_COPRODUCT_CONDITIONS` hold at every basis element.  The index is the
    (R, S) index times p^8 plus the (Q, T) index."""
    d = len(table)
    rs_hits = naive_hits(p, "symmetric_rbs", table=table)
    qt_hits = coalgebra_hits(cotable, p, "symmetric_rb_cosystem")
    hits = set()
    for rs in rs_hits:
        R, S = _split(rs, p, d, 2)
        for qt in adjoint_admissible_hits(table, R, S, p) & qt_hits:
            Q, T = _split(qt, p, d, 2)
            maps = {"R": R, "S": S, "Q": Q, "T": T}
            good = True
            for i in range(d):
                images = {n: _comul(cotable, p, _column(maps[n], i)) for n in "RS"}
                for lhs, leg, of, mid, mleg, mof, x, y in _COPRODUCT_CONDITIONS:
                    one = _leg(maps[lhs], images[of], leg, p)
                    two = _leg(maps[mid], images[mof], mleg, p)
                    three = _leg(maps[y], _leg(maps[x], cotable[i], 1, p), 2, p)
                    good = good and all((one[a][b] - two[a][b] - three[a][b]) % p == 0
                                        for a in range(d) for b in range(d))
            if good:
                hits.add(rs * p ** (2 * d * d) + qt)
    return hits
