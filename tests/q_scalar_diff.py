"""Differential check of the stored Q scalar against `fractions.Fraction`.

Standard library only, so it runs under any interpreter the package
supports, with or without pytest:

    PYTHONPATH=src python tests/q_scalar_diff.py [rounds] [seed]

Each round draws two rationals and an int (zero, +-1, small, and beyond
2**64) and checks every fast-path operation of `Rationals.stored` and its
reflected form with an int: value, hash, lowest terms with a positive
denominator, and the result type.  It also checks that a plain `Fraction`
operand stays exact, and that pickling and copying round-trip.  It prints
one summary line and exits 1 on the first mismatch.
"""

import copy
import operator
import pickle
import random
import sys
from fractions import Fraction
from math import gcd

from rbx.kernel import Rationals

OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def draw(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((0, 1, -1))
    if kind == 1:
        return rng.randint(-10 ** 6, 10 ** 6)
    return rng.choice((1, -1)) * rng.randint(2 ** 64, 2 ** 128)


def check(got, want, stored, what):
    ok = (type(got) is stored and got == want and hash(got) == hash(want)
          and got.denominator > 0 and gcd(got.numerator, got.denominator) == 1)
    if not ok:
        sys.exit(f"mismatch in {what}: got {got!r} ({type(got).__name__}), want {want!r}")


def main(rounds=20000, seed=1):
    QQ, rng, ops = Rationals(), random.Random(seed), 0
    for _ in range(rounds):
        a, b, k = (draw(rng), abs(draw(rng)) or 1), (draw(rng), abs(draw(rng)) or 1), draw(rng)
        x, y, fa, fb = QQ.of(*a), QQ.of(*b), Fraction(*a), Fraction(*b)
        cases = [(f"-{a}", -x, -fa)]
        for op in OPS:
            if op is not operator.truediv or fb:
                cases.append((f"{op.__name__}({a}, {b})", op(x, y), op(fa, fb)))
            if op is not operator.truediv or k:
                cases.append((f"{op.__name__}({a}, {k})", op(x, k), op(fa, k)))
            if op is not operator.truediv:
                cases.append((f"{op.__name__}({k}, {a})", op(k, x), op(k, fa)))
        for what, got, want in cases:
            check(got, want, QQ.stored, what)
        for op in OPS[:3]:
            if not op(x, fb) == op(fb, x) * (-1 if op is operator.sub else 1) == op(fa, fb):
                sys.exit(f"plain Fraction operand not exact in {op.__name__}({a}, {b})")
        for back in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x)):
            check(back, fa, QQ.stored, f"round trip of {a}")
        if repr(x) != repr(fa) or str(x) != str(fa):
            sys.exit(f"repr/str differ for {a}")
        ops += len(cases)
    print(f"Python {sys.version.split()[0]}: {ops} ops in {rounds} rounds, seed {seed}: "
          "all equal to Fraction")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:3]))
