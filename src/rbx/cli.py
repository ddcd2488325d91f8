"""Declarative text format, command dispatcher, and report serialization.

The input format is line oriented::

    field <Q | GF p>
    algebra <name> dim <n> basis <ids...> [raw]
    mul <i> <j> = <coeff> <k> [+ <coeff> <k>]...
    coalgebra <name> dim <n> basis <ids...> [raw]
    comul <i> = <coeff> (<j>,<k>) [+ ...]
    liealgebra / liecoalgebra ...        (same entry lines)
    map <name> on <carrier>
    <name> <i> = <coeff> <j> [+ ...]
    tensor <name> on <carrier> = <coeff> (<i>,<j>) [+ ...]
    form <name> on <carrier>             (rows as map-style lines)

A structure's basis ids are distinct, a carrier is a structure declared
earlier, and a map or form takes no directive's name.  `_LAYOUT` is the one
table of how each item kind is written: an item is the flat row-major list
of its entries (a structure's d^3 constants in `table` order, a map's d
columns, a form's d rows, a tensor's d^2 grid), and an entry line writes
the slice that the basis ids heading it name.  `parse`, `print_workspace`
and `_reduce` all read it.

Omitted entries are zero; a repeated entry line replaces the earlier one;
`#` starts a comment; coefficients are integers or fractions a/b over Q,
bare residues over GF(p).  Errors carry the line and column.
`print_workspace` emits canonical text that parses back to an equal
workspace when every structure in it satisfies its axioms.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from itertools import product

from .errors import FieldError, ParseError, PayloadError, ToolkitError
from .kernel import Matrix, Tensor2, field_make, same_field
from .identities import known_tags
from .structures import (Algebra, BilinearForm, Coalgebra, LieAlgebra,
                         LieCoalgebra, check_axioms, commutator, cocommutator,
                         dualize)
from .systems import (_ALG_KINDS, _COALG_KINDS, CoOperatorSystem,
                      OperatorSystem, check_cosystem,
                      check_operator_system, check_symmetric_ybpair,
                      check_ybpair, derived_products, split_dendriform,
                      weight_embed)
from .representations import adjoint_admissible_report
from .bisystems import (ASIBisystem, check_bisystem, check_frobenius_srbs,
                        double_construction)
from .bridges import (LieBisystem, check_averaging_asi,
                      check_averaging_lie_bialgebra, check_lie_bisystem,
                      check_weighted_rb_asi, check_weighted_rb_lie_bialgebra)
from .yangbaxter import (check_admissible_aybe, check_asi_coboundary,
                         check_aybe, check_lr_invariant, coboundary_delta)
from .search import SearchJob, run_search, search_space, verify_family
from . import fixtures, regression


class Workspace:
    def __init__(self, field):
        self.field = field
        self.items = {}   # name -> (kind, obj, carrier_name | None)
        self.order = []

    def add(self, name, obj, carrier=None, line=None):
        """Add `obj` under `name`, as the kind that its type is (`_KIND_OF`)."""
        if name in self.items:
            raise ParseError(f"duplicate name {name!r}", line)
        self.items[name] = (_KIND_OF[type(obj)], obj, carrier)
        self.order.append(name)

    def get(self, name, kinds=None):
        if name not in self.items:
            raise PayloadError(f"unknown identifier {name!r}")
        kind, obj, carrier = self.items[name]
        if kinds and kind not in kinds:
            raise PayloadError(f"{name!r} is a {kind}, expected {'/'.join(kinds)}")
        return obj

    def __eq__(self, other):
        return (isinstance(other, Workspace) and self.field == other.field
                and self.items == other.items and self.order == other.order)


_STRUCT_KINDS = {"algebra": Algebra, "coalgebra": Coalgebra,
                 "liealgebra": LieAlgebra, "liecoalgebra": LieCoalgebra}
# the workspace kind of each item type
_KIND_OF = {**{cls: kind for kind, cls in _STRUCT_KINDS.items()},
            Matrix: "map", BilinearForm: "form", Tensor2: "tensor"}

# kind -> (the word that leads an entry line, None for the item's own name;
# how many basis ids head it; whether the targets of its sum are (i,j) pairs)
_LAYOUT = {"algebra": ("mul", 2, False), "liealgebra": ("mul", 2, False),
           "coalgebra": ("comul", 1, True), "liecoalgebra": ("comul", 1, True),
           "map": (None, 1, False), "form": (None, 1, False),
           "tensor": (None, 0, True)}
_DIRECTIVES = {"field", "mul", "comul", *_LAYOUT}
_PAIR_RE = re.compile(r"^\((\w+),(\w+)\)$")


def _entries(kind, obj) -> tuple:
    """The flat entries of a workspace item, laid out as `_LAYOUT` says."""
    if kind in _STRUCT_KINDS:
        return tuple(c for row in obj.table for cell in row for c in cell)
    if kind == "map":
        return obj.transpose().entries
    return (obj.gram if kind == "form" else obj).entries


def _item(kind, field, basis, entries, raw=False):
    """The workspace item of `kind` on `basis` with these flat entries."""
    d = len(basis)
    if kind in _STRUCT_KINDS:
        table = [[entries[(i * d + j) * d:(i * d + j + 1) * d] for j in range(d)]
                 for i in range(d)]
        return _STRUCT_KINDS[kind](field, table, basis=basis, raw=raw)
    if kind == "tensor":
        return Tensor2(field, d, entries)
    m = Matrix(field, d, d, entries)
    return m.transpose() if kind == "map" else BilinearForm(field, m)


def _position(index, ids, lineno):
    """The row-major position that `ids`, (basis id, column) pairs, name."""
    at = 0
    for b, col in ids:
        if b not in index:
            raise ParseError(f"unknown basis id {b!r}", lineno, col)
        at = at * len(index) + index[b]
    return at


def _parse_sum(field, toks, lineno, pair, index):
    """coeff target [+ coeff target ...] as the dense vector of its
    coefficients; targets are basis ids or, with `pair`, (i,j) pairs."""
    vec = [field.zero()] * len(index) ** (1 + pair)
    for k in range(0, len(toks), 3):
        coeff_tok, col = toks[k]
        try:
            coeff = field.parse(coeff_tok)
        except ToolkitError as exc:
            raise ParseError(str(exc), lineno, col) from None
        if k + 1 >= len(toks):
            raise ParseError("coefficient without a target", lineno, col)
        target, tcol = toks[k + 1]
        ids = (target,)
        if pair:
            m = _PAIR_RE.match(target)
            if not m:
                raise ParseError(f"expected (i,j) pair, got {target!r}", lineno, tcol)
            ids = m.groups()
        at = _position(index, [(b, tcol) for b in ids], lineno)
        vec[at] = vec[at] + coeff
        if k + 2 < len(toks):
            plus, pcol = toks[k + 2]
            if plus != "+":
                raise ParseError(f"expected '+', got {plus!r}", lineno, pcol)
            if k + 3 >= len(toks):
                raise ParseError("dangling '+'", lineno, pcol)
    return vec


class _Open:
    """A declaration whose entry lines are still being read: the item's
    field, kind, name and line, its carrier's name (None for a structure),
    its basis, a structure's `raw` flag, and the flat entries read so far."""

    def __init__(self, field, kind, name, line, basis, carrier=None, raw=False):
        self.field, self.kind, self.name, self.line = field, kind, name, line
        self.basis, self.carrier, self.raw = basis, carrier, raw
        self.index = {b: i for i, b in enumerate(basis)}
        _, heads, pair = _LAYOUT[kind]
        self.entries = [field.zero()] * len(basis) ** (heads + 1 + pair)

    def read(self, toks, lineno):
        """Read an entry line, a leading word, the basis ids that head it,
        `=` and a sum: the sum replaces the slice that the ids name."""
        _, heads, pair = _LAYOUT[self.kind]
        if len(toks) < heads + 2 or toks[heads + 1][0] != "=":
            usage = " ".join((toks[0][0], *("<i>", "<j>")[:heads]))
            raise ParseError(f"expected '{usage} = ...'", lineno, toks[0][1])
        size = len(self.basis) ** (1 + pair)
        at = _position(self.index, toks[1:heads + 1], lineno) * size
        self.entries[at:at + size] = _parse_sum(self.field, toks[heads + 2:], lineno,
                                                pair, self.index)

    def close(self, ws):
        """Add the item to `ws`; one that cannot be built, a structure that
        fails its axioms, is refused at its declaration's line."""
        try:
            obj = _item(self.kind, self.field, self.basis, self.entries, self.raw)
        except ToolkitError as exc:
            raise ParseError(f"{self.name}: {exc}", self.line) from None
        ws.add(self.name, obj, carrier=self.carrier, line=self.line)


def _carrier(ws, tok, lineno):
    """The basis of the structure that a map, form or tensor is declared on."""
    name, col = tok
    if name not in ws.items:
        raise ParseError(f"unknown carrier {name!r}", lineno, col)
    kind, obj, _ = ws.items[name]
    if kind not in _STRUCT_KINDS:
        raise ParseError(f"carrier {name!r} is a {kind}, not a structure", lineno, col)
    return obj.basis


def parse(text: str) -> Workspace:
    """The workspace that `text` declares.  A structure is built when the
    next declaration or the end of input closes its block, a tensor at its
    line, and maps and forms, whose rows may come anywhere after their
    declaration, at the end of input in declaration order."""
    ws = None
    block = None    # the open structure declaration
    rows = {}       # name -> the open declaration of a map or form
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]
        head, hcol = toks[0]

        if head == "field":
            if ws is not None:
                raise ParseError("field already declared", lineno, hcol)
            try:
                ws = Workspace(field_make(" ".join(t for t, _ in toks[1:])))
            except ToolkitError as exc:
                raise ParseError(str(exc), lineno, hcol) from None
            continue
        if ws is None:
            raise ParseError("a field line must come first", lineno, hcol)

        if head in ("mul", "comul"):
            if block is None:
                raise ParseError(f"'{head}' outside a structure block", lineno, hcol)
            if head != _LAYOUT[block.kind][0]:
                raise ParseError(f"'{head}' does not match a {block.kind}", lineno, hcol)
            block.read(toks, lineno)
            continue
        if head in rows:
            rows[head].read(toks, lineno)
            continue
        if head not in _LAYOUT:
            raise ParseError(f"unrecognized directive {head!r}", lineno, hcol)

        if block is not None:   # any declaration closes an open structure block
            block.close(ws)
            block = None
        if head in _STRUCT_KINDS:
            raw = toks[-1][0] == "raw"
            body = toks[1:-1] if raw else toks[1:]
            if len(body) < 4 or body[1][0] != "dim" or body[3][0] != "basis":
                raise ParseError(f"expected '{head} <name> dim <n> basis <ids...>'",
                                 lineno, hcol)
            try:
                dim = int(body[2][0])
            except ValueError:
                raise ParseError("dimension must be an integer", lineno, body[2][1]) from None
            basis = tuple(t for t, _ in body[4:])
            if len(basis) != dim:
                raise ParseError(f"expected {dim} basis ids, got {len(basis)}",
                                 lineno, hcol)
            for k, (t, col) in enumerate(body[4:]):
                if t in basis[:k]:
                    raise ParseError(f"duplicate basis id {t!r}", lineno, col)
            block = _Open(ws.field, head, body[0][0], lineno, basis, raw=raw)
        elif head == "tensor":
            if len(toks) < 6 or toks[2][0] != "on" or toks[4][0] != "=":
                raise ParseError("expected 'tensor <name> on <carrier> = ...'",
                                 lineno, hcol)
            tensor = _Open(ws.field, head, toks[1][0], lineno,
                           _carrier(ws, toks[3], lineno), carrier=toks[3][0])
            tensor.read(toks[3:], lineno)
            tensor.close(ws)
        else:
            if len(toks) != 4 or toks[2][0] != "on":
                raise ParseError(f"expected '{head} <name> on <carrier>'", lineno, hcol)
            (name, ncol), basis = toks[1], _carrier(ws, toks[3], lineno)
            if name in ws.items or name in rows:
                raise ParseError(f"duplicate name {name!r}", lineno, ncol)
            if name in _DIRECTIVES:
                raise ParseError(f"a {head} cannot be named after the directive "
                                 f"{name!r}", lineno, ncol)
            rows[name] = _Open(ws.field, head, name, lineno, basis, carrier=toks[3][0])

    if ws is None:
        raise ParseError("empty input: no field line", 1, 1)
    for decl in [block, *rows.values()]:
        if decl is not None:
            decl.close(ws)
    return ws


def _sum_str(labels, vec, pair):
    targets = [f"({a},{b})" for a in labels for b in labels] if pair else labels
    return " + ".join(f"{c} {t}" for c, t in zip(vec, targets) if c)


def _item_lines(ws: Workspace, name) -> list:
    """The declaration and entry lines of one workspace item, laid out as
    `_LAYOUT` says; a tensor's one entry follows its declaration."""
    kind, obj, carrier = ws.items[name]
    lead, heads, pair = _LAYOUT[kind]
    if kind in _STRUCT_KINDS:
        basis, decl = obj.basis, f"{kind} {name} dim {obj.dim} basis " + " ".join(obj.basis)
    else:
        basis, decl = ws.get(carrier).basis, f"{kind} {name} on {carrier}"
    entries, size = _entries(kind, obj), len(basis) ** (1 + pair)
    sums = [_sum_str(basis, entries[k * size:(k + 1) * size], pair)
            for k in range(len(basis) ** heads)]
    if kind == "tensor":
        return [f"{decl} = " + (sums[0] or f"0 ({basis[0]},{basis[0]})")]
    return [decl] + [" ".join((lead or name, *ids, "=", s))
                     for ids, s in zip(product(basis, repeat=heads), sums) if s]


def print_workspace(ws: Workspace) -> str:
    """The workspace as text that `parse` reads back.  An item with a
    coefficient past Python's int/str digit limit, which `parse` refuses,
    is refused: `PayloadError`."""
    out = [f"field {ws.field!r}"]
    for name in ws.order:
        try:
            out += ["", *_item_lines(ws, name)]
        except ValueError:
            raise PayloadError(f"cannot print {name!r}: a coefficient has more digits "
                               "than a workspace literal may have") from None
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# check-kind dispatch

def _alg(ws, n):
    return ws.get(n, ("algebra", "liealgebra"))


def _coalg(ws, n):
    return ws.get(n, ("coalgebra", "liecoalgebra"))


def _map(ws, n):
    return ws.get(n, ("map",))


def _tensor(ws, n):
    return ws.get(n, ("tensor",))


def _system_handler(kind, nmaps, coalgebra):
    """(arity, handler) of the check of one operator-system or cosystem
    kind: a carrier, then `nmaps` maps, and a weight when the kind takes
    one."""
    carrier, build, check = ((_coalg, CoOperatorSystem, check_cosystem) if coalgebra
                             else (_alg, OperatorSystem, check_operator_system))
    return 1 + nmaps, lambda ws, a, w=None: check(
        kind, build(carrier(ws, a[0]), *(_map(ws, n) for n in a[1:]), weight=w))


def _check_handlers():
    systems = {kind.replace("_", "-"): _system_handler(kind, nmaps, coalgebra)
               for kinds, coalgebra in ((_ALG_KINDS, False), (_COALG_KINDS, True))
               for kind, (_, nmaps, _) in kinds.items()}
    return systems | {
        "associative": (1, lambda ws, a: check_axioms("associative", _alg(ws, a[0]))),
        "coassociative": (1, lambda ws, a: check_axioms("coassociative", _coalg(ws, a[0]))),
        "lie": (1, lambda ws, a: check_axioms("lie", _alg(ws, a[0]))),
        "lie-coalgebra": (1, lambda ws, a: check_axioms("lie_coalgebra", _coalg(ws, a[0]))),
        "prelie": (1, lambda ws, a: check_axioms("prelie", _alg(ws, a[0]))),
        "perm": (1, lambda ws, a: check_axioms("perm", _alg(ws, a[0]))),
        "dendriform": (2, lambda ws, a: check_axioms(
            "dendriform", (_alg(ws, a[0]), _alg(ws, a[1])))),
        "asi-bialgebra": (2, lambda ws, a: check_axioms(
            "asi_bialgebra", (_alg(ws, a[0]), _coalg(ws, a[1])))),
        "lie-bialgebra": (2, lambda ws, a: check_axioms(
            "lie_bialgebra", (_alg(ws, a[0]), _coalg(ws, a[1])))),
        "frobenius": (2, lambda ws, a: check_axioms(
            "frobenius", (_alg(ws, a[0]), ws.get(a[1], ("form",))))),
        "adjoint-admissible": (5, lambda ws, a: adjoint_admissible_report(
            _alg(ws, a[0]), *(_map(ws, n) for n in a[1:]))),
        "bisystem": (6, lambda ws, a: check_bisystem(ASIBisystem(
            _alg(ws, a[0]), _coalg(ws, a[1]), *(_map(ws, n) for n in a[2:])))),
        "lie-bisystem": (6, lambda ws, a: check_lie_bisystem(LieBisystem(
            _alg(ws, a[0]), _coalg(ws, a[1]), *(_map(ws, n) for n in a[2:])))),
        "weighted-rb-asi": (4, lambda ws, a, w=None: check_weighted_rb_asi(
            _alg(ws, a[0]), _coalg(ws, a[1]), _map(ws, a[2]), _map(ws, a[3]), w)),
        "averaging-asi": (4, lambda ws, a: check_averaging_asi(
            _alg(ws, a[0]), _coalg(ws, a[1]), _map(ws, a[2]), _map(ws, a[3]))),
        "averaging-lie-bialgebra": (4, lambda ws, a: check_averaging_lie_bialgebra(
            _alg(ws, a[0]), _coalg(ws, a[1]), _map(ws, a[2]), _map(ws, a[3]))),
        "weighted-rb-lie-bialgebra": (4, lambda ws, a, w=None:
            check_weighted_rb_lie_bialgebra(
                _alg(ws, a[0]), _coalg(ws, a[1]), _map(ws, a[2]), _map(ws, a[3]), w)),
        "aybe": (2, lambda ws, a: check_aybe(_alg(ws, a[0]), _tensor(ws, a[1]))),
        "asi-coboundary": (2, lambda ws, a: check_asi_coboundary(
            _alg(ws, a[0]), _tensor(ws, a[1]))),
        "admissible-aybe": (6, lambda ws, a: check_admissible_aybe(
            _alg(ws, a[0]), *(_map(ws, n) for n in a[1:5]), _tensor(ws, a[5]))),
        "ybpair": (3, lambda ws, a: check_ybpair(
            _alg(ws, a[0]), _tensor(ws, a[1]), _tensor(ws, a[2]))),
        "symmetric-ybpair": (3, lambda ws, a: check_symmetric_ybpair(
            _alg(ws, a[0]), _tensor(ws, a[1]), _tensor(ws, a[2]))),
        "lr-invariant": (2, lambda ws, a: check_lr_invariant(
            _alg(ws, a[0]), _tensor(ws, a[1]))),
        "frobenius-srbs": (4, lambda ws, a: check_frobenius_srbs(
            _alg(ws, a[0]), _map(ws, a[1]), _map(ws, a[2]), ws.get(a[3], ("form",)))[0]),
    }


# the search kinds whose checker takes a weight
_WEIGHTED_SEARCH_KINDS = {kind for kind, (_, _, weighted)
                          in {**_ALG_KINDS, **_COALG_KINDS}.items() if weighted}

_WEIGHTED_KINDS = ({kind.replace("_", "-") for kind in _WEIGHTED_SEARCH_KINDS}
                   | {"weighted-rb-asi", "weighted-rb-lie-bialgebra"})


def run_check(ws, kind, names, weight=None):
    handlers = _check_handlers()
    if kind not in handlers:
        raise PayloadError(f"unknown check kind {kind!r}")
    arity, handler = handlers[kind]
    if len(names) != arity:
        raise PayloadError(f"check {kind!r} takes {arity} names, got {len(names)}")
    if kind in _WEIGHTED_KINDS:
        if weight is None:
            raise PayloadError(f"check {kind!r} needs --weight")
        return handler(ws, names, ws.field.parse(weight))
    if weight is not None:
        raise PayloadError(f"check {kind!r} takes no --weight")
    return handler(ws, names)


# ---------------------------------------------------------------------------
# derive

def _weight_embed(ws, a, weight, quasi):
    A, R = _alg(ws, a[0]), _map(ws, a[1])
    if weight is None:
        raise PayloadError("derive weight-embed needs --weight")
    sysm = weight_embed(A, R, ws.field.parse(weight))
    return {a[0]: A, "Rw": sysm.R, "Sw": sysm.S}


def _double(ws, a, weight, quasi):
    dc = double_construction(_alg(ws, a[0]), _coalg(ws, a[1]),
                             *(_map(ws, n) for n in a[2:]))
    return {"AA": dc.system.carrier, "RR": dc.system.R, "SS": dc.system.S, "Bd": dc.form}


def _system(ws, a):
    return _alg(ws, a[0]), _map(ws, a[1]), _map(ws, a[2])


# derivation -> (the number of names it takes, its builder): the builder
# takes the workspace, the names, --weight and --quasi, and gives the derived
# objects by name; every derived map and form is on the first of them
_DERIVATIONS = {
    "dendriform": (3, lambda ws, a, weight, quasi: dict(zip(
        ("prec", "succ", "precp", "succp"), sum(split_dendriform(*_system(ws, a)), ())))),
    "products": (3, lambda ws, a, weight, quasi: dict(zip(
        ("star", "starp", "bullet", "bulletp"), derived_products(*_system(ws, a))))),
    "weight-embed": (2, _weight_embed),
    "commutator": (1, lambda ws, a, weight, quasi: {"L": commutator(_alg(ws, a[0]))}),
    "cocommutator": (1, lambda ws, a, weight, quasi: {"D": cocommutator(_coalg(ws, a[0]))}),
    "dual": (1, lambda ws, a, weight, quasi: {"Adual": dualize(_coalg(ws, a[0]))}),
    "coboundary": (2, lambda ws, a, weight, quasi: {"Delta": coboundary_delta(
        _alg(ws, a[0]), _tensor(ws, a[1]), "quasitriangular" if quasi else "plain")}),
    "double": (6, _double),
}
_DERIVE_ARITY = {what: arity for what, (arity, _) in _DERIVATIONS.items()}


def run_derive(ws, what, names, weight=None, quasi=False):
    if what not in _DERIVATIONS:
        raise PayloadError(f"unknown derivation {what!r}")
    arity, build = _DERIVATIONS[what]
    if len(names) != arity:
        raise PayloadError(f"derive {what!r} takes {arity} names, got {len(names)}")
    if weight is not None and what != "weight-embed":
        raise PayloadError(f"derive {what!r} takes no --weight")
    if quasi and what != "coboundary":
        raise PayloadError(f"derive {what!r} takes no --quasi")
    out, derived = Workspace(ws.field), build(ws, names, weight, quasi)
    first = next(iter(derived))
    for name, obj in derived.items():
        out.add(name, obj, carrier=None if _KIND_OF[type(obj)] in _STRUCT_KINDS else first)
    return out


# ---------------------------------------------------------------------------
# entry point

def _load_workspace(args):
    if getattr(args, "builtin", False):
        return parse(fixtures.WORKSPACE_SOURCE)
    if getattr(args, "input", None):
        if args.input == "-":
            return parse(sys.stdin.read())
        try:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise PayloadError(f"cannot read workspace {args.input!r}: {reason}") from None
        return parse(text)
    raise PayloadError("no workspace: pass --input FILE or --builtin")


def _write_export(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise PayloadError(f"cannot write export {path!r}: {exc.strerror or exc}") from None


def _emit(doc):
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _report_exit(rep, witness):
    _validate_tags(rep)
    _emit(rep.to_json(witness=witness))
    return 0 if rep.passed else 1


def _validate_tags(rep):
    tags = known_tags()
    for v in rep.all_violations():
        if v.identity not in tags:
            raise RuntimeError(f"report cites unknown identity tag {v.identity!r}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="rbx",
        description="exact checks for operator identities on structure-constant algebras")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_ws_flags(p):
        p.add_argument("-i", "--input", help="workspace file ('-' for stdin)")
        p.add_argument("--builtin", action="store_true",
                       help="use the bundled fixture workspace")

    p_check = sub.add_parser("check", help="run one checker")
    p_check.add_argument("kind")
    p_check.add_argument("names", nargs="*")
    p_check.add_argument("--weight")
    p_check.add_argument("--witness", action="store_true",
                         help="include residual vectors in violations")
    add_ws_flags(p_check)

    p_derive = sub.add_parser("derive", help="run one construction, print it")
    p_derive.add_argument("what")
    p_derive.add_argument("names", nargs="*")
    p_derive.add_argument("--weight")
    p_derive.add_argument("--quasi", action="store_true")
    add_ws_flags(p_derive)

    p_search = sub.add_parser("search", help="exhaustive finite-field enumeration")
    p_search.add_argument("kind")
    p_search.add_argument("--carrier", required=True)
    p_search.add_argument("--cocarrier")
    p_search.add_argument("--field", required=True, help="GF<p>")
    p_search.add_argument("--budget", type=int)
    p_search.add_argument("--shards", type=int, default=1)
    p_search.add_argument("--processes", type=int)
    p_search.add_argument("--weight")
    p_search.add_argument("--export", help="write hits in the text format to FILE")
    add_ws_flags(p_search)

    p_fam = sub.add_parser("verify-family", help="sampled exact check of a bundled family")
    p_fam.add_argument("name")
    p_fam.add_argument("--samples", type=int, default=20)
    p_fam.add_argument("--seed", type=int, default=regression.FAMILY_SEED)

    p_paper = sub.add_parser("verify-paper", help="run the bundled regression suite")
    p_paper.add_argument("--json", action="store_true")

    args = ap.parse_args(argv)

    try:
        if args.command == "check":
            ws = _load_workspace(args)
            rep = run_check(ws, args.kind, args.names, weight=args.weight)
            return _report_exit(rep, args.witness)

        if args.command == "derive":
            ws = _load_workspace(args)
            out = run_derive(ws, args.what, args.names,
                             weight=args.weight, quasi=args.quasi)
            sys.stdout.write(print_workspace(out))
            return 0

        if args.command == "search":
            kind = args.kind.replace("-", "_")
            if args.weight is not None and kind not in _WEIGHTED_SEARCH_KINDS:
                raise PayloadError(f"search {args.kind!r} takes no --weight")
            if args.cocarrier is not None and kind != "bisystem":
                raise PayloadError(f"search {args.kind!r} takes no --cocarrier")
            ws = _load_workspace(args)
            field = field_make(args.field)
            carrier = _reduce(ws.get(args.carrier), field)
            cocarrier = (_reduce(ws.get(args.cocarrier), field)
                         if args.cocarrier else None)
            weight = field.parse(args.weight) if args.weight else None
            job = SearchJob(field, carrier, kind,
                            cocarrier=cocarrier, weight=weight, budget=args.budget)
            hits = run_search(job, shards=args.shards, processes=args.processes)
            text = export_hits(job, hits) if args.export else None
            if args.export and args.export != "-":
                # written first, so a failed export never prints "pass"
                _write_export(args.export, text)
            doc = {"check": f"search:{args.kind}", "status": "pass",
                   "space": search_space(job), "hits": len(hits),
                   "violations": []}
            _emit(doc)
            if args.export == "-":
                sys.stdout.write(text)
            return 0

        if args.command == "verify-family":
            if args.name not in fixtures.FAMILIES:
                raise PayloadError(f"unknown family {args.name!r}; options: "
                                   + ", ".join(sorted(fixtures.FAMILIES)))
            fam = fixtures.FAMILIES[args.name]
            carrier = fixtures.fix_a() if fam.kind == "symmetric_rbs" else fixtures.fix_c()
            rep = verify_family(fam, carrier, args.samples, args.seed)
            return _report_exit(rep, witness=True)

        if args.command == "verify-paper":
            rows = regression.verify_paper()
            ok = all(r["status"] != "fail" for r in rows)
            if args.json:
                _emit({"check": "verify-paper",
                       "status": "pass" if ok else "fail",
                       "rows": rows, "violations": []})
            else:
                for r in rows:
                    print(f"{r['status']:>4}  {r['name']:<34} {r['seconds']:7.3f}s"
                          + ("" if r["status"] != "fail"
                             else "  " + " ".join(r["violations"][:4])))
                print(("all rows pass" if ok else "FAILURES above"))
            return 0 if ok else 1
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


def _reduce(obj, field):
    """Re-express a workspace structure over the search field GF(p): a Q
    structure is reduced mod p; a GF(q) one must have q = p."""
    kind = _KIND_OF.get(type(obj))
    if kind not in _STRUCT_KINDS:
        raise PayloadError("search carrier must be a structure")
    if not field.modulus:
        raise FieldError(f"search needs a prime field, got {field!r}")
    if obj.field.modulus:
        same_field(obj.field, field)
        return obj
    entries = [field.of(c.numerator, c.denominator) for c in _entries(kind, obj)]
    return _item(kind, field, obj.basis, entries, raw=True)


def export_hits(job, hits):
    """Hit list as workspace text (round-trippable through `parse`): the
    carrier, a bisystem's cocarrier, and the components of every hit, a
    bisystem's Q and T on the cocarrier and all others on the carrier."""
    ws = Workspace(job.field)
    ws.add("carrier", job.carrier)
    on = ("carrier",) * 4
    if job.kind == "bisystem":
        ws.add("cocarrier", job.cocarrier)
        on = ("carrier", "carrier", "cocarrier", "cocarrier")
    for n, hit in enumerate(hits):
        for k, part in enumerate(hit.parts):
            ws.add(f"hit{n}_{k}", part, carrier=on[k])
    return print_workspace(ws)


if __name__ == "__main__":
    sys.exit(main())
