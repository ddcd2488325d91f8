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

Omitted entries are zero; `#` starts a comment; coefficients are integers
or fractions a/b over Q, bare residues over GF(p).  Errors carry the line
and column.  `print_workspace` emits canonical text that parses back to an
equal workspace.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .errors import FieldError, ParseError, PayloadError, ToolkitError
from .kernel import Matrix, Tensor2, field_make, same_field
from .identities import known_tags
from .structures import (Algebra, BilinearForm, Coalgebra, LieAlgebra,
                         LieCoalgebra, check_axioms, commutator, cocommutator,
                         dualize, _Comultiplicative, _Multiplicative)
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

    def add(self, name, kind, obj, carrier=None, line=None):
        if name in self.items:
            raise ParseError(f"duplicate name {name!r}", line)
        self.items[name] = (kind, obj, carrier)
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
_PAIR_RE = re.compile(r"^\((\w+),(\w+)\)$")


def _tokens(line):
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]


def _parse_sum(ws, toks, lineno, pair_mode, label_index):
    """coeff target [+ coeff target ...]; targets are ids or (i,j) pairs."""
    terms = []
    k = 0
    while k < len(toks):
        coeff_tok, col = toks[k]
        try:
            coeff = ws.field.parse(coeff_tok)
        except ToolkitError as exc:
            raise ParseError(str(exc), lineno, col) from None
        if k + 1 >= len(toks):
            raise ParseError("coefficient without a target", lineno, col)
        target, tcol = toks[k + 1]
        if pair_mode:
            m = _PAIR_RE.match(target)
            if not m:
                raise ParseError(f"expected (i,j) pair, got {target!r}", lineno, tcol)
            try:
                idx = (label_index[m.group(1)], label_index[m.group(2)])
            except KeyError as exc:
                raise ParseError(f"unknown basis id {exc.args[0]!r}", lineno, tcol) from None
        else:
            if target not in label_index:
                raise ParseError(f"unknown basis id {target!r}", lineno, tcol)
            idx = label_index[target]
        terms.append((idx, coeff))
        k += 2
        if k < len(toks):
            plus, pcol = toks[k]
            if plus != "+":
                raise ParseError(f"expected '+', got {plus!r}", lineno, pcol)
            k += 1
            if k >= len(toks):
                raise ParseError("dangling '+'", lineno, pcol)
    return terms


class _PendingStruct:
    def __init__(self, kind, name, dim, basis, raw, line):
        self.kind = kind
        self.name = name
        self.dim = dim
        self.basis = basis
        self.raw = raw
        self.line = line
        self.index = {b: i for i, b in enumerate(basis)}
        self.table = [[None] * dim for _ in range(dim)]

    def finalize(self, ws):
        field = ws.field
        z = field.zero()
        dim = self.dim
        if self.kind in ("algebra", "liealgebra"):
            table = [[self.table[i][j] or (z,) * dim for j in range(dim)]
                     for i in range(dim)]
        else:
            table = [[tuple(self.table[i][j][k] if self.table[i][j] else z
                            for k in range(dim)) for j in range(dim)]
                     for i in range(dim)]
        cls = _STRUCT_KINDS[self.kind]
        try:
            obj = cls(field, table, basis=self.basis, raw=self.raw)
        except ToolkitError as exc:
            raise ParseError(f"{self.name}: {exc}", self.line) from None
        ws.add(self.name, self.kind, obj, line=self.line)


def parse(text: str) -> Workspace:
    ws = None
    pending = None            # open structure declaration
    pending_maps = {}         # name -> dict(carrier, cols{}, line, is_form)

    def flush():
        nonlocal pending
        if pending is not None:
            pending.finalize(ws)
            pending = None

    lines = text.splitlines()
    for lineno, rawline in enumerate(lines, start=1):
        line = rawline.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        toks = _tokens(line)
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

        if head in _STRUCT_KINDS:
            flush()
            raw = False
            body = toks[1:]
            if body and body[-1][0] == "raw":
                raw = True
                body = body[:-1]
            if len(body) < 4 or body[1][0] != "dim" or body[3][0] != "basis":
                raise ParseError(f"expected '{head} <name> dim <n> basis <ids...>'",
                                 lineno, hcol)
            name = body[0][0]
            try:
                dim = int(body[2][0])
            except ValueError:
                raise ParseError("dimension must be an integer", lineno, body[2][1]) from None
            basis = tuple(t for t, _ in body[4:])
            if len(basis) != dim:
                raise ParseError(f"expected {dim} basis ids, got {len(basis)}",
                                 lineno, hcol)
            pending = _PendingStruct(head, name, dim, basis, raw, lineno)
            continue

        if head in ("mul", "comul"):
            if pending is None:
                raise ParseError(f"'{head}' outside a structure block", lineno, hcol)
            want_mul = pending.kind in ("algebra", "liealgebra")
            if (head == "mul") != want_mul:
                raise ParseError(f"'{head}' does not match a {pending.kind}", lineno, hcol)
            if head == "mul":
                if len(toks) < 4 or toks[3][0] != "=":
                    raise ParseError("expected 'mul <i> <j> = ...'", lineno, hcol)
                li, lj = toks[1], toks[2]
                for t, c in (li, lj):
                    if t not in pending.index:
                        raise ParseError(f"unknown basis id {t!r}", lineno, c)
                terms = _parse_sum(ws, toks[4:], lineno, False, pending.index)
                vec = [ws.field.zero()] * pending.dim
                for k, coeff in terms:
                    vec[k] = vec[k] + coeff
                pending.table[pending.index[li[0]]][pending.index[lj[0]]] = tuple(vec)
            else:
                if len(toks) < 3 or toks[2][0] != "=":
                    raise ParseError("expected 'comul <i> = ...'", lineno, hcol)
                li = toks[1]
                if li[0] not in pending.index:
                    raise ParseError(f"unknown basis id {li[0]!r}", lineno, li[1])
                terms = _parse_sum(ws, toks[3:], lineno, True, pending.index)
                grid = [[ws.field.zero()] * pending.dim for _ in range(pending.dim)]
                for (j, k), coeff in terms:
                    grid[j][k] = grid[j][k] + coeff
                pending.table[pending.index[li[0]]] = grid
            continue

        # any other declaration closes an open structure block
        if head in ("map", "form", "tensor"):
            flush()

        if head in ("map", "form"):
            if len(toks) != 4 or toks[2][0] != "on":
                raise ParseError(f"expected '{head} <name> on <carrier>'", lineno, hcol)
            name, carrier = toks[1][0], toks[3][0]
            if carrier not in ws.items:
                raise ParseError(f"unknown carrier {carrier!r}", lineno, toks[3][1])
            if name in ws.items or name in pending_maps:
                raise ParseError(f"duplicate name {name!r}", lineno, toks[1][1])
            pending_maps[name] = {"carrier": carrier, "cols": {}, "line": lineno,
                                  "form": head == "form"}
            continue

        if head == "tensor":
            if len(toks) < 6 or toks[2][0] != "on" or toks[4][0] != "=":
                raise ParseError("expected 'tensor <name> on <carrier> = ...'",
                                 lineno, hcol)
            name, carrier = toks[1][0], toks[3][0]
            if carrier not in ws.items:
                raise ParseError(f"unknown carrier {carrier!r}", lineno, toks[3][1])
            cobj = ws.get(carrier)
            index = {b: i for i, b in enumerate(cobj.basis)}
            terms = _parse_sum(ws, toks[5:], lineno, True, index)
            t = Tensor2.zero(ws.field, cobj.dim)
            ent = list(t.entries)
            for (i, j), coeff in terms:
                ent[i * cobj.dim + j] = ent[i * cobj.dim + j] + coeff
            ws.add(name, "tensor", Tensor2(ws.field, cobj.dim, ent),
                   carrier=carrier, line=lineno)
            continue

        if head in pending_maps:
            entry = pending_maps[head]
            cobj = ws.get(entry["carrier"])
            index = {b: i for i, b in enumerate(cobj.basis)}
            if len(toks) < 3 or toks[2][0] != "=":
                raise ParseError(f"expected '{head} <i> = ...'", lineno, hcol)
            src = toks[1]
            if src[0] not in index:
                raise ParseError(f"unknown basis id {src[0]!r}", lineno, src[1])
            terms = _parse_sum(ws, toks[3:], lineno, False, index)
            vec = [ws.field.zero()] * cobj.dim
            for k, coeff in terms:
                vec[k] = vec[k] + coeff
            entry["cols"][index[src[0]]] = tuple(vec)
            continue

        raise ParseError(f"unrecognized directive {head!r}", lineno, hcol)

    if ws is None:
        raise ParseError("empty input: no field line", 1, 1)
    flush()
    for name, entry in pending_maps.items():
        cobj = ws.get(entry["carrier"])
        cols = [entry["cols"].get(j, tuple([ws.field.zero()] * cobj.dim))
                for j in range(cobj.dim)]
        if entry["form"]:
            # form rows were entered as map-style lines: row i = B(e_i, .)
            rows = [entry["cols"].get(i, tuple([ws.field.zero()] * cobj.dim))
                    for i in range(cobj.dim)]
            ws.add(name, "form", BilinearForm(ws.field, Matrix.from_rows(ws.field, rows)),
                   carrier=entry["carrier"], line=entry["line"])
        else:
            ws.add(name, "map", Matrix.from_cols(ws.field, cols),
                   carrier=entry["carrier"], line=entry["line"])
    return ws


def _sum_str(labels, vec, pair=False):
    if pair:
        dim = len(labels)
        terms = [f"{vec[j][k]} ({labels[j]},{labels[k]})"
                 for j in range(dim) for k in range(dim) if vec[j][k]]
    else:
        terms = [f"{c} {labels[k]}" for k, c in enumerate(vec) if c]
    return " + ".join(terms)


def _item_lines(ws: Workspace, name) -> list:
    """The declaration and entry lines of one workspace item."""
    kind, obj, carrier = ws.items[name]
    if kind in _STRUCT_KINDS:
        out = [f"{kind} {name} dim {obj.dim} basis " + " ".join(obj.basis)]
        if kind in ("algebra", "liealgebra"):
            for i in range(obj.dim):
                for j in range(obj.dim):
                    s = _sum_str(obj.basis, obj.table[i][j])
                    if s:
                        out.append(f"mul {obj.basis[i]} {obj.basis[j]} = {s}")
        else:
            for i in range(obj.dim):
                s = _sum_str(obj.basis, obj.table[i], pair=True)
                if s:
                    out.append(f"comul {obj.basis[i]} = {s}")
        return out
    cobj = ws.get(carrier)
    if kind == "map":
        out = [f"map {name} on {carrier}"]
        for j in range(obj.cols):
            s = _sum_str(cobj.basis, obj.col(j))
            if s:
                out.append(f"{name} {cobj.basis[j]} = {s}")
        return out
    if kind == "form":
        out = [f"form {name} on {carrier}"]
        for i in range(obj.dim):
            s = _sum_str(cobj.basis, obj.gram.row(i))
            if s:
                out.append(f"{name} {cobj.basis[i]} = {s}")
        return out
    grid = [[obj[i, j] for j in range(obj.dim)] for i in range(obj.dim)]
    s = _sum_str(cobj.basis, grid, pair=True) or f"0 ({cobj.basis[0]},{cobj.basis[0]})"
    return [f"tensor {name} on {carrier} = {s}"]


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

def _ws_with(field, items):
    ws = Workspace(field)
    for name, kind, obj, carrier in items:
        ws.add(name, kind, obj, carrier=carrier)
    return ws


# the number of names each derivation takes
_DERIVE_ARITY = {"dendriform": 3, "products": 3, "weight-embed": 2, "commutator": 1,
                 "cocommutator": 1, "dual": 1, "coboundary": 2, "double": 6}


def run_derive(ws, what, names, weight=None, quasi=False):
    if what not in _DERIVE_ARITY:
        raise PayloadError(f"unknown derivation {what!r}")
    arity = _DERIVE_ARITY[what]
    if len(names) != arity:
        raise PayloadError(f"derive {what!r} takes {arity} names, got {len(names)}")
    if weight is not None and what != "weight-embed":
        raise PayloadError(f"derive {what!r} takes no --weight")
    if quasi and what != "coboundary":
        raise PayloadError(f"derive {what!r} takes no --quasi")
    field = ws.field
    if what == "dendriform":
        A, R, S = _alg(ws, names[0]), _map(ws, names[1]), _map(ws, names[2])
        (prec, succ), (precp, succp) = split_dendriform(A, R, S)
        return _ws_with(field, [
            ("prec", "algebra", prec, None), ("succ", "algebra", succ, None),
            ("precp", "algebra", precp, None), ("succp", "algebra", succp, None)])
    if what == "products":
        A, R, S = _alg(ws, names[0]), _map(ws, names[1]), _map(ws, names[2])
        star, starp, bullet, bulletp = derived_products(A, R, S)
        return _ws_with(field, [
            ("star", "algebra", star, None), ("starp", "algebra", starp, None),
            ("bullet", "algebra", bullet, None), ("bulletp", "algebra", bulletp, None)])
    if what == "weight-embed":
        A, R = _alg(ws, names[0]), _map(ws, names[1])
        if weight is None:
            raise PayloadError("derive weight-embed needs --weight")
        sysm = weight_embed(A, R, field.parse(weight))
        return _ws_with(field, [(names[0], "algebra", A, None),
                                ("Rw", "map", sysm.R, names[0]),
                                ("Sw", "map", sysm.S, names[0])])
    if what == "commutator":
        A = _alg(ws, names[0])
        return _ws_with(field, [("L", "liealgebra", commutator(A), None)])
    if what == "cocommutator":
        C = _coalg(ws, names[0])
        return _ws_with(field, [("D", "liecoalgebra", cocommutator(C), None)])
    if what == "dual":
        C = _coalg(ws, names[0])
        return _ws_with(field, [("Adual", "algebra", dualize(C), None)])
    if what == "coboundary":
        A, r = _alg(ws, names[0]), _tensor(ws, names[1])
        mode = "quasitriangular" if quasi else "plain"
        C = coboundary_delta(A, r, mode)
        return _ws_with(field, [("Delta", "coalgebra", C, None)])
    # double
    A, C = _alg(ws, names[0]), _coalg(ws, names[1])
    R, S, Q, T = (_map(ws, n) for n in names[2:])
    dc = double_construction(A, C, R, S, Q, T)
    big = dc.system.carrier
    return _ws_with(field, [
        ("AA", "algebra", big, None),
        ("RR", "map", dc.system.R, "AA"), ("SS", "map", dc.system.S, "AA"),
        ("Bd", "form", dc.form, "AA")])


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
    if not isinstance(obj, (_Multiplicative, _Comultiplicative)):
        raise PayloadError("search carrier must be a structure")
    if not field.modulus:
        raise FieldError(f"search needs a prime field, got {field!r}")
    if obj.field.modulus:
        same_field(obj.field, field)
        return obj
    table = [[[field.of(c.numerator, c.denominator) for c in cell] for cell in row]
             for row in obj.table]
    return type(obj)(field, table, basis=obj.basis, raw=True)


def export_hits(job, hits):
    """Hit list as workspace text (round-trippable through `parse`): the
    carrier, a bisystem's cocarrier, and the components of every hit, a
    bisystem's Q and T on the cocarrier and all others on the carrier."""
    ws = Workspace(job.field)
    kinds = {cls: kind for kind, cls in _STRUCT_KINDS.items()}
    ws.add("carrier", kinds[type(job.carrier)], job.carrier)
    on = ("carrier",) * 4
    if job.kind == "bisystem":
        ws.add("cocarrier", kinds[type(job.cocarrier)], job.cocarrier)
        on = ("carrier", "carrier", "cocarrier", "cocarrier")
    for n, hit in enumerate(hits):
        for k, part in enumerate(hit.parts):
            ws.add(f"hit{n}_{k}", "map" if isinstance(part, Matrix) else "tensor",
                   part, carrier=on[k])
    return print_workspace(ws)


if __name__ == "__main__":
    sys.exit(main())
