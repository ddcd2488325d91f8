import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbx import fixtures as fx
from rbx.cli import (_DERIVE_ARITY, Workspace, _check_handlers, _reduce, export_hits, main,
                     parse, print_workspace, run_check)
from rbx.errors import ParseError
from rbx.identities import known_tags
from rbx.kernel import Matrix, PrimeField, Rationals, Tensor2
from rbx.structures import Algebra, BilinearForm, commutator, dualize_alg
from rbx.search import _KINDS, SearchJob, run_search
from rbx.systems import _COALG_KINDS

FIX_A_SOURCE = """\
field Q
algebra A dim 2 basis e f
mul f e = 1 e
mul f f = 1 f
"""

FIX_BI_SOURCE = """\
field Q

algebra A dim 2 basis e f
mul f e = 1 e
mul f f = 1 f

coalgebra C dim 2 basis e f
comul e = -1 (e,e)
comul f = -1 (e,f)

map R on A
R e = 1 e + -1 f
R f = 2 e + -2 f

map S on A
S e = 2 e + -1 f
S f = 2 e + -1 f

map Q on A
Q e = -2 e + 1 f
Q f = -2 e + 1 f

map T on A
T e = -1 e + 1 f
T f = -2 e + 2 f
"""


def test_parse_fixture_algebra():
    ws = parse(FIX_A_SOURCE)
    A = ws.get("A")
    assert A.dim == 2
    assert A == fx.fix_a(Rationals())


def test_parse_error_unknown_basis_id():
    bad = FIX_A_SOURCE + "mul f g = 1 e\n"
    with pytest.raises(ParseError) as err:
        parse(bad)
    assert err.value.line == 5
    assert err.value.col == 7


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse("field Q\nalgebra A dim 2 basis e f\nmul e e = oops e\n")
    assert err.value.line == 3


def test_parse_duplicate_name_rejected():
    with pytest.raises(ParseError):
        parse(FIX_A_SOURCE + "map A on A\n")


def test_parse_requires_field_first():
    with pytest.raises(ParseError):
        parse("algebra A dim 1 basis e\n")


def test_parse_gf_field():
    ws = parse("field GF 3\nalgebra A dim 1 basis e\nmul e e = 2 e\n")
    assert ws.field == PrimeField(3)


def test_roundtrip_fixture_workspace():
    ws = parse(FIX_BI_SOURCE)
    text = print_workspace(ws)
    again = parse(text)
    assert again == ws
    assert print_workspace(again) == text


def test_roundtrip_builtin_workspace():
    ws = parse(fx.WORKSPACE_SOURCE)
    text = print_workspace(ws)
    assert parse(text) == ws


def test_run_check_bisystem_passes():
    ws = parse(FIX_BI_SOURCE)
    rep = run_check(ws, "bisystem", ["A", "C", "R", "S", "Q", "T"])
    assert rep.passed


def test_run_check_witness_pair():
    # corrupting the partner map yields a violation at the (f, f) pair
    src = FIX_A_SOURCE + """\
map R on A
R f = 1 e
map Rbad on A
Rbad f = 1 f
"""
    ws = parse(src)
    rep = run_check(ws, "symmetric-rbs", ["A", "R", "Rbad"])
    assert not rep.passed
    assert ("f", "f") in {v.inputs for v in rep.violations}


def test_cli_exit_codes(capsys):
    code = main(["check", "symmetric-rbs", "A", "R", "S", "--builtin"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "pass"
    assert doc["violations"] == []

    code = main(["check", "symmetric-rbs", "A", "R0", "S", "--builtin"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "fail"
    assert doc["violations"]
    # without --witness the residuals are suppressed but the schema holds
    assert all(v["residual"] == [] for v in doc["violations"])
    assert all(v["identity"] in known_tags() for v in doc["violations"])


def test_cli_witness_flag(capsys):
    code = main(["check", "symmetric-rbs", "A", "R0", "S", "--builtin",
                 "--witness"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert any(v["residual"] for v in doc["violations"])


def test_cli_weight_flag(capsys):
    code = main(["check", "rb-weight", "A", "R0", "--weight", "0", "--builtin"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["status"] == "pass"


def test_cli_lie_kinds(capsys):
    assert main(["check", "lie-rbs", "L", "R", "S", "--builtin"]) == 0
    capsys.readouterr()
    assert main(["check", "lie-bisystem", "L", "D", "R", "S", "Q", "T",
                 "--builtin"]) == 0


def test_cli_unknown_kind(capsys):
    assert main(["check", "nonsense", "A", "--builtin"]) == 2
    assert "error:" in capsys.readouterr().err


def test_derive_dendriform_roundtrips(capsys):
    code = main(["derive", "dendriform", "A", "R0", "S0", "--builtin"])
    assert code == 0
    text = capsys.readouterr().out
    derived = parse(text)
    # f < f = f.S(f) = 2e
    prec = derived.get("prec")
    assert prec.product(1, 1) == (Rationals().of(2), Rationals().zero())


def test_derive_coboundary(capsys):
    code = main(["derive", "coboundary", "A", "r2", "--builtin"])
    assert code == 0
    derived = parse(capsys.readouterr().out)
    C = derived.get("Delta")
    assert C.delta_basis(1)[0, 1] == Rationals().one()


def test_derive_double(capsys):
    code = main(["derive", "double", "A", "C", "R", "S", "Q", "T", "--builtin"])
    assert code == 0
    derived = parse(capsys.readouterr().out)
    assert derived.get("AA").dim == 4
    assert derived.get("Bd").is_nondegenerate()


def test_cli_search_and_export(tmp_path, capsys):
    out = tmp_path / "hits.rbx"
    code = main(["search", "symmetric-rbs", "--carrier", "A", "--field", "GF2",
                 "--builtin", "--shards", "2", "--export", str(out)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["hits"] == 18
    assert doc["space"] == 256
    exported = parse(out.read_text())
    maps = [n for n in exported.order if exported.items[n][0] == "map"]
    assert len(maps) == 36  # two maps per hit


# every kind the CLI can search (it cannot give adjoint_admissible its fixed
# maps), on the bundled workspace's carriers reduced to GF(2)
CLI_KINDS = sorted(set(_KINDS) - {"adjoint_admissible"})


@pytest.mark.parametrize("kind", CLI_KINDS)
def test_export_hits_parses_back(kind):
    F2 = PrimeField(2)
    ws = parse(fx.WORKSPACE_SOURCE)
    name = {"lie_rbs": "L", "lie_rb_cosystem": "D"}.get(
        kind, "C" if kind in _COALG_KINDS else "A")
    job = SearchJob(F2, _reduce(ws.get(name), F2), kind,
                    cocarrier=_reduce(ws.get("C"), F2) if kind == "bisystem" else None,
                    weight=F2.one() if "weight" in kind else None)
    hits = run_search(job)
    assert hits
    back = parse(export_hits(job, hits))
    carriers = [("carrier", job.carrier)]
    if kind == "bisystem":
        carriers.append(("cocarrier", job.cocarrier))
    for key, structure in carriers:
        assert type(back.get(key)) is type(structure)
        assert back.get(key).table == structure.table
    on = ("carrier", "carrier", "cocarrier", "cocarrier") if kind == "bisystem" else (
        ("carrier",) * 2)
    for n, hit in enumerate(hits):
        names = [f"hit{n}_{k}" for k in range(len(hit.parts))]
        assert tuple(back.get(x) for x in names) == hit.parts
        assert tuple(back.items[x][2] for x in names) == on[:len(names)]


def test_cli_exports_lie_cosystem_and_bisystem_hits(tmp_path, capsys):
    for args, count, width in ((["lie-rb-cosystem", "--carrier", "D"], 28, 2),
                               (["bisystem", "--carrier", "A", "--cocarrier", "C"], 48, 4)):
        out = tmp_path / "hits.rbx"
        code = main(["search", *args, "--field", "GF2", "--builtin",
                     "--export", str(out)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["hits"] == count
        exported = parse(out.read_text())
        maps = [n for n in exported.order if exported.items[n][0] == "map"]
        assert len(maps) == count * width


def test_cli_verify_family(capsys):
    code = main(["verify-family", "cee-d", "--samples", "4", "--seed", "9"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["check"] == "family:cee-d"
    assert doc["seed"] == 9


def test_cli_verify_family_unknown(capsys):
    assert main(["verify-family", "nope"]) == 2


def test_all_report_tags_known():
    ws = parse(fx.WORKSPACE_SOURCE)
    for kind, names in [
        ("symmetric-rbs", ["A", "R0", "S"]),
        ("bisystem", ["A", "C", "R0", "S", "Q", "T"]),
        ("asi-bialgebra", ["A", "C"]),
    ]:
        rep = run_check(ws, kind, names)
        for v in rep.all_violations():
            assert v.identity in known_tags()


# `rbx search` input hardening: workspace field against search field

GF3_A_SOURCE = FIX_A_SOURCE.replace("field Q", "field GF 3")


def _search(tmp_path, capsys, source, field, *extra):
    src = tmp_path / "ws.rbx"
    src.write_text(source)
    code = main(["search", "symmetric-rbs", "--carrier", "A", "--field", field,
                 "-i", str(src), *extra])
    captured = capsys.readouterr()
    return code, captured


def test_cli_search_gf_workspace_same_field(tmp_path, capsys):
    code, out = _search(tmp_path, capsys, GF3_A_SOURCE, "GF3")
    assert code == 0
    gf_hits = json.loads(out.out)["hits"]
    code, out = _search(tmp_path, capsys, FIX_A_SOURCE, "GF3")
    assert code == 0
    assert gf_hits == json.loads(out.out)["hits"] == 55


def test_cli_search_gf_workspace_other_field_rejected(tmp_path, capsys):
    code, out = _search(tmp_path, capsys, GF3_A_SOURCE, "GF5")
    assert code == 2
    assert "GF 3" in out.err and "GF 5" in out.err
    code, out = _search(tmp_path, capsys, GF3_A_SOURCE, "Q")
    assert code == 2
    assert "error:" in out.err


def test_cli_search_denominator_divisible_by_p_rejected(tmp_path, capsys):
    source = FIX_A_SOURCE.replace("= 1 ", "= 1/3 ")  # fix_a with k = 1/3
    code, out = _search(tmp_path, capsys, source, "GF3")
    assert code == 2
    assert "1/3" in out.err
    code, out = _search(tmp_path, capsys, source, "GF5")
    assert code == 0


@pytest.mark.parametrize("shards", ["0", "-2"])
def test_cli_search_rejects_bad_shard_count(tmp_path, capsys, shards):
    code, out = _search(tmp_path, capsys, FIX_A_SOURCE, "GF3", "--shards", shards)
    assert code == 2
    assert "shard" in out.err


# `rbx search` refuses a job its checker would refuse, before enumerating it

@pytest.mark.parametrize("argv, message", [
    (["bisystem", "--carrier", "A"], "cocarrier"),
    (["adjoint-admissible", "--carrier", "A"], "fixed maps"),
    (["rb-weight", "--carrier", "A"], "weight"),
    (["rb-coalgebra-weight", "--carrier", "C"], "weight"),
    (["lie-rbs", "--carrier", "A"], "Lie-algebra"),
    (["symmetric-rb-cosystem", "--carrier", "A"], "coalgebra"),
    (["lie-rb-cosystem", "--carrier", "A"], "coalgebra"),
    (["symmetric-rbs", "--carrier", "A", "--processes", "0"], "process"),
    (["symmetric-rbs", "--carrier", "A", "--processes", "-3"], "process"),
])
def test_cli_search_bad_job_rejected(capsys, argv, message):
    code = main(["search", *argv, "--field", "GF2", "--builtin"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error:") and message in out.err


# a budget that is not an integer of at least 1 is refused with exit 2

@pytest.mark.parametrize("env, extra, message", [
    ("abc", [], "RBX_BUDGET"),
    ("-1", [], "at least 1"),
    (None, ["--budget", "-1"], "at least 1"),
    (None, ["--budget", "0"], "at least 1"),
])
def test_cli_search_bad_budget_rejected(monkeypatch, capsys, env, extra, message):
    if env is None:
        monkeypatch.delenv("RBX_BUDGET", raising=False)
    else:
        monkeypatch.setenv("RBX_BUDGET", env)
    code = main(["search", "symmetric-rbs", "--builtin", "--carrier", "A",
                 "--field", "GF3", *extra])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error:") and message in out.err
    assert "exceeds" not in out.err


def _python_m_rbx(*argv, timeout=120):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, "-m", "rbx", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout)


# a file that cannot be read or written ends in a ToolkitError, not a traceback

@pytest.mark.parametrize("argv", [
    ["check", "symmetric-rbs", "A", "R", "S", "-i", "/nonexistent.txt"],
    ["check", "symmetric-rbs", "A", "R", "S", "-i", str(Path(__file__).parent)],
    ["search", "rbs", "--builtin", "--carrier", "A", "--field", "GF3",
     "--export", "/nonexistent/x.txt"],
])
def test_cli_file_errors_exit_2(argv):
    out = _python_m_rbx(*argv)
    assert out.returncode == 2
    assert out.stdout == ""  # a failed export prints no "pass" document
    assert out.stderr.startswith("error:") and argv[-1] in out.stderr
    assert "Traceback" not in out.stderr


# a Q literal too large to convert to str, or whose power of ten would take
# minutes to compute, is a parse error at its column, not a traceback or a hang

@pytest.mark.parametrize("literal", ["2e4301", "1e999999999"])
def test_cli_huge_rational_literal_exit_2(tmp_path, literal):
    ws = tmp_path / "ws.rbx"
    ws.write_text(FIX_A_SOURCE + f"map R on A\nR e = {literal} e + -1 f\n")
    start = time.perf_counter()
    out = _python_m_rbx("check", "rb-weight", "A", "R", "--weight", "0", "--witness",
                        "-i", str(ws), timeout=30)
    assert time.perf_counter() - start < 5
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and literal in out.stderr
    assert "(line 6, col 7)" in out.stderr and "Traceback" not in out.stderr


# a literal within the limit can give a residual past it: the check still
# ends in its verdict, which renders that entry by its sign and digit count

def test_cli_residual_past_the_digit_limit_is_a_verdict(tmp_path):
    ws = tmp_path / "ws.rbx"
    ws.write_text(FIX_A_SOURCE + "map R on A\nR e = 2e4000 e + -1 f\n")
    out = _python_m_rbx("check", "rb-weight", "A", "R", "--weight", "0", "--witness",
                        "-i", str(ws))
    assert out.returncode == 1
    assert "Traceback" not in out.stderr
    doc = json.loads(out.stdout)
    assert doc["status"] == "fail"
    assert doc["violations"][0]["residual"][0] == "-<8001 digits>"  # -4 * 10^8000


def test_cli_export_to_stdout_follows_the_document(capsys):
    code = main(["search", "rbs", "--builtin", "--carrier", "A", "--field", "GF2",
                 "--export", "-"])
    assert code == 0
    out = capsys.readouterr().out
    doc, _, text = out.partition("}\n")
    hits = json.loads(doc + "}")["hits"]
    assert hits == 35
    assert len([n for n in parse(text).order if n.startswith("hit")]) == 2 * hits


# an option that the kind does not use is refused, not ignored

@pytest.mark.parametrize("argv, message", [
    (["check", "rbs", "A", "R", "S", "--weight", "1"], "--weight"),
    (["check", "bisystem", "A", "C", "R", "S", "Q", "T", "--weight", "0"], "--weight"),
    (["search", "rbs", "--carrier", "A", "--field", "GF3", "--weight", "1"], "--weight"),
    (["search", "rb-coalgebra-weight", "--carrier", "C", "--field", "GF3",
      "--weight", "1", "--cocarrier", "C"], "--cocarrier"),
    (["search", "symmetric-rbs", "--carrier", "A", "--cocarrier", "C",
      "--field", "GF3"], "--cocarrier"),
])
def test_cli_refuses_unused_options(capsys, argv, message):
    code = main([*argv, "--builtin"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error:") and message in out.err


# `rbx derive` refuses a wrong name count or an option its derivation does
# not use, instead of a traceback or a silent pass

@pytest.mark.parametrize("argv, message", [
    (["dendriform"], "takes 3 names, got 0"),
    (["products", "A", "R0"], "takes 3 names, got 2"),
    (["coboundary", "A"], "takes 2 names, got 1"),
    (["double", "A", "C", "R", "S"], "takes 6 names, got 4"),
    (["commutator", "A", "C"], "takes 1 names, got 2"),
    (["dendriform", "A", "R0", "S0", "--weight", "1"], "--weight"),
    (["commutator", "A", "--quasi"], "--quasi"),
    (["nonsense", "A"], "unknown derivation"),
])
def test_cli_derive_bad_arguments_rejected(capsys, argv, message):
    code = main(["derive", *argv, "--builtin"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error:") and message in out.err
    assert "Traceback" not in out.err


def test_cli_derive_options_where_used(capsys):
    assert main(["derive", "weight-embed", "A", "R", "--weight", "1", "--builtin"]) == 0
    assert {"Rw", "Sw"} <= set(parse(capsys.readouterr().out).order)
    assert main(["derive", "coboundary", "A", "r2", "--quasi", "--builtin"]) == 0
    assert "Delta" in parse(capsys.readouterr().out).order


# a derivation whose output holds a coefficient past the int/str digit
# limit would print text that `parse` refuses: it is refused, naming the item

def test_cli_derive_refuses_an_unprintable_coefficient(tmp_path):
    nines = "9" * 4300  # the longest literal that parses
    ws = tmp_path / "ws.rbx"
    ws.write_text(f"field Q\nalgebra A dim 1 basis e\nmul e e = 1 e\n\n"
                  f"map R on A\nR e = {nines} e\n")
    out = _python_m_rbx("derive", "weight-embed", "A", "R", "--weight", nines,
                        "-i", str(ws))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("error:") and "'Sw'" in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_weighted_search_kinds_take_a_weight(capsys):
    for kind, carrier in (("rb-weight", "A"), ("rb-coalgebra-weight", "C")):
        assert main(["search", kind, "--carrier", carrier, "--field", "GF3",
                     "--weight", "1", "--builtin"]) == 0
        assert json.loads(capsys.readouterr().out)["hits"]


def test_python_dash_m_rbx():
    out = _python_m_rbx("verify-family", "cee-a", "--samples", "1")
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["check"] == "family:cee-a"


# a dim-3 carrier, with a map, a tensor and a form on it, and a form on A
WRONG_DIM_SOURCE = fx.WORKSPACE_SOURCE + """
algebra B dim 3 basis u v w
mul u u = 1 u

map M3 on B
M3 u = 1 v

tensor t3 on B = 1 (u,w)

form F3 on B
F3 u = 1 w
F3 v = 1 v
F3 w = 1 u

form F2 on A
F2 e = 1 f
F2 f = 1 e
"""

# valid names for every check kind and derivation, and --weight where it
# is needed; every map, tensor and form among them has a dim-3 counterpart
VALID_ARGS = {
    ("check", "rb-weight"): "A R --weight 1",
    ("check", "rbs"): "A R S",
    ("check", "symmetric-rbs"): "A R S",
    ("check", "averaging"): "A R",
    ("check", "nijenhuis"): "A R",
    ("check", "lie-rbs"): "L R S",
    ("check", "symmetric-rb-cosystem"): "C Q T",
    ("check", "rb-coalgebra-weight"): "C Q --weight 1",
    ("check", "coaveraging"): "C Q",
    ("check", "lie-rb-cosystem"): "D Q T",
    ("check", "associative"): "A",
    ("check", "coassociative"): "C",
    ("check", "lie"): "L",
    ("check", "lie-coalgebra"): "D",
    ("check", "prelie"): "A",
    ("check", "perm"): "A",
    ("check", "dendriform"): "A A",
    ("check", "asi-bialgebra"): "A C",
    ("check", "lie-bialgebra"): "L D",
    ("check", "frobenius"): "A F2",
    ("check", "adjoint-admissible"): "A R S Q T",
    ("check", "bisystem"): "A C R S Q T",
    ("check", "lie-bisystem"): "L D R S Q T",
    ("check", "weighted-rb-asi"): "A C R Q --weight 1",
    ("check", "averaging-asi"): "A C R Q",
    ("check", "averaging-lie-bialgebra"): "L D R Q",
    ("check", "weighted-rb-lie-bialgebra"): "L D R Q --weight 1",
    ("check", "aybe"): "A r2",
    ("check", "asi-coboundary"): "A r2",
    ("check", "admissible-aybe"): "A R S Q T r2",
    ("check", "ybpair"): "A r2 r2",
    ("check", "symmetric-ybpair"): "A r2 r2",
    ("check", "lr-invariant"): "A r2",
    ("check", "frobenius-srbs"): "A R S F2",
    ("derive", "dendriform"): "A R S",
    ("derive", "products"): "A R S",
    ("derive", "weight-embed"): "A R --weight 1",
    ("derive", "commutator"): "A",
    ("derive", "cocommutator"): "C",
    ("derive", "dual"): "C",
    ("derive", "coboundary"): "A r2",
    ("derive", "double"): "A C R S Q T",
}
DIM3 = {"R": "M3", "S": "M3", "Q": "M3", "T": "M3", "r2": "t3", "F2": "F3"}


def _wrong_dim_cases():
    for (command, kind), args in VALID_ARGS.items():
        words = args.split()
        for k, word in enumerate(words):
            if word in DIM3:
                bad = words[:k] + [DIM3[word]] + words[k + 1:]
                yield pytest.param(command, kind, words, bad,
                                   id=f"{command}-{kind}-{k}")


def test_wrong_dim_cases_cover_every_kind():
    assert {kind for command, kind in VALID_ARGS if command == "check"} == set(_check_handlers())
    assert {kind for command, kind in VALID_ARGS if command == "derive"} == set(_DERIVE_ARITY)


@pytest.fixture(scope="module")
def wrong_dim_workspace(tmp_path_factory):
    path = tmp_path_factory.mktemp("ws") / "wrong_dim.rbx"
    path.write_text(WRONG_DIM_SOURCE)
    return str(path)


@pytest.mark.parametrize("command,kind,good,bad", list(_wrong_dim_cases()))
def test_cli_wrong_dimension_data_exits_2(wrong_dim_workspace, capsys,
                                          command, kind, good, bad):
    """A map, tensor or form on a dim-3 carrier, handed to a check or a
    derivation on dim-2 data, ends in exit 2 with an error line: never a
    verdict, a derived workspace or a traceback."""
    assert main([command, kind, *good, "-i", wrong_dim_workspace]) in (0, 1)
    capsys.readouterr()
    assert main([command, kind, *bad, "-i", wrong_dim_workspace]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert "error:" in out.err and "Traceback" not in out.err


# every `ParseError` raise site of the reader (`parse`, its sum reader, the
# closing of a structure block, `Workspace.add`): message, line and column

_A1 = "field Q\nalgebra A dim 1 basis e\n"
_C1 = "field Q\ncoalgebra C dim 1 basis e\n"

PARSE_ERRORS = [
    (_A1 + "algebra A dim 1 basis e\n", "duplicate name 'A'", 3, None),
    (_A1 + "map X on A\nalgebra X dim 1 basis e\n", "duplicate name 'X'", 3, None),
    (_A1 + "mul e e = x e\n", "bad rational literal 'x'", 3, 11),
    (_A1 + "mul e e = 1\n", "coefficient without a target", 3, 11),
    (_C1 + "comul e = 1 e\n", "expected (i,j) pair, got 'e'", 3, 13),
    (_C1 + "comul e = 1 (e,g)\n", "unknown basis id 'g'", 3, 13),
    (_A1 + "mul e e = 1 g\n", "unknown basis id 'g'", 3, 13),
    (_A1 + "mul e e = 1 e 1 e\n", "expected '+', got '1'", 3, 15),
    (_A1 + "mul e e = 1 e +\n", "dangling '+'", 3, 15),
    ("field Q\nliealgebra L dim 1 basis e\nmul e e = 1 e\n",
     "L: bracket is not a Lie bracket", 2, None),
    ("field Q\nfield Q\n", "field already declared", 2, 1),
    ("field R\n", "bad field spec 'R'", 1, 1),
    ("algebra A dim 1 basis e\n", "a field line must come first", 1, 1),
    (_A1 + "algebra B dim 1\n", "expected 'algebra <name> dim <n> basis <ids...>'", 3, 1),
    (_A1 + "algebra B dim x basis e\n", "dimension must be an integer", 3, 15),
    (_A1 + "algebra B dim 2 basis e\n", "expected 2 basis ids, got 1", 3, 1),
    ("field Q\nmul e e = 1 e\n", "'mul' outside a structure block", 2, 1),
    (_A1 + "comul e = 1 (e,e)\n", "'comul' does not match a algebra", 3, 1),
    (_A1 + "mul e e 1 e\n", "expected 'mul <i> <j> = ...'", 3, 1),
    (_A1 + "mul e g = 1 e\n", "unknown basis id 'g'", 3, 7),
    (_C1 + "comul e 1 (e,e)\n", "expected 'comul <i> = ...'", 3, 1),
    (_C1 + "comul g = 1 (e,e)\n", "unknown basis id 'g'", 3, 7),
    (_A1 + "map R A\n", "expected 'map <name> on <carrier>'", 3, 1),
    (_A1 + "map R on B\n", "unknown carrier 'B'", 3, 10),
    (_A1 + "map A on A\n", "duplicate name 'A'", 3, 5),
    (_A1 + "tensor t on A =\n", "expected 'tensor <name> on <carrier> = ...'", 3, 1),
    (_A1 + "tensor t on B = 1 (e,e)\n", "unknown carrier 'B'", 3, 13),
    (_A1 + "map R on A\nR e 1 e\n", "expected 'R <i> = ...'", 4, 1),
    (_A1 + "map R on A\nR g = 1 e\n", "unknown basis id 'g'", 4, 3),
    (_A1 + "frob x\n", "unrecognized directive 'frob'", 3, 1),
    ("# nothing\n", "empty input: no field line", 1, 1),
]


@pytest.mark.parametrize("source, message, line, col", PARSE_ERRORS)
def test_parse_error_sites(source, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.line, err.value.col) == (line, col)
    where = f" (line {line}" + (f", col {col}" if col is not None else "") + ")"
    assert str(err.value) == message + where



def test_entry_lines_replace_and_map_rows_may_come_late():
    # a repeated entry line replaces the earlier one; a map's rows may come
    # after later declarations, and maps are built last, in declaration order
    ws = parse("field Q\nalgebra A dim 1 basis e\nmul e e = 5 e\nmul e e = 1 e\n"
               "map R on A\nmap S on A\nalgebra B dim 1 basis e\nS e = 2 e\n"
               "R e = 2 e\nR e = 3 e + 1 e\ntensor t on A = 1 (e,e)\n")
    assert ws.order == ["A", "B", "t", "R", "S"]
    assert ws.get("A") == Algebra(Rationals(), [[[1]]], basis=("e",))
    assert ws.get("R").entries == (4,) and ws.get("S").entries == (2,)


# declarations the format cannot address are refused at the offending token:
# a carrier that is no structure, a repeated basis id, and a map or form
# named after a directive, whose rows would read as that directive's lines

_T0 = _A1 + "tensor t0 on A = 1 (e,e)\n"

REFUSED_DECLARATIONS = [
    (_T0 + "tensor t1 on t0 = 1 (e,e)\n", "carrier 't0' is a tensor, not a structure", 4, 14),
    (_T0 + "map R on t0\nR e = 1 e\n", "carrier 't0' is a tensor, not a structure", 4, 10),
    (_T0 + "map R on t0\n", "carrier 't0' is a tensor, not a structure", 4, 10),
    (_T0 + "form B on t0\nB e = 1 e\n", "carrier 't0' is a tensor, not a structure", 4, 11),
    ("field Q\nalgebra A dim 2 basis e e\n", "duplicate basis id 'e'", 2, 25),
    ("field Q\ncoalgebra C dim 3 basis e f e raw\n", "duplicate basis id 'e'", 2, 29),
    (_A1 + "map mul on A\nmul e = 1 e\n", "a map cannot be named after the directive 'mul'", 3, 5),
    (_A1 + "form field on A\n", "a form cannot be named after the directive 'field'", 3, 6),
    (_A1 + "map tensor on A\n", "a map cannot be named after the directive 'tensor'", 3, 5),
    (_A1 + "map liealgebra on A\n",
     "a map cannot be named after the directive 'liealgebra'", 3, 5),
]


@pytest.mark.parametrize("source, message, line, col", REFUSED_DECLARATIONS)
def test_unaddressable_declarations_are_refused(tmp_path, capsys, source, message, line, col):
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"{message} (line {line}, col {col})", line, col)
    path = tmp_path / "ws.rbx"
    path.write_text(source)
    assert main(["check", "associative", "A", "-i", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {message} (line {line}, col {col})\n"


@pytest.mark.parametrize("argv", [
    ["rbs", "--carrier", "Z"],
    ["aybe", "--carrier", "Z"],
    ["bisystem", "--carrier", "A", "--cocarrier", "Z0"],
])
def test_cli_search_refuses_a_dimension_zero_carrier(tmp_path, capsys, argv):
    path = tmp_path / "ws.rbx"
    path.write_text(FIX_BI_SOURCE + "algebra Z dim 0 basis\ncoalgebra Z0 dim 0 basis\n")
    assert main(["search", *argv, "--field", "GF3", "-i", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:") and "dimension at least 1" in out.err


def test_derived_items_keep_the_kind_of_their_type(capsys):
    # the dual of a Lie coalgebra is a Lie algebra, printed as one, so the
    # printout reads back to the same workspace
    assert main(["derive", "dual", "D", "--builtin"]) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[2].startswith("liealgebra Adual dim 2 ")
    assert print_workspace(parse(text)) == text


# print_workspace and parse are inverse on workspaces holding every item
# kind, over Q and small prime fields, in dimensions 1 to 3

_FIELDS = (Rationals(), PrimeField(2), PrimeField(3), PrimeField(5))
_LABELS = ("e", "f", "g", "u", "v", "x1", "e_2")


@st.composite
def _workspaces(draw):
    F = draw(st.sampled_from(_FIELDS))

    def vec(n):
        return [F.of(draw(st.integers(-4, 4)), draw(st.integers(1, 3)) if not F.modulus else 1)
                for _ in range(n)]

    def associative(d):
        # x.y = phi(x) y, or x.y = phi(x) phi(y) u: associative for any phi, u
        a, u, left = vec(d), vec(d), draw(st.booleans())
        table = [[[a[i] * (k == j) if left else a[i] * a[j] * u[k] for k in range(d)]
                  for j in range(d)] for i in range(d)]
        return Algebra(F, table, raw=True)

    def labels(d):
        return draw(st.lists(st.sampled_from(_LABELS), min_size=d, max_size=d, unique=True))

    ws = Workspace(F)
    dims = {}
    for name in ("A", "L", "C", "D"):
        d = dims[name] = draw(st.integers(1, 3))
        A = associative(d)
        obj = {"A": A, "L": commutator(A), "C": dualize_alg(A),
               "D": dualize_alg(commutator(A))}[name]
        ws.add(name, type(obj)(F, obj.table, basis=labels(d), raw=True))
    items = [("tensor", "t"), ("map", "R"), ("form", "B")]
    for k, (kind, prefix) in enumerate(items * draw(st.integers(1, 2))):
        on = draw(st.sampled_from(sorted(dims)))
        d = dims[on]
        obj = {"tensor": lambda: Tensor2(F, d, vec(d * d)),
               "map": lambda: Matrix(F, d, d, vec(d * d)),
               "form": lambda: BilinearForm(F, Matrix(F, d, d, vec(d * d)))}[kind]()
        ws.add(f"{prefix}{k}", obj, carrier=on)
    # parse builds maps and forms after every tensor
    ws.order.sort(key=lambda n: ws.items[n][0] in ("map", "form"))
    return ws


@settings(max_examples=60, deadline=None)
@given(_workspaces())
def test_print_then_parse_is_the_identity(ws):
    text = print_workspace(ws)
    back = parse(text)
    assert back == ws
    assert print_workspace(back) == text
