"""The result records are ``typing.NamedTuple`` classes, so they are
tuples: a record compares equal to a plain tuple, or to a record of another
class, with the same field values, and it unpacks, indexes, measures with
len() and sorts with <.  Frozen dataclasses did none of this.  The package
reads records by field name only; these tests run every CLI command with
guards that log each tuple use of a record made outside the NamedTuple
machinery itself (``_replace``, ``_asdict``, copying)."""

import json
import sys
from functools import lru_cache

import pytest

from nsjack import combinatorics, jack, singular, vectorpoly
from nsjack.cli import main
from nsjack.ratfunc import RatFunc

from oracles import monomial

# the modules of the NamedTuple machinery, which iterate a record to copy it
MACHINERY = {"collections", "copy", "copyreg"}

COMPARISONS = ("__eq__", "__ne__")
ORDERINGS = ("__lt__", "__le__", "__gt__", "__ge__")
TUPLE_USES = (
    "__iter__", "__len__", "__getitem__", "__contains__", "__add__", "__mul__",
    "__rmul__", "index", "count",
)


def record_classes():
    return [
        obj
        for module in (combinatorics, jack, singular, vectorpoly)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, tuple)
        and obj.__module__ == module.__name__
    ]


def caller_module() -> str:
    # frame 0 is this function, 1 the guard, 2 the code that used the record
    return sys._getframe(2).f_globals.get("__name__", "")


def install_guards(monkeypatch, uses: list) -> None:
    def comparison(cls, name):
        base = getattr(tuple, name)

        def guard(self, other):
            if type(other) is not type(self):
                uses.append(f"{cls.__name__}.{name}({type(other).__name__}) "
                            f"in {caller_module()}")
            return base(self, other)

        return guard

    def tuple_use(cls, name):
        base = getattr(tuple, name)

        def guard(self, *args):
            where = caller_module()
            if where not in MACHINERY:
                uses.append(f"{cls.__name__}.{name} in {where}")
            return base(self, *args)

        return guard

    for cls in record_classes():
        for name in COMPARISONS:
            monkeypatch.setattr(cls, name, comparison(cls, name), raising=False)
        for name in ORDERINGS + TUPLE_USES:
            monkeypatch.setattr(cls, name, tuple_use(cls, name), raising=False)
        monkeypatch.setattr(cls, "__hash__", tuple.__hash__, raising=False)
    # an empty family cache, so the runs construct the families under guard
    fresh = lru_cache(maxsize=None)(singular._family_context.__wrapped__)
    monkeypatch.setattr(singular, "_family_context", fresh)


def test_the_records_are_the_named_tuples():
    names = {cls.__name__ for cls in record_classes()}
    assert len(names) == 14  # 12 result records, vectorpoly.Packed and Seminormal
    assert {"JackPolynomial", "FamilyMember", "Seminormal", "Packed"} <= names


def test_the_guards_log_tuple_uses(monkeypatch):
    uses = []
    install_guards(monkeypatch, uses)
    columns = ((3, 1), (4, 2))
    record = vectorpoly.Seminormal(columns, 2, 4)
    assert record._replace(d=2) == record and not uses
    assert record._asdict() == {"columns": columns, "d": 2, "norm": 4} and not uses
    assert record == (columns, 2, 4) and len(record) == 3
    unpacked, _, _ = record
    assert unpacked == columns and sorted([record, record])
    assert len(uses) == 4 and all(use.endswith(__name__) for use in uses)


CLI_RUNS = [
    ["singular", "verify", "--m", "1", "--k", "2"],
    ["--format", "json", "singular", "verify", "--m", "1", "--k", "2"],
    ["--format", "json", "norms", "--m", "1", "--k", "2"],
    ["norms", "--m", "1", "--k", "2"],
    ["--format", "json", "mu", "verify", "--m", "1", "--k", "2"],
    ["--format", "json", "example", "n5"],
    ["example", "n5"],
    ["--format", "json", "closure", "--m", "1", "--k", "2"],
    ["--format", "json", "uniq", "check", "--m", "1", "--k", "2"],
    ["--format", "json", "uniq", "check", "--m", "2", "--k", "2", "--s", "1",
     "--variant", "2"],
    ["--format", "json", "jack", "construct", "--alpha", "1,1,0,0",
     "--tableau-contents=-3,-2,-1,0", "--kappa", "1/3"],
    ["jack", "construct", "--alpha", "0,1,0,1", "--tableau-contents=-3,-2,-1,0"],
]


def test_no_cli_command_uses_a_record_as_a_tuple(monkeypatch, tmp_path, capsys):
    tableau = tmp_path / "tableau.json"
    tableau.write_text(json.dumps([[8, 6, 5, 2], [7, 4, 3, 1]]))
    poly = monomial((2, 2), (1, 0, 2, 0), 1, RatFunc.from_int(1))
    source = tmp_path / "poly.json"
    source.write_text(json.dumps({"shape": [2, 2], "poly": poly.to_json()}))
    runs = CLI_RUNS + [
        ["--format", "json", "brickmap", "--tableau-json", str(tableau), "--m", "2"],
        *(
            ["--format", "json", "apply-operator", "--op", op, "--index", "2",
             "--input", str(source), *kappa]
            for op in ("dunkl", "cherednik", "cherednik-prime", "jucys-murphy")
            for kappa in ([], ["--kappa", "2/7"])
        ),
    ]
    uses = []
    install_guards(monkeypatch, uses)
    for argv in runs:
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert uses == []


@pytest.mark.parametrize("m, k", [(1, 2), (2, 2)])
def test_no_family_check_uses_a_record_as_a_tuple(monkeypatch, m, k):
    uses = []
    install_guards(monkeypatch, uses)
    certificate = singular.singular_family(m, k)
    for member in singular.family_context(m, k).members[:2]:
        jack.verify_eigen_equations(member.jack)
    assert certificate.members and uses == []
