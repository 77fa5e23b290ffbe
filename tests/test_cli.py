"""Command-line contract: exit codes, JSON documents, determinism."""

import json

import pytest

from nsjack.cli import main

from oracles import dunkl_fractions, exponent_code, family, monomial


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_singular_verify_small(capsys):
    code, out = run(capsys, "--format", "json", "singular", "verify", "--m", "1", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["verified"] and doc["family_size"] == 2
    assert doc["kappa"] == "1/3"
    assert len(doc["members"]) == 2
    for member in doc["members"]:
        assert member["pole_free"]
        assert all(img == [] for img in member["dunkl_images"])


def test_example_n5_cli(capsys):
    code, out = run(capsys, "--format", "json", "example", "n5")
    assert code == 0
    doc = json.loads(out)
    assert doc["first_label_monomials"] == 100
    assert doc["combination_singular"] and doc["combination_invariant"]


def test_uniq_check_cli(capsys):
    code, out = run(capsys, "--format", "json", "uniq", "check", "--m", "1", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["unique"]
    assert doc["enumeration_size"] == 6


def test_uniq_check_variant(capsys):
    code, out = run(
        capsys,
        "--format", "json",
        "uniq", "check", "--m", "2", "--k", "2", "--s", "1", "--variant", "2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["unique"]
    assert doc["window"] == [0, 1, 1, 0]
    assert doc["spectral_window"] == ["0", "1", "2", "1"]


def test_norms_cli(capsys):
    code, out = run(capsys, "--format", "json", "norms", "--m", "1", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["steps_checked"] > 0
    assert {m["gamma"] for m in doc["members"]} == {"1", "3/4"}


def test_mu_verify_cli(capsys):
    code, out = run(capsys, "--format", "json", "mu", "verify", "--m", "1", "--k", "2")
    assert code == 0
    assert json.loads(out) == {
        "m": 1,
        "k": 2,
        "kappa": "1/3",
        "dunkl_images": 8,
        "transports": 6,
        "all_commute": True,
    }


@pytest.mark.parametrize("command", ["singular verify", "closure", "mu verify"])
def test_a_family_command_builds_its_family_once(command, monkeypatch, capsys):
    # the spy replaces the name in every nsjack module that binds it, as the
    # benchmark's tracer does; mu verify passes its one family to both
    # certificates
    import sys

    from nsjack import singular

    real, calls = singular.family_context, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    for name, module in list(sys.modules.items()):
        bound = vars(module).get("family_context")
        if name.partition(".")[0] == "nsjack" and bound is real:
            monkeypatch.setattr(module, "family_context", spy)
    code, _ = run(capsys, *command.split(), "--m", "1", "--k", "2")
    assert code == 0 and len(calls) == 1


def test_no_command_takes_a_seed():
    # mu verify proves the module map rather than sampling it, so it has no
    # seed, degree or trial count, and no other command takes a seed
    for argv in (
        ["--seed", "3", "example", "n5"],
        ["mu", "verify", "--m", "1", "--k", "2", "--seed", "0"],
        ["mu", "verify", "--m", "1", "--k", "2", "--degree", "2"],
        ["mu", "verify", "--m", "1", "--k", "2", "--trials", "20"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "forge, match",
    [
        (lambda j: j._replace(gamma=2 * j.gamma), "matrix transport"),
        (lambda j: j._replace(specialized=j.specialized.scale(2)), "matrix transport"),
        # not singular, so the singular certificate sees it first
        (
            lambda j: j._replace(specialized=j.specialized.mul_monomial((1,) + (0,) * 7)),
            "Dunkl index",
        ),
    ],
    ids=["gamma_times_2", "member_times_2", "member_times_x1"],
)
def test_mu_verify_rejects_a_forged_family(forge, match, monkeypatch, capsys):
    # the first member of the (2, 2) family, forged
    import nsjack.cli as cli_module

    fam = family(2, 2)
    forged = fam._replace(members=(forge(fam.members[0]),) + fam.members[1:])
    monkeypatch.setattr(cli_module, "family_context", lambda *args: forged)
    code, out = run(capsys, "mu", "verify", "--m", "2", "--k", "2")
    assert code == 1
    assert out.startswith("FAILED: ") and match in out


@pytest.mark.parametrize(
    "command, match",
    [
        ("closure", "matrix transport"),
        # not singular, and mu verify runs the singular certificate first
        ("mu verify", "Dunkl index"),
    ],
    ids=["closure", "mu_verify"],
)
def test_a_member_off_in_one_coefficient_exits_1(command, match, monkeypatch, capsys):
    # one coefficient of the first (1, 2) member plus one: no scaling of a
    # member or of its gamma forges this
    import nsjack.cli as cli_module
    from nsjack.vectorpoly import VectorPoly

    fam = family(1, 2)
    first = fam.members[0]
    terms = dict(first.specialized.terms)
    key = next(iter(terms))
    terms[key] += 1
    first = first._replace(specialized=VectorPoly(first.specialized.shape, terms))
    forged = fam._replace(members=(first,) + fam.members[1:])
    monkeypatch.setattr(cli_module, "family_context", lambda *args: forged)
    code, out = run(capsys, *command.split(), "--m", "1", "--k", "2")
    assert code == 1
    assert out.startswith("FAILED: ") and match in out


def test_brickmap_cli(tmp_path, capsys):
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps([[8, 6, 5, 2], [7, 4, 3, 1]]))
    code, out = run(
        capsys, "--format", "json", "brickmap", "--tableau-json", str(path), "--m", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["beta"] == [1, 1, 1, 0, 1, 0, 0, 0]
    assert doc["tableau"] == [[8, 6], [7, 5], [4, 2], [3, 1]]


def test_jack_construct_cli(capsys):
    code, out = run(
        capsys,
        "--format", "json",
        "jack", "construct",
        "--alpha", "1,1,0,0",
        "--tableau-contents=-3,-2,-1,0",
        "--kappa", "1/3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == [1, 1, 0, 0]
    assert "specialized" in doc and "pole" not in doc


def test_jack_construct_cli_pole(capsys):
    code, out = run(
        capsys,
        "--format", "json",
        "jack", "construct",
        "--alpha", "0,1,0,1",
        "--tableau-contents=-3,-2,-1,0",
        "--kappa", "1/3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pole"] and doc["offending_exponents"] == [[0, 0, 1, 1]]


def test_apply_operator_cli(tmp_path, capsys):
    from nsjack.ratfunc import RatFunc

    poly = monomial((2, 2), (0, 0, 0, 0), 0, RatFunc.from_int(1))
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"shape": [2, 2], "poly": poly.to_json()}))
    code, out = run(
        capsys,
        "--format", "json",
        "apply-operator", "--op", "cherednik-prime", "--index", "2",
        "--input", str(path),
    )
    assert code == 0
    doc = json.loads(out)
    # constants are eigenfunctions; entry 2 of the first tableau has content 1
    assert doc["result"] == [
        {"exp": [0, 0, 0, 0], "tableau": [0, 1, -1, 0], "coeff": {"num": ["1"], "den": ["1"]}}
    ]


def test_apply_operator_over_q_kappa_on_a_family_member(tmp_path, capsys):
    # without --kappa the operators act over Q(kappa): cherednik-prime gives
    # the Jack polynomial times zeta'(i), dunkl the generic oracle's image
    from nsjack.ratfunc import KAPPA
    from nsjack.vectorpoly import VectorPoly

    jack = family(1, 2).members[0].jack
    path = tmp_path / "jack.json"
    doc = {"shape": list(jack.shape), "poly": jack.poly.to_json()}
    path.write_text(json.dumps(doc))
    for i in range(1, len(jack.alpha) + 1):
        images = {}
        for op in ("cherednik-prime", "dunkl"):
            argv = ["--format", "json", "apply-operator", "--op", op]
            code, out = run(capsys, *argv, "--index", str(i), "--input", str(path))
            assert code == 0
            result = json.loads(out)["result"]
            images[op] = VectorPoly.from_json(result, shape=jack.shape)
        assert images["cherednik-prime"] == jack.poly.scale(jack.spectral[i - 1])
        assert images["dunkl"] == dunkl_fractions(i, jack.poly, KAPPA)


# sha256 of the norms documents (json, then text) as recorded when norms
# still constructed the whole family
NORMS_SHA256 = {
    (1, 2): (
        "abdcce8d8694bf96dd99fcf9ea6a019f9dfe4d13c0ba225bfb2bf182a5fc0344",
        "05abc19ddd13b4436625c5402c782caece58f50c94bee97e249ebf0cbf6e041e",
    ),
    (2, 2): (
        "3eb09028150a611695c1e33913cbdf4a3027fe226d1e8d69c39cdd1530a6161f",
        "745b300367b3c09998a06d4c547eabd00e43c4d4ec2982adecdf32f6b8c32def",
    ),
    (1, 3): (
        "5ea7e69a0990a611d48b143f30c738c2ec13862015ee38b508c092b1412df276",
        "4b8ca8d514c9513c36b077cb98272499f2315eff584704fd2038d5f9baaa4697",
    ),
    (1, 4): (
        "5f5e00734d137d222a6b7741bd0f03abfa616bb4410d822c5fe73045933edfd3",
        "2569c15d1c76f1243adb0fbccd5086b161db65d564432f6c5db61d2fe20478d7",
    ),
}


@pytest.mark.parametrize("m, k", sorted(NORMS_SHA256))
def test_norms_output_is_pinned(m, k, capsys):
    import hashlib

    digests = []
    for fmt in ("json", "text"):
        code, out = run(capsys, "--format", fmt, "norms", "--m", str(m), "--k", str(k))
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == NORMS_SHA256[m, k]


# sha256 of the closure documents (json, then text) as recorded when
# closure still built a Jack polynomial for every hinge label; the n = 2
# family at kappa = 2/3 as recorded when closure checked its transports on
# VectorPoly sums (its text, which names no kappa, equals the n = 1 text)
CLOSURE_SHA256 = {
    (1, 2, 1): (
        "5ef7d6bc40ef75446acb0df853fe69b537435adcf0ce28e5a24fbcd859f92b75",
        "63dc14f8916b4b683f746bad1de691a41d495da3fcf980801ee235b2e4406353",
    ),
    (2, 2, 1): (
        "fefc419ec8fa5713a8f88cb4e742986eb85d3807d6d4341db7ecaf82106c57fb",
        "a9eed86f9f024231c88026cbdf1f9f81f1074da23a6b008ba439d47ee3b32a25",
    ),
    (1, 3, 1): (
        "5b4e34bd81d14a5208e4b0425cb9522f1889f2a90717904af42745a5701043db",
        "f09f57e30f6b8222b8582a7f17a73bb5dde1d223bba1c7a6d1e45405c040135b",
    ),
    (1, 3, 2): (
        "5a173d12d561d4e941e1318d019eb72577a84ca0ee360f3790ee93960c7274e2",
        "f09f57e30f6b8222b8582a7f17a73bb5dde1d223bba1c7a6d1e45405c040135b",
    ),
}


def family_id(case):
    """m-k for the n = 1 family, m-k-n otherwise."""
    return "-".join(map(str, case if case[2] != 1 else case[:2]))


@pytest.mark.parametrize("case", sorted(CLOSURE_SHA256), ids=family_id)
def test_closure_output_is_pinned(case, capsys):
    import hashlib

    m, k, n = map(str, case)
    digests = []
    for fmt in ("json", "text"):
        code, out = run(capsys, "--format", fmt, "closure", "--m", m, "--k", k, "--n", n)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == CLOSURE_SHA256[case]


# sha256 of the singular verify documents (json, then text) of the n = 2
# family at kappa = 2/3, as recorded before the operator kernels dropped
# their index subsets
SINGULAR_VERIFY_SHA256 = {
    (1, 3, 2): (
        "c173f152b5a1cd8eaffa85516c044324d88ba1cb06ede93336f6168ca06c7d78",
        "9354f62a85d9c3ee369e9e3eed8616d667a7b16ee592f990a560264846e9b5dd",
    ),
}


@pytest.mark.parametrize("case", sorted(SINGULAR_VERIFY_SHA256), ids=family_id)
def test_singular_verify_output_is_pinned(case, capsys):
    import hashlib

    m, k, n = map(str, case)
    digests = []
    for fmt in ("json", "text"):
        argv = ["--format", fmt, "singular", "verify", "--m", m, "--k", k, "--n", n]
        code, out = run(capsys, *argv)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == SINGULAR_VERIFY_SHA256[case]


# sha256 of the text documents that print a tableau, as recorded when the
# command line had a tableau formatter of its own
TABLEAU_TEXT_SHA256 = {
    "brickmap": "cdd562c24c4d93aa7bc1b29e9fb97c930a4593745e822842d5a746bdde49fcbf",
    "jack_construct": "f50fee36b9d999db0ff9ab00f21ff9b8c35f046d649f0e1d84da10f499f721ef",
}


@pytest.mark.parametrize("command", sorted(TABLEAU_TEXT_SHA256))
def test_tableau_text_is_pinned(command, tmp_path, capsys):
    import hashlib

    path = tmp_path / "tableau.json"
    path.write_text(json.dumps([[8, 6, 5, 2], [7, 4, 3, 1]]))
    argv = {
        "brickmap": ["brickmap", "--tableau-json", str(path), "--m", "2"],
        "jack_construct": [
            "jack", "construct", "--alpha", "1,1,0,0", "--tableau-contents=-3,-2,-1,0"
        ],
    }[command]
    code, out = run(capsys, "--format", "text", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLEAU_TEXT_SHA256[command]


# sha256 of the uniq check documents (json, then text) as recorded when
# the oracle still compared a Fraction spectral vector per candidate
UNIQ_SHA256 = {
    "1-2": (
        "5d9e1cac21862eead241b28008b0fe86c8b32ab2d1af5b7a81ade226f454473a",
        "dbe52047d576453cf43a4ad99093ceecfbd5d467be1635eea36267e2f9539028",
    ),
    "1-3": (
        "6454d640153912e87dbc99d07667f011b00eac51f138a6c954ec53545e995da5",
        "e629f3025c4d57bb31e070c23f5550332d608bf4e469e75a975f2b9452f049db",
    ),
    "2-2": (
        "b7ca524db2d26d0897dcafc7d1e2d34c673e61f3a93e3e7728bf8806af135326",
        "23ff036051f186eb24195f833c44e166ac559cb7f52bfd2f2536d1b2293e26e6",
    ),
    "2-2-s1-variant1": (
        "72c61f5355b26ee81ff7558ee27dbbdcbeb8b92da2e028419ab81f2fda0e67bf",
        "8e247356ee8c91c6143be2f92befa5da47aff6cd68b115e1bb18e97bd046d5ac",
    ),
    "2-2-s1-variant2": (
        "c4e7fe252c7173b441f80ee49005adc832269f2e7d5dc1fb40d8b6ee1df0387c",
        "8cbdfe89487d2f3420e070ac0578393ba5bfc9c030862fbd0a2b241f3cdb1377",
    ),
}


@pytest.mark.parametrize("case", sorted(UNIQ_SHA256))
def test_uniq_check_output_is_pinned(case, capsys):
    import hashlib

    m, k, *variant = case.split("-")
    argv = ["uniq", "check", "--m", m, "--k", k]
    if variant:
        argv += ["--s", variant[0][1:], "--variant", variant[1][-1]]
    digests = []
    for fmt in ("json", "text"):
        code, out = run(capsys, "--format", fmt, *argv)
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == UNIQ_SHA256[case]


# sha256 of the mu verify documents (json, then text) as recorded when
# mu verify first proved the module map from the two certificates
MU_SHA256 = {
    (1, 2): (
        "d0afc091c2e5aa76fd90ffb26577853f298674c49a28aa172fa39daa0dd9d666",
        "6b229e26c64aaaa7eba4a29076fdd32d2cd2051fae073f1c110b72130a2e74d9",
    ),
    (1, 3): (
        "0b576a7f951f8b94ea87733a8d684bcc3a277ea918def036b64e33540ecb7490",
        "a91332b9b264869809c2be5bb099910b4cdb431bb6236ec7b3116c2efe99e514",
    ),
    (2, 2): (
        "5ee777a06acc97fa1c54ceec7743651aa38947689d50b149276c13ec878259d0",
        "83c4c81c6b205938a759f64b3448de7ae5e12bc6e7ac95c57eef70ae57d7ea3d",
    ),
}


@pytest.mark.parametrize("m, k", sorted(MU_SHA256))
def test_mu_verify_output_is_pinned(m, k, capsys):
    import hashlib

    digests = []
    for fmt in ("json", "text"):
        code, out = run(capsys, "--format", fmt, "mu", "verify", "--m", str(m), "--k", str(k))
        assert code == 0
        digests.append(hashlib.sha256(out.encode()).hexdigest())
    assert tuple(digests) == MU_SHA256[m, k]


def test_byte_identical_output(capsys):
    argv = ["--format", "json", "norms", "--m", "1", "--k", "2"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["singular", "verify", "--m", "1"])  # missing --k
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["singular", "verify", "--m", "1", "--k", "2", "--bogus"])
    assert info.value.code == 2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["--format", "json", "--output", str(target), "uniq", "check", "--m", "1", "--k", "2"]
    )
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["unique"]


@pytest.mark.parametrize("where", ["missing_directory", "directory", "file_as_directory"])
def test_unwritable_output_exits_2_before_any_work(where, tmp_path, capsys, monkeypatch):
    # the path is checked before the handler runs, so no certificate is
    # computed for a document that cannot be written
    import nsjack.cli

    def handler(args):
        raise AssertionError("the handler ran")

    monkeypatch.setattr(nsjack.cli, "_cmd_example_n5", handler)
    (tmp_path / "file").write_text("")
    target = {
        "missing_directory": tmp_path / "absent" / "x.json",
        "directory": tmp_path,
        "file_as_directory": tmp_path / "file" / "x.json",
    }[where]
    code = main(["--output", str(target), "example", "n5"])
    assert_usage_error(code, capsys)


def test_text_format_renders_tableaux(capsys):
    code, out = run(capsys, "singular", "verify", "--m", "1", "--k", "2")
    assert code == 0
    assert "4 2" in out and "beta" in out


def test_certificate_round_trips_through_schema(capsys):
    import pathlib

    import jsonschema
    from referencing import Registry, Resource

    schema_dir = pathlib.Path(__file__).resolve().parent.parent / "docs" / "schemas"
    store = {}
    for path in schema_dir.glob("*.schema.json"):
        doc = json.loads(path.read_text())
        store[doc["$id"]] = doc
    registry = Registry().with_resources(
        (uri, Resource.from_contents(doc)) for uri, doc in store.items()
    )
    _, out = run(capsys, "--format", "json", "singular", "verify", "--m", "1", "--k", "2")
    cert = json.loads(out)
    jsonschema.validate(cert, store["urn:nsjack:certificate"], registry=registry)
    # lossless: re-serializing the parsed document is identical
    assert json.dumps(cert, indent=2) + "\n" == out


# stands for the path of a file holding a valid two-row tableau
TABLEAU_FILE = object()


@pytest.mark.parametrize(
    "argv",
    [
        ["singular", "verify", "--m", "0", "--k", "2"],  # m out of range
        ["singular", "verify", "--m", "2", "--k", "2", "--n", "2"],  # n not coprime to m+2
        ["jack", "construct", "--alpha", "1,x,0,0", "--tableau-contents=-3,-2,-1,0"],
        ["jack", "construct", "--alpha", "1,1,0,0", "--tableau-contents=-3,-2,y,0"],
        ["jack", "construct", "--alpha", "1,1,0,0", "--tableau-contents=0,5,0,0"],
        ["jack", "construct", "--alpha", "1,1", "--tableau-contents=-3,-2,-1,0"],
        [
            "jack", "construct", "--alpha", "1,1,0,0",
            "--tableau-contents=-3,-2,-1,0", "--kappa", "1/0",
        ],
        ["mu", "verify", "--m", "1", "--k", "1"],
        ["norms", "--m", "0", "--k", "2"],
        ["norms", "--m", "1", "--k", "1"],
        # a brick width below 1 is checked before it divides
        ["brickmap", "--tableau-json", TABLEAU_FILE, "--m", "0"],
        # m + 2 = 0 is checked before kappa = 1/(m+2) is formed
        ["uniq", "check", "--m", "-2", "--k", "2"],
        # a variant names one of the two swapped labels, which need --s
        ["uniq", "check", "--m", "1", "--k", "2", "--variant", "2"],
    ],
    ids=[
        "m0",
        "n_not_coprime",
        "alpha_int",
        "contents_int",
        "no_tableau",
        "label_length",
        "kappa_p_over_0",
        "mu_k1",
        "norms_m0",
        "norms_k1",
        "brickmap_m0",
        "uniq_m_minus_2",
        "uniq_variant_without_s",
    ],
)
def test_bad_parameters_exit_2_with_one_line(argv, tmp_path, capsys):
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps([[4, 3], [2, 1]]))
    argv = [str(path) if arg is TABLEAU_FILE else arg for arg in argv]
    assert_usage_error(main(argv), capsys)


def test_cherednik_prime_at_kappa_zero_exits_2(tmp_path, capsys):
    # U'_i has 1/kappa, so kappa = 0 is a bad parameter, not a traceback
    poly = monomial((2, 2), (1, 0, 0, 0), 0, 1)
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"shape": [2, 2], "poly": poly.to_json()}))
    argv = ["apply-operator", "--op", "cherednik-prime", "--index", "1"]
    assert_usage_error(main([*argv, "--input", str(path), "--kappa", "0"]), capsys)


def assert_usage_error(code, capsys) -> str:
    """The one line a usage error prints on standard error."""
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nsjack: error: ")
    return lines[0]


def test_brickmap_file_holding_no_tableau_exits_2(tmp_path, capsys):
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps([[1, 2], [3, 4]]))  # columns increase
    code = main(["brickmap", "--tableau-json", str(path), "--m", "1"])
    assert_usage_error(code, capsys)


@pytest.mark.parametrize(
    "content",
    ["[[4,2],[3,true]]", "[[4,2],[3,1.0]]", "[[4,2],[3,null]]", "[[4,2],3]", "5"],
    ids=["bool_entry", "float_entry", "null_entry", "bare_row_entry", "bare_integer"],
)
def test_brickmap_file_with_entries_that_are_not_integers_exits_2(
    content, tmp_path, capsys
):
    # JSON true is a Python int, and a float, null or bare entry is no row
    path = tmp_path / "tableau.json"
    path.write_text(content)
    code = main(["brickmap", "--tableau-json", str(path), "--m", "1"])
    assert_usage_error(code, capsys)


def test_optimized_interpreter_gives_identical_certificate():
    # the certificate's checks are raises, not asserts: -O changes nothing
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = ["-m", "nsjack.cli", "--format", "json", "singular", "verify", "--m", "1", "--k", "2"]
    outputs = [
        subprocess.run(
            [sys.executable, *flags, *argv], env=env, capture_output=True, timeout=300
        )
        for flags in ([], ["-O"])
    ]
    assert [p.returncode for p in outputs] == [0, 0]
    assert outputs[0].stdout == outputs[1].stdout
    assert json.loads(outputs[1].stdout)["verified"] is True


def test_closed_pipe_ends_quietly():
    # a reader that stops early (| head) closes the pipe before the child
    # writes: no BrokenPipeError traceback, and the handler's exit code
    import os
    import pathlib
    import subprocess
    import sys

    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    argv = ["-m", "nsjack.cli", "--format", "json", "norms", "--m", "1", "--k", "2"]
    proc = subprocess.Popen(
        [sys.executable, *argv],
        env=dict(os.environ, PYTHONPATH=str(src)),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=300) == 0
    assert err == b""


def test_console_script_target_and_module_entry_point():
    # the [project.scripts] line names nsjack.cli:main, and the module runs
    # as a program; the installed console script needs a package install,
    # so this checks both halves of it without one (CPython 3.10 has no
    # tomllib, so the one section is read line by line)
    import importlib
    import os
    import pathlib
    import subprocess
    import sys

    root = pathlib.Path(__file__).resolve().parent.parent
    section, scripts = None, {}
    for line in (root / "pyproject.toml").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, _, target = line.partition("=")
            scripts[name.strip()] = target.strip().strip("\"'")
    assert scripts == {"nsjack": "nsjack.cli:main"}
    module, _, attr = scripts["nsjack"].partition(":")
    assert getattr(importlib.import_module(module), attr) is main
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "nsjack.cli", "--format", "json", "example", "n5"],
        env=env,
        capture_output=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kappa"] == "1/2"


# -- failed checks: one exit-1 document, whatever the command -----------------


def assert_failure_document(code, capsys, match):
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    doc = json.loads(captured.out)
    assert doc["verified"] is False and match in doc["error"]


def test_norms_with_a_forged_gamma_exits_1(monkeypatch, capsys):
    import nsjack.singular as singular_module

    # the second source of (1, 2) is the lower end of the one permissible step
    low = singular_module.brick_pairs(1, 2)[1].source
    real = singular_module.gamma_factor
    monkeypatch.setattr(
        singular_module,
        "gamma_factor",
        lambda pair: 2 * real(pair) if pair.source == low else real(pair),
    )
    code = main(["--format", "json", "norms", "--m", "1", "--k", "2"])
    assert_failure_document(code, capsys, "gamma recursion")


def _hide_the_steps_of(low, high, i, steps):
    # the lower source then has no step, so it never reaches the top source
    return (lambda tab, j: tab != low and steps(tab, j)), str(low.rows)


def _step_down_from(low, high, i, steps):
    # the step reversed, high -> low, lowers inv by one
    return (
        (lambda tab, j: (tab, j) == (high, i) or steps(tab, j)),
        f"step {i} at {high.rows} does not raise inv by one",
    )


@pytest.mark.parametrize("forge", [_hide_the_steps_of, _step_down_from])
def test_norms_with_a_forged_step_exits_1(forge, monkeypatch, capsys):
    # every source must climb to the top source by steps that raise inv by one
    import re

    from nsjack import combinatorics
    from nsjack.singular import norms_and_gamma

    steps, top = combinatorics.is_permissible_step, combinatorics.max_inv_source(2, 2)
    low, i = next(
        (source, i)
        for source in combinatorics.enumerate_rsyt((4, 4))
        if source != top
        for i in range(1, 8)
        if steps(source, i)
    )
    high = combinatorics.apply_permissible_step(low, i)
    forged, match = forge(low, high, i, steps)
    monkeypatch.setattr(combinatorics, "is_permissible_step", forged)
    with pytest.raises(AssertionError, match=re.escape(match)):
        norms_and_gamma(2, 2)
    code = main(["--format", "json", "norms", "--m", "2", "--k", "2"])
    assert_failure_document(code, capsys, match)


def _scalar_times_2(rule, label):
    return rule._replace(scalar=rule.scalar + rule.scalar)


def _target_is_the_label(rule, label):
    return rule._replace(target=label)


@pytest.mark.parametrize(
    "command, forge, match",
    [
        (["closure"], _scalar_times_2, "generic case fails"),
        (["closure"], _target_is_the_label, "generic case fails"),
        (["norms"], _scalar_times_2, "gamma recursion fails"),
        (["norms"], _target_is_the_label, "rule's target"),
        (["mu", "verify"], _scalar_times_2, "generic case fails"),
        (["mu", "verify"], _target_is_the_label, "generic case fails"),
    ],
    ids=[
        f"{command}-{forgery}"
        for command in ("closure", "norms", "mu_verify")
        for forgery in ("scalar_times_2", "target_is_the_label")
    ],
)
def test_a_forged_reflection_rule_exits_1(command, forge, match, monkeypatch, capsys):
    # closure, norms and (through closure) mu verify take every predicted
    # label and scalar from the one rule
    import nsjack.singular as singular_module

    real = singular_module.reflection_rule
    monkeypatch.setattr(
        singular_module,
        "reflection_rule",
        lambda alpha, tableau, i: forge(real(alpha, tableau, i), (alpha, tableau)),
    )
    code = main(["--format", "json", *command, "--m", "1", "--k", "2"])
    assert_failure_document(code, capsys, match)


def test_brickmap_failing_the_content_identity_exits_1(monkeypatch, tmp_path, capsys):
    import nsjack.singular as singular_module

    real = singular_module.rank_permutation
    monkeypatch.setattr(
        singular_module, "rank_permutation", lambda beta: tuple(reversed(real(beta)))
    )
    path = tmp_path / "tableau.json"
    path.write_text(json.dumps([[8, 6, 5, 2], [7, 4, 3, 1]]))
    argv = ["--format", "json", "brickmap", "--tableau-json", str(path), "--m", "2"]
    assert_failure_document(main(argv), capsys, "brick content identity")


def _annihilating_factor(monkeypatch, jack_module):
    monkeypatch.setattr(
        jack_module,
        "_projection_factors",
        lambda alpha, tableau, *rest: [(1, jack_module.spectral_pairs(alpha, tableau)[0])],
    )
    return "annihilates the label"


def _foreign_column(monkeypatch, jack_module):
    foreign = (9, 0, 0, 0)  # below no label of the (1, 2) family

    def column(i, exp, tab, ctx, base):
        offset = (exponent_code(foreign, base) - exponent_code(exp, base)) * ctx.dim
        return 0, 0, [offset], [1]

    monkeypatch.setattr(jack_module, "uprime_column", column)
    return "not invariant"


@pytest.mark.parametrize(
    "forge",
    [_annihilating_factor, _foreign_column],
    ids=["zero_denominator", "basis_invariance"],
)
def test_singular_verify_with_a_raising_constructor_guard_exits_1(
    forge, monkeypatch, capsys
):
    import nsjack.jack as jack_module

    match = forge(monkeypatch, jack_module)
    code = main(["--format", "json", "singular", "verify", "--m", "1", "--k", "2"])
    assert_failure_document(code, capsys, match)


# -- apply-operator: indices and input files are usage errors -------------------


def _poly_file(tmp_path):
    from nsjack.ratfunc import RatFunc

    poly = monomial((2, 2), (1, 0, 2, 0), 0, RatFunc.from_int(1))
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"shape": [2, 2], "poly": poly.to_json()}))
    return path


@pytest.mark.parametrize("index", [-1, 0, 5, 9])
def test_apply_operator_index_out_of_range_exits_2(index, tmp_path, capsys):
    argv = ["apply-operator", "--op", "dunkl", "--index", str(index)]
    argv += ["--input", str(_poly_file(tmp_path)), "--kappa", "1/3"]
    assert_usage_error(main(argv), capsys)


def _one_term(exp, coeff, tableau=(-1, 0)):
    return json.dumps(
        {"poly": [{"exp": exp, "tableau": list(tableau), "coeff": coeff}]}
    )


@pytest.mark.parametrize(
    "content",
    [
        None,
        json.dumps({"shape": [2, 2]}),
        "{not json",
        "[1, 2]",
        _one_term([-1, 0], "1/1"),
        _one_term([1.5, 0], "1/1"),
        _one_term([1, 0], "1/0"),
        _one_term([1, 0], {"num": ["1"], "den": ["0"]}),
        _one_term([1, 0], {"num": [1.5], "den": ["1"]}),
        _one_term([1, 0], {"num": "12", "den": "1"}),
        _one_term([1, 0], {"num": [True], "den": ["1"]}),
        _one_term([1, 0], "1/1", tableau=(-1.0, 0.0)),
    ],
    ids=[
        "missing_file",
        "no_poly_key",
        "not_json",
        "not_a_document",
        "negative_exponent",
        "fractional_exponent",
        "zero_denominator",
        "zero_ratfunc_denominator",
        "float_ratfunc_digit",
        "string_ratfunc_digits",
        "bool_ratfunc_digit",
        "float_tableau_contents",
    ],
)
def test_apply_operator_bad_input_file_exits_2(content, tmp_path):
    # in a child process under a timeout: a negative exponent once made the
    # digit read-back loop forever
    import os
    import pathlib
    import subprocess
    import sys

    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    argv = ["-m", "nsjack.cli", "apply-operator", "--op", "dunkl", "--index", "1"]
    proc = subprocess.run(
        [sys.executable, *argv, "--input", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("nsjack: error: ")


def test_apply_operator_pole_at_kappa_exits_2(tmp_path, capsys):
    # the coefficient 1/kappa has a pole at the requested kappa: a bad
    # parameter of a command that verifies nothing, not a failed check
    path = tmp_path / "input.json"
    path.write_text(_one_term([1, 0], {"num": [1], "den": [0, 1]}))
    argv = ["apply-operator", "--op", "dunkl", "--index", "1"]
    assert_usage_error(main([*argv, "--input", str(path), "--kappa", "0"]), capsys)


@pytest.mark.parametrize(
    "shape, tableaux, message",
    [
        ([2, 2], [[-1, 0]], "[-1, 0] are not of shape (2, 2)"),
        (None, [[-1, 0], [1, 0]], "[1, 0] are not of shape (1, 1)"),
    ],
    ids=["declared_shape", "two_shapes"],
)
def test_apply_operator_contents_of_another_shape_exit_2(
    shape, tableaux, message, tmp_path, capsys
):
    # without a declared shape, the first term's tableau fixes it
    terms = [{"exp": [1, 0], "tableau": t, "coeff": "1/1"} for t in tableaux]
    doc = {"poly": terms} if shape is None else {"shape": shape, "poly": terms}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = ["apply-operator", "--op", "dunkl", "--index", "1", "--input", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"nsjack: error: {path} holds no polynomial: "
        f"ValueError('tableau contents {message}')\n"
    )


@pytest.mark.parametrize(
    "shape",
    [[-2], [2.5], [True], [1, 2], [2, 0, 1]],
    ids=["negative_part", "float_part", "bool_part", "increasing", "zero_inside"],
)
def test_apply_operator_declared_shape_that_is_no_partition_exits_2(
    shape, tmp_path, capsys
):
    # no tableau of an empty polynomial checks the declared shape
    path = tmp_path / "input.json"
    path.write_text(json.dumps({"shape": shape, "poly": []}))
    argv = ["apply-operator", "--op", "dunkl", "--index", "1", "--input", str(path)]
    line = assert_usage_error(main(argv), capsys)
    declared = json.dumps(shape)
    assert line == f"nsjack: error: {path} declares shape {declared}, not a partition"


@pytest.mark.parametrize("command", ["jack construct", "apply-operator"])
def test_kappa_with_zero_denominator_exits_2(command, tmp_path, capsys):
    if command == "jack construct":
        argv = ["jack", "construct", "--alpha", "1,1,0,0"]
        argv += ["--tableau-contents=-3,-2,-1,0"]
    else:
        argv = ["apply-operator", "--op", "dunkl", "--index", "1"]
        argv += ["--input", str(_poly_file(tmp_path))]
    line = assert_usage_error(main([*argv, "--kappa", "1/0"]), capsys)
    assert line == "nsjack: error: bad kappa '1/0': zero denominator"


@pytest.mark.parametrize("kappa", ["1/2/3", "abc", "1/"])
@pytest.mark.parametrize("command", ["jack construct", "apply-operator"])
def test_kappa_of_no_rational_form_exits_2(command, kappa, tmp_path, capsys):
    if command == "jack construct":
        argv = ["jack", "construct", "--alpha", "1,1,0,0"]
        argv += ["--tableau-contents=-3,-2,-1,0"]
    else:
        argv = ["apply-operator", "--op", "dunkl", "--index", "1"]
        argv += ["--input", str(_poly_file(tmp_path))]
    line = assert_usage_error(main([*argv, "--kappa", kappa]), capsys)
    assert line == f"nsjack: error: bad kappa {kappa!r}: expected an integer or p/q"


@pytest.mark.parametrize("op", ["dunkl", "cherednik", "cherednik-prime", "jucys-murphy"])
def test_apply_operator_on_the_zero_polynomial_builds_no_context(op, tmp_path):
    # the seminormal context of (12, 12) has 208,012 tableaux; the zero
    # polynomial has the zero image without it, in a child process under a
    # timeout
    import os
    import pathlib
    import subprocess
    import sys

    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"shape": [12, 12], "poly": []}))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    argv = ["-m", "nsjack.cli", "--format", "json", "apply-operator", "--op", op]
    proc = subprocess.run(
        [sys.executable, *argv, "--index", "1", "--input", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"] == []


@pytest.mark.parametrize(
    "index, kappa, message",
    [
        ("1", "0", "U'_i has 1/kappa, so kappa = 0 is not a valid value"),
        ("25", "1/3", "index 25 outside 1..24"),
    ],
    ids=["kappa_0", "index_25"],
)
def test_apply_operator_on_the_zero_polynomial_checks_its_parameters(
    index, kappa, message, tmp_path, capsys
):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"shape": [12, 12], "poly": []}))
    argv = ["apply-operator", "--op", "cherednik-prime", "--index", index]
    line = assert_usage_error(main([*argv, "--input", str(path), "--kappa", kappa]), capsys)
    assert line == f"nsjack: error: {message}"


def test_apply_operator_top_index_is_in_range(tmp_path, capsys):
    argv = ["--format", "json", "apply-operator", "--op", "jucys-murphy"]
    argv += ["--index", "4", "--input", str(_poly_file(tmp_path))]
    code, out = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["result"] == []
