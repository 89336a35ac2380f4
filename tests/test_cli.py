"""Command-line interface: exit codes, document round-trips, determinism."""

import argparse
import gc
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import freecert
from freecert import analyze_pair, build_witness_chain, build_model, chain_base_points, validate_certificate
from freecert.cli import _json_text, _write_doc, build_parser, main

MODELS = {
    "f2.json": {"kind": "free-group", "rank": 2, "cap": 512},
    "f2-8192.json": {"kind": "free-group", "rank": 2, "cap": 8192},
    "zxz2.json": {"kind": "free-product", "cap": 256},
    "c4.json": {"kind": "cycle", "n": 4},
    "c3.json": {"kind": "cycle", "n": 3},
    "c500.json": {"kind": "cycle", "n": 500},
    "f1000.json": {"kind": "free-group", "rank": 1000},
    # K9 with a 9-cycle and a transposition: they generate S9, 362,880 elements.
    "k9.json": {
        "kind": "explicit-graph",
        "adjacency": [[u for u in range(9) if u != v] for v in range(9)],
        "generators": [[(v + 1) % 9 for v in range(9)], [1, 0, 2, 3, 4, 5, 6, 7, 8]],
    },
}


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("models")
    for name, spec in MODELS.items():
        (d / name).write_text(json.dumps(spec))
    return d


def run(model_dir, *argv):
    return main([str(a).replace("@", str(model_dir) + "/") for a in argv])


def test_exit_code_matrix(model_dir, tmp_path, capsys):
    cert_out = tmp_path / "nielsen.json"
    matrix = [
        # (expected exit code, argv)
        (0, ["delta", "--model", "@c4.json"]),
        (0, ["delta", "--model", "@f2.json", "--radius", "3"]),
        (0, ["profile", "--model", "@f2.json", "--a", "aba'"]),
        (0, ["overlap", "--model", "@f2.json", "--a", "a", "--b", "ab"]),
        (0, ["acyl", "--model", "@c4.json", "--radii", "0,1"]),
        (0, ["certify", "--model", "@f2.json", "--a", "a", "--b", "b",
             "--criterion", "nielsen", "--depth", "3", "--out", str(cert_out)]),
        (0, ["sweep", "--model", "@zxz2.json", "--a", "ffs", "--b", "ff", "--range", "1:2", "--depth", "4"]),
        (1, ["certify", "--model", "@f2.json", "--a", "a", "--b", "aa", "--criterion", "nielsen"]),
        (1, ["certify", "--model", "@zxz2.json", "--a", "fs", "--b", "f", "--criterion", "nielsen",
             "--epsilon-mode", "sharp-experimental", "--epsilon", "1", "--exponents", "1,1"]),
        # Certified, but the oracle check outgrows the model cap: unchecked, not invalid input.
        (1, ["certify", "--model", "@zxz2.json", "--a", "f", "--b", "sfs", "--criterion", "nielsen",
             "--out", str(tmp_path / "capped.json")]),
        (1, ["certify", "--model", "@f2.json", "--a", "a", "--b", "b", "--criterion", "prop6",
             "--out", str(tmp_path / "capped.json")]),
        # The sharp-mode back-check outgrows the cap: refused as unchecked, not invalid input.
        (1, ["certify", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--criterion", "nielsen",
             "--epsilon-mode", "sharp-experimental", "--epsilon", "1", "--exponents", "200,200"]),
        # C3 measures delta = 0 but is not a tree: refused, with the way out.
        (1, ["certify", "--model", "@c3.json", "--a", "r", "--b", "rr", "--criterion", "nielsen"]),
        (1, ["chain", "--model", "@c3.json", "--a", "r", "--b", "rr", "--word", "ab", "--E", "101", "--Q", "1"]),
        (2, ["certify", "--model", "@f2.json", "--a", "a", "--b", "b", "--criterion", "bogus"]),
        (2, ["delta", "--model", "@missing.json"]),
        (2, ["profile", "--model", "@f2.json", "--a", "q"]),
        # Numbers out of range are invalid input, not a document of nonsense.
        (2, ["delta", "--model", "@c4.json", "--budget", "0"]),
        (2, ["delta", "--model", "@c4.json", "--budget", "-3"]),
        (2, ["profile", "--model", "@c4.json", "--a", "r", "--delta", "-2"]),
        (2, ["overlap", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--delta", "-1"]),
        (2, ["overlap", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--c", "-1"]),
        (2, ["profile", "--model", "@f2.json", "--a", "ab", "--window", "0"]),
        # Flags a command does not read are refused.
        (2, ["acyl", "--model", "@c4.json", "--radii", "1", "--delta", "1"]),
        (2, ["sweep", "--model", "@f2.json", "--a", "a", "--b", "b", "--range", "1:2", "--window", "3"]),
    ]
    for expected, argv in matrix:
        capsys.readouterr()
        assert run(model_dir, *argv) == expected, argv
        if "@c3.json" in argv:
            err = capsys.readouterr().err
            assert err.startswith("refused: delta = 0 (brute-forced) on a graph that is not a tree") and "--delta" in err
        if "200,200" in argv:
            assert capsys.readouterr().err.startswith("refused: oracle back-check could not run")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["delta", "--model", "@c4.json", "--budget", "0"], "triple budget must be >= 1, got 0"),
        (["profile", "--model", "@c4.json", "--a", "r", "--delta", "-2"], "delta must be >= 0, got -2"),
        (["overlap", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--delta", "-1"], "delta must be >= 0, got -1"),
        (["overlap", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--c", "-1"],
         "overlap radius c must be >= 0, got -1"),
        (["profile", "--model", "@f2.json", "--a", "ab", "--window", "0"], "window must be >= 1, got 0"),
        (["sweep", "--model", "@f2.json", "--a", "a", "--b", "b", "--range", "1:1,1:1,5:9"],
         "exponent range '1:1,1:1,5:9' has more than two parts"),
        (["sweep", "--model", "@f2.json", "--a", "a", "--b", "b", "--range", "5:9,"],
         "exponent range '5:9,' has a malformed part ''"),
        (["sweep", "--model", "@f2.json", "--a", "a", "--b", "b", "--range", ":3"],
         "exponent range ':3' has a malformed part ':3'"),
        (["sweep", "--model", "@f2.json", "--a", "a", "--b", "b", "--range", "a:b"],
         "exponent range 'a:b' has a malformed part 'a:b'"),
        (["certify", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--criterion", "nielsen", "--exponents", "5",
          "--no-verify"], "explicit exponents must be two integers, got (5,)"),
        (["certify", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--criterion", "nielsen",
          "--epsilon-mode", "sharp-experimental", "--epsilon", "1", "--exponents=0,0"],
         "explicit exponents must be >= 1, got (0, 0)"),
        (["certify", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--criterion", "nielsen",
          "--epsilon-mode", "sharp-experimental", "--epsilon", "1", "--exponents=-2,-2"],
         "explicit exponents must be >= 1, got (-2, -2)"),
        (["certify", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--criterion", "prop6", "--q", "0",
          "--no-verify"], "q must be >= 1"),
    ],
    ids=["budget", "profile-delta", "overlap-delta", "overlap-c", "window", "range-parts",
         "range-trailing-comma", "range-no-low", "range-letters", "exponents-one", "exponents-zero",
         "exponents-negative", "prop6-q"],
)
def test_out_of_range_number_names_its_bound(model_dir, capsys, argv, message):
    assert run(model_dir, *argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["certify", "--criterion", "prop6", "--q", "1/0"], "argument --q: invalid fraction value: '1/0'"),
        (["certify", "--criterion", "nielsen", "--q", "x"], "argument --q: invalid fraction value: 'x'"),
        (["certify", "--criterion", "nielsen", "--epsilon", ""], "argument --epsilon: invalid fraction value: ''"),
        (["certify", "--criterion", "nielsen", "--exponents", ""],
         "argument --exponents: invalid int_list value: ''"),
        (["chain", "--word", "ab", "--E", "1/0", "--Q", "1"], "argument --E: invalid fraction value: '1/0'"),
        (["acyl", "--radii", "1,x"], "argument --radii: invalid int_list value: '1,x'"),
    ],
    ids=["q-zero-denominator", "q-letter", "epsilon-empty", "exponents-empty", "E-zero-denominator", "radii"],
)
def test_a_malformed_number_is_refused_by_its_flag(model_dir, capsys, argv, message):
    command, *flags = argv
    elements = [] if command == "acyl" else ["--a", "a", "--b", "b"]
    capsys.readouterr()
    assert run(model_dir, command, "--model", "@f2.json", *elements, *flags) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--word", "x", "unknown generator letter 'x' (expected one of ['a', 'b'])"),
        ("--word", "", "chain words must be nonempty"),
        ("--word", "aA", "word is not freely reduced over the two letters"),
        ("--Q", "0", "Q must be >= 1"),
        ("--E", "0", "epsilon must exceed 100 * delta"),
    ],
    ids=["letter", "empty", "unreduced", "Q", "E"],
)
def test_chain_refuses_its_inputs_before_measuring_the_axes(model_dir, capsys, monkeypatch, flag, value, message):
    def forbidden(*args, **kwargs):
        raise AssertionError("the chain's inputs are checked before its axes are measured")

    monkeypatch.setattr(freecert.cli, "analyze_pair", forbidden)
    flags = {"--word": "ab", "--E": "1/1000", "--Q": "1", flag: value}
    argv = ["chain", "--model", "@f2.json", "--a", "a", "--b", "b"] + [t for kv in flags.items() for t in kv]
    capsys.readouterr()
    assert run(model_dir, *argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_certify_writes_valid_document_and_verify_reproduces(model_dir, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = run(
        model_dir,
        "certify", "--model", "@f2.json", "--a", "a", "--b", "b",
        "--criterion", "nielsen", "--depth", "3", "--out", str(cert_path),
    )
    assert code == 0
    doc = json.loads(cert_path.read_text())
    validate_certificate(doc)
    assert doc["exponents"] == {"n_min": 100, "m_min": 100}
    assert doc["verification"]["verdict"] == "free-to-depth"

    capsys.readouterr()
    assert main(["verify", "--certificate", str(cert_path), "--depth", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "free-to-depth"


def test_capped_oracle_check_is_written_as_unchecked(model_dir, tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = run(model_dir, "certify", "--model", "@zxz2.json", "--a", "f", "--b", "sfs",
               "--criterion", "nielsen", "--out", str(cert_path))
    assert code == 1
    doc = json.loads(cert_path.read_text())
    validate_certificate(doc)
    reason = "word length 300 exceeds expansion cap 256"
    assert doc["verification"] == {"verdict": "unchecked", "reason": reason}

    capsys.readouterr()
    assert main(["verify", "--certificate", str(cert_path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert (out["verdict"], out["reason"]) == ("unchecked", reason)


def test_a_claimed_power_too_long_to_form_is_unchecked_at_once(tmp_path, capsys):
    # a = ab at n = 10**12 is 2 * 10**12 letters long: refused before it is formed.
    cert = _certificate_with(tmp_path, elements={"a": [1, 2], "b": [2]}, exponents={"n_min": 10**12, "m_min": 101})
    capsys.readouterr()
    start = time.perf_counter()
    assert main(["verify", "--certificate", str(cert)]) == 1
    assert time.perf_counter() - start < 1
    out = json.loads(capsys.readouterr().out)
    assert (out["verdict"], out["reason"]) == ("unchecked", "word length 2000000000000 exceeds expansion cap 512")


def test_sweep_document_matches_expected_relation(model_dir, capsys):
    code = run(model_dir, "sweep", "--model", "@zxz2.json", "--a", "ffs", "--b", "ff",
               "--range", "1:3", "--depth", "4")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert [1, 1] in doc["exceptional_pairs"]
    hit = [r for r in doc["rows"] if (r["n"], r["m"]) == (1, 1)][0]
    assert hit["verdict"] == "relation-found"


def test_capped_sweep_cell_is_unchecked_with_the_reason(model_dir, capsys):
    code = run(model_dir, "sweep", "--model", "@zxz2.json", "--a", "ffs", "--b", "ff",
               "--range", "60:60", "--depth", "3")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == [{"n": 60, "m": 60, "verdict": "unchecked", "witness": None,
                            "reason": "word length 360 exceeds expansion cap 256"}]


def test_a_level_1_relation_sweeps_past_any_power_of_b(model_dir, capsys):
    # a = s has order 2: the relation comes at level 1, before b^m is read.
    code = run(model_dir, "sweep", "--model", "@zxz2.json", "--a", "s", "--b", "f",
               "--range", "1:1,30000000:30000000", "--depth", "2")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["exceptional_pairs"] == [[1, 30000000]]


def test_a_sweep_deeper_than_the_word_budget_is_unchecked(model_dir, capsys):
    start = time.perf_counter()
    code = run(model_dir, "sweep", "--model", "@f2.json", "--a", "a", "--b", "b", "--range", "1:1", "--depth", "20")
    assert code == 0
    assert time.perf_counter() - start < 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == [{"n": 1, "m": 1, "verdict": "unchecked", "witness": None,
                            "reason": "the words to depth 20 could pass the word budget of 100000"}]


def test_a_paper_literal_epsilon_is_refused(model_dir, capsys):
    code = run(model_dir, "certify", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--criterion", "nielsen",
               "--epsilon", "5", "--no-verify")
    assert code == 1
    captured = capsys.readouterr()
    assert captured.err == "refused: an explicit epsilon is only allowed in sharp-experimental mode\n"
    assert captured.out == ""


def test_a_negative_acyl_radius_is_invalid_input(model_dir, capsys):
    assert run(model_dir, "acyl", "--model", "@c4.json", "--radii=-3,0") == 2
    captured = capsys.readouterr()
    assert captured.err == "error: radius R must be >= 0, got -3\n" and captured.out == ""


def test_profile_of_a_finite_rotation_is_not_hyperbolic(model_dir, capsys):
    # delta is brute-forced as 0 on an arc of the 500-cycle, where the displacement
    # criterion passes; the rotation still has finite order, so: "no", and no axis.
    assert run(model_dir, "profile", "--model", "@c500.json", "--a", "r") == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["delta"], doc["tr"], doc["hyperbolic"], doc["criterion1_power"]) == (0, "0", "no", None)
    assert "axis" not in doc


def test_an_oversized_ball_is_refused_fast(model_dir, capsys):
    start = time.perf_counter()
    assert run(model_dir, "delta", "--model", "@f1000.json") == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err.startswith("error: a ball of radius 4 holds more than")


def test_an_oversized_group_is_refused_fast(model_dir, capsys):
    start = time.perf_counter()
    assert run(model_dir, "delta", "--model", "@k9.json") == 2
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().err == "error: the generated group has more than 100000 elements\n"


def test_delta_c4_reports_one(model_dir, capsys):
    assert run(model_dir, "delta", "--model", "@c4.json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"] == 1 and doc["exhaustive"]


def test_chain_subcommand(model_dir, capsys):
    code = run(model_dir, "chain", "--model", "@f2.json", "--a", "a", "--b", "b",
               "--word", "ab", "--E", "1/1000", "--Q", "1")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["case"] == "I"
    assert doc["failures"] == []


@pytest.mark.parametrize("command, code", [("overlap", 2), ("certify", 1), ("chain", 1)])
@pytest.mark.parametrize("a, b, named", [("s", "f", "a"), ("ff", "fsF", "b"), ("fs", "s", "b")])
def test_an_element_that_is_not_hyperbolic_is_refused_by_name(model_dir, capsys, command, code, a, b, named):
    # s and its conjugate f s f' flip an edge: translation length 0.  overlap
    # refuses it as invalid input (2); certify and chain refuse the pair (1).
    extra = {"overlap": [], "certify": ["--criterion", "nielsen", "--no-verify"],
             "chain": ["--word", "ab", "--E", "1/1000", "--Q", "1"]}[command]
    assert run(model_dir, command, "--model", "@zxz2.json", "--a", a, "--b", b, *extra) == code
    prefix = "error" if code == 2 else "refused"
    assert capsys.readouterr().err == f"{prefix}: {named} is not hyperbolic: translation length 0\n"


def test_theorem9_certifies_a_long_power_by_its_nielsen_step(model_dir, capsys):
    # tau(b) / tau(a) = 1/570 is at most N6 / M = 204/116040 at delta = 0, so
    # theorem9's second step certifies a real element, with M as both exponents.
    code = run(model_dir, "certify", "--model", "@f2-8192.json", "--a", "a" * 570, "--b", "b",
               "--criterion", "theorem9", "--window", "1", "--no-verify")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["details"]["branch"] == "step2-nielsen"
    assert (doc["exponents"]["n_min"], doc["exponents"]["m_min"]) == (116040, 116040)


def test_a_window_shorter_than_the_shared_axis_bounds_D_with_a_caveat(model_dir, capsys):
    # The axes of a^50 b and a share 50 edges, but a 13-edge window sees only
    # 13 of them: the overlap touches a window end, so D = 13 is a lower bound
    # and the certificate says so.
    code = run(model_dir, "certify", "--model", "@f2-8192.json", "--a", "a" * 50 + "b", "--b", "a",
               "--criterion", "nielsen", "--window", "13", "--no-verify")
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["caveats"] == ["window-bounded-D"]
    assert doc["constants"]["D"] == {"value": 13, "provenance": "brute-forced"}
    assert (doc["exponents"]["n_min"], doc["exponents"]["m_min"]) == (3, 113)


@pytest.mark.parametrize(
    "criterion, exponents, branch",
    [("nielsen", (110, 110), None), ("theorem9", (26475586440, 26475586440), "step1-prop6")],
)
def test_brute_forced_acylindricity_constants_carry_the_empirical_acyl_caveat(capsys, criterion, exponents, branch):
    # At --delta 1 on F2 the acylindricity constants are found by search, not
    # by the tree formula, so the certificate says its K, L and P are empirical.
    code = main(["certify", "--model", str(REPO / "demos/models/f2.json"), "--a", "ab", "--b", "ba",
                 "--criterion", criterion, "--delta", "1", "--no-verify"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["caveats"] == ["empirical-acyl"]
    assert (doc["exponents"]["n_min"], doc["exponents"]["m_min"]) == exponents
    constants = doc["constants"]
    assert {name: constants[name]["provenance"] for name in ("P", "K20", "L20", "K200", "L200", "delta")} == {
        "P": "brute-forced", "K20": "brute-forced", "L20": "brute-forced",
        "K200": "brute-forced", "L200": "brute-forced", "delta": "config-override",
    }
    if branch is not None:
        assert doc["details"]["branch"] == branch
        assert constants["D"]["value"] == 20


@pytest.mark.parametrize("verify", [[], ["--no-verify"]])
def test_certify_refuses_a_depth_below_one_before_any_work(capsys, monkeypatch, verify):
    def forbidden(*args, **kwargs):
        raise AssertionError("the depth is refused before the certificate is built")

    monkeypatch.setattr(freecert.cli, "resolve_constants", forbidden)
    monkeypatch.setattr(freecert.certifier, "analyze_pair", forbidden)
    capsys.readouterr()
    code = main(["certify", "--model", str(REPO / "demos/models/f2.json"), "--a", "ab", "--b", "ba",
                 "--criterion", "prop6", "--delta", "1", "--depth", "0", *verify])
    assert code == 2
    assert capsys.readouterr() == ("", "error: depth must be >= 1\n")


def test_chain_resolves_no_acylindricity_constants(model_dir, capsys, monkeypatch):
    # The chain reads only delta, so at delta >= 1 it must not pay for P, K and L.
    def refuse(*args, **kwargs):
        raise AssertionError("chain called acyl_profile")

    for module in (freecert.acylindricity, freecert.certifier, freecert.cli):
        monkeypatch.setattr(module, "acyl_profile", refuse)
    code = run(model_dir, "chain", "--model", "@f2.json", "--a", "a", "--b", "b",
               "--word", "ab", "--E", "101", "--Q", "1", "--delta", "1")
    doc = json.loads(capsys.readouterr().out)

    model = build_model(MODELS["f2.json"])
    analysis = analyze_pair(model, (1,), (2,), 1)
    x, y = chain_base_points(analysis)
    chain = build_witness_chain(model, (1, 2), (1,), (2,), x, y, Fraction(101), 1, 1)
    assert doc == json.loads(json.dumps({"command": "chain", **chain.to_doc()}))
    assert code == 1 and doc["three_points"]["delta"] == 1


SHARP = ["--epsilon-mode", "sharp-experimental", "--epsilon", "1", "--exponents", "3,3"]


@pytest.mark.parametrize(
    "flags, verified", [(SHARP, True), ([], True), ([*SHARP, "--no-verify"], False)],
    ids=["sharp", "paper-literal", "sharp-no-verify"],
)
def test_certify_runs_the_oracle_check_once(model_dir, tmp_path, monkeypatch, flags, verified):
    # The sharp-mode back-check's report is the verification, not a second run of the same check.
    calls = []
    original = freecert.oracle.freeness_to_depth

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    for module in (freecert.certifier, freecert.cli):
        monkeypatch.setattr(module, "freeness_to_depth", counted)
    cert_path = tmp_path / "cert.json"
    argv = ["certify", "--model", "@f2.json", "--a", "ab", "--b", "ba", "--criterion", "nielsen", *flags]
    assert run(model_dir, *argv, "--out", cert_path) == 0
    doc = json.loads(cert_path.read_text())
    assert len(calls) == 1
    assert ("verification" in doc) == verified
    if verified:
        report = original(build_model(doc["model"]), doc["elements"]["a"], doc["elements"]["b"],
                          doc["exponents"]["n_min"], doc["exponents"]["m_min"], 4)
        assert doc["verification"] == report.to_doc()


def test_each_element_is_classified_once_per_command(model_dir, capsys, monkeypatch):
    calls = []
    original = freecert.isometry.classify

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for module in (freecert.isometry, freecert.certifier, freecert.cli):
        monkeypatch.setattr(module, "classify", counted)
    commands = [
        (2, ["certify", "--model", "@f2.json", "--a", "a", "--b", "b", "--criterion", "nielsen", "--no-verify"]),
        (2, ["chain", "--model", "@f2.json", "--a", "a", "--b", "b", "--word", "ab", "--E", "1/1000", "--Q", "1"]),
        (1, ["profile", "--model", "@f2.json", "--a", "aba'"]),
        (2, ["overlap", "--model", "@f2.json", "--a", "a", "--b", "ab"]),
    ]
    for expected, argv in commands:
        calls.clear()
        assert run(model_dir, *argv) == 0, argv
        assert len(calls) == expected, (argv, calls)


def test_documents_are_deterministic(model_dir, tmp_path):
    outs = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        assert run(model_dir, "certify", "--model", "@f2.json", "--a", "a", "--b", "b",
                   "--criterion", "nielsen", "--depth", "2", "--out", str(path)) == 0
        outs.append(path.read_text())
    assert outs[0] == outs[1]


REPO = Path(__file__).resolve().parent.parent


def test_words_are_reduced_once_where_they_come_in(tmp_path, capsys, monkeypatch):
    # canon runs on the words that enter a command or a library function; model
    # arithmetic never reduces its own canonical results again.  certify reduces
    # a and b where the CLI reads them, in classify, independence_test, the two
    # tree-geometry queries and the oracle, which forms their powers itself:
    # twelve calls on two words (1,726 when compose re-reduced every product).
    # verify reduces the certificate's a and b once, in the oracle.
    calls = []
    original = freecert.models.CyclicFreeProductModel.canon

    def counted(self, word):
        calls.append(tuple(word))
        return original(self, word)

    monkeypatch.setattr(freecert.models.CyclicFreeProductModel, "canon", counted)
    cert = tmp_path / "cert.json"
    assert main(["certify", "--model", str(REPO / "demos/models/f2.json"), "--a", "ab", "--b", "ba",
                 "--criterion", "nielsen", "--out", str(cert)]) == 0
    assert len(calls) <= 12 and len(set(calls)) <= 2, len(calls)
    calls.clear()
    assert main(["verify", "--certificate", str(cert), "--out", str(tmp_path / "verify.json")]) == 0
    assert len(calls) <= 2, len(calls)


def test_demo_certificates_match_their_golden_bytes(monkeypatch, capsys):
    # tests/data/demo_certify.json holds the exit code, stdout and stderr of
    # every criterion on three demo pairs, recorded before the tree model
    # stopped re-reducing its products.  The test only reads it.
    monkeypatch.chdir(REPO)
    golden = json.loads((REPO / "tests/data/demo_certify.json").read_text())
    assert len(golden) == 18
    for run_ in golden:
        code = main(run_["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (run_["exit"], run_["stdout"], run_["stderr"]), run_["argv"]


def test_axis_documents_match_their_golden_bytes(monkeypatch, capsys):
    # tests/data/demo_chain.json holds the exit code, stdout and stderr of
    # chain, overlap --c 0, overlap --c 3 and profile on a^k axes (k = 10, 27,
    # 40; windows 3 and 6) in F2 and of one Z * Z/2 pair, recorded while each
    # axis point was still a fresh power of its element and every overlap
    # point was measured.  Its profile documents were re-recorded when the
    # keys tr_lower, tr_upper and exact became one tr, with nothing else
    # changed.  The test only reads it.
    monkeypatch.chdir(REPO)
    golden = json.loads((REPO / "tests/data/demo_chain.json").read_text())
    assert len(golden) == 39
    assert {run_["argv"][0] for run_ in golden} == {"chain", "overlap", "profile"}
    for run_ in golden:
        code = main(run_["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (run_["exit"], run_["stdout"], run_["stderr"]), run_["argv"]


def test_window_bounded_overlaps_match_their_golden_bytes(monkeypatch, capsys):
    # tests/data/window_overlap.json holds the exit code, stdout and stderr of
    # overlap --c 0 and certify --criterion nielsen --no-verify where the window
    # decides the overlap: a^50 b, a on a cap-8192 F2 (tests/data/f2-8192.json)
    # at window 13 (touching, D = 13) and 60 (D = 50); a, a^10 b a^10 both ways
    # (unbounded in the window); a, a^2 (a shared axis); ab, aB; b a b', b (one
    # shared point); ffs, fsfs on Z * Z/2 at windows 1 and 2; and windows past
    # the cap, refused on a's axis and on b's.  Recorded while every overlap was
    # measured on two point-list axes; the test only reads it.
    monkeypatch.chdir(REPO)
    golden = json.loads((REPO / "tests/data/window_overlap.json").read_text())
    assert len(golden) == 24
    docs = [json.loads(run_["stdout"]) for run_ in golden if run_["argv"][0] == "overlap" and run_["stdout"]]
    assert any(doc["boundary_touching"] and not doc["unbounded_in_window"] for doc in docs)
    assert any(doc["unbounded_in_window"] for doc in docs)
    assert sum(run_["exit"] == 2 for run_ in golden) == 6
    for run_ in golden:
        code = main(run_["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (run_["exit"], run_["stdout"], run_["stderr"]), run_["argv"]


def test_chain_documents_across_the_cases_match_their_golden_bytes(monkeypatch, capsys):
    # tests/data/chain_words.json holds the exit code, stdout and stderr of
    # chain on words of all three cases (O, I, II) on a^40 and a^12 in F2, a
    # delta = 1 chain whose c2 fails, the two refusals of a word (empty, not
    # freely reduced), three Z * Z/2 chains that fail, a case II chain whose
    # c4 fails on the segment of its leading b-syllable, and a^14 on a^40,
    # refused where its end point q first outgrows the model cap.  Recorded
    # while the chain still formed each point from a fresh power; the test
    # only reads it.
    monkeypatch.chdir(REPO)
    golden = json.loads((REPO / "tests/data/chain_words.json").read_text())
    assert len(golden) == 16
    assert {json.loads(run_["stdout"])["case"] for run_ in golden if run_["stdout"]} == {"O", "I", "II"}
    for run_ in golden:
        code = main(run_["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (run_["exit"], run_["stdout"], run_["stderr"]), run_["argv"]


def test_tree_axis_documents_match_their_golden_bytes(monkeypatch, capsys):
    # tests/data/tree_axes.json holds the exit code, stdout and stderr of chain
    # where the axes do not cross at the identity: disjoint axes (a^5, b a^2 b'
    # at window 4 in F2; ffs, f'f'sf and f, sfs in Z * Z/2), axes that meet
    # outside the window (a^5, a^8 b a^-8 at window 1), shared segments (aab,
    # aaab; ab, a), and chains at delta 1, with and without a 10-overlap.  It
    # also holds profile at delta 0 and 1 (with a window of 0 and windows past
    # the cap), theorem9 and theorem14 on ab, ba, theorem9 on a^570, b at window
    # 1 (certified on a cap-8192 F2, refused at cap 512), overlap --c -1 and
    # overlap --c 3.  Recorded while every base point and profile axis was read
    # off two point-list axes; the test only reads it.
    monkeypatch.chdir(REPO)
    golden = json.loads((REPO / "tests/data/tree_axes.json").read_text())
    assert len(golden) == 35
    assert {run_["argv"][0] for run_ in golden} == {"chain", "profile", "certify", "overlap"}
    for run_ in golden:
        code = main(run_["argv"])
        out, err = capsys.readouterr()
        assert (code, out, err) == (run_["exit"], run_["stdout"], run_["stderr"]), run_["argv"]


def _assert_profiles_match(name, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    golden = json.loads((REPO / "tests/data" / name).read_text())
    assert len(golden) == 3
    for run_ in golden:
        code = main(run_["argv"])
        assert (code, capsys.readouterr().out) == (run_["exit"], run_["stdout"]), run_["argv"]


def test_profile_documents_match_their_golden_bytes(monkeypatch, capsys):
    # tests/data/profile_f2.json holds the stdout of profile on a, ab and aba'
    # in F2, criterion1_power included, recorded while classify still searched
    # for that power itself, and re-recorded with only the keys tr_lower,
    # tr_upper and exact replaced by tr.  The test only reads it.
    _assert_profiles_match("profile_f2.json", monkeypatch, capsys)


def test_not_hyperbolic_profile_documents_match_their_golden_bytes(monkeypatch, capsys):
    # tests/data/profile_no.json holds the stdout of profile on s and fsf' in
    # Z * Z/2 and on r in the 4-cycle, all "no", recorded while a profile still
    # held a translation length interval, and re-recorded with only the keys
    # tr_lower, tr_upper and exact replaced by tr.  The test only reads it.
    _assert_profiles_match("profile_no.json", monkeypatch, capsys)


def _json_value(rng, depth):
    """A seeded JSON-able value: scalars of every kind json writes, and nested
    lists, tuples and dicts (some empty, some of plain ints only, some with
    int, bool or None keys)."""
    scalars = [
        lambda: None, lambda: True, lambda: False, lambda: rng.randint(-9, 9),
        lambda: rng.choice((1, -1)) * rng.randrange(10**29, 10**30), lambda: rng.choice((-0.0, 2.5, 1e300)),
        lambda: "".join(rng.choice('ab"\\\n\t\x01/ü∂К\U0001f600') for _ in range(rng.randint(0, 6))),
    ]
    kind = rng.randrange(10 if depth else 7)
    if kind < 7:
        return scalars[kind]()
    items = [_json_value(rng, depth - 1) for _ in range(rng.choice((0, 1, 3)))]
    if kind == 7:
        return [rng.randint(-10**12, 10**12) for _ in items] if rng.random() < 0.5 else items
    if kind == 8:
        return tuple(items)
    keys = [rng.choice(("k", "ключ", "\"q\"", rng.randint(-5, 5), True, False, None)) for _ in items]
    return dict(zip(keys, items))


DOCS = [
    {},
    [],
    {"empty": {}, "none": [], "nested": [[], [{}], [1, [2.5, [None, True]]]], 7: "int key", "tuple": (1, 2)},
    {"text": "naïve ∂ \"quoted\"\n", "ключ": ["ü", {"deep": {"er": [-0.0, 10**30]}}]},
    [1, True], [True, 1], (), [[]], None, True, False, -7, 10**30, -(10**30), "esc \"\\ \n\t\x00",
    {1: 2, True: None, None: [1, 2]}, (1, 2, 3),
    *(_json_value(random.Random(f"json:{i}"), 4) for i in range(300)),
]


def test_documents_are_written_as_json_dumps_writes_them(tmp_path, capsys):
    for doc in DOCS:
        _write_doc(doc, None)
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
        _write_doc(doc, str(tmp_path / "doc.json"))
        assert (tmp_path / "doc.json").read_text() == json.dumps(doc, indent=2) + "\n"


def test_the_writer_emits_null_true_false_and_int_lists_without_json_dumps(monkeypatch):
    doc = {"none": None, "yes": True, "no": False, "ints": [3, -1, 10**30], "mixed": [1, True, None]}
    expected = json.dumps(doc, indent=2)
    monkeypatch.setattr(freecert.cli.json, "dumps", lambda *args, **kwargs: pytest.fail("json.dumps called"))
    assert _json_text(doc) == expected


def _through_the_top_level_parser(monkeypatch, argv):
    """main with no command known to it, so that every argv is parsed by the
    top-level parser, which hands a command's arguments on to its parser."""
    with monkeypatch.context() as patch:
        patch.setattr(build_parser(), "commands", {})
        return main(argv)


REQUIRED = {
    "delta": ["--model", "@c4.json"],
    "profile": ["--model", "@f2.json", "--a", "ab"],
    "overlap": ["--model", "@f2.json", "--a", "ab", "--b", "ba"],
    "acyl": ["--model", "@c4.json"],
    "certify": ["--model", "@f2.json", "--a", "ab", "--b", "ba", "--criterion", "nielsen"],
    "verify": ["--certificate", "@missing.json"],
    "sweep": ["--model", "@f2.json", "--a", "a", "--b", "b", "--range", "1:1"],
    "chain": ["--model", "@f2.json", "--a", "aaa", "--b", "b", "--word", "ab", "--E", "3/1000", "--Q", "1"],
}
DISPATCH = (
    [[command, *flags, "--bogus"] for command, flags in REQUIRED.items()]
    + [[command, *flags, "--bogus", "1", "--also"] for command, flags in REQUIRED.items()]
    + [[command, *flags[:-2]] for command, flags in REQUIRED.items()]  # the last required flag missing
    + [[command, *flags, "--window", "x"] for command, flags in REQUIRED.items()]
    + [
        ["chain", *REQUIRED["chain"], "--E", "1/0"],
        ["acyl", *REQUIRED["acyl"], "--radii", "1,x"],
        ["certify", *REQUIRED["certify"], "--criterion", "bogus"],
        ["certify", "-h"], ["chain", "--help"], ["delta", "--he"], ["-h"], ["--help"], [], ["bogus"],
        ["bogus", "--model", "@c4.json"], ["--model", "@c4.json"], ["--", "delta", "--model", "@c4.json"],
        ["delta", "--", "--model", "@c4.json"], ["delta", "--model", "@c4.json", "--"],
        ["delta", "--model", "@c4.json", "--", "x"], ["delta", "--mod", "@c4.json", "--budget", "5"],
        ["delta", "--model=@c4.json", "--radius", "-1"], ["profile", "--model", "@c4.json", "--a", "r", "extra"],
        ["sweep", *REQUIRED["sweep"], "--depth", "1", "-x"],
    ]
)


@pytest.mark.parametrize("argv", DISPATCH, ids=[" ".join(argv) or "(none)" for argv in DISPATCH])
def test_main_dispatches_as_the_top_level_parser_would(model_dir, monkeypatch, capsys, argv):
    # Exit code, stdout and stderr are compared with the top-level path on the
    # running Python, as argparse's texts differ between versions.
    argv = [a.replace("@", str(model_dir) + "/") for a in argv]
    capsys.readouterr()
    expected = _through_the_top_level_parser(monkeypatch, argv), capsys.readouterr()
    assert (main(argv), capsys.readouterr()) == expected


def test_writing_a_document_leaves_no_reference_cycles(tmp_path):
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        _write_doc(DOCS[2], str(tmp_path / "doc.json"))
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def _certificate_with(tmp_path, **fields):
    cert = tmp_path / "cert.json"
    assert main(["certify", "--model", str(REPO / "demos/models/f2.json"), "--a", "a", "--b", "b",
                 "--criterion", "nielsen", "--no-verify", "--out", str(cert)]) == 0
    doc = {**json.loads(cert.read_text()), **fields}
    cert.write_text(json.dumps(doc))
    return cert


@pytest.mark.parametrize(
    "kind, content",
    [
        ("spec", {"kind": "free-group", "rank": "x"}),
        ("spec", {"kind": "free-group", "rank": 2.5}),
        ("spec", {"kind": "free-group", "rank": True}),
        ("spec", {"kind": "free-group", "cap": "big"}),
        ("spec", {"kind": "cycle", "n": "5"}),
        ("spec", {"kind": "explicit-graph", "adjacency": [["1"], [0]]}),
        ("spec", {"kind": "explicit-graph", "adjacency": [[1], [0]], "generators": 5}),
        ("cert", {"elements": {"a": 5, "b": [2]}}),
        ("cert", {"elements": {"a": [1.0], "b": [2]}}),
        ("cert", {"exponents": {"n_min": "5"}}),
        ("cert", {"exponents": [1]}),
    ],
)
def test_a_field_of_the_wrong_type_is_invalid_input(kind, content, tmp_path, capsys):
    if kind == "spec":
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(content))
        argv = ["delta", "--model", str(spec), "--radius", "1"]
    else:
        argv = ["verify", "--certificate", str(_certificate_with(tmp_path, **content)), "--depth", "1"]
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err


def test_the_shared_parser_carries_nothing_from_call_to_call(monkeypatch, capsys):
    certify = ["certify", "--model", str(REPO / "demos/models/f2.json"), "--a", "a", "--b", "b",
               "--criterion", "nielsen", "--no-verify", "--window", "16"]

    def delta_of(argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)["constants"]["delta"]

    freecert.cli.build_parser.cache_clear()
    first = main(certify), capsys.readouterr()
    assert delta_of(certify + ["--delta", "1"]) == {"value": 1, "provenance": "config-override"}
    assert delta_of(certify) == {"value": 0, "provenance": "tree-case"}
    assert main(certify + ["--bogus"]) == 2
    capsys.readouterr()
    assert (main(certify), capsys.readouterr()) == first

    # One parser (and its eight subparsers) for any number of calls.
    built = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    freecert.cli.build_parser.cache_clear()
    for _ in range(5):
        assert main(certify) == 0
    assert len(built) == 9, built
