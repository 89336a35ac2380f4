"""Command-line interface: exit codes, document round-trips, determinism."""

import json
from fractions import Fraction

import pytest

import freecert
from freecert import analyze_pair, build_witness_chain, build_model, chain_base_points, validate_certificate
from freecert.cli import main

MODELS = {
    "f2.json": {"kind": "free-group", "rank": 2, "cap": 512},
    "zxz2.json": {"kind": "free-product", "cap": 256},
    "c4.json": {"kind": "cycle", "n": 4},
    "c3.json": {"kind": "cycle", "n": 3},
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
        # C3 measures delta = 0 but is not a tree: refused, with the way out.
        (1, ["certify", "--model", "@c3.json", "--a", "r", "--b", "rr", "--criterion", "nielsen"]),
        (1, ["chain", "--model", "@c3.json", "--a", "r", "--b", "rr", "--word", "ab", "--E", "101", "--Q", "1"]),
        (2, ["certify", "--model", "@f2.json", "--a", "a", "--b", "b", "--criterion", "bogus"]),
        (2, ["delta", "--model", "@missing.json"]),
        (2, ["profile", "--model", "@f2.json", "--a", "q"]),
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
    x, y = chain_base_points(model, analysis.axis_a, analysis.axis_b, analysis.overlap)
    chain = build_witness_chain(model, (1, 2), (1,), (2,), x, y, Fraction(101), 1, 1)
    assert doc == json.loads(json.dumps({"command": "chain", **chain.to_doc()}))
    assert code == 1 and doc["three_points"]["delta"] == 1


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
