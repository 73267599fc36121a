"""Command line interface: exit codes, formats, determinism."""

import json
from pathlib import Path

import pytest

from spinhom.cli import run
from spinhom.gamma_limit import load_field

from conftest import FIXTURES, fixture_document

CHAIN = str(FIXTURES.joinpath("chain_soft_even.json"))
TWO = str(FIXTURES.joinpath("two_chains.json"))
ISLANDS = str(FIXTURES.joinpath("islands_1d.json"))
INCLUSIONS = str(FIXTURES.joinpath("soft_inclusions_2d.json"))

OMEGA_1D = '{"lo":["0"],"hi":["1"]}'
SLAB_1D = '{"phases":[{"slab":{"normal":["1"],"offset":"0.5"}}]}'


def run_ok(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


def frustrated_model_path(tmp_path) -> str:
    strong = []
    for off in ((0, 1), (0, -1), (1, 0), (-1, 0)):
        strong.append({"from": "1,1", "offset": list(off), "weight": "1/8"})
    for off in ((0, 1), (0, -1)):
        strong.append({"from": "1,0", "offset": list(off), "weight": "1/8"})
    for off in ((1, 0), (-1, 0)):
        strong.append({"from": "0,1", "offset": list(off), "weight": "1/8"})
    weak = []
    for off in ((2, 0), (-2, 0), (0, 2), (0, -2), (2, -2), (-2, 2)):
        weak.append({"from": "0,0", "offset": list(off), "weight": "-0.01"})
    doc = {
        "dimension": 2,
        "period": 2,
        "num_phases": 1,
        "labels": {"0,0": 0, "0,1": 1, "1,0": 1, "1,1": 1},
        "strong_bonds": strong,
        "weak_bonds": weak,
    }
    path = tmp_path / "frustrated.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_clean_model(capsys):
    out = run_ok(capsys, ["validate", CHAIN])
    doc = json.loads(out)
    assert doc == {"passed": True, "rows": []}


def test_validate_reports_violations(capsys, tmp_path):
    doc = fixture_document("chain_soft_even")
    doc["weak_bonds"].pop()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code = run(["validate", str(bad)])
    out = capsys.readouterr()
    assert code == 1
    report = json.loads(out.out)
    assert report["passed"] is False
    assert report["rows"] and report["rows"][0]["rule"] == "symmetry"


def test_missing_model_file_is_usage_error(capsys):
    code = run(["validate", "/no/such/file.json"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error:")


def test_malformed_model_is_usage_error(capsys, tmp_path):
    bad = tmp_path / "junk.json"
    bad.write_text('{"dimension": 1}')
    code = run(["validate", str(bad)])
    out = capsys.readouterr()
    assert code == 2
    assert "error:" in out.err


def test_no_arguments_prints_usage(capsys):
    assert run([]) == 2
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    code = run(["--version"])
    out = capsys.readouterr()
    assert code == 0
    assert out.out.strip()


def test_components_output(capsys):
    out = run_ok(capsys, ["components", ISLANDS])
    doc = json.loads(out)
    assert doc["passed"] is True
    assert doc["island_radius"] == "1"
    kinds = [row["classification"] for row in doc["rows"]]
    assert kinds == ["infinite-unique", "finite"]


def test_fhom_csv_bytes(capsys):
    expected = "phase,normal,side,value\n1,1,4,1\n1,1,8,1\n2,1,4,2\n2,1,8,2\n"
    out = run_ok(capsys, ["fhom", TWO, "--normal", "1", "--T", "4,8"])
    assert out == expected


def test_fhom_json_estimates(capsys):
    out = run_ok(capsys, ["fhom", TWO, "--normal", "1", "--T", "4,8", "--json"])
    doc = json.loads(out)
    assert doc["total"] == "3"
    assert doc["estimates"]["1"]["estimate"] == "1"
    assert doc["estimates"]["2"]["estimate"] == "2"
    assert len(doc["rows"]) == 4


def test_fhom_single_phase(capsys):
    out = run_ok(capsys, ["fhom", TWO, "--normal", "1", "--T", "4,8", "--phase", "2"])
    lines = out.strip().splitlines()
    assert lines[0] == "phase,normal,side,value"
    assert all(line.startswith("2,") for line in lines[1:])


def test_fhom_jobs_do_not_change_output(capsys):
    argv = ["fhom", INCLUSIONS, "--normal", "1,0", "--T", "4,8"]
    serial = run_ok(capsys, argv + ["--jobs", "1"])
    parallel = run_ok(capsys, argv + ["--jobs", "2"])
    assert serial == parallel


def test_phi_csv_bytes(capsys):
    expected = (
        "z,m,phi,phi_corrected,lower,upper\n"
        '"1,-1",4,0.75,0.75,0.75,0.75\n'
        '"1,-1",8,0.875,0.875,0.875,0.875\n'
    )
    out = run_ok(capsys, ["phi", TWO, "--M", "4,8", "--z", "1,-1"])
    assert out == expected


def test_phi_all_states(capsys):
    out = run_ok(capsys, ["phi", TWO, "--M", "8", "--json"])
    doc = json.loads(out)
    assert doc["island_error_constant"] == "0"
    assert [row["z"] for row in doc["rows"]] == ["1,1", "1,-1", "-1,1", "-1,-1"]


def test_phi_islands_metadata(capsys):
    out = run_ok(capsys, ["phi", ISLANDS, "--M", "12", "--z", "-1", "--json"])
    doc = json.loads(out)
    assert doc["island_error_constant"] == "2.1"
    row = doc["rows"][0]
    assert row["phi"] == "0"
    assert row["phi_corrected"] == "7/120"


def test_phi_deterministic_output(capsys):
    argv = ["phi", CHAIN, "--M", "4,8,16"]
    assert run_ok(capsys, argv) == run_ok(capsys, argv)


def test_phi_bad_state_vector(capsys):
    code = run(["phi", TWO, "--M", "8", "--z", "1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error:")


def test_phi_bad_side_list(capsys):
    assert run(["phi", TWO, "--M", "4,x"]) == 2
    capsys.readouterr()


def test_phi_frustrated_cut_exits_with_hint(capsys, tmp_path):
    model = frustrated_model_path(tmp_path)
    code = run(["phi", model, "--M", "4", "--z", "-1", "--method", "cut"])
    out = capsys.readouterr()
    assert code == 2
    assert "anneal" in out.err
    assert run(["phi", model, "--M", "4", "--z", "-1", "--method", "anneal"]) == 0
    capsys.readouterr()


def test_phi_enum_past_cap_exits_with_hint(capsys):
    code = run(["phi", INCLUSIONS, "--M", "16", "--z", "-1", "--method", "enum", "--enum-cap", "4"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: 64 free groups exceeds the enumeration cap 4")
    assert "--method cut" in out.err
    assert out.err.count("\n") == 1


def test_out_file_matches_stdout(capsys, tmp_path):
    argv = ["phi", TWO, "--M", "4,8"]
    stdout = run_ok(capsys, argv)
    target = tmp_path / "phi.csv"
    assert run(argv + ["--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_text() == stdout


def test_energy_subcommand(capsys, tmp_path):
    field = {
        "eps": "0.125",
        "omega": {"lo": ["0"], "hi": ["1"]},
        "spins_rle": [[7, -1]],
    }
    path = tmp_path / "field.json"
    path.write_text(json.dumps(field))
    out = run_ok(capsys, ["energy", CHAIN, "--field", str(path)])
    doc = json.loads(out)
    assert doc["energy"] == "1.75"
    assert doc["broken_strong"] == 0
    assert doc["sites"] == 7


def test_energy_rejects_boolean_rle(capsys):
    field = {
        "eps": "1/4",
        "omega": {"lo": ["0"], "hi": ["1"]},
        "spins_rle": [[True, 1], [2, True]],
    }
    code = run(["energy", CHAIN, "--field", json.dumps(field)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error:")
    assert "spins_rle[0]" in out.err
    assert out.err.count("\n") == 1


def run_usage_error(capsys, argv) -> str:
    """Exit 2 with one ``error:`` line and nothing on stdout."""
    code = run(argv)
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert out.err.startswith("error:")
    assert out.err.count("\n") == 1
    return out.err


@pytest.mark.parametrize(
    "change, locus",
    [
        ({"dimension": True}, "$.dimension"),
        ({"labels": {"0": 0, "1": True}}, "$.labels['1']"),
        ({"strong_bonds": 5}, "$.strong_bonds"),
        ({"strong_bonds": [{"from": "1", "offset": [2.7], "weight": "0.125"}]},
         "$.strong_bonds[0].offset"),
        ({"strong_bonds": [{"from": "1", "offset": [2], "weight": True}]},
         "$.strong_bonds[0].weight"),
    ],
)
def test_validate_rejects_coerced_model_fields(capsys, tmp_path, change, locus):
    doc = fixture_document("chain_soft_even")
    doc.update(change)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    assert locus in run_usage_error(capsys, ["validate", str(path)])


def field_doc(**change) -> str:
    doc = {"eps": "1/4", "omega": {"lo": ["0"], "hi": ["1"]}, "spins_rle": [[3, 1]]}
    doc.update(change)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "field, message",
    [
        (field_doc(eps="0"), "eps: must be positive"),
        (field_doc(eps="-1/8"), "eps: must be positive"),
        (field_doc(omega={"lo": "0", "hi": ["1"]}), "omega.lo: expected an array"),
        (field_doc(spins_rle=3), "spins_rle: expected an array"),
    ],
    ids=["eps-zero", "eps-negative", "lo-string", "rle-number"],
)
def test_energy_rejects_malformed_field(capsys, field, message):
    assert message in run_usage_error(capsys, ["energy", CHAIN, "--field", field])


@pytest.mark.parametrize(
    "omega, target, message",
    [
        ('{"lo":"01","hi":["1","2"]}', SLAB_1D, "omega.lo: expected an array"),
        (OMEGA_1D, '{"phases":7}', "phases: expected an array"),
        (OMEGA_1D, '{"phases":[{"constant":true}]}', "phases[0].constant: must be +-1"),
        (OMEGA_1D, '{"phases":[{"slab":3}]}', "phases[0].slab: expected an object"),
        (OMEGA_1D, '{"phases":[{"slab":{"normal":"1","offset":"0"}}]}',
         "phases[0].slab.normal: expected an array"),
        (OMEGA_1D, '{"phases":[{"boxes":[{"lo":"0","hi":["1"]}]}]}',
         "phases[0].boxes[0].lo: expected an array"),
    ],
    ids=["lo-string", "phases-number", "constant-true", "slab-number", "normal-string",
         "box-lo-string"],
)
def test_gamma_eval_rejects_malformed_domain_and_target(capsys, omega, target, message):
    argv = ["gamma-eval", ISLANDS, "--omega", omega, "--target", target, "--T", "8", "--M", "8"]
    assert message in run_usage_error(capsys, argv)


def test_converge_rejects_nonpositive_eps(capsys):
    argv = ["converge", CHAIN, "--omega", OMEGA_1D, "--target", SLAB_1D,
            "--eps", "1/8,0", "--M", "4"]
    assert "eps must be positive" in run_usage_error(capsys, argv)


def test_extend_subcommand(capsys, tmp_path):
    field = {
        "eps": "0.0625",
        "omega": {"lo": ["0"], "hi": ["1"]},
        "spins_rle": [[15, 1]],
    }
    src = tmp_path / "field.json"
    src.write_text(json.dumps(field))
    dst = tmp_path / "extended.json"
    out = run_ok(
        capsys,
        ["extend", CHAIN, "--field", str(src), "--phase", "1", "--M", "4", "--out", str(dst)],
    )
    doc = json.loads(out)
    assert doc["marked"] == []
    extended = load_field(dst)
    assert extended.values == {(k,): 1 for k in range(1, 16)}


def test_gamma_eval_subcommand(capsys):
    out = run_ok(
        capsys,
        [
            "gamma-eval",
            INCLUSIONS,
            "--omega",
            '{"lo":["0","0"],"hi":["1","1"]}',
            "--target",
            '{"phases":[{"slab":{"normal":["1","0"],"offset":"0.5"}}]}',
            "--T",
            "4,8",
            "--M",
            "8",
        ],
    )
    doc = json.loads(out)
    assert doc["value"] == "2.13125"
    assert doc["surface"] == [{"normal": "1,0", "phase": 1, "value": "0.5"}]
    assert {row["z"]: row["value"] for row in doc["phi"]} == {"1": "0", "-1": "3.2625"}


def test_converge_subcommand(capsys):
    out = run_ok(
        capsys,
        [
            "converge",
            CHAIN,
            "--omega",
            OMEGA_1D,
            "--target",
            SLAB_1D,
            "--eps",
            "1/8,1/16",
            "--M",
            "4",
        ],
    )
    assert out == (
        "eps,energy,gap,reference\n"
        "0.125,1.65,0.0375,1.6875\n"
        "0.0625,1.675,0.0125,1.6875\n"
    )


def test_examples_filter(capsys):
    out = run_ok(capsys, ["examples", "--only", "soft-chain"])
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def test_examples_unknown_filter_fails(capsys):
    assert run(["examples", "--only", "zzz-no-such-check"]) == 1
    capsys.readouterr()


WARNING_ARGVS = {
    "doubling": ["phi", str(FIXTURES.joinpath("chain_soft_even_anti.json")), "--M", "4,8,12,16,24"],
    "coarsening": ["fhom", str(FIXTURES.joinpath("diagonal_2d.json")), "--normal", "1,2", "--T", "1,2"],
    "island-radius": ["phi", ISLANDS, "--M", "1,8"],
}


@pytest.mark.filterwarnings("default::UserWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("kind", sorted(WARNING_ARGVS))
def test_warnings_print_one_line_without_source_location(capfd, kind, jobs):
    """Each warning is one ``warning: `` line, also from --jobs workers,
    and names no source file (which would change with every edit)."""
    code = run(WARNING_ARGVS[kind] + ["--jobs", jobs])
    out = capfd.readouterr()
    assert code == 0
    lines = out.err.splitlines()
    assert lines
    assert all(line.startswith("warning: ") for line in lines), lines
    assert all(line.count("warning: ") == 1 for line in lines), lines
    assert not any(".py" in line for line in lines), lines
    if kind == "doubling":
        # seven failing side pairs for each of the two phase states
        assert len(lines) == 14
