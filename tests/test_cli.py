"""Command line interface: exit codes, formats, determinism."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinhom
from spinhom import cli
from spinhom.bulk_density import build_phi_instance
from spinhom.cli import build_parser, run
from spinhom.gamma_limit import load_field
from spinhom.ground_state import FrustratedInstance, TooManyFreeGroups
from spinhom.model import load_model, number_str

from conftest import FIXTURES, fixture_document, frus1d_document
from test_helpers import solve

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


@pytest.mark.parametrize("phase", ["0", "-1", "3"])
def test_fhom_rejects_phase_out_of_range(capsys, phase):
    assert run(["fhom", TWO, "--normal", "1", "--T", "4", "--phase", phase]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: phase must be in 1..2, got {phase}\n"


def test_fhom_jobs_do_not_change_output(capsys):
    argv = ["fhom", INCLUSIONS, "--normal", "1,0", "--T", "4,8"]
    serial = run_ok(capsys, argv + ["--jobs", "1"])
    parallel = run_ok(capsys, argv + ["--jobs", "2"])
    assert serial == parallel


def test_jobs_report_a_task_error_as_a_serial_run_does(capsys, tmp_path):
    argv = ["phi", frustrated_model_path(tmp_path), "--M", "4,56"]
    serial = (run(argv + ["--jobs", "1"]), capsys.readouterr())
    assert serial[0] == 2
    assert serial[1].err.startswith("error: couplings are frustrated")
    assert (run(argv + ["--jobs", "2"]), capsys.readouterr()) == serial


def test_phi_classifies_the_model_once(monkeypatch, capsys):
    calls = []
    real = spinhom.connectivity.classify

    def counting(model):
        calls.append(model)
        return real(model)

    for name, module in list(sys.modules.items()):  # every import site
        if name.startswith("spinhom") and getattr(module, "classify", None) is real:
            monkeypatch.setattr(module, "classify", counting)
    run_ok(capsys, ["phi", ISLANDS, "--M", "4,8"])
    assert len(calls) == 1


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


def phi_column(out: str) -> list[str]:
    return [line.split(",")[2] for line in out.splitlines()[1:]]


def test_phi_eliminates_frustrated_cell(capsys, tmp_path):
    """The min-cut refuses the frustrated cell; ``phi`` eliminates it."""
    path = frustrated_model_path(tmp_path)
    terms = build_phi_instance(load_model(path), 4, (-1,))
    with pytest.raises(FrustratedInstance, match="^free-free couplings are frustrated: "
                                                 "no gauge makes them nonnegative$"):
        solve(terms, "cut")
    out = run_ok(capsys, ["phi", path, "--M", "4", "--z", "-1"])
    assert phi_column(out) == [number_str(solve(terms, "enum").energy / 16)]


def test_phi_refuses_wide_frustrated_cell(capsys, tmp_path):
    # 28 x 28 soft sites coupled two rows apart: each elimination context
    # spans a row, far past what the tables may hold
    model = frustrated_model_path(tmp_path)
    code = run(["phi", model, "--M", "56", "--z", "-1"])
    out = capsys.readouterr()
    assert code == 2
    assert out.err.startswith("error: couplings are frustrated and 784 free groups need "
                              "elimination tables of 2**")
    assert out.err.count("\n") == 1


def test_phi_enum_refuses_wide_cell(tmp_path):
    """The cell ``phi`` refuses above: elimination alone refuses it too."""
    terms = build_phi_instance(load_model(frustrated_model_path(tmp_path)), 56, (-1,))
    with pytest.raises(TooManyFreeGroups,
                       match=r"^784 free groups need elimination tables of 2\*\*"):
        solve(terms, "enum")


def test_phi_enum_solves_long_chain(capsys):
    path = str(FIXTURES.joinpath("chain_two_weak_scales.json"))
    out = run_ok(capsys, ["phi", path, "--M", "100,101", "--z", "-1"])
    model = load_model(path)
    for m, printed in zip((100, 101), phi_column(out), strict=True):
        terms = build_phi_instance(model, m, (-1,))
        cut = solve(terms, "cut").energy
        assert solve(terms, "enum").energy == cut
        assert printed == number_str(cut / m)


def test_phi_auto_eliminates_frustrated_chain(capsys, tmp_path):
    model = tmp_path / "frus1d.json"
    model.write_text(json.dumps(frus1d_document()))
    out = run_ok(capsys, ["phi", str(model), "--M", "8,60", "--z", "-1"])
    for m, printed in zip((8, 60), phi_column(out), strict=True):
        terms = build_phi_instance(load_model(str(model)), m, (-1,))
        assert printed == number_str(solve(terms, "enum").energy / m)
        with pytest.raises(FrustratedInstance):
            solve(terms, "cut")


@pytest.mark.parametrize("flag", [["--enum-cap", "100"], ["--anneal"], ["--seed", "1"],
                                  ["--method", "anneal"]])
def test_phi_rejects_deleted_solver_flags(capsys, flag):
    assert run(["phi", CHAIN, "--M", "4", *flag]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and err.count("error:") == 1


@pytest.mark.parametrize("jobs", ["0", "-3", "x"])
def test_rejects_nonpositive_jobs(capsys, jobs):
    assert run(["phi", CHAIN, "--M", "4", "--jobs", jobs]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[-1].endswith(f"error: argument --jobs: expected a positive integer, got '{jobs}'")
    assert sum("error:" in line for line in err) == 1


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


def test_extend_leaves_numpy_ma_unimported(tmp_path):
    """``np.unique`` imports ``numpy.ma`` on numpy 2 (tens of ms and about
    2 MiB per process); ``extend`` compares the cube's min and max instead."""
    script = (
        "import sys\n"
        "from spinhom.cli import run\n"
        f"code = run(['extend', {CHAIN!r}, '--field', sys.argv[1], '--phase', '1', '--M', '4'])\n"
        "print(code, 'numpy.ma' in sys.modules)\n"
    )
    field = '{"eps": "1/16", "omega": {"lo": ["0"], "hi": ["1"]}, "spins_rle": [[7, 1], [8, -1]]}'
    env = dict(os.environ, PYTHONPATH=str(Path(spinhom.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script, field], capture_output=True,
                          text=True, env=env, cwd=tmp_path, check=True)
    # the second cube holds both values and is marked
    assert '"marked_count": 1' in done.stdout
    assert done.stdout.splitlines()[-1] == "0 False"


def test_cli_import_leaves_multiprocessing_unimported(tmp_path):
    """Only a ``--jobs`` pool needs ``multiprocessing`` (about 10 ms to
    import), so ``import spinhom.cli`` does not load it."""
    script = "import sys\nimport spinhom.cli\nprint('multiprocessing' in sys.modules)\n"
    env = dict(os.environ, PYTHONPATH=str(Path(spinhom.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path, check=True)
    assert done.stdout == "False\n"


@pytest.mark.parametrize("phase", ["0", "2", "-1"])
def test_extend_rejects_phase_out_of_range(capsys, phase):
    field = '{"eps": "1/16", "omega": {"lo": ["0"], "hi": ["1"]}, "spins_rle": [[15, 1]]}'
    assert run(["extend", CHAIN, "--field", field, "--phase", phase, "--M", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: phase must be in 1..1, got {phase}\n"


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
    "island-radius-two-states": ["phi", ISLANDS, "--M", "1,2"],
}


def stderr_of(capfd, argv) -> str:
    code = run(argv)
    err = capfd.readouterr().err
    assert code == 0, err
    return err


@pytest.mark.filterwarnings("default::UserWarning")
@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("kind", sorted(WARNING_ARGVS))
def test_warnings_print_one_line_without_source_location(capfd, kind, jobs):
    """Each warning is one ``warning: `` line, also from --jobs workers,
    and names no source file (which would change with every edit).
    Stderr is the serial run's, in the same order, run after run."""
    serial = stderr_of(capfd, WARNING_ARGVS[kind] + ["--jobs", "1"])
    for _ in range(5):
        assert stderr_of(capfd, WARNING_ARGVS[kind] + ["--jobs", jobs]) == serial
    lines = serial.splitlines()
    assert lines
    assert all(line.startswith("warning: ") for line in lines), lines
    assert all(line.count("warning: ") == 1 for line in lines), lines
    assert not any(".py" in line for line in lines), lines
    if kind == "doubling":
        # seven failing side pairs for each of the two phase states
        assert len(lines) == 14


@pytest.mark.parametrize("sides", ["1,2,2,3", "4,2"])
def test_fhom_rejects_sides_that_do_not_increase(capsys, sides):
    assert run(["fhom", ISLANDS, "--normal", "1", "--T", sides]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cube sides must be strictly increasing\n"


@pytest.mark.filterwarnings("default::UserWarning")
def test_fhom_reports_an_empty_cube_after_its_own_warning(capfd):
    """Phase 1's cube of side 1 holds no phase-1 site: its warning, then
    its error, and nothing about phase 2."""
    assert run(["fhom", TWO, "--normal", "1", "--T", "1"]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "warning: cube side 1 is below the coarsening side 2 of phase 1\n"
        "error: phase 1 has no cluster sites in the cube of side 1\n"
    )


def test_gamma_eval_rejects_sides_that_do_not_increase(capsys):
    argv = ["gamma-eval", INCLUSIONS, "--omega", '{"lo":["0","0"],"hi":["1","1"]}',
            "--target", '{"phases":[{"slab":{"normal":["1","0"],"offset":"1/2"}}]}',
            "--T", "8,4,4", "--M", "4"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cube sides must be strictly increasing\n"


def mixed_model_path(tmp_path) -> str:
    """``two_chains`` with a strong bond from phase 2's chain to phase 1's
    in place of the weak one: it fails validation."""
    doc = fixture_document("two_chains")
    doc["weak_bonds"] = [b for b in doc["weak_bonds"] if (b["from"], b["offset"]) != ("0", [1])]
    doc["strong_bonds"].append({"from": "0", "offset": [1], "weight": "0.25"})
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(doc))
    return str(path)


MIXED_ERROR = ("error: strong bond (from=(0,), offset=(1,)) joins residues of different cores; "
               "the model fails validation\n")


def test_phi_refuses_a_strong_bond_between_cores(capsys, tmp_path):
    """``phi`` refuses the mixed model instead of holding one mixed cluster."""
    path = mixed_model_path(tmp_path)
    assert run(["validate", path]) == 1
    capsys.readouterr()
    assert run(["phi", path, "--M", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == MIXED_ERROR


TWO_PHASE_TARGET = '{"phases":[{"slab":{"normal":["1"],"offset":"0.5"}},{"constant":-1}]}'


@pytest.mark.parametrize("argv", [
    ["fhom", "--normal", "1", "--T", "4"],
    ["gamma-eval", "--omega", OMEGA_1D, "--target", TWO_PHASE_TARGET, "--T", "4", "--M", "4"],
    ["converge", "--omega", OMEGA_1D, "--target", TWO_PHASE_TARGET, "--eps", "1/8,1/16",
     "--M", "4"],
    ["extend", "--field", '{"eps": "1/16", "omega": {"lo": ["0"], "hi": ["1"]}, '
                          '"spins_rle": [[15, 1]]}', "--phase", "1", "--M", "4"],
], ids=lambda argv: argv[0])
def test_cell_builders_refuse_a_strong_bond_between_cores(capsys, tmp_path, argv):
    """Every command that builds a cell refuses the mixed model as ``phi``
    does, while ``components`` still reports on it."""
    path = mixed_model_path(tmp_path)
    assert run([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == MIXED_ERROR
    assert run(["components", path]) == 0


T = "two_chains.json"  # run from the fixture directory, so test ids hold no path
PARSER_ARGVS = (
    [[name, "-h"] for name in cli.HANDLERS]
    + [["-h"], ["--help"], ["--version"], [], ["bogus"], ["ph"], ["--version", "phi"],
       ["phi", "--help"], ["phi", T, "--M", "4", "-h"]]
    # missing required arguments
    + [["phi"], ["phi", T], ["fhom", T, "--T", "4"], ["gamma-eval", T, "--T", "4"],
       ["extend", T, "--field", "{}"], ["converge", T, "--M", "4"]]
    # bad values
    + [["phi", T, "--M", "x"], ["phi", T, "--M", "4", "--z", "2"],
       ["phi", T, "--M", "4", "--jobs", "0"], ["phi", T, "--M", "4", "--format", "xml"],
       ["fhom", T, "--normal", "a", "--T", "4"], ["extend", T, "--field", "{}",
       "--phase", "x", "--M", "4"], ["examples", "--only"]]
    # leftover arguments, which the top level reports
    + [["phi", T, "--M", "4", "--version"], ["phi", T, "--M", "4", "extra"],
       ["phi", T, "--M", "4", "--bogus"], ["validate", T, T], ["examples", "x"],
       ["phi", T, "--M", "4", "--method", "cut"]]
    # parsed, then run
    + [["validate", T], ["components", T, "--csv"], ["phi", T, "--M", "2", "--js", "1"],
       ["phi", T, "--M", "2", "--z", "1,-1", "--json"], ["examples", "--only", "zzz"]]
)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=" ".join)
def test_lazy_parser_prints_what_the_full_parser_prints(monkeypatch, capsys, argv):
    """:func:`run` builds only the subcommand named first when it can; its
    stdout, stderr and exit code are those of the full parser."""
    monkeypatch.chdir(FIXTURES)
    lazy = run(argv), *capsys.readouterr()
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: real())
    assert (run(argv), *capsys.readouterr()) == lazy


@pytest.mark.parametrize("command, phrases", [
    ("gamma-eval", ["--T SIDES surface tension cube sides, comma-separated, increasing",
                    "--M M_LIST bulk density cube sides, comma-separated, increasing"]),
    ("energy", ["--omega OMEGA domain JSON (path or inline); must equal the field's own domain"]),
])
def test_help_states_what_the_options_take(capsys, command, phrases):
    assert run([command, "-h"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for phrase in phrases:
        assert phrase in text


def test_run_reads_sys_argv_and_builds_one_subcommand(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["spinhom", "--version"])
    assert run() == 0
    assert capsys.readouterr().out == f"spinhom {spinhom.__version__}\n"
    (subparsers,) = build_parser("phi")._subparsers._group_actions
    assert list(subparsers.choices) == ["phi"]


def parser_flags(parser: argparse.ArgumentParser) -> set[str]:
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= parser_flags(sub)
        elif not isinstance(action, argparse._HelpAction):
            flags.update(o for o in action.option_strings if o.startswith("--"))
    return flags


def test_readme_names_exactly_the_accepted_flags():
    """The CLI sections of the README name every long flag the parser
    accepts and no other (``--help`` aside)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    text = ""
    for title in ("Quick tour (CLI)", "CLI reference"):
        start = readme.index(f"\n## {title}\n")
        text += readme[start:readme.index("\n## ", start + 1)]
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", text))
    assert named == parser_flags(build_parser())
