"""Command line interface: exit codes, formats, determinism."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spinhom
from spinhom import bulk_density, cli, surface_tension
from spinhom.bulk_density import PhiTable, build_phi_instance
from spinhom.cli import build_parser, run
from spinhom.connectivity import core_phases
from spinhom.gamma_limit import load_field
from spinhom.ground_state import FrustratedInstance, TooManyFreeGroups
from spinhom.model import load_model, number_str
from spinhom.surface_tension import SurfaceTable

from conftest import (
    FIXTURES,
    INVALID_INCLUSIONS,
    cubic_3d_document,
    fixture_document,
    frus1d_document,
)
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


def test_components_passed_is_the_verdict_of_validate(capsys, tmp_path):
    """On a model that ``validate`` rejects, ``components`` still reports
    (exit 0) but does not say it passed."""
    path = mixed_model_path(tmp_path)
    assert run(["validate", path]) == 1
    capsys.readouterr()
    doc = json.loads(run_ok(capsys, ["components", path]))
    assert doc["passed"] is False


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


def test_energy_has_no_omega_option(capsys):
    """The field carries its domain; ``--omega`` is an unrecognized argument."""
    field = '{"eps": "1/4", "omega": {"lo": ["0"], "hi": ["1"]}, "spins_rle": [[3, 1]]}'
    assert run(["energy", CHAIN, "--field", field, "--omega", OMEGA_1D]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1].endswith(f"error: unrecognized arguments: --omega {OMEGA_1D}")


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


JSON_FLAG_ARGV = {
    "--field": lambda value: ["energy", CHAIN, "--field", value],
    "--omega": lambda value: ["gamma-eval", ISLANDS, "--omega", value, "--target", SLAB_1D,
                              "--T", "8", "--M", "8"],
    "--target": lambda value: ["gamma-eval", ISLANDS, "--omega", OMEGA_1D, "--target", value,
                               "--T", "8", "--M", "8"],
}


@pytest.mark.parametrize("flag", sorted(JSON_FLAG_ARGV))
@pytest.mark.parametrize("kind", ["missing-path", "malformed-inline", "malformed-file",
                                  "undecodable-file"])
def test_json_flag_error_names_the_flag(capsys, tmp_path, flag, kind):
    """A JSON flag value that does not parse exits 2 with one line naming
    the flag, what the value is not, and the parser's own message."""
    path = tmp_path / f"{flag[2:]}.json"
    if kind == "malformed-file":
        path.write_text('{"lo": [')
    if kind == "undecodable-file":
        path.write_bytes(b'\xff{"lo": []}')
    is_file = kind.endswith("-file")
    value = '{"lo": [' if kind == "malformed-inline" else str(path)
    with pytest.raises(ValueError) as parser:
        json.loads(path.read_text() if is_file else value)
    what = f"file {path} is not" if is_file else "value is neither a file nor"
    err = run_usage_error(capsys, JSON_FLAG_ARGV[flag](value))
    assert err == f"error: {flag} {what} valid JSON: {parser.value}\n"


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


@pytest.mark.parametrize("model, field", [
    (INCLUSIONS, '{"eps": "1/16", "omega": {"lo": ["0"], "hi": ["1"]}, "spins_rle": [[15, 1]]}'),
    (CHAIN, '{"eps": "1/8", "omega": {"lo": ["0","0"], "hi": ["1","1"]}, "spins_rle": [[49, 1]]}'),
], ids=["1d-field-2d-model", "2d-field-1d-model"])
def test_extend_refuses_a_field_of_another_dimension(capsys, model, field):
    assert run(["extend", model, "--field", field, "--phase", "1", "--M", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: field dimension does not match the model\n"


def test_extend_refuses_a_core_without_a_coarsening_side(capsys, tmp_path):
    """A valid period-2 chain whose two residues join only through a bond
    of length 401 has no coarsening side within 64 periods: ``extend``
    exits 2 with one error line instead of a traceback."""
    strong = [{"from": r, "offset": [o], "weight": "1"} for r in ("0", "1") for o in (2, -2)]
    strong += [{"from": "0", "offset": [401], "weight": "1"},
               {"from": "1", "offset": [-401], "weight": "1"}]
    doc = {"dimension": 1, "period": 2, "num_phases": 1, "labels": {"0": 1, "1": 1},
           "strong_bonds": strong}
    path = tmp_path / "slow.json"
    path.write_text(json.dumps(doc))
    assert run(["validate", str(path)]) == 0
    capsys.readouterr()
    field = '{"eps":"1/8","omega":{"lo":["0"],"hi":["1"]},"spins_rle":[[7,1]]}'
    assert run(["extend", str(path), "--phase", "1", "--M", "4", "--field", field]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: coarsening side of phase 1 exceeds 64 periods; "
                            "the core connects too slowly for cube-based coarsening\n")


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


@pytest.mark.parametrize("command", ["gamma-eval", "converge"])
@pytest.mark.parametrize("target, size", [
    ('{"phases":[{"boxes":[{"lo":["0.25"],"hi":["0.75"]}]}]}', 1),
    ('{"phases":[{"boxes":[{"lo":["0.25","0.25","0"],"hi":["0.75","0.75","1"]}]}]}', 3),
    ('{"phases":[{"slab":{"normal":["1"],"offset":"0.5"}}]}', 1),
])
def test_limit_commands_refuse_a_target_of_another_dimension(monkeypatch, capsys, command, target, size):
    """Exit 2 with one line, before any cell is solved."""
    def unsolved(*args, **kwargs):
        raise AssertionError("a cell was solved")

    monkeypatch.setattr(SurfaceTable, "from_model", unsolved)
    monkeypatch.setattr(PhiTable, "from_model", unsolved)
    sides = ["--T", "4", "--M", "4"] if command == "gamma-eval" else ["--eps", "1/8", "--M", "4"]
    argv = [command, INCLUSIONS, "--omega", '{"lo":["0","0"],"hi":["1","1"]}', "--target", target]
    assert run(argv + sides) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: target phase 1 is {size}-dimensional, the domain 2-dimensional\n"


SQUARE_2D = '{"lo":["0","0"],"hi":["1","1"]}'
BOX_2D = '{"phases":[{"boxes":[{"lo":["0.25","0.25"],"hi":["0.75","0.75"]}]}]}'
CONSTANT = '{"phases":[{"constant":1}]}'
GAMMA_SIDES = ["--T", "4", "--M", "4"]
CONVERGE_SIDES = ["--eps", "1/8", "--M", "4"]


@pytest.mark.parametrize("command, model, omega, target, sides, message", [
    pytest.param("gamma-eval", INCLUSIONS, SQUARE_2D, '{"phases":[{"constant":1},{"constant":-1}]}',
                 GAMMA_SIDES, "target has 2 phases, model has 1", id="phases-gamma-eval"),
    pytest.param("converge", INCLUSIONS, SQUARE_2D, '{"phases":[{"constant":1},{"constant":-1}]}',
                 CONVERGE_SIDES, "target has 2 phases, model has 1", id="phases-converge"),
    pytest.param("gamma-eval", INCLUSIONS, OMEGA_1D, CONSTANT, GAMMA_SIDES,
                 "domain dimension does not match the model", id="domain-gamma-eval"),
    pytest.param("converge", INCLUSIONS, OMEGA_1D, CONSTANT, CONVERGE_SIDES,
                 "domain dimension does not match the model", id="domain-converge"),
    pytest.param("gamma-eval", INCLUSIONS, OMEGA_1D, SLAB_1D, GAMMA_SIDES,
                 "domain dimension does not match the model", id="domain-slab"),
    pytest.param("gamma-eval", "cubic_3d", '{"lo":["0","0","0"],"hi":["1","1","1"]}',
                 '{"phases":[{"slab":{"normal":["1","1","0"],"offset":"1"}}]}', ["--T", "2", "--M", "2"],
                 "interfaces with non-axis normals need dimension <= 2", id="oblique-3d"),
    pytest.param("converge", "cubic_3d", '{"lo":["0","0","0"],"hi":["1","1","1"]}',
                 '{"phases":[{"slab":{"normal":["1","1","0"],"offset":"1"}}]}', ["--eps", "1/4", "--M", "2"],
                 "interfaces with non-axis normals need dimension <= 2", id="oblique-3d-converge"),
    pytest.param("gamma-eval", INCLUSIONS, SQUARE_2D, BOX_2D, ["--T", "4", "--M", "8,4"],
                 "cube sides must be strictly increasing", id="phi-sides-order"),
    pytest.param("gamma-eval", INCLUSIONS, SQUARE_2D, BOX_2D, ["--T", "4", "--M", "0"],
                 "cube side must be positive", id="phi-side-positive-gamma-eval"),
    pytest.param("converge", INCLUSIONS, SQUARE_2D, BOX_2D, CONVERGE_SIDES + ["--phi-side", "0"],
                 "cube side must be positive", id="phi-side-positive-converge"),
    pytest.param("converge", INCLUSIONS, SQUARE_2D, BOX_2D, ["--eps", "1/8", "--M", "3"],
                 "cube side must be a positive multiple of 2", id="pasting-side"),
])
def test_limit_commands_refuse_bad_input_before_any_cell(
    monkeypatch, capsys, tmp_path, command, model, omega, target, sides, message
):
    """Exit 2 with one line, before any surface or bulk cell is solved."""
    def unsolved(*args, **kwargs):
        raise AssertionError("a cell was solved")

    monkeypatch.setattr(SurfaceTable, "from_model", unsolved)
    monkeypatch.setattr(PhiTable, "from_model", unsolved)
    monkeypatch.setattr(surface_tension, "cell_value", unsolved)
    if model == "cubic_3d":
        model = tmp_path / "cubic.json"
        model.write_text(json.dumps(cubic_3d_document()))
    assert run([command, str(model), "--omega", omega, "--target", target] + sides) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


MIXED_ERROR = ("error: the model fails validation (symmetry): bond (from=(0,), offset=(1,)) "
               "weight 1/4 differs from reverse weight 1/8\n")


def test_phi_refuses_a_strong_bond_between_cores(capsys, tmp_path):
    """``phi`` refuses the mixed model instead of holding one mixed cluster,
    with its first ``validate`` violation; the library cell builders refuse
    it with the same line."""
    path = mixed_model_path(tmp_path)
    assert run(["validate", path]) == 1
    capsys.readouterr()
    assert run(["phi", path, "--M", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == MIXED_ERROR
    with pytest.raises(ValueError, match=re.escape(MIXED_ERROR[len("error: "):-1])):
        core_phases(load_model(path))


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


def loose_model_path(tmp_path, label2: int) -> str:
    """A period-4 chain whose residue 0 is a phase-1 core and whose loose
    hard residue 1 has a strong bond to residue 2, labelled ``label2``,
    which declares the reverse offset as a weak bond.  Either way it fails
    the hard-closure rule, though the bond leaves no core: with ``label2``
    0 the bond joins a hard residue and a soft one, with ``label2`` 1 it
    has no strong reverse."""
    doc = {
        "dimension": 1,
        "period": 4,
        "num_phases": 1,
        "labels": {"0": 1, "1": 1, "2": label2, "3": 0},
        "strong_bonds": [{"from": "0", "offset": [4], "weight": "1"},
                         {"from": "0", "offset": [-4], "weight": "1"},
                         {"from": "1", "offset": [1], "weight": "1"}],
        "weak_bonds": [{"from": "2", "offset": [-1], "weight": "1"},
                       {"from": "2", "offset": [1], "weight": "1"},
                       {"from": "3", "offset": [-1], "weight": "1"},
                       {"from": "3", "offset": [1], "weight": "1"},
                       {"from": "0", "offset": [-1], "weight": "1"}],
        "forcing": {"2": {"plus": "0", "minus": "1"}, "3": {"plus": "0", "minus": "1"}},
    }
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(doc))
    return str(path)


LOOSE_ARGVS = [
    ["phi", "--M", "4,8", "--z", "1"],
    ["fhom", "--normal", "1", "--T", "8"],
    ["gamma-eval", "--omega", OMEGA_1D, "--target", SLAB_1D, "--T", "4", "--M", "4"],
    ["converge", "--omega", OMEGA_1D, "--target", SLAB_1D, "--eps", "1/8,1/16", "--M", "4"],
    ["extend", "--field", '{"eps": "1/16", "omega": {"lo": ["0"], "hi": ["1"]}, '
                          '"spins_rle": [[15, 1]]}', "--phase", "1", "--M", "4"],
]
# per model: the label of residue 2, its first violation, and the suffix
# of the test ids
LOOSE_MODELS = [
    (0, "(hard-closure): strong bond (from=(1,), offset=(1,)) leaves phase 1 (target label 0)", ""),
    (1, "(weak-admissibility): weak bond (from=(2,), offset=(-1,)) joins two sites of hard phase 1",
     "-one-way"),
]


@pytest.mark.parametrize("argv, label2, violation", [
    pytest.param(argv, label2, violation, id=argv[0] + suffix)
    for label2, violation, suffix in LOOSE_MODELS for argv in LOOSE_ARGVS
])
def test_cell_builders_refuse_a_strong_bond_between_labels(
    capsys, tmp_path, argv, label2, violation
):
    """A strong bond from a loose hard residue to a soft one, or to a hard
    one that declares the reverse offset as a weak bond, makes
    ``validate`` exit 1 and every command that builds a cell exit 2 with
    the first violation; the library cell builders refuse the model with
    the same line."""
    path = loose_model_path(tmp_path, label2)
    assert run(["validate", path]) == 1
    capsys.readouterr()
    assert run([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the model fails validation {violation}\n"
    with pytest.raises(ValueError, match=re.escape(f"the model fails validation {violation}")):
        core_phases(load_model(path))


def invalid_inclusions_path(tmp_path, change) -> str:
    """``soft_inclusions_2d`` after ``change`` edits its document."""
    doc = fixture_document("soft_inclusions_2d")
    change(doc)
    path = tmp_path / "invalid.json"
    path.write_text(json.dumps(doc))
    return str(path)


GATE_ARGVS = [
    ["phi", "--M", "8", "--z", "-1"],
    ["fhom", "--normal", "1,2", "--T", "8,16"],
    ["gamma-eval", "--omega", SQUARE_2D, "--target", BOX_2D, "--T", "4", "--M", "4"],
    ["converge", "--omega", SQUARE_2D, "--target", BOX_2D, "--eps", "1/8,1/16", "--M", "4"],
    ["extend", "--field", '{"eps": "1/8", "omega": ' + SQUARE_2D + ', "spins_rle": [[49, 1]]}',
     "--phase", "1", "--M", "4"],
]


@pytest.mark.parametrize("change, violation", INVALID_INCLUSIONS)
@pytest.mark.parametrize("argv", GATE_ARGVS, ids=lambda argv: argv[0])
def test_cell_commands_refuse_a_model_that_fails_validation(
    monkeypatch, capsys, tmp_path, change, violation, argv
):
    """Each command that builds a cell runs ``validate`` first and exits 2
    with one line naming the first violation, before any cell is built;
    ``validate`` exits 1 and ``components`` still reports."""
    path = invalid_inclusions_path(tmp_path, change)

    def unbuilt(*args, **kwargs):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(surface_tension, "_cell_instance", unbuilt)
    monkeypatch.setattr(bulk_density, "build_phi_instance", unbuilt)
    monkeypatch.setattr(cli, "extend", unbuilt)
    assert run(["validate", path]) == 1
    assert run(["components", path]) == 0
    capsys.readouterr()
    assert run([argv[0], path, *argv[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: the model fails validation {violation}\n"


T = "two_chains.json"  # run from the fixture directory, so test ids hold no path
PARSER_ARGVS = (
    [[name, "-h"] for name in cli.COMMANDS]
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
    """:func:`run` reads a well-formed command line without argparse; its
    stdout, stderr and exit code are those of the full parser alone."""
    monkeypatch.chdir(FIXTURES)
    lazy = run(argv), *capsys.readouterr()
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert (run(argv), *capsys.readouterr()) == lazy


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, row in cli.COMMANDS.items()
    for flag, spec in row[2] if spec.get("action") != "store_const"
])
def test_flag_given_as_equals_double_dash_is_a_missing_value(monkeypatch, capsys, command, flag):
    """``--flag=--`` names no value: argparse drops the ``--``, and the
    command exits 2 with the usage line and the message of a flag given
    last with no value, instead of running on an empty value."""
    monkeypatch.chdir(FIXTURES)
    model = [T] if cli.COMMANDS[command][1] else []
    assert run([command, *model, flag]) == 2
    missing = capsys.readouterr()
    assert f"error: argument {flag}: expected one argument" in missing.err
    assert run([command, *model, f"{flag}=--"]) == 2
    assert capsys.readouterr() == missing


@pytest.mark.parametrize("command, phrases", [
    ("gamma-eval", ["--T SIDES surface tension cube sides, comma-separated, increasing",
                    "--M M_LIST bulk density cube sides, comma-separated, increasing"]),
    ("energy", ["--field FIELD spin field JSON (path or inline)"]),
])
def test_help_states_what_the_options_take(capsys, command, phrases):
    assert run([command, "-h"]) == 0
    text = " ".join(capsys.readouterr().out.split())
    for phrase in phrases:
        assert phrase in text


def test_run_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["spinhom", "--version"])
    assert run() == 0
    assert capsys.readouterr().out == f"spinhom {spinhom.__version__}\n"


def test_well_formed_command_line_builds_no_parser(monkeypatch, capsys):
    """Command lines like the benchmark's, and the `=` form with a negative
    value, are read without building the argparse parser."""

    def unbuilt():
        raise AssertionError("the argparse parser was built")

    monkeypatch.setattr(cli, "build_parser", unbuilt)
    monkeypatch.chdir(FIXTURES)
    assert run(["phi", T, "--M", "2,4", "--z=-1,1", "--json"]) == 0
    assert run(["fhom", "diagonal_2d.json", "--normal=-1,2", "--T", "4", "--jobs", "1"]) == 0
    assert run(["converge", "soft_inclusions_2d.json", "--omega", SQUARE_2D, "--target", BOX_2D,
                "--eps", "1/8,1/16", "--M", "8", "--phi-side", "16"]) == 0
    assert capsys.readouterr().err == ""


def sample_value(rng, spec) -> str:
    """A value for an option: of its type, of the wrong type, negative, or
    odd text ("", "-", a flag)."""
    good = {
        cli._int_list: ["4", "2,8", "-3", "4,-2"],
        cli._positive_int: ["1", "2", "-1", "0"],
        cli._fraction_list: ["1,2", "-1,2", "1/3", "-.5", "0.25,1"],
        cli._states: ["1", "-1", "1,-1", "-1,-1"],
        int: ["3", "-2", "0"],
        None: ["a", "{}", "-5", "a=b", "x y"],
    }[spec.get("type")]
    if "choices" in spec:
        good = list(spec["choices"])
    bad = ["x", "", "2.5", "-", "--", "-x", "--json", "1,,2", "-1.5", "xml"]
    return rng.choice(good if rng.random() < 0.8 else bad)


def sample_argv(rng, command: str) -> list[str]:
    """A command line for ``command``: its required flags and some optional
    ones (repeats allowed) in random order and in both the space and the
    `=` form, the model path somewhere, and now and then a fault: a
    dropped required flag, a missing value, an abbreviation, an unknown
    flag, ``-``, ``--``, ``-h``, a leftover or negative positional."""
    _, takes_model, options, _ = cli.COMMANDS[command]
    chosen = [o for o in options if o[1].get("required")]
    chosen += rng.sample(options, rng.randint(0, min(3, len(options))))
    rng.shuffle(chosen)
    pieces = []
    for flag, spec in chosen:
        if spec.get("action") == "store_const":
            pieces.append([flag])
        elif rng.random() < 0.5:
            pieces.append([f"{flag}={sample_value(rng, spec)}"])
        else:
            pieces.append([flag, sample_value(rng, spec)])
    if takes_model:
        pieces.insert(rng.randint(0, len(pieces)), [T])
    if rng.random() < 0.4:
        fault = rng.choice([
            "drop", "cut", "abbrev", "unknown", "-", "--", "-h", "--version", "extra",
            "negative", "const=",
        ])
        if fault == "drop" and pieces:
            pieces.pop(rng.randrange(len(pieces)))
        elif fault == "cut" and pieces and len(pieces[-1]) == 2:
            pieces[-1].pop()
        elif fault == "abbrev":
            flag, spec = rng.choice(options)
            pieces.append([flag[:-1] if len(flag) > 3 else flag + "x"])
            if spec.get("action") != "store_const":
                pieces[-1].append(sample_value(rng, spec))
        elif fault == "unknown":
            pieces.insert(rng.randint(0, len(pieces)), ["--bogus"])
        elif fault in ("-", "--", "-h", "--version"):
            pieces.insert(rng.randint(0, len(pieces)), [fault])
        elif fault == "extra":
            pieces.insert(rng.randint(0, len(pieces)), ["U"])
        elif fault == "negative":
            pieces.insert(rng.randint(0, len(pieces)), ["-7"])
        elif fault == "const=":
            pieces.append(["--json=json"])
    return [command] + [token for piece in pieces for token in piece]


def left_to_argparse(token: str, flags: dict) -> bool:
    """Whether the fast reader leaves ``token`` to argparse, which may read
    it: "-", "--", a negative positional, an abbreviated flag, ``--flag=--``."""
    flag, _, value = token.partition("=")
    return token in ("-", "--", "-7") or flag.startswith("--") and (flag not in flags or value == "--")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_fast_reader_agrees_with_argparse(command):
    """On generated command lines, wherever the fast reader returns a
    result it equals argparse's; where argparse refuses, so does the fast
    reader; and it reads every well-formed line that argparse accepts."""
    parser = build_parser()
    flags = dict(cli.COMMANDS[command][2])
    rng = random.Random(command)
    read = 0
    for _ in range(400):
        argv = sample_argv(rng, command)
        fast = cli._read_argv(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                full = vars(parser.parse_args(argv))
            except SystemExit:
                full = None
        if fast is not None:
            assert vars(fast) == full, argv
            read += 1
        elif full is not None:
            assert any(left_to_argparse(token, flags) for token in argv[1:]), argv
    assert read >= 100


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
