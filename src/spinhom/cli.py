"""Command line interface.

One executable, one subcommand per pipeline stage: model validation,
periodic geometry, surface tension tables, bulk density tables, discrete
energies, coarse graining, limit evaluation, and the recovery-sequence
convergence experiment.  Tables stream as CSV (plot-ready) or JSON;
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import sys
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__
from .bulk_density import (
    island_error_constant,
    phi_bracket,
    phi_estimate,
)
from .connectivity import check_sides
from .gamma_limit import (
    DomainSpec,
    MultiphaseField,
    SpinField,
    converge_report,
    count_broken_strong,
    extend,
    f_eps,
    f_hom,
    limit_tables,
    save_field,
)
from .ground_state import TooManyFreeGroups
from .model import LatticeModel, load_model, number_str, parse_model
from .surface_tension import (
    SurfaceRow,
    SurfaceTable,
    canonical_direction,
    cell_value,
    check_cells,
)


DEFAULT_FORMAT = {
    "validate": "json",
    "components": "json",
    "fhom": "csv",
    "phi": "csv",
    "energy": "json",
    "extend": "json",
    "gamma-eval": "json",
    "converge": "csv",
}


# ---------------------------------------------------------------------------
# parsing and printing helpers


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated rationals, got {text!r}")


def _states(text: str) -> tuple[int, ...]:
    values = _int_list(text)
    if any(v not in (-1, 1) for v in values):
        raise argparse.ArgumentTypeError(f"states must be 1 or -1, got {text!r}")
    return values


def _num(value) -> str:
    if isinstance(value, Fraction):
        return number_str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _vec(values) -> str:
    return ",".join(_num(Fraction(v) if not isinstance(v, (int, float)) else v) for v in values)


def _jsonable(value):
    if isinstance(value, Fraction):
        return number_str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return value


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _render(fmt: str, header: list[str], rows: list[list], meta: dict) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_num(v) for v in row])
        return buf.getvalue()
    obj = dict(meta)
    obj["rows"] = [
        {name: _jsonable(value) for name, value in zip(header, row)} for row in rows
    ]
    return _json_text(obj)


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=1, sort_keys=True) + "\n"


def _json_arg(text: str, flag: str):
    """The value of ``flag``: a path to a JSON file, or inline JSON.  A
    parse or decode error names the flag and keeps the parser's message."""
    path = Path(text)
    try:
        found = path.is_file()
    except OSError:
        found = False
    try:
        return json.loads(path.read_text() if found else text)
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError from the file
        what = f"file {text} is not" if found else "value is neither a file nor"
        raise ValueError(f"{flag} {what} valid JSON: {exc}") from None


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one ``warning: <message>`` line on stderr, without the
    source location."""
    sys.stderr.write(f"warning: {message}\n")


def _recorded(fn, task):
    """``fn(*task)`` in a pool worker: its result or error, and the
    warnings it raised, for the parent to replay."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = fn(*task), None
        except Exception as exc:
            result, error = None, exc
    return result, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _run_tasks(fn, tasks: list, jobs: int) -> list:
    """``[fn(*task) for task in tasks]``, over a pool of ``jobs`` processes
    when that is more than one, with the stderr of a serial run: the
    parent replays each task's warnings in task order, de-duplicated per
    source location as a serial run does (one registry per source file),
    and raises the first task error after the warnings before it."""
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(*task) for task in tasks]
    import multiprocessing  # only a pool pays for the import

    with multiprocessing.Pool(min(jobs, len(tasks))) as pool:
        outcomes = pool.map(functools.partial(_recorded, fn), tasks)
    registries: dict[str, dict] = {}
    for _, error, caught in outcomes:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(
                message, category, filename, lineno, registry=registries.setdefault(filename, {})
            )
        if error is not None:
            raise error
    return [result for result, _, _ in outcomes]


# ---------------------------------------------------------------------------
# subcommands


def _witness_str(witness) -> str:
    if isinstance(witness, (list, tuple)):
        return "(" + ", ".join(_witness_str(w) for w in witness) + ")"
    return str(witness)


def cmd_validate(args: argparse.Namespace) -> int:
    report = load_model(args.model).report
    rows = [[v.rule, _witness_str(v.witness), v.message] for v in report.violations]
    text = _render(args.format, ["rule", "witness", "message"], rows, {"passed": report.passed})
    _emit(text, args.out)
    return 0 if report.passed else 1


def cmd_components(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    summary = model.summary
    rows = []
    for phase in sorted(summary.components):
        for comp in summary.components[phase]:
            rows.append([
                comp.phase,
                comp.classification,
                len(comp.residues),
                len(comp.displacement_basis),
                comp.lift_diameter if comp.lift_diameter is not None else "",
            ])
    meta = {
        "passed": model.report.passed,
        "island_radius": summary.island_radius,
        "densities": {str(j): summary.densities[j] for j in summary.densities},
        "core_residues": {
            str(j): sorted(summary.core_residues[j]) for j in summary.core_residues
        },
    }
    text = _render(
        args.format,
        ["phase", "classification", "residues", "displacement_rank", "lift_diameter"],
        rows, meta,
    )
    _emit(text, args.out)
    return 0


def _cell_model(path: str) -> LatticeModel:
    """The model of a command that builds cells, refused before any cell
    when it fails validation (:meth:`LatticeModel.check_valid`)."""
    model = load_model(path)
    model.check_valid()
    return model


def cmd_fhom(args: argparse.Namespace) -> int:
    model = _cell_model(args.model)
    direction = args.normal
    phase = args.phase
    phases = [phase] if phase is not None else list(range(1, model.num_phases + 1))
    sides = check_sides(args.sides)
    cells = [(j, direction, t) for j in phases for t in sides]
    check_cells(model, cells)
    values = _run_tasks(cell_value, [(model, *cell) for cell in cells], args.jobs)
    rows = [[j, _vec(direction), t, v] for (j, _, t), v in zip(cells, values)]
    nu, n = canonical_direction(direction), len(sides)
    estimates = {}
    for k, j in enumerate(phases):
        row = SurfaceRow(j, nu, tuple(sides), tuple(values[k * n:(k + 1) * n]))
        entry = {"estimate": row.estimate}
        if row.increment is not None:
            entry["increment"] = row.increment
        estimates[str(j)] = entry
    meta = {"direction": _vec(direction), "estimates": estimates}
    if len(phases) == model.num_phases:
        meta["total"] = sum((estimates[str(j)]["estimate"] for j in phases), Fraction(0))
    text = _render(args.format, ["phase", "normal", "side", "value"], rows, meta)
    _emit(text, args.out)
    return 0


def cmd_phi(args: argparse.Namespace) -> int:
    model = _cell_model(args.model)
    meta = {"island_error_constant": island_error_constant(model)}
    sides = args.sides
    if args.z is not None:
        states_list = [args.z]
    else:
        states_list = list(itertools.product((1, -1), repeat=model.num_phases))
    results = _run_tasks(phi_estimate, [(model, states, sides) for states in states_list], args.jobs)
    rows = []
    for states, phi_rows in zip(states_list, results):
        for row in phi_rows:
            rows.append([_vec(states), row.m, row.plain, row.corrected, row.lower, row.upper])
    text = _render(
        args.format, ["z", "m", "phi", "phi_corrected", "lower", "upper"], rows, meta
    )
    _emit(text, args.out)
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    model = load_model(args.model)
    field = SpinField.from_json_dict(_json_arg(args.field, "--field"))
    value = f_eps(model, field)
    obj = {
        "eps": field.eps,
        "sites": len(field.values),
        "energy": value,
        "broken_strong": count_broken_strong(model, field),
    }
    if args.format == "csv":
        text = _render(args.format, ["eps", "sites", "energy", "broken_strong"],
                       [[obj["eps"], obj["sites"], obj["energy"], obj["broken_strong"]]], {})
    else:
        text = _json_text(obj)
    _emit(text, args.out)
    return 0


def cmd_extend(args: argparse.Namespace) -> int:
    model = _cell_model(args.model)
    field = SpinField.from_json_dict(_json_arg(args.field, "--field"))
    result = extend(model, args.phase, field, args.m)
    obj = {
        "phase": result.phase,
        "m": result.m,
        "marked_count": result.marked_count,
        "marked": [list(z) for z in result.marked],
    }
    if args.out:
        save_field(result.field, args.out)
        obj["out"] = args.out
        sys.stdout.write(_json_text(obj))
    else:
        obj["field"] = result.field.to_json_dict()
        sys.stdout.write(_json_text(obj))
    return 0


def cmd_gamma_eval(args: argparse.Namespace) -> int:
    model = _cell_model(args.model)
    omega = DomainSpec.from_json_dict(_json_arg(args.omega, "--omega"))
    target = MultiphaseField.from_json_dict(_json_arg(args.target, "--target"))
    surface, phi = limit_tables(model, omega, target, args.sides, args.m_list)
    value = f_hom(model, omega, target, surface, phi)
    obj = {
        "value": value,
        "surface": [
            {"phase": row.phase, "normal": _vec(row.direction), "value": row.estimate}
            for row in surface.rows()
        ],
        "phi": [
            {"z": _vec(states), "value": phi.value(states)} for states in phi.states()
        ],
    }
    if args.format == "csv":
        text = _render(args.format, ["value"], [[value]], {})
    else:
        text = _json_text(obj)
    _emit(text, args.out)
    return 0


def cmd_converge(args: argparse.Namespace) -> int:
    model = _cell_model(args.model)
    omega = DomainSpec.from_json_dict(_json_arg(args.omega, "--omega"))
    target = MultiphaseField.from_json_dict(_json_arg(args.target, "--target"))
    report = converge_report(
        model, omega, target, args.eps, args.m,
        surface_side=args.surface_side, phi_side=args.phi_side,
    )
    rows = [[row.eps, row.energy, row.gap, report.reference] for row in report.rows]
    meta = {
        "reference": report.reference,
        "m": report.m,
        "surface_side": report.surface_side,
        "phi_side": report.phi_side,
        "decreasing": report.decreasing,
        "final_relative": report.final_relative,
    }
    text = _render(args.format, ["eps", "energy", "gap", "reference"], rows, meta)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# bundled example suite


def _fixture_dir():
    return resources.files("spinhom").joinpath("fixtures")


def _run_check(check: dict, cache: dict) -> tuple[bool, str]:
    name = check["fixture"]
    if name not in cache:
        cache[name] = parse_model(json.loads(_fixture_dir().joinpath(name).read_text()))
    model = cache[name]
    kind = check["kind"]
    if kind == "phi":
        states = tuple(check["states"])
        m = check["m"]
        row = phi_bracket(model, m, states)
        plain, corrected = row.plain, row.corrected
        target = Fraction(check["target"])
        tol = Fraction(check["tol"])
        ok = abs(plain - target) <= tol and abs(corrected - target) <= tol
        detail = f"phi_{m}{states} = {number_str(corrected)}"
    elif kind == "phi_sandwich":
        states = tuple(check["states"])
        m = check["m"]
        row = phi_bracket(model, m, states)
        plain, corrected = row.plain, row.corrected
        c = island_error_constant(model)
        ok = corrected - c / m <= plain <= corrected
        target, tol = None, None
        detail = (
            f"phi_{m}{states} = {number_str(plain)}, corrected {number_str(corrected)}, "
            f"c/m = {number_str(c / m)}"
        )
    elif kind == "fhom":
        phase = check["phase"]
        sides = check["sides"]
        value = SurfaceTable.from_model(model, [check["normal"]], sides).value(phase, check["normal"])
        target = Fraction(check["target"])
        tol = Fraction(check["tol"])
        ok = abs(value - target) <= tol
        detail = f"f_{sides[-1]}({_vec(check['normal'])}) = {number_str(value)}"
    elif kind == "fhom_total":
        sides = check["sides"]
        total = SurfaceTable.from_model(model, [check["normal"]], sides).total(check["normal"])
        target = Fraction(check["target"])
        tol = Fraction(check["tol"])
        ok = abs(total - target) <= tol
        detail = f"total f_{sides[-1]}({_vec(check['normal'])}) = {number_str(total)}"
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    if target is not None:
        detail += f", target {number_str(target)}"
        if tol:
            detail += f" within {number_str(tol)}"
    return ok, detail


def cmd_examples(args: argparse.Namespace) -> int:
    checks = json.loads(_fixture_dir().joinpath("expected.json").read_text())
    only = args.only
    cache: dict = {}
    failures = 0
    ran = 0
    for check in checks:
        if only and only not in check["name"]:
            continue
        ran += 1
        ok, detail = _run_check(check, cache)
        status = "PASS" if ok else "FAIL"
        if not ok:
            failures += 1
        sys.stdout.write(f"{status} {check['name']} ({check['fixture']}): {detail}\n")
    sys.stdout.write(f"{ran - failures}/{ran} checks passed\n")
    return 1 if failures or not ran else 0


# ---------------------------------------------------------------------------
# parser


class _Skipped:
    """Takes the arguments of a subcommand that a parser leaves out."""

    def add_argument(self, *args, **kwargs) -> None:
        pass


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line parser; with ``command``, the top level and that
    one subcommand only (the parser :func:`run` tries first)."""
    parser = argparse.ArgumentParser(
        prog="spinhom",
        description="Homogenized limits of periodic double-porosity spin systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        if command in (None, name):
            return subparsers.add_parser(name, **kwargs)
        return _Skipped()

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["csv", "json"], help="output format")
    common.add_argument("--json", dest="format", action="store_const", const="json",
                        help="shorthand for --format json")
    common.add_argument("--csv", dest="format", action="store_const", const="csv",
                        help="shorthand for --format csv")
    common.add_argument("--out", help="write output to a file instead of stdout")

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=_positive_int, default=1, help="parallel worker processes")

    p = add("validate", parents=[common], help="check a model file")
    p.add_argument("model")

    p = add("components", parents=[common],
            help="periodic components and their classification")
    p.add_argument("model")

    p = add("fhom", parents=[common, jobs], help="surface tension cell values")
    p.add_argument("model")
    p.add_argument("--normal", type=_fraction_list, required=True,
                   help="interface normal, comma-separated rationals")
    p.add_argument("--T", dest="sides", type=_int_list, required=True,
                   help="cube sides, comma-separated, increasing")
    p.add_argument("--phase", type=int, help="restrict to one phase (default: all)")

    p = add("phi", parents=[common, jobs],
            help="bulk density estimates on finite cubes")
    p.add_argument("model")
    p.add_argument("--M", dest="sides", type=_int_list, required=True,
                   help="cube sides, comma-separated, increasing")
    p.add_argument("--z", type=_states, help="phase states, e.g. 1,-1 (default: all)")

    p = add("energy", parents=[common], help="discrete energy of a spin field")
    p.add_argument("model")
    p.add_argument("--field", required=True, help="spin field JSON (path or inline)")

    p = add("extend", help="coarse-grain a field over cubes of side M")
    p.add_argument("model")
    p.add_argument("--field", required=True, help="spin field JSON (path or inline)")
    p.add_argument("--phase", type=int, required=True)
    p.add_argument("--M", dest="m", type=int, required=True)
    p.add_argument("--out", help="write the extended field to a file")

    p = add("gamma-eval", parents=[common],
            help="evaluate the limit functional on a target")
    p.add_argument("model")
    p.add_argument("--omega", required=True, help="domain JSON (path or inline)")
    p.add_argument("--target", required=True, help="target field JSON (path or inline)")
    p.add_argument("--T", dest="sides", type=_int_list, required=True,
                   help="surface tension cube sides, comma-separated, increasing")
    p.add_argument("--M", dest="m_list", type=_int_list, required=True,
                   help="bulk density cube sides, comma-separated, increasing")

    p = add("converge", parents=[common],
            help="recovery-sequence energies against the limit value")
    p.add_argument("model")
    p.add_argument("--omega", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--eps", type=_fraction_list, required=True,
                   help="lattice spacings, strictly decreasing")
    p.add_argument("--M", dest="m", type=int, required=True)
    p.add_argument("--surface-side", type=int, help="cube side for surface tensions (default M)")
    p.add_argument("--phi-side", type=int,
                   help="cube side for the bulk density reference (default: finest 1/eps)")

    p = add("examples", help="run the bundled fixture suite")
    p.add_argument("--only", help="substring filter on check names")

    return parser


HANDLERS = {
    "validate": cmd_validate,
    "components": cmd_components,
    "fhom": cmd_fhom,
    "phi": cmd_phi,
    "energy": cmd_energy,
    "extend": cmd_extend,
    "gamma-eval": cmd_gamma_eval,
    "converge": cmd_converge,
    "examples": cmd_examples,
}


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the subcommand
    named first when that suffices.  Help, ``--version``, a missing or
    unknown command and leftover arguments take the full parser, whose
    usage lines name every command."""
    if argv and argv[0] in HANDLERS and "-h" not in argv and "--help" not in argv:
        args, rest = build_parser(argv[0]).parse_known_args(argv)
        if not rest:
            return args
    return build_parser().parse_args(argv)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "format", None) is None:
        args.format = DEFAULT_FORMAT.get(args.command, "json")
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        return _dispatch(args)


def _dispatch(args: argparse.Namespace) -> int:
    try:
        return HANDLERS[args.command](args)
    except (TooManyFreeGroups, NotImplementedError, OSError, ValueError, KeyError) as exc:
        # ValueError covers schema, JSON and frustration errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
