"""Command line interface.

One executable, one subcommand per pipeline stage: model validation,
periodic geometry, surface tension tables, bulk density tables, discrete
energies, coarse graining, limit evaluation, and the recovery-sequence
convergence experiment.  Tables stream as CSV (plot-ready) or JSON;
identical invocations produce byte-identical output.

Each subcommand is one row of :data:`COMMANDS`, its whole declaration:
its help, whether it takes a model path, its options (``--format``
carrying the subcommand's default format: csv for ``fhom``, ``phi`` and
``converge``, json for the rest) and its handler.  A well-formed command
line (exact long flags, values of the right form) is read straight from
that table by :func:`_read_argv`, without importing argparse.  Help,
``--version`` and whatever that reader refuses go to the full argparse
parser, which :func:`build_parser` builds from the same table: help
text, usage lines, error messages and exit codes are argparse's.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import re
import sys
import warnings
from fractions import Fraction
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

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


# ---------------------------------------------------------------------------
# parsing and printing helpers


def _bad_value(message: str) -> Exception:
    """The error argparse prints as ``argument --flag: <message>``; only a
    refused value imports argparse."""
    import argparse

    return argparse.ArgumentTypeError(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _bad_value(f"expected comma-separated integers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise _bad_value(f"expected a positive integer, got {text!r}")
    return value


def _fraction_list(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(part) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise _bad_value(f"expected comma-separated rationals, got {text!r}")


def _states(text: str) -> tuple[int, ...]:
    values = _int_list(text)
    if any(v not in (-1, 1) for v in values):
        raise _bad_value(f"states must be 1 or -1, got {text!r}")
    return values


def _num(value) -> str:
    """A scalar as printed: a Fraction exactly (:func:`number_str`), a
    float by its repr, anything else by str."""
    if isinstance(value, Fraction):
        return number_str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _vec(values) -> str:
    return ",".join(map(_num, values))


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return _num(value) if isinstance(value, (Fraction, float)) else value


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


def _one_row(fmt: str, obj: dict, columns: list[str]) -> str:
    """``obj`` as JSON, or its ``columns`` as a one-row csv table."""
    if fmt == "csv":
        return _render(fmt, columns, [[obj[c] for c in columns]], {})
    return _json_text(obj)


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


def cmd_validate(args: SimpleNamespace) -> int:
    report = load_model(args.model).report
    rows = [[v.rule, _witness_str(v.witness), v.message] for v in report.violations]
    text = _render(args.format, ["rule", "witness", "message"], rows, {"passed": report.passed})
    _emit(text, args.out)
    return 0 if report.passed else 1


def cmd_components(args: SimpleNamespace) -> int:
    model = load_model(args.model)
    summary = model.summary
    rows = [
        [comp.phase, comp.classification, len(comp.residues), len(comp.displacement_basis),
         comp.lift_diameter if comp.lift_diameter is not None else ""]
        for phase in sorted(summary.components) for comp in summary.components[phase]
    ]
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


def cmd_fhom(args: SimpleNamespace) -> int:
    model = _cell_model(args.model)
    direction = args.normal
    phases = [args.phase] if args.phase is not None else list(range(1, model.num_phases + 1))
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


def cmd_phi(args: SimpleNamespace) -> int:
    model = _cell_model(args.model)
    meta = {"island_error_constant": island_error_constant(model)}
    if args.z is not None:
        states_list = [args.z]
    else:
        states_list = list(itertools.product((1, -1), repeat=model.num_phases))
    results = _run_tasks(phi_estimate, [(model, states, args.sides) for states in states_list],
                         args.jobs)
    rows = []
    for states, phi_rows in zip(states_list, results):
        for row in phi_rows:
            rows.append([_vec(states), row.m, row.plain, row.corrected, row.lower, row.upper])
    text = _render(
        args.format, ["z", "m", "phi", "phi_corrected", "lower", "upper"], rows, meta
    )
    _emit(text, args.out)
    return 0


def cmd_energy(args: SimpleNamespace) -> int:
    model = load_model(args.model)
    field = SpinField.from_json_dict(_json_arg(args.field, "--field"))
    value = f_eps(model, field)
    obj = {
        "eps": field.eps,
        "sites": field.spins.size,
        "energy": value,
        "broken_strong": count_broken_strong(model, field),
    }
    _emit(_one_row(args.format, obj, list(obj)), args.out)
    return 0


def cmd_extend(args: SimpleNamespace) -> int:
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
    else:
        obj["field"] = result.field.to_json_dict()
    sys.stdout.write(_json_text(obj))
    return 0


def cmd_gamma_eval(args: SimpleNamespace) -> int:
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
    _emit(_one_row(args.format, obj, ["value"]), args.out)
    return 0


def cmd_converge(args: SimpleNamespace) -> int:
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
    """Whether one check of the suite passes, and the detail it prints.
    A check with a target passes when each of its values lies within
    ``tol`` of it; the island sandwich tests its own bracket instead."""
    name = check["fixture"]
    if name not in cache:
        cache[name] = parse_model(json.loads(_fixture_dir().joinpath(name).read_text()))
    model = cache[name]
    kind = check["kind"]
    if kind in ("phi", "phi_sandwich"):
        m, states = check["m"], tuple(check["states"])
        row = phi_bracket(model, m, states)
        values = (row.plain, row.corrected)
        detail = f"phi_{m}{states} = {number_str(row.corrected)}"
        if kind == "phi_sandwich":
            c = island_error_constant(model) / m
            ok = row.corrected - c <= row.plain <= row.corrected
            detail = (
                f"phi_{m}{states} = {number_str(row.plain)}, corrected "
                f"{number_str(row.corrected)}, c/m = {number_str(c)}"
            )
    elif kind in ("fhom", "fhom_total"):
        normal, sides = check["normal"], check["sides"]
        table = SurfaceTable.from_model(model, [normal], sides)
        total = kind == "fhom_total"
        values = (table.total(normal) if total else table.value(check["phase"], normal),)
        detail = f"{'total ' * total}f_{sides[-1]}({_vec(normal)}) = {number_str(values[0])}"
    else:
        raise ValueError(f"unknown check kind {kind!r}")
    if kind != "phi_sandwich":
        target, tol = Fraction(check["target"]), Fraction(check["tol"])
        ok = all(abs(v - target) <= tol for v in values)
        detail += f", target {number_str(target)}"
        if tol:
            detail += f" within {number_str(tol)}"
    return ok, detail


def cmd_examples(args: SimpleNamespace) -> int:
    checks = json.loads(_fixture_dir().joinpath("expected.json").read_text())
    chosen = [check for check in checks if not args.only or args.only in check["name"]]
    cache: dict = {}
    failures = 0
    for check in chosen:
        ok, detail = _run_check(check, cache)
        failures += not ok
        status = "PASS" if ok else "FAIL"
        sys.stdout.write(f"{status} {check['name']} ({check['fixture']}): {detail}\n")
    sys.stdout.write(f"{len(chosen) - failures}/{len(chosen)} checks passed\n")
    return 1 if failures or not chosen else 0


# ---------------------------------------------------------------------------
# parser

# An option: the flag, then the keyword arguments of ``add_argument``
# (``dest`` always; a dest takes the default of the first option naming
# it, as in argparse).  build_parser() and _read_argv() both walk them.
def _output(default: str) -> tuple:
    """The output options, the format defaulting to ``default``."""
    return (
        ("--format", {"dest": "format", "choices": ("csv", "json"), "default": default,
                      "help": "output format"}),
        ("--json", {"dest": "format", "action": "store_const", "const": "json",
                    "help": "shorthand for --format json"}),
        ("--csv", {"dest": "format", "action": "store_const", "const": "csv",
                   "help": "shorthand for --format csv"}),
        ("--out", {"dest": "out", "help": "write output to a file instead of stdout"}),
    )


_JOBS = (
    ("--jobs", {"dest": "jobs", "type": _positive_int, "default": 1,
                "help": "parallel worker processes"}),
)
_FIELD = ("--field", {"dest": "field", "required": True,
                      "help": "spin field JSON (path or inline)"})

# subcommand -> (help, whether it takes a model path, options, handler)
COMMANDS = {
    "validate": ("check a model file", True, _output("json"), cmd_validate),
    "components": ("periodic components and their classification", True, _output("json"),
                   cmd_components),
    "fhom": ("surface tension cell values", True, _output("csv") + _JOBS + (
        ("--normal", {"dest": "normal", "type": _fraction_list, "required": True,
                      "help": "interface normal, comma-separated rationals"}),
        ("--T", {"dest": "sides", "type": _int_list, "required": True,
                 "help": "cube sides, comma-separated, increasing"}),
        ("--phase", {"dest": "phase", "type": int, "help": "restrict to one phase (default: all)"}),
    ), cmd_fhom),
    "phi": ("bulk density estimates on finite cubes", True, _output("csv") + _JOBS + (
        ("--M", {"dest": "sides", "type": _int_list, "required": True,
                 "help": "cube sides, comma-separated, increasing"}),
        ("--z", {"dest": "z", "type": _states, "help": "phase states, e.g. 1,-1 (default: all)"}),
    ), cmd_phi),
    "energy": ("discrete energy of a spin field", True, _output("json") + (_FIELD,), cmd_energy),
    "extend": ("coarse-grain a field over cubes of side M", True, (
        _FIELD,
        ("--phase", {"dest": "phase", "type": int, "required": True}),
        ("--M", {"dest": "m", "type": int, "required": True}),
        ("--out", {"dest": "out", "help": "write the extended field to a file"}),
    ), cmd_extend),
    "gamma-eval": ("evaluate the limit functional on a target", True, _output("json") + (
        ("--omega", {"dest": "omega", "required": True, "help": "domain JSON (path or inline)"}),
        ("--target", {"dest": "target", "required": True,
                      "help": "target field JSON (path or inline)"}),
        ("--T", {"dest": "sides", "type": _int_list, "required": True,
                 "help": "surface tension cube sides, comma-separated, increasing"}),
        ("--M", {"dest": "m_list", "type": _int_list, "required": True,
                 "help": "bulk density cube sides, comma-separated, increasing"}),
    ), cmd_gamma_eval),
    "converge": ("recovery-sequence energies against the limit value", True, _output("csv") + (
        ("--omega", {"dest": "omega", "required": True}),
        ("--target", {"dest": "target", "required": True}),
        ("--eps", {"dest": "eps", "type": _fraction_list, "required": True,
                   "help": "lattice spacings, strictly decreasing"}),
        ("--M", {"dest": "m", "type": int, "required": True}),
        ("--surface-side", {"dest": "surface_side", "type": int,
                            "help": "cube side for surface tensions (default M)"}),
        ("--phi-side", {"dest": "phi_side", "type": int, "help":
                        "cube side for the bulk density reference (default: finest 1/eps)"}),
    ), cmd_converge),
    "examples": ("run the bundled fixture suite", False, (
        ("--only", {"dest": "only", "help": "substring filter on check names"}),
    ), cmd_examples),
}


def build_parser():
    """The full ``argparse`` parser of :data:`COMMANDS`: it reads what
    :func:`_read_argv` leaves, and prints the help, usage lines and
    errors."""
    import argparse  # only help, --version and a refused argv pay for it

    class Store(argparse.Action):
        """argparse's ``store``, refusing the ``[]`` that argparse stores for
        ``--flag=--`` (it drops the ``--``, then skips type and choices)."""

        def __call__(self, parser, namespace, values, option_string=None):
            if values == []:
                raise argparse.ArgumentError(self, "expected one argument")
            setattr(namespace, self.dest, values)

    parser = argparse.ArgumentParser(
        prog="spinhom",
        description="Homogenized limits of periodic double-porosity spin systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (text, takes_model, options, _) in COMMANDS.items():
        p = subparsers.add_parser(name, help=text)
        if takes_model:
            p.add_argument("model")
        for flag, spec in options:
            p.add_argument(flag, **{"action": Store, **spec})
    return parser


# a token argparse takes as a value although it starts with "-" (its
# pattern on every supported Python version)
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """``build_parser().parse_args(argv)`` for a well-formed ``argv``, read
    without argparse; None for anything else.

    Well formed: a subcommand, its one model path if it takes one, and
    exact long flags of :data:`COMMANDS` as ``--flag value`` or
    ``--flag=value`` (no value for a ``store_const`` flag), a value that
    starts with ``-`` being a negative number, with every required flag
    given and every value of its type and choices.  Help, ``--version``,
    an abbreviated or unknown flag, ``-``, ``--``, a missing or bad value
    and a leftover token go to argparse, which reports them.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, takes_model, options, _ = COMMANDS[argv[0]]
    specs = dict(options)
    values = {"command": argv[0]}
    for spec in specs.values():
        values.setdefault(spec["dest"], spec.get("default"))
    positionals, seen = [], set()
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        flag, eq, text = token.partition("=")
        spec = specs.get(flag)
        if spec is None:
            return None
        if spec.get("action") == "store_const":
            if eq:
                return None
            value = spec["const"]
        else:
            if eq:
                if text == "--":  # argparse reports it as a missing value
                    return None
            else:
                text = next(tokens, None)
                if text is None or (text.startswith("-") and not _NEGATIVE_NUMBER.fullmatch(text)):
                    return None
            try:
                value = spec.get("type", str)(text)
            except Exception:  # argparse reports it, with its own message
                return None
            if "choices" in spec and value not in spec["choices"]:
                return None
        values[spec["dest"]] = value
        seen.add(flag)
    if len(positionals) != takes_model:
        return None
    if any(spec.get("required") and flag not in seen for flag, spec in options):
        return None
    if takes_model:
        values["model"] = positionals[0]
    return SimpleNamespace(**values)


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command line ``argv``, read by :func:`_read_argv` when well
    formed; else by the full parser, which exits on help, ``--version`` and
    an error."""
    return _read_argv(argv) or SimpleNamespace(**vars(build_parser().parse_args(argv)))


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    with warnings.catch_warnings():
        warnings.showwarning = _warning_line
        return _dispatch(args)


def _dispatch(args: SimpleNamespace) -> int:
    try:
        return COMMANDS[args.command][3](args)
    except (TooManyFreeGroups, NotImplementedError, OSError, ValueError, KeyError) as exc:
        # ValueError covers schema, JSON and frustration errors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
