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
import io
import itertools
import json
import multiprocessing
import sys
import warnings
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import __version__
from .bulk_density import (
    island_error_constant,
    phi_bracket,
    phi_estimate,
    PhiTable,
)
from .connectivity import classify
from .gamma_limit import (
    DomainSpec,
    MultiphaseField,
    SpinField,
    _target_directions,
    converge_report,
    count_broken_strong,
    extend,
    f_eps,
    f_hom,
    save_field,
)
from .ground_state import FrustratedInstance, TooManyFreeGroups
from .model import SchemaError, load_model, number_str, parse_model, validate
from .surface_tension import SurfaceTable, cell_value, fhom_total


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


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    model_path: str | None
    fmt: str
    out: str | None
    jobs: int
    enum_cap: int | None
    method: str
    allow_anneal: bool
    seed: int
    options: argparse.Namespace

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        return cls(
            subcommand=args.command,
            model_path=getattr(args, "model", None),
            fmt=getattr(args, "format", None) or DEFAULT_FORMAT.get(args.command, "json"),
            out=getattr(args, "out", None),
            jobs=max(1, getattr(args, "jobs", 1) or 1),
            enum_cap=getattr(args, "enum_cap", None),
            method=getattr(args, "method", "auto"),
            allow_anneal=getattr(args, "anneal", False),
            seed=getattr(args, "seed", 0),
            options=args,
        )

    @property
    def solver(self) -> dict:
        return dict(
            method=self.method,
            cap=self.enum_cap,
            allow_anneal=self.allow_anneal,
            seed=self.seed,
        )


# ---------------------------------------------------------------------------
# parsing and printing helpers


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


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


def _render(cfg: RunConfig, header: list[str], rows: list[list], meta: dict) -> str:
    if cfg.fmt == "csv":
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
    return json.dumps(_jsonable(obj), indent=1, sort_keys=True) + "\n"


def _json_text(obj) -> str:
    return json.dumps(_jsonable(obj), indent=1, sort_keys=True) + "\n"


def _json_arg(text: str):
    """A flag value that is either a path to a JSON file or inline JSON."""
    path = Path(text)
    try:
        found = path.is_file()
    except OSError:
        found = False
    if found:
        return json.loads(path.read_text())
    return json.loads(text)


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one ``warning: <message>`` line on stderr, without the
    source location.  The line goes out in one write, flushed at once, so
    lines from concurrent pool workers neither interleave nor get lost."""
    sys.stderr.write(f"warning: {message}\n")
    sys.stderr.flush()


def _use_warning_lines() -> None:
    """Print warnings through :func:`_warning_line`; run in every ``--jobs``
    worker too, whatever the start method."""
    warnings.showwarning = _warning_line


def _run_tasks(fn, tasks: list, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    with multiprocessing.Pool(min(jobs, len(tasks)), _use_warning_lines) as pool:
        return pool.map(fn, tasks)


# ---------------------------------------------------------------------------
# subcommands


def _witness_str(witness) -> str:
    if isinstance(witness, (list, tuple)):
        return "(" + ", ".join(_witness_str(w) for w in witness) + ")"
    return str(witness)


def cmd_validate(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    report = validate(model)
    rows = [[v.rule, _witness_str(v.witness), v.message] for v in report.violations]
    text = _render(cfg, ["rule", "witness", "message"], rows, {"passed": report.passed})
    _emit(text, cfg.out)
    return 0 if report.passed else 1


def cmd_components(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    summary = classify(model)
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
        "passed": summary.passed,
        "island_radius": summary.island_radius,
        "densities": {str(j): summary.densities[j] for j in summary.densities},
        "core_residues": {
            str(j): sorted(summary.core_residues[j]) for j in summary.core_residues
        },
    }
    text = _render(
        cfg, ["phase", "classification", "residues", "displacement_rank", "lift_diameter"],
        rows, meta,
    )
    _emit(text, cfg.out)
    return 0


def _cell_task(task):
    model, summary, phase, direction, side = task
    return cell_value(model, phase, direction, side, summary)


def cmd_fhom(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    summary = classify(model)
    direction = cfg.options.normal
    phases = [cfg.options.phase] if cfg.options.phase else list(range(1, model.num_phases + 1))
    sides = cfg.options.sides
    tasks = [(model, summary, j, direction, t) for j in phases for t in sides]
    values = _run_tasks(_cell_task, tasks, cfg.jobs)
    rows = [[j, _vec(direction), t, v] for (_, _, j, _, t), v in zip(tasks, values)]
    estimates = {}
    for j in phases:
        per_phase = [v for (_, _, jj, _, _), v in zip(tasks, values) if jj == j]
        entry = {"estimate": per_phase[-1]}
        if len(per_phase) >= 2:
            entry["increment"] = abs(per_phase[-1] - per_phase[-2])
        estimates[str(j)] = entry
    meta = {"direction": _vec(direction), "estimates": estimates}
    if len(phases) == model.num_phases:
        meta["total"] = sum((estimates[str(j)]["estimate"] for j in phases), Fraction(0))
    text = _render(cfg, ["phase", "normal", "side", "value"], rows, meta)
    _emit(text, cfg.out)
    return 0


def _phi_task(task):
    model, summary, states, sides, solver = task
    return phi_estimate(model, states, sides, summary, **solver)


def cmd_phi(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    summary = classify(model)
    sides = cfg.options.sides
    if cfg.options.z is not None:
        states_list = [cfg.options.z]
    else:
        states_list = list(itertools.product((1, -1), repeat=model.num_phases))
    tasks = [(model, summary, states, sides, cfg.solver) for states in states_list]
    results = _run_tasks(_phi_task, tasks, cfg.jobs)
    rows = []
    for states, phi_rows in zip(states_list, results):
        for row in phi_rows:
            rows.append([_vec(states), row.m, row.plain, row.corrected, row.lower, row.upper])
    meta = {"island_error_constant": island_error_constant(model, summary)}
    text = _render(
        cfg, ["z", "m", "phi", "phi_corrected", "lower", "upper"], rows, meta
    )
    _emit(text, cfg.out)
    return 0


def cmd_energy(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    field = SpinField.from_json_dict(_json_arg(cfg.options.field))
    omega = None
    if cfg.options.omega:
        omega = DomainSpec.from_json_dict(_json_arg(cfg.options.omega))
    value = f_eps(model, field, omega)
    obj = {
        "eps": field.eps,
        "sites": len(field.values),
        "energy": value,
        "broken_strong": count_broken_strong(model, field),
    }
    if cfg.fmt == "csv":
        text = _render(cfg, ["eps", "sites", "energy", "broken_strong"],
                       [[obj["eps"], obj["sites"], obj["energy"], obj["broken_strong"]]], {})
    else:
        text = _json_text(obj)
    _emit(text, cfg.out)
    return 0


def cmd_extend(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    field = SpinField.from_json_dict(_json_arg(cfg.options.field))
    result = extend(model, cfg.options.phase, field, cfg.options.m)
    obj = {
        "phase": result.phase,
        "m": result.m,
        "marked_count": result.marked_count,
        "marked": [list(z) for z in result.marked],
    }
    if cfg.out:
        save_field(result.field, cfg.out)
        obj["out"] = cfg.out
        sys.stdout.write(_json_text(obj))
    else:
        obj["field"] = result.field.to_json_dict()
        sys.stdout.write(_json_text(obj))
    return 0


def cmd_gamma_eval(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    summary = classify(model)
    omega = DomainSpec.from_json_dict(_json_arg(cfg.options.omega))
    target = MultiphaseField.from_json_dict(_json_arg(cfg.options.target))
    directions = _target_directions(target, omega.dimension)
    if directions:
        surface = SurfaceTable.from_model(model, directions, cfg.options.sides, summary)
    else:
        surface = SurfaceTable(model.num_phases, {})
    phi = PhiTable.from_model(model, cfg.options.m_list, summary, **cfg.solver)
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
    if cfg.fmt == "csv":
        text = _render(cfg, ["value"], [[value]], {})
    else:
        text = _json_text(obj)
    _emit(text, cfg.out)
    return 0


def cmd_converge(cfg: RunConfig) -> int:
    model = load_model(cfg.model_path)
    omega = DomainSpec.from_json_dict(_json_arg(cfg.options.omega))
    target = MultiphaseField.from_json_dict(_json_arg(cfg.options.target))
    report = converge_report(
        model, omega, target, cfg.options.eps, cfg.options.m,
        surface_side=cfg.options.surface_side, phi_side=cfg.options.phi_side,
        **cfg.solver,
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
    text = _render(cfg, ["eps", "energy", "gap", "reference"], rows, meta)
    _emit(text, cfg.out)
    return 0


# ---------------------------------------------------------------------------
# bundled example suite


def _fixture_dir():
    return resources.files("spinhom").joinpath("fixtures")


def _run_check(check: dict, cache: dict) -> tuple[bool, str]:
    name = check["fixture"]
    if name not in cache:
        model = parse_model(json.loads(_fixture_dir().joinpath(name).read_text()))
        cache[name] = (model, classify(model))
    model, summary = cache[name]
    kind = check["kind"]
    if kind == "phi":
        states = tuple(check["states"])
        m = check["m"]
        row = phi_bracket(model, m, states, summary)
        plain, corrected = row.plain, row.corrected
        target = Fraction(check["target"])
        tol = Fraction(check["tol"])
        ok = abs(plain - target) <= tol and abs(corrected - target) <= tol
        detail = f"phi_{m}{states} = {number_str(corrected)}"
    elif kind == "phi_sandwich":
        states = tuple(check["states"])
        m = check["m"]
        row = phi_bracket(model, m, states, summary)
        plain, corrected = row.plain, row.corrected
        c = island_error_constant(model, summary)
        ok = corrected - c / m <= plain <= corrected
        target, tol = None, None
        detail = (
            f"phi_{m}{states} = {number_str(plain)}, corrected {number_str(corrected)}, "
            f"c/m = {number_str(c / m)}"
        )
    elif kind == "fhom":
        phase = check["phase"]
        sides = check["sides"]
        values = [cell_value(model, phase, check["normal"], t, summary) for t in sides]
        target = Fraction(check["target"])
        tol = Fraction(check["tol"])
        ok = abs(values[-1] - target) <= tol
        detail = f"f_{sides[-1]}({_vec(check['normal'])}) = {number_str(values[-1])}"
    elif kind == "fhom_total":
        sides = check["sides"]
        total = fhom_total(model, check["normal"], sides, summary)
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


def cmd_examples(cfg: RunConfig) -> int:
    checks = json.loads(_fixture_dir().joinpath("expected.json").read_text())
    only = cfg.options.only
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinhom",
        description="Homogenized limits of periodic double-porosity spin systems.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["csv", "json"], help="output format")
    common.add_argument("--json", dest="format", action="store_const", const="json",
                        help="shorthand for --format json")
    common.add_argument("--csv", dest="format", action="store_const", const="csv",
                        help="shorthand for --format csv")
    common.add_argument("--out", help="write output to a file instead of stdout")

    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument("--jobs", type=int, default=1, help="parallel worker processes")

    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("--method", choices=["auto", "enum", "cut", "anneal"], default="auto")
    solver.add_argument("--enum-cap", type=int, help="largest exhaustive search, in free groups")
    solver.add_argument("--anneal", action="store_true",
                        help="fall back to annealing on frustrated instances")
    solver.add_argument("--seed", type=int, default=0, help="annealing seed")

    p = sub.add_parser("validate", parents=[common], help="check a model file")
    p.add_argument("model")

    p = sub.add_parser("components", parents=[common],
                       help="periodic components and their classification")
    p.add_argument("model")

    p = sub.add_parser("fhom", parents=[common, jobs], help="surface tension cell values")
    p.add_argument("model")
    p.add_argument("--normal", type=_fraction_list, required=True,
                   help="interface normal, comma-separated rationals")
    p.add_argument("--T", dest="sides", type=_int_list, required=True,
                   help="cube sides, comma-separated")
    p.add_argument("--phase", type=int, help="restrict to one phase (default: all)")

    p = sub.add_parser("phi", parents=[common, jobs, solver],
                       help="bulk density estimates on finite cubes")
    p.add_argument("model")
    p.add_argument("--M", dest="sides", type=_int_list, required=True,
                   help="cube sides, comma-separated, increasing")
    p.add_argument("--z", type=_states, help="phase states, e.g. 1,-1 (default: all)")

    p = sub.add_parser("energy", parents=[common], help="discrete energy of a spin field")
    p.add_argument("model")
    p.add_argument("--field", required=True, help="spin field JSON (path or inline)")
    p.add_argument("--omega", help="restrict to a subdomain (path or inline JSON)")

    p = sub.add_parser("extend", help="coarse-grain a field over cubes of side M")
    p.add_argument("model")
    p.add_argument("--field", required=True, help="spin field JSON (path or inline)")
    p.add_argument("--phase", type=int, required=True)
    p.add_argument("--M", dest="m", type=int, required=True)
    p.add_argument("--out", help="write the extended field to a file")

    p = sub.add_parser("gamma-eval", parents=[common, solver],
                       help="evaluate the limit functional on a target")
    p.add_argument("model")
    p.add_argument("--omega", required=True, help="domain JSON (path or inline)")
    p.add_argument("--target", required=True, help="target field JSON (path or inline)")
    p.add_argument("--T", dest="sides", type=_int_list, required=True,
                   help="surface tension cube sides")
    p.add_argument("--M", dest="m_list", type=_int_list, required=True,
                   help="bulk density cube sides")

    p = sub.add_parser("converge", parents=[common, solver],
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

    p = sub.add_parser("examples", help="run the bundled fixture suite")
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


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    cfg = RunConfig.from_args(args)
    with warnings.catch_warnings():
        _use_warning_lines()
        return _dispatch(cfg)


def _dispatch(cfg: RunConfig) -> int:
    try:
        return HANDLERS[cfg.subcommand](cfg)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FrustratedInstance as exc:
        print(f"error: {exc} (pass --anneal to accept approximate minima)", file=sys.stderr)
        return 2
    except TooManyFreeGroups as exc:
        print(f"error: {exc} (use --method cut for large cells)", file=sys.stderr)
        return 2
    except NotImplementedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
