"""Command-line surface.

Subcommands: spectrum | wavefunction | ladder-check | verify | presets.
Configuration is a single JSON document; command-line flags override file
values, and the resolved configuration can be dumped and re-used verbatim
(byte-identical outputs).  All outputs are deterministic.

A configuration flag's argparse dest is its config key, "section.key"
(``--mass`` is ``units.mass``), so the parser alone maps flags to keys.
A subparser's flags are its command's keys: a flag the command does not
read is an argparse error, and a config-file key without a flag there is
refused unless it holds its default.
Each potential is declared once, with the keys it reads, in ``_PRESETS``
(raw A/B/C in ``_RAW``); any other potential key is a configuration error.

Exit codes: 0 success, 2 configuration error, 3 domain error (invalid or
unbound channels, or a grid that cannot carry them), 4 output I/O error,
found before any work when the output directory does not exist.
"""

import argparse
import errno
import json
import math
import os
import sys

from . import ladder, oracle, potentials, spectrum, wavefunction
from .errors import (FallToCenterError, GridResolutionError,
                     NoBoundStatesError, NotNormalizableError,
                     UnitsRangeError)

ENV_OUTDIR = "MIESPEC_OUTDIR"

# quantum.dims defaults to None: each command picks its own default reach
# ([3] for tables, [2, 3, 5] for the verification suite)
_DEFAULTS = {
    "potential": {"preset": "coulomb", "B": -1.0},
    "units": {"mass": 1.0, "hbar": 1.0},
    "quantum": {"n_max": 3, "ell_max": 2, "dims": None},
    "grid": {"refine": 1.0, "points": None, "r_domain": None, "y_points": 4001},
    "output": {"dir": None, "format": "csv"},
}


class ConfigError(Exception):
    pass


# -- configuration ------------------------------------------------------------

def _merge(base: dict, override: dict) -> dict:
    out = {k: dict(v) for k, v in base.items()}
    for key, value in override.items():
        if key not in out:
            raise ConfigError(f"unknown configuration section {key!r}")
        if not isinstance(value, dict):
            raise ConfigError(f"configuration section {key!r} must be an object")
        out[key].update(value)
    return out


def resolve_config(args) -> dict:
    """Defaults < config file < flags; the environment supplies the output
    directory when nothing else does."""
    cfg = {k: dict(v) for k, v in _DEFAULTS.items()}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config document must be a JSON object")
        if "potential" in data:
            cfg["potential"] = {}
        cfg = _merge(cfg, data)
        # a key at its default changes nothing, so print-config dumps pass
        for section in ("units", "quantum", "grid", "output"):
            defaults = _DEFAULTS[section]
            unknown = sorted(set(cfg[section]) - set(defaults))
            if unknown:
                raise ConfigError(f"unknown {section} key(s) {unknown}")
            unread = sorted(key for key, value in cfg[section].items()
                            if value != defaults[key] and f"{section}.{key}" not in vars(args))
            if unread:
                raise ConfigError(f"{args.command} does not read {section} key(s) {unread}")

    # a preset or raw A/B/C flag replaces the potential section; other
    # potential flags amend it
    flags = {}
    for dest, value in vars(args).items():
        section, dot, key = dest.partition(".")
        if dot and value is not None:
            flags.setdefault(section, {})[key] = value
    flag_potential = flags.pop("potential", {})
    if flag_potential.keys() & {"preset", "A", "B", "C"}:
        cfg["potential"] = flag_potential
    else:
        cfg["potential"].update(flag_potential)
    for section, values in flags.items():
        cfg[section].update(values)

    if cfg["output"]["dir"] is None:
        cfg["output"]["dir"] = os.environ.get(ENV_OUTDIR) or "."

    _validate(cfg)
    return cfg


# preset name -> (constructor, the potential keys it reads with their
# defaults, its line in `miespec presets`)
_PRESETS = {
    "kratzer-fues": (
        potentials.kratzer_fues, {"d0": 1.0, "r0": 1.0},
        "d0, r0          A = d0 r0^2, B = -2 d0 r0, C = 0"),
    "modified-kratzer": (
        potentials.modified_kratzer,
        {"d0": 1.0, "r0": 1.0, "convention": "standard"},
        "d0, r0          standard: (+d0 r0^2, -2 d0 r0, +d0);"
        " paper-literal: (-d0 r0^2, +2 d0 r0, -d0)"),
    "coulomb": (
        potentials.coulomb, {"B": -1.0},
        "B               A = C = 0"),
    "mie-general": (
        potentials.MiePreset, {"d0": 1.0, "r0": 1.0, "a": 2.0, "b": 1.0},
        "d0, r0, a, b    two-exponent Mie form"
        " (numeric oracle only unless (a, b) = (2, 1))"),
}
# a section without a preset is raw A/B/C, one more entry with no listing
_RAW = (potentials.PotentialParams, {"A": 0.0, "B": 0.0, "C": 0.0})


def _entry(pot: dict) -> tuple:
    """(label, constructor, keys read) of a potential section."""
    if "preset" not in pot:
        return ("raw", *_RAW)
    if pot["preset"] not in _PRESETS:
        raise ConfigError(f"unknown preset {pot['preset']!r}")
    return (pot["preset"], *_PRESETS[pot["preset"]][:2])


def _number(value, kind, name: str):
    """``value`` as a finite float, or as an int when ``kind`` is int and
    the value is integral; ConfigError otherwise."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be a number, not {value!r}") from None
    if not math.isfinite(x) or (kind is int and not x.is_integer()):
        raise ConfigError(f"{name} must be a finite "
                          f"{'integer' if kind is int else 'number'}, not {value!r}")
    return kind(x)


def _validate(cfg: dict):
    """Refuse a malformed setting; store each non-potential number once, as
    the int or float its command reads."""
    pot = cfg["potential"]
    if not pot:
        raise ConfigError("potential needs either a preset or raw A/B/C values")
    label, _, reads = _entry(pot)
    stray = set(pot) - set(reads) - {"preset"}
    if stray:
        raise ConfigError(f"potential {label!r} does not read key(s) {sorted(stray)}")
    u = cfg["units"]
    for key in u:
        u[key] = _number(u[key], float, f"units.{key}")
    q = cfg["quantum"]
    for key in ("n_max", "ell_max"):
        q[key] = _number(q[key], int, f"quantum.{key}")
    if q["n_max"] < 0 or q["ell_max"] < 0:
        raise ConfigError("quantum ranges must be non-negative")
    if q["dims"] is not None:
        if not isinstance(q["dims"], (list, tuple)):
            raise ConfigError("quantum.dims must be a list")
        q["dims"] = [_number(d, int, "quantum.dims") for d in q["dims"]]
        if any(d < 2 for d in q["dims"]):
            raise ConfigError("every dimension must be >= 2")
    if cfg["output"]["format"] not in ("csv", "json"):
        raise ConfigError("output format must be csv or json")
    g = cfg["grid"]
    for key, kind in (("points", int), ("y_points", int),
                      ("r_domain", float), ("refine", float)):
        if g[key] is None and _DEFAULTS["grid"][key] is None:
            continue
        g[key] = _number(g[key], kind, f"grid.{key}")
        if kind is int and g[key] < 3:
            raise ConfigError(f"grid.{key} must be at least 3")
        if kind is float and not g[key] > 0.0:
            raise ConfigError(f"grid.{key} must be positive")


def build_potential(cfg: dict):
    """(potential object, label) from the resolved configuration."""
    pot = cfg["potential"]
    label, make, reads = _entry(pot)
    try:
        keys = {key: type(default)(pot.get(key, default))
                for key, default in reads.items()}
        return make(**keys, mass=cfg["units"]["mass"],
                    hbar=cfg["units"]["hbar"]), label
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _closed_form_potential(cfg: dict, what: str):
    """build_potential, refusing the general Mie form that has no closed
    form; ``what`` names the closed-form quantity in the message."""
    potential, label = build_potential(cfg)
    if isinstance(potential, potentials.MiePreset):
        raise ConfigError(f"{what} needs a Mie-type potential "
                          "(use 'verify' for general exponents)")
    return potential, label


def _dims(cfg: dict, default) -> list:
    """Sorted quantum.dims, or the command's own default when unset."""
    dims = cfg["quantum"]["dims"]
    return sorted(default if dims is None else dims)


# -- output helpers -----------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _scalar(obj):
    # numpy scalars (bool_, float64, ...) expose .item(); bare objects fail
    if hasattr(obj, "item"):
        return obj.item()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, default=_scalar) + "\n"


def _out_path(cfg: dict, args, default_name: str) -> str:
    """The command's output file, resolved before any work: OSError when
    its directory does not exist."""
    path = args.out or os.path.join(cfg["output"]["dir"], default_name)
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(errno.ENOENT, "output directory does not exist",
                                directory)
    return path


def _config_value(make, **kwargs):
    """make(**kwargs), a ValueError from it a configuration error."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# -- subcommands --------------------------------------------------------------

def cmd_presets(args) -> int:
    print("\n".join(f"{name:<19}{line}" for name, (_, _, line) in _PRESETS.items()))
    return 0


_SPECTRUM_FIELDS = ("dim", "ell", "n", "k", "eps", "energy", "status")


def cmd_spectrum(args) -> int:
    cfg = resolve_config(args)
    potential, label = _closed_form_potential(cfg, "closed-form spectrum")
    fmt = cfg["output"]["format"]
    path = _out_path(cfg, args, f"spectrum.{fmt}")
    q = cfg["quantum"]
    # one tuple per row in _SPECTRUM_FIELDS order: CSV joins it, JSON zips it
    rows = [(r.q.dim, r.q.ell, r.q.n, r.k, r.eps, r.energy, r.status)
            for dim in _dims(cfg, [3])
            for r in spectrum.spectrum_table(potential, q["n_max"],
                                             q["ell_max"], dim)]
    if fmt == "csv":
        lines = [",".join(_SPECTRUM_FIELDS)]
        # unpacked, not map(_fmt, row): status is already text, and the
        # table can hold thousands of rows
        lines += [",".join([_fmt(dim), _fmt(ell), _fmt(n), _fmt(k), _fmt(eps),
                            _fmt(energy), status])
                  for dim, ell, n, k, eps, energy, status in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = _json_dumps({"potential": label,
                            "rows": [dict(zip(_SPECTRUM_FIELDS, row))
                                     for row in rows]})
    _write_text(path, text)
    return 3 if any(row[-1] != "ok" for row in rows) else 0


def cmd_wavefunction(args) -> int:
    cfg = resolve_config(args)
    potential, label = _closed_form_potential(cfg, "the closed-form eigenfunction")
    if args.r_min is not None and not 0.0 < args.r_min < math.inf:
        raise ConfigError("grid r_min must be positive")
    q = _config_value(spectrum.QuantumNumbers, n=args.n, ell=args.ell, dim=args.dim)
    path = _out_path(cfg, args, f"wavefunction_n{args.n}_l{args.ell}_N{args.dim}.csv")

    state = spectrum.bound_state(potential, q)

    points = cfg["grid"]["points"] or 2001
    r_domain = cfg["grid"]["r_domain"]
    r_max = r_domain if r_domain else (2.0 * args.n + 2.0 * state.k + 16.0) / (2.0 * state.eps) * 2.0
    r_min = args.r_min if args.r_min is not None else r_max / points
    grid = _config_value(wavefunction.RadialGrid, r_min=r_min, r_max=r_max,
                         count=points)
    values = wavefunction.eval_radial(state, grid.nodes())

    header = (f"# zeta={_fmt(state.zeta)} k={_fmt(state.k)} "
              f"eps={_fmt(state.eps)} energy={_fmt(state.energy)}")
    lines = [header]
    if args.residual:
        res = wavefunction.ode_residual_samples(values, grid, potential, args.ell,
                                                args.dim, state.energy)
        pad = (grid.count - res.grid.count) // 2
        lines.append("r,R,residual")
        residual_col = [""] * pad + [_fmt(v) for v in res.values] + [""] * pad
        for r, v, rv in zip(grid.nodes(), values, residual_col):
            lines.append(f"{_fmt(float(r))},{_fmt(float(v))},{rv}")
    else:
        lines.append("r,R")
        for r, v in zip(grid.nodes(), values):
            lines.append(f"{_fmt(float(r))},{_fmt(float(v))}")
    _write_text(path, "\n".join(lines) + "\n")
    return 0


def _ladder_channel(potential, ell, dim, n_max, y_points):
    k = spectrum.indicial_root(potential, ell, dim)
    commutator = ladder.commutator_check(k, dim, max(n_max, 2))
    casimir = ladder.casimir_check(k, dim, max(n_max, 1))
    rows = []
    worst_residual = 0.0
    for n in range(n_max + 1):
        state = spectrum.bound_state(
            potential, spectrum.QuantumNumbers(n=n, ell=ell, dim=dim))
        grid = ladder.default_y_grid(state, count=y_points)
        entry = {"n": n}
        for direction, apply in (("lowering", ladder.apply_lowering),
                                 ("raising", ladder.apply_raising)):
            _, fit = apply(state, grid)
            entry[direction] = {
                "fitted": fit.fitted, "residual": fit.residual,
                "closed_form": fit.closed_form, "derived": fit.derived,
                "fitted_by_convention": fit.by_convention,
                "closed_form_discrepancy": fit.fitted - fit.closed_form,
            }
            if n > 0 or direction == "raising":
                worst_residual = max(worst_residual, fit.residual)
        rows.append(entry)
    return {
        "ell": ell, "dim": dim, "k": k,
        "bargmann_j": ladder.bargmann_index(k, dim),
        "commutator": commutator, "casimir": casimir,
        "differential": rows,
        "max_differential_residual": worst_residual,
        "passed": (commutator["passed"] and casimir["passed"]
                   and worst_residual <= 1e-9),
    }


def cmd_ladder_check(args) -> int:
    cfg = resolve_config(args)
    potential, label = _closed_form_potential(cfg, "the ladder structure")
    path = _out_path(cfg, args, "ladder_check.json")
    q = cfg["quantum"]
    channels = [_ladder_channel(potential, ell, dim, q["n_max"],
                                cfg["grid"]["y_points"])
                for dim in _dims(cfg, [3])
                for ell in range(q["ell_max"] + 1)]
    payload = {"potential": label, "channels": channels,
               "passed": all(c["passed"] for c in channels)}
    _write_text(path, _json_dumps(payload))
    return 0 if payload["passed"] else 3


def _verify_channel(potential, label, ell, dim, n_max, refine, fast):
    q_list = [spectrum.QuantumNumbers(n=n, ell=ell, dim=dim)
              for n in range(n_max + 1)]
    mie = isinstance(potential, potentials.MiePreset)
    exact = None if mie else [spectrum.energy(potential, q) for q in q_list]
    grid = oracle.default_grid(potential, ell, dim, n_max=n_max, refine=refine)
    config = oracle.OracleConfig(grid=grid, count=n_max + 1)
    # the order fit's 4h and 2h grids need level 0 only
    rungs = [(1, n_max + 1)] if fast or mie else [(4, 1), (2, 1), (1, n_max + 1)]
    levels = oracle.solve_grids(potential, ell, dim, config, rungs)
    fd = levels[-1]

    entry = {"potential": label, "ell": ell, "dim": dim,
             "closed_form": exact, "fd": list(map(float, fd))}
    if mie:  # no closed form: the FD levels are the whole entry
        entry.update(potential=f"{label}(a={potential.a:g}, b={potential.b:g})",
                     note="no closed-form spectrum for these exponents")
        return entry
    ok = len(fd) == len(exact)
    deltas, tols = [], []
    for i, e in enumerate(exact):
        if i < len(fd):
            delta = abs(float(fd[i]) - e)
            tol = max(5e-5, 5e-5 * abs(e))
            deltas.append(delta)
            tols.append(tol)
            ok = ok and delta <= tol
        else:
            deltas.append(None)
            tols.append(None)
    entry.update(delta=deltas, tolerance=tols, energy_ok=ok)

    states = [spectrum.bound_state(potential, q) for q in q_list]
    norms = [wavefunction.norm_check(s) for s in states]
    entry["norm"] = norms
    entry["norm_ok"] = all(abs(v - 1.0) <= 1e-10 for v in norms)
    if len(states) > 1:
        entry["overlap_r_01"] = wavefunction.overlap(states[0], states[1], "r")
        entry["orthogonality_ok"] = abs(entry["overlap_r_01"]) <= 1e-10
    else:
        entry["orthogonality_ok"] = True

    if fast:
        entry.update(order=None, order_status="skipped", order_ok=True)
    else:
        study = oracle.order_fit([f * grid.spacing for f, _ in rungs], levels,
                                 0, exact[0])
        entry.update(order=study["order"], order_status=study["status"])
        entry["order_ok"] = (study["status"] != "ok"
                             or abs(study["order"] - 2.0) <= 0.2)
    entry["passed"] = (entry["energy_ok"] and entry["norm_ok"]
                       and entry["orthogonality_ok"] and entry["order_ok"])
    return entry


# verify's potentials when none is given, and its --mie-general addition
_VERIFY_SUITE = ({"preset": "coulomb", "B": -1.0},
                 {"preset": "kratzer-fues", "d0": 5.0, "r0": 1.0})
_VERIFY_MIE = {"preset": "mie-general", "d0": 5.0, "r0": 1.0, "a": 4.0, "b": 2.0}


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    q = cfg["quantum"]
    refine = cfg["grid"]["refine"]
    if args.coarse is not None:
        if not 0.0 < args.coarse < math.inf:
            raise ConfigError("--coarse must be a finite positive factor")
        refine /= args.coarse

    # a config file or any potential flag selects one potential, else the suite
    explicit_potential = bool(getattr(args, "config", None)) or any(
        value is not None for dest, value in vars(args).items()
        if dest.startswith("potential."))
    sections = [cfg["potential"]] if explicit_potential else list(_VERIFY_SUITE)
    if args.mie_general and sections[0].get("preset") != "mie-general":
        sections.append(_VERIFY_MIE)
    # built like any other section, so the suite reads units too
    suite = [build_potential({**cfg, "potential": pot}) for pot in sections]
    path = _out_path(cfg, args, "verify.json")

    entries = [_verify_channel(potential, label, ell, dim, q["n_max"],
                               refine, args.fast)
               for potential, label in suite
               for dim in _dims(cfg, [2, 3, 5])
               for ell in range(q["ell_max"] + 1)]
    channels = [e for e in entries if e["closed_form"] is not None]
    mie = [e for e in entries if e["closed_form"] is None]

    payload = {"channels": channels, "passed": all(c["passed"] for c in channels)}
    if mie:
        payload["mie_general"] = mie
    _write_text(path, _json_dumps(payload))
    if not payload["passed"]:
        failed = [f"{c['potential']} N={c['dim']} ell={c['ell']}"
                  for c in channels if not c["passed"]]
        print("failed channels: " + "; ".join(failed), file=sys.stderr)
        return 3
    return 0


def cmd_print_config(args) -> int:
    cfg = resolve_config(args)
    sys.stdout.write(_json_dumps(cfg))
    return 0


# -- argument parsing ---------------------------------------------------------

def _add_common(parser: argparse.ArgumentParser, *reads):
    """Every command's flags, plus the quantum, format and grid flags whose
    section or dest is in ``reads`` (all of them when none is given)."""
    def add(flag, dest, **kwargs):
        if not reads or dest in reads or dest.partition(".")[0] in reads:
            parser.add_argument(flag, dest=dest, **kwargs)
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output file path (overrides the output directory)")
    parser.add_argument("--outdir", dest="output.dir",
                        help=f"output directory (default: ${ENV_OUTDIR} or '.')")
    add("--format", "output.format", choices=("csv", "json"))
    parser.add_argument("--preset", dest="potential.preset", choices=_PRESETS)
    parser.add_argument("--d0", dest="potential.d0", type=float)
    parser.add_argument("--r0", dest="potential.r0", type=float)
    parser.add_argument("--A", dest="potential.A", type=float)
    parser.add_argument("--B", dest="potential.B", type=float)
    parser.add_argument("--C", dest="potential.C", type=float)
    parser.add_argument("--mie-a", dest="potential.a", type=float)
    parser.add_argument("--mie-b", dest="potential.b", type=float)
    parser.add_argument("--convention", dest="potential.convention",
                        choices=("standard", "paper-literal"))
    parser.add_argument("--mass", dest="units.mass", type=float)
    parser.add_argument("--hbar", dest="units.hbar", type=float)
    add("--n-max", "quantum.n_max", type=int)
    add("--ell-max", "quantum.ell_max", type=int)
    add("--dims", "quantum.dims", type=lambda s: [int(x) for x in s.split(",")],
        help="comma-separated dimensions, e.g. 2,3,5")
    add("--points", "grid.points", type=int, help="radial grid size")
    add("--r-domain", "grid.r_domain", type=float)
    add("--y-points", "grid.y_points", type=int)
    add("--refine", "grid.refine", type=float, help="grid refinement factor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="miespec",
        description="Bound states of Mie-type potentials in N dimensions, "
                    "with independent finite-difference verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="write the closed-form level table")
    _add_common(p, "quantum", "output.format")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("wavefunction", help="sample one radial eigenfunction to CSV")
    _add_common(p, "grid.points", "grid.r_domain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--residual", action="store_true",
                   help="append the pointwise ODE residual column")
    p.set_defaults(func=cmd_wavefunction)

    p = sub.add_parser("ladder-check", help="SU(1,1) coefficient and operator report")
    _add_common(p, "quantum", "grid.y_points")
    p.set_defaults(func=cmd_ladder_check)

    p = sub.add_parser("verify", help="closed form vs finite-difference oracle")
    _add_common(p, "quantum", "grid.refine")
    p.add_argument("--fast", action="store_true", help="skip convergence studies")
    p.add_argument("--coarse", type=float, default=None,
                   help="coarsen grids by this factor (negative control)")
    p.add_argument("--mie-general", dest="mie_general", action="store_true",
                   help="append the numeric-only general-Mie section")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("presets", help="list built-in potential presets")
    p.set_defaults(func=cmd_presets)

    p = sub.add_parser("print-config", help="print the resolved configuration")
    _add_common(p)
    p.set_defaults(func=cmd_print_config)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (FallToCenterError, NotNormalizableError, NoBoundStatesError,
            GridResolutionError, UnitsRangeError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
