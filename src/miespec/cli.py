"""Command-line surface.

Subcommands: spectrum | wavefunction | ladder-check | verify | presets |
print-config, one ``_COMMANDS`` entry each.  Every call registers all of
them, so usage and error lines list them all, and adds the flags of the
invoked command only; ``miespec -h``, no command or an unknown one builds
every command's flags.
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
Every preset is an A/r^2 + B/r + C well, so every command reads its closed
form, and every ``verify`` channel is gated against it.

Exit codes: 0 success, 2 configuration error, 3 domain error (invalid or
unbound channels, or a grid that cannot carry them), 4 output I/O error,
found before any work when the output directory does not exist.
"""

import argparse
import errno
import json
import math
import operator
import os
import sys

import numpy as np

from . import ladder, oracle, potentials, specfun, spectrum, wavefunction
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
    the value is integral; ConfigError otherwise, also for a JSON boolean,
    which float() would read as 0 or 1."""
    if isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, not {value!r}")
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
    for key, default in reads.items():
        # build_potential's float() would read a JSON boolean as 0 or 1
        if isinstance(default, float) and isinstance(pot.get(key), bool):
            raise ConfigError(f"potential.{key} must be a number, not {pot[key]!r}")
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
        repeated = [d for i, d in enumerate(q["dims"]) if d in q["dims"][:i]]
        if repeated:
            raise ConfigError(f"quantum.dims repeats dimension {repeated[0]}")
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


def _dims(cfg: dict, default) -> list:
    """Sorted quantum.dims, or the command's own default when unset."""
    dims = cfg["quantum"]["dims"]
    return sorted(default if dims is None else dims)


def _checked_dims(cfg: dict, default, command: str) -> list:
    """_dims of a command whose pass must have run a check: an empty list
    is a configuration error, as a pass over no channel checks nothing."""
    dims = _dims(cfg, default)
    if not dims:
        raise ConfigError(f"{command} needs at least one dimension in quantum.dims")
    return dims


# -- output helpers -----------------------------------------------------------

def _write_text(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _json_dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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


_SPECTRUM_FIELDS = spectrum.SpectrumRow._fields[:7]  # the table's columns
# one spectrum row as json.dumps(..., indent=2, sort_keys=True) writes it in
# "rows": keys sorted, %r the float repr json writes, null in a row without
# values; a status is one of spectrum's plain ASCII words, so needs no escape
_JSON_ROW = ('    {\n      "dim": %d,\n      "ell": %d,\n      "energy": %r,\n'
             '      "eps": %r,\n      "k": %r,\n      "n": %d,\n'
             '      "status": "%s"\n    }')
_JSON_NULL_ROW = _JSON_ROW.replace("%r", "null")
_JSON_ORDER = operator.itemgetter(0, 1, 5, 4, 3, 2, 6)  # _SPECTRUM_FIELDS sorted


def cmd_spectrum(args) -> int:
    cfg = resolve_config(args)
    potential, label = build_potential(cfg)
    fmt = cfg["output"]["format"]
    path = _out_path(cfg, args, f"spectrum.{fmt}")
    q = cfg["quantum"]
    # each row's _SPECTRUM_FIELDS, its first seven fields: CSV joins them,
    # JSON zips them
    rows = [r[:7] for dim in _dims(cfg, [3])
            for r in spectrum.spectrum_table(potential, q["n_max"],
                                             q["ell_max"], dim)]
    if fmt == "csv":
        lines = [",".join(_SPECTRUM_FIELDS)]
        # one %-format per row; a row without values leaves k, eps and
        # energy empty
        lines += ["%d,%d,%d,%.17g,%.17g,%.17g,%s" % row if row[3] is not None
                  else "%d,%d,%d,,,,%s" % (*row[:3], row[-1]) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        # _json_dumps's bytes, one %-format per row as in the CSV
        body = ",\n".join([_JSON_ROW % _JSON_ORDER(row) if row[3] is not None
                           else _JSON_NULL_ROW % (*row[:3], row[-1])
                           for row in rows])
        text = '{\n  "potential": %s,\n  "rows": %s\n}\n' % (
            json.dumps(label), "[\n%s\n  ]" % body if rows else "[]")
    _write_text(path, text)
    return 3 if any(row[-1] != "ok" for row in rows) else 0


def cmd_wavefunction(args) -> int:
    cfg = resolve_config(args)
    potential, label = build_potential(cfg)
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
    nodes = grid.nodes()
    values = wavefunction.eval_radial(state, nodes)

    # every row in one %-format over one flat .tolist(), "%.17g" throughout
    pairs = np.column_stack((nodes, values))
    if args.residual:
        res = wavefunction.ode_residual_samples(values, grid, potential, args.ell,
                                                args.dim, state.energy)
        # the stencil's edge rows leave the residual empty; sliced by count,
        # since [pad:-pad] would be empty at pad 0
        lo = (grid.count - res.grid.count) // 2
        hi = lo + res.grid.count
        flat = np.concatenate((pairs[:lo].ravel(),
                               np.column_stack((pairs[lo:hi], res.values)).ravel(),
                               pairs[hi:].ravel()))
        rows = (["%.17g,%.17g,"] * lo + ["%.17g,%.17g,%.17g"] * (hi - lo)
                + ["%.17g,%.17g,"] * (grid.count - hi))
    else:
        flat, rows = pairs.ravel(), ["%.17g,%.17g"] * grid.count
    header = ("# zeta=%.17g k=%.17g eps=%.17g energy=%.17g\n"
              % (state.zeta, state.k, state.eps, state.energy)
              + ("r,R,residual\n" if args.residual else "r,R\n"))
    _write_text(path, header + "\n".join(rows) % tuple(flat.tolist()) + "\n")
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
        for direction, fit in zip(("lowering", "raising"),
                                  ladder.ladder_fits(state, grid)):
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
    potential, label = build_potential(cfg)
    dims = _checked_dims(cfg, [3], "ladder-check")
    path = _out_path(cfg, args, "ladder_check.json")
    q = cfg["quantum"]
    channels = [_ladder_channel(potential, ell, dim, q["n_max"],
                                cfg["grid"]["y_points"])
                for dim in dims
                for ell in range(q["ell_max"] + 1)]
    payload = {"potential": label, "channels": channels,
               "passed": all(c["passed"] for c in channels)}
    _write_text(path, _json_dumps(payload))
    return 0 if payload["passed"] else 3


def _verify_channel(potential, label, ell, dim, n_max, refine, fast, rules):
    """One channel's entry in verify.json.  ``rules`` maps alpha + 1 to the
    Gauss-Laguerre rule of n_max + 2 nodes built for it; a channel adds
    the rule it builds, and one of an alpha met before reuses it."""
    states = [spectrum.bound_state(
        potential, spectrum.QuantumNumbers(n=n, ell=ell, dim=dim))
        for n in range(n_max + 1)]
    exact = [s.energy for s in states]
    grid = oracle.default_grid(potential, ell, dim, n_max=n_max, refine=refine)
    # the order fit's 4h and 2h grids need level 0 only
    rungs = [(1, n_max + 1)] if fast else [(4, 1), (2, 1), (1, n_max + 1)]
    levels = oracle.solve_grids(potential, ell, dim, grid, rungs)
    fd = levels[-1]

    entry = {"potential": label, "ell": ell, "dim": dim,
             "closed_form": exact, "fd": list(map(float, fd))}
    ok = len(fd) == len(exact)
    deltas, tols = [], []
    for i, e in enumerate(exact):
        if i < len(fd):
            delta = abs(float(fd[i]) - e)
            # relative to the binding energy, not to the offset C
            tol = max(5e-5, 5e-5 * min(abs(e), abs(e - potential.C)))
            deltas.append(delta)
            tols.append(tol)
            ok = ok and delta <= tol
        else:
            deltas.append(None)
            tols.append(None)
    entry.update(delta=deltas, tolerance=tols, energy_ok=ok)

    # one rule for every norm and the overlap: its n_max + 2 nodes are exact
    # for the channel's integrands, of degree <= 2 n_max
    a = states[0].alpha + 1.0
    if a not in rules:
        rules[a] = specfun.gauss_laguerre(specfun.default_quadrature_order(n_max), a)
    rule = rules[a]
    norms = [wavefunction.norm_check(s, rule) for s in states]
    entry["norm"] = norms
    entry["norm_ok"] = all(abs(v - 1.0) <= 1e-10 for v in norms)
    if len(states) > 1:
        entry["overlap_r_01"] = wavefunction.overlap(states[0], states[1], "r",
                                                     rule)
        entry["orthogonality_ok"] = abs(entry["overlap_r_01"]) <= 1e-10
    else:
        entry["orthogonality_ok"] = True

    if fast:
        entry.update(order=None, order_status="skipped", order_ok=True)
    else:
        study = oracle.order_fit(levels, 0, exact[0])
        entry.update(order=study["order"], order_status=study["status"],
                     order_ok=study["passed"])
    entry["passed"] = (entry["energy_ok"] and entry["norm_ok"]
                       and entry["orthogonality_ok"] and entry["order_ok"])
    return entry


# verify's potentials when none is given
_VERIFY_SUITE = ({"preset": "coulomb", "B": -1.0},
                 {"preset": "kratzer-fues", "d0": 5.0, "r0": 1.0})


def cmd_verify(args) -> int:
    cfg = resolve_config(args)
    q = cfg["quantum"]
    dims = _checked_dims(cfg, [2, 3, 5], "verify")
    # a config file or any potential flag selects one potential, else the suite
    explicit_potential = bool(getattr(args, "config", None)) or any(
        value is not None for dest, value in vars(args).items()
        if dest.startswith("potential."))
    sections = [cfg["potential"]] if explicit_potential else _VERIFY_SUITE
    # built like any other section, so the suite reads units too
    suite = [build_potential({**cfg, "potential": pot}) for pot in sections]
    path = _out_path(cfg, args, "verify.json")

    rules = {}  # channels of one alpha, across dims and potentials, share a rule
    channels = [_verify_channel(potential, label, ell, dim, q["n_max"],
                                cfg["grid"]["refine"], args.fast, rules)
                for potential, label in suite
                for dim in dims
                for ell in range(q["ell_max"] + 1)]

    payload = {"channels": channels, "passed": all(c["passed"] for c in channels)}
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
    add("--refine", "grid.refine", type=float,
        help="grid refinement factor (below 1 coarsens the grids)")


def _spectrum_flags(p):
    _add_common(p, "quantum", "output.format")
    p.set_defaults(func=cmd_spectrum)


def _wavefunction_flags(p):
    _add_common(p, "grid.points", "grid.r_domain")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--r-min", dest="r_min", type=float)
    p.add_argument("--residual", action="store_true",
                   help="append the pointwise ODE residual column")
    p.set_defaults(func=cmd_wavefunction)


def _ladder_check_flags(p):
    _add_common(p, "quantum", "grid.y_points")
    p.set_defaults(func=cmd_ladder_check)


def _verify_flags(p):
    _add_common(p, "quantum", "grid.refine")
    p.add_argument("--fast", action="store_true",
                   help="solve the h grid only and skip the order fit")
    p.set_defaults(func=cmd_verify)


def _print_config_flags(p):
    _add_common(p)
    p.set_defaults(func=cmd_print_config)


# command -> (its line in `miespec -h`, the function that adds its flags and
# its handler), in the order `miespec -h` lists them
_COMMANDS = {
    "spectrum": ("write the closed-form level table", _spectrum_flags),
    "wavefunction": ("sample one radial eigenfunction to CSV",
                     _wavefunction_flags),
    "ladder-check": ("SU(1,1) coefficient and operator report",
                     _ladder_check_flags),
    "verify": ("closed form vs finite-difference oracle", _verify_flags),
    "presets": ("list built-in potential presets",
                lambda p: p.set_defaults(func=cmd_presets)),
    "print-config": ("print the resolved configuration", _print_config_flags),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser with every command registered, and the flags of
    ``command`` alone, or of every command when it is None.  A parse that
    runs ``command`` reads no other subparser's flags, and every usage and
    error line lists all commands either way."""
    parser = argparse.ArgumentParser(
        prog="miespec",
        description="Bound states of Mie-type potentials in N dimensions, "
                    "with independent finite-difference verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command is None or name == command:
            add_flags(p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # no arguments, -h or an unknown command: the full parser's message
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
