"""Workloads: inputs drawn from the seed, one callable per op, output checks.

An op is one unit of work.  Its ``call`` is what the benchmark times; its
``check`` runs afterwards, untimed, and returns whether the output is
correct, the bytes that identify the output (hashed for the drift check) and
the number of bytes the op wrote.  A pass runs every op of a workload once,
in an order shuffled by the seed.

The seed picks the potential strengths, within the ranges below, and the op
order.  miespec receives only the generated inputs: CLI flags or preset
arguments.  Every call goes through a module attribute of the package at call
time, so the tracer's wrappers see it.
"""

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# Strength ranges.  Wide enough that every seed gives another spectrum, narrow
# enough that the oracle's default grids change by a few percent at most, so
# op cost hardly depends on the seed.
COULOMB_B = (-1.25, -0.8)
KRATZER_D0 = (4.0, 6.0)
KRATZER_R0 = (0.9, 1.1)

GATE = 1e-10          # norm and orthogonality gate of `verify` and the tests
DIMS = (2, 3, 5)      # dimensions N of verify-suite and high-n-states
SWEEP_N_MAX = 20      # high-n-states sweeps n = 0 .. 20
SWEEP_POINTS = 2001   # eval_radial grid of high-n-states
SPECTRUM_ROWS = 41 * 11 * 6  # n 0-40, ell 0-10, N 2-7


@dataclass
class Op:
    key: str                      # the same op in every pass
    call: Callable[[], object]    # timed
    check: Callable[[object], tuple]  # -> (ok, detail, identity bytes, bytes written)


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 4)


def _presets(rng):
    """(label, CLI flags, constructor name, constructor args) per preset."""
    b = _draw(rng, *COULOMB_B)
    d0 = _draw(rng, *KRATZER_D0)
    r0 = _draw(rng, *KRATZER_R0)
    return [
        ("coulomb", ["--preset", "coulomb", "--B", repr(b)], "coulomb", (b,)),
        ("kratzer-fues", ["--preset", "kratzer-fues", "--d0", repr(d0),
                          "--r0", repr(r0)], "kratzer_fues", (d0, r0)),
    ]


def run_cli(cli, argv):
    """In-process `miespec <argv>`: (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the flags
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def _take(path):
    """Bytes of an op's output file, removed so the next pass cannot see
    them; empty when the op wrote nothing."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return b""
    os.remove(path)
    return data


def _floats(fields):
    return all(math.isfinite(float(f)) for f in fields)


class Workload:
    name = ""
    why = ""

    def __init__(self, package, rng, workdir):
        self.mp = package
        self.cli = package.cli
        self.rng = rng
        self.workdir = workdir
        self.presets = _presets(rng)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def ops(self):
        """The ops of one pass."""
        raise NotImplementedError


class VerifySuite(Workload):
    """One op is one `verify` of one preset and one dimension: three channels
    (ell 0-2) on verify's own thread pool.  Whole-preset invocations (nine
    channels) take 3-5 s each, so a run would hold four to six of them, too
    few for a steady median on a host whose speed changes every second or
    two."""
    name = "verify-suite"
    why = ("headline user job: closed form against the FD oracle on 18 "
           "channels; FD eigen-solves are about 90% of its CPU")

    def ops(self):
        return [self._op(label, flags, dim)
                for label, flags, _, _ in self.presets for dim in DIMS]

    def _op(self, label, flags, dim):
        path = self.path(f"verify-{label}-N{dim}.json")
        argv = ["verify", *flags, "--n-max", "3", "--ell-max", "2",
                "--dims", str(dim), "--out", path]

        def check(result):
            code, _stdout = result
            data = _take(path)
            ok, detail = _verify_ok(code, data)
            return ok, detail, data, len(data)

        return Op(f"verify/{label}/N{dim}", lambda: run_cli(self.cli, argv), check)


def _verify_ok(code, data):
    if code != 0:
        return False, f"exit code {code}"
    payload = json.loads(data)
    if payload.get("passed") is not True:
        return False, "passed flag is false"
    if len(payload["channels"]) != 3:
        return False, f"{len(payload['channels'])} channels, expected 3"
    return True, ""


class HighNStates(Workload):
    name = "high-n-states"
    why = ("library sweep to n=20 without the FD oracle: quadrature on many "
           "small Jacobi matrices; crosses the known high-n norm defect")

    def ops(self):
        ops = []
        for label, _flags, ctor, args in self.presets:
            params = getattr(self.mp, ctor)(*args)
            for dim in DIMS:
                for ell in range(3):
                    for n in range(SWEEP_N_MAX + 1):
                        ops.append(self._op(f"{label}/N{dim}/l{ell}/n{n}",
                                            params, n, ell, dim))
        return ops

    def _op(self, key, params, n, ell, dim):
        mp = self.mp

        def call():
            state = mp.bound_state(params, mp.QuantumNumbers(n=n, ell=ell, dim=dim))
            upper = mp.bound_state(params, mp.QuantumNumbers(n=n + 1, ell=ell, dim=dim))
            norm = mp.norm_check(state)
            ovl = mp.overlap(state, upper, "r")
            # the extent `miespec wavefunction` samples by default
            r_max = (2.0 * n + 2.0 * state.k + 16.0) / state.eps
            grid = mp.RadialGrid(r_min=r_max / SWEEP_POINTS, r_max=r_max,
                                 count=SWEEP_POINTS)
            values = mp.eval_radial(state, grid.nodes())
            return state.energy, norm, ovl, values

        def check(result):
            energy, norm, ovl, values = result
            identity = repr((energy, norm, ovl)).encode() + values.tobytes()
            if not all(map(math.isfinite, values)):
                return False, "eval_radial is not finite", identity, 0
            if not abs(norm - 1.0) <= GATE:
                return False, f"|norm - 1| = {abs(norm - 1.0):.3g}", identity, 0
            if not abs(ovl) <= GATE:
                return False, f"|overlap| = {abs(ovl):.3g}", identity, 0
            return True, "", identity, 0

        return Op(key, call, check)


class ReportTables(Workload):
    """One op runs every report command once, in seeded order.  The commands
    differ in cost by a factor of three, so ops of one command each would
    put the median latency on whichever command happens to sit in the
    middle; a batch has one cost."""
    name = "report-tables"
    why = ("CLI reports that never reach the eigen kernel; the bypass "
           "workload for kernel and oracle changes")

    def ops(self):
        _label, flags, _ctor, _args = self.presets[1]  # kratzer-fues
        table = [*flags, "--n-max", "40", "--ell-max", "10",
                 "--dims", "2,3,4,5,6,7"]
        # name -> (argv without --out, output check); the round trip runs
        # print-config with the spectrum-csv flags and then spectrum from
        # the dumped config, and must write the same bytes
        commands = {
            "ladder-check": (["ladder-check", *flags, "--n-max", "10",
                              "--ell-max", "2", "--dims", "2,3,5"], _ladder_ok),
            "spectrum-csv": (["spectrum", *table, "--format", "csv"],
                             _spectrum_csv_ok),
            "spectrum-json": (["spectrum", *table, "--format", "json"],
                              _spectrum_json_ok),
            "wavefunction": (["wavefunction", *flags, "--n", "6", "--ell", "1",
                              "--dim", "3", "--points", "20001", "--residual"],
                             _wavefunction_ok),
            "print-config-roundtrip": (["print-config", *table, "--format", "csv"],
                                       _spectrum_csv_ok),
        }
        order = sorted(commands)
        self.rng.shuffle(order)
        config = self.path("config.json")

        def call():
            codes = {}
            for name in order:
                argv, _ = commands[name]
                out = ["--out", self.path(name)]
                if name == "print-config-roundtrip":
                    code, text = run_cli(self.cli, argv)
                    with open(config, "w", encoding="utf-8") as fh:
                        fh.write(text)
                    rerun, _ = run_cli(self.cli, ["spectrum", "--config", config, *out])
                    codes[name] = code or rerun
                else:
                    codes[name], _ = run_cli(self.cli, argv + out)
            return codes

        def check(codes):
            outputs = {name: _take(self.path(name)) for name in sorted(commands)}
            identity = b"".join(outputs.values())
            for name, data in outputs.items():
                ok, detail = commands[name][1](codes[name], data)
                if not ok:
                    return False, f"{name}: {detail}", identity, len(identity)
            if outputs["print-config-roundtrip"] != outputs["spectrum-csv"]:
                return (False, "spectrum from the print-config dump is not "
                        "byte-identical", identity, len(identity))
            return True, "", identity, len(identity)

        return [Op("reports", call, check)]


def _ladder_ok(code, data):
    if code != 0:
        return False, f"exit code {code}"
    payload = json.loads(data)
    if payload.get("passed") is not True or len(payload["channels"]) != 9:
        return False, "ladder report failed or incomplete"
    return True, ""


def _spectrum_csv_ok(code, data):
    if code != 0:
        return False, f"exit code {code}"
    rows = list(csv.reader(io.StringIO(data.decode())))
    if rows[0] != ["dim", "ell", "n", "k", "eps", "energy", "status"]:
        return False, "unexpected header"
    body = rows[1:]
    if len(body) != SPECTRUM_ROWS:
        return False, f"{len(body)} rows, expected {SPECTRUM_ROWS}"
    if not all(r[6] == "ok" and _floats(r[:6]) for r in body):
        return False, "row with a bad status or number"
    return True, ""


def _spectrum_json_ok(code, data):
    if code != 0:
        return False, f"exit code {code}"
    rows = json.loads(data)["rows"]
    if len(rows) != SPECTRUM_ROWS:
        return False, f"{len(rows)} rows, expected {SPECTRUM_ROWS}"
    if not all(r["status"] == "ok" and math.isfinite(r["energy"]) for r in rows):
        return False, "row with a bad status or energy"
    return True, ""


def _wavefunction_ok(code, data):
    if code != 0:
        return False, f"exit code {code}"
    lines = data.decode().splitlines()
    if not lines[0].startswith("# zeta=") or lines[1] != "r,R,residual":
        return False, "unexpected header"
    body = [line.split(",") for line in lines[2:]]
    if len(body) != 20001:
        return False, f"{len(body)} samples, expected 20001"
    if not all(len(f) == 3 and _floats(f[:2] + [f[2] or "0"]) for f in body):
        return False, "sample that does not parse"
    return True, ""


WORKLOADS = {w.name: w for w in (VerifySuite, HighNStates, ReportTables)}
