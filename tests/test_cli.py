"""End-to-end command-line behavior: files, formats, exit codes."""

import argparse
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from miespec import (cli, oracle, potentials, specfun, spectrum,
                     wavefunction)
from miespec.cli import main


def run(tmp_path, *argv):
    return main([*argv, "--outdir", str(tmp_path)])


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    header = body[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in body[1:]]
    return comments, rows


def test_presets_listing(capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    for name in ("kratzer-fues", "modified-kratzer", "coulomb"):
        assert name in out
    assert "mie" not in out


class TestSpectrum:
    def test_hydrogen_table_and_degeneracy(self, tmp_path):
        assert run(tmp_path, "spectrum", "--preset", "coulomb", "--B", "-1",
                   "--n-max", "2", "--ell-max", "1") == 0
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert len(rows) == 6
        by_q = {(r["n"], r["ell"]): r for r in rows}
        e01 = float(by_q[("0", "1")]["energy"])
        e10 = float(by_q[("1", "0")]["energy"])
        assert e01 == pytest.approx(e10, rel=1e-14)
        assert e01 == pytest.approx(-0.125, rel=1e-14)

    def test_repulsive_params_flag_rows_and_exit(self, tmp_path):
        code = run(tmp_path, "spectrum", "--B", "1.0", "--n-max", "1",
                   "--ell-max", "0")
        assert code == 3
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert rows and all(r["status"] == "no-bound-states" for r in rows)
        assert all(r["energy"] == "" for r in rows)

    def test_paper_literal_modified_kratzer_falls_to_center(self, tmp_path):
        # B = +10 > 0, but A = -5 makes every discriminant negative
        # (-39, -31, -15): fall-to-center, not no-bound-states
        code = run(tmp_path, "spectrum", "--preset", "modified-kratzer",
                   "--d0", "5", "--r0", "1", "--convention", "paper-literal",
                   "--n-max", "0", "--ell-max", "2", "--dims", "3")
        assert code == 3
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert [r["status"] for r in rows] == ["fall-to-center"] * 3

    def test_empty_dims_header_only(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quantum": {"dims": []}}))
        assert run(tmp_path, "spectrum", "--config", str(cfg)) == 0
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert rows == []

    def test_json_format(self, tmp_path):
        assert run(tmp_path, "spectrum", "--preset", "kratzer-fues",
                   "--d0", "5", "--r0", "1", "--format", "json",
                   "--n-max", "0", "--ell-max", "0") == 0
        payload = json.loads((tmp_path / "spectrum.json").read_text())
        assert payload["rows"][0]["energy"] == pytest.approx(-3.6492, abs=1e-4)

    def test_full_roundtrip_precision(self, tmp_path):
        assert run(tmp_path, "spectrum", "--preset", "coulomb", "--B", "-1",
                   "--n-max", "0", "--ell-max", "0") == 0
        _, rows = read_csv(tmp_path / "spectrum.csv")
        assert float(rows[0]["energy"]) == -0.5


class TestWavefunction:
    def test_hydrogen_ground_monotone_decay(self, tmp_path):
        assert run(tmp_path, "wavefunction", "--preset", "coulomb", "--B", "-1",
                   "--n", "0", "--ell", "0", "--dim", "3") == 0
        comments, rows = read_csv(tmp_path / "wavefunction_n0_l0_N3.csv")
        assert comments and all(key in comments[0]
                                for key in ("zeta=", "k=", "eps=", "energy="))
        values = [float(r["R"]) for r in rows]
        assert all(v > 0.0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_two_node_state(self, tmp_path):
        assert run(tmp_path, "wavefunction", "--preset", "kratzer-fues",
                   "--d0", "5", "--r0", "1", "--n", "2", "--ell", "0",
                   "--dim", "3") == 0
        _, rows = read_csv(tmp_path / "wavefunction_n2_l0_N3.csv")
        signs = [math.copysign(1.0, float(r["R"])) for r in rows
                 if abs(float(r["R"])) > 1e-14]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert changes == 2

    def test_residual_column(self, tmp_path):
        assert run(tmp_path, "wavefunction", "--preset", "coulomb", "--B", "-1",
                   "--n", "0", "--ell", "0", "--dim", "3", "--residual") == 0
        _, rows = read_csv(tmp_path / "wavefunction_n0_l0_N3.csv")
        assert "residual" in rows[0]
        interior = [float(r["residual"]) for r in rows if r["residual"]]
        assert interior and max(abs(v) for v in interior) < 1e-5

    def test_far_domain_past_the_y_range_is_zero(self, tmp_path, capsys):
        # y = 2 eps r overflows at r = 1e308 for eps = 2; this once ended in
        # a traceback
        assert run(tmp_path, "wavefunction", "--B", "-2", "--n", "0", "--ell",
                   "0", "--dim", "3", "--r-domain", "1e308", "--points",
                   "11") == 0
        _, rows = read_csv(tmp_path / "wavefunction_n0_l0_N3.csv")
        assert len(rows) == 11 and all(float(r["R"]) == 0.0 for r in rows)
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv", [
        ["--n", "1", "--ell", "1", "--r-domain", "1e-160"],
        ["--n", "0", "--ell", "0", "--r-domain", "1e-300"],
    ], ids=["centrifugal-overflows", "spacing-squared-underflows"])
    def test_residual_past_the_double_range_is_a_domain_error(
            self, tmp_path, capsys, argv):
        # nu / r^2 overflows or 12 h^2 underflows: refused, not written as
        # -inf or nan
        assert run(tmp_path, "wavefunction", *argv, "--dim", "3", "--points",
                   "11", "--residual") == 3
        err = capsys.readouterr().err
        assert err.startswith("domain error:") and "Traceback" not in err
        assert not list(tmp_path.iterdir())

    def test_bad_grid_is_config_error(self, tmp_path):
        code = run(tmp_path, "wavefunction", "--preset", "coulomb", "--B", "-1",
                   "--n", "0", "--ell", "0", "--dim", "3", "--r-min", "-0.5")
        assert code == 2

    def test_invalid_channel_is_domain_error(self, tmp_path):
        code = run(tmp_path, "wavefunction", "--preset", "modified-kratzer",
                   "--d0", "1", "--r0", "1", "--convention", "paper-literal",
                   "--n", "0", "--ell", "0", "--dim", "3")
        assert code == 3


class TestLadderCheck:
    def test_hydrogen_channel_passes(self, tmp_path):
        assert run(tmp_path, "ladder-check", "--preset", "coulomb", "--B", "-1",
                   "--n-max", "3", "--ell-max", "0", "--dims", "3",
                   "--y-points", "2001") == 0
        payload = json.loads((tmp_path / "ladder_check.json").read_text())
        channel = payload["channels"][0]
        assert channel["casimir"]["eigenvalue"] == pytest.approx(0.0, abs=1e-14)
        entry = channel["differential"][1]["lowering"]
        assert {"fitted", "closed_form", "derived",
                "closed_form_discrepancy"} <= set(entry)
        assert payload["passed"]

    def test_noninteger_k_algebra_still_exact(self, tmp_path):
        # n-max 3 exercises rows whose Casimir residual is a nonzero ulp,
        # which once leaked numpy scalar types into the JSON encoder
        assert run(tmp_path, "ladder-check", "--preset", "kratzer-fues",
                   "--d0", "5", "--r0", "1", "--n-max", "3", "--ell-max", "0",
                   "--dims", "3", "--y-points", "2001") == 0
        payload = json.loads((tmp_path / "ladder_check.json").read_text())
        channel = payload["channels"][0]
        assert channel["commutator"]["max_coefficient_residual"] <= 1e-12
        assert channel["casimir"]["max_residual"] <= 1e-12
        assert channel["k"] != round(channel["k"])

    def test_unbound_potential_domain_error(self, tmp_path):
        code = run(tmp_path, "ladder-check", "--B", "1.0", "--dims", "3")
        assert code == 3


class TestVerify:
    def test_default_suite_passes(self, tmp_path):
        # no potential given: runs Coulomb plus Kratzer-Fues over N in 2,3,5
        code = run(tmp_path, "verify", "--fast", "--n-max", "1",
                   "--ell-max", "1")
        assert code == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        labels = {c["potential"] for c in payload["channels"]}
        assert labels == {"coulomb", "kratzer-fues"}
        assert {c["dim"] for c in payload["channels"]} == {2, 3, 5}
        assert payload["passed"]

    def test_quick_single_channel(self, tmp_path):
        code = run(tmp_path, "verify", "--preset", "coulomb", "--B", "-1",
                   "--dims", "3", "--n-max", "1", "--ell-max", "0", "--fast")
        assert code == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert payload["passed"]
        channel = payload["channels"][0]
        assert channel["energy_ok"] and channel["norm_ok"]
        assert channel["delta"][0] <= channel["tolerance"][0]

    def test_coarse_negative_control(self, tmp_path):
        # Coulomb N=2, ell=0 is second order on the x-grid; N=3, ell=0 has
        # a ground state that is a Gaussian in x, nearly exact at any grid
        code = run(tmp_path, "verify", "--preset", "coulomb", "--B", "-1",
                   "--dims", "2", "--n-max", "1", "--ell-max", "0", "--fast",
                   "--refine", "0.0625")
        assert code == 3
        payload = json.loads((tmp_path / "verify.json").read_text())
        assert not payload["passed"]
        assert any(not c["passed"] for c in payload["channels"])

    def test_convergence_order_reported(self, tmp_path):
        code = run(tmp_path, "verify", "--preset", "kratzer-fues", "--d0", "5",
                   "--r0", "1", "--dims", "3", "--n-max", "1", "--ell-max", "0")
        assert code == 0
        payload = json.loads((tmp_path / "verify.json").read_text())
        channel = payload["channels"][0]
        assert channel["order_status"] == "ok" and channel["order_ok"]
        assert abs(channel["order"] - 2.0) <= 0.2

    def test_a_non_monotone_order_fit_fails(self, tmp_path, monkeypatch):
        # level 0 within the energy tolerance (5e-5) on every rung, but its
        # errors 1e-5, 2e-5, 1.5e-5 give no order: the gate fails
        rungs = []

        def solved(potential, ell, dim, grid, asked):
            rungs.extend(asked)
            return [np.array([-0.5 + e]) for e in (1e-5, 2e-5, 1.5e-5)]
        monkeypatch.setattr(oracle, "solve_grids", solved)
        code = run(tmp_path, "verify", "--preset", "coulomb", "--B", "-1",
                   "--dims", "3", "--n-max", "0", "--ell-max", "0")
        assert code == 3
        assert rungs == [(4, 1), (2, 1), (1, 1)]
        channel, = json.loads((tmp_path / "verify.json").read_text())["channels"]
        assert channel["energy_ok"] and channel["order_status"] == "inconclusive"
        assert channel["order_ok"] is False and channel["passed"] is False


class TestConfigHandling:
    def test_resolved_config_roundtrip_bytes(self, tmp_path, capsys):
        flags = ["--preset", "kratzer-fues", "--d0", "2.5", "--r0", "1.5",
                 "--dims", "3,5", "--n-max", "2", "--ell-max", "1",
                 "--outdir", str(tmp_path)]
        assert main(["spectrum", *flags, "--out", str(tmp_path / "a.csv")]) == 0
        assert main(["print-config", *flags]) == 0
        resolved = capsys.readouterr().out
        cfg_file = tmp_path / "resolved.json"
        cfg_file.write_text(resolved)
        assert main(["spectrum", "--config", str(cfg_file),
                     "--out", str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"potentialz": {"preset": "coulomb"}}))
        assert run(tmp_path, "spectrum", "--config", str(cfg)) == 2

    def test_mixed_preset_and_raw_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"potential": {"preset": "kratzer-fues", "d0": 5, "r0": 1, "C": 2.0}}))
        assert run(tmp_path, "spectrum", "--config", str(cfg)) == 2

    def test_malformed_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(tmp_path, "spectrum", "--config", str(cfg)) == 2

    def test_dimension_below_two_rejected(self, tmp_path):
        assert run(tmp_path, "spectrum", "--dims", "1") == 2

    def test_unwritable_output_is_io_error(self, tmp_path):
        code = main(["spectrum", "--preset", "coulomb", "--B", "-1",
                     "--out", str(tmp_path / "missing" / "x.csv")])
        assert code == 4

    def test_env_outdir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MIESPEC_OUTDIR", str(tmp_path))
        assert main(["spectrum", "--preset", "coulomb", "--B", "-1",
                     "--n-max", "0", "--ell-max", "0"]) == 0
        assert (tmp_path / "spectrum.csv").exists()


def test_library_calls_leave_scipy_linalg_unimported():
    # importing scipy.linalg would add about 26 MiB of resident memory and
    # 0.3 s of start-up to every command
    code = """
import sys
import miespec.cli
from miespec import (QuantumNumbers, bound_state, coulomb, norm_check,
                     solve_bound_states)
solve_bound_states(coulomb(-1.0), 0, 3)
norm_check(bound_state(coulomb(-1.0), QuantumNumbers(2, 0, 3)))
print("scipy.linalg" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "False"


def test_spectrum_rows_where_the_norm_constant_overflows(tmp_path):
    # ln zeta is about 2600 at ell = 200: the table must not compute it
    assert run(tmp_path, "spectrum", "--preset", "coulomb", "--B", "-1",
               "--mass", "1e12", "--n-max", "0", "--ell-max", "200",
               "--dims", "3") == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert len(rows) == 201
    assert all(r["status"] == "ok" for r in rows)
    assert all(math.isfinite(float(r["energy"])) for r in rows)


@pytest.mark.parametrize("fast", [False, True], ids=["order-fit", "fast"])
def test_verify_solves_each_grid_once(tmp_path, monkeypatch, fast):
    rows = []
    solve = oracle.eigen_lowest

    def counted(tri, *args, **kwargs):
        rows.append(tri.size)
        return solve(tri, *args, **kwargs)
    monkeypatch.setattr(oracle, "eigen_lowest", counted)

    assert run(tmp_path, "verify", "--preset", "kratzer-fues", "--d0", "5",
               "--r0", "1", "--dims", "3", "--n-max", "1", "--ell-max", "1",
               *(["--fast"] if fast else [])) == 0
    kratzer = potentials.kratzer_fues(5.0, 1.0)
    sizes = [oracle.default_grid(kratzer, ell, 3, n_max=1).count
             for ell in (0, 1)]
    # coarse to fine: the 8h scout, the order fit's 4h and 2h, then the h
    # grid itself
    fractions = (1 / 8, 1) if fast else (1 / 8, 1 / 4, 1 / 2, 1)
    per_channel = len(fractions)
    assert len(rows) == per_channel * len(sizes)
    for i, m in enumerate(sizes):
        channel = rows[per_channel * i:per_channel * (i + 1)]
        assert channel[-1] == m
        for size, fraction in zip(channel, fractions):
            assert abs(size - m * fraction) <= 1


def test_verify_builds_one_quadrature_rule_per_channel(tmp_path, monkeypatch):
    # every norm and the 0-1 overlap of a channel read one rule of
    # n_max + 2 nodes; one rule per state and per overlap made 30 here
    build = specfun.gauss_laguerre
    rules = []

    def counted(m, alpha=0.0):
        rules.append((m, alpha))
        return build(m, alpha)
    monkeypatch.setattr(specfun, "gauss_laguerre", counted)
    monkeypatch.setattr(wavefunction, "gauss_laguerre", counted)
    assert run(tmp_path, "verify", "--n-max", "3", "--ell-max", "2",
               "--dims", "3", "--fast") == 0
    channels = json.loads((tmp_path / "verify.json").read_text())["channels"]
    assert len(channels) == len(rules) == 6
    assert {m for m, _ in rules} == {5}
    assert len(set(rules)) == 6


@pytest.mark.parametrize("command", ["verify", "spectrum", "ladder-check"])
@pytest.mark.parametrize("form", ["flag", "config"])
def test_a_repeated_dimension_is_refused(tmp_path, capsys, command, form):
    # each channel or row would be run and written twice
    if form == "flag":
        args = ["--dims", "2,3,2"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"quantum": {"dims": [3, 2, 3]}}))
        args = ["--config", str(cfg)]
    out = tmp_path / "out"
    out.mkdir()
    assert run(out, command, "--n-max", "0", "--ell-max", "0", *args) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert f"repeats dimension {2 if form == 'flag' else 3}" in err
    assert not list(out.iterdir())


def test_verify_slope_row_budget(tmp_path, monkeypatch):
    # the 18 default channels of a full verify; every level on every grid
    # after the first starts from the grids before it
    rows = []
    slope = oracle._negcount_slope

    def counted(d, esq, shift, pivmin):
        rows.append(len(d))
        return slope(d, esq, shift, pivmin)
    monkeypatch.setattr(oracle, "_negcount_slope", counted)
    assert run(tmp_path, "verify") == 0
    assert len(json.loads((tmp_path / "verify.json").read_text())["channels"]) == 18
    # 0.31 M on the x-grids, 1.16 M on the uniform-r grids
    assert sum(rows) <= 0.40e6


def test_default_verify_stays_within_half_the_tolerance(tmp_path):
    # the x-grids: 24.8 k cells over the 18 default channels (136 k on the
    # uniform-r grids), each channel's worst energy error at most 0.40 of
    # its tolerance (0.50 on the uniform-r grids)
    assert run(tmp_path, "verify") == 0
    channels = json.loads((tmp_path / "verify.json").read_text())["channels"]
    assert len(channels) == 18
    worst = max(d / t for c in channels for d, t in zip(c["delta"], c["tolerance"]))
    assert worst <= 0.50
    assert all(c["order_ok"] for c in channels)
    suite = [potentials.coulomb(-1.0), potentials.kratzer_fues(5.0, 1.0)]
    assert sum(oracle.default_grid(p, ell, dim).count for p in suite
               for dim in (2, 3, 5) for ell in range(3)) <= 30000


@pytest.mark.parametrize("argv", [
    ["wavefunction", "--n", "0", "--ell", "200", "--dim", "3", "--mass", "1e12"],
    ["ladder-check", "--ell-max", "200", "--dims", "3", "--mass", "1e12"],
    ["wavefunction", "--n", "0", "--ell", "200", "--dim", "3"],
], ids=["wavefunction", "ladder-check", "wavefunction-underflow"])
def test_norm_constant_overflow_is_a_domain_error(tmp_path, capsys, argv):
    # with mass 1e12, ln zeta first passes log(DBL_MAX) at ell = 32 and is
    # about 3600 at ell = 200; without it, ln zeta is about -1935 at
    # ell = 200, below the normal double range
    code = run(tmp_path, *argv, "--preset", "coulomb", "--B", "-1")
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "ln zeta" in err
    assert not list(tmp_path.iterdir())


def test_fd_matrix_overflow_is_a_domain_error(tmp_path, capsys):
    # hbar 1e-100 shrinks the grid to x ~ 1e-99, where the kinetic entries
    # hbar^2 / (8 M h^2 x_i x_j) overflow; a uniform-r grid of that domain
    # had an h^2 that underflowed to 0, and the build raised
    # ZeroDivisionError
    assert run(tmp_path, "verify", "--fast", "--n-max", "0", "--ell-max", "0",
               "--dims", "3", "--hbar", "1e-100") == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and "finite-difference matrix" in err
    assert not list(tmp_path.iterdir())


def test_an_overflowing_coefficient_is_named(tmp_path, capsys):
    assert run(tmp_path, "spectrum", "--preset", "kratzer-fues", "--d0", "1",
               "--r0", "1e200") == 2
    assert capsys.readouterr().err == "configuration error: A must be finite\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["--n", "-1", "--ell", "0", "--dim", "3"],
    ["--n", "0", "--ell", "-1", "--dim", "3"],
    ["--n", "0", "--ell", "0", "--dim", "1"],
    ["--n", "0", "--ell", "0", "--dim", "3", "--points", "5",
     "--r-domain", "5", "--r-min", "10"],
], ids=["n-negative", "ell-negative", "dim-one", "r-min-past-r-max"])
def test_wavefunction_arguments_are_configuration_errors(tmp_path, capsys, argv):
    assert run(tmp_path, "wavefunction", *argv) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["verify", "--fast", "--n-max", "0", "--ell-max", "0", "--dims", "3"],
    ["ladder-check", "--n-max", "1", "--ell-max", "0"],
    ["wavefunction", "--n", "0", "--ell", "0", "--dim", "3"],
], ids=["verify", "ladder-check", "wavefunction"])
def test_a_missing_output_directory_fails_before_the_work(tmp_path, capsys,
                                                          monkeypatch, argv):
    calls = []
    monkeypatch.setattr(oracle, "eigen_lowest", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(spectrum, "bound_state", lambda *a, **k: calls.append(a))
    assert run(tmp_path / "missing", *argv) == 4
    assert capsys.readouterr().err.startswith("output error:")
    assert not calls
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("units, code, message", [
    (["--d0", "1e30", "--mass", "1e300"], 3, "domain error: beta"),
    (["--d0", "1e300", "--mass", "1e10"], 3, "domain error: beta"),
    (["--r0", "1e308"], 2, "configuration error: A, B must be finite"),
], ids=["beta-overflows-mass", "beta-overflows-depth", "coefficients-overflow"])
def test_kratzer_fues_out_of_range(tmp_path, capsys, units, code, message):
    # refused by the closed form's own range checks
    assert run(tmp_path, "verify", "--fast", "--preset", "kratzer-fues",
               "--n-max", "0", "--ell-max", "0", "--dims", "3", *units) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--preset", "mie-general"],
    ["ladder-check", "--mie-a", "4"],
    ["wavefunction", "--n", "0", "--ell", "0", "--dim", "3", "--mie-b", "2"],
    ["verify", "--mie-general"],
    ["verify", "--coarse", "16"],
], ids=["preset", "mie-a", "mie-b", "mie-general", "coarse"])
def test_removed_flags_are_argparse_errors(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_the_general_mie_preset_is_unknown_in_a_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg" / "mie.json"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps({"potential": {"preset": "mie-general"}}))
    out = tmp_path / "out"
    out.mkdir()
    assert main(["verify", "--fast", "--config", str(cfg),
                 "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == \
        "configuration error: unknown preset 'mie-general'\n"
    assert not list(out.iterdir())


def test_verify_without_a_channel_is_a_configuration_error(tmp_path, capsys):
    # an empty dims list would pass with no gate run, in either checking command
    cfg = tmp_path / "cfg" / "dims.json"
    cfg.parent.mkdir()
    cfg.write_text(json.dumps({"quantum": {"dims": []}}))
    out = tmp_path / "out"
    out.mkdir()
    for argv in (["verify", "--fast"], ["ladder-check"]):
        assert main([*argv, "--config", str(cfg), "--outdir", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {argv[0]} needs at least one dimension "
            "in quantum.dims\n")
        assert not list(out.iterdir())


def test_energy_gate_reads_the_binding_energy_not_the_offset(tmp_path):
    # 5e-5 |E| would allow 5e5 on a level 0.5 below C = 1e10
    assert run(tmp_path, "verify", "--A", "0", "--B", "-1", "--C", "1e10",
               "--n-max", "1", "--ell-max", "0", "--dims", "3") == 0
    channel = json.loads((tmp_path / "verify.json").read_text())["channels"][0]
    assert channel["closed_form"] == [1e10 - 0.5, 1e10 - 0.125]
    assert channel["tolerance"] == [5e-5, 5e-5]
    assert channel["passed"]


# flag, value, the section and key it sets, and the value print-config shows
CONFIG_FLAGS = [
    ("--outdir", "some/dir", "output", "dir", "some/dir"),
    ("--format", "json", "output", "format", "json"),
    ("--preset", "kratzer-fues", "potential", "preset", "kratzer-fues"),
    ("--d0", "2.5", "potential", "d0", 2.5),
    ("--r0", "1.5", "potential", "r0", 1.5),
    ("--A", "0.5", "potential", "A", 0.5),
    ("--B", "-2", "potential", "B", -2.0),
    ("--C", "0.25", "potential", "C", 0.25),
    ("--convention", "paper-literal", "potential", "convention", "paper-literal"),
    ("--mass", "2", "units", "mass", 2.0),
    ("--hbar", "0.5", "units", "hbar", 0.5),
    ("--n-max", "4", "quantum", "n_max", 4),
    ("--ell-max", "1", "quantum", "ell_max", 1),
    ("--dims", "3,5", "quantum", "dims", [3, 5]),
    ("--points", "101", "grid", "points", 101),
    ("--r-domain", "40", "grid", "r_domain", 40.0),
    ("--y-points", "501", "grid", "y_points", 501),
    ("--refine", "2", "grid", "refine", 2.0),
]


def test_config_flag_table_covers_every_common_flag():
    parser = argparse.ArgumentParser()
    cli._add_common(parser)
    flags = {opt for action in parser._actions for opt in action.option_strings}
    assert flags - {"-h", "--help", "--config", "--out"} == \
        {flag for flag, *_ in CONFIG_FLAGS}


# a preset that reads each potential key other than preset and A/B/C
READER = {"d0": "kratzer-fues", "r0": "kratzer-fues",
          "convention": "modified-kratzer"}


@pytest.mark.parametrize("flag,value,section,key,expected", CONFIG_FLAGS,
                         ids=[row[0] for row in CONFIG_FLAGS])
def test_each_config_flag_lands_under_its_section(capsys, flag, value,
                                                  section, key, expected):
    preset = ["--preset", READER[key]] if key in READER else []
    assert main(["print-config", *preset, flag, value]) == 0
    cfg = json.loads(capsys.readouterr().out)
    assert cfg[section][key] == expected
    if key in READER:
        assert cfg["potential"] == {"preset": READER[key], key: expected}
    elif section == "potential":
        # a preset or raw A/B/C flag replaces the default potential
        assert cfg["potential"] == {key: expected}


def test_every_listed_preset_is_accepted(tmp_path, capsys):
    assert main(["presets"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert len(names) == 3
    for name in names:
        assert main(["print-config", "--preset", name]) == 0
        from_flag = json.loads(capsys.readouterr().out)
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps({"potential": {"preset": name}}))
        assert main(["print-config", "--config", str(cfg)]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert from_flag == from_file
        assert cli.build_potential(from_file)[1] == name


def test_convention_alone_is_refused_by_verify(tmp_path, capsys):
    # the default Coulomb section does not read a convention
    assert run(tmp_path, "verify", "--convention", "paper-literal", "--fast",
               "--n-max", "0", "--ell-max", "0", "--dims", "3") == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not list(tmp_path.iterdir())


# a dict is the potential section of a config file, for keys no flag sets
@pytest.mark.parametrize("argv,label,key", [
    (["spectrum", {"preset": "kratzer-fues", "d0": 5, "r0": 1, "a": 6}],
     "'kratzer-fues'", "'a'"),
    (["verify", "--preset", "coulomb", "--B", "-1", "--d0", "3"],
     "'coulomb'", "'d0'"),
    (["spectrum", "--B", "-1", "--d0", "3"], "'raw'", "'d0'"),
    (["ladder-check", {"preset": "modified-kratzer", "b": 3}],
     "'modified-kratzer'", "'b'"),
    (["print-config", "--d0", "3"], "'coulomb'", "'d0'"),
    (["spectrum", {"preset": "coulomb", "B": -1, "r0": 2}], "'coulomb'", "'r0'"),
], ids=["kratzer-fues-a", "coulomb-d0", "raw-d0", "modified-kratzer-b",
        "default-coulomb-d0", "config-file-r0"])
def test_a_potential_key_the_preset_does_not_read_is_refused(
        tmp_path, capsys, argv, label, key):
    if isinstance(argv[-1], dict):
        cfg = tmp_path / "cfg" / "potential.json"
        cfg.parent.mkdir()
        cfg.write_text(json.dumps({"potential": argv[-1]}))
        argv = [*argv[:-1], "--config", str(cfg)]
    out = tmp_path / "out"
    out.mkdir()
    assert main([*argv, "--outdir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error:")
    assert label in captured.err and key in captured.err
    assert captured.out == "" and not list(out.iterdir())


def test_default_verify_suite_reads_units(tmp_path):
    assert run(tmp_path, "verify", "--fast", "--mass", "2", "--n-max", "0",
               "--ell-max", "0", "--dims", "3") == 0
    payload = json.loads((tmp_path / "verify.json").read_text())
    coulomb = next(c for c in payload["channels"] if c["potential"] == "coulomb")
    # E = -mass B^2 / (2 hbar^2 (n + 1)^2) at N = 3: twice the mass-1 level
    want = spectrum.energy(potentials.coulomb(-1.0, mass=2.0),
                           spectrum.QuantumNumbers(0, 0, 3))
    assert want == pytest.approx(-1.0, rel=1e-14)
    assert coulomb["closed_form"] == [want]
    assert abs(coulomb["fd"][0] - want) <= coulomb["tolerance"][0]
    assert payload["passed"]


@pytest.mark.parametrize("source", [["--points", "101"], ["--r-domain", "5"],
                                    {"grid": {"points": 101, "r_domain": 5.0}}],
                         ids=["points", "r-domain", "config-file"])
def test_verify_refuses_the_grid_keys_it_does_not_read(tmp_path, capsys, source):
    flag = isinstance(source, list)
    if not flag:
        cfg = tmp_path / "cfg" / "grid.json"
        cfg.parent.mkdir()
        cfg.write_text(json.dumps(source))
        source = ["--config", str(cfg)]
    out = tmp_path / "out"
    out.mkdir()
    argv = ["verify", "--fast", "--n-max", "0", "--ell-max", "0", "--dims", "3",
            *source, "--outdir", str(out)]
    if flag:
        # verify has no such flag, so argparse refuses it
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err and source[0] in err
    else:
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "grid key" in err
    assert not list(out.iterdir())


# each command's own arguments, without configuration flags
RUN = {
    "spectrum": ["spectrum"],
    "wavefunction": ["wavefunction", "--n", "0", "--ell", "0", "--dim", "3"],
    "ladder-check": ["ladder-check"],
    "verify": ["verify", "--fast"],
}
# the quantum, format and grid keys each command reads; every command also
# reads the potential, the units and the output directory
READS = {
    "spectrum": {"quantum.n_max", "quantum.ell_max", "quantum.dims",
                 "output.format"},
    "wavefunction": {"grid.points", "grid.r_domain"},
    "ladder-check": {"quantum.n_max", "quantum.ell_max", "quantum.dims",
                     "grid.y_points"},
    "verify": {"quantum.n_max", "quantum.ell_max", "quantum.dims",
               "grid.refine"},
}
UNREAD = [(command, row) for command in READS for row in CONFIG_FLAGS
          if row[2] in ("quantum", "grid", "output") and row[3] != "dir"
          and f"{row[2]}.{row[3]}" not in READS[command]]
UNREAD_IDS = [f"{command}{flag}" for command, (flag, *_) in UNREAD]


@pytest.mark.parametrize("command,row", UNREAD, ids=UNREAD_IDS)
def test_a_flag_the_command_does_not_read_is_refused(tmp_path, capsys,
                                                     command, row):
    flag, value, *_ = row
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, *RUN[command], flag, value)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err and flag in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command,row", UNREAD, ids=UNREAD_IDS)
def test_a_config_key_the_command_does_not_read_is_refused(tmp_path, capsys,
                                                           command, row):
    # the table's value differs from each key's default
    _, _, section, key, value = row
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {key: value}}))
    out = tmp_path / "out"
    out.mkdir()
    assert main([*RUN[command], "--config", str(cfg), "--outdir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"configuration error: {command} does not read "
                            f"{section} key(s) [{key!r}]\n")
    assert captured.out == "" and not list(out.iterdir())


TYPOS = {"units": "mas", "quantum": "nmax", "grid": "pionts", "output": "fromat"}


@pytest.mark.parametrize("section", TYPOS)
@pytest.mark.parametrize("command", [*RUN, "print-config"])
def test_an_unknown_config_key_is_refused_by_every_command(tmp_path, capsys,
                                                           command, section):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {TYPOS[section]: 7}}))
    out = tmp_path / "out"
    out.mkdir()
    argv = RUN.get(command, [command])
    assert main([*argv, "--config", str(cfg), "--outdir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"configuration error: unknown {section} "
                            f"key(s) [{TYPOS[section]!r}]\n")
    assert captured.out == "" and not list(out.iterdir())


@pytest.mark.parametrize("command,flags", [
    ("ladder-check", ["--preset", "kratzer-fues", "--d0", "5", "--r0", "1",
                      "--n-max", "2", "--ell-max", "1", "--dims", "3",
                      "--y-points", "501"]),
    ("verify", ["--preset", "coulomb", "--B", "-1", "--n-max", "1",
                "--ell-max", "0", "--dims", "3", "--refine", "1.5"]),
    ("wavefunction", ["--preset", "coulomb", "--B", "-1", "--points", "301",
                      "--r-domain", "30"]),
])
def test_print_config_round_trip_of_each_command(tmp_path, capsys, command,
                                                 flags):
    # the dump holds every key, those the command does not read at their
    # defaults, which the command accepts
    assert main([*RUN[command], *flags, "--out", str(tmp_path / "a")]) == 0
    assert main(["print-config", *flags]) == 0
    dump = tmp_path / "resolved.json"
    dump.write_text(capsys.readouterr().out)
    assert main([*RUN[command], "--config", str(dump),
                 "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("command", READS)
def test_help_lists_exactly_the_keys_a_command_reads(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[A-Za-z0-9-]+", capsys.readouterr().out))
    want = {flag for flag, _, section, key, _ in CONFIG_FLAGS
            if section in ("potential", "units") or key == "dir"
            or f"{section}.{key}" in READS[command]}
    assert listed & {flag for flag, *_ in CONFIG_FLAGS} == want


@pytest.mark.parametrize("argv,doc,message", [
    (["spectrum"], {"quantum": {"n_max": "abc"}},
     "quantum.n_max must be a number, not 'abc'"),
    (["ladder-check"], {"grid": {"y_points": "x"}},
     "grid.y_points must be a number, not 'x'"),
    (["verify", "--fast"], {"grid": {"refine": "fast"}},
     "grid.refine must be a number, not 'fast'"),
    (["spectrum"], {"quantum": {"n_max": 2.7}},
     "quantum.n_max must be a finite integer, not 2.7"),
    (["spectrum"], {"quantum": {"dims": [3.5]}},
     "quantum.dims must be a finite integer, not 3.5"),
    (["spectrum"], {"units": {"mass": None}},
     "units.mass must be a number, not None"),
], ids=["n_max-text", "y_points-text", "refine-text", "n_max-fraction",
        "dims-fraction", "mass-null"])
def test_a_malformed_config_value_is_a_configuration_error(tmp_path, capsys,
                                                          argv, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    out.mkdir()
    assert main([*argv, "--config", str(cfg), "--outdir", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not list(out.iterdir())


def test_each_config_value_is_stored_as_the_type_it_is_read_as(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"units": {"mass": 2}, "grid": {"refine": 2},
                               "quantum": {"n_max": 4.0, "dims": [3.0, 5]}}))
    assert main(["print-config", "--config", str(cfg)]) == 0
    resolved = json.loads(capsys.readouterr().out)
    assert repr(resolved["units"]["mass"]) == "2.0"
    assert repr(resolved["grid"]["refine"]) == "2.0"
    assert repr(resolved["quantum"]["n_max"]) == "4"
    assert repr(resolved["quantum"]["dims"]) == "[3, 5]"


@pytest.mark.parametrize("argv", [
    ["spectrum", "--mass", "nan"],
    ["spectrum", "--preset", "kratzer-fues", "--d0", "nan", "--r0", "1"],
    ["wavefunction", "--n", "0", "--ell", "0", "--dim", "3", "--r-domain", "nan"],
    ["wavefunction", "--n", "0", "--ell", "0", "--dim", "3", "--r-min", "nan"],
    ["verify", "--fast", "--refine", "nan"],
    ["verify", "--fast", "--refine", "0"],
    ["verify", "--fast", "--refine", "-3"],
], ids=["mass-nan", "d0-nan", "r-domain-nan", "r-min-nan", "refine-nan",
        "refine-zero", "refine-negative"])
def test_a_non_finite_or_non_positive_number_is_refused(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv,names", [
    (["spectrum", "--hbar", "1e200"], "hbar^2 / 2M leaves"),
    (["spectrum", "--mass", "1e300", "--hbar", "1e-300"], "hbar^2 / 2M leaves"),
    (["verify", "--fast", "--n-max", "0", "--ell-max", "0", "--dims", "3",
      "--mass", "1e300"], "normalization constant is outside the normal "
     "double range: ln zeta = 1036.86"),
    (["wavefunction", "--n", "0", "--ell", "0", "--dim", "3",
      "--hbar", "1e200"], "hbar^2 / 2M leaves"),
    (["ladder-check", "--B=-1e20", "--mass", "1e-10", "--hbar", "1e-150"],
     "beta = -2 m B / hbar^2 = inf is outside"),
    (["verify", "--fast", "--n-max", "0", "--ell-max", "0", "--dims", "3",
      "--hbar", "1e200"], "hbar^2 / 2M leaves"),
    (["spectrum", "--B=-1e-300", "--mass", "1e-10"],
     "beta = -2 m B / hbar^2 = 2e-310 is outside"),
    (["spectrum", "--A", "1e300", "--B=-1", "--mass", "1e10"],
     "indicial discriminant leaves"),
    (["spectrum", "--B=-1e154", "--C=-1.7e308"], "the energy"),
], ids=["spectrum-hbar", "spectrum-mass-hbar", "verify-mass", "wavefunction-hbar",
        "ladder-check-hbar", "verify-hbar", "spectrum-beta-under",
        "spectrum-discriminant", "spectrum-energy"])
def test_extreme_units_are_a_domain_error(tmp_path, capsys, argv, names):
    assert run(tmp_path, *argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and names in err
    assert "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_an_energy_in_range_is_returned_for_extreme_units(tmp_path):
    # hbar^2 eps^2 = 1e600 on the way, but E = -m / (2 hbar^2 (n+1)^2)
    assert run(tmp_path, "spectrum", "--mass", "1e300", "--n-max", "1",
               "--ell-max", "0", "--dims", "3") == 0
    _, rows = read_csv(tmp_path / "spectrum.csv")
    assert [float(r["energy"]) for r in rows] == pytest.approx(
        [-5e299, -1.25e299], rel=1e-15)


def _assert_same_lines(text, lines):
    """text is lines joined and ended by newlines; a mismatch names its first
    line (pytest's diff of two long texts would take minutes)."""
    got = text.split("\n")
    assert got[-1] == "" and len(got) == len(lines) + 1
    bad = next((i for i, (a, b) in enumerate(zip(got, lines)) if a != b), None)
    assert bad is None, f"line {bad}: {got[bad]!r} != {lines[bad]!r}"


def _per_value(value) -> str:
    """One CSV field as the commands have always written it: "%.17g" for a
    float, str for anything else, empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


@pytest.mark.parametrize("residual", [False, True], ids=["plain", "residual"])
def test_wavefunction_csv_is_formatted_value_by_value(tmp_path, residual):
    # r_domain 3000: R runs through subnormals and underflows to 0 in the tail
    argv = ["wavefunction", "--n", "2", "--ell", "0", "--dim", "3",
            "--r-domain", "3000", "--points", "6001"]
    assert run(tmp_path, *argv, *(["--residual"] if residual else [])) == 0
    params = potentials.coulomb(-1.0)
    state = spectrum.bound_state(params, spectrum.QuantumNumbers(2, 0, 3))
    grid = wavefunction.RadialGrid(r_min=3000 / 6001, r_max=3000.0, count=6001)
    values = wavefunction.eval_radial(state, grid.nodes())
    assert values[-1] == 0.0 and np.any((values != 0.0) & (np.abs(values) < 1e-308))
    lines = [f"# zeta={_per_value(state.zeta)} k={_per_value(state.k)} "
             f"eps={_per_value(state.eps)} energy={_per_value(state.energy)}"]
    rows = [[_per_value(float(r)), _per_value(float(v))]
            for r, v in zip(grid.nodes(), values)]
    if residual:
        res = wavefunction.ode_residual_samples(values, grid, params, 0, 3,
                                                state.energy)
        pad = [""] * ((grid.count - res.grid.count) // 2)
        column = pad + [_per_value(v) for v in res.values] + pad
        rows = [row + [field] for row, field in zip(rows, column)]
    lines.append("r,R,residual" if residual else "r,R")
    lines += [",".join(row) for row in rows]
    _assert_same_lines((tmp_path / "wavefunction_n2_l0_N3.csv").read_text(), lines)


def test_spectrum_csv_leaves_the_fields_of_a_row_without_values_empty(tmp_path):
    assert run(tmp_path, "spectrum", "--A", "-0.3", "--B", "-1", "--n-max", "3",
               "--ell-max", "2", "--dims", "2,3") == 3
    lines = ["dim,ell,n,k,eps,energy,status"]
    params = potentials.PotentialParams(-0.3, -1.0, 0.0)
    for dim in (2, 3):
        for r in spectrum.spectrum_table(params, 3, 2, dim):
            lines.append(",".join(map(_per_value, (
                r.dim, r.ell, r.n, r.k, r.eps, r.energy, r.status))))
    assert any(",,,," in line for line in lines)
    _assert_same_lines((tmp_path / "spectrum.csv").read_text(), lines)


def test_spectrum_rows_are_the_csv_rows_and_build_no_quantum_numbers(
        tmp_path, monkeypatch):
    # the table writes each row's first seven fields, with no per-row
    # QuantumNumbers on the way
    def refuse(*args, **kwargs):
        raise AssertionError("a spectrum row built a QuantumNumbers")

    monkeypatch.setattr(spectrum, "QuantumNumbers", refuse)
    assert run(tmp_path, "spectrum", "--A", "-0.3", "--B", "-1", "--n-max", "3",
               "--ell-max", "2", "--dims", "2,3") == 3
    params = potentials.PotentialParams(-0.3, -1.0, 0.0)
    rows = [r for dim in (2, 3) for r in spectrum.spectrum_table(params, 3, 2, dim)]
    assert {r.status for r in rows} == {"fall-to-center", "ok"}
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == ",".join(spectrum.SpectrumRow._fields[:7])
    assert lines[1:] == [",".join(map(_per_value, r[:7])) for r in rows]


@pytest.mark.parametrize("argv,code,params,label,n_max,ell_max,dims", [
    (["--A", "-0.3", "--B", "-1", "--n-max", "3", "--ell-max", "2",
      "--dims", "2,3"], 3, potentials.PotentialParams(-0.3, -1.0, 0.0),
     "raw", 3, 2, (2, 3)),
    (["--preset", "kratzer-fues", "--d0", "5", "--r0", "1.1", "--n-max", "4",
      "--ell-max", "2", "--dims", "2,3,5"], 0, potentials.kratzer_fues(5.0, 1.1),
     "kratzer-fues", 4, 2, (2, 3, 5)),
    (["--config", "dims.json"], 0, None, "coulomb", 3, 2, ()),
], ids=["fall-to-center", "kratzer-fues", "empty-dims"])
def test_spectrum_json_is_the_bytes_of_json_dumps(tmp_path, argv, code, params,
                                                  label, n_max, ell_max, dims):
    (tmp_path / "dims.json").write_text(json.dumps({"quantum": {"dims": []}}))
    argv = [str(tmp_path / a) if a == "dims.json" else a for a in argv]
    assert run(tmp_path, "spectrum", *argv, "--format", "json") == code
    fields = ("dim", "ell", "n", "k", "eps", "energy", "status")
    rows = [dict(zip(fields, (r.dim, r.ell, r.n, r.k, r.eps, r.energy,
                              r.status)))
            for dim in dims
            for r in spectrum.spectrum_table(params, n_max, ell_max, dim)]
    assert any(row["k"] is None for row in rows) == (code == 3)
    want = json.dumps({"potential": label, "rows": rows}, indent=2,
                      sort_keys=True) + "\n"
    assert (tmp_path / "spectrum.json").read_text() == want
