import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liespec import cli, weighted
from liespec.catalog import catalog_names, resolve
from liespec.cli import (
    CLIError,
    algebra_spec_from_dict,
    algebra_spec_to_dict,
    dispatch,
    emit,
    main,
    parse_algebra_spec,
)

ALL_CATALOG = ["abelian1", "abelian2", "abelian3", "heisenberg1",
               "heisenberg2", "heisenberg3", "engel4", "su2", "so3",
               "sl2r", "se2"]


def run(argv, tmp_path=None, fmt=None, capsys=None):
    report, args = dispatch(argv)
    return report


class TestParseAlgebraSpec:
    def test_catalog_name(self):
        spec = parse_algebra_spec("su2")
        assert spec.algebra.dim == 3
        assert spec.bases["canonical"][0] == (0, 1)

    def test_unknown_name(self):
        with pytest.raises(CLIError):
            parse_algebra_spec("sp4")

    def test_file_round_trip_all_catalog(self, tmp_path):
        for name in ALL_CATALOG:
            spec = parse_algebra_spec(name)
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(algebra_spec_to_dict(spec)))
            back = parse_algebra_spec(str(path))
            assert back.algebra == spec.algebra, name
            assert back.bases == spec.bases, name
            assert algebra_spec_to_dict(back) == algebra_spec_to_dict(spec)

    def test_jacobi_violation_rejected(self, tmp_path):
        doc = {
            "name": "bad", "dim": 3,
            "brackets": [
                {"i": 1, "j": 2, "c": ["1", "0", "0"]},
                {"i": 1, "j": 3, "c": ["0", "1", "0"]},
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(CLIError, match=r"\(1, 2, 3\)"):
            parse_algebra_spec(str(path))

    def test_exact_rational_coefficient(self, tmp_path):
        doc = {
            "name": "scaled", "dim": 3,
            "brackets": [{"i": 1, "j": 2, "c": ["0", "0", "1/3"]}],
        }
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        spec = parse_algebra_spec(str(path))
        emitted = algebra_spec_to_dict(spec)
        assert emitted["brackets"][0]["c"] == ["0", "0", "1/3"]
        back = algebra_spec_from_dict(emitted)
        assert back.algebra == spec.algebra

    def test_float_coefficient_rejected(self):
        doc = {"name": "f", "dim": 2,
               "brackets": [{"i": 1, "j": 2, "c": [0.5, 0]}]}
        with pytest.raises(CLIError, match="exact rational"):
            algebra_spec_from_dict(doc)

    def test_json_error_has_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 3,,}')
        with pytest.raises(CLIError, match="line 1"):
            parse_algebra_spec(str(path))

    def test_bad_bracket_indices(self):
        doc = {"dim": 2, "brackets": [{"i": 2, "j": 1, "c": ["0", "0"]}]}
        with pytest.raises(CLIError, match="i < j"):
            algebra_spec_from_dict(doc)


class TestDispatch:
    def test_contract_su2(self):
        report = run(["contract", "su2", "--weights", "1,1"])
        assert report.exit_code == 0
        assert report.notes["Q_star"] == "4"
        assert report.notes["isomorphic_to_heisenberg1"] is True
        table = {t.name: t for t in report.tables}["structure"]
        assert table.rows == [[1, 2, 3, "1"]]

    def test_verify_growth_su2(self):
        report = run(["verify-growth", "su2", "--from", "1e3", "--to", "1e5"])
        assert report.exit_code == 0
        assert abs(report.notes["fitted_exponent"] - 2.0) < 0.05

    def test_verify_growth_torus3(self):
        report = run(["verify-growth", "torus3", "--from", "1e2",
                      "--to", "1e5", "--points-per-decade", "10"])
        assert report.exit_code == 0
        assert abs(report.notes["fitted_exponent"] - 1.5) < 0.05

    def test_failing_screen_gives_exit_one(self):
        report = run(["form", "--kind", "custom", "--weights", "1,1,2",
                      "--coeff", "1,1=-1", "--rockland-check", "8"])
        assert report.exit_code == 1
        assert report.verdicts["rockland_screen"] is False

    def test_exit_code_corpus(self, tmp_path, capsys):
        broken_file = tmp_path / "bad.json"
        broken_file.write_text("{broken")
        cases = [
            (["dimension", "se2"], 0),
            (["filtration", "sl2r"], 0),
            (["reduce", "heisenberg1", "--weights", "1,1,3",
              "--indices", "1,2,3"], 0),
            (["annuli", "--times", "1e-2,1e-3"], 0),
            (["multiplier-bound", "heisenberg", "--p", "4/3", "--q", "4"], 0),
            (["form", "--kind", "sublaplacian", "--dim", "2",
              "--rockland-check", "8"], 0),
            (["form", "--kind", "custom", "--weights", "1,1,2",
              "--coeff", "1,1=-1", "--rockland-check", "8"], 1),
        ]
        for argv, expected in cases:
            report = run(argv)
            assert report.exit_code == expected, argv
        assert main(["contract", "nosuchalgebra"]) == 2
        assert main(["contract", str(broken_file)]) == 2
        assert main(["heat-trace", "su2", "--cross-check"]) == 2
        assert main(["verify-growth", "heisenberg", "--from", "10",
                     "--to", "20"]) == 2
        capsys.readouterr()
        not_contractible = "error: cannot contract: not an algebraic basis\n"
        not_algebraic = ("error: the selected elements do not form an "
                         "algebraic basis\n")
        for argv, stderr in [
            (["contract", "sl2r", "--weights", "1,1", "--indices", "1,3"],
             not_contractible),
            (["dimension", "heisenberg2", "--weights", "1,1,1",
              "--indices", "1,2,3"], not_contractible),
            (["filtration", "sl2r", "--weights", "1,1", "--indices", "1,3"],
             not_algebraic),
            (["reduce", "sl2r", "--weights", "1,1", "--indices", "1,3"],
             not_algebraic),
        ]:
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", stderr), argv

    def test_nan_and_infinite_inputs_named(self, capsys):
        capsys.readouterr()
        for argv, stderr in [
            (["heat-trace", "su2", "--times", "nan,1"],
             "error: t must be a number, got nan\n"),
            (["verify-growth", "su2", "--from", "nan"],
             "error: s_min must be finite, got nan\n"),
            (["verify-growth", "su2", "--to", "nan"],
             "error: s_max must be finite, got nan\n"),
            (["verify-growth", "su2", "--to", "inf"],
             "error: s_max must be finite, got inf\n"),
            (["embedding-witness", "--gamma", "nan"],
             "error: gamma must be finite and >= 0, got nan\n"),
            (["embedding-witness", "--gamma", "inf"],
             "error: gamma must be finite and >= 0, got inf\n"),
        ]:
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", stderr), argv

    def test_named_flag_errors(self, capsys):
        capsys.readouterr()
        int_x = "invalid literal for int() with base 10: 'x'"
        for argv, stderr in [
            (["contract", "su2", "--weights", "1,1", "--indices", "1,x"],
             f"error: --indices: {int_x}\n"),
            (["heat-trace", "su2", "--times", "1e-3,abc"],
             "error: --times: could not convert string to float: 'abc'\n"),
            (["annuli", "--times", "1e-2,x"],
             "error: --times: could not convert string to float: 'x'\n"),
            (["embedding-witness", "--gamma", "0.25", "--cutoffs", "8,x"],
             f"error: --cutoffs: {int_x}\n"),
            (["form", "--kind", "custom", "--weights", "1,1",
              "--coeff", "1,x=1"],
             f"error: --coeff '1,x=1': {int_x}\n"),
            (["form", "--kind", "sublaplacian", "--dim", "2",
              "--rockland-check", "8", "--lambda-grid", "1,x"],
             "error: --lambda-grid: could not convert string to float: 'x'\n"),
            (["reduce", "heisenberg1", "--weights", "1,x"],
             "error: --weights: cannot parse rational 'x': "
             "Invalid literal for Fraction: 'x'\n"),
            (["contract", "su2", "--indices", "1,x"],
             "error: --indices needs --weights\n"),
            (["reduce", "engel4", "--indices", "1,2,3,4"],
             "error: --indices needs --weights\n"),
            (["embedding-witness", "--gamma", "0.25", "--cutoffs", "8",
              "--check-plateau", "0.2"],
             "error: --check-plateau needs at least two --cutoffs\n"),
            (["embedding-witness", "--gamma", "0", "--cutoffs", "8",
              "--check-growth", "1.5"],
             "error: --check-growth needs at least two --cutoffs\n"),
        ]:
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", stderr), argv

    def test_nonpositive_inputs_named(self, capsys):
        capsys.readouterr()
        for argv, stderr in [
            (["multiplier-bound", "--qstar", "4", "--m", "0"],
             "error: m must be finite and positive, got 0\n"),
            (["multiplier-bound", "--qstar", "4", "--m", "-2"],
             "error: m must be finite and positive, got -2\n"),
            (["multiplier-bound", "--qstar", "0", "--m", "2"],
             "error: Q_star must be finite and positive, got 0\n"),
            (["verify-growth", "su2", "--from", "0"],
             "error: s_min must be positive, got 0.0\n"),
            (["envelope", "--points", "4", "--t-min", "0"],
             "error: --t-min must be positive, got 0.0\n"),
            (["envelope", "--points", "4", "--t-max", "0"],
             "error: --t-max must be positive, got 0.0\n"),
            (["envelope", "--points", "4", "--cap-factor", "0"],
             "error: cap_factor must be positive, got 0.0\n"),
            (["embedding-witness", "--gamma", "-0.5"],
             "error: gamma must be finite and >= 0, got -0.5\n"),
            (["embedding-witness", "--gamma", "0.25", "--trials", "-3"],
             "error: trials must be >= 0, got -3\n"),
        ]:
            assert main(argv) == 2, argv
            assert capsys.readouterr() == ("", stderr), argv

    def test_reduce_builds_three_filtrations(self, monkeypatch):
        # input, reduce_basis's closing check, output: the report's verdicts
        # reuse the input's and the output's filtrations
        runs = []
        original = weighted._grow_filtration

        def counting(*args):
            runs.append(args)
            return original(*args)
        monkeypatch.setattr(weighted, "_grow_filtration", counting)
        for name, weights, indices in [
                ("heisenberg3", "1,1,1,1,1,1,3", "1,2,3,4,5,6,7"),
                ("heisenberg1", "1,1,3", "1,2,3"),
                ("engel4", "1,1,3,3", "1,2,3,4")]:
            runs.clear()
            report = run(["reduce", name, "--weights", weights,
                          "--indices", indices])
            assert report.verdicts == {"reduced": True,
                                       "filtration_preserved": True}, name
            assert len(runs) == 3, name

    def test_synthetic_adapted_labels_number_from_one(self, tmp_path):
        # the third adapted vector, e3 + e4, is no basis vector: label v3
        doc = {"name": "lab", "dim": 4, "brackets": [
            {"i": 1, "j": 2, "c": ["0", "0", "1", "1"]},
            {"i": 1, "j": 3, "c": ["0", "0", "0", "1"]}]}
        path = tmp_path / "lab.json"
        path.write_text(json.dumps(doc))
        report = run(["contract", str(path), "--weights", "1,1",
                      "--indices", "1,2"])
        assert report.notes["adapted_labels"] == ["e1", "e2", "v3", "e3"]

    def test_contraction_validated_once(self, monkeypatch):
        # contract runs check_grading; the report reuses its verdict
        calls = []
        original = weighted.check_grading

        def counting(graded):
            calls.append(graded)
            return original(graded)
        monkeypatch.setattr(weighted, "check_grading", counting)
        # a name bound in cli would bypass the patch above, so patch it too
        monkeypatch.setattr(cli, "check_grading", counting, raising=False)
        for command in ("contract", "dimension"):
            calls.clear()
            report = run([command, "heisenberg3"])
            assert report.verdicts == {"grading": True}, command
            assert len(calls) == 1, command

    def test_dimension_heisenberg2(self):
        report = run(["dimension", "heisenberg2"])
        assert report.notes["Q_star"] == "6"


class TestEmission:
    def test_json_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            report = run(["verify-growth", "heisenberg",
                          "--from", "1e2", "--to", "1e4"])
            emit(report, "json", str(path))
        assert a.read_bytes() == b.read_bytes()

    def test_csv_growth_columns(self, tmp_path):
        report = run(["verify-growth", "heisenberg", "--from", "1e2",
                      "--to", "1e4"])
        path = tmp_path / "g.csv"
        emit(report, "csv", str(path))
        header = path.read_text().splitlines()[0]
        assert header == "s,value,fitted,target,residual,verdict"

    def test_json_schema_fields(self, tmp_path):
        report = run(["dimension", "su2"])
        path = tmp_path / "d.json"
        emit(report, "json", str(path))
        payload = json.loads(path.read_text())
        for key in ("schema", "version", "command", "seed", "tables",
                    "verdicts"):
            assert key in payload
        assert payload["schema"] == "liespec-report/1"

    def test_json_report_round_trip(self, tmp_path):
        report = run(["annuli", "--times", "1e-2"])
        path = tmp_path / "r.json"
        emit(report, "json", str(path))
        payload = json.loads(path.read_text())
        assert payload["tables"]["annuli"]["columns"] == \
            ["t", "integral", "ratio", "certified_tail", "verdict"]

    def test_algebra_document_round_trip(self, tmp_path):
        p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
        report = run(["algebra", "engel4"])
        emit(report, "json", str(p1))
        report2 = run(["algebra", str(p1)])
        emit(report2, "json", str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_seed_echoed_and_env_default(self, monkeypatch):
        monkeypatch.setenv("LIESPEC_SEED", "42")
        report = run(["dimension", "su2"])
        assert report.seed == 42
        report = run(["dimension", "su2", "--seed", "7"])
        assert report.seed == 7


class TestCatalogNames:
    def test_listing_mentions_all_families(self):
        names = " ".join(catalog_names())
        for frag in ("abelian", "heisenberg", "engel4", "su2", "so3",
                     "sl2r", "se2"):
            assert frag in names

    def test_resolve_rejects_unknown(self):
        with pytest.raises(KeyError):
            resolve("f4")


HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _numerics_loaded(code: str) -> list:
    """Run ``code`` in a fresh interpreter; the numerics it leaves loaded."""
    code += ("\nimport sys\n"
             "print(*[m for m in ('numpy', 'scipy', 'scipy.integrate')\n"
             "        if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          cwd=HERE, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _numerics_after_main(argv: list[str]) -> list:
    return _numerics_loaded(
        "import contextlib, io\n"
        "from liespec.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n")


class TestImportBoundary:
    @pytest.mark.parametrize("argv", [
        ["contract", "su2"],
        ["filtration", "engel4"],
        ["reduce", "engel4", "--weights", "1,1,3,3", "--indices", "1,2,3,4"],
        ["dimension", "heisenberg4"],
        ["algebra", "se2"],
        ["form", "--kind", "rockland", "--weights", "1,2", "--coeffs", "1,1",
         "--order", "4"],
        ["annuli", "--qstar", "4", "--m", "2", "--b", "1", "--beta", "1",
         "--times", "1e-2,1e-3,1e-4"],
    ], ids=" ".join)
    def test_command_loads_no_numerics(self, argv):
        assert _numerics_after_main(argv) == []

    @pytest.mark.parametrize("argv", [
        ["verify-growth", "torus2"],
        ["embedding-witness", "--gamma", "0.25", "--cutoffs", "8,16"],
    ], ids=" ".join)
    def test_lab_command_off_heisenberg_loads_no_scipy(self, argv):
        assert "scipy" not in _numerics_after_main(argv)

    def test_heisenberg_backend_brings_its_quadrature(self):
        loaded = _numerics_loaded(
            "from liespec.spectral import make_backend\n"
            "make_backend('heisenberg')\n")
        assert "scipy.integrate" in loaded


class TestPackageSurface:
    # every public name of the package before its numerics loaded lazily
    NAMES = [
        "AnnuliReport", "CatalogEntry", "DyadicSeriesBound",
        "EmbeddingWitnessReport", "EnvelopeFit", "ExactnessError",
        "Filtration", "Form", "GaussianParams", "GradedLieAlgebra",
        "GrowthReport", "JacobiReport", "LieAlgebra", "MultiplierSpec",
        "NilpotencyReport", "PowerFit", "QuadratureError",
        "RocklandScreenReport", "SpectralBackend", "Subspace", "VolumeModel",
        "WeightedBasis", "abelian", "adjoint", "annuli_integral_check",
        "as_fraction", "as_vector", "build_filtration", "catalog",
        "catalog_names", "check_grading", "contract", "counting_function",
        "dyadic_series_bound", "engel4", "estimates", "filtration_law_holds",
        "fit_gaussian_envelope", "fit_power_exponent", "forms",
        "gaussian_envelope", "h1_counting_constant", "h1_heat_kernel",
        "heat_lp_lq_bound", "heat_trace_l2", "heisenberg",
        "heisenberg_rockland_check", "homogeneous_dimension",
        "is_algebraic_basis", "is_homogeneous", "is_reduced", "is_symmetric",
        "isomorphic_to_heisenberg1", "lie_core", "make_backend",
        "multiplier_norm_bound", "order_compatibility", "principal_part",
        "rational_lcm", "reduce_basis", "resolve_catalog",
        "rockland_power_form", "se2", "sl2r", "so3", "span", "spectral", "su2",
        "su2_sublaplacian_spectrum", "sublaplacian_form",
        "torus_embedding_witness", "verify_growth", "weighted",
        "weighted_length",
    ]

    def test_every_name_resolves_and_is_listed(self):
        import liespec
        for name in self.NAMES:
            assert getattr(liespec, name) is not None, name
        assert sorted(liespec.__all__) == self.NAMES
        assert set(self.NAMES) <= set(dir(liespec))

    def test_star_import_binds_the_spectral_names(self):
        import liespec.spectral
        namespace = {}
        exec("from liespec import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == self.NAMES
        assert namespace["make_backend"] is liespec.spectral.make_backend

    def test_spectral_names_follow_a_patch(self, monkeypatch):
        import liespec
        import liespec.spectral
        assert liespec.make_backend is liespec.spectral.make_backend

        def fake(name):
            return name
        monkeypatch.setattr(liespec.spectral, "make_backend", fake)
        assert liespec.make_backend is fake
        monkeypatch.undo()
        assert liespec.make_backend is liespec.spectral.make_backend


RECORDED = json.loads((HERE / "cli_reports.json").read_text(encoding="utf-8"))


class TestRecordedReports:
    """Reports replay byte for byte: the cli-batch benchmark commands and
    every README example (``tests/record_cli_reports.py`` records them)."""

    def test_reports_replay_byte_for_byte(self, tmp_path, monkeypatch):
        from record_cli_reports import run
        monkeypatch.chdir(tmp_path)        # --output files land here, in order
        monkeypatch.delenv("LIESPEC_SEED", raising=False)
        changed = [r["argv"] for r in RECORDED if run(r["argv"]) != r]
        assert changed == []

    def test_every_readme_example_is_recorded(self):
        from record_cli_reports import commands
        assert commands() == [r["argv"] for r in RECORDED]
