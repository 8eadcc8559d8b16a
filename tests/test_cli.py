"""Command-line surface: dispatch, formats, exit codes, reproducibility."""
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from gstab.cli import cli_dispatch
from gstab.partitions import Halfspace, equal_slabs, partition_to_json
from gstab.product_space import binary_symmetric


@pytest.fixture
def halfspace_file(tmp_path):
    path = tmp_path / "halfspace.json"
    path.write_text(partition_to_json(Halfspace([0.0], [1.0])))
    return str(path)


@pytest.fixture
def slabs_file(tmp_path):
    path = tmp_path / "slabs.json"
    path.write_text(partition_to_json(equal_slabs(3)))
    return str(path)


@pytest.fixture
def dist_file(tmp_path):
    path = tmp_path / "bss.json"
    path.write_text(binary_symmetric(0.6).to_json())
    return str(path)


def run_cli(args, capsys):
    code = cli_dispatch(args)
    out = capsys.readouterr().out
    return code, out


class TestStabilityCommand:
    def test_sheppard_value(self, halfspace_file, capsys):
        code, out = run_cli(
            ["stability", "--partition", halfspace_file, "--rho", "0.5",
             "--samples", "200000", "--seed", "7", "--cell", "1"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        res = doc["result"]
        assert res["cell_stability"] == pytest.approx(1 / 3, abs=5 * res["cell_std_error"])
        assert res["agreement"] == pytest.approx(2 / 3, abs=5 * res["std_error"])
        assert doc["manifest"]["seed"] == 7
        assert doc["manifest"]["command"].startswith("stability --partition")

    def test_byte_identical_reruns(self, halfspace_file, capsys):
        args = ["stability", "--partition", halfspace_file, "--rho", "0.5",
                "--samples", "20000", "--seed", "3"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_independent_noise_emits_strict_json(self, halfspace_file, capsys):
        def reject(name):
            raise ValueError(f"non-finite JSON constant {name}")

        code, out = run_cli(
            ["stability", "--partition", halfspace_file, "--rho", "0",
             "--samples", "2000"],
            capsys,
        )
        assert code == 0
        res = json.loads(out, parse_constant=reject)["result"]
        assert res["t"] is None
        assert res["agreement"] == pytest.approx(0.5, abs=5 * res["std_error"])

    def test_negative_rho(self, halfspace_file, capsys):
        code, out = run_cli(
            ["stability", "--partition", halfspace_file, "--rho", "-0.5",
             "--samples", "200000", "--seed", "4"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["t"] is None
        assert res["agreement"] == pytest.approx(1 - math.acos(-0.5) / math.pi, abs=5 * res["std_error"])

    def test_csv_format(self, halfspace_file, capsys):
        code, out = run_cli(
            ["stability", "--partition", halfspace_file, "--rho", "0.5",
             "--samples", "5000", "--format", "csv"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        keys = {line.split(",")[0] for line in lines[1:]}
        assert "result.agreement" in keys

    def test_csv_and_json_carry_the_same_keys(self, halfspace_file, capsys):
        # rho = 0 puts a null (result.t) and the run has an empty list
        # (manifest.outputs); both stay as keys with an empty field
        args = ["stability", "--partition", halfspace_file, "--rho", "0",
                "--samples", "2000"]
        code, out = run_cli(args, capsys)
        assert code == 0

        def leaves(doc, prefix=""):
            if isinstance(doc, dict) and doc:
                return {k for key, v in doc.items() for k in leaves(v, f"{prefix}{key}.")}
            if isinstance(doc, list) and doc:
                return {k for i, v in enumerate(doc) for k in leaves(v, f"{prefix}{i}.")}
            return {prefix[:-1]}

        json_keys = leaves(json.loads(out))
        code, out = run_cli(args + ["--format", "csv"], capsys)
        assert code == 0
        rows = dict(line.split(",", 1) for line in out.strip().splitlines()[1:])
        assert set(rows) == json_keys
        assert rows["result.t"] == ""
        assert rows["manifest.outputs"] == ""
        assert rows["manifest.config_path"] == ""

    def test_output_file(self, halfspace_file, tmp_path, capsys):
        out_path = tmp_path / "res.json"
        code, _ = run_cli(
            ["stability", "--partition", halfspace_file, "--rho", "0.5",
             "--samples", "5000", "--out", str(out_path)],
            capsys,
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["manifest"]["outputs"] == [str(out_path)]


class TestOtherCommands:
    def test_basis(self, dist_file, capsys):
        code, out = run_cli(["basis", "--dist", dist_file], capsys)
        assert code == 0
        rho = json.loads(out)["result"]["rho"]
        assert rho[0] == pytest.approx(1.0)
        assert rho[1] == pytest.approx(0.6, abs=1e-10)

    def test_cube_majority(self, capsys):
        code, out = run_cli(
            ["cube", "--rule", "majority", "--n", "3", "--rho", "0.5"], capsys
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["stability"] == pytest.approx(0.703125)

    def test_round_pipeline(self, slabs_file, capsys):
        code, out = run_cli(
            ["round", "--partition", slabs_file, "--t", "0.7",
             "--samples", "50000", "--degree", "2"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["stab_after"] >= res["stab_before"] - res["measure_slack"] - 6 * (
            res["se_before"] + res["se_after"]
        )
        assert "disagreement" in res and "bound" in res

    def test_round_sign_table_past_twelve_bits(self, tmp_path, capsys):
        # majority on 13 bits takes the exact sign-table smoothing
        from gstab.cube import make_voting_rule
        from gstab.partitions import Tabulated

        path = tmp_path / "majority13.json"
        path.write_text(partition_to_json(Tabulated(make_voting_rule("majority", 13, 2))))
        code, out = run_cli(
            ["round", "--partition", str(path), "--t", "0.5", "--samples", "2000"], capsys
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["converged"] and res["measure_slack"] <= 0.01

    def test_borell_check_halfspace_value_is_exact(self, capsys):
        code, out = run_cli(
            ["borell-check", "--rho", "0.99", "--trials", "1", "--samples", "1000"], capsys
        )
        assert code == 0
        row = json.loads(out)["result"]["rows"][0]
        assert row["halfspace"] == pytest.approx(1 - math.acos(0.99) / math.pi, rel=1e-15)

    def test_hermite_command(self, halfspace_file, capsys):
        code, out = run_cli(
            ["hermite", "--partition", halfspace_file, "--max-degree", "3"], capsys
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["by_degree"][0] == pytest.approx(0.5, abs=1e-6)
        assert res["tail"] >= 0

    def test_simulate(self, dist_file, slabs_file, tmp_path, capsys):
        part = tmp_path / "half.json"
        part.write_text(partition_to_json(Halfspace([0.0], [1.0])))
        code, out = run_cli(
            ["simulate", "--dist", dist_file, "--partition", str(part),
             "--ell", "16", "--samples", "20000"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["agreement"] > 0.5

    def test_ncd(self, tmp_path, capsys):
        dist = tmp_path / "bss05.json"
        dist.write_text(binary_symmetric(0.5).to_json())
        code, out = run_cli(
            ["ncd", "--dist", str(dist), "--mu", "[0.5,0.5]", "--nu", "[0.5,0.5]",
             "--kappa", "0.75", "--delta", "0.02", "--oracle-n", "1"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["verdict"] == "feasible"
        assert res["oracle"] == pytest.approx(0.75)

    def test_search_command(self, tmp_path, capsys):
        from gstab.search import SearchConfig

        cfg = SearchConfig(
            k=2, n0=1, d=1, t=0.7, target_mu=[0.5, 0.5], measure_tol=0.02,
            budget=30, mode="grid-cover", seed=5, samples=20_000,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        code, out = run_cli(["search", "--config", str(cfg_path)], capsys)
        assert code == 0
        res = json.loads(out)["result"]
        assert res["feasible"]

    def test_search_manifest_records_the_config_seed(self, tmp_path, capsys):
        from gstab.search import SearchConfig

        cfg = SearchConfig(
            k=2, n0=1, d=1, t=0.7, target_mu=[0.5, 0.5], measure_tol=0.02,
            budget=10, mode="grid-cover", seed=42, samples=5_000,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        code, out = run_cli(["search", "--config", str(cfg_path)], capsys)
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] == 42

    @pytest.mark.parametrize(
        "argv",
        [
            ["cube", "--rule", "dictator", "--n", "3", "--rho", "0.5"],
            ["basis", "--dist", "{dist}"],
            ["hermite", "--partition", "{half}", "--max-degree", "2"],
        ],
    )
    def test_exact_subcommands_record_no_seed(self, argv, halfspace_file, dist_file, capsys):
        code, out = run_cli([a.format(half=halfspace_file, dist=dist_file) for a in argv], capsys)
        assert code == 0
        assert json.loads(out)["manifest"]["seed"] is None

    def test_search_output_loads_as_partition(self, tmp_path, capsys):
        from gstab.search import SearchConfig

        cfg = SearchConfig(
            k=2, n0=1, d=1, t=0.7, target_mu=[0.5, 0.5], measure_tol=0.02,
            budget=30, mode="grid-cover", seed=5, samples=20_000,
        )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.to_json())
        out_path = tmp_path / "search.json"
        assert run_cli(["search", "--config", str(cfg_path), "--out", str(out_path)], capsys)[0] == 0
        found = json.loads(out_path.read_text())["result"]
        assert found["best"]["kind"] == "ptf"
        code, out = run_cli(
            ["stability", "--partition", str(out_path), "--t", "0.7",
             "--samples", "20000", "--seed", "9"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["result"]
        se = math.hypot(res["std_error"], found["stability_se"])
        assert res["agreement"] == pytest.approx(found["stability"], abs=5 * se)


class TestExitCodes:
    def test_missing_file_is_usage_error(self, capsys):
        assert cli_dispatch(["stability", "--partition", "/no/such.json", "--rho", "0.5"]) == 2

    def test_unknown_command(self, capsys):
        assert cli_dispatch(["frobnicate"]) == 2

    def test_cube_missing_noise_flags(self, capsys):
        assert cli_dispatch(["cube", "--rule", "majority", "--n", "3"]) == 2

    def test_conflicting_noise_flags(self, halfspace_file, capsys):
        code = cli_dispatch(
            ["stability", "--partition", halfspace_file, "--rho", "0.5", "--t", "1.0"]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["stability", "--partition", "{half}", "--rho", "nan"],
            ["stability", "--partition", "{half}", "--t", "nan"],
            ["stability", "--partition", "{half}", "--rho", "1.5"],
            ["stability", "--partition", "{half}", "--t", "-1"],
            ["cube", "--rule", "majority", "--n", "3", "--rho", "nan"],
            ["cube", "--rule", "majority", "--n", "3", "--t", "nan"],
            ["borell-check", "--rho", "nan"],
            ["borell-check", "--t", "nan"],
            ["round", "--partition", "{half}", "--t", "nan"],
        ],
    )
    def test_invalid_noise_is_usage_error(self, halfspace_file, argv, capsys):
        code = cli_dispatch([a.format(half=halfspace_file) for a in argv])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_borell_check_needs_nonnegative_rho(self, capsys):
        assert cli_dispatch(["borell-check", "--rho", "-0.5"]) == 2
        assert "Borell's inequality reverses" in capsys.readouterr().err

    def test_cube_accepts_negative_rho(self, capsys):
        code, out = run_cli(["cube", "--rule", "dictator", "--n", "3", "--rho", "-0.5"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["stability"] == pytest.approx(0.25, abs=1e-12)

    def test_numeric_failure_exit(self, tmp_path, capsys):
        # at t = 50 the smoothed values of a skewed partition are one
        # constant in double precision, so no threshold splits the points
        from scipy.special import ndtri
        from gstab.partitions import Slabs

        path = tmp_path / "skew.json"
        path.write_text(partition_to_json(Slabs(0, [ndtri(0.3)], [1, 2], n=1)))
        code = cli_dispatch(
            ["round", "--partition", str(path), "--t", "50",
             "--samples", "20000", "--tol", "1e-4"]
        )
        assert code == 3

    def test_arithmetic_error_is_numeric_failure(self, tmp_path, capsys, monkeypatch):
        from gstab import cli
        from gstab.chaos import PolyGauss
        from gstab.partitions import MultiPTF

        def fail(p, q):
            raise ArithmeticError("product variance exceeded the upper bound")

        monkeypatch.setattr(cli, "variance_bounds", fail)
        polys = [PolyGauss.from_hermite_coeffs(1, {(1,): s}) for s in (1.0, -1.0)]
        path = tmp_path / "ptf.json"
        path.write_text(partition_to_json(MultiPTF(polys)))
        code = cli_dispatch(["tensor", "--partition", str(path), "--op", "variance-bounds"])
        assert code == 3
        assert "numeric failure" in capsys.readouterr().err

    def test_ncd_enumeration_guard_is_usage_error(self, tmp_path, capsys):
        from gstab.product_space import JointDist

        dist = tmp_path / "diag3.json"
        dist.write_text(JointDist(np.diag([1 / 3] * 3)).to_json())
        third = json.dumps([1 / 3] * 3)
        code = cli_dispatch(
            ["ncd", "--dist", str(dist), "--mu", third, "--nu", third,
             "--kappa", "2.0", "--delta", "0.01"]
        )
        assert code == 2
        assert "enumeration guard" in capsys.readouterr().err

    @pytest.mark.parametrize("z", [[0.0, 0.1], [0.0, 0.1, -0.1, 0.2], [0.0, math.nan, 0.0]])
    def test_rounded_ptf_thresholds_must_match_k(self, tmp_path, z, capsys):
        from gstab.chaos import PolyGauss
        from gstab.partitions import MultiPTF
        from gstab.search import _RoundedPartition

        polys = [
            PolyGauss.from_hermite_coeffs(2, {(1, 0): c, (0, 1): 1.0 - c}) for c in (0.2, 0.5, 0.9)
        ]
        doc = json.loads(partition_to_json(_RoundedPartition(MultiPTF(polys), 0.5, np.zeros(3), 8)))
        path = tmp_path / "rounded.json"
        path.write_text(json.dumps(doc))
        assert cli_dispatch(
            ["stability", "--partition", str(path), "--t", "0.5", "--samples", "2000"]
        ) == 0
        doc["payload"]["z"] = z
        path.write_text(json.dumps(doc))
        code = cli_dispatch(
            ["stability", "--partition", str(path), "--t", "0.5", "--samples", "2000"]
        )
        assert code == 2
        assert "thresholds z must be 3 finite numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,flag",
        [(c, "--config") for c in ("stability", "borell-check", "round", "hermite", "tensor",
                                   "basis", "simulate", "cube", "ncd")]
        + [(c, f) for c in ("hermite", "tensor", "basis", "cube", "search")
           for f in ("--seed", "--samples")],
    )
    def test_flag_the_subcommand_does_not_read_is_usage_error(
        self, command, flag, halfspace_file, dist_file, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        valid = {
            "stability": ["--partition", halfspace_file, "--rho", "0.5"],
            "borell-check": ["--rho", "0.5"],
            "round": ["--partition", halfspace_file, "--t", "0.5"],
            "hermite": ["--partition", halfspace_file],
            "tensor": ["--partition", halfspace_file],
            "basis": ["--dist", dist_file],
            "simulate": ["--dist", dist_file, "--partition", halfspace_file],
            "cube": ["--rule", "majority", "--n", "3", "--rho", "0.5"],
            "search": ["--config", str(cfg)],
            "ncd": ["--dist", dist_file, "--mu", "[0.5,0.5]", "--nu", "[0.5,0.5]",
                    "--kappa", "0.75", "--delta", "0.02"],
        }
        value = str(cfg) if flag == "--config" else "5"
        assert cli_dispatch([command, *valid[command], flag, value]) == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_are_usage_errors(self, halfspace_file, samples, capsys):
        code = cli_dispatch(
            ["stability", "--partition", halfspace_file, "--rho", "0.5",
             "--samples", samples]
        )
        assert code == 2
        assert "samples must be >= 1" in capsys.readouterr().err

    def test_module_entry_point(self, halfspace_file):
        proc = subprocess.run(
            [sys.executable, "-m", "gstab.cli", "stability", "--partition",
             halfspace_file, "--rho", "0.5", "--samples", "2000"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["samples"] == 2000
