"""Command-line surface: dispatch, formats, exit codes, reproducibility."""
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gstab import cli
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

    # at --max-degree 40 the default --quad-order 40 would be refused: the
    # exact routes never read it; the n = 4 slabs and the 5-bit sign table
    # lie beyond the quadrature cap
    @pytest.mark.parametrize(
        "kind, degree", [("slabs-1d", "40"), ("slabs-n4", "3"), ("majority-5", "3")]
    )
    def test_hermite_takes_the_exact_route(self, kind, degree, tmp_path, capsys):
        from gstab.cube import make_voting_rule
        from gstab.partitions import Slabs, Tabulated, exact_expansion

        f = {
            "slabs-1d": lambda: Slabs(0, [-0.3, 0.4], [1, 2, 3], n=1),
            "slabs-n4": lambda: Slabs(3, [-0.3, 0.4], [1, 2, 3], n=4),
            "majority-5": lambda: Tabulated(make_voting_rule("majority", 5, 2)),
        }[kind]()
        path = tmp_path / "f.json"
        path.write_text(partition_to_json(f))
        code, out = run_cli(["hermite", "--partition", str(path), "--max-degree", degree], capsys)
        assert code == 0
        got = {tuple(e["index"]): e["coeff"] for e in json.loads(out)["result"]["coefficients"]}
        want = exact_expansion(f, int(degree)).coeffs
        assert got.keys() == want.keys()
        for S, c in want.items():
            np.testing.assert_allclose(got[S], c, rtol=0, atol=1e-15)

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

    # at n-max 3 the exhaustive search meets kappa 0.75 at n = 1 and
    # returns before the block-embedding route would sample
    @pytest.mark.parametrize("n_max, kappa", [("1", "0.99"), ("2", "0.99"), ("3", "0.75")], ids=["1", "2", "3"])
    def test_ncd_records_no_seed_where_no_route_reads_it(self, n_max, kappa, dist_file, capsys):
        def run(seed):
            code, out = run_cli(
                ["ncd", "--dist", dist_file, "--mu", "[0.5,0.5]", "--nu", "[0.5,0.5]",
                 "--kappa", kappa, "--delta", "0.02", "--n-max", n_max, "--seed", seed],
                capsys,
            )
            assert code == 0
            return json.loads(out)

        first, second = run("5"), run("6")
        assert first["manifest"]["seed"] is None and second["manifest"]["seed"] is None
        assert first["result"] == second["result"]

    def test_ncd_block_embedding_records_its_seed(self, dist_file, capsys):
        code, out = run_cli(
            ["ncd", "--dist", dist_file, "--mu", "[0.5,0.5]", "--nu", "[0.5,0.5]",
             "--kappa", "0.99", "--delta", "0.02", "--n-max", "3",
             "--samples", "2000", "--seed", "5"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"]["seed"] == 5
        assert doc["result"]["verdict"] == "not-found"  # the block route ran

    def test_ncd_sampled_not_found_reports_its_error(self, dist_file, capsys):
        # the block embedding's sampled agreement is the best found but
        # below kappa - delta: its binomial error goes with it
        from gstab.gauss import binomial_se

        code, out = run_cli(
            ["ncd", "--dist", dist_file, "--mu", "[0.3,0.7]", "--nu", "[0.3,0.7]",
             "--kappa", "0.99", "--delta", "0.02", "--n-max", "3", "--samples", "20000"],
            capsys,
        )
        assert code == 0
        res = json.loads(out)["result"]
        assert res["verdict"] == "not-found" and res["detail"].startswith("block embedding")
        assert res["achieved_se"] == pytest.approx(binomial_se(res["achieved"], 20000), rel=1e-12)
        assert res["achieved_se"] > 0.0

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


class TestProcessCaches:
    """One parser and one git description serve every call in a process."""

    CUBE = ["cube", "--rule", "dictator", "--n", "3", "--rho", "0.5"]

    def test_git_is_spawned_at_most_once(self, monkeypatch, capsys):
        calls = []
        real_run = cli.subprocess.run

        def counting_run(*a, **kw):
            calls.append(a)
            return real_run(*a, **kw)

        monkeypatch.setattr(cli.subprocess, "run", counting_run)
        cli._git_describe.cache_clear()
        for _ in range(3):
            assert run_cli(self.CUBE, capsys)[0] == 0
        assert len(calls) <= 1

    def test_git_description_is_of_the_package_not_the_cwd(self, monkeypatch, tmp_path, capsys):
        def describe_from(cwd):
            monkeypatch.chdir(cwd)
            cli._git_describe.cache_clear()
            code, out = run_cli(self.CUBE, capsys)
            assert code == 0
            return json.loads(out)["manifest"]["git_describe"]

        assert describe_from(tmp_path) == describe_from(Path(__file__).resolve().parents[1])

    def test_identical_dispatches_write_identical_files(self, tmp_path, capsys):
        out = tmp_path / "cube.json"
        written = []
        for _ in range(2):
            assert cli_dispatch([*self.CUBE, "--out", str(out)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]

    def test_cell_does_not_carry_over(self, halfspace_file, capsys):
        base = ["stability", "--partition", halfspace_file, "--rho", "0.5", "--samples", "2000"]
        assert "cell_stability" in json.loads(run_cli([*base, "--cell", "1"], capsys)[1])["result"]
        res = json.loads(run_cli(base, capsys)[1])["result"]
        assert "cell" not in res and "agreement" in res

    def test_format_does_not_carry_over(self, capsys):
        assert run_cli([*self.CUBE, "--format", "csv"], capsys)[1].startswith("key,value\n")
        assert json.loads(run_cli(self.CUBE, capsys)[1])["result"]["rule"] == "dictator"

    def test_usage_error_does_not_carry_over(self, capsys):
        assert cli_dispatch(["cube", "--rule", "dictator", "--n", "3"]) == 2
        assert cli_dispatch(self.CUBE) == 0

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()


def _ncd_argv(dist="{bss}", mu="[0.5,0.5]", nu="[0.5,0.5]", kappa="0.75", delta="0.02"):
    return ["ncd", "--dist", dist, "--mu", mu, "--nu", nu, "--kappa", kappa, "--delta", delta]


def _round_argv(tol):
    return ["round", "--partition", "{half}", "--t", "0.5", "--samples", "2000", "--tol", tol]


def _ptf_file_text(constant, entry):
    """The 1-D PTF (x, -x) as a partition file, its first polynomial
    given the JSON texts ``constant`` and ``entry`` (NaN, Infinity)."""
    poly = '{{"constant": {}, "chaos": [{{"order": 1, "dim": 1, "entries": [{{"multiset": [0], "value": {}}}]}}]}}'
    polys = f"{poly.format(constant, entry)}, {poly.format('0.0', '-1.0')}"
    return f'{{"kind": "ptf", "k": 2, "n": 1, "payload": {{"k": 2, "n": 1, "polys": [{polys}]}}}}'


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

    @pytest.mark.parametrize(
        "argv, named",
        [
            (_ncd_argv(dist="{nan_dist}"), "source P entries must be finite and >= 0"),
            (_ncd_argv(mu="[1.5,-0.5]"), "mu entries must be finite and >= 0"),
            (_ncd_argv(mu="[NaN,NaN]"), "mu entries must be finite and >= 0"),
            (_ncd_argv(mu="[]"), "mu must sum to 1"),
            (_ncd_argv(mu='{{"a": 1}}'), "mu must be a vector of numbers"),  # braces doubled for format
            (_ncd_argv(nu="[1.0]"), "nu must be a vector of 2 entries"),
            (_ncd_argv(nu="[0.5,0.6]"), "nu must sum to 1"),
            (_ncd_argv(delta="nan"), "delta must be finite and > 0"),
            (_ncd_argv(kappa="nan"), "kappa must be finite"),
            (_round_argv("-1"), "tol must be finite and > 0"),
            (_round_argv("nan"), "tol must be finite and > 0"),
            (_round_argv("0"), "tol must be finite and > 0"),
            (["search", "--config", "{cfg_nan_target}"], "target_mu entries must be finite and >= 0"),
            (["search", "--config", "{cfg_negative_target}"], "target_mu entries must be finite and >= 0"),
            (["search", "--config", "{cfg_nan_tol}"], "measure_tol must be finite and > 0"),
            (["basis", "--dist", "{nan_dist}"], "source P entries must be finite and >= 0"),
            (["simulate", "--dist", "{nan_dist}", "--partition", "{half}", "--samples", "1000"],
             "source P entries must be finite and >= 0"),
            (_ncd_argv() + ["--oracle-n", "-1"], "word length n must be >= 1, got -1"),
            (_ncd_argv() + ["--n-max", "0"], "n_max must be >= 1, got 0"),
            (_ncd_argv() + ["--n-max", "-1"], "n_max must be >= 1, got -1"),
            (["search", "--config", "{cfg_short}"],
             "search config has missing fields budget, d, measure_tol, t, target_mu"),
            (["search", "--config", "{cfg_extra}"], "search config has unknown fields sample"),
            (["search", "--config", "{cfg_both}"],
             "search config has unknown fields seeds and missing fields budget"),
            (["search", "--config", "{cfg_list}"], "search config must be a JSON object"),
            (["stability", "--partition", "{nan_half}", "--rho", "0.5"], "halfspace a and b must be finite"),
            (["stability", "--partition", "{inf_slabs}", "--rho", "0.5"], "breakpoints must be finite"),
            (["stability", "--partition", "{nan_ptf}", "--rho", "0.5", "--samples", "10000"],
             "polynomial constant and chaos entries must be finite"),
            (["hermite", "--partition", "{nan_ptf}"], "polynomial constant and chaos entries must be finite"),
            (["stability", "--partition", "{inf_ptf}", "--rho", "0.5", "--samples", "10000"],
             "polynomial constant and chaos entries must be finite"),
            (["hermite", "--partition", "{inf_ptf}"], "polynomial constant and chaos entries must be finite"),
        ],
        ids=[
            "ncd-nan-source", "ncd-negative-mu", "ncd-nan-mu", "ncd-empty-mu", "ncd-dict-mu", "ncd-short-nu",
            "ncd-nu-sum", "ncd-nan-delta", "ncd-nan-kappa", "round-negative-tol",
            "round-nan-tol", "round-zero-tol", "search-nan-target", "search-negative-target",
            "search-nan-tol", "basis-nan-source", "simulate-nan-source", "ncd-negative-oracle-n",
            "ncd-zero-n-max", "ncd-negative-n-max", "search-missing-fields", "search-unknown-field",
            "search-unknown-and-missing", "search-not-an-object", "stability-nan-halfspace",
            "stability-inf-breakpoint", "stability-nan-ptf-constant", "hermite-nan-ptf-constant",
            "stability-inf-ptf-entry", "hermite-inf-ptf-entry",
        ],
    )
    def test_bad_input_is_usage_error(self, argv, named, halfspace_file, dist_file, tmp_path, capsys):
        paths = {"half": halfspace_file, "bss": dist_file}
        paths["nan_dist"] = tmp_path / "nan.json"
        paths["nan_dist"].write_text('{"A": 2, "B": 2, "rows": [[NaN, 0.5], [0.25, 0.25]]}')
        search = {"k": 2, "n0": 1, "d": 1, "t": 0.5, "target_mu": [0.5, 0.5],
                  "measure_tol": 0.05, "budget": 5, "samples": 2000}
        for name, key, value in [
            ("cfg_nan_target", "target_mu", [math.nan, math.nan]),
            ("cfg_negative_target", "target_mu", [1.5, -0.5]),
            ("cfg_nan_tol", "measure_tol", math.nan),
        ]:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps({**search, key: value}))
        unbudgeted = {key: value for key, value in search.items() if key != "budget"}
        for name, text in [
            ("cfg_short", json.dumps({"k": 2, "n0": 1})),
            ("cfg_extra", json.dumps({**search, "sample": 1})),
            ("cfg_both", json.dumps({**unbudgeted, "seeds": [1]})),
            ("cfg_list", "[2, 1]"),
            ("nan_half", '{"kind": "halfspace", "k": 2, "n": 1, "payload": {"a": [0.0], "b": [NaN]}}'),
            ("inf_slabs", '{"kind": "slabs", "k": 2, "n": 1, "payload": {"axis": 0, '
                          '"breakpoints": [-0.5, Infinity], "labels": [1, 2, 1], "n": 1, "k": 2}}'),
            ("nan_ptf", _ptf_file_text("NaN", "1.0")),
            ("inf_ptf", _ptf_file_text("0.0", "Infinity")),
        ]:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(text)
        code = cli_dispatch([a.format(**paths) for a in argv])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {named}")

    def test_ncd_oracle_n_zero_runs_no_oracle(self, dist_file, capsys):
        code, out = run_cli([a.format(bss=dist_file) for a in _ncd_argv()] + ["--oracle-n", "0"], capsys)
        assert code == 0
        assert "oracle" not in json.loads(out)["result"]

    def test_borell_check_needs_nonnegative_rho(self, capsys):
        assert cli_dispatch(["borell-check", "--rho", "-0.5"]) == 2
        assert "Borell's inequality reverses" in capsys.readouterr().err

    def test_tensor_needs_a_ptf_partition_file(self, halfspace_file, capsys):
        assert cli_dispatch(["tensor", "--partition", halfspace_file]) == 2
        assert "error: tensor operations need a PTF partition file" in capsys.readouterr().err

    def test_simulate_on_a_one_symbol_side_is_usage_error(self, tmp_path, halfspace_file, capsys):
        dist = tmp_path / "one.json"
        dist.write_text(json.dumps({"A": 1, "B": 2, "rows": [[0.5, 0.5]]}))
        code = cli_dispatch(["simulate", "--dist", str(dist), "--partition", halfspace_file,
                             "--samples", "1000"])
        assert code == 2
        assert "two symbols on each side, got 1 x 2" in capsys.readouterr().err

    def test_ncd_on_a_one_symbol_side_skips_the_block_route(self, tmp_path, capsys):
        dist = tmp_path / "one.json"
        dist.write_text(json.dumps({"A": 1, "B": 2, "rows": [[0.5, 0.5]]}))
        code, out = run_cli(
            ["ncd", "--dist", str(dist), "--mu", "[0.5,0.5]", "--nu", "[0.5,0.5]",
             "--kappa", "0.99", "--delta", "0.01", "--n-max", "3", "--samples", "1000"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["manifest"]["seed"] is None
        assert doc["result"]["verdict"] == "not-found"
        assert doc["result"]["detail"] == "no marginal-feasible pair found"

    def test_cube_accepts_negative_rho(self, capsys):
        code, out = run_cli(["cube", "--rule", "dictator", "--n", "3", "--rho", "-0.5"], capsys)
        assert code == 0
        assert json.loads(out)["result"]["stability"] == pytest.approx(0.25, abs=1e-12)

    def test_search_negative_time_is_usage_error(self, tmp_path, capsys):
        cfg = {"k": 2, "n0": 1, "d": 1, "t": -0.5, "target_mu": [0.5, 0.5],
               "measure_tol": 0.05, "budget": 5}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli_dispatch(["search", "--config", str(path)]) == 2
        assert "t must be >= 0" in capsys.readouterr().err

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
