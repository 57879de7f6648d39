"""End-to-end runs of the command line interface.

Exit convention: 0 when every configured verdict passes, 1 on verdict or
computational failure, 2 on config errors. Reports land in --out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from calderon_lab import cli
from calderon_lab.cli import main, run
from calderon_lab.counterexample import save_dataset
from calderon_lab.errors import ConfigInvalid
from calderon_lab.grid_geometry import MillerDataset, cyl_grid
from calderon_lab.report import emit_report

_STUDY_CFG = {
    "synth": {
        "grid": {"num_t": 13, "num_ang": [12, 12]},
        "modes": [[1, 0], [0, 1]],
        "amplitude": 0.1,
    },
    "eps": [0.0, 0.05, 0.1],
    "strides": [2, 1],
    "gamma": "gamma1",
}


def _write(tmp_path, name, cfg):
    """Write a config given as a dict, or as raw JSON text."""
    p = tmp_path / name
    p.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(p)


def _cli(tmp_path, command, cfg):
    cfg_path = _write(tmp_path, f"{command}.json", cfg)
    out = tmp_path / f"out-{command}"
    code = main([command, "--config", cfg_path, "--out", str(out)])
    return code, out


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        code = main(["verify-identities", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{")
        assert main(["verify-identities", "--config", str(p)]) == 2

    def test_mismatched_gammas(self, tmp_path):
        code, _ = _cli(
            tmp_path,
            "dn-compare",
            {
                "n": 2,
                "sizes": [9],
                "gamma_left": "gamma0",
                "gamma_right": "gamma1",
                "transform": {"kind": "conformal-2d"},
            },
        )
        assert code == 2

    def test_unknown_gamma_name(self, tmp_path):
        code, _ = _cli(
            tmp_path,
            "dn-compare",
            {
                "n": 2,
                "sizes": [9],
                "gamma_left": "edge",
                "gamma_right": "edge",
                "transform": {"kind": "conformal-2d"},
            },
        )
        assert code == 2

    @pytest.mark.parametrize(
        "command,cfg",
        [
            ("verify-identities", {"n": "abc"}),
            ("verify-identities", {"size": 2}),
            ("verify-identities", {"n": None}),
            ("verify-identities", {"n": 1}),
            (
                "dn-compare",
                {"n": 2, "sizes": [9], "transform": {"kind": "diffeo", "diffeo": {"shear": 5}}},
            ),
            (
                "dn-compare",
                {"n": 3, "sizes": [5, 9], "transform": {"kind": "diffeo", "diffeo": {"amplitude": 5.0}}},
            ),
            (
                "dn-compare",
                {"n": 3, "sizes": [5, 9], "transform": {"kind": "diffeo", "diffeo": {"shear": {"axis": 3}}}},
            ),
            # non-finite numbers; json.dumps writes NaN and Infinity
            (
                "dn-compare",
                {
                    "n": 2,
                    "sizes": [9, 17],
                    "metric": {"kind": "random-trig", "amplitude": float("nan")},
                    "transform": {"kind": "conformal-2d"},
                },
            ),
            ("verify-identities", {"identity_tol": float("inf")}),
            ("verify-identities", '{"n": 1e999}'),
            # configs that would yield no evidence
            ("verify-identities", {"tuples": 0}),
            ("rigidity-check", {"seeds": []}),
            ("counterexample-study", {**_STUDY_CFG, "eps": []}),
            ("counterexample-study", {**_STUDY_CFG, "strides": []}),
            ("counterexample-study", {**_STUDY_CFG, "strides": [2, 0]}),
            (
                "counterexample-study",
                {**_STUDY_CFG, "synth": {"grid": {"num_t": 9, "num_ang": [8, 8]}}, "strides": [3]},
            ),
            ("counterexample-study", {**_STUDY_CFG, "strides": [12]}),
            ("dn-compare", {"n": 2, "sizes": [], "transform": {"kind": "conformal-2d"}}),
            (
                "dn-compare",
                {"n": 2, "sizes": [9, 9], "transform": {"kind": "conformal-2d", "factor": {"seed": 1}}},
            ),
            (
                "dn-compare",
                {
                    "n": 2,
                    "sizes": [9, 17],
                    "transform": {
                        "kind": "conformal-2d",
                        "factor": {"seed": 1, "offset": 0.0, "amplitude": 1.0},
                    },
                },
            ),
            # numpy rejects negative seeds
            ("verify-identities", {"seed": -1}),
            ("rigidity-check", {"seeds": [0, -1]}),
            (
                "dn-compare",
                {
                    "n": 2,
                    "sizes": [9, 17],
                    "metric": {"kind": "random-trig", "seed": -1},
                    "transform": {"kind": "conformal-2d"},
                },
            ),
            (
                "dn-compare",
                {"n": 2, "sizes": [9, 17], "transform": {"kind": "conformal-2d", "factor": {"seed": -1}}},
            ),
            ("dn-compare", {"n": 3, "sizes": [9, 17], "transform": {"kind": "conformal-link", "seed": -1}}),
            # mode cuts that alias on the coarsest grid
            ("dn-compare", {"n": 3, "sizes": [5, 9], "transform": {"kind": "diffeo"}}),
            ("counterexample-study", {**_STUDY_CFG, "cut": 50}),
            # synthesis parameters: sqrt of a negative ridge gives a NaN damping
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "ridge": -1.0}),
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "alpha": 1.0}),
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "modes": [[1]]}),
            # the fourth-power identity needs n >= 3
            ("verify-identities", {"n": 2}),
            # a misspelled key at any level is refused, not ignored
            ("verify-identities", {"tuple": 1}),
            (
                "dn-compare",
                {"n": 2, "size": [9, 17], "transform": {"kind": "conformal-2d", "factor": {"seed": 1}}},
            ),
            (
                "dn-compare",
                {"n": 2, "sizes": [9, 17], "transform": {"kind": "conformal-2d", "factr": {"seed": 1}}},
            ),
            (
                "dn-compare",
                {
                    "n": 2,
                    "sizes": [9, 17],
                    "metric": {"kind": "random-trig", "sed": 3},
                    "transform": {"kind": "conformal-2d"},
                },
            ),
            (
                "dn-compare",
                {"n": 2, "sizes": [9, 17], "transform": {"kind": "conformal-2d", "factor": {"sead": 1}}},
            ),
            (
                "dn-compare",
                {"n": 2, "sizes": [9, 17], "transform": {"kind": "diffeo", "diffeo": {"familly": "cubic"}}},
            ),
            (
                "dn-compare",
                {
                    "n": 3,
                    "sizes": [9, 17],
                    "transform": {"kind": "diffeo", "diffeo": {"shear": {"axis": 1, "amplitud": 0.1}}},
                },
            ),
            (
                "counterexample-study",
                {**_STUDY_CFG, "synth": {**_STUDY_CFG["synth"], "amplitud": 0.1}},
            ),
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8], "numt": 9}}),
            # an integer key neither truncates a fraction nor takes a string
            # or a boolean, and no number key takes a string
            ("rigidity-check", {"size": 9.7}),
            ("verify-identities", {"n": "3"}),
            ("rigidity-check", {"seeds": [True]}),
            (
                "dn-compare",
                {"n": 3, "sizes": [9, 17], "transform": {"kind": "conformal-link", "amplitude": "0.3"}},
            ),
            # a JSON integer too large for a float key
            ("verify-identities", '{"identity_tol": 1' + "0" * 400 + "}"),
        ],
        ids=[
            "non-numeric-n", "size-too-small", "null-n", "dimension-too-small",
            "shear-not-object", "folding-diffeo", "shear-axis-out-of-range",
            "nan", "infinity", "overflow",
            "no-tuples", "no-seeds", "no-eps", "no-strides", "zero-stride",
            "stride-not-dividing-grid", "stride-too-coarse", "no-sizes",
            "one-size-order-fit", "factor-not-positive",
            "negative-seed", "negative-seeds", "negative-metric-seed",
            "negative-factor-seed", "negative-link-seed",
            "cut-aliases-coarsest-size", "cut-aliases-coarsest-stride",
            "negative-ridge", "alpha-leaves-no-box", "one-index-mode",
            "identity-at-n2", "misspelled-tuples",
            "misspelled-sizes", "misspelled-factor", "misspelled-metric-seed",
            "misspelled-factor-seed", "misspelled-diffeo-family", "misspelled-shear-amplitude",
            "misspelled-synth-amplitude", "misspelled-synth-grid-num_t",
            "size-not-integral", "n-as-string", "seed-as-bool", "amplitude-as-string",
            "integer-overflows-float",
        ],
    )
    def test_bad_values_are_config_errors(self, tmp_path, capsys, command, cfg):
        code, _ = _cli(tmp_path, command, cfg)
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_refused_run_leaves_no_directory(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "rc.json", {"bogus": 1})
        (tmp_path / "there").mkdir()
        out = tmp_path / "there" / "never" / "made"
        assert main(["rigidity-check", "--config", cfg_path, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert (tmp_path / "there").is_dir()
        assert not (tmp_path / "there" / "never").exists()

    def test_config_is_directory(self, tmp_path, capsys):
        assert main(["verify-identities", "--config", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-dataset", "counterexample-study"])
    def test_dataset_is_directory(self, tmp_path, capsys, command):
        (tmp_path / "ds").mkdir()
        code, _ = _cli(tmp_path, command, {"dataset": str(tmp_path / "ds")})
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_out_not_a_path(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "vi.json", {"tuples": 1, "size": 5, "out": 5})
        assert main(["verify-identities", "--config", cfg_path]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "below-file"])
    def test_out_is_not_a_directory(self, tmp_path, capsys, out):
        cfg_path = _write(tmp_path, "vi.json", {"tuples": 1, "size": 5})
        (tmp_path / "taken").write_text("")
        assert main(["verify-identities", "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("output", [3, "sub/dir/x.json"], ids=["not-a-string", "not-a-bare-name"])
    def test_output_not_a_file_name(self, tmp_path, capsys, output):
        cfg = {"grid": {"num_t": 5, "num_ang": [4, 4]}, "output": output}
        code, _ = _cli(tmp_path, "synth-dataset", cfg)
        assert code == 2
        assert "config error:" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("computation started before the config was checked")


class TestConfigCheckedFirst:
    @pytest.mark.parametrize("key", ["nonisometry_eps", "nonisometry_tol"])
    def test_study_keys(self, tmp_path, monkeypatch, key):
        monkeypatch.setattr(cli, "synth_approx_miller", _must_not_run)
        monkeypatch.setattr(cli, "dn_gap_study", _must_not_run)
        with pytest.raises(ConfigInvalid):
            run("counterexample-study", {**_STUDY_CFG, key: "abc"}, tmp_path)

    @pytest.mark.parametrize(
        "cfg",
        [{**_STUDY_CFG, "cut": 50}, {**_STUDY_CFG, "strides": [12]}],
        ids=["cut-aliases", "stride-too-coarse"],
    )
    def test_study_grid_vetted_before_synthesis(self, tmp_path, monkeypatch, cfg):
        monkeypatch.setattr(cli, "synth_approx_miller", _must_not_run)
        with pytest.raises(ConfigInvalid):
            run("counterexample-study", cfg, tmp_path)

    @pytest.mark.parametrize(
        "n,transform",
        [
            (3, {"kind": "conformal-2d"}),
            (2, {"kind": "conformal-link"}),
            (3, {"kind": "twist"}),
            (2, {"kind": "conformal-2d", "factor": "seven"}),
            (3, {"kind": "conformal-link", "amplitude": "big"}),
            (3, {"kind": "diffeo", "diffeo": {"family": "wobble"}}),
        ],
        ids=["2d-at-n3", "link-at-n2", "unknown-kind", "bad-factor", "bad-amplitude", "bad-family"],
    )
    def test_dn_compare_transform(self, tmp_path, monkeypatch, n, transform):
        monkeypatch.setattr(cli, "assemble_stiffness", _must_not_run)
        cfg = {"n": n, "sizes": [5, 9], "transform": transform}
        with pytest.raises(ConfigInvalid):
            run("dn-compare", cfg, tmp_path)

    def test_identities_need_n3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "cyl_grid", _must_not_run)
        monkeypatch.setattr(cli, "sample_metric", _must_not_run)
        with pytest.raises(ConfigInvalid, match="'n'"):
            run("verify-identities", {"n": 2}, tmp_path)


def _stub_computation(monkeypatch, stub):
    """Replace every entry point where a subcommand starts computing."""
    for name in ("sample_metric", "assemble_stiffness", "synth_approx_miller", "load_dataset",
                 "dn_gap_study"):
        monkeypatch.setattr(cli, name, stub)


def _valid_configs(tmp_path):
    """One config per subcommand that the reader accepts."""
    ds = tmp_path / "ds.json"
    ds.write_text("")
    return {
        "verify-identities": {"tuples": 1},
        "dn-compare": {"n": 2, "sizes": [9, 17], "transform": {"kind": "conformal-2d"}},
        "counterexample-study": _STUDY_CFG,
        "validate-dataset": {"dataset": str(ds)},
        "synth-dataset": {"grid": {"num_t": 9, "num_ang": [8, 8]}},
        "rigidity-check": {"seeds": [0]},
    }


class TestUnknownKeys:
    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_unknown_root_key(self, tmp_path, monkeypatch, command):
        _stub_computation(monkeypatch, _must_not_run)
        cfg = _valid_configs(tmp_path)[command]
        # the config alone reaches the computation; the extra key stops it
        with pytest.raises(AssertionError, match="computation started"):
            run(command, cfg, tmp_path)
        with pytest.raises(ConfigInvalid, match="bogus"):
            run(command, {**cfg, "bogus": 1}, tmp_path)


def _readme_configs():
    """(subcommand, config) for every JSON block of the README, each under
    the nearest heading that names a subcommand in backticks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    found, command, block = [], None, None
    for line in text.splitlines():
        if block is not None:
            if line.startswith("```"):
                found.append((command, json.loads("\n".join(block))))
                block = None
            else:
                block.append(line)
        elif line.startswith("#"):
            name = line.lstrip("#").strip().strip("`")
            command = name if name in cli._HANDLERS else None
        elif line.startswith("```json"):
            block = []
    return found


class TestReadmeConfigs:
    def test_every_subcommand_has_an_example(self):
        assert {command for command, _ in _readme_configs()} == set(cli._HANDLERS)

    @pytest.mark.parametrize("command,cfg", _readme_configs())
    def test_readme_config_is_accepted(self, tmp_path, monkeypatch, command, cfg):
        assert command is not None, f"JSON block {cfg} sits under no subcommand heading"
        if "dataset" in cfg:
            # the example dataset path names a file relative to the run
            monkeypatch.chdir(tmp_path)
            Path(cfg["dataset"]).parent.mkdir(parents=True, exist_ok=True)
            Path(cfg["dataset"]).write_text("")
        _stub_computation(monkeypatch, _must_not_run)
        with pytest.raises(AssertionError, match="computation started"):
            run(command, cfg, tmp_path)


class TestVerifyIdentities:
    def test_pass_and_artifacts(self, tmp_path):
        code, out = _cli(
            tmp_path, "verify-identities", {"n": 3, "size": 9, "tuples": 3, "seed": 0}
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["passed"] is True
        assert (out / "summary.md").exists()

    def test_reports_deterministic(self, tmp_path):
        cfg = {"n": 3, "size": 9, "tuples": 2, "seed": 1}
        cfg_path = _write(tmp_path, "vi.json", cfg)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            assert main(["verify-identities", "--config", cfg_path, "--out", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]


class TestDnCompare:
    def test_identity_factor_at_floor(self, tmp_path):
        code, out = _cli(
            tmp_path,
            "dn-compare",
            {
                "n": 2,
                "sizes": [9],
                "gamma_left": "gamma1",
                "gamma_right": "gamma1",
                "metric": {"kind": "random-trig", "seed": 3},
                "transform": {"kind": "conformal-2d", "factor": "one"},
            },
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        names = [v["name"] for v in doc["verdicts"]]
        assert "gap_at_floor" in names

    def test_conformal_2d_order(self, tmp_path):
        code, out = _cli(
            tmp_path,
            "dn-compare",
            {
                "n": 2,
                "sizes": [9, 17, 33],
                "gamma_left": "gamma1",
                "gamma_right": "gamma1",
                "metric": {"kind": "random-trig", "seed": 3},
                "transform": {
                    "kind": "conformal-2d",
                    "factor": {"seed": 1, "amplitude": 0.3, "offset": 1.4},
                },
            },
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        v = {v["name"]: v for v in doc["verdicts"]}["gap_order"]
        assert v["passed"] and v["value"] >= 1.5

    def test_identity_diffeo(self, tmp_path):
        code, out = _cli(
            tmp_path,
            "dn-compare",
            {
                "n": 2,
                "sizes": [9],
                "gamma_left": "gamma1",
                "gamma_right": "gamma1",
                "metric": {"kind": "random-trig", "seed": 2},
                "transform": {"kind": "diffeo", "diffeo": "identity"},
            },
        )
        assert code == 0


class TestDatasetCommands:
    def test_synth_passes_only_set_keys(self, monkeypatch):
        seen = {}

        def record(grid, **kwargs):
            seen.update(kwargs)
            return MillerDataset.zero(grid), {}

        monkeypatch.setattr(cli, "synth_approx_miller", record)
        cli._synth({"grid": {"num_t": 5, "num_ang": [4, 4]}, "amplitude": 1, "modes": [[1, 1]]})
        assert seen == {"amplitude": 1.0, "modes": ((1, 1),)}
        assert isinstance(seen["amplitude"], float)

    def test_synth_then_validate(self, tmp_path):
        code, out = _cli(
            tmp_path,
            "synth-dataset",
            {
                "grid": {"num_t": 9, "num_ang": [8, 8]},
                "modes": [[1, 0]],
                "amplitude": 0.1,
                "output": "ds.json",
            },
        )
        assert code == 0
        ds = out / "ds.json"
        assert ds.exists()
        code2, out2 = _cli(tmp_path, "validate-dataset", {"dataset": str(ds)})
        assert code2 == 0
        doc = json.loads((out2 / "report.json").read_text())
        assert doc["passed"] is True

    def test_validate_failing_dataset_exits_1(self, tmp_path):
        grid = cyl_grid(3, 5)
        bad = MillerDataset.zero(grid)
        stuck = np.ones(grid.shape)  # violates vanishing at t = T
        bad = MillerDataset(grid, bad.a1, bad.a2, bad.a3, bad.A1, bad.A3, stuck)
        path = tmp_path / "bad-ds.json"
        save_dataset(bad, path)
        code, _ = _cli(tmp_path, "validate-dataset", {"dataset": str(path)})
        assert code == 1

    def test_bad_container_metadata_exits_1(self, tmp_path):
        path = tmp_path / "ds.json"
        save_dataset(MillerDataset.zero(cyl_grid(3, 5)), path)
        doc = json.loads(path.read_text())
        doc["meta"]["N_t"] = "x"
        path.write_text(json.dumps(doc))
        cfg_path = _write(tmp_path, "validate.json", {"dataset": str(path)})
        src = Path(__file__).resolve().parents[1] / "src"
        done = subprocess.run(
            [sys.executable, "-m", "calderon_lab.cli", "validate-dataset", "--config", cfg_path,
             "--out", str(tmp_path / "out")],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert done.returncode == 1
        assert "computation failed: MalformedContainer" in done.stderr
        assert "Traceback" not in done.stderr

    def test_missing_dataset_is_config_error(self, tmp_path):
        code, _ = _cli(tmp_path, "validate-dataset", {"dataset": str(tmp_path / "no.json")})
        assert code == 2


class TestStudyAndRigidity:
    def test_small_study(self, tmp_path):
        code, out = _cli(tmp_path, "counterexample-study", _STUDY_CFG)
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert "gap_study" in doc["tables"]
        names = [v["name"] for v in doc["verdicts"]]
        assert "zero_eps_gap" in names and "fit_r2" in names

    def test_study_report_byte_identical_across_threads(self, tmp_path):
        blobs = []
        for k, threads in enumerate((1, 1, 2, 2)):
            out = tmp_path / f"run{k}"
            emit_report(run("counterexample-study", _STUDY_CFG, out, threads=threads), out)
            blobs.append((out / "report.json").read_bytes())
        assert all(b == blobs[0] for b in blobs)

    def test_indefinite_dataset_exits_1(self, tmp_path):
        # a1 = a3 = -3 keeps the block determinant at 4 but gives the
        # metric eigenvalue -2
        grid = cyl_grid(3, 13)
        z = MillerDataset.zero(grid)
        bad = MillerDataset(grid, z.a1 - 3.0, z.a2, z.a3 - 3.0, z.A1, z.A3, z.u)
        path = tmp_path / "indefinite.json"
        save_dataset(bad, path)
        code, _ = _cli(tmp_path, "counterexample-study", {"dataset": str(path), "strides": [1]})
        assert code == 1

    def test_rigidity(self, tmp_path):
        code, out = _cli(
            tmp_path, "rigidity-check", {"n": 3, "size": 9, "seeds": [0, 1], "tolerance": 1e-10}
        )
        assert code == 0


class TestRunApi:
    def test_run_returns_report(self, tmp_path):
        report = run(
            "verify-identities", {"n": 3, "size": 9, "tuples": 2, "seed": 5}, tmp_path
        )
        assert report.passed and report.verdicts
