"""End-to-end runs of the command line interface.

Exit convention: 0 when every configured verdict passes, 1 on verdict or
computational failure, 2 on config errors. Reports land in --out.
"""

import ast
import inspect
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from calderon_lab import cli
from calderon_lab.cli import main, run
from calderon_lab.counterexample import dataset_json, load_dataset, synth_approx_miller
from calderon_lab.errors import ConfigInvalid
from calderon_lab.grid_geometry import CylinderGrid, MillerDataset, cyl_grid
from calderon_lab.report import emit_report, load_json
from conftest import base64_with_nan

# the study's dataset, written once for the module by ``study_dataset``;
# the parametrized configs below name it before it exists
_STUDY_DATASET = os.path.join(tempfile.gettempdir(), f"calderon-lab-test-cli-{os.getpid()}", "ds.json")
_STUDY_CFG = {"dataset": _STUDY_DATASET, "eps": [0.0, 0.05, 0.1], "strides": [2, 1]}


def _write_study_dataset(path, amplitude=0.1):
    """The README's synthesised dataset, 13 x 12 x 12 with modes (1, 0) and
    (0, 1), at ``amplitude``."""
    data, _ = synth_approx_miller(CylinderGrid(3, 13, (12, 12)), modes=((1, 0), (0, 1)), amplitude=amplitude)
    Path(path).write_text(dataset_json(data))
    return str(path)


@pytest.fixture(scope="module", autouse=True)
def study_dataset():
    os.makedirs(os.path.dirname(_STUDY_DATASET), exist_ok=True)
    _write_study_dataset(_STUDY_DATASET)
    yield
    shutil.rmtree(os.path.dirname(_STUDY_DATASET))


def _write(tmp_path, name, cfg):
    """Write a config given as a dict, or as raw JSON text."""
    p = tmp_path / name
    p.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(p)


def _cli(tmp_path, command, cfg):
    """Run a subcommand on a config. A report it writes must read back
    through ``load_json``, which refuses a non-finite number."""
    cfg_path = _write(tmp_path, f"{command}.json", cfg)
    out = tmp_path / f"out-{command}"
    code = main([command, "--config", cfg_path, "--out", str(out)])
    if (out / "report.json").exists():
        load_json(out / "report.json")
    return code, out


def _tree(out):
    """Every path below ``out``: a file's bytes, None for a directory."""
    return {str(p.relative_to(out)): p.read_bytes() if p.is_file() else None for p in out.rglob("*")}


class TestConfigErrors:
    def test_missing_file(self, tmp_path):
        code = main(["verify-identities", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{")
        assert main(["verify-identities", "--config", str(p)]) == 2

    def test_unknown_gamma_name(self, tmp_path):
        code, _ = _cli(
            tmp_path,
            "dn-compare",
            {"n": 2, "sizes": [9], "gamma": "edge", "transform": {"kind": "conformal-2d"}},
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
            (
                "dn-compare",
                {"n": 2, "sizes": [9, 17], "cut": float("inf"), "transform": {"kind": "conformal-2d"}},
            ),
            ("verify-identities", '{"n": 1e999}'),
            # configs that would yield no evidence
            ("verify-identities", {"tuples": 0}),
            ("rigidity-check", {"seeds": []}),
            ("counterexample-study", {**_STUDY_CFG, "eps": []}),
            ("counterexample-study", {**_STUDY_CFG, "strides": []}),
            ("counterexample-study", {**_STUDY_CFG, "strides": [2, 0]}),
            ("counterexample-study", {**_STUDY_CFG, "strides": [5]}),
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
            # a negative mode cut would compare the constant mode alone
            ("dn-compare", {"n": 3, "sizes": [9, 13], "cut": -2, "transform": {"kind": "conformal-link"}}),
            ("counterexample-study", {**_STUDY_CFG, "cut": -2}),
            # synthesis parameters
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "alpha": 1.0}),
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "modes": [[1]]}),
            # the paper's range: T in (0, 1], rho in (0, 1)
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "T": 5}),
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "T": 0}),
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "rho": 0}),
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "rho": 1}),
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
            ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "amplitud": 0.1}),
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
            (
                "dn-compare",
                '{"n": 2, "sizes": [9, 17], "transform": {"kind": "conformal-2d"}, "cut": 1'
                + "0" * 400 + "}",
            ),
            # a collar of 1/2 leaves the profile no room between its ends
            ("dn-compare", {"n": 2, "sizes": [9, 17], "transform": {"kind": "diffeo", "diffeo": {"delta": 0.5}}}),
            (
                "dn-compare",
                {"n": 2, "sizes": [9, 17], "transform": {"kind": "diffeo", "diffeo": {"family": "cubic", "delta": 0.5}}},
            ),
            # a negative collar is empty: the collar check's max over no
            # samples raised numpy's bare ValueError (exit 1, traceback)
            (
                "dn-compare",
                {"n": 3, "sizes": [9, 17], "transform": {"kind": "diffeo", "diffeo": {"family": "identity", "delta": -0.1}}},
            ),
            # |amplitude| >= 1/n does not keep the random-trig metric
            # positive definite: at n = 3, 0.9 and -0.9 sampled it and
            # exited 1 with NonPositiveDefinite
            *(
                ("dn-compare", {"n": n, "sizes": [9, 17], "metric": {"kind": "random-trig", "amplitude": a},
                                "transform": {"kind": "diffeo"}})
                for n, a in ((3, 0.9), (3, -0.9), (2, 0.5))
            ),
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
            "negative-cut-dn-compare", "negative-cut-study",
            "alpha-leaves-no-box", "one-index-mode",
            "T-beyond-cylinder", "T-not-positive", "rho-not-positive", "rho-at-one",
            "identity-at-n2", "misspelled-tuples",
            "misspelled-sizes", "misspelled-factor", "misspelled-metric-seed",
            "misspelled-factor-seed", "misspelled-diffeo-family", "misspelled-shear-amplitude",
            "misspelled-synth-amplitude", "misspelled-synth-grid-num_t",
            "size-not-integral", "n-as-string", "seed-as-bool", "amplitude-as-string",
            "integer-overflows-float", "bump-collar-no-room", "cubic-collar-no-room",
            "negative-delta", "metric-amplitude-0.9-n3", "metric-amplitude-minus-0.9-n3",
            "metric-amplitude-0.5-n2",
        ],
    )
    def test_bad_values_are_config_errors(self, tmp_path, capsys, command, cfg):
        code, out = _cli(tmp_path, command, cfg)
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    # each of these ended in a traceback (a UnicodeDecodeError, a
    # RecursionError, the 4300-digit limit of int, a node count formatted
    # past that limit, the RecursionError of evaluating a 1,000-wave sum,
    # numpy's int64 bound on a wave mode), the cut listed every mode below
    # 1e6 first, and a synth mode that aliases on the grid synthesised a
    # dataset
    @pytest.mark.parametrize(
        "command,text",
        [
            ("rigidity-check", b'{"n": 3, "size": 9\xff}'),
            ("rigidity-check", b'{"n": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"),
            ("rigidity-check", b'{"n": ' + b"1" * 5000 + b"}"),
            ("rigidity-check", b'{"n": 20000, "size": 5}'),
            ("synth-dataset", b'{"grid": {"num_t": 9, "num_ang": [' + b"9" * 4000 + b", " + b"9" * 4000 + b"]}}"),
            ("dn-compare", b'{"n": 3, "sizes": [9], "cut": 1e6, "transform": {"kind": "diffeo", "diffeo": {"family": "identity"}}}'),
            ("dn-compare", b'{"n": 2, "sizes": [9, 17], '
                           b'"transform": {"kind": "conformal-2d", "factor": {"terms": 1000}}}'),
            ("dn-compare", b'{"n": 2, "sizes": [9, 17], "transform": {"kind": "conformal-2d"}, '
                           b'"metric": {"kind": "random-trig", "max_mode": 100000000000000000000}}'),
            ("synth-dataset", b'{"grid": {"num_t": 9, "num_ang": [8, 8]}, "modes": [[100000000000000000000, 0]]}'),
            ("synth-dataset", b'{"grid": {"num_t": 9, "num_ang": [8, 8]}, "modes": [[4, 0]]}'),
        ],
        ids=["invalid-utf8", "nested-100000-deep", "5000-digit-integer", "n-20000", "4000-digit-num_ang",
             "cut-1e6", "factor-terms-1000", "metric-max_mode-1e20", "synth-mode-1e20", "synth-mode-4-on-8"],
    )
    def test_unreadable_or_huge_config_refused_fast(self, tmp_path, capsys, command, text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(text)
        out = tmp_path / "out"
        t0 = time.perf_counter()
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    # a refusal quotes the offending value or key cut short, however large
    @pytest.mark.parametrize(
        "cfg",
        ['{"seeds": [' + ", ".join(map(str, range(50_000))) + ', "x"]}',
         '{"n": ' + "[" * 500 + "]" * 500 + "}",
         {"seeds": [0], "x" * 10_000: 1}],
        ids=["50001-seeds-one-string", "n-nested-500-deep", "10000-char-key"],
    )
    def test_message_quotes_value_cut_short(self, tmp_path, capsys, cfg):
        code, _ = _cli(tmp_path, "rigidity-check", cfg)
        assert code == 2
        err = capsys.readouterr().err
        assert "config error: rigidity-check config" in err
        assert len(err.encode()) < 1024

    # an output file that is a directory ended in an IsADirectoryError
    # traceback with exit 1
    @pytest.mark.parametrize(
        "command,cfg,name",
        [("rigidity-check", {"n": 3, "size": 9, "seeds": [0]}, "report.json"),
         ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}}, "dataset.json")],
        ids=["report", "dataset"],
    )
    def test_unwritable_output_file_is_config_error(self, tmp_path, command, cfg, name):
        cfg_path = _write(tmp_path, "cfg.json", cfg)
        (tmp_path / "out" / name).mkdir(parents=True)
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "calderon_lab.cli", command, "--config", cfg_path, "--out", "out"],
            cwd=tmp_path, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert done.returncode == 2
        assert f"config error: cannot write {os.path.join('out', name)!r}" in done.stderr
        assert "Traceback" not in done.stderr

    # a mode component past float range ended in an OverflowError traceback
    # with exit 1; it aliases on any grid
    def test_401_digit_mode_is_config_error(self, tmp_path):
        cfg_path = _write(tmp_path, "synth.json", '{"grid": {"num_t": 9, "num_ang": [8, 8]}, "modes": [[1'
                          + "0" * 400 + ', 0]]}')
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "calderon_lab.cli", "synth-dataset", "--config", cfg_path, "--out", "out"],
            cwd=tmp_path, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert done.returncode == 2
        assert "config error: invalid synthesis: mode (1" in done.stderr and "aliases" in done.stderr
        assert "Traceback" not in done.stderr
        assert not (tmp_path / "out").exists()

    # the mode rule quoted a mode whole: a 4,000-digit component gave a
    # 4,083-byte stderr line
    def test_4000_digit_mode_quoted_cut_short(self, tmp_path):
        cfg_path = _write(tmp_path, "synth.json", '{"grid": {"num_t": 9, "num_ang": [8, 8]}, "modes": [[1'
                          + "0" * 3999 + ', 0]]}')
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "calderon_lab.cli", "synth-dataset", "--config", cfg_path, "--out", "out"],
            cwd=tmp_path, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
        )
        assert done.returncode == 2
        assert done.stderr.startswith("config error: invalid synthesis: mode (1") and "aliases" in done.stderr
        assert len(done.stderr.encode()) < 1024, len(done.stderr)
        assert "Traceback" not in done.stderr

    # report.json and deviation_from_one.csv were written, and then the
    # directory summary.md refused, which left a half-written run
    def test_refused_report_leaves_out_dir_as_it_was(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "rc.json", {"n": 3, "size": 9, "seeds": [0]})
        out = tmp_path / "out"
        (out / "summary.md").mkdir(parents=True)
        (out / "report.json").write_text("an earlier run")
        before = _tree(out)
        assert main(["rigidity-check", "--config", cfg_path, "--out", str(out)]) == 2
        assert "it exists and is not a regular file" in capsys.readouterr().err
        assert _tree(out) == before

    # dataset.json was replaced before the directory summary.md refused
    # the report, which left a half-written run
    def test_refused_synth_leaves_the_old_dataset(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "synth.json", {"grid": {"num_t": 9, "num_ang": [8, 8]}})
        out = tmp_path / "out"
        (out / "summary.md").mkdir(parents=True)
        (out / "dataset.json").write_text("an earlier dataset")
        (out / "report.json").write_text("an earlier run")
        before = _tree(out)
        assert main(["synth-dataset", "--config", cfg_path, "--out", str(out)]) == 2
        assert "it exists and is not a regular file" in capsys.readouterr().err
        assert _tree(out) == before

    def test_refused_run_leaves_no_directory(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "rc.json", {"bogus": 1})
        (tmp_path / "there").mkdir()
        out = tmp_path / "there" / "never" / "made"
        assert main(["rigidity-check", "--config", cfg_path, "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert (tmp_path / "there").is_dir()
        assert not (tmp_path / "there" / "never").exists()

    def test_study_takes_no_synth_block(self, tmp_path, monkeypatch, capsys):
        # a study reads its dataset from a file, which synth-dataset writes
        monkeypatch.setattr(cli, "load_dataset", _must_not_run)
        synth = {"grid": {"num_t": 13, "num_ang": [12, 12]}}
        for cfg in ({**_STUDY_CFG, "synth": synth}, {"synth": synth}):
            code, out = _cli(tmp_path, "counterexample-study", cfg)
            assert code == 2
            assert "has unknown key(s) ['synth']" in capsys.readouterr().err
            assert not out.exists()

    def test_config_is_directory(self, tmp_path, capsys):
        assert main(["verify-identities", "--config", str(tmp_path)]) == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-dataset", "counterexample-study"])
    def test_dataset_is_directory(self, tmp_path, capsys, command):
        (tmp_path / "ds").mkdir()
        code, _ = _cli(tmp_path, command, {"dataset": str(tmp_path / "ds")})
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    @pytest.mark.parametrize("out", ["taken", "taken/sub"], ids=["file", "below-file"])
    def test_out_is_not_a_directory(self, tmp_path, monkeypatch, capsys, out):
        _stub_computation(monkeypatch, _must_not_run)
        cfg_path = _write(tmp_path, "vi.json", {"tuples": 1, "size": 5})
        (tmp_path / "taken").write_text("")
        before = sorted(tmp_path.rglob("*"))
        assert main(["verify-identities", "--config", cfg_path, "--out", str(tmp_path / out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("output", [3, "sub/dir/x.json"], ids=["not-a-string", "not-a-bare-name"])
    def test_output_not_a_file_name(self, tmp_path, capsys, output):
        cfg = {"grid": {"num_t": 5, "num_ang": [4, 4]}, "output": output}
        code, _ = _cli(tmp_path, "synth-dataset", cfg)
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    # the report's own files overwrote the dataset, which then failed to
    # load as a MalformedContainer
    @pytest.mark.parametrize("output", ["report.json", "summary.md", "timings.json"])
    def test_output_is_not_a_report_file(self, tmp_path, monkeypatch, capsys, output):
        monkeypatch.setattr(cli, "synth_approx_miller", _must_not_run)
        code, out = _cli(tmp_path, "synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "output": output})
        assert code == 2
        assert "is a file the report writes" in capsys.readouterr().err
        assert not out.exists()

    def test_long_axis_synth_refused(self, tmp_path, monkeypatch, capsys):
        # 1,026 x 4 x 4 is under the node cap, but one long axis sizes the
        # dense 1-D factors and the Hölder quotients by its square
        monkeypatch.setattr(cli, "synth_approx_miller", _must_not_run)
        code, out = _cli(tmp_path, "synth-dataset", {"grid": {"num_t": 1026, "num_ang": [4, 4]}})
        assert code == 2
        assert "over the cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,cfg", [("validate-dataset", {}), ("counterexample-study", {"strides": [1]})],
        ids=["validate-dataset", "counterexample-study"],
    )
    def test_long_axis_dataset_refused(self, tmp_path, monkeypatch, capsys, command, cfg):
        monkeypatch.setattr(cli, "validate_miller_properties", _must_not_run)
        monkeypatch.setattr(cli, "dn_gap_study", _must_not_run)
        path = tmp_path / "long.json"
        path.write_text(dataset_json(MillerDataset.zero(CylinderGrid(3, 3, (4, 1026)))))
        code, out = _cli(tmp_path, command, {**cfg, "dataset": str(path)})
        assert code == 2
        assert "over the cap" in capsys.readouterr().err
        assert not out.exists()

    def test_longest_axis_fits_the_cap(self):
        assert max(cli._grid(CylinderGrid, 3, 3, (4, cli._MAX_AXIS)).shape) == cli._MAX_AXIS == 1025
        assert cli._grid(CylinderGrid, 3, cli._MAX_AXIS, (4, 4)).num_t == cli._MAX_AXIS


def _must_not_run(*args, **kwargs):
    raise AssertionError("computation started before the config was checked")


@pytest.fixture(scope="module")
def over_cap_dataset(tmp_path_factory):
    """A zero dataset on 69 x 68 x 68 nodes, 319,056 against the cap of
    266,240."""
    path = tmp_path_factory.mktemp("over-cap") / "ds.json"
    path.write_text(dataset_json(MillerDataset.zero(CylinderGrid(3, 69, (68, 68)))))
    return str(path)


class TestConfigCheckedFirst:
    # the fit has two coefficients: on one or two cells it reported an R^2
    # of 1.0, passed both beta verdicts and exited 0
    @pytest.mark.parametrize(
        "eps,strides",
        [([0.05], [1]), ([0.05, 0.05], [1]), ([0.0, 0.05, 0.1], [1]), ([0.05], [2, 1])],
        ids=["one-cell", "one-cell-repeated", "two-cells", "one-eps"],
    )
    def test_study_fit_needs_cells(self, tmp_path, monkeypatch, capsys, eps, strides):
        monkeypatch.setattr(cli, "dn_gap_study", _must_not_run)
        code, out = _cli(tmp_path, "counterexample-study", {**_STUDY_CFG, "eps": eps, "strides": strides})
        assert code == 2
        assert "the gap fit needs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("eps", [[0.0], [0.0, 0.025, 0.05, 0.1]], ids=["all-zero", "three-cells"])
    def test_study_fit_cells_enough(self, tmp_path, monkeypatch, eps):
        # an all-zero list has only its zero_eps_gap verdict
        monkeypatch.setattr(cli, "dn_gap_study", _reached)
        with pytest.raises(_Reached):
            run("counterexample-study", {**_STUDY_CFG, "eps": eps, "strides": [1]}, tmp_path)

    @pytest.mark.parametrize("key,value,match", [("eps", [0.0, 1000.0], "out of range")], ids=["eps"])
    def test_study_eps_vetted_before_study(self, tmp_path, monkeypatch, key, value, match):
        # 1 + eps*u drops below the family's floor of 1/2 on the synthesised u
        monkeypatch.setattr(cli, "dn_gap_study", _must_not_run)
        with pytest.raises(ConfigInvalid, match=match):
            run("counterexample-study", {**_STUDY_CFG, key: value}, tmp_path)

    @pytest.mark.parametrize(
        "cfg",
        [{**_STUDY_CFG, "cut": 50}, {**_STUDY_CFG, "strides": [12]}],
        ids=["cut-aliases", "stride-too-coarse"],
    )
    def test_study_grid_vetted_before_synthesis(self, tmp_path, monkeypatch, cfg):
        # the dataset's grid is vetted as it is loaded, before any DN work
        monkeypatch.setattr(cli, "dn_gap_study", _must_not_run)
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

    @pytest.mark.parametrize("amplitude", [-1, -2 / 3], ids=["minus-one", "minus-two-thirds"])
    def test_link_amplitude_keeps_factor_positive(self, tmp_path, monkeypatch, capsys, amplitude):
        # c = 1 + amplitude * bump * trig reaches 1 - 1.5 |amplitude|: -1
        # ran into NonPositiveFactor and exited 1 as a computation failure
        monkeypatch.setattr(cli, "sample_metric", _must_not_run)
        cfg = {"n": 3, "sizes": [9, 13], "transform": {"kind": "conformal-link", "amplitude": amplitude}}
        code, out = _cli(tmp_path, "dn-compare", cfg)
        assert code == 2
        assert "must exceed -2/3" in capsys.readouterr().err
        assert not out.exists()

    def test_link_amplitude_above_floor_runs(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "sample_metric", _reached)
        cfg = {"n": 3, "sizes": [9, 13], "transform": {"kind": "conformal-link", "amplitude": -0.6}}
        with pytest.raises(_Reached):
            run("dn-compare", cfg, tmp_path)

    @pytest.mark.parametrize("transform", [{"kind": "conformal-link", "collar": 0.47},
                                           {"kind": "diffeo", "diffeo": {"delta": 0.47}}],
                             ids=["link-collar", "diffeo-delta"])
    def test_narrow_bump_is_config_error(self, tmp_path, monkeypatch, capsys, transform):
        # a bump on (0.47, 0.53) divided by a peak normaliser that underflows
        # to 0: its NaN values ended as a computation failure (exit 1) that
        # left the output directory behind
        monkeypatch.setattr(cli, "sample_metric", _must_not_run)
        code, out = _cli(tmp_path, "dn-compare", {"n": 3, "sizes": [9, 13], "transform": transform})
        assert code == 2
        assert "too narrow" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("transform", [{"kind": "conformal-link", "collar": 0.462},
                                           {"kind": "diffeo", "diffeo": {"delta": 0.462, "amplitude": 1e-3}}],
                             ids=["link-collar", "diffeo-delta"])
    def test_narrowest_bump_runs(self, tmp_path, monkeypatch, transform):
        monkeypatch.setattr(cli, "sample_metric", _reached)
        with pytest.raises(_Reached):
            run("dn-compare", {"n": 3, "sizes": [9, 13], "transform": transform}, tmp_path)

    @pytest.mark.parametrize(
        "n,size", [(3, 100001), (3, 66), (4, 3_000_000)], ids=["huge", "one-past-65-rung", "past-int64"]
    )
    def test_oversized_grid_refused(self, tmp_path, monkeypatch, capsys, n, size):
        # numpy ran out of memory on the huge grid (exit 1, traceback); its
        # n = 4 cousin wraps an int64 node count negative
        monkeypatch.setattr(cli, "sample_metric", _must_not_run)
        cfg = {"n": n, "sizes": [9, size], "transform": {"kind": "diffeo", "diffeo": {"family": "identity"}}}
        code, out = _cli(tmp_path, "dn-compare", cfg)
        assert code == 2
        assert "over the cap" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,cfg", [("validate-dataset", {}), ("counterexample-study", {"strides": [4]})],
        ids=["validate-dataset", "counterexample-study"],
    )
    def test_over_cap_dataset_refused(self, tmp_path, monkeypatch, capsys, over_cap_dataset, command, cfg):
        # both runs passed at exit 0: validation, and a stride-4 study that
        # ran its nonisometry check on the full 319,056-node grid
        monkeypatch.setattr(cli, "validate_miller_properties", _must_not_run)
        monkeypatch.setattr(cli, "dn_gap_study", _must_not_run)
        code, out = _cli(tmp_path, command, {**cfg, "dataset": over_cap_dataset})
        assert code == 2
        assert "over the cap" in capsys.readouterr().err
        assert not out.exists()

    def test_65_rung_fits_the_cap(self):
        assert cli._grid(cyl_grid, 3, 65).node_count == cli._MAX_NODES

    # each tuple and each list entry is a unit of work: a config could ask
    # for 10^9 tuples and run for days; the limit itself passes the reader
    @pytest.mark.parametrize(
        "command,key,cfg,past",
        [
            ("verify-identities", "tuples", {"tuples": 1000}, 1001),
            ("dn-compare", "sizes", {"n": 2, "sizes": [9] * 64,
                                     "transform": {"kind": "diffeo", "diffeo": {"family": "identity"}}}, [9] * 65),
            ("counterexample-study", "eps", {**_STUDY_CFG, "eps": [0.0] * 64}, [0.0] * 65),
            ("counterexample-study", "strides", {**_STUDY_CFG, "strides": [1] * 64}, [1] * 65),
            ("rigidity-check", "seeds", {"seeds": list(range(64))}, list(range(65))),
        ],
        ids=["tuples", "sizes", "eps", "strides", "seeds"],
    )
    def test_work_capped(self, tmp_path, monkeypatch, capsys, command, key, cfg, past):
        _stub_computation(monkeypatch, _must_not_run)
        with pytest.raises(AssertionError, match="computation started"):
            run(command, cfg, tmp_path)
        code, out = _cli(tmp_path, command, {**cfg, key: past})
        assert code == 2
        assert f"key {key!r}" in capsys.readouterr().err
        assert not out.exists()

    # 1,500 pairs nested the synthesised wave sum past the recursion limit
    # (RecursionError, exit 1), and an empty list was accepted
    @pytest.mark.parametrize("modes", [[[1, 0]] * 1500, []],
                             ids=["synth-dataset-1500-pairs", "synth-dataset-empty"])
    def test_synth_modes_bounded(self, tmp_path, monkeypatch, capsys, modes):
        _stub_computation(monkeypatch, _must_not_run)
        code, out = _cli(tmp_path, "synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "modes": modes})
        assert code == 2
        assert "key 'modes'" in capsys.readouterr().err
        assert not out.exists()

    # the subcommands that assemble take n up to 4: rigidity-check at n = 7,
    # size 5 ran out of memory under a 3 GB limit (exit 1, traceback)
    @pytest.mark.parametrize("command,cfg", [
        ("dn-compare", {"sizes": [9], "transform": {"kind": "diffeo", "diffeo": {"family": "identity"}}}),
        ("rigidity-check", {"size": 5, "seeds": [0]}),
    ], ids=["dn-compare", "rigidity-check"])
    def test_assembling_commands_take_n_up_to_4(self, tmp_path, monkeypatch, capsys, command, cfg):
        _stub_computation(monkeypatch, _must_not_run)
        with pytest.raises(AssertionError, match="computation started"):
            run(command, {**cfg, "n": 4}, tmp_path)
        for n in range(5, 10):
            code, out = _cli(tmp_path, command, {**cfg, "n": n})
            assert code == 2
            assert "key 'n'" in capsys.readouterr().err
            assert not out.exists()

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

    # verdict thresholds are fixed by the acceptance criteria, dn-compare
    # reads one gamma, and the output directory comes only from --out
    @pytest.mark.parametrize(
        "command,key,value",
        [
            ("verify-identities", "identity_tol", 1e-12),
            ("verify-identities", "trivial_tol", 1e-10),
            ("dn-compare", "order_min", 1.5),
            ("dn-compare", "identity_tol", 1e-10),
            ("dn-compare", "gamma_left", "gamma1"),
            ("dn-compare", "gamma_right", "gamma1"),
            ("counterexample-study", "zero_tol", 1e-10),
            ("counterexample-study", "r2_min", 0.9),
            ("counterexample-study", "nonisometry_tol", 1e-10),
            ("rigidity-check", "tolerance", 1e-10),
        ]
        + [(command, "out", "results") for command in sorted(cli._HANDLERS)]
        # the study measures on GAMMA1 and fixes its volume-sample scale, and
        # the synthesis fixes its ridge
        + [("counterexample-study", "gamma", "gamma1"), ("counterexample-study", "nonisometry_eps", 0.05),
           ("synth-dataset", "ridge", 1e-2)]
        # one spelling per value: the flat metric and c = 1 are the absent
        # key, the identity diffeo is the object of family "identity"
        + [("dn-compare", "metric", "flat"),
           pytest.param("dn-compare", "metric", {"kind": "flat"}, id="dn-compare-metric-kind-flat"),
           pytest.param("dn-compare", "transform", {"kind": "conformal-2d", "factor": "one"},
                        id="dn-compare-factor-one"),
           pytest.param("dn-compare", "transform", {"kind": "diffeo", "diffeo": "identity"},
                        id="dn-compare-diffeo-identity")],
    )
    def test_removed_key(self, tmp_path, capsys, command, key, value):
        code, out = _cli(tmp_path, command, {**_valid_configs(tmp_path)[command], key: value})
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()


_README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_configs():
    """(subcommand, config) for every JSON block of the README, each under
    the nearest heading that names a subcommand in backticks."""
    text = _README.read_text()
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


def _readme_key_table(command):
    """The backticked names in the first column of the first table under
    the README heading that names ``command``."""
    lines = _README.read_text().splitlines()
    start = lines.index(f"### `{command}`")
    rows = itertools.dropwhile(lambda line: not line.startswith("|"), lines[start + 1:])
    rows = list(itertools.takewhile(lambda line: line.startswith("|"), rows))[2:]
    return sorted(key for row in rows for key in re.findall(r"`([^`]+)`", row.split("|")[1]))


def _readme_nested_tables():
    """{spec: sorted keys} from every README table headed "`spec` key"."""
    lines = _README.read_text().splitlines()
    tables = {}
    for k, line in enumerate(lines):
        head = re.fullmatch(r"\| `([^`]+)` key \|.*", line)
        if head:
            rows = list(itertools.takewhile(lambda row: row.startswith("|"), lines[k + 2:]))
            tables[head[1]] = sorted(re.findall(r"`([^`]+)`", row.split("|")[1])[0] for row in rows)
    return tables


_NESTED = _readme_nested_tables()


def _nested_sites():
    """(spec, command, config, path) for each place a nested spec sits in
    a config the reader accepts; ``path`` is the chain of keys down to the
    spec object. The transform is listed once per kind."""
    dn2 = {"n": 2, "sizes": [9, 17]}
    dn3 = {"n": 3, "sizes": [9, 17]}
    return [
        ("metric", "dn-compare",
         {**dn2, "metric": {"kind": "random-trig"}, "transform": {"kind": "conformal-2d"}}, ("metric",)),
        ("transform", "dn-compare", {**dn2, "transform": {"kind": "conformal-2d"}}, ("transform",)),
        ("transform", "dn-compare", {**dn3, "transform": {"kind": "conformal-link"}}, ("transform",)),
        ("transform", "dn-compare", {**dn3, "transform": {"kind": "diffeo"}}, ("transform",)),
        ("factor", "dn-compare", {**dn2, "transform": {"kind": "conformal-2d", "factor": {}}},
         ("transform", "factor")),
        ("diffeo", "dn-compare", {**dn3, "transform": {"kind": "diffeo", "diffeo": {}}},
         ("transform", "diffeo")),
        ("shear", "dn-compare", {**dn3, "transform": {"kind": "diffeo", "diffeo": {"shear": {}}}},
         ("transform", "diffeo", "shear")),
        ("grid", "synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}}, ("grid",)),
    ]


def _replaced(cfg, path, edit):
    """``cfg`` with the object at ``path`` replaced by ``edit(object)``."""
    if not path:
        return edit(cfg)
    return {**cfg, path[0]: _replaced(cfg[path[0]], path[1:], edit)}


def _outputs_at_blas_threads(tmp_path, command, cfg, names) -> list:
    """Run ``command`` on ``cfg`` in two fresh processes side by side, on 1
    and on 2 BLAS threads, and return the bytes of the files ``names`` each
    wrote to its ``out`` directory."""
    src = Path(cli.__file__).resolve().parents[1]
    runs = {}
    for threads in ("1", "2"):
        run_dir = tmp_path / f"threads-{threads}"
        run_dir.mkdir()
        (run_dir / "cfg.json").write_text(json.dumps(cfg))
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
        runs[run_dir] = subprocess.Popen(
            [sys.executable, "-m", "calderon_lab.cli", command, "--config", "cfg.json", "--out", "out"],
            cwd=run_dir, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    for proc in runs.values():
        assert proc.communicate(timeout=120)[1] == "" and proc.returncode == 0
    return [[(run_dir / "out" / name).read_bytes() for name in names] for run_dir in runs]


class TestReadmeConfigs:
    def test_every_subcommand_has_an_example(self):
        assert {command for command, _ in _readme_configs()} == set(cli._HANDLERS)

    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_key_table_matches_reader(self, tmp_path, monkeypatch, command):
        _stub_computation(monkeypatch, _must_not_run)
        with pytest.raises(ConfigInvalid) as err:
            run(command, {**_valid_configs(tmp_path)[command], "bogus": 1}, tmp_path)
        taken = ast.literal_eval(str(err.value).split("it takes ", 1)[1])
        assert _readme_key_table(command) == taken

    @pytest.mark.parametrize("spec", sorted(_NESTED))
    def test_nested_key_table_matches_reader(self, tmp_path, monkeypatch, spec):
        _stub_computation(monkeypatch, _must_not_run)
        taken = set()
        for name, command, cfg, path in _nested_sites():
            if name == spec:
                with pytest.raises(ConfigInvalid, match=f"{spec} has unknown") as err:
                    run(command, _replaced(cfg, path, lambda obj: {**obj, "bogus": 1}), tmp_path)
                taken |= set(ast.literal_eval(str(err.value).split("it takes ", 1)[1]))
        assert _NESTED[spec] == sorted(taken)

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

    def test_readme_configs_run_end_to_end(self, tmp_path, monkeypatch):
        # every README example, computed for real and twice from a fresh
        # directory: each passes its verdicts, and both runs write the
        # same report bytes (relative paths, since validate-dataset and
        # the study report their dataset path); both dataset commands read
        # the file the synth-dataset example writes
        configs = _readme_configs()
        synth = next(k for k, (command, _) in enumerate(configs) if command == "synth-dataset")
        dataset = f"out{synth}/{configs[synth][1]['output']}"
        reports = []
        for run_dir in (tmp_path / "first", tmp_path / "second"):
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)
            for k, (command, cfg) in enumerate(configs):
                if command in ("validate-dataset", "counterexample-study"):
                    cfg = {**cfg, "dataset": dataset}
                Path(f"cfg{k}.json").write_text(json.dumps(cfg))
                assert main([command, "--config", f"cfg{k}.json", "--out", f"out{k}"]) == 0, (command, cfg)
            reports.append([Path(f"out{k}/report.json").read_bytes() for k in range(len(configs))])
        assert reports[0] == reports[1]

    def test_ci_script_runs_the_readme_configs(self):
        # the CI script writes each README config by an echo line, so a
        # README edit could leave CI running a stale one
        written, run = {}, []
        for line in (_README.parent / "ci" / "readme_configs.sh").read_text().splitlines():
            echo = re.fullmatch(r"\s*echo '(.*)' > (\S+)", line)
            call = re.fullmatch(r"\s*calderon-lab (\S+) --config (\S+) --out \S+", line)
            if echo:
                written[echo[2]] = json.loads(echo[1])
            elif call:
                run.append((call[1], written[call[2]]))
        assert run == _readme_configs()

    def test_link_report_bytes_independent_of_blas_threads(self, tmp_path):
        # mode_gap's norms were BLAS ddots, whose sums may depend on the
        # thread count
        cfg = next(cfg for command, cfg in _readme_configs()
                   if command == "dn-compare" and cfg["transform"]["kind"] == "conformal-link")
        written = _outputs_at_blas_threads(tmp_path, "dn-compare", cfg, ("report.json",))
        assert written[0] == written[1]

    def test_4d_link_report_bytes_independent_of_blas_threads(self, tmp_path):
        # a mode matrix's pairing u^T K u, as a BLAS GEMM, summed in an
        # order that depended on the thread count in 4-D
        cfg = next(cfg for command, cfg in _readme_configs() if command == "dn-compare" and cfg["n"] == 4)
        written = _outputs_at_blas_threads(tmp_path, "dn-compare", cfg, ("report.json",))
        assert written[0] == written[1]

    def test_study_report_bytes_independent_of_blas_threads(self, tmp_path):
        # every mode matrix of the study is a CG solve whose preconditioner
        # runs batched GEMMs, and the gap fit sums their gaps
        cfg = next(cfg for command, cfg in _readme_configs() if command == "counterexample-study")
        written = _outputs_at_blas_threads(tmp_path, "counterexample-study", {**cfg, "dataset": _STUDY_DATASET},
                                           ("report.json",))
        assert written[0] == written[1]


class _Reached(Exception):
    """Raised by the stubbed computation: the config got past the reader."""


def _reached(*args, **kwargs):
    raise _Reached


# any JSON value the loader can return
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=8,
)
_FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=150)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def fuzz_sites(fuzz_dir):
    """(command, config, path, keys): each subcommand's valid config and
    every README example at its root, and one valid config per place a
    nested spec sits, at the spec; ``keys`` are the object's README keys."""
    sites = [(command, cfg, (), _readme_key_table(command))
             for command, cfg in [*_valid_configs(fuzz_dir).items(), *_readme_configs()]]
    return sites + [(command, cfg, path, _NESTED[spec]) for spec, command, cfg, path in _nested_sites()]


def _ends_in_config_error_or_computation(command, cfg, out_dir):
    """Run ``command`` on ``cfg`` with the computation stubbed: the reader
    must refuse the config or let it reach the computation, nothing else."""
    with pytest.MonkeyPatch.context() as mp:
        _stub_computation(mp, _reached)
        with pytest.raises((ConfigInvalid, _Reached)):
            run(command, cfg, out_dir)


def _mutated(data, obj, keys=()):
    """``obj`` with a few of its keys, or of ``keys``, set to random JSON
    values. A key that names a nested spec may instead get that spec
    mutated the same way over the keys of its README table, starting from
    the object the key holds, or from ``{}``."""
    out = dict(obj)
    for key in data.draw(st.lists(st.sampled_from(sorted({*obj, *keys})), max_size=3, unique=True)):
        if key in _NESTED and data.draw(st.booleans()):
            inner = out.get(key)
            out[key] = _mutated(data, inner if isinstance(inner, dict) else {}, _NESTED[key])
        else:
            out[key] = data.draw(_JSON)
    return out


class TestConfigFuzz:
    @_FUZZ
    @given(command=st.sampled_from(sorted(cli._HANDLERS)), cfg=_JSON)
    def test_random_json(self, fuzz_dir, command, cfg):
        _ends_in_config_error_or_computation(command, cfg, fuzz_dir / "out")

    @_FUZZ
    @given(data=st.data())
    def test_partly_valid_objects(self, fuzz_dir, fuzz_sites, data):
        # a valid config with a few keys of its root or of one nested spec,
        # those the object's README table lists or "bogus", replaced by
        # random values
        command, cfg, path, keys = data.draw(st.sampled_from(fuzz_sites))
        cfg = _replaced(cfg, path, lambda obj: _mutated(data, obj, [*keys, "bogus"]))
        _ends_in_config_error_or_computation(command, cfg, fuzz_dir / "out")

    def test_every_key_takes_hostile_values(self, fuzz_dir, fuzz_sites):
        # the draws above need not reach every key; here each key of each
        # object gets values of the wrong type, a negative and numbers far
        # past any limit
        for command, cfg, path, keys in fuzz_sites:
            for key in keys:
                for value in (None, True, "x", [], {}, -1, 10**20, 1e300):
                    mutated = _replaced(cfg, path, lambda obj: {**obj, key: value})
                    _ends_in_config_error_or_computation(command, mutated, fuzz_dir / "out")


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
                "metric": {"kind": "random-trig", "seed": 3},
                "transform": {"kind": "conformal-2d"},
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
                "metric": {"kind": "random-trig", "seed": 2},
                "transform": {"kind": "diffeo", "diffeo": {"family": "identity"}},
            },
        )
        assert code == 0

    # c g overflows: numpy warned three times in the interior solver, and
    # the run ended in a misleading SingularInteriorBlock
    @pytest.mark.filterwarnings("error")
    def test_overflowing_2d_factor_refused_before_assembly(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "assemble_stiffness", _must_not_run)
        factor = {"seed": 1, "amplitude": 0.3, "offset": 1.7e308}
        cfg = {"n": 2, "sizes": [9, 17], "metric": {"kind": "random-trig", "seed": 3},
               "transform": {"kind": "conformal-2d", "factor": factor}}
        code, _ = _cli(tmp_path, "dn-compare", cfg)
        assert code == 1
        assert "NonPositiveDefinite" in capsys.readouterr().err

    # all-zero gaps made _order_fit return inf: the report held
    # "value": Infinity, which load_json refuses, and passed gap_order vacuously
    @pytest.mark.parametrize("transform", [
        {"kind": "conformal-link", "amplitude": 0},
        {"kind": "diffeo", "diffeo": {"family": "bump", "amplitude": 0}},
    ], ids=["link", "bump"])
    def test_zero_amplitude_gaps_at_floor(self, tmp_path, transform):
        code, out = _cli(tmp_path, "dn-compare", {"n": 3, "sizes": [5, 9], "cut": 1.0, "transform": transform})
        assert code == 0
        doc = load_json(out / "report.json")
        assert doc["scalars"]["gaps"] == [0.0, 0.0]
        assert [(v["name"], v["value"]) for v in doc["verdicts"]] == [("gap_at_floor", 0.0)]


    # an indefinite interior block: the sparse LU fallback solved it and the
    # run passed; CG's breakdown now proves it indefinite (smallest
    # eigenvalue -3.2 at size 9)
    def test_indefinite_link_block_is_computation_error(self, tmp_path, capsys):
        cfg = {"n": 3, "sizes": [9, 17], "metric": {"kind": "random-trig", "seed": 0},
               "transform": {"kind": "conformal-link", "amplitude": 50}}
        code, out = _cli(tmp_path, "dn-compare", cfg)
        assert code == 1
        err = capsys.readouterr().err
        assert "computation failed: SingularInteriorBlock: interior block not positive definite: CG breakdown" in err
        assert not (out / "report.json").exists()

    # a potential at the first Dirichlet eigenvalue makes the block singular
    def test_shifted_potential_block_is_computation_error(self, tmp_path, capsys, monkeypatch, flat9_lambda1):
        monkeypatch.setattr(cli, "conformal_potential",
                            lambda g, c, one_sided: np.full(g.grid.shape, -flat9_lambda1))
        cfg = {"n": 3, "sizes": [9, 17], "transform": {"kind": "conformal-link"}}
        code, _ = _cli(tmp_path, "dn-compare", cfg)
        assert code == 1
        assert "computation failed: NoConvergence: solve residual" in capsys.readouterr().err


class TestDatasetCommands:
    def test_synth_passes_only_set_keys(self, tmp_path, monkeypatch):
        seen = {}

        def record(grid, **kwargs):
            seen.update(kwargs)
            return MillerDataset.zero(grid), {"achieved_l2": 0.0, "baseline_l2": 0.0}

        monkeypatch.setattr(cli, "synth_approx_miller", record)
        run("synth-dataset", {"grid": {"num_t": 5, "num_ang": [4, 4]}, "amplitude": 1, "modes": [[1, 1]]}, tmp_path)
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

    # under umask 0o022 every file came out -rw------- from mkstemp
    def test_files_honour_the_umask(self, tmp_path):
        cfg_path = _write(tmp_path, "synth.json", {"grid": {"num_t": 9, "num_ang": [8, 8]}})
        out = tmp_path / "out"
        old = os.umask(0o022)
        try:
            assert main(["synth-dataset", "--config", cfg_path, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        modes = {p.name: p.stat().st_mode & 0o777 for p in out.iterdir()}
        assert set(modes) == {"dataset.json", "report.json", "summary.md", "timings.json"}
        assert set(modes.values()) == {0o644}, modes

    def test_synth_bytes_independent_of_blas_threads(self, tmp_path):
        # LSQR and np.linalg.norm summed by a threaded ddot: at 1 and 2
        # threads the bytes differed (lsqr_iterations 794 against 796)
        cfg = {"grid": {"num_t": 25, "num_ang": [24, 24]}, "modes": [[1, 1], [1, 0]]}
        written = _outputs_at_blas_threads(tmp_path, "synth-dataset", cfg, ("report.json", "dataset.json"))
        assert written[0] == written[1]

    # the Jacobian's squared column norms overflowed: NaN in five lines of
    # report.json and exit 1 on a failed verdict; under -W error numpy's
    # overflow warning escaped instead of the config error
    @pytest.mark.filterwarnings("error")
    def test_overflowing_amplitude_is_config_error(self, tmp_path, capsys):
        code, out = _cli(tmp_path, "synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}, "amplitude": 1e160})
        assert code == 2
        assert "overflows the fit" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_failing_dataset_exits_1(self, tmp_path):
        grid = cyl_grid(3, 5)
        bad = MillerDataset.zero(grid)
        stuck = np.ones(grid.shape)  # violates vanishing at t = T
        bad = MillerDataset(grid, bad.a1, bad.a2, bad.a3, bad.A1, bad.A3, stuck)
        path = tmp_path / "bad-ds.json"
        path.write_text(dataset_json(bad))
        code, _ = _cli(tmp_path, "validate-dataset", {"dataset": str(path)})
        assert code == 1

    def test_bad_container_metadata_exits_1(self, tmp_path):
        # bad metadata (a T beyond the cylinder passed validation with no
        # vanishing layer; alpha 0 broke the eigenvalue check with a
        # traceback), and a NaN in a1 (it broke the eigenvalue check with
        # a traceback) or inside u (it passed validation)
        path = tmp_path / "ds.json"
        path.write_text(dataset_json(MillerDataset.zero(cyl_grid(3, 5))))
        good = json.loads(path.read_text())
        cfg_path = _write(tmp_path, "validate.json", {"dataset": str(path)})
        src = Path(__file__).resolve().parents[1] / "src"
        for section, key, value in [
            ("meta", "N_t", "x"),
            ("meta", "T", 5),
            ("meta", "alpha", 0),
            ("arrays", "a1", base64_with_nan(good["arrays"]["a1"], 0)),
            ("arrays", "u", base64_with_nan(good["arrays"]["u"], 40)),
        ]:
            doc = json.loads(json.dumps(good))
            doc[section][key] = value
            path.write_text(json.dumps(doc))
            done = subprocess.run(
                [sys.executable, "-m", "calderon_lab.cli", "validate-dataset", "--config", cfg_path,
                 "--out", str(tmp_path / "out")],
                capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)}, timeout=120,
            )
            assert done.returncode == 1, key
            assert "computation failed: MalformedContainer" in done.stderr, key
            assert "Traceback" not in done.stderr, key

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text: text.replace(b'"layout"', b'"layout\xff"'),
            lambda text: text.replace(b'"N_t": 5', b'"N_t": ' + b"[" * 100_000 + b"]" * 100_000),
            lambda text: text.replace(b'"N_t": 5', b'"N_t": ' + b"5" * 5000),
        ],
        ids=["invalid-utf8", "nested-100000-deep", "5000-digit-integer"],
    )
    def test_unreadable_container_exits_1(self, tmp_path, capsys, edit):
        path = tmp_path / "ds.json"
        path.write_text(dataset_json(MillerDataset.zero(cyl_grid(3, 5))))
        text = path.read_bytes()
        path.write_bytes(edit(text))
        assert path.read_bytes() != text
        code, _ = _cli(tmp_path, "validate-dataset", {"dataset": str(path)})
        assert code == 1
        assert "computation failed: MalformedContainer" in capsys.readouterr().err

    @pytest.mark.parametrize("cfg", [{"grid": {"num_t": 5, "num_ang": [8, 8]}, "T": 0.2}], ids=["synth-dataset"])
    def test_T_below_first_interior_node_is_config_error(self, tmp_path, capsys, cfg):
        # the fit had no unknowns: two numpy warnings, then "amplitude 0.1
        # overflows the fit: damp nan"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = _cli(tmp_path, "synth-dataset", cfg)
        assert code == 2
        assert "T = 0.2" in capsys.readouterr().err
        assert not out.exists()

    def test_unbounded_holder_growth_reads_back(self, tmp_path):
        # stride 2 from the last sample skips A1[3], so only the finest
        # quotient is nonzero: the report held "growth": Infinity
        data = MillerDataset.zero(cyl_grid(3, 9))
        data.A1[3] = 0.01
        path = tmp_path / "ds.json"
        path.write_text(dataset_json(data))
        code, out = _cli(tmp_path, "validate-dataset", {"dataset": str(path)})
        assert code == 1
        items = {i["name"]: i for i in load_json(out / "report.json")["scalars"]["validation"]["items"]}
        holder = items["holder_quotient"]
        assert (holder["status"], holder["code"]) == ("fail", "HolderUnstable")
        assert holder["details"]["series"][0]["growth"] is None

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

    def test_small_nonzero_gaps_are_fitted(self, tmp_path):
        # gaps up to 1.25e-9 were within np.allclose of 0: the fit read
        # trivial, its verdicts and the nonisometry block were skipped;
        # then, with volume samples blind to max|u|, nonisometry_p2_match
        # read 5.8e-3 against 1e-10 and the study exited 1
        cfg = {**_STUDY_CFG, "dataset": _write_study_dataset(tmp_path / "ds.json", amplitude=1e-7)}
        code, out = _cli(tmp_path, "counterexample-study", cfg)
        doc = load_json(out / "report.json")
        assert 0.0 < max(row[2] for row in doc["tables"]["gap_study"]["rows"]) < 1e-8
        assert doc["scalars"]["fit"]["trivial"] is False
        values = {v["name"]: v["value"] for v in doc["verdicts"]}
        assert "fit_r2" in values and values["nonisometry_p2_match"] <= 1e-10
        assert code == 0 and doc["passed"]

    def test_study_report_byte_identical_across_runs(self, tmp_path):
        # the study runs serially; a thread count passed to run is ignored
        blobs = []
        for k, extra in enumerate(((), (), (2,))):
            out = tmp_path / f"run{k}"
            emit_report(run("counterexample-study", _STUDY_CFG, out, *extra), out)
            blobs.append((out / "report.json").read_bytes())
        assert all(b == blobs[0] for b in blobs)

    def test_threads_option_is_gone(self, tmp_path, capsys):
        cfg_path = _write(tmp_path, "study.json", _STUDY_CFG)
        with pytest.raises(SystemExit) as exit_:
            main(["counterexample-study", "--config", cfg_path, "--out", str(tmp_path / "out"),
                  "--threads", "2"])
        assert exit_.value.code == 2
        assert "--threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_trivial_u_skips_the_nonisometry_block(self, tmp_path):
        # max|u| = 1e-14 is the nontriviality floor: 1 + 0.1 u is not 1, so
        # the gaps are nonzero, but they are rounding (beta_eps2 read
        # -1.05e-13 when fitted) and u gives no volume obstruction
        data = load_dataset(_STUDY_DATASET)
        path = tmp_path / "trivial-u.json"
        path.write_text(dataset_json(replace(data, u=data.u * (1e-14 / np.abs(data.u).max()))))
        report = run("counterexample-study", {**_STUDY_CFG, "dataset": str(path)}, tmp_path / "out")
        assert max(row[2] for row in report.tables["gap_study"].rows) > 0.0
        assert report.scalars["fit"]["trivial"] is True
        assert report.scalars["nonisometry"] == "trivial u, no obstruction derivable"
        names = {v.name for v in report.verdicts}
        assert "zero_eps_gap" in names
        assert not any(name.startswith(("fit_", "nonisometry")) for name in names)
        assert report.passed

    def test_indefinite_dataset_exits_1(self, tmp_path):
        # a1 = a3 = -3 keeps the block determinant at 4 but gives the
        # metric eigenvalue -2
        grid = cyl_grid(3, 13)
        z = MillerDataset.zero(grid)
        bad = MillerDataset(grid, z.a1 - 3.0, z.a2, z.a3 - 3.0, z.A1, z.A3, z.u)
        path = tmp_path / "indefinite.json"
        path.write_text(dataset_json(bad))
        code, _ = _cli(tmp_path, "counterexample-study", {"dataset": str(path), "strides": [1]})
        assert code == 1

    def test_rigidity(self, tmp_path):
        code, out = _cli(
            tmp_path, "rigidity-check", {"n": 3, "size": 9, "seeds": [0, 1]}
        )
        assert code == 0

    def test_run_keeps_files_it_did_not_write(self, tmp_path):
        # an output directory may hold other runs' files: a run deletes
        # none, and its report.json names the tables that are its own
        out = tmp_path / "out"
        dn = _write(tmp_path, "dn.json", {"n": 2, "sizes": [9], "transform": {"kind": "conformal-2d"}})
        assert main(["dn-compare", "--config", dn, "--out", str(out)]) == 0
        gaps = (out / "gaps.csv").read_bytes()
        rigidity = _write(tmp_path, "rigidity.json", {"n": 3, "size": 9, "seeds": [0]})
        assert main(["rigidity-check", "--config", rigidity, "--out", str(out)]) == 0
        assert (out / "gaps.csv").read_bytes() == gaps
        assert "gaps" not in load_json(out / "report.json")["tables"]


class TestRunApi:
    # synth-dataset wrote its dataset into out_dir before the report existed
    @pytest.mark.parametrize("command,cfg", [
        ("verify-identities", {"tuples": 1, "size": 5}),
        ("dn-compare", {"n": 2, "sizes": [9], "transform": {"kind": "conformal-2d"}}),
        ("counterexample-study", {"dataset": _STUDY_DATASET, "eps": [0.0], "strides": [2]}),
        ("validate-dataset", {"dataset": _STUDY_DATASET}),
        ("synth-dataset", {"grid": {"num_t": 9, "num_ang": [8, 8]}}),
        ("rigidity-check", {"size": 5, "seeds": [0]}),
    ])
    def test_run_writes_nothing(self, tmp_path, command, cfg):
        report = run(command, cfg, tmp_path)
        assert report.passed
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", sorted(cli._HANDLERS))
    def test_handlers_take_the_config_only(self, command):
        assert list(inspect.signature(cli._HANDLERS[command]).parameters) == ["cfg"]

    def test_run_returns_report(self, tmp_path):
        report = run(
            "verify-identities", {"n": 3, "size": 9, "tuples": 2, "seed": 5}, tmp_path
        )
        assert report.passed and report.verdicts

    def test_unknown_command_is_config_error(self, tmp_path):
        with pytest.raises(ConfigInvalid, match="unknown command 'verify'"):
            run("verify", {}, tmp_path)
        assert not any(tmp_path.iterdir())
