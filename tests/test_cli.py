"""CLI plumbing: suite dispatch, artifact formats, exit codes."""

import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import zetasum
from zetasum.cli import (CSV_COLUMNS, emit, main, records_from_json,
                         records_to_csv, records_to_json)
from zetasum.suites import (ClaimRecord, ExperimentConfig, RefusedOptionError,
                            load_manifest, registered_suites, run_suite)

RECORD = ClaimRecord(claim_id="demo", anchor="demo anchor", sigma=0.5,
                     t=12345.678901234567, param1=math.nan, param2=2.0,
                     value=complex(1 / 3, -2 / 7), magnitude=0.1,
                     envelope=0.2, ratio=0.5, slope=math.nan, verdict="pass")


class TestEmit:
    def test_empty_csv_is_header_only(self):
        assert records_to_csv([]) == ",".join(CSV_COLUMNS) + "\n"

    def test_one_row_roundtrips_floats(self):
        text = records_to_csv([RECORD])
        header, row = text.strip().split("\n")
        assert header == ",".join(CSV_COLUMNS)
        cells = row.split(",")
        assert cells[0] == "demo" and cells[-1] == "pass"
        # 17 significant digits reproduce the doubles exactly
        assert float(cells[2]) == RECORD.t
        assert float(cells[5]) == RECORD.value.real
        assert float(cells[6]) == RECORD.value.imag

    def test_json_round_trip_bit_exact(self):
        text = records_to_json([RECORD])
        back = records_from_json(text)
        assert back == [RECORD] or (  # nan != nan; compare field by field
            back[0].t == RECORD.t and back[0].value == RECORD.value
            and math.isnan(back[0].param1))

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], "xml", None)

    def test_io_error_names_path(self):
        with pytest.raises(OSError, match="/no/such/dir"):
            emit([], "csv", "/no/such/dir/out.csv")


def _package_env():
    """The environment with the zetasum these tests import first on PYTHONPATH."""
    src = str(Path(zetasum.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


class TestDispatch:
    def test_unknown_suite_exit_2_and_lists(self, capsys):
        code = main(["run", "--suite", "foo"])
        assert code == 2
        err = capsys.readouterr().err
        for name in registered_suites():
            assert name in err

    def test_list_suites(self, capsys):
        assert main(["list-suites"]) == 0
        out = capsys.readouterr().out
        assert len(registered_suites()) == 17
        for name in registered_suites():
            assert name in out

    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "rel.csv"
        code = main(["run", "--suite", "relation-3.4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 10  # 3 sigmas x 3 t values
        capsys.readouterr()

    def test_run_stdout_json(self, capsys):
        code = main(["run", "--suite", "relation-3.4", "--format", "json"])
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert all(r["verdict"] == "pass" for r in records)

    def test_oracle_subcommand(self, capsys):
        spec = json.dumps({"phase": "F3", "sigma": 0.5, "t": 100,
                           "lo": 1, "hi": 100, "conjugate": True})
        assert main(["oracle", "--spec", spec]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["re"] == pytest.approx(2.7670987105620792, rel=1e-12)
        assert out["precision_mode"] == "extended"
        # the fast path audited against the oracle
        fast = complex(out["fast_re"], out["fast_im"])
        assert fast == pytest.approx(complex(out["re"], out["im"]), rel=1e-12)
        assert 0.0 <= out["abs_err"] <= 1e-12
        assert out["abs_err"] == pytest.approx(
            abs(fast - complex(out["re"], out["im"])), abs=1e-15)

    def test_oracle_bad_spec_exit_2(self, capsys):
        assert main(["oracle", "--spec", "{broken"]) == 2
        capsys.readouterr()

    def test_oracle_over_budget_exit_2(self, capsys):
        spec = json.dumps({"phase": "F3", "sigma": 0.0, "t": 1.0,
                           "lo": 1, "hi": 2 * 10**7})
        assert main(["oracle", "--spec", spec]) == 2
        assert "oracle budget exceeded" in capsys.readouterr().err

    def test_extended_precision_run_exit_2(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main(["run", "--suite", "relation-3.4", "--precision", "extended",
                     "--out", str(out)])
        assert code == 2
        assert "zetasum oracle" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("option,message", [
        (["--suite", "est-2.13", "--points", "4"],
         "cannot run with --points 4: need at least 5 grid points"),
        (["--suite", "est-2.13", "--sigma", "2.5"],
         "cannot run with --sigma 2.5: exponent window"),
        (["--suite", "bound-5gh", "--seed", "-1"],
         "cannot run with --seed -1: expected non-negative"),
        (["--suite", "relation-3.4", "--threads", "0"], "--threads must be at least 1, got 0"),
        # the costliest point is over the term budget: the map raises and reaps its worker
        (["--suite", "est-2.13", "--t-max", "1e9", "--threads", "2"],
         "cannot run with --t-max 1000000000.0: budget exceeded"),
    ], ids=["option0-need at least 5 grid points", "option1-exponent window",
            "option2-non-negative", "option3---threads must be at least 1",
            "option4-budget exceeded"])
    def test_bad_option_value_exit_2_without_artifact(self, tmp_path, capsys,
                                                      option, message):
        # exit 1 is kept for a failed claim
        out = tmp_path / "never.json"
        assert main(["run", *option, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert not out.exists()

    def test_standard_precision_run_accepted(self, capsys):
        assert main(["run", "--suite", "relation-3.4", "--precision", "standard"]) == 0
        capsys.readouterr()

    def test_missing_subcommand_exit_2(self):
        assert main([]) == 2

    def test_console_script_installed(self):
        # the entry point, end to end through a real process that imports the
        # same zetasum package as these tests (installed or from src/)
        out = subprocess.run([sys.executable, "-m", "zetasum.cli", "list-suites"],
                             capture_output=True, text=True, env=_package_env())
        assert out.returncode == 0 and "identity-3.12" in out.stdout

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's mallopt")
    def test_freed_blocks_stay_in_the_heap(self):
        # three 2 MiB arrays freed together leave a heap top past glibc's
        # default trim threshold; once main() has run they are reused, not
        # handed back and faulted in again
        code = (
            "import contextlib, io, resource, numpy as np, zetasum.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    zetasum.cli.main(['list-suites'])\n"
            "def churn():\n"
            "    for _ in range(20):\n"
            "        blocks = [np.ones(2**18) for _ in range(3)]\n"
            "churn()\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "churn()\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=_package_env())
        assert out.returncode == 0 and int(out.stdout) < 100, out.stdout

    @pytest.mark.parametrize("module", ["zetasum", "zetasum.cli"])
    def test_import_loads_no_scipy(self, module):
        # the package needs NumPy and mpmath only; importing scipy.fft and
        # scipy.integrate tripled the time of `import zetasum.cli` (0.2 s now)
        code = f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=_package_env())
        assert out.returncode == 0 and out.stdout.strip() == "[]", out.stdout


class TestConfigPlumbing:
    def test_sigma_override(self):
        records = run_suite(ExperimentConfig(suite="relation-3.4",
                                             sigma_list=[0.5]))
        assert {r.sigma for r in records} == {0.5}

    def test_empty_sigma_list_refused(self):
        with pytest.raises(RefusedOptionError, match="--sigma"):
            run_suite(ExperimentConfig(suite="relation-3.4", sigma_list=[]))

    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            run_suite(ExperimentConfig(suite="lemma-2.3", t_min=1e3,
                                       t_max=1e4, points=3))


class TestOverrides:
    """A suite takes an option only where its manifest holds that default."""

    @pytest.mark.parametrize("suite,option", [
        ("est-2.5", ["--seed", "3"]),
        ("lemma-4.1", ["--sigma", "0.5"]),
        ("identity-3.12", ["--t-min", "100"]),
        ("lemma-2.3", ["--delta", "0.2"]),
        ("decomp-5.3", ["--delta2", "0.3"]),
        # one golden constant is frozen for the suite's single sigma
        ("identity-2.7", ["--sigma", "0.5", "--sigma", "0.6"]),
        ("thm-5.3", ["--sigma", "0.5", "--sigma", "0.6"]),
    ])
    def test_refused_option_exit_2_and_named(self, tmp_path, capsys, suite, option):
        out = tmp_path / "never.json"
        assert main(["run", "--suite", suite, *option, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert suite in err and option[0] in err
        assert not out.exists()

    def test_chi_checks_takes_the_grid(self, capsys):
        assert main(["run", "--suite", "chi-checks", "--t-min", "1000",
                     "--format", "json"]) == 0
        rows = [r for r in json.loads(capsys.readouterr().out) if r["param1"] != 3.0]
        assert len(rows) == 2 * 20 and min(r["t"] for r in rows) == 1000.0

    def test_bound_5gh_takes_sigma(self, capsys):
        assert main(["run", "--suite", "bound-5gh", "--sigma", "0.5",
                     "--format", "json"]) == 0
        record, = json.loads(capsys.readouterr().out)
        assert record["sigma"] == 0.5

    def test_sigma_batch_is_the_one_sigma_runs_in_order(self, capsys):
        def records(*sigmas):
            argv = ["run", "--suite", "est-2.13", "--t-min", "1e5", "--t-max", "1e6",
                    "--points", "5", "--format", "json"]
            for s in sigmas:
                argv += ["--sigma", s]
            assert main(argv) == 0
            return json.loads(capsys.readouterr().out)

        both = records("0.25", "0.5")
        assert len(both) == 10
        assert both == records("0.25") + records("0.5")

    def test_delta2_with_delta3_replace_the_pairs(self):
        records = run_suite(ExperimentConfig(suite="decomp-5.3", delta2=0.35, delta3=0.3))
        assert {(r.param1, r.param2) for r in records} == {(0.35, 0.3)}
        assert len(records) == 3 and all(r.passed() for r in records)

    @pytest.mark.parametrize("suite", registered_suites())
    def test_seed_taken_exactly_where_the_manifest_holds_one(self, tmp_path, capsys, suite):
        # the benchmark passes --seed to the suites whose defaults hold "seed"
        out = tmp_path / "out.json"
        code = main(["run", "--suite", suite, "--seed", "5", "--out", str(out)])
        capsys.readouterr()
        assert (code != 2) == ("seed" in load_manifest()[suite]["defaults"])
