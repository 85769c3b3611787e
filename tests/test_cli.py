import json
import os
import shutil
import warnings

import numpy as np
import pytest
import yaml

from koopest.cli import main
from koopest.io import load_operator, load_samples


@pytest.fixture
def config_path(tmp_path):
    """Copy of the smoke config pointing its outputs at a temp directory."""

    def make(**overrides):
        with open("configs/smoke.yaml") as fh:
            data = yaml.safe_load(fh)
        data["output_dir"] = str(tmp_path / "out")
        data.update(overrides)
        path = tmp_path / "config.yaml"
        with open(path, "w") as fh:
            yaml.safe_dump(data, fh)
        return str(path)

    return make


class TestSimulateAndEstimate:
    def test_roundtrip(self, config_path, tmp_path, capsys):
        cfg = config_path()
        assert main(["simulate", cfg, "--steps", "300"]) == 0
        samples_path = str(tmp_path / "out" / "samples.csv")
        samples = load_samples(samples_path)
        assert samples.n_samples == 300
        assert samples.states is not None

        assert main(["estimate", cfg, "--samples", samples_path]) == 0
        matrix, meta = load_operator(str(tmp_path / "out" / "koopman.csv"))
        assert matrix.shape == (4, 4)
        assert meta["operator_kind"] == "koopman"
        assert meta["sample_count"] == 300
        assert meta["fallback"] is False
        assert meta["dict_names"] == ["1", "x1", "x2", "x1^2"]

    def test_trajectory_without_sidecar_lifts_each_state_once(
        self, config_path, tmp_path, monkeypatch
    ):
        from koopest import estimator

        rows, lift = [], estimator.evaluate_many
        monkeypatch.setattr(
            estimator, "evaluate_many", lambda d, xs: rows.append(len(xs)) or lift(d, xs)
        )
        cfg = config_path()
        samples_path = str(tmp_path / "out" / "samples.csv")
        assert main(["simulate", cfg, "--steps", "300"]) == 0
        assert main(["estimate", cfg, "--samples", samples_path]) == 0
        with_sidecar = (tmp_path / "out" / "koopman.csv").read_bytes()
        os.remove(tmp_path / "out" / "samples.meta.json")
        del rows[:]
        assert main(["estimate", cfg, "--samples", samples_path]) == 0
        assert rows == [301]  # the 301 states once, not 300 predecessors and 300 successors
        assert (tmp_path / "out" / "koopman.csv").read_bytes() == with_sidecar

    def test_default_steps_from_grid(self, config_path, tmp_path):
        cfg = config_path()
        assert main(["simulate", cfg]) == 0
        samples = load_samples(str(tmp_path / "out" / "samples.csv"))
        assert samples.n_samples == 400

    def test_sample_csv_header(self, config_path, tmp_path):
        main(["simulate", config_path(), "--steps", "5"])
        with open(tmp_path / "out" / "samples.csv") as fh:
            assert fh.readline().strip() == "x_1,x_2,y_1,y_2"


class TestSweepCommand:
    def test_exit_zero_and_report(self, config_path, capsys):
        assert main(["sweep", config_path()]) == 0
        out = capsys.readouterr().out
        assert "mean_rel_err" in out
        assert "slope" in out

    def test_exit_nonzero_on_invalid_point(self, config_path):
        cfg = config_path(
            system={
                "kind": "closed-quadratic",
                "params": {"rho": 2.0, "mu": 4.0, "c": 1.0},
                "noise": {"kind": "gaussian-iid", "std": [1.0, 1.0]},
            },
            T_grid=[120],
            divergence_threshold=1e4,
        )
        with pytest.warns(UserWarning):
            assert main(["sweep", cfg]) == 1

    def test_base_seed_override_changes_results(self, config_path, tmp_path):
        cfg = config_path()
        main(["sweep", cfg])
        first = open(tmp_path / "out" / "sweep.csv").read()
        main(["sweep", cfg, "--base-seed", "11111"])
        second = open(tmp_path / "out" / "sweep.csv").read()
        assert first != second

    def test_output_dir_override(self, config_path, tmp_path):
        alt = tmp_path / "elsewhere"
        assert main(["sweep", config_path(), "--output-dir", str(alt)]) == 0
        assert os.path.exists(alt / "sweep.csv")


class TestOtherCommands:
    def test_bounds(self, config_path, tmp_path, capsys):
        assert main(["bounds", config_path()]) == 0
        assert "violation_rate" in capsys.readouterr().out
        assert os.path.exists(tmp_path / "out" / "bounds.csv")

    def test_pf(self, config_path, tmp_path, capsys):
        assert main(["pf", config_path()]) == 0
        out = capsys.readouterr().out
        assert "duality defect" in out
        with open(tmp_path / "out" / "pf_matrix.meta.json") as fh:
            assert json.load(fh)["operator_kind"] == "perron-frobenius"

    def test_closure(self, config_path, tmp_path, capsys):
        assert main(["closure", config_path()]) == 0
        assert "defect" in capsys.readouterr().out
        data = np.genfromtxt(
            tmp_path / "out" / "closure.csv", delimiter=",", names=True
        )
        assert data["defect"].shape == (4,)

    def test_workers_flag_accepted(self, config_path):
        assert main(["sweep", config_path(), "--workers", "2"]) == 0


class TestCountFlags:
    @pytest.mark.parametrize(
        "flag, value",
        [("--steps", "0"), ("--steps", "-3"), ("--workers", "0"), ("--workers", "-2"),
         ("--workers", "abc"), ("--steps", "2.5")],
    )
    def test_non_positive_count_is_a_usage_error(self, config_path, capsys, flag, value):
        # --steps 0 used to end in a traceback naming no flag, and --workers 0
        # or -2 ran serially without a word; text that is no integer is named too
        command = "sweep" if flag == "--workers" else "simulate"
        argv = [command, config_path(), flag, value]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        message = f"argument {flag}: must be a positive integer, got '{value}'"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, value",
        [("closure", "--workers", "2"), ("simulate", "--workers", "2"),
         ("estimate", "--workers", "2"), ("estimate", "--base-seed", "7")],
    )
    def test_a_flag_the_command_does_not_read_is_a_usage_error(
        self, config_path, capsys, tmp_path, command, flag, value
    ):
        # each was accepted and ignored: only sweep, bounds and pf map, and
        # estimate draws nothing
        argv = [command, config_path(), flag, value]
        if command == "estimate":
            argv += ["--samples", str(tmp_path / "samples.csv")]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")


class TestErrorsEndInOneLine:
    """A bad config, input file or run exits 1 with one stderr line that
    names the problem; each used to end in a traceback."""

    def _fails(self, argv, capsys, message, unwritten):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"koopest {argv[0]}: ") and message in err
        for path in unwritten:
            assert not os.path.exists(path)
        return err

    def test_bounds_without_ground_truth(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["bounds", "configs/vanderpol.yaml", "--output-dir", str(out)]
        self._fails(argv, capsys, "bound calibration needs a ground-truth operator",
                    [out / "bounds.csv"])

    def test_estimate_below_the_sample_floor(self, config_path, tmp_path, capsys):
        cfg = config_path()
        assert main(["simulate", cfg, "--steps", "5"]) == 0
        capsys.readouterr()
        argv = ["estimate", cfg, "--samples", str(tmp_path / "out" / "samples.csv")]
        self._fails(argv, capsys, "more than 2N+2 = 10 samples for N = 4; got 5",
                    [tmp_path / "out" / "koopman.csv", tmp_path / "out" / "bounds.csv"])

    def test_samples_with_only_a_header(self, config_path, tmp_path, capsys):
        samples = tmp_path / "h.csv"
        samples.write_text("x_1,x_2,y_1,y_2\n")
        argv = ["estimate", config_path(), "--samples", str(samples)]
        # numpy's "loadtxt: input contained no data" warning used to print
        # two more lines before the error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._fails(argv, capsys, f"{samples}: expected rows of 4 numbers under its header",
                        [tmp_path / "out" / "koopman.csv"])

    def test_samples_of_another_width(self, config_path, tmp_path, capsys):
        # used to end in "sample dimension does not match the dictionary",
        # naming neither the file nor a width
        samples = tmp_path / "wide.csv"
        samples.write_text("x_1,x_2,x_3,y_1,y_2,y_3\n" + "0.1,0.2,0.3,0.4,0.5,0.6\n" * 20)
        argv = ["estimate", config_path(), "--samples", str(samples)]
        message = f"{samples} holds states of width 3, the dictionary takes width 2"
        self._fails(argv, capsys, message, [tmp_path / "out" / "koopman.csv"])

    @pytest.mark.parametrize(
        "sidecar, message",
        [("{seed: 1}", "samples.meta.json: Expecting property name"),
         ('["a"]', "samples.meta.json: a sidecar must hold a JSON object, got list")],
        ids=["malformed", "not-an-object"],
    )
    def test_bad_samples_sidecar(self, config_path, tmp_path, capsys, sidecar, message):
        # the first named no file, the second ended in an AttributeError traceback
        cfg = config_path()
        assert main(["simulate", cfg, "--steps", "50"]) == 0
        capsys.readouterr()
        (tmp_path / "out" / "samples.meta.json").write_text(sidecar)
        argv = ["estimate", cfg, "--samples", str(tmp_path / "out" / "samples.csv")]
        self._fails(argv, capsys, str(tmp_path / "out" / message),
                    [tmp_path / "out" / "koopman.csv"])

    def test_missing_config_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["bounds", str(tmp_path / "missing.yaml"), "--output-dir", str(out)]
        self._fails(argv, capsys, f"No such file or directory: '{tmp_path / 'missing.yaml'}'",
                    [out / "bounds.csv"])

    def test_unknown_config_key(self, config_path, tmp_path, capsys):
        argv = ["bounds", config_path(n_realisations=3)]
        self._fails(argv, capsys, "unknown key 'n_realisations' in config",
                    [tmp_path / "out" / "bounds.csv"])

    @pytest.mark.parametrize("text", ["- 1\n- 2\n", ""], ids=["list", "empty"])
    def test_config_that_is_not_a_mapping(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        out = tmp_path / "out"
        argv = ["sweep", str(path), "--output-dir", str(out)]
        self._fails(argv, capsys, f"{path} does not contain a mapping", [out / "sweep.csv"])

    def test_config_that_is_not_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("T_grid: [200\n")
        out = tmp_path / "out"
        argv = ["sweep", str(path), "--output-dir", str(out)]
        # it used to end in a yaml.parser.ParserError traceback
        err = self._fails(argv, capsys, f"{path} is not valid YAML: ", [out / "sweep.csv"])
        assert f'in "{path}", line 1, column 9' in err


# prints which of scipy, the thread pool, orjson and subprocess (which the
# kernel's compile imports) the interpreter has loaded
_HEAVY = """
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"
             or m in ("orjson", "concurrent.futures.thread", "subprocess")))
"""
_GCC = shutil.which("gcc") is not None


class TestColdStart:
    """Set-up, and a command that neither solves nor maps, start on numpy
    alone: scipy's LAPACK and the thread pool load when first used, orjson
    at the first float-table write (``simulate`` writes samples), and the
    kernel is compiled at the first stepping call (``simulate`` steps): set-up
    and a failed load start no compiler."""

    @pytest.mark.parametrize(
        "step, loaded",
        [
            ("import koopest\n"
             "from koopest.experiments import build_dictionary, build_domain, build_system\n"
             "c = koopest.load_config('configs/smoke.yaml')\n"
             "build_system(c), build_dictionary(c), build_domain(c)", "[]"),
            ("from koopest.cli import main\n"
             "assert main(['simulate', 'configs/smoke.yaml', '--steps', '50',\n"
             "             '--output-dir', sys.argv[1]]) == 0",
             "['orjson', 'subprocess']" if _GCC else "['orjson']"),
            ("from koopest.cli import main\n"
             "assert main(['bounds', sys.argv[2]]) == 1", "[]"),
        ],
        ids=["set-up", "simulate", "fails-at-load"],
    )
    def test_loads_neither_scipy_nor_the_pool(self, fresh_python, config_path, tmp_path,
                                              step, loaded):
        bad = config_path(n_realisations=3)
        out = fresh_python("-c", "import sys\n" + step + _HEAVY, str(tmp_path / "run"), bad)
        assert out.splitlines()[-1] == loaded

    def test_fresh_bounds_bytes_equal_across_workers(self, fresh_python, tmp_path):
        # the first map of a fresh run starts its pool before any solve
        written = []
        for workers in ("1", "2"):
            out = tmp_path / f"workers{workers}"
            fresh_python("-m", "koopest", "bounds", "configs/smoke.yaml",
                         "--workers", workers, "--output-dir", str(out))
            written.append((out / "bounds.csv").read_bytes())
        assert written[0] == written[1]

    @pytest.mark.skipif(not _GCC, reason="needs a C compiler")
    def test_fresh_sweep_compiles_once_in_the_parent(self, fresh_python, tmp_path):
        # the kernel is loaded before the map, so its threads never compile it
        # at once; each compile appends the pid that started it to a log
        script = (
            "import os, subprocess, sys\n"
            "from koopest.cli import main\n"
            "run = subprocess.run\n"
            "def logged(*args, **kwargs):\n"
            "    with open(sys.argv[2], 'a') as fh:\n"
            "        fh.write(f'{os.getpid()}\\n')\n"
            "    return run(*args, **kwargs)\n"
            "subprocess.run = logged\n"
            "assert main(['sweep', 'configs/smoke.yaml', '--workers', sys.argv[3],\n"
            "             '--output-dir', sys.argv[1]]) == 0\n"
            "print(os.getpid(), 'concurrent.futures.thread' in sys.modules)\n"
        )
        written = []
        for workers in ("1", "2"):
            out, log = tmp_path / workers, tmp_path / f"compiles{workers}.log"
            pid, pooled = fresh_python("-c", script, str(out), str(log), workers).split()[-2:]
            assert log.read_text().split() == [pid]
            assert pooled == str(workers == "2")
            written.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
        assert written[0] == written[1] and len(written[0]) == 2


class TestKernelFallback:
    """Without a working compiler the Python kernel steps, writes the bytes
    of the compiled kernel, and the sidecars say why."""

    @pytest.mark.skipif(not _GCC, reason="needs a C compiler for the bytes to compare")
    @pytest.mark.parametrize(
        "found, reason",
        [(None, "no C compiler found"), ("false", "gcc exited with status 1"),
         ("true", "the library gcc built did not load")],
        ids=["no-compiler", "compile-fails", "library-will-not-load"],
    )
    def test_fallback_writes_the_compiled_bytes(self, tmp_path, compiler, found, reason):
        commands = [["sweep", "configs/smoke.yaml"], ["bounds", "configs/smoke.yaml"],
                    ["simulate", "configs/vanderpol.yaml", "--steps", "3000"]]
        written, stepping = [], []
        for side in ("compiled", "python"):
            if side == "python":
                compiler(found and shutil.which(found))
            out = tmp_path / side
            for argv in commands:
                assert main([*argv, "--output-dir", str(out)]) == 0
            written.append({p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))})
            stepping.append({json.loads((out / name).read_text())["stepping"]
                             for name in ("sweep.meta.json", "bounds.meta.json")})
        assert stepping == [{"compiled (gcc -O2 -ffp-contract=off)"}, {f"python: {reason}"}]
        assert written[0] == written[1] and len(written[0]) == 4
