"""CLI driver: report schema, serialization, exit codes, config handling."""

import ast
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from focktrace import _kernels, cli
from focktrace.cli import ConfigError, main, run_experiment, write_report
from focktrace.core import SpherePolynomial, TermSum, sphere_integral
from focktrace.spectral import commutator_config, hankel_config
from focktrace.sphere_calculus import ConvergenceError
from focktrace.symbols import RadialSymbol

_U = RadialSymbol.radial_power(1, -1.0).to_json_dict()
# a mixed-trace case that passes: the Toeplitz chain T_u T_u in one variable
_CHAIN_CASE = {"n": 1, "toeplitz_factors": [_U, _U], "K_degree": 4096}
FAST_MODEL_CFG = {"n": 1, "gamma": 1.0, "K_ranks": 1 << 16,
                  "window": [1 << 15, (1 << 16) - 1],
                  "grid": [2**e for e in range(10, 17, 2)]}


def _z_over_w(**changes):
    """hankel-trace's default symbol z w^-1 in JSON form, one term's fields
    (or, with n=, the symbol's n) replaced."""
    term = dict({"c": [1, 0], "p": [1], "q": [0], "t": -1}, **changes)
    return {"n": term.pop("n", 1), "terms": [term]}


# numbers of a symbol's JSON form and gamma follow the config number rules;
# each is refused with an error line that names its config key
_NUMBER_CASES = [
    ("hankel-trace", {"f": _z_over_w(p=[1.5]), "K_degree": 65536}, "f"),
    ("hankel-trace", {"f": _z_over_w(p=[True]), "K_degree": 65536}, "f"),
    ("hankel-trace", {"g": _z_over_w(n=1.7), "K_degree": 65536}, "g"),
    ("hankel-trace", {"f": _z_over_w(t=math.nan), "K_degree": 65536}, "f"),
    ("hankel-trace", {"f": _z_over_w(c=[math.nan, 0]), "K_degree": 65536}, "f"),
    ("hankel-trace", {"f": _z_over_w(c=[1, 0, 5]), "K_degree": 65536}, "f"),
    ("model-operator", {"gamma": "2", "K_ranks": 65536}, "gamma"),
    ("model-operator", {"gamma": True, "K_ranks": 65536}, "gamma"),
]


def test_model_operator_report_shape():
    rep = run_experiment("model-operator", FAST_MODEL_CFG)
    assert rep["schema"] == 1
    assert rep["experiment"] == "model-operator"
    assert rep["passed"]
    names = {c["name"] for c in rep["checks"]}
    assert names == {"pointwise-median", "extrapolated-log-mean"}
    for c in rep["checks"]:
        assert set(c) >= {"name", "computed", "target", "deviation",
                          "abs_deviation", "tolerance", "tolerance_kind", "pass"}
        assert c["deviation"] == pytest.approx(
            abs(c["computed"] - c["target"]) / max(abs(c["target"]), 1e-12))
    diags = rep["diagnostics"]
    assert diags["estimate_method"] == "extrapolated"
    assert diags["grid"] == FAST_MODEL_CFG["grid"]
    assert diags["estimate_K"] == FAST_MODEL_CFG["grid"][-1]
    assert diags["certificate"] == "monotone-tail"
    assert rep["timing_seconds"] > 0


def test_a_rising_tail_is_reported_and_refuses_the_auto_grid(tmp_path, capsys):
    # (1+|z|^2)^-n - 50 (1+|z|^2)^-n-1 at K_degree 60: the moduli rise over
    # the last 5% of degrees.  With a grid the check runs and records the
    # certificate as unverified; at n = 2 the default grid, which reads the
    # certified rank, is refused, naming the rising tail
    def symbol(n):
        return (RadialSymbol.radial_power(n, -2.0 * n)
                - 50 * RadialSymbol.radial_power(n, -2.0 * n - 2)).to_json_dict()

    rep = run_experiment("toeplitz-trace", {"n": 1, "f": symbol(1),
                                            "K_degree": 60, "grid": [8, 16, 32]})
    assert rep["diagnostics"]["certificate"] == "unverified"
    assert rep["diagnostics"]["certified_rank"] == 0
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"n": 2, "f": symbol(2), "K_degree": 60}))
    assert main(["--experiment", "toeplitz-trace", "--config", str(cfgp),
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "rises" in capsys.readouterr().err


def test_unknown_experiment_rejected():
    with pytest.raises(ConfigError):
        run_experiment("nope", {})


def test_symbol_config_validation():
    bad = dict(FAST_MODEL_CFG)
    cfg = {"n": 2, "f": {"n": 1, "terms": [{"c": [1, 0], "p": [0], "q": [0],
                                           "t": -2.0}]}}
    with pytest.raises(ConfigError):
        run_experiment("toeplitz-trace", cfg)
    cfg2 = {"n": 2, "f": RadialSymbol.radial_power(2, -2.0).to_json_dict()}
    with pytest.raises(ConfigError):
        # order -2 is not -2n for n=2
        run_experiment("toeplitz-trace", cfg2)


def test_mixed_trace_homogeneity_validation():
    u = RadialSymbol.radial_power(1, -1.0).to_json_dict()
    case = {"n": 1, "toeplitz_factors": [u], "label": "bad"}
    with pytest.raises(ConfigError):
        run_experiment("mixed-trace", {"cases": [case]})


def test_mixed_trace_without_cases_exits_2(tmp_path, capsys, monkeypatch):
    # no case would be no check, and a report that passes with none: the
    # empty list is refused before any spectrum, and no report is written
    def no_spectrum(*args):
        raise AssertionError("spectrum computed before the config was checked")
    monkeypatch.setattr("focktrace.cli.diagonal_spectrum", no_spectrum)
    p = tmp_path / "cfg.json"
    p.write_text('{"cases": []}')
    out = tmp_path / "r.json"
    assert main(["--experiment", "mixed-trace", "--config", str(p),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid cases"), err
    assert not out.exists()


def test_report_float_formatting(tmp_path):
    rep = {"schema": 1, "x": 1 / 3, "nested": {"y": [2.0, 1e-17]},
           "f64": np.float64(2.0) / 3, "flag": True, "none": None, "i": 7}
    out = tmp_path / "r.json"
    write_report(rep, out)
    parsed = json.loads(out.read_text())
    assert parsed["x"].hex() == (1 / 3).hex()
    assert parsed["nested"]["y"][1].hex() == (1e-17).hex()
    assert parsed["f64"].hex() == float(np.float64(2.0) / 3).hex()
    assert parsed["flag"] is True and parsed["none"] is None
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            write_report({"x": bad}, tmp_path / "bad.json")
    # a value of no JSON type is an error, not written as its str()
    for bad in (np.int64(7), 0.5 - 1e-17j, complex(0.0, -math.inf)):
        with pytest.raises(TypeError):
            write_report({"x": bad}, tmp_path / "bad.json")


def test_cli_main_pass_and_csv(tmp_path, capsys):
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(FAST_MODEL_CFG))
    out = tmp_path / "rep.json"
    code = main(["--experiment", "model-operator", "--config", str(cfgp),
                 "--out", str(out), "--csv-spectra", str(tmp_path / "spectra")])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True
    assert rep["spectra_csv"]
    with open(rep["spectra_csv"][0]) as fh:
        assert fh.readline() == "first_rank,multiplicity,value\n"
    err = capsys.readouterr().err
    assert "[PASS]" in err


def test_cli_main_quantitative_failure(tmp_path):
    cfg = dict(FAST_MODEL_CFG, tol_pointwise=1e-12)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(cfg))
    code = main(["--experiment", "model-operator", "--config", str(cfgp),
                 "--out", str(tmp_path / "rep.json")])
    assert code == 1


def test_cli_main_config_error(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert main(["--experiment", "model-operator", "--config", str(p),
                 "--out", str(tmp_path / "r.json")]) == 2
    cfgp = tmp_path / "cfg2.json"
    cfgp.write_text(json.dumps({"n": 2, "f": {"n": 1, "terms": []}}))
    assert main(["--experiment", "toeplitz-trace", "--config", str(cfgp),
                 "--out", str(tmp_path / "r2.json")]) == 2


@pytest.mark.parametrize("experiment, cfg", [
    ("hankel-trace", '{"n": 0}'),
    ("hankel-trace", '{"gamma": 0}'),
    ("hankel-trace", '{"gamma": -1}'),
    ("hankel-trace", '{"gamma": NaN}'),
    ("hankel-trace", '{"gamma": Infinity}'),
    ("hankel-trace", '{"K_degree": -5}'),
    ("hankel-trace", '{"K_degree": "abc"}'),
    ("hankel-trace", '{"grid": [4, 8]}'),
    ("model-operator", '{"K_ranks": "abc"}'),
    ("model-operator", '{"K_ranks": 4096, "window": [10, 20], "grid": [4, 8]}'),
    ("mixed-trace", '{"cases": 3}'),
    ("model-operator", '{"window": ["a", 2], "K_ranks": 4096}'),
    ("hankel-trace", '{"tolerance": "x", "K_degree": 65536}'),
    ("model-operator", '{"tol_pointwise": "x", "K_ranks": 4096}'),
    ("commutator-trace", '{"pairs": 3}'),
    ("commutator-trace", '{"pairs": [[1]]}'),
    ("mixed-trace", '{"cases": [{"hankel_pairs": 5}]}'),
    ("mixed-trace", '{"cases": [{"toeplitz_factors": 7}]}'),
    ("mixed-trace", '{"cases": [{"hankel_pairs": [[1, 2, 3]]}]}'),
    # a config is a JSON object
    ("model-operator", '[["n", 2]]'),
    ("calculus-check", '"abc"'),
    # a tolerance is a finite number >= 0
    pytest.param("hankel-trace", '{"tolerance": 1%s}' % ("0" * 400),
                 id="hankel-trace-tolerance-10^400"),
    ("model-operator", '{"K_ranks": 65536, "tol_extrapolated": NaN}'),
    # a non-finite number is refused where the config is read, in any key
    ("model-operator", '{"K_ranks": 65536, "note": NaN}'),
    ("model-operator", '{"K_ranks": 65536, "note": -Infinity}'),
    ("model-operator", '{"K_ranks": 65536, "note": [1e400]}'),
    ("hankel-trace", '{"tolerance": -0.5, "K_degree": 65536}'),
    # an integer option that is not a whole number is refused, not truncated
    ("hankel-trace", '{"n": 2.5}'),
    ("hankel-trace", '{"n": true}'),
    ("hankel-trace", '{"K_degree": 65536.5}'),
    ("model-operator", '{"K_ranks": 65536.5}'),
    ("model-operator", '{"window": [64.9, 128]}'),
    ("hankel-trace", '{"grid": [64.9, 128, 256]}'),
    pytest.param("mixed-trace",
                 json.dumps({"cases": [dict(_CHAIN_CASE, K_degree=65536.5)]}),
                 id='mixed-trace-{"cases": [{"K_degree": 65536.5, ...}]}'),
    *[(experiment, json.dumps(cfg)) for experiment, cfg, _key in _NUMBER_CASES],
])
def test_cli_bad_config_exits_2_with_one_error_line(tmp_path, capsys,
                                                    experiment, cfg):
    # an exception escaping main would fail here: no traceback is printed
    p = tmp_path / "cfg.json"
    p.write_text(cfg)
    assert main(["--experiment", experiment, "--config", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("experiment, cfg, key", _NUMBER_CASES)
def test_bad_symbol_or_gamma_number_names_its_key(experiment, cfg, key):
    with pytest.raises(ConfigError, match=f"^invalid {key}: "):
        run_experiment(experiment, cfg)


@pytest.mark.parametrize("experiment, cfg", [
    ("hankel-trace", {"tolerance": "x"}),
    ("model-operator", {"tol_pointwise": "x"}),
    ("model-operator", {"tol_extrapolated": "x"}),
    ("model-operator", {"n": 2, "tol_extrapolated": "x"}),
    ("model-operator", {"window": ["a", 2]}),
    ("hankel-trace", {"grid": "x"}),
    ("hankel-trace", {"grid": [64.9, 128, 256]}),
    ("hankel-trace", {"K_degree": 2.9}),
    ("hankel-trace", {"n": 2.5}),
    ("model-operator", {"K_ranks": True}),
    ("model-operator", {"window": [64.9, 128]}),
    ("model-operator", {"tol_pointwise": math.nan}),
    # a bad second case is refused before the first case's spectrum
    ("mixed-trace", {"cases": [_CHAIN_CASE, dict(_CHAIN_CASE, tolerance="x")]}),
    ("mixed-trace", {"cases": [_CHAIN_CASE, dict(_CHAIN_CASE, grid="x")]}),
    ("mixed-trace", {"cases": [_CHAIN_CASE, dict(_CHAIN_CASE, K_degree=2.9)]}),
    ("mixed-trace", {"cases": [_CHAIN_CASE,
                               dict(_CHAIN_CASE, toeplitz_factors=[_U])]}),
])
def test_bad_tolerance_or_window_refused_before_the_spectrum(monkeypatch,
                                                             experiment, cfg):
    def no_spectrum(*args):
        raise AssertionError("spectrum computed before the config was checked")
    monkeypatch.setattr("focktrace.cli.diagonal_spectrum", no_spectrum)
    with pytest.raises(ConfigError):
        run_experiment(experiment, cfg)


# one misspelt key per experiment, and a key read only at another n
_UNREAD_KEYS = [
    ("model-operator", {"K_rank": 4096}, "'K_rank'"),
    ("model-operator", {"n": 2, "K_ranks": 4096}, "'K_ranks'"),
    ("toeplitz-trace", {"K_degre": 100}, "'K_degre'"),
    ("hankel-trace", {"tolerence": 0.1}, "'tolerence'"),
    ("commutator-trace", {"pair": []}, "'pair'"),
    ("mixed-trace", {"case": []}, "'case'"),
    ("mixed-trace", {"cases": [_CHAIN_CASE, dict(_CHAIN_CASE, label="chain2",
                                                 K_degre=10)]},
     "'K_degre' in case 'chain2'"),
    ("calculus-check", {"gama": 2.0}, "'gama'"),
    # its checks run at fixed n, so n is not a key it reads
    ("calculus-check", {"n": 2}, "'n'"),
]


@pytest.mark.parametrize("experiment, cfg, named", _UNREAD_KEYS)
def test_unread_config_key_exits_2_naming_it(tmp_path, capsys, monkeypatch,
                                             experiment, cfg, named):
    # refused before any spectrum or star product, with one error line that
    # names the key (and the case of a mixed-trace case key)
    def not_yet(*args):
        raise AssertionError("work done before the config was checked")
    monkeypatch.setattr("focktrace.cli.diagonal_spectrum", not_yet)
    monkeypatch.setattr("focktrace.cli.star", not_yet)
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(cfg))
    assert main(["--experiment", experiment, "--config", str(p)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: unknown config key "), err
    assert named in err[0], err


def test_cli_main_rejects_unknown_experiment():
    with pytest.raises(SystemExit) as exc:
        main(["--experiment", "bogus"])
    assert exc.value.code == 2


def test_reports_deterministic():
    rep1 = run_experiment("model-operator", FAST_MODEL_CFG, seed=3)
    rep2 = run_experiment("model-operator", FAST_MODEL_CFG, seed=3)
    for c1, c2 in zip(rep1["checks"], rep2["checks"]):
        assert c1["computed"] == c2["computed"]
        assert c1["target"] == c2["target"]
    repa = run_experiment("calculus-check", None, seed=5)
    repb = run_experiment("calculus-check", None, seed=5)
    for c1, c2 in zip(repa["checks"], repb["checks"]):
        assert c1["computed"] == c2["computed"]


@pytest.mark.parametrize("seed", [0, 1])
def test_calculus_check_computes_the_bits_of_the_per_point_forms(monkeypatch,
                                                                  seed):
    # evaluation, Berezin symbols and pairing limits as they were computed,
    # one point and one matrix at a time in numpy complex arithmetic
    def bits(report):
        return [c["computed"].hex() for c in report["checks"]]

    def berezin(ctx, mats, w):
        return [oracles.berezin(ctx, M, w) for M in mats]

    def limits(f, g, pts, exponent):
        return [oracles.boundary_pairing_limit(f, g, zeta, exponent)
                for zeta in pts]

    fast = bits(run_experiment("calculus-check", seed=seed))
    monkeypatch.setattr(TermSum, "evaluate", oracles.evaluate)
    monkeypatch.setattr(cli, "berezin", berezin)
    monkeypatch.setattr(cli, "boundary_pairing_limit", limits)
    assert bits(run_experiment("calculus-check", seed=seed)) == fast


_CHILD_CHECKS = ["star-associativity", "star-conjugation", "star-unit",
                 "generator-commutators", "heat-roundtrip"]
_forks = pytest.mark.skipif(sys.platform != "linux" or not hasattr(os, "fork"),
                            reason="calculus-check forks only on Linux")


def _check_bits(report):
    return [(c["name"], c["computed"].hex()) for c in report["checks"]]


@_forks
@pytest.mark.parametrize("seed", range(4))
def test_calculus_check_has_the_same_bits_without_fork(monkeypatch, seed):
    # without os.fork the child's group runs here after the parent's: the
    # checks and their order are the same, and so is every computed bit
    forked = run_experiment("calculus-check", seed=seed)
    monkeypatch.delattr(os, "fork")
    alone = run_experiment("calculus-check", seed=seed)
    assert _check_bits(alone) == _check_bits(forked)
    assert forked["diagnostics"]["forked"] and not alone["diagnostics"]["forked"]
    for rep in (forked, alone):
        assert rep["diagnostics"]["child_checks"] == _CHILD_CHECKS


@pytest.mark.parametrize("why", ["another platform", "another thread"])
def test_calculus_check_forks_only_on_linux_with_one_thread(monkeypatch, why):
    # a fork copies only the calling thread, and macOS's system libraries
    # are not fork-safe: both groups then run here, to the same bits
    expect = _check_bits(run_experiment("calculus-check", seed=1))
    if why == "another platform":
        monkeypatch.setattr(sys, "platform", "darwin")
        rep = run_experiment("calculus-check", seed=1)
    else:
        done = threading.Event()
        other = threading.Thread(target=done.wait)
        other.start()
        try:
            rep = run_experiment("calculus-check", seed=1)
        finally:
            done.set()
            other.join()
    assert not rep["diagnostics"]["forked"]
    assert _check_bits(rep) == expect


@_forks
def test_calculus_check_starts_no_thread_after_the_fork(monkeypatch):
    # OpenBLAS stops its worker threads at a fork and starts them again at
    # the next threaded call; the checks that make one run before the fork,
    # so neither group starts a thread that would spin on the other's CPU
    def threads():
        return len(os.listdir("/proc/self/task"))

    def counted(run):
        def wrapped():
            before = threads()
            result = run()
            return result, before, threads()
        return wrapped

    seen = {}
    real = cli._in_two_processes

    def split(here, forked):
        (mine, *seen["here"]), (theirs, *seen["child"]) = real(
            counted(here), counted(forked))
        return mine, theirs

    monkeypatch.setattr(cli, "_in_two_processes", split)
    assert run_experiment("calculus-check")["diagnostics"]["forked"]
    assert seen["child"] == [1, 1]
    assert seen["here"][1] == seen["here"][0]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@_forks
def test_calculus_check_child_error_reaches_the_caller(monkeypatch):
    # only the child's group compares symbols by _sym_rel_dev
    def boom(*args, **kwargs):
        raise ConvergenceError("boom")

    monkeypatch.setattr(cli, "_sym_rel_dev", boom)
    with pytest.raises(ConvergenceError) as exc:
        run_experiment("calculus-check")
    assert exc.value.args == ("boom",)
    if hasattr(exc.value, "add_note"):
        assert "in the forked child" in exc.value.__notes__[0]
        assert "boom" in exc.value.__notes__[0]
    _no_child_left()


def test_calculus_check_parent_error_kills_the_child(monkeypatch):
    # only the parent's group calls sphere_laplacian; the child, still
    # running its checks, is killed and reaped
    def boom(P):
        raise ArithmeticError("parent boom")

    monkeypatch.setattr(cli, "sphere_laplacian", boom)
    with pytest.raises(ArithmeticError) as exc:
        run_experiment("calculus-check")
    assert exc.value.args == ("parent boom",)
    _no_child_left()


@_forks
def test_calculus_check_child_that_dies_is_an_error(monkeypatch):
    # a child that exits without a result (here by os._exit in its group)
    monkeypatch.setattr(cli, "_sym_rel_dev", lambda *args: os._exit(3))
    with pytest.raises(RuntimeError, match="exited with code 3 and no result"):
        run_experiment("calculus-check")
    _no_child_left()


@_forks
def test_calculus_check_child_result_that_cannot_be_pickled(monkeypatch):
    # the child's failure to send its result reaches the caller by repr
    monkeypatch.setattr(cli, "_heat_roundtrip_check",
                        lambda gamma, sums: [lambda: None])
    with pytest.raises(RuntimeError, match="could not send .*lambda"):
        run_experiment("calculus-check")
    _no_child_left()


def test_non_diagonal_configuration_refused_with_guidance():
    # order -2n but with a nonzero monomial shift: not diagonal
    f = (RadialSymbol.coordinate(2, 1)
         * RadialSymbol.coordinate(2, 2, conjugated=True)
         * RadialSymbol.radial_power(2, -6.0))
    with pytest.raises(ConfigError, match="shift-cancelling .monomial-diagonal."):
        run_experiment("toeplitz-trace", {"n": 2, "f": f.to_json_dict(),
                                          "K_degree": 50})


def _src_dir():
    import focktrace
    return os.path.dirname(os.path.dirname(focktrace.__file__))


def test_cli_import_does_not_load_scipy():
    # scipy is a test dependency: only the quadrature oracles in tests/ use it
    env = dict(os.environ, PYTHONPATH=_src_dir())
    code = ("import sys, focktrace.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_cli_import_does_not_load_dataclasses():
    # the package's classes are plain classes: generating dataclass methods
    # was most of the import's own time
    env = dict(os.environ, PYTHONPATH=_src_dir())
    code = "import sys, focktrace.cli; print('dataclasses' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_cli_import_does_not_load_argparse_or_json():
    # only main parses arguments and reads a config, only write_report
    # writes JSON: a process that runs experiments as a library loads
    # neither, nor argparse's gettext
    env = dict(os.environ, PYTHONPATH=_src_dir())
    code = ("import sys, focktrace.cli; "
            "print([m for m in ('argparse', 'gettext', 'json') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_only_main_freezes_the_heap(tmp_path):
    # the CLI entry point freezes the import-time heap, so exit and full
    # collections skip it; importing the package or running an experiment
    # as a library leaves the collector alone
    env = dict(os.environ, PYTHONPATH=_src_dir())
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps(FAST_MODEL_CFG))
    code = ("import gc, json, sys; from focktrace import cli; "
            "counts = [gc.get_freeze_count()]; "
            "cli.run_experiment('model-operator', json.loads(sys.argv[1])); "
            "counts.append(gc.get_freeze_count()); "
            "cli.main(['--experiment', 'model-operator', '--config', sys.argv[2], "
            "'--out', sys.argv[3]]); "
            "counts.append(gc.get_freeze_count()); print(json.dumps(counts))")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(FAST_MODEL_CFG),
                          str(cfgp), str(tmp_path / "report.json")],
                         env=env, check=True, capture_output=True, text=True).stdout
    after_import, after_run, after_main = json.loads(out)
    assert after_import == 0 and after_run == 0
    assert after_main > 0


def test_spectral_experiment_does_not_load_numpy_random():
    # only calculus-check draws random numbers, so only it builds a generator
    env = dict(os.environ, PYTHONPATH=_src_dir())
    eager = subprocess.run(
        [sys.executable, "-c",
         "import sys, numpy; print('numpy.random' in sys.modules)"],
        check=True, capture_output=True, text=True).stdout
    if eager.strip() == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    code = ("import json, sys; from focktrace.cli import run_experiment; "
            "run_experiment('model-operator', json.loads(sys.argv[1])); "
            "print('numpy.random' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, json.dumps(FAST_MODEL_CFG)],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_benchmark_tracer_hooks_resolve():
    # perfbench/tracer.py wraps focktrace's functions where their callers look
    # them up; a deleted or renamed name would break the traced benchmark
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    env = dict(os.environ, PYTHONPATH=_src_dir())
    code = """if True:
        import json, sys
        sys.path.insert(0, sys.argv[1])
        from tracer import Tracer
        from focktrace import cli
        tracer = Tracer()
        tracer.install()
        entered = {}
        for experiment, cfg in json.loads(sys.argv[2]):
            before = dict(tracer.calls)
            cli.run_experiment(experiment, cfg)
            entered[experiment] = [
                name for name in ("sphere_calculus", "symbolic.leading")
                if tracer.calls.get(name, 0) > before.get(name, 0)]
        print(json.dumps([tracer.summary()["calls"], entered]))
    """
    small = {"K_degree": 1024, "grid": [64, 128, 256]}
    cases = [dict(cli._default_mixed_cases()[0], K_degree=40, grid=[64, 128, 256]),
             dict(_CHAIN_CASE, **small)]
    runs = [("model-operator", FAST_MODEL_CFG), ("calculus-check", {}),
            ("hankel-trace", small), ("commutator-trace", small),
            ("mixed-trace", {"cases": cases})]
    out = subprocess.run([sys.executable, "-c", code, perfbench,
                          json.dumps(runs)], env=env, check=True,
                         capture_output=True, text=True).stdout
    calls, entered = json.loads(out)
    assert calls["cli.run_experiment"] == 5
    assert calls["spectral.diagonal_spectrum"] == 5
    # each trace target passes through the patched _leading, and each
    # Hankel or commutator form through the patched sphere calculus: a form
    # bound where the tracer cannot see it would drop its span here
    both = ["sphere_calculus", "symbolic.leading"]
    assert entered == {"model-operator": ["symbolic.leading"],
                       "calculus-check": ["sphere_calculus"],
                       "hankel-trace": both, "commutator-trace": both,
                       "mixed-trace": both}
    # the symbolic-dense workload's layers: a hook that no longer reaches
    # its function would leave these at zero
    for layer in ("weyl_calculus.star", "weyl_calculus.heat",
                  "fock_matrices.dense", "core.sphere_norm_sq",
                  "sphere_calculus"):
        assert calls.get(layer, 0) >= 1, layer


# src/ definitions that src/ never names, kept because the benchmark reaches
# them: each with the perfbench file that uses it
_PERFBENCH_ENTRY_POINTS = {"ladder_row": "tracer.py", "pair_rows": "tracer.py",
                           "merge": "child.py", "scaled": "child.py"}


def test_every_src_definition_is_named_in_src():
    # a function or class that no src/ code names (a Name, an Attribute or an
    # import) is reached only from tests, whose oracles belong in tests/;
    # special methods are named by the language
    src = os.path.join(_src_dir(), "focktrace")
    defined, named = {}, set()
    for fname in sorted(os.listdir(src)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(src, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defined.setdefault(node.name, fname)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unnamed = sorted(f"{fname}: {name}" for name, fname in defined.items()
                     if name not in named and name not in _PERFBENCH_ENTRY_POINTS)
    assert unnamed == []
    perfbench = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "perfbench")
    for name, user in _PERFBENCH_ENTRY_POINTS.items():
        assert name in defined, name
        with open(os.path.join(perfbench, user)) as fh:
            assert re.search(rf"\b{name}\b", fh.read()), (name, user)


def test_spectral_experiment_does_not_load_mpmath():
    # mpmath is a test dependency: the base moments are evaluated with decimal
    env = dict(os.environ, PYTHONPATH=_src_dir())
    code = ("import json, sys; from focktrace.cli import run_experiment; "
            "run_experiment('hankel-trace', json.loads(sys.argv[1])); "
            "print('mpmath' in sys.modules)")
    cfg = {"K_degree": 1 << 14, "grid": [2**e for e in range(8, 15)]}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(cfg)],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_model_operator_does_not_load_numpy_ma():
    # the pointwise median is taken without np.median, whose NaN check
    # imports numpy.ma
    env = dict(os.environ, PYTHONPATH=_src_dir())
    code = ("import json, sys; from focktrace.cli import run_experiment; "
            "run_experiment('model-operator', json.loads(sys.argv[1])); "
            "print('numpy.ma' in sys.modules)")
    cfg = {"K_ranks": 1 << 14, "window": [1 << 12, 1 << 13],
           "grid": [2**e for e in range(8, 15, 2)]}
    out = subprocess.run([sys.executable, "-c", code, json.dumps(cfg)],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_commutator_trace_default_at_n2_passes():
    # the default pairs (z_j w, conj(z_j) w), j = 1, 2: target 1/12
    rep = run_experiment("commutator-trace", {"n": 2, "K_degree": 1000})
    (c,) = rep["checks"]
    assert c["target"] == pytest.approx(1 / 12, rel=1e-12)
    assert c["pass"] and c["tolerance_kind"] == "relative"


def test_zero_target_check_has_no_relative_deviation(tmp_path):
    rep = run_experiment("commutator-trace", {"K_degree": 1 << 14,
                                              "grid": [2**e for e in range(8, 15)]})
    (c,) = rep["checks"]
    assert c["tolerance_kind"] == "absolute-zero-target"
    assert c["target"] == 0.0 and c["pass"]
    assert c["deviation"] is None
    assert c["abs_deviation"] == abs(c["computed"]) > 0
    path = tmp_path / "report.json"
    write_report(rep, str(path))
    assert json.loads(path.read_text())["checks"][0]["deviation"] is None


def test_radial_spectrum_over_the_value_cap_exits_2(monkeypatch, tmp_path,
                                                    capsys):
    # the cap is checked before the first moment row is built
    def no_rows(*args):
        raise AssertionError("moment row built before the size cap")
    monkeypatch.setattr("focktrace.spectral._MAX_VALUES", 1000)
    monkeypatch.setattr("focktrace.spectral.moment_chunks", no_rows)
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"K_ranks": 1000}')  # 1001 values, one per degree
    assert main(["--experiment", "model-operator", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "radial path would materialize 1001 values" in err[0]
    # the cutoff is named by its value: model-operator reads no K_degree at
    # n = 1, and a configuration over the cap is still diagonal
    assert "at cutoff 1000," in err[0]
    assert "K_degree" not in err[0] and "shift-cancelling" not in err[0]


# the trace experiments at a cutoff where each passes: n = 2 at K_degree
# 1500, n = 1 at 2^14 ranks
_MIXED_CASES = [dict(case, K_degree=K) for case, K
                in zip(cli._default_mixed_cases(), (1500, 1 << 14))]


@pytest.mark.parametrize("experiment, cfg", [
    ("model-operator", FAST_MODEL_CFG),
    ("model-operator", {"n": 2, "K_degree": 1500}),
    ("toeplitz-trace", {"n": 2, "K_degree": 1500}),
    ("hankel-trace", {"n": 1, "K_degree": 1 << 14}),
    ("hankel-trace", {"n": 2, "K_degree": 1500}),
    ("commutator-trace", {"n": 1, "K_degree": 1 << 14}),
    ("commutator-trace", {"n": 2, "K_degree": 1500}),
    ("mixed-trace", {"cases": _MIXED_CASES}),
], ids=["model-operator-n1", "model-operator-n2", "toeplitz-trace-n2",
        "hankel-trace-n1", "hankel-trace-n2", "commutator-trace-n1",
        "commutator-trace-n2", "mixed-trace"])
def test_trace_experiments_stream_every_row_downward(monkeypatch, experiment,
                                                     cfg):
    # a row with t > 0 is joined and raised whole (fock_matrices.moment_chunks);
    # no experiment asks for one, so both routes can fail here
    def whole_row(*args):
        raise AssertionError("a moment row was joined or raised whole")
    monkeypatch.setattr(_kernels, "raise_row", whole_row)
    monkeypatch.setattr(_kernels, "joined", whole_row)
    assert run_experiment(experiment, cfg)["passed"]


@st.composite
def radial_symbols(draw, n):
    """Symbols of a few terms, each of order |p| + |q| + t near 0 or below:
    whole and half steps, arbitrary shifts and the edge of `_leading`'s
    1e-9 tolerance."""
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        p = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        q = tuple(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))
        order = draw(st.one_of(
            st.sampled_from([0.0, -0.5, -1.0, -2.0, 1e-9, 5e-10, -1e-10, 0.5]),
            st.floats(-4.0, 1.0)))
        # coefficients no sum of which is 0, so no drawn key cancels
        terms.append(((p, q, order - sum(p) - sum(q)),
                      draw(st.sampled_from([1.0, 2j, 0.3 - 0.7j]))))
    return RadialSymbol(n, terms)


def _accepted(sym):
    try:
        cli._leading(sym)
    except ConfigError:
        return False
    return True


@settings(max_examples=200, deadline=None)
@example((RadialSymbol.constant(1), RadialSymbol.radial_power(1, 1e-9)))
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(radial_symbols(n),
                                                      radial_symbols(n))))
def test_accepted_symbols_and_their_products_have_no_positive_exponent(fg):
    # every symbol an experiment accepts decays, and so does every factor of
    # the configurations built from them: each moment row they ask for has
    # t <= 0, and is streamed downward from its anchor
    f, g = fg
    for sym in (f, g):
        if _accepted(sym):
            assert all(t <= 0 for (_p, _q, t) in sym.terms)
    if _accepted(f) and _accepted(g):
        for config in (hankel_config(f, g), commutator_config(f, g)):
            assert all(t <= 0 for ch in config.chains for S in ch.factors
                       for (_p, _q, t) in S.terms)


@pytest.mark.parametrize("labels", [
    ["x", "x"], ["a/b"], [["a"]], [""], ["."], ["..", "y"], ["a\\b"],
    ["a\0b"], [3], ["case1", None],
], ids=["shared", "slash", "list", "empty", "dot", "dotdot", "backslash", "nul",
        "number", "shared-default"])
def test_mixed_trace_label_is_a_file_name_of_one_case(monkeypatch, tmp_path,
                                                      capsys, labels):
    # a label names a check and a CSV file, so it is refused, naming its
    # key, before any spectrum; a case without one is case<i>
    def no_spectrum(*args):
        raise AssertionError("spectrum computed before the labels were read")
    monkeypatch.setattr("focktrace.cli.diagonal_spectrum", no_spectrum)
    cases = [dict(_CHAIN_CASE) if x is None else dict(_CHAIN_CASE, label=x)
             for x in labels]
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"cases": cases}))
    assert main(["--experiment", "mixed-trace", "--config", str(p),
                 "--csv-spectra", str(tmp_path / "spectra")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: invalid label: "), err
    assert not (tmp_path / "spectra").exists()


def test_mixed_trace_default_labels_name_checks_and_files(tmp_path):
    cases = [dict(case, K_degree=K, grid=[64, 128, 256])
             for case, K in zip(cli._default_mixed_cases(), (40, 1024))]
    cases.append(dict(_CHAIN_CASE, K_degree=1024, grid=[64, 128, 256]))
    rep = run_experiment("mixed-trace", {"cases": cases}, csv_dir=tmp_path)
    labels = ["hankel-toeplitz", "toeplitz-chain", "case2"]
    assert [c["name"] for c in rep["checks"]] == [f"mixed-trace-{x}" for x in labels]
    assert list(rep["diagnostics"]) == labels
    assert rep["spectra_csv"] == [os.path.join(tmp_path, f"mixed-trace-{x}.csv")
                                  for x in labels]


@pytest.mark.parametrize("experiment, cfg", [
    ("model-operator", FAST_MODEL_CFG),
    ("toeplitz-trace", {"n": 2, "K_degree": 40, "grid": [64, 128, 256]}),
    ("hankel-trace", {"K_degree": 1024, "grid": [64, 128, 256]}),
    ("commutator-trace", {"K_degree": 1024, "grid": [64, 128, 256]}),
    ("mixed-trace", {"cases": [dict(_CHAIN_CASE, K_degree=1024,
                                    grid=[64, 128, 256])]}),
    ("calculus-check", {}),
])
def test_every_report_is_plain_json(tmp_path, experiment, cfg):
    # write_report has no fallback for values of other types: every report
    # holds dicts, lists, str, int, float, bool and None only
    rep = run_experiment(experiment, cfg, csv_dir=tmp_path)
    text = json.dumps(rep, allow_nan=False)
    assert json.loads(text)["experiment"] == experiment
    if experiment == "calculus-check":
        # where the time went: the checks the forked child ran, and each
        # group's wall seconds
        diags = rep["diagnostics"]
        assert diags["child_checks"] == _CHILD_CHECKS
        assert min(diags[k] for k in ("first_wall_s", "parent_wall_s",
                                      "child_wall_s")) > 0


@pytest.mark.parametrize("experiment, gamma, t", [
    ("hankel-trace", 100, -2), ("hankel-trace", 1000, -2),
    ("model-operator", 300, -2),
])
def test_large_gamma_rows_are_refused(tmp_path, capsys, experiment, gamma, t):
    # moment rows lose their accuracy at large gamma (each serial step below
    # d = gamma multiplies the error by gamma/d): a row out of [0, 1] is a
    # configuration error, not a trace or a report of non-finite values
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"gamma": gamma}))
    assert main(["--experiment", experiment, "--config", str(p),
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"t = {t} at gamma = {gamma} " in err[0], err


class _Target(Exception):
    """Carries the target an experiment checks, before its estimate."""


def _target(monkeypatch, experiment, cfg):
    def stop(name, seq, target, tol, grid, n):
        raise _Target(target)
    monkeypatch.setattr(cli, "_extrapolated_check", stop)
    with pytest.raises(_Target) as info:
        run_experiment(experiment, cfg)
    return info.value.args[0]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_trace_target_is_the_one_product_formula(monkeypatch, n):
    # each experiment's default target, by float.hex: the same as the
    # mixed-trace case of the same factors and pairs, and the same bits as
    # the formula each experiment had of its own (gamma = 1), with the
    # bracket's own rule for the Hankel and commutator forms
    w, z = RadialSymbol.radial_power, RadialSymbol.coordinate
    small = {"n": n, "K_degree": 4}
    S = w(n, -2.0 * n)
    f = z(n, 1) * z(n, 1, conjugated=True) * w(n, -2.0 * (n + 1))
    h = z(n, 1) * w(n, -1.0)
    got = {e: _target(monkeypatch, e, cfg) for e, cfg in [
        ("model-operator", {"n": 1, "K_ranks": 64} if n == 1 else small),
        ("toeplitz-trace", small),
        ("hankel-trace", small), ("commutator-trace", small)]}

    def mixed(pairs, factors):
        case = dict(small, hankel_pairs=[[a.to_json_dict(), b.to_json_dict()]
                                         for a, b in pairs],
                    toeplitz_factors=[a.to_json_dict() for a in factors])
        return _target(monkeypatch, "mixed-trace", {"cases": [case]})

    f0, h0 = f.leading_sphere_part()[1], h.leading_sphere_part()[1]
    integrand = SpherePolynomial.constant(n)
    for j in range(1, n + 1):
        a0 = (z(n, j) * w(n, -1.0)).leading_sphere_part()[1]
        b0 = (z(n, j, conjugated=True) * w(n, -1.0)).leading_sphere_part()[1]
        integrand = integrand * (oracles.tangential_bracket(b0, a0)
                                 - oracles.tangential_bracket(a0, b0))
    fact = math.factorial(n)
    want = {
        "model-operator": [1.0 / fact, mixed([], [S])],
        "toeplitz-trace": [1.0 / fact * sphere_integral(f0).real,
                           mixed([], [f])],
        "hankel-trace": [
            sphere_integral(oracles.tangential_bracket(h0.conj(), h0) ** n).real
            / fact, mixed([(h, h)] * n, [])],
        "commutator-trace": [sphere_integral(integrand).real / fact],
    }
    for experiment, targets in want.items():
        assert [t.hex() for t in targets] == \
            [got[experiment].hex()] * len(targets), experiment


@pytest.mark.parametrize("experiment, cfg", [
    # order -2 where n = 2 needs -4
    ("toeplitz-trace", {"n": 2, "f": RadialSymbol.radial_power(2, -2.0)}),
    # a Hankel symbol and a commutator symbol of order -2, not 0
    ("hankel-trace", {"f": _z_over_w(t=-3)}),
    ("commutator-trace", {"pairs": [[_z_over_w(t=-3), _z_over_w(q=[1], p=[0])]]}),
    ("mixed-trace", {"cases": [dict(_CHAIN_CASE, toeplitz_factors=[_U])]}),
])
def test_every_trace_target_refuses_a_decay_other_than_2n(experiment, cfg):
    cfg = {k: v.to_json_dict() if isinstance(v, RadialSymbol) else v
           for k, v in cfg.items()}
    with pytest.raises(ConfigError, match=r"^total decay \d+ must equal 2n = "):
        run_experiment(experiment, cfg)


@pytest.mark.parametrize("experiment, cfg", [
    ("model-operator", {"n": 2, "K_degree": 200}),
    ("toeplitz-trace", {"n": 2, "K_degree": 200}),
    ("hankel-trace", {"K_degree": 1024, "grid": [64, 128, 256]}),
    ("commutator-trace", {"n": 2, "K_degree": 200}),
    ("mixed-trace", {"cases": [dict(_CHAIN_CASE, K_degree=1024,
                                    grid=[64, 128, 256])]}),
])
def test_trace_diagnostics_say_how_far_the_spectrum_is_certified(
        monkeypatch, experiment, cfg):
    seqs = []
    spectrum = cli.diagonal_spectrum

    def kept(*args):
        seqs.append(spectrum(*args))
        return seqs[-1]
    monkeypatch.setattr(cli, "diagonal_spectrum", kept)
    diags = run_experiment(experiment, cfg)["diagnostics"]
    if experiment == "mixed-trace":
        (diags,) = diags.values()
    (seq,) = seqs
    assert diags["certificate"] == "monotone-tail"
    assert diags["certified_rank"] == seq.certified_rank
    assert 0 < seq.certified_rank < seq.total
