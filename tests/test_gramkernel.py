"""Loading GramStack's compiled swap search (irlobs.gramkernel).

The kernel compiles once into its cache and is reused from there.  Each way
it can fail to load, no compiler, an unwritable cache, no LAPACK symbol or
a self-check that numpy does not confirm, leaves numpy's exhaustive search
in force, silently, with no file or child process left behind and the same
outputs.
"""

import os

import numpy as np
import pytest

from irlobs import gramkernel, numerics
from irlobs.estimator import ParamHistoryStack
from irlobs.experiment import ExperimentConfig, default_config_dict, run_experiment, write_report

from conftest import swap_kernel


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty cache directory of the test's own."""
    path = tmp_path / "cache"
    monkeypatch.setattr(gramkernel, "_cache_dir", lambda: path)
    return path


def no_compiler(monkeypatch, cache):
    monkeypatch.setattr(gramkernel, "_CC", str(cache.parent / "no-such-cc"))


def unwritable_cache(monkeypatch, cache):
    (cache.parent / "file").write_text("")  # no directory can be made under a file
    monkeypatch.setattr(gramkernel, "_cache_dir", lambda: cache.parent / "file" / "cache")


def missing_symbol(monkeypatch, cache):
    monkeypatch.setattr(gramkernel, "_DSYEVD", ("no_such_dsyevd_64_",))


def self_check_mismatch(monkeypatch, cache):
    reference = gramkernel._reference
    monkeypatch.setattr(gramkernel, "_reference",
                        lambda *args: np.nextafter(reference(*args), np.inf))


FAILURES = [no_compiler, unwritable_cache, missing_symbol, self_check_mismatch]


def run_bytes(out):
    """The RunTrace, and summary.json and the four CSVs, of a 2 s query
    run written to out."""
    raw = default_config_dict()
    raw["run"]["duration"] = 2.0
    report = run_experiment(ExperimentConfig(raw))
    write_report(report, out)
    return report.trace, {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def numpy_run(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numerics, "_kernel", False)
        return run_bytes(tmp_path_factory.mktemp("numpy"))


def test_the_kernel_compiles_once_into_its_cache(cache):
    swap_kernel()
    assert gramkernel.load() is not None
    (built,) = cache.iterdir()
    assert built.name.startswith("gramkernel-") and built.suffix == ".so"
    stamp = built.stat().st_mtime_ns
    assert gramkernel.load() is not None
    assert list(cache.iterdir()) == [built] and built.stat().st_mtime_ns == stamp


def test_a_new_build_removes_the_stale_ones(cache):
    # builds of other sources are removed once this one is in place; the
    # build in place is kept
    swap_kernel()
    cache.mkdir()
    for key in ("00000000", "ffffffff"):
        (cache / f"gramkernel-{key}.so").write_bytes(b"stale")
    (cache / "other.so").write_bytes(b"kept")
    assert gramkernel.load() is not None
    built = gramkernel._compiled()
    assert sorted(path.name for path in cache.iterdir()) == sorted([built.name, "other.so"])
    (cache / "gramkernel-00000000.so").write_bytes(b"stale")
    assert gramkernel.load() is not None  # no compile, so nothing removed
    assert len(list(cache.glob("gramkernel-*.so"))) == 2


@pytest.mark.parametrize("failure", FAILURES, ids=lambda f: f.__name__)
def test_a_kernel_that_cannot_load_leaves_numpy_in_force(
    failure, cache, monkeypatch, capfd, tmp_path, numpy_run
):
    failure(monkeypatch, cache)
    assert gramkernel.load() is None
    assert capfd.readouterr() == ("", "")  # no traceback, no compiler output
    with pytest.raises(ChildProcessError):  # the compiler, if any, was reaped
        os.waitpid(-1, os.WNOHANG)
    # nothing half written: at most the built kernel whose self-check failed
    left = [path.name for path in cache.rglob("*")] if cache.exists() else []
    assert len(left) <= (failure is self_check_mismatch)
    assert all(name.startswith("gramkernel-") for name in left)
    # a run that wants the kernel gets numpy, with the same decisions and bytes
    monkeypatch.setattr(numerics, "_kernel", None)
    stack = ParamHistoryStack(capacity=2, dim=2, min_eig_threshold=1e-6)
    for _ in range(3):
        stack.record(np.ones(2), np.eye(2))
    assert stack._search is False and numerics._kernel is False
    assert run_bytes(tmp_path / "run") == numpy_run
