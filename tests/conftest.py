"""Session fixtures: the default docking scenario, its model-based
oracles, one data-collection pass, the per-offset regressions of its
log, one library-level learning pass, and one full CLI pipeline run.
Everything downstream of the same seed, so numbers agree across test
modules.

Also the process helpers that the fork and subprocess tests share:
``run_python``, ``counting_forks``, ``open_fds``,
``assert_no_child_left``, ``slow_blocks``, ``numpy_openblas`` and
``unpinned``, and ``assert_csv_holds``, the reference check of a CSV
artifact (import them with ``from conftest import ...``).
"""

import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adpdock import (
    default_config,
    feedforward_gain,
    kernel_basis,
    kleinman_pi,
    matops,
    model_based_vi,
    run_experiment,
    solve_regulator_exact,
)
from adpdock.adp import assemble_regression, collect_data, learn_controller

REPO = Path(__file__).resolve().parents[1]


def run_python(*args, timeout=300):
    """Run this interpreter with ``args`` and the package's source tree on PYTHONPATH."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=timeout)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def open_fds():
    return set(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else set()


def counting_forks(mp):
    """Record the pid of every fork made while the patch holds."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        pids.append(pid)
        return pid

    mp.setattr(os, "fork", fork)
    return pids


def slow_blocks(mp, seconds=0.01):
    """Make every block of CSV rows take ``seconds`` longer to format, in forked children too."""
    real = matops._format_rows

    def slow(data, write):
        for lo in range(0, len(data), matops.CSV_BLOCK_ROWS):
            time.sleep(seconds)
            real(data[lo:lo + matops.CSV_BLOCK_ROWS], write)

    mp.setattr(matops, "_format_rows", slow)


def significant_digits(numeral):
    """The significant digits of a decimal numeral: no sign, point, exponent or padding zeros."""
    return numeral.lower().lstrip("+-").partition("e")[0].replace(".", "").strip("0")


def assert_csv_holds(path, data, header):
    """Check that the CSV at ``path`` holds ``header`` and then the rows of ``data``, bit for bit.

    Every field parses with ``float`` to the bits of its value and has the
    significant digits of ``repr(value)``, the shortest decimal that reads
    back to it; and ``numpy.loadtxt`` of the file gives the data bit for
    bit. The spelling of an exponent is left open.
    """
    data = np.asarray(data, dtype=float)
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if header:
        assert lines.pop(0) == header
    fields = [line.split(",") for line in lines]
    assert len(fields) == len(data)
    assert all(len(row) == data.shape[1] for row in fields)
    numerals = [numeral for row in fields for numeral in row]
    assert np.array(list(map(float, numerals)), dtype=float).tobytes() == data.tobytes()
    assert list(map(significant_digits, numerals)) == \
        list(map(significant_digits, map(repr, data.ravel().tolist())))
    if len(data):
        loaded = np.loadtxt(path, delimiter=",", skiprows=1 if header else 0, ndmin=2)
        assert loaded.tobytes() == data.tobytes()


def numpy_openblas():
    """(get, set) thread-count functions of numpy's OpenBLAS, or None where none is found."""
    return next((control for path, control in matops._find_openblas().items()
                 if os.path.basename(os.path.dirname(path)) == "numpy.libs"), None)


def unpinned(mp):
    """Make ``one_blas_thread`` find no OpenBLAS while the patch holds: every count stays as it is."""
    mp.setattr(matops, "_find_openblas", lambda: {})
    mp.setattr(matops.one_blas_thread, "_controls", {})
    mp.setattr(matops.one_blas_thread, "_modules", None)


@pytest.fixture(scope="session")
def docking():
    config = default_config()
    model, exo = config.scenario()
    return SimpleNamespace(config=config, model=model, exo=exo)


@pytest.fixture(scope="session")
def oracle(docking):
    """Ground truth: VI bootstraps a stabilizing gain, PI polishes it."""
    cfg = docking.config
    P_vi, K_vi, vi_history = model_based_vi(docking.model, cfg.Q, cfg.R)
    P_star, K_star, iterates = kleinman_pi(docking.model, cfg.Q, cfg.R, K_vi)
    exact = solve_regulator_exact(docking.model, docking.exo, cfg.Qbar, cfg.Rbar)
    L_star = feedforward_gain(exact, K_star)
    return SimpleNamespace(
        P_vi=P_vi, K_vi=K_vi, vi_history=vi_history,
        P_star=P_star, K_star=K_star, iterates=iterates,
        exact=exact, L_star=L_star,
    )


@pytest.fixture(scope="session")
def learning_data(docking):
    """Default-excitation collection run plus its regression bundles."""
    cfg = docking.config
    noise = cfg.noise_spec()
    log = collect_data(docking.model, docking.exo, None, noise, cfg.x0,
                       horizon=cfg.horizon, dt=cfg.dt, interval=cfg.interval)
    basis = kernel_basis(docking.model)
    bundles = assemble_regression(log, basis, cfg.R, cfg.interval)
    return SimpleNamespace(noise=noise, log=log, basis=basis, bundles=bundles)


@pytest.fixture(scope="session")
def offset_bundles(docking, learning_data):
    """The paper's kernel-basis sweep over the docking log: its h + 2 = 26
    offsets X_j and one regression per offset, each integrated from the log
    literally by ``test_adp.reference_assembly``."""
    from test_adp import reference_assembly, sweep_offsets

    cfg = docking.config
    offsets = sweep_offsets(learning_data.basis)
    bundles = reference_assembly(learning_data.log, offsets, cfg.R, cfg.interval)
    return SimpleNamespace(offsets=offsets, bundles=bundles)


@pytest.fixture(scope="session")
def learned(docking, learning_data):
    """Library-level learning pass: ``learn_controller`` on the collected sweep
    under the default config. ``controller`` is the LearnedController, with its
    P, K and L repeated at the top level beside the VI history, the model
    recovery and the regulator solution."""
    controller, history, recovery, solution = learn_controller(
        learning_data.bundles, learning_data.basis, docking.config)
    return SimpleNamespace(controller=controller, P=controller.P, K=controller.K,
                           L=controller.L, history=history, recovery=recovery,
                           solution=solution)


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """One timed end-to-end run of the default experiment."""
    config = default_config()
    out = tmp_path_factory.mktemp("pipeline")
    start = time.perf_counter()
    report = run_experiment(config, out_dir=out, log=lambda *args: None)
    wall = time.perf_counter() - start
    return SimpleNamespace(config=config, report=report, wall=wall, out=out)
