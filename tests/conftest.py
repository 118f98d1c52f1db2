"""Shared fixtures: the microwave bench geometry used across the suite.

Central frequency 2.4 GHz in vacuum (wavelength 0.125 m), a square receiver
array of side 20 wavelengths in the x3 = 0 plane, imaging window of side 30
wavelengths centered 100 wavelengths above the array, and an off-axis source
one window-distance away.
"""

import numpy as np
import pytest

import polarmig as pm
from polarmig import _parallel
from polarmig._parallel import run_tasks
from polarmig.cli import main as cli_main

LAMBDA0 = 0.125
L = 100 * LAMBDA0
OMEGA0 = 2 * np.pi * 2.4e9
BANDWIDTH = 2 * np.pi * 2.4e9
K0 = 2 * np.pi / LAMBDA0

ALPHA_1 = np.array(
    [[2 + 1j, -1j, 1], [-1j, 1 + 2j, 1j], [1, 1j, 1 + 1j]], dtype=complex
)
ALPHA_2 = np.array(
    [[2 + 2j, -1 + 1j, 0.5j], [-1 + 1j, 1 + 2j, 0], [0.5j, 0, 1]], dtype=complex
)
ALPHA_3 = np.array(
    [[2 - 2j, 1 + 1j, 0], [1 + 1j, 1 + 2j, (1 - 1j) / 2], [0, (1 - 1j) / 2, 1j]],
    dtype=complex,
)
DIPOLE_POSITIONS = [
    np.array([-6, -5, 100]) * LAMBDA0,
    np.array([7, -5, 100]) * LAMBDA0,
    np.array([5, 8, 106]) * LAMBDA0,
]
DIPOLE_TENSORS = [ALPHA_1, ALPHA_2, ALPHA_3]


def bench_source() -> pm.SourceSpec:
    return pm.SourceSpec(
        position=[L / 2, 0, L * (1 - np.sqrt(3 / 4))],
        reference_point=[0, 0, L],
    )


def bench_window() -> pm.ImagingWindow:
    return pm.ImagingWindow(
        center=[0, 0, L], cross_range=30 * LAMBDA0, range_extent=30 * LAMBDA0
    )


def bench_scene(scatterers, n: int = 31) -> pm.Scene:
    return pm.Scene(
        source=bench_source(),
        geom=pm.ArrayGeom(side=20 * LAMBDA0, n1=n, n2=n),
        window=bench_window(),
        scatterers=scatterers,
    )


def single_dipole_scene(n: int = 31) -> pm.Scene:
    return bench_scene([pm.Scatterer([0, 0, L], ALPHA_1)], n=n)


def three_dipole_scene(n: int = 31) -> pm.Scene:
    return bench_scene(
        [pm.Scatterer(p, a) for p, a in zip(DIPOLE_POSITIONS, DIPOLE_TENSORS)], n=n
    )


def band(count: int, width: float = BANDWIDTH) -> pm.FrequencyBand:
    return pm.FrequencyBand(center=OMEGA0, width=width, count=count)


def single_freq_band() -> pm.FrequencyBand:
    return pm.FrequencyBand(center=OMEGA0, width=0.0, count=1)


def projected_truth(alpha: np.ndarray, source: pm.SourceSpec) -> np.ndarray:
    return pm.CROSS_RANGE_BASIS.T @ alpha @ source.basis()


def random_symmetric_tensor(rng, scale: float = 1.0) -> np.ndarray:
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    return scale * (a + a.T) / 2


@pytest.fixture(autouse=True)
def blas_count_unchanged():
    """Fail a test after which the OpenBLAS thread count differs from before it."""
    before = _parallel.blas_threads()
    yield
    assert _parallel.blas_threads() == before, "the OpenBLAS thread count was left changed"


@pytest.fixture
def blas_count():
    """The OpenBLAS thread count before the test (None without one), restored after it."""
    before = _parallel.blas_threads()
    yield before
    if before is not None:
        _parallel.set_blas_threads(before)


def assert_cli_rejects(capsys, argv, key) -> None:
    """``polarmig argv`` exits 2, its one stderr line ``invalid input:`` and text with ``key``."""
    assert cli_main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("invalid input: ") and key in lines[0]


def exactly_hermitian(psi: np.ndarray) -> np.ndarray:
    """``psi``, checked bit for bit: ``Psi21 = conj(Psi12)`` and the diagonal is real."""
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint64)

    assert np.array_equal(bits(psi[..., 1, 0]), bits(np.conj(psi[..., 0, 1])))
    assert not bits(psi[..., 0, 0].imag).any() and not bits(psi[..., 1, 1].imag).any()
    return psi


def check_bin_blocks(monkeypatch, stage, n_rec: int, n_bins: int, rtol: float = 1e-13):
    """Check that ``stage()`` runs in bin blocks under the hold, with bits free of the threads.

    The block rule is patched to blocks of 2 bins, at least 3 of them with a
    partial last one.  The tuple of arrays ``stage()`` returns must be bitwise
    equal at ``POLARMIG_THREADS`` unset, 1, 2 and 3 and at OpenBLAS 1 and 2
    threads, and within ``rtol`` of the stage run as one block, relative to
    each array's maximum; every block task must run with OpenBLAS held at one
    thread.  Tests that call this restore the OpenBLAS count through ``blas_count``.
    """
    held = None if _parallel.blas_threads() is None else 1
    seen = []

    def spy(work, tasks):
        seen.append((len(tasks), _parallel.blas_threads()))
        return run_tasks(work, tasks)

    monkeypatch.setattr(_parallel, "run_tasks", spy)
    monkeypatch.setattr(_parallel, "_BLOCK_CELLS", 2 * n_rec)
    sizes = [b.stop - b.start for b in _parallel.bin_blocks(n_rec, n_bins)]
    assert len(sizes) >= 3 and sizes[-1] < sizes[0]
    runs = []
    for threads, blas in ((None, 2), ("1", 2), ("2", 2), ("3", 2), (None, 1)):
        if threads is None:
            monkeypatch.delenv("POLARMIG_THREADS", raising=False)
        else:
            monkeypatch.setenv("POLARMIG_THREADS", threads)
        _parallel.set_blas_threads(blas)
        runs.append(stage())
    assert seen and all(n == len(sizes) and count == held for n, count in seen), seen
    monkeypatch.setattr(_parallel, "_BLOCK_CELLS", n_rec * n_bins)
    whole = stage()
    for run in runs[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(run, runs[0]))
    for a, b in zip(runs[0], whole):
        assert np.abs(a - b).max(initial=0.0) <= rtol * np.abs(b).max(initial=0.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260810)
