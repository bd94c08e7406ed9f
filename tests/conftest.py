import numpy as np
import pytest

from simplex_flows import lab
from simplex_flows.coords import SimplexPoint
from simplex_flows.rng import make_rng, random_simplex_point


def fd_gradient(f, x, h=1e-6):
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def fd_hessian(f, x, h=1e-4):
    """Central-difference Hessian of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    n = x.size
    hess = np.empty((n, n))
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        for j in range(i, n):
            ej = np.zeros(n)
            ej[j] = h
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej)
                - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h * h)
    return hess


@pytest.fixture
def lopsided_draws(monkeypatch):
    """Every target draw in lab has a smallest probability of 1e-3, below
    draw_instance's balance floor 0.3 / (n + 1) for any n up to 298."""
    points = {}

    def draw(rng, n):
        if n not in points:
            points[n] = SimplexPoint(np.append(1e-3, np.full(n, (1.0 - 1e-3) / n)))
        return points[n]

    monkeypatch.setattr(lab, "random_simplex_point", draw)


def interior_point(rng, n, margin=0.05):
    """A random point kept away from the boundary so FD stencils stay valid."""
    while True:
        p = random_simplex_point(rng, n)
        if p.probs.min() >= margin / (n + 1):
            return p


@pytest.fixture
def rng():
    return make_rng(12345)


# acceptance-criteria reporting: each criterion test records one line that is
# printed after the run, outside pytest's output capture
_criterion_results = {}


def record_criterion(num, desc, ok):
    _criterion_results[num] = (desc, bool(ok))
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}  {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def pytest_terminal_summary(terminalreporter):
    if not _criterion_results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num in sorted(_criterion_results):
        desc, ok = _criterion_results[num]
        terminalreporter.write_line(
            f"  criterion {num:02d} {'PASS' if ok else 'FAIL'}  {desc}")
