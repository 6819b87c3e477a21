"""The compiled and pure Python reduction kernels must agree bit for bit:
same diagonal, same transforms, same inverses, on identical inputs."""

import random

import pytest

from fourfold import _kernels
from fourfold._snf_py import snf_inplace as snf_py

try:
    from fourfold._snf_cy import snf_inplace as snf_cy
except ImportError:
    snf_cy = None


def run_kernel(fn, m, n, data):
    d = [row[:] for row in data]
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    uinv = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    vinv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    fn(d, u, uinv, v, vinv, m, n)
    return d, u, uinv, v, vinv


@pytest.mark.skipif(snf_cy is None, reason="compiled kernel not built")
def test_backends_are_bit_identical():
    rng = random.Random(60622)
    for trial in range(400):
        m = rng.randint(1, 7)
        n = rng.randint(1, 7)
        data = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(m)]
        got_py = run_kernel(snf_py, m, n, data)
        got_cy = run_kernel(snf_cy, m, n, data)
        assert got_py == got_cy, (trial, data)


@pytest.mark.skipif(snf_cy is None, reason="compiled kernel not built")
def test_backends_agree_on_big_entries():
    rng = random.Random(1)
    for _ in range(30):
        m = rng.randint(2, 5)
        n = rng.randint(2, 5)
        data = [[rng.randint(-10**12, 10**12) for _ in range(n)] for _ in range(m)]
        assert run_kernel(snf_py, m, n, data) == run_kernel(snf_cy, m, n, data)


def test_selector_reports_backend():
    assert _kernels.BACKEND in ("python", "compiled")
