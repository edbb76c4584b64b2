import numpy as np
import pytest

from lindsim.lindblad import exact_channel, is_cptp
from lindsim.models import builtin_model
from lindsim.norms import generator_stats


def test_amp_damp_total_rate_convention():
    stats = generator_stats(builtin_model("amp_damp", dict(gamma=1.0)))
    assert stats.total_rate == pytest.approx(2.0)  # Hamiltonian counts one


def test_qubit3_is_physical():
    gen = builtin_model("qubit3")
    assert gen.dim == 2 and gen.m_total == 3
    assert is_cptp(exact_channel(gen, 0.7))


def test_two_qubit_xy_layout():
    gen = builtin_model("two_qubit_xy")
    assert gen.dim == 4 and gen.m_total == 3
    assert np.max(np.abs(gen.hamiltonian - gen.hamiltonian.conj().T)) < 1e-14


def test_random_model_reproducible():
    a = builtin_model("random", dict(d=2, m=3, seed=7))
    b = builtin_model("random", dict(d=2, m=3, seed=7))
    assert np.array_equal(a.hamiltonian, b.hamiltonian)
    assert all(np.array_equal(x[0], y[0]) and x[1] == y[1]
               for x, y in zip(a.terms, b.terms))
    c = builtin_model("random", dict(d=2, m=3, seed=8))
    assert not np.array_equal(a.hamiltonian, c.hamiltonian)


def test_random_model_normalization():
    gen = builtin_model("random", dict(d=3, m=4, seed=2))
    assert gen.m_total == 4
    assert np.linalg.norm(gen.hamiltonian) == pytest.approx(1.0)
    for op, rate in gen.terms:
        assert np.linalg.norm(op) == pytest.approx(1.0)
        assert 0.5 <= rate < 1.5


def test_unknown_model_and_bad_params():
    with pytest.raises(ValueError, match="unknown model"):
        builtin_model("nope")
    with pytest.raises(ValueError, match="invalid parameters"):
        builtin_model("amp_damp", dict(nonsense=1))
    with pytest.raises(ValueError, match="d >= 2"):
        builtin_model("random", dict(d=1))
