import numpy as np
import pytest

from pecstep.generators import PauliRates, pauli_dissipator, unitary_generator
from pecstep.linalg import expm, orbit, pauli_coords

from conftest import (
    BASIS_INV,
    I2,
    X,
    Y,
    Z,
    conjugation,
    lindbladian,
    max_abs_diff,
    pauli_channel,
    random_complex,
    random_density,
    sequential_orbit,
    taylor_expm,
    to_pauli_transfer,
    unvec,
    vec,
)

KET1 = np.array([[1.0], [0.0]], dtype=complex)  # |1> = (1, 0)^T
KET0 = np.array([[0.0], [1.0]], dtype=complex)


# The kron and vectorize tests below check the tests' own column-stacked
# reference (conftest: np.kron, vec, unvec, conjugation), which
# test_generators, test_properties and test_sampling compare the library's
# real Pauli-transfer maps against.


def test_kron_identity():
    assert max_abs_diff(np.kron(I2, I2), np.eye(4)) == 0.0


def test_kron_zz_is_diagonal():
    assert max_abs_diff(np.kron(Z, Z), np.diag([1.0, -1.0, -1.0, 1.0])) == 0.0


def test_kron_conjugation_matches_direct_product():
    rho = KET1 @ KET1.conj().T
    via_superop = unvec(conjugation(X) @ vec(rho))
    direct = X @ rho @ X
    assert max_abs_diff(via_superop, direct) < 1e-15
    assert max_abs_diff(direct, KET0 @ KET0.conj().T) < 1e-15


def test_kron_mixed_product_property(rng):
    for _ in range(10):
        a, b, c, d = (random_complex(rng, (2, 2)) for _ in range(4))
        lhs = np.kron(a, b) @ np.kron(c, d)
        rhs = np.kron(a @ c, b @ d)
        assert max_abs_diff(lhs, rhs) < 1e-13
        # so conjugation superoperators compose like the maps they stand for
        assert max_abs_diff(conjugation(a) @ conjugation(c), conjugation(a @ c)) < 1e-12


def test_kron_associative(rng):
    a, b, c = (random_complex(rng, (2, 2)) for _ in range(3))
    assert max_abs_diff(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c))) < 1e-13


def test_expm_zero():
    assert max_abs_diff(expm(np.zeros((4, 4))), np.eye(4)) == 0.0


def test_expm_diagonal():
    d = np.array([0.3, -1.2, 0.0, 2.0 + 1.0j])
    assert max_abs_diff(expm(np.diag(d)), np.diag(np.exp(d))) < 1e-14


def test_expm_pauli_rotation():
    got = expm(-1j * (np.pi / 2) * X)
    assert max_abs_diff(got, -1j * X) < 1e-14
    assert max_abs_diff(got, taylor_expm(-1j * (np.pi / 2) * X, order=30)) < 1e-14


def test_expm_rejects_non_square():
    with pytest.raises(ValueError):
        expm(np.zeros((2, 3)))


def test_expm_inverse_property(rng):
    for _ in range(20):
        a = random_complex(rng, (4, 4))
        a *= rng.uniform(0.1, 10.0) / np.linalg.norm(a)
        assert max_abs_diff(expm(a) @ expm(-a), np.eye(4)) < 1e-11


def test_expm_commuting_sum(rng):
    # polynomials in a single matrix commute exactly
    a = random_complex(rng, (4, 4))
    a *= 2.0 / np.linalg.norm(a)
    b = 0.7 * a + 0.3 * (a @ a)
    assert max_abs_diff(a @ b, b @ a) < 1e-13
    assert max_abs_diff(expm(a + b), expm(a) @ expm(b)) < 1e-11


def test_expm_relative_accuracy_up_to_norm_50(rng):
    # compares against an independent Taylor-with-squaring evaluation on
    # the real Pauli-transfer generators this library exponentiates (a
    # rotation part plus a Pauli dissipator); real input stays real
    for _ in range(20):
        g = unitary_generator(rng.uniform(0.1, 5.0), rng.uniform(-np.pi, np.pi))
        g = g + pauli_dissipator(PauliRates(*rng.uniform(0.0, 0.5, 3)))
        g *= rng.uniform(1.0, 50.0) / np.linalg.norm(g)
        got = expm(g)
        assert got.dtype == np.float64
        reference = taylor_expm(g, order=40)
        rel = np.linalg.norm(got - reference) / np.linalg.norm(reference)
        assert rel < 1e-13


def test_pauli_coords_of_excited_state():
    # |1> = (1, 0)^T: trace 1, z = +1
    rho = KET1 @ KET1.conj().T
    assert np.array_equal(pauli_coords(rho), [1.0, 0.0, 0.0, 1.0])
    assert pauli_coords(rho).dtype == np.float64


def test_pauli_coords_are_pauli_expectations(rng):
    for _ in range(10):
        rho = random_complex(rng, (2, 2))
        rho = rho + rho.conj().T
        expected = [np.trace(p @ rho).real for p in (I2, X, Y, Z)]
        assert max_abs_diff(pauli_coords(rho), expected) < 1e-14
        assert max_abs_diff(pauli_coords(rho), (BASIS_INV @ vec(rho)).real) < 1e-14


def test_pauli_coords_batched_and_shape_errors(rng):
    rhos = np.stack([random_density(rng) for _ in range(3)])
    assert max_abs_diff(pauli_coords(rhos)[1], pauli_coords(rhos[1])) == 0.0
    with pytest.raises(ValueError):
        pauli_coords(np.zeros((3, 3)))


def test_vectorize_basis_projector():
    rho = KET1 @ KET1.conj().T
    assert max_abs_diff(vec(rho), np.array([1, 0, 0, 0])) == 0.0


def test_vectorize_column_stacking_order():
    rho = np.array([[1.0, 2.0], [3.0, 4.0]])
    # component 2j + i holds entry (i, j)
    assert max_abs_diff(vec(rho), np.array([1.0, 3.0, 2.0, 4.0])) == 0.0


def test_vectorize_roundtrip(rng):
    for _ in range(10):
        rho = random_complex(rng, (2, 2))
        rho = rho + rho.conj().T
        assert max_abs_diff(unvec(vec(rho)), rho) == 0.0


def test_vectorize_product_identity(rng):
    for _ in range(20):
        a, b, rho = (random_complex(rng, (2, 2)) for _ in range(3))
        lhs = vec(a @ rho @ b)
        rhs = np.kron(b.T, a) @ vec(rho)
        assert max_abs_diff(lhs, rhs) < 1e-13


def test_vectorize_shape_errors():
    with pytest.raises(ValueError):
        vec(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        unvec(np.zeros(3))


def test_norms():
    assert max_abs_diff(X, X) == 0.0
    with pytest.raises(ValueError):
        max_abs_diff(X, np.eye(4))


# --- orbit: the blocked step loop against the sequential oracle ---

ORBIT_LENGTHS = (0, 1, 2, 3, 20, 161, 2000)


def _physical_maps(rng, n):
    """n Pauli-transfer maps of physical steps: a noisy rotation followed by
    one of the Pauli conjugations, as the trajectory replay applies them,
    drawn from eight random channels.  The maps keep the trace and the
    maximally mixed state exactly, as the library's do; the reference's
    rounding there would otherwise drift the trace of both loops alike."""
    channels = []
    for _ in range(8):
        # weak noise, so the states stay far from the maximally mixed one
        rates = rng.uniform(0.0, 1e-3, size=3)
        step = pauli_channel(rng.uniform(0.0, 1e-4, size=3)) @ taylor_expm(
            lindbladian(rng.uniform(0.2, 2.0), rng.uniform(0.0, np.pi), rates) * 0.1)
        channels += [conjugation(p) @ step for p in (I2, X, Y, Z)]
    table = np.array([to_pauli_transfer(c).real for c in channels])
    table[:, 0, :] = table[:, :, 0] = np.eye(4)[0]
    return table[rng.integers(len(table), size=n)]


def _start(rng):
    return np.concatenate([[1.0], 0.9 * rng.uniform(-0.5, 0.5, size=3)])


def _orbit_errors(maps, r0):
    """orbit's and the sequential loop's largest error against the long
    double loop, after checking orbit against the float64 loop."""
    got = orbit(maps, r0)
    seq = sequential_orbit(maps, r0)
    assert got.shape == seq.shape == (len(maps) + 1, 4)
    assert np.array_equal(got[0], r0)
    assert np.abs(got - seq).max() <= 1e-14
    exact = sequential_orbit(maps, r0, dtype=np.longdouble)
    return (float(np.abs(r - exact).max()) for r in (got, seq))


@pytest.mark.parametrize("n", ORBIT_LENGTHS)
def test_orbit_matches_sequential_loop_on_physical_maps(rng, n):
    err, seq_err = _orbit_errors(_physical_maps(rng, n), _start(rng))
    assert err <= 1e-14
    # one unit in the last place is always allowed: the four products of a
    # row are summed in another order than the sequential loop's matvec
    assert err <= 2.0 * seq_err + np.finfo(float).eps


@pytest.mark.parametrize("n", ORBIT_LENGTHS)
def test_orbit_matches_sequential_loop_on_constant_map(rng, n):
    (step,) = _physical_maps(rng, 1)
    r0 = _start(rng)
    err, _ = _orbit_errors(np.broadcast_to(step, (n, 4, 4)), r0)
    # absolute bound only: with one map, every block carry applies the same
    # rounded block product, so its rounding adds up coherently; the error
    # reached 7x the sequential loop's in a scan of 60 seeds (2e-15 at 161)
    assert err <= 1e-14
    assert np.array_equal(orbit([step] * n, r0), orbit(np.broadcast_to(step, (n, 4, 4)), r0))


@pytest.mark.parametrize("d", [2, 16])
@pytest.mark.parametrize("n", ORBIT_LENGTHS)
def test_orbit_takes_the_state_size_from_the_start(rng, d, n):
    # random orthogonal maps keep every state at the start's norm, so the
    # relative bound holds at every step
    maps = np.linalg.qr(rng.normal(size=(n, d, d)))[0] if n else np.empty((0, d, d))
    r0 = rng.normal(size=d)
    got, seq = orbit(maps, r0), sequential_orbit(maps, r0)
    assert got.shape == seq.shape == (n + 1, d)
    assert np.abs(got - seq).max() <= 1e-12 * np.abs(seq).max()


def test_orbit_of_no_maps_is_the_start_state():
    r0 = np.array([1.0, 0.0, 0.0, 1.0])
    assert np.array_equal(orbit(np.empty((0, 4, 4)), r0), r0[None])
