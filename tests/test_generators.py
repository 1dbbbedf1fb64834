import numpy as np
import pytest
from hypothesis import given, strategies as st

from pecstep.generators import (
    PauliRates,
    check_density_matrix,
    commutator,
    commutator_norm,
    exact_propagate,
    pauli_dissipator,
    unitary_generator,
)
from pecstep.channels import (
    MitigationCoeffs,
    PauliChannelParams,
    channel_superop,
    coeffs_to_superop,
)
from pecstep.linalg import expm, pauli_coords

from conftest import (
    max_abs_diff,
    X,
    Y,
    Z,
    hamiltonian,
    lindbladian,
    pauli_channel,
    random_complex,
    random_density,
    to_pauli_transfer,
)

RHO_EXCITED = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
TRACE_ROW = np.array([1.0, 0.0, 0.0, 0.0])  # Tr(rho) is the first Pauli coordinate


def test_hamiltonian_beta_half_pi_is_x():
    assert max_abs_diff(hamiltonian(1.0, np.pi / 2), X) < 1e-15


def test_hamiltonian_beta_zero():
    expected = np.array([[0.0, 1.0j], [-1.0j, 0.0]])  # -Y
    assert max_abs_diff(hamiltonian(1.0, 0.0), expected) < 1e-15


def test_hamiltonian_eigenvalues_from_characteristic_polynomial():
    h = hamiltonian(2.0, 0.7)
    # trace-free 2x2: eigenvalues are +-sqrt(-det)
    lam = np.sqrt(-np.linalg.det(h))
    assert abs(np.trace(h)) < 1e-14
    assert abs(lam.real - 2.0) < 1e-13 and abs(lam.imag) < 1e-13
    assert np.allclose(sorted(np.linalg.eigvalsh(h)), [-2.0, 2.0], atol=1e-13)


@given(
    omega=st.floats(min_value=0.1, max_value=5.0),
    beta=st.floats(min_value=-np.pi, max_value=np.pi),
)
def test_hamiltonian_hermitian_with_eigenvalues_pm_omega(omega, beta):
    # -i[H, .] for H with eigenvalues +-omega: an antisymmetric, trace-free
    # rotation generator with eigenvalues {0, 0, +-2i omega} whose kernel
    # holds the rotation axis (sin beta, -cos beta, 0)
    g = unitary_generator(omega, beta)
    assert max_abs_diff(g, -g.T) == 0.0
    assert max_abs_diff(g[0], np.zeros(4)) == 0.0
    assert max_abs_diff(g[:, 0], np.zeros(4)) == 0.0
    eigs = sorted(np.linalg.eigvals(g), key=lambda z: (z.imag, z.real))
    assert np.allclose(eigs, [-2j * omega, 0.0, 0.0, 2j * omega], atol=1e-12)
    axis = np.array([0.0, np.sin(beta), -np.cos(beta), 0.0])
    assert max_abs_diff(g @ axis, np.zeros(4)) < 1e-14


def test_unitary_generator_zero_hamiltonian():
    g = unitary_generator(0.0, 0.3)
    assert max_abs_diff(g, np.zeros((4, 4))) == 0.0


def test_unitary_generator_matches_commutator(rng):
    h = hamiltonian(1.3, 0.4)
    g = unitary_generator(1.3, 0.4)
    for _ in range(10):
        rho = random_complex(rng, (2, 2))
        rho = rho + rho.conj().T
        lhs = g @ pauli_coords(rho)
        rhs = pauli_coords(-1j * (h @ rho - rho @ h))
        assert max_abs_diff(lhs, rhs) < 1e-13


def test_real_maps_match_column_stacked_reference(rng):
    # B^-1 S B of the kron-built superoperators against the library's real
    # Pauli-transfer matrices
    for _ in range(20):
        omega, beta = rng.uniform(0.0, 5.0), rng.uniform(-np.pi, np.pi)
        rates = PauliRates(*rng.uniform(0.0, 1.0, 3))
        g = unitary_generator(omega, beta)
        assert g.dtype == np.float64 and not g.flags.writeable
        assert max_abs_diff(to_pauli_transfer(lindbladian(omega, beta)), g) < 1e-14
        d = pauli_dissipator(rates)
        assert d.dtype == np.float64 and not d.flags.writeable
        assert max_abs_diff(to_pauli_transfer(lindbladian(rates=rates.as_tuple())), d) < 1e-14

        lam = PauliChannelParams(*rng.uniform(0.0, 1.0 / 3.0, 3))
        n = channel_superop(lam)
        assert max_abs_diff(to_pauli_transfer(pauli_channel(lam.as_tuple())), n) < 1e-14
        q1, q2, q3 = rng.uniform(-0.3, 0.3, 3)
        q = MitigationCoeffs(1.0 - q1 - q2 - q3, q1, q2, q3)  # q0 I + sum_k q_k P_k . P_k
        m = coeffs_to_superop(q)
        assert max_abs_diff(to_pauli_transfer(pauli_channel((q1, q2, q3))), m) < 1e-14


def test_unitary_propagation_preserves_trace_and_hermiticity(rng):
    g = unitary_generator(1.0, 0.2)
    rho = random_density(rng)
    out = exact_propagate(g, rho, 1.0)
    assert abs(np.trace(out).real - 1.0) < 1e-12
    assert max_abs_diff(out, out.conj().T) < 1e-12


def test_pauli_dissipator_zero_rates():
    g = pauli_dissipator(PauliRates(0, 0, 0))
    assert max_abs_diff(g, np.zeros((4, 4))) == 0.0


def test_negative_rate_rejected():
    with pytest.raises(ValueError):
        PauliRates(-0.1, 0, 0)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="gy"):
            PauliRates(0.1, bad, 0)


def _bloch_component(rho, pauli):
    return np.trace(pauli @ rho).real


def test_depolarizing_transfer_eigenvalues(rng):
    # each Bloch component decays by exp(-2*(other two rates)*t)
    g = pauli_dissipator(PauliRates(0.1, 0.1, 0.1))
    rho = random_density(rng)
    out = exact_propagate(g, rho, 1.0)
    for p in (X, Y, Z):
        assert _bloch_component(out, p) == pytest.approx(
            np.exp(-0.4) * _bloch_component(rho, p), abs=1e-12
        )


def test_x_only_dissipator_fixes_x_component(rng):
    g = pauli_dissipator(PauliRates(0.3, 0.0, 0.0))
    rho = random_density(rng)
    out = exact_propagate(g, rho, 1.0)
    assert _bloch_component(out, X) == pytest.approx(_bloch_component(rho, X), abs=1e-12)
    for p in (Y, Z):
        assert _bloch_component(out, p) == pytest.approx(
            np.exp(-0.6) * _bloch_component(rho, p), abs=1e-12
        )


def test_generators_are_trace_preserving():
    gens = [
        unitary_generator(1.0, 0.3),
        pauli_dissipator(PauliRates(0.2, 0.1, 0.05)),
    ]
    for g in gens:
        assert max_abs_diff(TRACE_ROW @ g, np.zeros(4)) < 1e-14
        for t in (0.1, 1.0):
            assert max_abs_diff(TRACE_ROW @ expm(g * t), TRACE_ROW) < 1e-12


def test_commutator_with_itself_vanishes():
    g = pauli_dissipator(PauliRates(0.3, 0.0, 0.0))
    assert commutator_norm(g, g) == 0.0


def test_x_hamiltonian_commutes_with_x_noise():
    lh = unitary_generator(1.0, np.pi / 2)
    ld = pauli_dissipator(PauliRates(0.3, 0.0, 0.0))
    assert commutator_norm(lh, ld) < 1e-13


@pytest.mark.parametrize("beta", [0.0, np.pi / 4])
def test_tilted_hamiltonian_does_not_commute_with_x_noise(beta):
    lh = unitary_generator(1.0, beta)
    ld = pauli_dissipator(PauliRates(0.3, 0.0, 0.0))
    assert commutator_norm(lh, ld) > 0.1


def test_commutator_norm_frozen_value():
    lh = unitary_generator(1.0, 0.0)
    ld = pauli_dissipator(PauliRates(0.3, 0.0, 0.0))
    assert commutator_norm(lh, ld) == pytest.approx(1.697056274847714, abs=1e-12)


def test_exact_propagate_t_zero(rng):
    rho = random_density(rng)
    g = unitary_generator(1.0, 0.0)
    assert max_abs_diff(exact_propagate(g, rho, 0.0), rho) < 1e-15


def test_exact_propagate_closed_population():
    g = unitary_generator(1.0, 0.0)
    out = exact_propagate(g, RHO_EXCITED, 0.5)
    assert out[0, 0].real == pytest.approx(0.5 * (1 + np.cos(1.0)), abs=1e-13)
    assert out[0, 0].real == pytest.approx(0.7701511529340699, abs=1e-12)


def test_exact_propagate_damped_population():
    g = unitary_generator(1.0, 0.0) + pauli_dissipator(PauliRates(0.1, 0.1, 0.1))
    out = exact_propagate(g, RHO_EXCITED, 0.5)
    assert out[0, 0].real == pytest.approx(0.5 * (1 + np.exp(-0.2) * np.cos(1.0)), abs=1e-13)
    assert out[0, 0].real == pytest.approx(0.7211810568865961, abs=1e-12)


def test_exact_propagate_validates_input_state():
    g = unitary_generator(1.0, 0.0)
    with pytest.raises(ValueError):
        exact_propagate(g, np.diag([1.5, -0.5]).astype(complex), 0.1)
    with pytest.raises(ValueError):
        exact_propagate(g, RHO_EXCITED, -1.0)


@pytest.mark.parametrize("t", [0.1, 0.5, 2.0])
def test_propagation_physicality(rng, t):
    g = unitary_generator(1.0, 0.4) + pauli_dissipator(PauliRates(0.2, 0.05, 0.1))
    for _ in range(10):
        out = exact_propagate(g, random_density(rng), t)
        assert abs(np.trace(out).real - 1.0) < 1e-12
        assert max_abs_diff(out, out.conj().T) < 1e-12
        check_density_matrix(out, tol=1e-10)


def test_splitting_exact_only_when_commuting(rng):
    rho = random_density(rng)
    lh = unitary_generator(1.0, np.pi / 2)
    ld = pauli_dissipator(PauliRates(0.3, 0.0, 0.0))
    joint = exact_propagate(lh + ld, rho, 0.5)
    split = exact_propagate(ld, exact_propagate(lh, rho, 0.5), 0.5)
    assert max_abs_diff(joint, split) < 1e-12

    lh0 = unitary_generator(1.0, 0.0)
    joint = exact_propagate(lh0 + ld, rho, 0.5)
    split = exact_propagate(ld, exact_propagate(lh0, rho, 0.5), 0.5)
    assert max_abs_diff(joint, split) > 1e-6


def test_commutator_accepts_raw_matrices():
    m = np.diag([1.0, 2.0, 3.0, 4.0])
    assert commutator_norm(m, m) == 0.0
    assert commutator(m, np.eye(4)).max() == 0.0
