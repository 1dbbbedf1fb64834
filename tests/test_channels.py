import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pecstep.channels import (
    MitigationCoeffs,
    PauliChannelParams,
    TransferEigenvalues,
    channel_superop,
    coeffs_to_superop,
    coeffs_to_transfer,
    exact_inverse_coeffs,
    expected_superop,
    first_order_coeffs,
    general_exact_coeffs,
    kappa_to_lambda,
    lambda_to_kappa,
    lambda_to_transfer,
    linear_inverse_coeffs,
    sampling_distribution,
    transfer_to_coeffs,
)
from pecstep.generators import PauliRates, pauli_dissipator
from pecstep.linalg import devectorize, expm, max_abs_diff, vectorize

from conftest import random_density


# Independent oracles: the closed-form coefficient expressions written out
# literally, one reciprocal-denominator / exponential at a time.

def _exact_inverse_oracle(l1, l2, l3):
    ex, ey, ez = 1 - 2 * l2 - 2 * l3, 1 - 2 * l1 - 2 * l3, 1 - 2 * l1 - 2 * l2
    q1 = 0.25 * (1 - (-1 / ex + 1 / ey + 1 / ez))
    q2 = 0.25 * (1 - (1 / ex - 1 / ey + 1 / ez))
    q3 = 0.25 * (1 - (1 / ex + 1 / ey - 1 / ez))
    return q1, q2, q3


def _general_oracle(g, k, dt):
    gx, gy, gz = g
    kx, ky, kz = k
    q0 = 0.25 * (
        1
        + math.exp(2 * (kx - gx + ky - gy) * dt)
        + math.exp(2 * (kz - gz + kx - gx) * dt)
        + math.exp(2 * (ky - gy + kz - gz) * dt)
    )
    s = gx + gy + gz - kx - ky - kz
    ax, ay, az = (math.exp(2 * (gi - ki) * dt) for gi, ki in ((gx, kx), (gy, ky), (gz, kz)))
    q1 = 0.25 * (1 - math.exp(-2 * s * dt) * (-ax + ay + az))
    q2 = 0.25 * (1 - math.exp(-2 * s * dt) * (ax - ay + az))
    q3 = 0.25 * (1 - math.exp(-2 * s * dt) * (ax + ay - az))
    return q0, q1, q2, q3


def _kappa_oracle(l1, l2, l3, dt):
    ex, ey, ez = 1 - 2 * l2 - 2 * l3, 1 - 2 * l1 - 2 * l3, 1 - 2 * l1 - 2 * l2
    k1 = math.log(ex / (ez * ey)) / (4 * dt)
    k2 = math.log(ey / (ez * ex)) / (4 * dt)
    k3 = math.log(ez / (ey * ex)) / (4 * dt)
    return k1, k2, k3


def test_channel_superop_identity():
    assert max_abs_diff(channel_superop(PauliChannelParams(0, 0, 0)), np.eye(4)) == 0.0


def test_fully_depolarizing_channel_maps_to_maximally_mixed(rng):
    n = channel_superop(PauliChannelParams(0.25, 0.25, 0.25))
    rho = random_density(rng)
    out = devectorize(n @ vectorize(rho))
    assert max_abs_diff(out, np.eye(2) / 2) < 1e-14


def test_uniform_channel_transfer_eigenvalues():
    e = lambda_to_transfer(PauliChannelParams(0.05, 0.05, 0.05))
    assert e.as_tuple() == pytest.approx((0.8, 0.8, 0.8), abs=1e-15)


def test_channel_params_validation():
    with pytest.raises(ValueError):
        PauliChannelParams(-0.1, 0, 0)
    with pytest.raises(ValueError):
        PauliChannelParams(0.5, 0.4, 0.2)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match="lz"):
            PauliChannelParams(0.1, 0.1, bad)


def test_transfer_identity_map():
    q = transfer_to_coeffs(TransferEigenvalues(1.0, 1.0, 1.0))
    assert q.as_tuple() == (1.0, 0.0, 0.0, 0.0)


def test_transfer_reciprocal_of_uniform_point_eight():
    q = transfer_to_coeffs(TransferEigenvalues(1 / 0.8, 1 / 0.8, 1 / 0.8))
    assert q.q0 == pytest.approx(1.1875, abs=1e-13)
    assert q.q1 == q.q2 == q.q3
    assert q.q1 == pytest.approx(-0.0625, abs=1e-13)


@given(
    q1=st.floats(-0.4, 0.4),
    q2=st.floats(-0.4, 0.4),
    q3=st.floats(-0.4, 0.4),
)
def test_coeffs_transfer_roundtrip(q1, q2, q3):
    q0 = 1.0 - q1 - q2 - q3
    if not q0 > 0:
        return
    q = MitigationCoeffs(q0, q1, q2, q3)
    back = transfer_to_coeffs(coeffs_to_transfer(q))
    assert np.allclose(back.as_tuple(), q.as_tuple(), atol=1e-13)


def test_coeff_validation():
    with pytest.raises(ValueError):
        MitigationCoeffs(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        MitigationCoeffs(-0.5, 0.5, 0.5, 0.5)


def test_exact_inverse_trivial():
    assert exact_inverse_coeffs(PauliChannelParams(0, 0, 0)).as_tuple() == (1, 0, 0, 0)


def test_exact_inverse_uniform():
    q = exact_inverse_coeffs(PauliChannelParams(0.05, 0.05, 0.05))
    assert np.allclose(q.as_tuple()[1:], [-0.0625] * 3, atol=1e-13)


def test_exact_inverse_general_matches_oracle():
    q = exact_inverse_coeffs(PauliChannelParams(0.16, 0.12, 0.2))
    oracle = _exact_inverse_oracle(0.16, 0.12, 0.2)
    assert np.allclose(q.as_tuple()[1:], oracle, atol=1e-13)
    assert q.q1 == pytest.approx(-0.5165945165945166, abs=1e-12)


def test_exact_inverse_undoes_channel(rng):
    for _ in range(10):
        lam = rng.uniform(0, 0.15, 3)
        p = PauliChannelParams(*lam)
        prod = coeffs_to_superop(exact_inverse_coeffs(p)) @ channel_superop(p)
        assert max_abs_diff(prod, np.eye(4)) < 1e-12


def test_exact_inverse_rejects_singular_channel():
    with pytest.raises(ValueError):
        exact_inverse_coeffs(PauliChannelParams(0.0, 0.25, 0.25))


def test_general_exact_identity_when_rates_match():
    r = PauliRates(0.2, 0.1, 0.3)
    assert general_exact_coeffs(r, r, 0.5).as_tuple() == pytest.approx((1, 0, 0, 0), abs=1e-15)


def test_general_exact_uniform_device():
    q = general_exact_coeffs(PauliRates(), PauliRates(0.1, 0.1, 0.1), 0.5)
    expected = (1 - math.exp(0.2)) / 4
    assert np.allclose(q.as_tuple()[1:], [expected] * 3, atol=1e-14)
    assert q.q1 == pytest.approx(-0.055350689540042464, abs=1e-12)


def test_general_exact_x_only_device():
    q = general_exact_coeffs(PauliRates(), PauliRates(0.3, 0, 0), 0.5)
    assert q.q1 == pytest.approx((1 - math.exp(0.3)) / 2, abs=1e-14)
    assert q.q1 == pytest.approx(-0.1749294037880016, abs=1e-12)
    assert q.q2 == q.q3 == pytest.approx(0.0, abs=1e-15)


def test_general_exact_open_digital_rates():
    device = lambda_to_kappa(PauliChannelParams(0.16, 0.12, 0.2), 0.5)
    q = general_exact_coeffs(PauliRates(0.3, 0, 0), device, 0.5)
    assert q.q1 == pytest.approx(-0.13791983901910432, abs=1e-12)


def test_general_exact_matches_four_term_oracle(rng):
    for _ in range(20):
        g = tuple(rng.uniform(0, 0.5, 3))
        k = tuple(rng.uniform(0, 0.5, 3))
        dt = rng.uniform(0.05, 1.0)
        q = general_exact_coeffs(PauliRates(*g), PauliRates(*k), dt)
        assert np.allclose(q.as_tuple(), _general_oracle(g, k, dt), atol=1e-12)


def test_first_order_examples():
    q = first_order_coeffs(PauliRates(), (0.05, 0.05, 0.05), 0.5)
    assert q.as_tuple() == pytest.approx((1.15, -0.05, -0.05, -0.05), abs=1e-15)

    q = first_order_coeffs(PauliRates(0.3, 0, 0), (0.16, 0.12, 0.2), 0.5)
    assert q.as_tuple()[1:] == pytest.approx((-0.01, -0.12, -0.2), abs=1e-15)

    q = first_order_coeffs(PauliRates(0.3, 0, 0), (0.05, 0.05, 0.05), 0.5)
    assert q.as_tuple()[1:] == pytest.approx((0.1, -0.05, -0.05), abs=1e-15)


def test_linear_inverse_examples():
    assert linear_inverse_coeffs(PauliRates(), 0.5).as_tuple() == (1, 0, 0, 0)

    q = linear_inverse_coeffs(PauliRates(0.1, 0.1, 0.1), 0.5)
    assert np.allclose(q.as_tuple()[1:], [-0.05 / 0.8] * 3, atol=1e-14)

    q = linear_inverse_coeffs(PauliRates(0.3, 0, 0), 0.5)
    assert q.q1 == pytest.approx(-0.15 / 0.7, abs=1e-14)
    assert q.q1 == pytest.approx(-0.21428571428571427, abs=1e-12)
    assert q.q2 == q.q3 == 0.0


def test_lambda_to_kappa_exact():
    k = lambda_to_kappa(PauliChannelParams(0.05, 0.05, 0.05), 0.5)
    expected = 0.5 * math.log(1 / 0.8)
    assert np.allclose(k.as_tuple(), [expected] * 3, atol=1e-14)
    assert k.gx == pytest.approx(0.11157177565710488, abs=1e-12)


def test_lambda_to_kappa_matches_log_oracle(rng):
    for _ in range(20):
        lam = rng.uniform(0, 0.15, 3)
        oracle = _kappa_oracle(*lam, 0.5)
        if min(oracle) < -1e-12:
            # a physical channel need not divide into nonnegative rates
            with pytest.raises(ValueError):
                lambda_to_kappa(PauliChannelParams(*lam), 0.5)
        else:
            k = lambda_to_kappa(PauliChannelParams(*lam), 0.5)
            assert np.allclose(k.as_tuple(), oracle, atol=1e-12)


def test_lambda_to_kappa_rejects_non_divisible_channel():
    # one vanishing component forces a negative formal rate
    with pytest.raises(ValueError, match="decomposition"):
        lambda_to_kappa(PauliChannelParams(0.05, 0.05, 0.0), 0.5)


def test_lambda_to_kappa_first_order():
    k = lambda_to_kappa(PauliChannelParams(0.05, 0.05, 0.05), 0.5, mode="first-order")
    assert np.allclose(k.as_tuple(), [0.1] * 3, atol=1e-15)


def test_lambda_to_kappa_rejects_strong_channel():
    with pytest.raises(ValueError):
        lambda_to_kappa(PauliChannelParams(0.3, 0.2, 0.1), 0.5)


def test_kappa_to_lambda_uniform():
    p = kappa_to_lambda(PauliRates(0.1, 0.1, 0.1), 0.5)
    expected = (1 - math.exp(-0.2)) / 4
    assert np.allclose(p.as_tuple(), [expected] * 3, atol=1e-14)
    assert p.lx == pytest.approx(0.045317311730504545, abs=1e-12)


def test_kappa_lambda_roundtrip(rng):
    count = 0
    while count < 10:
        rates = rng.uniform(0, 0.4, 3)
        dt = rng.uniform(0.1, 1.0)
        lam = kappa_to_lambda(PauliRates(*rates), dt)
        if lam.lx + lam.ly + lam.lz > 0.5:
            continue  # outside the weak-channel domain of the exact mode
        back = lambda_to_kappa(lam, dt)
        assert np.allclose(back.as_tuple(), rates, atol=1e-12)
        count += 1


def test_kappa_to_lambda_matches_exponential(rng):
    for _ in range(10):
        rates = PauliRates(*rng.uniform(0, 0.5, 3))
        dt = rng.uniform(0.1, 1.0)
        n = channel_superop(kappa_to_lambda(rates, dt))
        reference = expm(pauli_dissipator(rates).matrix * dt)
        assert max_abs_diff(n, reference) < 1e-12


def test_coeffs_to_superop_identity():
    assert max_abs_diff(
        coeffs_to_superop(MitigationCoeffs(1, 0, 0, 0)), np.eye(4)
    ) == 0.0


def test_coeffs_to_superop_trace_preserving(rng):
    q = MitigationCoeffs(1.3, -0.1, -0.15, -0.05)
    row = np.array([1.0, 0.0, 0.0, 1.0])
    assert max_abs_diff(row @ coeffs_to_superop(q), row) < 1e-14


def test_general_coeffs_convert_device_into_target(rng):
    for _ in range(10):
        g = PauliRates(*rng.uniform(0, 0.5, 3))
        k = PauliRates(*rng.uniform(0, 0.5, 3))
        dt = rng.uniform(0.1, 1.0)
        m = coeffs_to_superop(general_exact_coeffs(g, k, dt))
        lhs = m @ expm(pauli_dissipator(k).matrix * dt)
        rhs = expm(pauli_dissipator(g).matrix * dt)
        assert max_abs_diff(lhs, rhs) < 1e-12


_GRID_TARGETS = [(0.0, 0.0, 0.0), (0.3, 0.0, 0.0), (0.5, 0.2, 0.4)]
_GRID_DEVICES = [(0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (0.16, 0.12, 0.2)]
_GRID_DTS = [0.1, 0.5, 1.0]


@pytest.mark.parametrize("g", _GRID_TARGETS)
@pytest.mark.parametrize("k", _GRID_DEVICES)
@pytest.mark.parametrize("dt", _GRID_DTS)
def test_general_coeffs_grid_invariants(g, k, dt):
    q = general_exact_coeffs(PauliRates(*g), PauliRates(*k), dt)
    assert abs(sum(q.as_tuple()) - 1.0) <= 1e-12
    assert q.q0 > 0.25
    lhs = coeffs_to_superop(q) @ expm(pauli_dissipator(PauliRates(*k)).matrix * dt)
    rhs = expm(pauli_dissipator(PauliRates(*g)).matrix * dt)
    assert max_abs_diff(lhs, rhs) < 1e-10


def test_exact_inverse_consistent_with_general_route():
    lam = PauliChannelParams(0.16, 0.12, 0.2)
    direct = exact_inverse_coeffs(lam)
    via_rates = general_exact_coeffs(PauliRates(), lambda_to_kappa(lam, 0.5), 0.5)
    assert np.allclose(direct.as_tuple(), via_rates.as_tuple(), atol=1e-12)


def test_first_order_agrees_with_general_to_second_order():
    g, k = PauliRates(0.3, 0.0, 0.1), PauliRates(0.1, 0.2, 0.05)
    dts = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    diffs = []
    for dt in dts:
        qa = np.array(first_order_coeffs(g, tuple(x * dt for x in k.as_tuple()), dt).as_tuple())
        qb = np.array(general_exact_coeffs(g, k, dt).as_tuple())
        diffs.append(np.max(np.abs(qa - qb)))
    slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_linear_inverse_differs_from_first_order_at_second_order():
    k = PauliRates(0.1, 0.2, 0.05)
    dts = np.array([0.2, 0.1, 0.05, 0.025, 0.0125])
    diffs = []
    for dt in dts:
        qa = np.array(linear_inverse_coeffs(k, dt).as_tuple())
        qb = np.array(
            first_order_coeffs(PauliRates(), tuple(x * dt for x in k.as_tuple()), dt).as_tuple()
        )
        diffs.append(np.max(np.abs(qa - qb)))
    slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_sampling_distribution_trivial():
    d = sampling_distribution(MitigationCoeffs(1, 0, 0, 0))
    assert d.mu_tuple() == (0, 0, 0)
    assert d.prefactor == 1.0


def test_sampling_distribution_uniform_inverse():
    q = MitigationCoeffs(1.1875, -0.0625, -0.0625, -0.0625)
    d = sampling_distribution(q)
    assert d.prefactor == pytest.approx(1.375, abs=1e-15)
    assert np.allclose(d.mu_tuple(), [0.0625 / 1.375] * 3, atol=1e-15)
    assert d.signs == (-1, -1, -1)

    biased = sampling_distribution(q, bias=0.97)
    assert np.allclose(biased.mu_tuple(), [0.97 * 0.0625 / 1.375] * 3, atol=1e-15)
    assert biased.mu1 == pytest.approx(0.04409090909090909, abs=1e-14)
    assert biased.prefactor == d.prefactor  # bias never rescales the prefactor


def test_sampling_distribution_rejects_overflowing_bias():
    q = MitigationCoeffs(3.0, -2.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        sampling_distribution(q, bias=3.0)
    with pytest.raises(ValueError):
        sampling_distribution(q, bias=0.0)


def test_expected_superop_matches_coeffs_when_unbiased(rng):
    q = MitigationCoeffs(1.3, -0.1, -0.15, -0.05)
    d = sampling_distribution(q, bias=1.0)
    assert max_abs_diff(expected_superop(d), coeffs_to_superop(q)) < 1e-15


@settings(max_examples=50)
@given(
    lam=st.tuples(st.floats(0, 0.15), st.floats(0, 0.15), st.floats(0, 0.15)),
)
def test_all_constructors_produce_unit_sum(lam):
    p = PauliChannelParams(*lam)
    assume(min(_kappa_oracle(*lam, 0.5)) >= 0.0)  # rate decomposition must exist
    for q in (
        exact_inverse_coeffs(p),
        first_order_coeffs(PauliRates(), lam, 0.5),
        general_exact_coeffs(PauliRates(), lambda_to_kappa(p, 0.5), 0.5),
    ):
        assert abs(sum(q.as_tuple()) - 1.0) <= 1e-12
        d = sampling_distribution(q)
        assert d.prefactor == pytest.approx(
            q.q0 + abs(q.q1) + abs(q.q2) + abs(q.q3), abs=1e-14
        )
        assert d.mu1 + d.mu2 + d.mu3 <= 1.0
