import numpy as np
import numpy.testing as npt
import pytest

from reference_flow import library_sld

from qfiflow.operators import IDENTITY_2, SIGMA_X, hermitize, hermiticity_defect


def sld_lstsq(rho, sig):
    """Independent oracle: least-squares solve of rho L + L rho = 2 sig
    via the Kronecker-product linear system (row-major vec convention)."""
    n = rho.shape[0]
    K = np.kron(rho, np.eye(n)) + np.kron(np.eye(n), rho.T)
    return np.linalg.lstsq(K, 2.0 * sig.reshape(-1), rcond=None)[0].reshape(n, n)


def random_density(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_traceless_hermitian(rng, n):
    sig = hermitize(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return sig - (np.trace(sig) / n) * np.eye(n)


def sld_one(rho, sig):
    """library_sld on one state: (L, QFI, thresholded pairs)."""
    L, qfi, cut = library_sld(np.asarray(rho)[None], np.asarray(sig)[None])
    return L[0], qfi[0], cut[0]


def random_stacks(rng, n, count):
    rho = np.array([random_density(rng, n) for _ in range(count)])
    return rho, np.array([random_traceless_hermitian(rng, n) for _ in range(count)])


class TestSldExamples:
    def test_maximally_mixed(self):
        L, qfi, cut = sld_one(IDENTITY_2 / 2, SIGMA_X / 2)
        npt.assert_allclose(L, SIGMA_X, atol=1e-12)
        assert qfi == pytest.approx(1.0, abs=1e-12)
        assert cut == 0

    def test_pure_ground_state(self):
        # family cos(theta/2)|0> + sin(theta/2)|1> at theta = 0
        rho = np.diag([1.0, 0.0]).astype(complex)
        L, qfi, cut = sld_one(rho, SIGMA_X / 2)
        npt.assert_allclose(L, SIGMA_X, atol=1e-12)
        assert qfi == pytest.approx(1.0, abs=1e-12)
        assert cut == 1  # the kernel-kernel pair

    def test_diagonal_classical_case(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        L, qfi, _ = sld_one(rho, np.diag([1.0, -1.0]).astype(complex))
        npt.assert_allclose(L, np.diag([4.0, -4.0 / 3.0]), atol=1e-12)
        assert qfi == pytest.approx(16.0 / 3.0, abs=1e-12)

    def test_rank_cutoff_relative_to_largest_eigenvalue_in_any_order(self):
        # the cutoff scales with each state's largest eigenvalue, wherever it sits
        # on the diagonal: pair sums of 2e-13 are cut against p_max = 1, not against 1e-3
        p = np.array([[1.0, 1e-13, 1e-13], [1e-13, 1e-13, 1.0], [1e-3, 1e-13, 1e-13]])
        rho = np.array([np.diag(row) for row in p]).astype(complex)
        L, _, cut = library_sld(rho, np.stack([np.eye(3, dtype=complex)] * 3))
        npt.assert_array_equal(cut, [4, 4, 0])
        npt.assert_allclose(np.diagonal(L, axis1=1, axis2=2).real, [[1, 0, 0], [0, 0, 1], 1.0 / p[2]], rtol=1e-12)


class TestQfiExamples:
    def test_zero_operator(self):
        assert sld_one(IDENTITY_2 / 2, np.zeros((2, 2), complex))[1] == 0.0

    def test_pauli_on_mixed(self):
        assert sld_one(IDENTITY_2 / 2, SIGMA_X / 2)[1] == pytest.approx(1.0)

    def test_diagonal(self):
        rho = np.diag([0.25, 0.75]).astype(complex)
        sig = np.diag([1.0, -1.0]).astype(complex)
        assert sld_one(rho, sig)[1] == pytest.approx(16.0 / 3.0)


class TestSldAgainstIndependentSolver:
    def test_full_rank_random_states(self):
        rng = np.random.default_rng(21)
        for n in (2, 3, 4):
            rho, sig = random_stacks(rng, n, 10)
            L, _, cut = library_sld(rho, sig)
            for k in range(10):
                npt.assert_allclose(L[k], sld_lstsq(rho[k], sig[k]), atol=1e-8)
            npt.assert_array_equal(cut, 0)

    def test_sld_equation_residual(self):
        rng = np.random.default_rng(22)
        rho, sig = random_stacks(rng, 3, 20)
        L, _, _ = library_sld(rho, sig)
        recon = 0.5 * (rho @ L + L @ rho)
        assert np.all(np.abs(recon - sig).max(axis=(1, 2)) <= 1e-8 * np.abs(sig).max(axis=(1, 2)))


class TestSldInvariants:
    def test_L_hermitian_and_qfi_nonnegative(self):
        rng = np.random.default_rng(23)
        L, qfi, _ = library_sld(*random_stacks(rng, 3, 30))
        assert max(hermiticity_defect(m) for m in L) <= 1e-10
        assert qfi.dtype == float and np.all(qfi >= 0.0)

    def test_trace_rho_L_vanishes_for_traceless_sig(self):
        rng = np.random.default_rng(24)
        rho, sig = random_stacks(rng, 4, 30)
        L, _, _ = library_sld(rho, sig)
        assert np.max(np.abs(np.trace(rho @ L, axis1=1, axis2=2))) <= 1e-9

    def test_qfi_equals_trace_L_dsig(self):
        # second identity from the defining equation: Tr[L^2 rho] = Tr[L drho]
        rng = np.random.default_rng(25)
        rho, sig = random_stacks(rng, 3, 30)
        L, qfi, _ = library_sld(rho, sig)
        rhs = np.trace(L @ sig, axis1=1, axis2=2).real
        assert np.all(np.abs(qfi - rhs) <= 1e-9 * np.maximum(1.0, np.abs(qfi)))

    def test_pure_state_shortcut(self):
        # for a rank-1 state, L = 2 drho on the support and coherence blocks
        rng = np.random.default_rng(26)
        v = rng.normal(size=3) + 1j * rng.normal(size=3)
        v /= np.linalg.norm(v)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        w -= (v.conj() @ w) * v  # tangent direction keeps normalization
        rho = np.outer(v, v.conj())
        sig = np.outer(w, v.conj()) + np.outer(v, w.conj())
        L = sld_one(rho, sig)[0]
        shortcut = 2.0 * sig
        p, U = np.linalg.eigh(rho)
        mask = (p[:, None] + p[None, :]) > 1e-12
        L_eig = U.conj().T @ L @ U
        S_eig = U.conj().T @ shortcut @ U
        npt.assert_allclose(np.where(mask, L_eig, 0), np.where(mask, S_eig, 0), atol=1e-10)

    def test_basis_covariance(self):
        rng = np.random.default_rng(27)
        rho = np.diag([0.2, 0.35, 0.45]).astype(complex)
        sig = random_traceless_hermitian(rng, 3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        L, qfi, _ = library_sld(np.stack([rho, q @ rho @ q.conj().T]), np.stack([sig, q @ sig @ q.conj().T]))
        assert np.max(np.abs(L[1] - q @ L[0] @ q.conj().T)) <= 1e-9
        assert abs(qfi[1] - qfi[0]) <= 1e-10


class TestSldErrors:
    def test_all_zero_rho(self):
        with pytest.raises(ValueError, match="no positive eigenvalues"):
            sld_one(np.zeros((2, 2), complex), np.zeros((2, 2), complex))

    def test_non_hermitian_derivative_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            sld_one(IDENTITY_2 / 2, np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
