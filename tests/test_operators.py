import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from reference_generator import anticommutator, commutator

from qfiflow import operators
from qfiflow.operators import (
    IDENTITY_2,
    SIGMA_MINUS,
    SIGMA_PLUS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DimensionMismatchError,
    NegativeEigenvalueError,
    NotHermitianError,
    ToleranceConfig,
    TraceDeviationError,
    density_eigh,
    hermiticity_defect,
    hermitize,
    matmul,
    validate_density,
)


def _square(dim, scale=5.0):
    elements = st.complex_numbers(max_magnitude=scale, allow_nan=False, allow_infinity=False)
    return hnp.arrays(np.complex128, (dim, dim), elements=elements)


def matrix_pairs(max_dim=5):
    return st.integers(1, max_dim).flatmap(lambda n: st.tuples(_square(n), _square(n)))


def matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(_square)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        npt.assert_array_equal(commutator(SIGMA_Z, SIGMA_Z), np.zeros((2, 2)))

    def test_pauli_algebra(self):
        npt.assert_allclose(commutator(SIGMA_X, SIGMA_Y), 2j * SIGMA_Z, atol=1e-15)

    def test_sigma_x_with_lowering(self):
        # direct 2x2 arithmetic with sigma_minus = |0><1| gives -sigma_z
        npt.assert_allclose(commutator(SIGMA_X, SIGMA_MINUS), -SIGMA_Z, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(SIGMA_X, np.eye(3, dtype=complex))


class TestAnticommutator:
    def test_pauli_squares_to_identity(self):
        npt.assert_allclose(anticommutator(SIGMA_X, SIGMA_X), 2 * IDENTITY_2, atol=1e-15)

    def test_pauli_anticommutation(self):
        npt.assert_allclose(anticommutator(SIGMA_X, SIGMA_Y), np.zeros((2, 2)), atol=1e-15)

    def test_number_operator_with_excited_projector(self):
        excited = np.diag([0.0, 1.0]).astype(complex)
        npt.assert_allclose(
            anticommutator(SIGMA_PLUS @ SIGMA_MINUS, excited), 2 * excited, atol=1e-15
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            anticommutator(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


class TestHermitize:
    def test_definition(self):
        m = np.array([[1.0, 1j], [0.0, 1.0]], dtype=complex)
        npt.assert_allclose(hermitize(m), np.array([[1.0, 0.5j], [-0.5j, 1.0]]), atol=1e-15)

    def test_hermitian_fixed_point(self):
        npt.assert_array_equal(hermitize(SIGMA_Y), SIGMA_Y)

    def test_upper_triangular(self):
        m = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
        npt.assert_allclose(hermitize(m), SIGMA_X, atol=1e-15)

    def test_stack_matrix_by_matrix(self):
        stack = np.array([[[1.0, 1j], [0.0, 1.0]], [[0.0, 2.0], [0.0, 0.0]]], dtype=complex)
        npt.assert_array_equal(hermitize(stack), [hermitize(m) for m in stack])


def _one_defect(m):
    """max |m - m†| of one matrix."""
    return float(np.max(np.abs(m - m.conj().T)))


class TestHermiticityDefect:
    def test_one_matrix(self):
        assert hermiticity_defect(SIGMA_Y) == 0.0
        assert hermiticity_defect(SIGMA_MINUS) == 1.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_stack_matrix_by_matrix(self, n):
        # transposing the whole stack mixed its matrices: two Hermitian ones read
        # 2.0, and three did not broadcast
        hermitian = np.array([SIGMA_X, SIGMA_Y, SIGMA_Z][:n])
        npt.assert_array_equal(hermiticity_defect(hermitian), np.zeros(n))
        non_hermitian = np.array([SIGMA_MINUS, 1j * SIGMA_X, 3 * SIGMA_PLUS][:n])
        npt.assert_array_equal(hermiticity_defect(non_hermitian), [_one_defect(m) for m in non_hermitian])

    @settings(max_examples=100, deadline=None)
    @given(
        st.tuples(st.integers(1, 5), st.integers(1, 4)).flatmap(
            lambda nd: st.lists(_square(nd[1]), min_size=nd[0], max_size=nd[0])
        ),
        st.booleans(),
    )
    def test_random_stacks(self, matrices, hermitian):
        stack = np.array(matrices)
        stack = hermitize(stack) if hermitian else stack
        defects = hermiticity_defect(stack)
        assert defects.shape == stack.shape[:1]
        npt.assert_array_equal(defects, [_one_defect(m) for m in stack])


class TestValidateDensity:
    def test_maximally_mixed_qubit(self):
        validate_density(IDENTITY_2 / 2)

    def test_diagonal_mixture(self):
        assert validate_density(np.diag([0.6, 0.4]).astype(complex)) == pytest.approx(0.4, abs=1e-15)

    def test_negative_eigenvalue_reported(self):
        with pytest.raises(NegativeEigenvalueError) as err:
            validate_density(np.diag([1.1, -0.1]).astype(complex))
        assert err.value.deviation == pytest.approx(-0.1)

    def test_not_hermitian_reported(self):
        m = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitianError) as err:
            validate_density(m)
        assert err.value.deviation == pytest.approx(0.1)

    def test_trace_deviation_reported(self):
        with pytest.raises(TraceDeviationError) as err:
            validate_density(np.diag([0.7, 0.7]).astype(complex))
        assert err.value.deviation == pytest.approx(0.4)

    def test_tolerances_are_configurable(self):
        loose = ToleranceConfig(herm=1e-10, trace=0.5, positivity=1e-9)
        validate_density(np.diag([0.7, 0.7]).astype(complex), loose)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            validate_density(np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex))


def _mixed_states(n, seed=3, d=2):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = g @ g.conj().T
        out.append(hermitize(rho / np.trace(rho).real))
    return np.array(out)


def _break_trace(m):
    return 1.5 * m


def _break_hermiticity(m):
    return m + np.array([[0.0, 0.1], [0.0, 0.0]])


def _negative(lam):
    return lambda m: np.diag([1.0 - lam, lam]).astype(complex)


class TestValidateDensityStack:
    def test_returns_smallest_eigenvalue_of_the_stack(self):
        stack = _mixed_states(7)
        assert validate_density(stack) == min(validate_density(m) for m in stack)

    @pytest.mark.parametrize(
        "breaks, error, index",
        [
            ({3: _break_trace, 5: _break_hermiticity}, TraceDeviationError, 3),
            ({1: _break_hermiticity, 4: _negative(-0.1)}, NotHermitianError, 1),
            ({2: _negative(-0.1), 4: _negative(-0.2), 6: _break_trace}, NegativeEigenvalueError, 2),
            ({0: _negative(-0.1)}, NegativeEigenvalueError, 0),
        ],
    )
    def test_first_failing_matrix_in_stack_order(self, breaks, error, index):
        stack = _mixed_states(7)
        for k, brk in breaks.items():
            stack[k] = brk(stack[k])
        with pytest.raises(error) as err:
            validate_density(stack)
        assert err.value.index == index
        with pytest.raises(error) as alone:
            validate_density(stack[index])
        assert str(err.value) == str(alone.value)
        assert err.value.deviation == alone.value.deviation

    @pytest.mark.parametrize("bad", [0, 2, 6])
    def test_non_finite_matrix_never_reaches_the_eigensolver(self, solver_calls, bad):
        stack = _mixed_states(7)
        stack[bad, 1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite") as err:
            validate_density(stack)
        assert err.value.index == bad
        assert all(np.isfinite(h).all() for h, _ in solver_calls)
        assert sum(len(h) for h, _ in solver_calls) == bad


def _lapack_spectrum(h, vectors):
    return (np.linalg.eigh if vectors else np.linalg.eigvalsh)(h)


class TestDensityEigh:
    def test_a_plain_eigh_tuple_as_numpy_1x_returns(self, monkeypatch):
        # numpy < 2.0 returns (w, v) as a plain tuple, without .eigenvalues; only
        # stacks of d >= 3 still reach LAPACK
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kwargs: tuple(eigh(a, *args, **kwargs)))
        stack = _mixed_states(7, d=3)
        p, U = density_eigh(stack)
        want = eigh(hermitize(stack))
        npt.assert_array_equal(p, want[0])
        npt.assert_array_equal(U, want[1])
        stack[4] = np.diag([1.1, 0.0, -0.1]).astype(complex)
        with pytest.raises(NegativeEigenvalueError) as err:
            density_eigh(stack)
        assert err.value.index == 4


def _rotated(m, seed):
    """m in a random basis: a negative member whose gate error is not read off a diagonal."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q @ m @ q.conj().T


class TestQubitGateMatchesLapack:
    # The closed-form solver sits behind the same filters as LAPACK did: on a
    # qubit stack with one bad member, both gates raise the same error class,
    # index and message as the gate whose solver is LAPACK's.
    BREAKS = {
        "negative": lambda m: _rotated(np.diag([1.1, -0.1]).astype(complex), 7),
        "slightly negative": lambda m: _rotated(np.diag([1.0 + 3e-9, -3e-9]).astype(complex), 8),
        "non-finite": lambda m: np.where([[False, True], [False, False]], np.inf, m),
        "non-Hermitian": _break_hermiticity,
        "off-trace": _break_trace,
    }

    @pytest.mark.parametrize("gate", [validate_density, density_eigh])
    @pytest.mark.parametrize("bad", [0, 3, 6])
    @pytest.mark.parametrize("kind", list(BREAKS))
    def test_same_error_as_lapack(self, monkeypatch, gate, bad, kind):
        stack = _mixed_states(7)
        stack[bad] = self.BREAKS[kind](stack[bad])
        with pytest.raises(ValueError) as got:
            gate(stack)
        monkeypatch.setattr(operators, "_spectrum", _lapack_spectrum)
        with pytest.raises(ValueError) as want:
            gate(stack)
        assert type(got.value) is type(want.value)
        assert got.value.index == want.value.index == bad
        assert str(got.value) == str(want.value)


# Stacks of 2 x 2 complex matrices with entries of modulus up to about 1e100,
# subnormal ones included, so that products neither overflow nor avoid underflow.
_qubit_entries = st.builds(
    complex, st.floats(-1e100, 1e100, allow_subnormal=True), st.floats(-1e100, 1e100, allow_subnormal=True)
)


def _qubit_stacks(shape):
    return hnp.arrays(np.complex128, shape + (2, 2), elements=_qubit_entries)


def _hermitian_qubits(n):
    """n Hermitian 2 x 2 matrices [[a, b], [b*, c]], entries drawn as _qubit_entries."""
    reals = st.floats(-1e100, 1e100, allow_subnormal=True)
    return st.tuples(
        hnp.arrays(np.float64, (n,), elements=reals),
        hnp.arrays(np.float64, (n,), elements=reals),
        hnp.arrays(np.complex128, (n,), elements=_qubit_entries),
    ).map(lambda acb: np.stack([acb[0], acb[2], acb[2].conj(), acb[1]], axis=1).reshape(n, 2, 2).astype(complex))


class TestQubitSpectrum:
    # Bounds, derived before measuring, with u = 2^-53 and |A| = 2 max |a_ij|,
    # which bounds the Frobenius norm and so the spectral one (a sum of
    # squares would underflow).  The closed form rounds h, |b|, r, the
    # mean and mean -/+ r once each, within u of their size (at most |A|), so
    # its eigenvalues are within 5 u |A| of the exact ones; LAPACK's are within
    # p(2) u |A| (LAPACK Users' Guide, sec. 4.7), and p(2) <= 3 leaves 8 u |A|
    # between the two.  Under underflow each rounding is off by at most half
    # the smallest subnormal instead, 5 2^-1075 < 3 2^-1074.  U's entries
    # t / n and b / n are within 4 u of exact (t and the scaled r, n and the
    # quotient), so U^H U is within 16 u of I entrywise.  U diag(p) U^H adds,
    # to those errors times |A| (two factors of U: 8 u, p: 5 u), its own
    # rounding, 4 u |A| for two products of three factors and one sum: 17 u
    # |A|, rounded up to 24 u |A|; where the p_j are subnormal, each of the 4
    # products per entry may underflow, and with p's 3 2^-1074, 8 2^-1074.
    U_ROUND = 2.0**-53
    SUB = 2.0**-1074

    def _check(self, h):
        p, U = operators._spectrum(h, vectors=True)
        w = np.linalg.eigvalsh(h)
        norm = 2 * np.abs(h).max(axis=(1, 2), initial=0.0)[:, None]
        npt.assert_array_equal(operators._spectrum(h, vectors=False), p)
        assert np.all(p[:, 0] <= p[:, 1])
        assert np.all(np.abs(p - w) <= 8 * self.U_ROUND * norm + 3 * self.SUB)
        identity = np.abs(U.conj().swapaxes(1, 2) @ U - np.eye(2))
        assert np.all(identity <= 16 * self.U_ROUND)
        rebuilt = (U * p[:, None, :]) @ U.conj().swapaxes(1, 2)
        assert np.all(np.abs(rebuilt - h) <= 24 * self.U_ROUND * norm[..., None] + 8 * self.SUB)
        return p, U

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 6).flatmap(_hermitian_qubits))
    def test_matches_lapack(self, h):
        self._check(h)

    @pytest.mark.parametrize(
        "h",
        [
            [[0.5, 0.0], [0.0, 0.5]],
            [[0.5, 5e-324], [5e-324, 0.5]],
            [[0.5, 1e-310j], [-1e-310j, 0.5]],
            [[0.3, 0.0], [0.0, 0.7]],
            [[0.7, 0.0], [0.0, 0.3]],
            [[1.0, 0.0], [0.0, 0.0]],
            [[0.0, 0.0], [0.0, 1.0]],
            [[0.25, 0.25 - 0.25j * np.sqrt(2)], [0.25 + 0.25j * np.sqrt(2), 0.75]],
            [[0.5, -0.5j], [0.5j, 0.5]],
        ],
        ids=["I/2", "I/2 + subnormal b", "I/2 + subnormal imaginary b", "b = 0, a < c", "b = 0, a > c",
             "pure |0>", "pure |1>", "pure, complex b", "pure, a = c"],
    )
    def test_fixed_states(self, h):
        h = np.array([h], dtype=complex)
        p, U = self._check(h)
        if h[0, 0, 1] == 0 and h[0, 0, 0] <= h[0, 1, 1]:  # r = 0, or b = 0 with a <= c: as LAPACK, U = I
            npt.assert_array_equal(U[0], np.eye(2))


class TestMatmul:
    # Bound, derived before measuring, with u = 2^-53: each complex product
    # a_ik b_kj, formed from four real products and two sums, is within
    # sqrt(5) u |a_ik| |b_kj| of the exact one (Brent, Percival & Zimmermann,
    # Math. Comp. 76, 1469 (2007)), and the sum of the two terms adds u of
    # their moduli: (sqrt(5) + 1) u (|a| @ |b|)_ij for either the elementwise
    # form or a BLAS product, 6.5 u between the two, rounded up to 7 u.  Each
    # of the four real products of a term may underflow instead, off by at
    # most half the smallest subnormal, 2^-1075 (sums are exact there): 8 per
    # entry and method, 16 2^-1075 = 8 2^-1074 absolute between the two.
    @staticmethod
    def _assert_within_rounding(got, a, b):
        want = a @ b
        bound = 7 * 2.0**-53 * (np.abs(a) @ np.abs(b)) + 8 * 2.0**-1074
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= bound)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6).flatmap(lambda n: st.tuples(_qubit_stacks((n,)), _qubit_stacks((n,)))))
    def test_qubit_stacks_match_blas_to_rounding(self, pair):
        a, b = pair
        self._assert_within_rounding(matmul(a, b), a, b)

    @settings(max_examples=200, deadline=None)
    @given(
        st.tuples(st.integers(1, 3), st.integers(0, 6)).flatmap(
            lambda cn: st.tuples(_qubit_stacks(cn), _qubit_stacks(cn[1:]))
        )
    )
    def test_channel_stack_broadcast_as_subflow_J_uses_it(self, pair):
        # (c, n, 2, 2) x (n, 2, 2) and back: [L, A] of every channel at once
        A, L = pair
        self._assert_within_rounding(matmul(L, A), L, A)
        self._assert_within_rounding(matmul(A, L), A, L)

    @pytest.mark.parametrize("d", [1, 3, 4, 16])
    def test_other_sizes_are_exactly_blas(self, d):
        rng = np.random.default_rng(d)
        a, b = (rng.normal(size=(2, 5, d, d)) + 1j * rng.normal(size=(2, 5, d, d)) for _ in range(2))
        npt.assert_array_equal(matmul(a, b), a @ b)
        npt.assert_array_equal(matmul(a, b[0]), a @ b[0])
        npt.assert_array_equal(matmul(a[0], b), a[0] @ b)


@given(matrix_pairs())
@settings(max_examples=200)
def test_commutator_antisymmetry(pair):
    a, b = pair
    npt.assert_array_equal(commutator(a, b), -commutator(b, a))


@given(matrix_pairs())
@settings(max_examples=200)
def test_commutator_trace_cyclicity(pair):
    a, b = pair
    bound = 1e-12 * max(np.linalg.norm(a) * np.linalg.norm(b), 1e-300)
    assert abs(np.trace(commutator(a, b))) <= max(bound, 1e-13)


@given(matrices())
@settings(max_examples=200)
def test_hermitize_idempotent_exactly(m):
    once = hermitize(m)
    npt.assert_array_equal(hermitize(once), once)


@given(matrix_pairs(max_dim=4))
@settings(max_examples=200)
def test_hermitian_pair_symmetry_classes(pair):
    a, b = hermitize(pair[0]), hermitize(pair[1])
    c = commutator(a, b)
    ac = anticommutator(a, b)
    scale = max(1.0, float(np.max(np.abs(a))) * float(np.max(np.abs(b))))
    assert np.max(np.abs(c + c.conj().T)) <= 1e-12 * scale
    assert np.max(np.abs(ac - ac.conj().T)) <= 1e-12 * scale
