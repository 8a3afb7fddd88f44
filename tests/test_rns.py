"""Unit + property tests for the RNS basis, and parity of the native
two-word CRT kernels (digits, decrypt rounding) with the object path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bfv.decompose import digit_decompose
from repro.bfv.modmath import generate_ntt_primes, is_prime
from repro.bfv.native import native_available
from repro.bfv.ntt_batch import RnsNttEngine
from repro.bfv.rns import RnsBasis


@pytest.fixture(scope="module")
def basis():
    return RnsBasis.for_bit_budget(60, 256)


class TestConstruction:
    def test_bit_budget_met(self, basis):
        assert 58 <= basis.bits <= 62

    def test_limbs_stay_under_int64_safe_width(self, basis):
        for prime in basis.primes:
            assert prime.bit_length() <= 30

    def test_ntt_friendly(self, basis):
        for prime in basis.primes:
            assert prime % 512 == 1  # 2n = 512

    def test_large_budget_partitions(self):
        basis = RnsBasis.for_bit_budget(100, 1024)
        assert 98 <= basis.bits <= 102
        assert basis.count == 4

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            RnsBasis([257, 257])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            RnsBasis([])

    def test_rejects_tiny_budget(self):
        with pytest.raises(ValueError):
            RnsBasis.for_bit_budget(10, 256)


class TestComposeDecompose:
    def test_roundtrip(self, basis):
        rng = np.random.default_rng(0)
        coeffs = np.array(
            [int(rng.integers(0, 1 << 57)) for _ in range(16)], dtype=object
        )
        assert np.array_equal(basis.compose(basis.decompose(coeffs)), coeffs)

    def test_values_reduced_mod_q(self, basis):
        q = basis.modulus
        coeffs = np.array([q + 5, 2 * q + 7], dtype=object)
        composed = basis.compose(basis.decompose(coeffs))
        assert list(composed) == [5, 7]

    def test_compose_validates_shape(self, basis):
        with pytest.raises(ValueError):
            basis.compose(np.zeros((basis.count + 1, 4), dtype=np.int64))

    @given(st.lists(st.integers(min_value=0, max_value=(1 << 59)), min_size=1, max_size=8))
    @settings(max_examples=30)
    def test_roundtrip_property(self, values):
        basis = RnsBasis.for_bit_budget(60, 256)
        coeffs = np.array(values, dtype=object) % basis.modulus
        assert np.array_equal(basis.compose(basis.decompose(coeffs)), coeffs)

    def test_additive_homomorphism(self, basis):
        rng = np.random.default_rng(1)
        a = np.array([int(rng.integers(0, 1 << 50)) for _ in range(8)], dtype=object)
        b = np.array([int(rng.integers(0, 1 << 50)) for _ in range(8)], dtype=object)
        primes = np.array(basis.primes, dtype=np.int64)[:, None]
        summed = (basis.decompose(a) + basis.decompose(b)) % primes
        assert np.array_equal(basis.compose(summed), (a + b) % basis.modulus)


class TestScalar:
    def test_reduce_scalar(self, basis):
        residues = basis.reduce_scalar(12345678901234567)
        for residue, prime in zip(residues, basis.primes):
            assert residue == 12345678901234567 % prime


# -- native two-word CRT kernels vs the object-integer path -------------------


def object_digits(basis, stack, bits, count):
    """Reference: compose -> digit_decompose -> decompose_stack."""
    composed = basis.compose(stack)
    split = digit_decompose(composed, bits, count)
    n = stack.shape[-1]
    return basis.decompose_stack(np.stack(split, axis=1).reshape(-1, n))


def object_round(basis, residues, t):
    q = basis.modulus
    w = basis.compose(residues)
    return (((w * t * 2 + q) // (2 * q)) % t).astype(np.int64)


def engines(n, primes):
    """(numpy-only engine, engine with the kernel when it loads)."""
    return (
        RnsNttEngine(n, primes, use_native=False),
        RnsNttEngine(n, primes, use_native=None),
    )


def assert_native_or_none(engine, got, expected):
    """In-bound inputs: the kernel answers exactly when it is loaded, and
    its answer is the object path's bit for bit."""
    assert engine.uses_native_kernel == native_available()
    if engine.uses_native_kernel:
        assert got is not None and np.array_equal(got, expected)
    else:
        assert got is None


def random_residues(primes, tail, seed):
    rng = np.random.default_rng(seed)
    return np.stack([rng.integers(0, p, tail, dtype=np.int64) for p in primes])


def two_word_primes(n, under):
    """Four 30-bit primes plus a fifth that puts 5*q just under (or just
    over) 2^128, all NTT-friendly for ring degree n."""
    base = generate_ntt_primes(30, n, 4)
    product = 1
    for p in base:
        product *= p
    step = 2 * n
    limit = ((1 << 128) - 1) // (5 * product)  # largest fifth prime allowed
    candidate = limit - (limit - 1) % step
    while not is_prime(candidate):
        candidate -= step
    if not under:
        candidate += step
        while not is_prime(candidate):
            candidate += step
    return base + [candidate]


class TestNativeCrtDigits:
    @pytest.mark.parametrize("n", [2048, 4096])
    def test_random_residues_match_object_path(self, n):
        basis = RnsBasis.for_bit_budget(100, n)
        fallback, engine = engines(n, basis.primes)
        stack = random_residues(basis.primes, (2, n), seed=n)
        expected = object_digits(basis, stack, 16, 7)
        assert_native_or_none(engine, engine.crt_digits(stack, 16, 7), expected)
        assert fallback.crt_digits(stack, 16, 7) is None

    @pytest.mark.parametrize("bits, count", [(16, 7), (10, 10), (30, 4), (64, 2)])
    def test_all_maximum_residue(self, bits, count):
        n = 64
        basis = RnsBasis.for_bit_budget(100, n)
        _, engine = engines(n, basis.primes)
        top = np.array(basis.primes, dtype=np.int64)[:, None, None] - 1
        stack = np.broadcast_to(top, (basis.count, 3, n)).copy()
        assert_native_or_none(
            engine,
            engine.crt_digits(stack, bits, count),
            object_digits(basis, stack, bits, count),
        )

    def test_too_few_digits_take_the_object_path(self):
        basis = RnsBasis.for_bit_budget(100, 64)
        _, engine = engines(64, basis.primes)
        stack = random_residues(basis.primes, (1, 64), seed=3)
        assert engine.crt_digits(stack, 16, 6) is None  # 96 bits < log q
        with pytest.raises(ValueError):
            object_digits(basis, stack, 16, 6)

    def test_q_just_under_the_two_word_bound(self):
        n = 8
        primes = two_word_primes(n, under=True)
        basis = RnsBasis(primes)
        assert basis.count * basis.modulus < 1 << 128
        _, engine = engines(n, primes)
        stack = random_residues(primes, (2, n), seed=4)
        top = np.broadcast_to(
            np.array(primes, dtype=np.int64)[:, None, None] - 1, (len(primes), 1, n)
        )
        for x in (stack, top):
            assert_native_or_none(
                engine, engine.crt_digits(x, 16, 8), object_digits(basis, x, 16, 8)
            )

    def test_q_over_the_two_word_bound_falls_back(self):
        n = 8
        primes = two_word_primes(n, under=False)
        basis = RnsBasis(primes)
        assert basis.count * basis.modulus >= 1 << 128
        _, engine = engines(n, primes)
        stack = random_residues(primes, (1, n), seed=5)
        assert engine.crt_digits(stack, 16, 8) is None
        assert engine.crt_scale_round(stack[:, 0], 17) is None

    def test_scheme_digits_match_object_path(self, small_scheme):
        """The scheme's dispatch (kernel or object path, per
        REPRO_NTT_NATIVE) yields the object path's digits."""
        params = small_scheme.params
        basis = params.coeff_basis
        stack = random_residues(basis.primes, (3, params.n), seed=6)
        assert np.array_equal(
            small_scheme._digit_residues(stack),
            object_digits(basis, stack, params.a_dcmp_bits, params.l_ct),
        )


class TestNativeDecryptRounding:
    def boundary_values(self, q, t):
        """x just below, at and above q/(2t) * (2m +/- 1), for several m."""
        values = []
        for m in [0, 1, 2, t // 2, t - 2, t - 1]:
            for odd in (2 * m - 1, 2 * m + 1):
                if odd < 0:
                    continue
                centre = q * odd // (2 * t)
                values += [centre - 1, centre, centre + 1]
        values += [0, q - 1]
        return np.array([v % q for v in values], dtype=object)

    @pytest.mark.parametrize("t_bits", [17, 20])
    def test_rounding_boundaries(self, t_bits):
        n = 64
        basis = RnsBasis.for_bit_budget(100, n)
        t = next(p for p in range((1 << t_bits) + 1, 1 << (t_bits + 1), 2 * n) if is_prime(p))
        _, engine = engines(n, basis.primes)
        values = self.boundary_values(basis.modulus, t)
        residues = basis.decompose(values)
        assert_native_or_none(
            engine, engine.crt_scale_round(residues, t), object_round(basis, residues, t)
        )

    def test_plain_modulus_bound(self):
        """Native only while (2t + 1) * q < 2^128."""
        n = 64
        basis = RnsBasis.for_bit_budget(120, n)
        _, engine = engines(n, basis.primes)
        q = basis.modulus
        limit = ((1 << 128) - 1) // q  # largest 2t + 1 allowed
        t_under, t_over = (limit - 1) // 2, (limit + 1) // 2
        assert (2 * t_under + 1) * q < 1 << 128 <= (2 * t_over + 1) * q
        residues = basis.decompose(np.resize(self.boundary_values(q, t_under), n))
        assert_native_or_none(
            engine,
            engine.crt_scale_round(residues, t_under),
            object_round(basis, residues, t_under),
        )
        assert engine.crt_scale_round(residues, t_over) is None

    def test_scheme_decrypt_matches_object_rounding(self, small_scheme, small_keys):
        secret, public = small_keys
        params = small_scheme.params
        ct = small_scheme.encrypt_values(np.arange(params.n) % 97, public)
        w = small_scheme._raw_decrypt(ct, secret)
        t, q = params.plain_modulus, params.coeff_modulus
        expected = ((w * t * 2 + q) // (2 * q)) % t
        assert np.array_equal(
            small_scheme.decrypt(ct, secret).coeffs, expected.astype(np.int64)
        )
