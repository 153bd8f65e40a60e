"""GF(2^m) arithmetic: axioms, tables, and polynomial evaluation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import reference_gf2m_tables
from repro.errors import ConfigurationError
from repro.randomness.finite_field import (
    _IRREDUCIBLE,
    GF2m,
    _tables,
    inner_product_bits,
    min_degree_for,
    supported_degrees,
)

SMALL_DEGREES = [1, 2, 3, 4, 5, 8]
TABLE_DEGREES = [m for m in supported_degrees() if m <= 16]


@pytest.fixture(params=SMALL_DEGREES)
def field(request):
    return GF2m(request.param)


def elements(m: int):
    return st.integers(min_value=0, max_value=(1 << m) - 1)


class TestAxioms:
    @given(data=st.data())
    def test_mul_commutative(self, field, data):
        a = data.draw(elements(field.m))
        b = data.draw(elements(field.m))
        assert field.mul(a, b) == field.mul(b, a)

    @given(data=st.data())
    def test_mul_associative(self, field, data):
        a = data.draw(elements(field.m))
        b = data.draw(elements(field.m))
        c = data.draw(elements(field.m))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    @given(data=st.data())
    def test_distributive(self, field, data):
        a = data.draw(elements(field.m))
        b = data.draw(elements(field.m))
        c = data.draw(elements(field.m))
        left = field.mul(a, field.add(b, c))
        right = field.add(field.mul(a, b), field.mul(a, c))
        assert left == right

    @given(data=st.data())
    def test_multiplicative_identity(self, field, data):
        a = data.draw(elements(field.m))
        assert field.mul(a, 1) == a

    @given(data=st.data())
    def test_additive_inverse_is_self(self, field, data):
        a = data.draw(elements(field.m))
        assert field.add(a, a) == 0

    @given(data=st.data())
    def test_inverse(self, field, data):
        a = data.draw(elements(field.m).filter(lambda x: x != 0))
        assert field.mul(a, field.inv(a)) == 1

    def test_zero_has_no_inverse(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    @given(data=st.data())
    def test_closure(self, field, data):
        a = data.draw(elements(field.m))
        b = data.draw(elements(field.m))
        assert 0 <= field.mul(a, b) < field.order


class TestTables:
    """Table-based fast path must agree with carry-less multiplication."""

    @pytest.mark.parametrize("m", [2, 3, 4, 12, 13])
    def test_table_matches_slow(self, m):
        field = GF2m(m)
        assert field._log, f"expected tables for m={m}"
        step = max(1, field.order // 37)
        for a in range(1, field.order, step):
            for b in range(1, field.order, step):
                assert field.mul(a, b) == field._mul_slow(a, b)

    def test_aes_field_falls_back(self):
        # x is not primitive for the AES polynomial, so its tables are
        # built over the generator x + 1; they must still give the
        # textbook product.
        field = GF2m(8)
        assert field.mul(0x53, 0xCA) == 0x01

    def test_aes_table_matches_slow_exhaustively(self):
        field = GF2m(8)
        for a in range(256):
            for b in range(256):
                assert field.mul(a, b) == field._mul_slow(a, b)

    @pytest.mark.parametrize("m", TABLE_DEGREES)
    def test_every_small_degree_has_tables(self, m):
        field = GF2m(m)
        assert field._log and field._log_np is not None

    def test_large_degree_has_no_tables(self):
        field = GF2m(17)
        assert field._log_np is None
        assert field.eval_poly_vec([1, 2], np.array([3])).tolist() == \
            [field.eval_poly([1, 2], 3)]

    @pytest.mark.parametrize("m", [17, 24, 31])
    def test_vector_ops_match_scalar_without_tables(self, m):
        field = GF2m(m)
        xs = _operands(field)[:60]
        coeffs = np.random.default_rng(m).integers(0, field.order, 5).tolist()
        got = field.eval_poly_vec(coeffs, xs)
        assert got.dtype == np.int64
        assert got.tolist() == [field.eval_poly(coeffs, x) for x in xs.tolist()]
        exps = np.array([0, 1, 2, field.order - 1, field.order, 12345])
        for a in (0, 1, 3, field.order - 1):
            got = field.pow_vec(a, exps)
            assert got.dtype == np.int64
            assert got.tolist() == [field.pow(a, e) for e in exps.tolist()]

    @pytest.mark.parametrize("m", range(1, 17))
    def test_vectorized_build_matches_scalar_reference(self, m):
        log, exp, log_np, exp_np = reference_gf2m_tables(m, _IRREDUCIBLE[m])
        built = _tables(m)
        assert built.log == log and built.exp == exp
        assert all(type(v) is int for v in built.log[:4] + built.exp[:4])
        for got, want in ((built.log_np, log_np), (built.exp_np, exp_np)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m", [1, 8, 16])
    def test_instances_share_one_table_object(self, m):
        a, b = GF2m(m), GF2m(m)
        assert a._log is b._log and a._exp is b._exp
        assert a._log_np is b._log_np and a._exp_np is b._exp_np

    @pytest.mark.parametrize("m", [1, 8, 16])
    def test_numpy_tables_are_read_only(self, m):
        field = GF2m(m)
        for table in (field._log_np, field._exp_np):
            with pytest.raises(ValueError):
                table[1] = 0


def _operands(field):
    """Every element for m <= 8; otherwise a sample with zero and one."""
    if field.m <= 8:
        return np.arange(field.order, dtype=np.int64)
    rng = np.random.default_rng(field.m)
    sample = rng.integers(0, field.order, 300, dtype=np.int64)
    return np.concatenate([[0, 1, field.order - 1], sample])


class TestVectorKernels:
    """The numpy kernels must equal the scalar arithmetic, zeros included."""

    @pytest.mark.parametrize("m", TABLE_DEGREES)
    def test_mul_vec_matches_mul(self, m):
        """The vector product — the log-domain step of each Horner
        iteration — on every pair (exhaustive for m <= 8): ``b * x`` is
        the polynomial ``[0, b]`` at ``x``."""
        field = GF2m(m)
        xs = _operands(field)
        for b in xs.tolist():
            got = field.eval_poly_vec([0, b], xs)
            assert got.dtype == np.int64
            assert got.tolist() == [field.mul(b, x) for x in xs.tolist()], b

    @pytest.mark.parametrize("m", TABLE_DEGREES)
    def test_eval_poly_vec_matches_eval_poly(self, m):
        field = GF2m(m)
        xs = _operands(field)
        top = field.order - 1
        polys = [[], [0], [5 & top], [0, 0, 0], [top, 0, 1 % field.order],
                 [0, 3 & top, 0, top], [1, 1, 1, 1, 1]]
        rng = np.random.default_rng(100 + m)
        polys.append(rng.integers(0, field.order, 6).tolist())
        for coeffs in polys:
            got = field.eval_poly_vec(coeffs, xs)
            want = [field.eval_poly(coeffs, int(x)) for x in xs]
            assert got.tolist() == want, coeffs

    @pytest.mark.parametrize("m", TABLE_DEGREES)
    def test_pow_range_vec_matches_pow(self, m):
        """``pow_vec`` over runs of consecutive exponents, the shape an
        epsilon-biased source asks for, wrapping past the group order."""
        field = GF2m(m)
        count = field.order + 2 if m <= 8 else 40
        for a in _operands(field).tolist():
            for start in (0, 1, field.order - 2):
                got = field.pow_vec(a, start + np.arange(count))
                want = [field.pow(a, start + i) for i in range(count)]
                assert got.tolist() == want, (a, start)

    @pytest.mark.parametrize("m", TABLE_DEGREES)
    def test_pow_vec_matches_pow(self, m):
        field = GF2m(m)
        rng = np.random.default_rng(200 + m)
        exps = np.concatenate((
            [0, 1, field.order - 1, field.order, 3 * field.order + 5],
            rng.integers(0, 4 * field.order, 30))).astype(np.int64)
        for a in _operands(field).tolist():
            got = field.pow_vec(a, exps)
            assert got.tolist() == [field.pow(a, int(e)) for e in exps], a


class TestHelpers:
    def test_pow_matches_repeated_mul(self):
        field = GF2m(5)
        a = 7
        acc = 1
        for e in range(10):
            assert field.pow(a, e) == acc
            acc = field.mul(acc, a)

    def test_pow_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            GF2m(5).pow(3, -1)

    def test_eval_poly_horner(self):
        field = GF2m(4)
        coeffs = [3, 5, 7]  # 3 + 5x + 7x^2
        for x in range(field.order):
            expected = field.add(
                field.add(3, field.mul(5, x)),
                field.mul(7, field.mul(x, x)))
            assert field.eval_poly(coeffs, x) == expected

    def test_eval_poly_constant(self):
        field = GF2m(3)
        assert field.eval_poly([6], 5) == 6

    def test_eval_empty_poly_is_zero(self):
        assert GF2m(3).eval_poly([], 4) == 0

    def test_element_reduces(self):
        field = GF2m(4)
        assert field.element(0xFF) == 0xF

    def test_unsupported_degree(self):
        with pytest.raises(ConfigurationError):
            GF2m(64)

    def test_min_degree_for(self):
        assert min_degree_for(2) == 1
        assert min_degree_for(3) == 2
        assert min_degree_for(1 << 10) == 10
        assert min_degree_for((1 << 10) + 1) == 11

    def test_supported_degrees_sorted(self):
        degrees = supported_degrees()
        assert degrees == sorted(degrees)
        assert 16 in degrees

    @given(a=st.integers(0, 255), b=st.integers(0, 255))
    def test_inner_product_bits(self, a, b):
        expected = sum(
            ((a >> i) & 1) * ((b >> i) & 1) for i in range(8)) % 2
        assert inner_product_bits(a, b) == expected

    def test_eq_and_hash(self):
        assert GF2m(5) == GF2m(5)
        assert GF2m(5) != GF2m(6)
        assert hash(GF2m(5)) == hash(GF2m(5))
