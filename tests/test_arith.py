import pytest
from hypothesis import given, strategies as st

from p2qbrace import arith
from reference import es, es_table, fs, mod_pow


def naive_pow(base, exp, m):
    acc = 1 % m
    for _ in range(exp):
        acc = acc * base % m
    return acc


def naive_es(k, s, m):
    return sum(s**i for i in range(k)) % m


class TestModPow:
    def test_small_cases_against_repeated_multiplication(self):
        for base in range(-5, 12):
            for exp in range(8):
                for m in (2, 7, 9, 18, 63):
                    assert mod_pow(base, exp, m) == naive_pow(base, exp, m)

    def test_spec_values(self):
        assert mod_pow(2, 3, 7) == 1
        assert mod_pow(4, 3, 9) == 1

    def test_zero_exponent_is_one(self):
        for x in (1, 2, 5, 11):
            assert mod_pow(x, 0, 9) == 1

    def test_rejects_bad_modulus_and_exponent(self):
        with pytest.raises(ValueError):
            mod_pow(2, 3, 1)
        with pytest.raises(ValueError):
            mod_pow(2, -1, 7)


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

        assert [arith.is_prime(n) for n in range(-3, 10**5)] == [
            trial(n) for n in range(-3, 10**5)
        ]

    def test_large_values(self):
        assert arith.is_prime(1000000000000000003)
        assert not arith.is_prime(1000000000000000001)  # 101 * 9901 * 999999000001
        # strong pseudoprime to the first twelve prime bases
        assert not arith.is_prime(318665857834031151167461)

    def test_rejects_values_past_the_exact_range(self):
        with pytest.raises(ValueError):
            arith.is_prime(arith.PRIME_TEST_BOUND)


class TestMultOrder:
    def test_identity(self):
        for m in (5, 9, 21):
            assert arith.mult_order(1, m) == 1

    def test_known_orders(self):
        assert arith.mult_order(8, 9) == 2
        assert arith.mult_order(2, 7) == 3

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            arith.mult_order(3, 9)

    def test_order_divides_group_order(self):
        for m in (7, 9, 19, 25):
            phi = sum(1 for x in range(1, m) if _gcd(x, m) == 1)
            for x in range(2, m):
                if _gcd(x, m) == 1:
                    assert phi % arith.mult_order(x, m) == 0


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


class TestCanonicalActionExponent:
    def test_spec_values(self):
        assert arith.canonical_action_exponent(2, 9) == 8
        assert arith.canonical_action_exponent(3, 7) == 2
        assert arith.canonical_action_exponent(1, 100) == 1

    def test_roundtrip_order(self):
        for order, m in [(2, 9), (3, 7), (9, 19), (2, 25), (5, 11), (3, 43)]:
            t = arith.canonical_action_exponent(order, m)
            assert arith.mult_order(t, m) == order

    def test_minimality(self):
        t = arith.canonical_action_exponent(3, 7)
        for smaller in range(2, t):
            assert arith.mult_order(smaller, 7) != 3

    def test_no_exponent_exists(self):
        with pytest.raises(ValueError):
            arith.canonical_action_exponent(5, 7)


class TestEs:
    def test_multiplier_one_is_identity_map(self):
        for k in range(20):
            assert es(k, 1, 9) == k % 9

    def test_direct_summation(self):
        assert es(3, 4, 9) == 3  # 1 + 4 + 16 = 21
        for k in range(12):
            for s in (1, 4, 7, 10):
                for m in (9, 27):
                    assert es(k, s, m) == naive_es(k, s, m)

    def test_full_table_s4_mod9(self):
        assert tuple(es_table(4, 9).values) == (0, 1, 5, 3, 4, 8, 6, 7, 2)

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_complete_residue_system(self, p, n):
        m = p**n
        for s in range(1, m, p):  # s = 1 mod p
            assert sorted(es_table(s, m).values) == list(range(m))

    @given(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=30),
        st.sampled_from([9, 27, 25, 125]),
    )
    def test_twisted_addition_rule(self, j, k, s, m):
        # es(j + k) = es(j) * s^k + es(k), the identity behind the
        # generator-first gamma constructions
        lhs = es(j + k, s, m)
        rhs = (es(j, s, m) * pow(s, k, m) + es(k, s, m)) % m
        assert lhs == rhs


class TestFs:
    def test_zero(self):
        assert fs(0, 4, 9) == 0

    def test_spec_value(self):
        assert fs(5, 4, 9) == 2

    def test_inverts_es(self):
        for s in (1, 4, 7):
            for k in range(9):
                assert fs(es(k, s, 9), s, 9) == k

    def test_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            fs(1, 2, 9)  # 2 is not 1 mod 3


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n,m", [(2, 1), (3, 1), (3, 2)])
def test_power_congruence_solutions(p, n, m):
    # solutions of x^(p^m) = 1 mod p^n are exactly 1 + h p^(n-m)
    mod = p**n
    got = {x for x in range(1, mod) if pow(x, p**m, mod) == 1}
    want = {(1 + h * p ** (n - m)) % mod for h in range(p**m)} - {0}
    assert got == want


class TestDivisibilityProfile:
    def test_exact_division(self):
        prof = arith.divisibility_profile(3, 7)
        assert prof.p_vs_q1 == "exact"
        assert not prof.q_divides_p1
        assert prof.g_types == (1, 2)

    def test_square_division(self):
        assert arith.divisibility_profile(3, 19).g_types == (1, 2, 3)

    def test_q_divides_p_minus_one(self):
        prof = arith.divisibility_profile(3, 2)
        assert prof.q_divides_p1
        assert prof.g_types == (1, 4)

    def test_no_relation(self):
        assert arith.divisibility_profile(5, 3).g_types == (1,)

    def test_rejections(self):
        with pytest.raises(ValueError):
            arith.divisibility_profile(3, 3)
        with pytest.raises(ValueError):
            arith.divisibility_profile(2, 3)
        with pytest.raises(ValueError):
            arith.divisibility_profile(3, 4)
        with pytest.raises(ValueError):
            arith.divisibility_profile(9, 7)
        with pytest.raises(ValueError):
            arith.divisibility_profile(101, 3)  # 101^2 * 3 > 10^4
        with pytest.raises(ValueError, match="exceeds the supported bound"):
            arith.divisibility_profile(arith.PRIME_TEST_BOUND + 2, 2)
