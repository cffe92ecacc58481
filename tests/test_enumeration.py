import numpy as np
import pytest

from mbti_szondi import (
    PROFILE_COUNT,
    Factor,
    Profile,
    Signature,
    TypeIndicator,
    count_restricted,
    evaluate,
    parse_formula,
)
from mbti_szondi.enumeration import (
    count_full,
    digits_of_indices,
    evaluate_on_digits,
    restricted_universe,
    satisfying_vector,
)

import pinned


class TestDigits:
    def test_decoding_inverts_profile_index(self):
        indices = np.array([0, 1, 12, 12 ** 7, PROFILE_COUNT - 1, 194903345])
        digits = digits_of_indices(indices)
        for position, index in enumerate(indices):
            profile = Profile.from_index(int(index))
            assert [int(digits[f][position]) for f in Factor] == list(profile.signatures)

    def test_restricted_universe_shape_and_order(self):
        digits = restricted_universe((Factor.H, Factor.K))
        assert set(digits) == {Factor.H, Factor.K}
        assert len(digits[Factor.H]) == 144
        # first factor varies slowest
        assert list(digits[Factor.H][:12]) == [0] * 12
        assert list(digits[Factor.K][:12]) == list(range(12))

    def test_duplicate_factors_rejected(self):
        with pytest.raises(ValueError):
            restricted_universe((Factor.H, Factor.H))


class TestVectorizedEvaluation:
    def test_matches_pointwise_evaluate(self):
        indices = np.random.default_rng(11).integers(0, PROFILE_COUNT, size=500)
        digits = digits_of_indices(indices)
        f = parse_formula("(h+ | s-! & !e0) & (hy+- -> k+) | m-!!!")
        vector = evaluate_on_digits(f, digits)
        for position, index in enumerate(indices):
            p = Profile.from_index(int(index))
            assert bool(vector[position]) == evaluate(p, f)

    def test_missing_factor_rejected(self):
        digits = restricted_universe((Factor.H,))
        with pytest.raises(ValueError):
            evaluate_on_digits(parse_formula("k+"), digits)

    def test_satisfying_vector_checks_universe(self):
        with pytest.raises(ValueError):
            satisfying_vector(parse_formula("k+"), (Factor.H,))


class TestCounting:
    def test_single_atom(self):
        assert count_restricted(parse_formula("hy+")) == 12 ** 7

    def test_family_disjunction(self):
        assert count_restricted(parse_formula("k- | k+- | k+-^!")) == 3 * 12 ** 7

    def test_two_factor_conjunction(self):
        assert count_restricted(parse_formula("h+ & k-")) == 12 ** 6

    def test_negation(self):
        assert count_restricted(parse_formula("!h+")) == 11 * 12 ** 7

    def test_variable_free(self):
        assert count_restricted(parse_formula("TRUE")) == PROFILE_COUNT
        assert count_restricted(parse_formula("FALSE")) == 0

    def test_explicit_superset_of_factors(self):
        f = parse_formula("h+ & k-")
        assert count_restricted(f, (Factor.H, Factor.K, Factor.M)) == 12 ** 6

    @pytest.mark.slow
    def test_restricted_equals_full_sweep_on_tiny_formula(self):
        # count_full decodes every index regardless of the formula.
        f = parse_formula("h-!!! & s-!!! & e-!!! & hy-!!!")
        (swept,) = count_full([f])
        assert swept == count_restricted(f) == 12 ** 4


@pytest.mark.slow
class TestFullSweep:
    def test_singleton_counts_match_pins(self, interp):
        formulas = [interp.row(i) for i in TypeIndicator]
        counts = count_full(formulas)
        for indicator, swept in zip(TypeIndicator, counts):
            assert swept == pinned.SINGLETON_COUNTS[indicator.name]

    def test_pair_and_attitude_conjunctions_empty(self, interp):
        from mbti_szondi import And

        pair = interp.lift([TypeIndicator.ISTJ, TypeIndicator.ESTP])
        attitudes = And((interp.basic["E"], interp.basic["I"]))
        assert count_full([pair, attitudes]) == [0, 0]
