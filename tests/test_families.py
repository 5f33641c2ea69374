"""Exactness tests for the perturbation families and their certificates."""

from fractions import Fraction as Q
from math import isqrt

import pytest
from hypothesis import example, given, settings, strategies as st

from qcbplab import families as fam
from qcbplab import qcbp
from qcbplab.rationals import RationalVector, float_sqrt_ints, l2_norm_sq
from embedding_reference import select_embedded


P = fam.FamilyParams()  # a=1, eps=1/2, N=2, m=1


def solution_band_contains(x: RationalVector, which: int, p: fam.FamilyParams) -> bool:
    """Membership in the output band of family ``which``.

    The band is { c * e_which : c = (1-eps) * u, u in [2/(2a+1), 1/a) }, the
    exact set swept by the family solutions over n >= 1.
    """
    j = which - 1
    for i, e in enumerate(x.entries):
        if not e.is_real():
            return False
        if i != j and e.re != 0:
            return False
    u = x.entries[j].re / (1 - p.eps)
    return Q(2, 2 * p.a + 1) <= u < 1 / p.a


def test_param_validation():
    with pytest.raises(ValueError):
        fam.FamilyParams(a=Q(0))
    with pytest.raises(ValueError):
        fam.FamilyParams(eps=Q(1))
    with pytest.raises(ValueError):
        fam.FamilyParams(eps=Q(0))
    with pytest.raises(ValueError):
        fam.FamilyParams(n_dim=2, m_dim=2)


def test_family_member_examples():
    i1 = fam.perturbed_instance(1, 3, P)
    assert [e.re for e in i1.A.rows[0]] == [Q(9, 8), 1]
    assert i1.y.entries[0].re == 1
    i2 = fam.perturbed_instance(2, 3, P)
    assert [e.re for e in i2.A.rows[0]] == [1, Q(9, 8)]
    star = fam.limit_instance(P)
    assert [e.re for e in star.A.rows[0]] == [1, 1]
    # componentwise difference: a single 2**-n entry
    diff = [
        (i1.A.entry(0, j) - star.A.entry(0, j)).re for j in range(2)
    ]
    assert diff == [Q(1, 8), 0]


def test_member_constructors_reject_bad_arguments():
    with pytest.raises(ValueError, match="family index must be 1 or 2"):
        fam.perturbed_core(3, 1, P)
    with pytest.raises(ValueError, match="n must be >= 0"):
        fam.perturbed_core(1, -1, P)
    with pytest.raises(ValueError, match="family index must be 1 or 2"):
        fam.perturbed_solution(0, 1, P)


def test_limit_oracle_all_active():
    s = qcbp.exact_solution_set(fam.limit_instance(P))
    assert s.active == (0, 1)
    assert fam.limit_solution(P) == qcbp.select(s)
    assert [e.re for e in fam.limit_solution(P).entries] == [Q(1, 2), 0]


def test_exact_solution_examples():
    x = fam.perturbed_solution(1, 3, P)
    assert [e.re for e in x.entries] == [Q(4, 9), 0]
    x2 = fam.perturbed_solution(2, 1, P)
    assert [e.re for e in x2.entries] == [0, Q(1, 3)]


def test_solution_agrees_with_oracle_everywhere():
    for n in range(1, 31):
        for which in (1, 2):
            inst = fam.perturbed_instance(which, n, P)
            assert fam.perturbed_solution(which, n, P) == qcbp.select(
                qcbp.exact_solution_set(inst)
            )


def test_solution_l1_monotone_toward_limit():
    # l1 value (1-eps)/(a+2**-n) increases with n, exactly
    values = [
        (1 - P.eps) / (P.a + Q(1, 2**n)) for n in range(1, 31)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_input_distance_exact():
    for n in (1, 7, 29):
        assert fam.input_distance(n, P) == Q(1, 2**n)  # checks family 1, then family 2


def test_pair_distance_formula():
    # at n=1, a=1, eps=1/2: 2 * ((1/2)/(3/2))^2 = 2/9
    assert fam.pair_distance_sq(1, P) == Q(2, 9)
    for n in (1, 2, 11):
        direct = l2_norm_sq(fam.perturbed_solution(1, n, P) - fam.perturbed_solution(2, n, P))
        assert direct == fam.pair_distance_sq(n, P)


def test_certificate_values():
    cert = fam.separation_certificate(P)
    min_pair_sq = fam.pair_distance_sq(1, P)
    assert min_pair_sq == Q(2, 9)
    assert cert.bound >= Q(47, 100)
    assert cert.bound.denominator <= 2**20
    assert cert.bound**2 < min_pair_sq
    # next dyadic up would overshoot: the bound is the largest one below
    step = Q(1, 2**20)
    assert (cert.bound + step) ** 2 >= min_pair_sq
    limit_gap_sq = l2_norm_sq(fam.perturbed_solution(2, 1, P) - fam.limit_solution(P))
    assert limit_gap_sq == Q(13, 36)
    assert limit_gap_sq >= cert.bound**2


@pytest.mark.parametrize(
    "p, q",
    [
        (fam.FamilyParams(), 20),
        (fam.FamilyParams(eps=Q(999999, 1000000)), 21),
        (fam.FamilyParams(a=Q(10**8)), 28),
    ],
    ids=["default", "eps-near-1", "large-a"],
)
def test_certificate_grid_refines_only_when_2_pow_20_is_too_coarse(p, q):
    bound = fam.separation_certificate(p).bound
    min_sq = fam.pair_distance_sq(1, p)
    assert bound > 0 and bound.denominator <= 2**q and bound**2 < min_sq
    assert (bound + Q(1, 2**q)) ** 2 >= min_sq  # largest on its grid
    if q > 20:
        assert bound == Q(1, 2**q)  # the grid one step coarser has nothing below
        assert Q(1, 2 ** (q - 1)) ** 2 >= min_sq


def _largest_dyadic_below_sqrt_reference(value_sq):
    """The bound's loop with its root written out, as it was before it read
    rationals.dyadic_sqrt_lower."""
    q = 20
    while True:
        target = value_sq * 4**q
        p = isqrt(target.numerator // target.denominator)
        if p * p == target:
            p -= 1
        if p > 0:
            return Q(p, 2**q)
        q += 1


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    a=st.fractions(Q(1, 10**6), 10**9, max_denominator=10**6),
    eps=st.fractions(Q(1, 10**7), Q(10**7 - 1, 10**7), max_denominator=10**7),
)
@example(a=Q(1), eps=Q(999999, 1000000))
@example(a=Q(10**8), eps=Q(1, 2))
def test_certificate_bound_matches_its_written_out_loop(a, eps):
    p = fam.FamilyParams(a=a, eps=eps)
    expected = _largest_dyadic_below_sqrt_reference(fam.pair_distance_sq(1, p))
    assert fam.separation_certificate(p).bound == expected


@pytest.mark.parametrize("value_sq", [Q(1, 4), Q(9, 4**30), Q(2, 9), Q(1, 10**30)])
def test_largest_dyadic_below_sqrt_is_strict(value_sq):
    """An exact root steps down one grid point; a root below 2**-20 refines the grid."""
    bound = fam._largest_dyadic_below_sqrt(value_sq)
    assert bound == _largest_dyadic_below_sqrt_reference(value_sq)
    assert 0 < bound and bound**2 < value_sq


@pytest.mark.parametrize("value_sq", [Q(0), Q(-1, 3)])
def test_largest_dyadic_below_sqrt_rejects_a_nonpositive_square(value_sq):
    # at 0 no dyadic lies strictly between 0 and the root, so the grid would refine forever
    with pytest.raises(ValueError, match="need a positive squared value"):
        fam._largest_dyadic_below_sqrt(value_sq)


def test_separation_holds_exactly_for_all_n():
    cert = fam.separation_certificate(P)
    for n in range(1, 31):
        assert fam.pair_distance_sq(n, P) > cert.bound**2


def test_certificate_holds_for_every_n():
    """The closed form, its monotonicity and both certified bounds at any n, exactly."""

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        a=st.fractions(Q(1, 1000), 8, max_denominator=1000),
        eps=st.fractions(Q(1, 1000), Q(999, 1000), max_denominator=1000),
        shape=st.sampled_from([(2, 1), (5, 3)]),
        n=st.integers(1, 2000),
    )
    def check(a, eps, shape, n):
        p = fam.FamilyParams(a=a, eps=eps, n_dim=shape[0], m_dim=shape[1])
        cert = fam.separation_certificate(p)
        d_sq = fam.pair_distance_sq(n, p)
        assert d_sq == l2_norm_sq(fam.perturbed_solution(1, n, p) - fam.perturbed_solution(2, n, p))
        assert fam.pair_distance_sq(n + 1, p) > d_sq
        assert d_sq > cert.bound**2
        assert l2_norm_sq(fam.perturbed_solution(2, n, p) - fam.limit_solution(p)) >= cert.bound**2

    check()


def test_pair_distance_nondecreasing():
    prev = None
    for n in range(1, 31):
        d = fam.pair_distance_sq(n, P)
        if prev is not None:
            assert d >= prev
        prev = d


def test_kappa_scales_with_one_minus_eps():
    # the separation is linear in (1 - eps): near eps = 1 it collapses
    tight = fam.FamilyParams(eps=Q(63, 64))
    cert = fam.separation_certificate(tight)
    base = fam.separation_certificate(P)
    assert cert.bound < base.bound / 16
    exact_ratio = (1 - tight.eps) / (1 - P.eps)
    assert abs(cert.bound / base.bound - exact_ratio) < Q(1, 1000)


def test_solution_band_membership():
    for n in range(1, 31):
        assert solution_band_contains(fam.perturbed_solution(1, n, P), 1, P)
        assert solution_band_contains(fam.perturbed_solution(2, n, P), 2, P)
        assert not solution_band_contains(fam.perturbed_solution(1, n, P), 2, P)
    # the limit solution sits outside both bands (u = 1/a is excluded)
    assert not solution_band_contains(fam.limit_solution(P), 1, P)


def test_general_a_band():
    p = fam.FamilyParams(a=Q(5, 3), eps=Q(1, 4))
    for n in range(1, 12):
        assert solution_band_contains(fam.perturbed_solution(1, n, p), 1, p)
    fam.separation_certificate(p)
    # witness at n=1: 2*((3/4)/(5/3+1/2))^2
    assert fam.pair_distance_sq(1, p) == 2 * (Q(3, 4) / (Q(5, 3) + Q(1, 2))) ** 2


def test_embedded_families():
    p = fam.FamilyParams(n_dim=5, m_dim=3)
    inst = fam.perturbed_instance(2, 4, p)
    assert inst.m == 3 and inst.n == 5
    sol = fam.perturbed_solution(2, 4, p)
    assert sol == select_embedded(fam.perturbed_core(2, 4, p), 3)
    assert qcbp.feasible(inst, sol)
    assert fam.input_distance(4, p) == Q(1, 16)  # both embedded members


def test_instances_serialize_roundtrip():
    for n in (1, 17):
        inst = fam.perturbed_instance(1, n, P)
        assert qcbp.Instance.from_json(inst.to_json()) == inst


def test_family_solves_certify_in_first_batch():
    """Every criterion-5 solve, the near-degenerate band n = 14..17 included,
    certifies after one 250-iteration batch."""
    for n in range(1, 31):
        for which in (1, 2):
            rep = qcbp.solve_numeric(fam.perturbed_instance(which, n, P), Q(1, 10**6))
            assert rep.converged and rep.iterations == 250, (which, n, rep.iterations)


def test_certificate_formula_mismatch_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(fam, "pair_distance_sq", lambda n, p: Q(1, 3))
    with pytest.raises(ArithmeticError, match="pair distance formula mismatch"):
        fam.separation_certificate(P)


def test_limit_gap_formula_equals_the_oracle_path():
    """Family 2's closed-form gap equals the gap of the oracle's selected solution, exactly."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        a=st.fractions(Q(1, 1000), 1000, max_denominator=1000),
        eps=st.fractions(0, 1, max_denominator=1000).filter(lambda q: 0 < q < 1),
        shape=st.integers(2, 5).flatmap(lambda n_dim: st.tuples(st.just(n_dim), st.integers(1, n_dim - 1))),
        n=st.integers(0, 80),
    )
    def check(a, eps, shape, n):
        p = fam.FamilyParams(a=a, eps=eps, n_dim=shape[0], m_dim=shape[1])
        selected = select_embedded(fam.perturbed_core(2, n, p), p.m_dim)
        assert Q(*fam.limit_gap_sq_ints(n, p)) == l2_norm_sq(selected - fam.limit_solution(p))

    check()


@pytest.mark.parametrize("a", [Q(1), Q(1, 3), Q(7, 2)], ids=["1", "1/3", "7/2"])
@pytest.mark.parametrize("n", [10**3, 10**4, 10**5])
def test_limit_gap_at_budget_size_indices(a, n):
    # the at-budget column takes the root of the unreduced pair at such n: it
    # must be the exact gap, and its root must be the reduced Fraction's
    p = fam.FamilyParams(a=a, eps=Q(1, 3))
    num, den = fam.limit_gap_sq_ints(n, p)
    q = Q(num, den)
    assert float_sqrt_ints(num, den) == float_sqrt_ints(q.numerator, q.denominator)
    selected = select_embedded(fam.perturbed_core(2, n, p), p.m_dim)
    assert q == l2_norm_sq(selected - fam.limit_solution(p))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    a=st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)),
    e=st.integers(1, 999),
    n=st.one_of(st.integers(0, 64), st.sampled_from([10**4, 10**5])),
)
def test_limit_gap_ints_equal_the_written_out_square(a, e, n):
    """The expanded t**2 gives the integers of the product t * t, t = an 2**n + ad."""
    a, eps = Q(*a), Q(e, 1000)
    p = fam.FamilyParams(a=a, eps=eps)
    an, ad = a.numerator, a.denominator
    en, ed = (1 - eps).numerator, (1 - eps).denominator
    t = (an << n) + ad
    assert fam.limit_gap_sq_ints(n, p) == ((en * ad) ** 2 * ((an * an << 2 * n) + t * t), (ed * an) ** 2 * t * t)


def test_limit_gap_formula_mismatch_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(fam, "limit_gap_sq_ints", lambda n, p: (1, 3))
    with pytest.raises(ArithmeticError, match="limit gap formula mismatch at n=1"):
        fam.separation_certificate(P)


def test_entries_follow_integer_formula():
    # a + 2**-n = (2**n c + d) / (d 2**n) for a = c/d: the entries are computable
    # rational sequences given by explicit integer numerator/denominator programs
    p = fam.FamilyParams(a=Q(5, 3), eps=Q(1, 4))
    c, d = 5, 3
    for n in range(0, 20):
        entry = fam.perturbed_instance(1, n, p).A.entry(0, 0).re
        assert entry == Q(2**n * c + d, d * 2**n)
