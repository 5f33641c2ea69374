"""Exactness tests for the perturbation families and their certificates."""

from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from qcbplab import families as fam
from qcbplab import qcbp
from qcbplab.rationals import RationalVector, l2_norm_sq


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
        assert fam.input_distance(1, n, P) == Q(1, 2**n)
        assert fam.input_distance(2, n, P) == Q(1, 2**n)


def test_pair_distance_formula():
    # at n=1, a=1, eps=1/2: 2 * ((1/2)/(3/2))^2 = 2/9
    assert fam.pair_distance_sq(1, P) == Q(2, 9)
    for n in (1, 2, 11):
        direct = l2_norm_sq(fam.perturbed_solution(1, n, P) - fam.perturbed_solution(2, n, P))
        assert direct == fam.pair_distance_sq(n, P)


def test_certificate_values():
    cert = fam.separation_certificate(P)
    assert cert.min_pair_dist_sq == Q(2, 9)
    assert cert.bound >= Q(47, 100)
    assert cert.bound.denominator <= 2**20
    assert cert.bound**2 < cert.min_pair_dist_sq
    # next dyadic up would overshoot: the bound is the largest one below
    step = Q(1, 2**20)
    assert (cert.bound + step) ** 2 >= cert.min_pair_dist_sq
    assert cert.limit_gap_sq_min == Q(13, 36)
    assert cert.limit_gap_sq_min >= cert.bound**2


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
    cert = fam.separation_certificate(p)
    # witness at n=1: 2*((3/4)/(5/3+1/2))^2
    assert cert.min_pair_dist_sq == 2 * (Q(3, 4) / (Q(5, 3) + Q(1, 2))) ** 2


def test_embedded_families():
    p = fam.FamilyParams(n_dim=5, m_dim=3)
    inst = fam.perturbed_instance(2, 4, p)
    assert inst.m == 3 and inst.n == 5
    sol = fam.perturbed_solution(2, 4, p)
    assert sol == qcbp.select_embedded(inst)
    assert qcbp.feasible(inst, sol)
    assert fam.input_distance(2, 4, p) == Q(1, 16)


def test_instances_serialize_roundtrip():
    for n in (1, 17):
        inst = fam.perturbed_instance(1, n, P)
        assert qcbp.Instance.from_json(inst.to_json()) == inst


def test_report_exact_columns():
    rep = fam.discontinuity_report(P, 12)
    assert len(rep.rows) == 12
    for row in rep.rows:
        assert row.input_dist == Q(1, 2**row.n)
        assert row.output_dist_sq == fam.pair_distance_sq(row.n, P)
        assert row.output_dist_lower**2 <= row.output_dist_sq
        assert row.solver_dist is None
    assert rep.certificate.bound >= Q(47, 100)


def test_report_solver_columns_match_exact():
    """Solver distances agree with the exact columns within the location
    tolerance the duality certificate implies.  A tol-optimal point can sit
    anywhere the objective is within tol of optimal, and along the solution
    segment the objective varies by only dv = (1-eps)(1/a - 1/(a+2**-n)) over
    its whole length, so the certified location error grows like tol/dv as n
    grows; the exact columns, not the float ones, carry the theorem."""
    tol = Q(1, 10**6)
    rep = fam.discontinuity_report(P, 20, run_solver=True, solver_tol=tol)
    kappa = float(rep.certificate.bound)
    for row in rep.rows:
        n = row.n
        exact = float(row.output_dist_sq) ** 0.5
        dv = (1 - P.eps) / P.a - (1 - P.eps) / (P.a + Q(1, 2**n))
        near = (1 - P.eps) / (P.a + Q(1, 2**n))
        far = (1 - P.eps) / P.a
        seg_len = float(near**2 + far**2) ** 0.5
        per_solve = 2 * float(tol) * (seg_len / float(dv) + 1)
        assert row.solver_dist == pytest.approx(exact, abs=2 * per_solve + 1e-9)
        # even with location fuzz, the float column still shows the separation
        assert row.solver_dist >= kappa - 2 * per_solve


def test_family_solves_certify_in_first_batch():
    """Every criterion-5 solve, the near-degenerate band n = 14..17 included,
    certifies after one 250-iteration batch."""
    for n in range(1, 31):
        for which in (1, 2):
            rep = qcbp.solve_numeric(fam.perturbed_instance(which, n, P), Q(1, 10**6))
            assert rep.converged and rep.iterations == 250, (which, n, rep.iterations)


def test_report_solver_columns_hit_exact_where_vertices_separate():
    """Where the two vertex values differ by more than 2 tol, a tol-optimal
    point must be the better vertex, and the solver lands on it to rounding."""
    tol = Q(1, 10**6)
    rep = fam.discontinuity_report(P, 20, run_solver=True, solver_tol=tol)
    checked = 0
    for row in rep.rows:
        dv = (1 - P.eps) / P.a - (1 - P.eps) / (P.a + Q(1, 2**row.n))
        if dv > 2 * tol:
            assert abs(row.solver_dist - float(row.output_dist_sq) ** 0.5) <= 1e-9, row.n
            checked += 1
    assert checked == 17


def test_certificate_formula_mismatch_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(fam, "pair_distance_sq", lambda n, p: Q(1, 3))
    with pytest.raises(ArithmeticError, match="pair distance formula mismatch"):
        fam.separation_certificate(P, 3)


def test_entries_follow_integer_formula():
    # a + 2**-n = (2**n c + d) / (d 2**n) for a = c/d: the entries are computable
    # rational sequences given by explicit integer numerator/denominator programs
    p = fam.FamilyParams(a=Q(5, 3), eps=Q(1, 4))
    c, d = 5, 3
    for n in range(0, 20):
        entry = fam.perturbed_instance(1, n, p).A.entry(0, 0).re
        assert entry == Q(2**n * c + d, d * 2**n)
