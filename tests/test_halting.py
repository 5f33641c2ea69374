"""Step-bounded simulation, encoded instances, and the decision rule."""

import dataclasses
import random
from fractions import Fraction as Q

import pytest

from qcbplab import families as fam
from qcbplab import halting as ht
from qcbplab import qcbp
from qcbplab.rationals import l2_norm_sq
from toy_machines import machine_delay, machine_never, machine_threshold

P = fam.FamilyParams()
CERT = fam.separation_certificate(P)
EVEN = ht.load_builtin("even")


def test_run_bounded_examples():
    out = ht.run_bounded(EVEN, 4, 10**4)
    assert out.accepted and out.steps_to_accept == out.steps_executed
    assert out.steps_to_accept <= 10**4
    assert not ht.run_bounded(EVEN, 3, 10**4).accepted
    assert ht.run_bounded(EVEN, 5, 0) == ht.RunOutcome(False, None, 0)


def test_run_bounded_deterministic():
    for n in range(6):
        assert ht.run_bounded(EVEN, n, 500) == ht.run_bounded(EVEN, n, 500)


def test_parity_ground_truth():
    for n in range(40):
        assert ht.run_bounded(EVEN, n, 10**4).accepted == (n % 2 == 0)


class CountingRules(dict):
    """A transition table that counts the rule lookups a run makes."""

    lookups = 0

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def _counting(machine: ht.BoundedMachine) -> ht.BoundedMachine:
    rules = CountingRules(machine.transitions)
    return ht.BoundedMachine(rules, machine.initial, machine.accepting)


SHIFT = {"L": -1, "R": 1, "S": 0}


def _simulate(machine: ht.BoundedMachine, n: int, budget: int) -> ht.RunOutcome:
    """Reference semantics: every step simulated, nothing proved."""
    tape = {i: "1" for i in range(n)}
    head, state = 0, machine.initial
    for step in range(1, budget + 1):
        state, tape[head], move = machine.transitions[(state, tape.get(head, ht.BLANK))]
        head += SHIFT[move]
        if state == machine.accepting:
            return ht.RunOutcome(True, step, step)
    return ht.RunOutcome(False, None, budget)


def _random_machine(rng: random.Random) -> ht.BoundedMachine:
    states = [f"s{i}" for i in range(rng.randint(1, 4))]
    targets = states + ["yes"]
    rules = {
        (s, sym): (rng.choice(targets), rng.choice(ht.SYMBOLS), rng.choice(ht.MOVES))
        for s in states
        for sym in ht.SYMBOLS
    }
    return ht.BoundedMachine(rules, "s0", "yes")


def test_run_bounded_matches_plain_simulation_on_random_machines():
    rng = random.Random(20250)
    proved = 0
    for _ in range(5000):
        machine = _random_machine(rng)
        counted = _counting(machine)
        n, budget = rng.randint(0, 5), rng.randint(0, 3000)
        out = ht.run_bounded(counted, n, budget)
        assert out == _simulate(machine, n, budget), (machine.transitions, n, budget)
        proved += counted.transitions.lookups < out.steps_executed
    assert proved >= 400  # the proof, not the budget, ends many of these runs


def test_left_move_invalidates_fresh_visit_record():
    # state a is on a fresh cell at steps 1 and 7, but in between the head
    # moves left of the first one, so no cycle is proved; it accepts at step 10
    rules = {}
    for s, blank, one, zero in (
        ("a", ("b", "1", "R"), ("a", "1", "R"), ("a", "0", "R")),
        ("b", ("c", "_", "L"), ("b", "1", "R"), ("b", "0", "R")),
        ("c", ("c", "_", "L"), ("d", "1", "L"), ("c", "0", "L")),
        ("d", ("e", "0", "R"), ("yes", "1", "S"), ("d", "0", "R")),
        ("e", ("e", "_", "R"), ("f", "1", "R"), ("e", "0", "R")),
        ("f", ("a", "1", "R"), ("f", "1", "R"), ("f", "0", "R")),
    ):
        rules.update({(s, "_"): blank, (s, "1"): one, (s, "0"): zero})
    machine = ht.BoundedMachine(rules, "a", "yes")
    assert _simulate(machine, 0, 100) == ht.RunOutcome(True, 10, 10)
    assert ht.run_bounded(machine, 0, 100) == ht.RunOutcome(True, 10, 10)


@pytest.mark.parametrize(
    "machine, n",
    [(EVEN, 7), (EVEN, 1), (machine_threshold(3), 5), (machine_never(), 0), (machine_never(), 4)],
)
def test_never_accepting_runs_stop_once_proved(machine, n):
    counted = _counting(machine)
    assert ht.run_bounded(counted, n, 10**9) == ht.RunOutcome(False, None, 10**9)
    assert counted.transitions.lookups <= n + 3


def test_capped_steps_examples():
    assert ht.run_bounded(EVEN, 3, 10).steps_executed == 10
    q2 = ht.run_bounded(EVEN, 2, 10**4).steps_to_accept
    for j in (q2, q2 + 1, q2 + 50, 10**4):
        assert ht.run_bounded(EVEN, 2, j).steps_executed == q2
    assert ht.run_bounded(EVEN, 9, 0).steps_executed == 0
    assert ht.run_bounded(machine_never(), 5, 123).steps_executed == 123


def test_capped_steps_grow_before_acceptance():
    q4 = ht.run_bounded(EVEN, 4, 10**4).steps_to_accept
    for j in range(q4):
        assert ht.run_bounded(EVEN, 4, j).steps_executed == j


def test_encoded_instance_stabilizes_when_accepted():
    q = ht.run_bounded(EVEN, 6, 10**4).steps_to_accept
    limit = ht.encoded_instance(EVEN, 6, q, P)
    for j in (q, q + 3, 10**3):
        assert ht.encoded_instance(EVEN, 6, j, P) == limit
    assert limit == fam.perturbed_instance(2, q + ht.TAIL_OFFSET, P)


def test_encoded_instance_drifts_to_limit_otherwise():
    star = fam.limit_instance(P)
    for j in (0, 3, 10):
        inst = ht.encoded_instance(EVEN, 3, j, P)
        gap = inst.A.entry(0, 1).re - star.A.entry(0, 1).re
        assert gap == Q(1, 2 ** (j + ht.TAIL_OFFSET))
    assert ht.encoded_instance(EVEN, 3, 0, P) == fam.perturbed_instance(2, ht.TAIL_OFFSET, P)


@pytest.mark.parametrize(
    "p", [P, fam.FamilyParams(a=Q(1, 3), eps=Q(1, 8))], ids=["default", "a=1/3,eps=1/8"]
)
@pytest.mark.parametrize("r", [0, 1, 7, 60])
def test_encoded_instance_and_distance_state_one_rule(r, p):
    # the never machine runs out every budget, so r(n, j) = j; the closed-form
    # distance is that of the oracle's selected solution of the encoded instance
    inst = ht.encoded_instance(machine_never(), 3, r, p)
    selected = qcbp.select(qcbp.exact_solution_set(inst))
    assert Q(*ht.encoded_distance_sq_ints(r, p)) == l2_norm_sq(selected - fam.limit_solution(p))


def _instance_gap(a: qcbp.Instance, b: qcbp.Instance) -> Q:
    total = Q(0)
    for i in range(a.m):
        for j in range(a.n):
            total += (a.A.entry(i, j) - b.A.entry(i, j)).abs_sq()
    total += l2_norm_sq(a.y - b.y)
    return total


def test_encoding_convergence_invariant():
    # || approx(j) - limit || <= 2**-min(j, q) exactly, limit from ground truth
    for n in (2, 3, 4, 7):
        truth = ht.run_bounded(EVEN, n, 10**4)
        if truth.accepted:
            limit = ht.encoded_instance(EVEN, n, truth.steps_to_accept, P)
        else:
            limit = fam.limit_instance(P)
        for j in (0, 1, 5, 9, 40):
            approx = ht.encoded_instance(EVEN, n, j, P)
            gap_sq = _instance_gap(approx, limit)
            cap = truth.steps_to_accept if truth.accepted else j
            bound = Q(1, 2 ** min(j, cap))
            assert gap_sq <= bound * bound


def test_decide_membership_parity():
    for n in range(12):
        d = ht.decide_membership(EVEN, n, 10**4, CERT)
        if n % 2 == 0:
            assert d.status == ht.IN
            assert d.steps_to_accept == ht.run_bounded(EVEN, n, 10**4).steps_to_accept
        else:
            assert d.status == ht.NOT_HALTED_AT_BUDGET
            assert d.distance_sq is None


def test_decide_membership_budget_semantics():
    q8 = ht.run_bounded(EVEN, 8, 10**4).steps_to_accept
    short = ht.decide_membership(EVEN, 8, q8 - 1, CERT)
    assert short.status == ht.NOT_HALTED_AT_BUDGET  # in the set, but not at this budget
    exact = ht.decide_membership(EVEN, 8, q8, CERT)
    assert exact.status == ht.IN
    zero = ht.decide_membership(EVEN, 0, 0, CERT)
    assert zero.status == ht.NOT_HALTED_AT_BUDGET


def test_decision_soundness_cross_checked():
    for n in range(10):
        d = ht.decide_membership(EVEN, n, 10**4, CERT)
        accepted = ht.run_bounded(EVEN, n, 10**4).accepted
        assert (d.status == ht.IN) == accepted


def test_in_distance_exceeds_threshold():
    for n in (0, 2, 4, 10):
        d = ht.decide_membership(EVEN, n, 10**4, CERT)
        assert d.status == ht.IN
        assert d.distance_sq > CERT.threshold_sq


def test_input_space_collapse_below_any_threshold():
    # the non-accepted branch's instances approach the limit input below any bound
    star = fam.limit_instance(P)
    threshold = CERT.threshold_sq
    gaps = [
        _instance_gap(ht.encoded_instance(EVEN, 3, j, P), star) for j in (1, 5, 12, 30)
    ]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < threshold


def test_output_values_cannot_decide_membership():
    """Family 2's solutions never approach the limit's selected solution, so
    the at-budget output distance stays above threshold for accepted and
    non-accepted inputs alike; only stabilization certifies membership.  The
    first family is the mirror image: its outputs collapse onto the limit's
    selection, so it cannot witness acceptance either.  Both facts together
    are why the budget cannot be removed."""
    star = fam.limit_solution(P)
    threshold = CERT.threshold_sq
    for n in (2, 3):  # one accepted, one not
        d = ht.decide_membership(EVEN, n, 10**3, CERT)
        at_budget = d.distance_sq if d.status == ht.IN else Q(*ht.encoded_distance_sq_ints(10**3, P))
        assert at_budget > threshold
    # family 1 selections collapse onto the limit selection
    gap_1 = [
        l2_norm_sq(qcbp.select(qcbp.exact_solution_set(fam.perturbed_instance(1, n, P))) - star)
        for n in (1, 10, 30)
    ]
    assert all(b < a for a, b in zip(gap_1, gap_1[1:]))
    assert gap_1[-1] < threshold


def test_effective_limit_recovers_encoded_entries():
    """The bumped matrix entry of the encoded instances, as a double sequence
    in (n, j), converges effectively; the limit layer must reproduce the
    ground-truth entry of the limit object for decidable machines."""
    from qcbplab import creal as cr

    def xs(n, j):
        return ht.encoded_instance(EVEN, n, j, P).A.entry(0, 1).re

    limit = cr.effective_limit(xs, lambda n, m: m)
    for n in (2, 4):  # accepted: entry pins at a + 2**-(q+1)
        q = ht.run_bounded(EVEN, n, 10**4).steps_to_accept
        truth = P.a + Q(1, 2 ** (q + ht.TAIL_OFFSET))
        assert abs(limit(n).approx(30) - truth) <= Q(1, 2**30)
    for n in (3, 5):  # never accepted: entry tends to a
        assert abs(limit(n).approx(30) - P.a) <= Q(1, 2**30)


def test_violated_certificate_is_a_numerical_failure():
    # bound 4 puts the threshold (bound/4)**2 = 1 above every family distance
    inflated = dataclasses.replace(CERT, bound=Q(4))
    with pytest.raises(ArithmeticError, match="violated at decision time"):
        ht.decide_membership(EVEN, 2, 10**4, inflated)


def test_threshold_machine_ground_truth():
    m = machine_threshold(5)
    for n in range(9):
        d = ht.decide_membership(m, n, 10**3, CERT)
        assert (d.status == ht.IN) == (n <= 5)


def test_never_machine():
    m = machine_never()
    for n in range(5):
        assert ht.decide_membership(m, n, 200, CERT).status == ht.NOT_HALTED_AT_BUDGET


def test_delay_machine_deep_acceptance():
    m = machine_delay(500)
    out = ht.run_bounded(m, 3, 10**3)
    assert out.accepted and out.steps_to_accept == 501
    d = ht.decide_membership(m, 3, 10**3, CERT)
    assert d.status == ht.IN and d.steps_to_accept == 501
    assert d.distance_sq.denominator > 2**500  # deep exact rationals survive


# --- machine format -----------------------------------------------------------------

def test_parse_errors_carry_line_numbers():
    with pytest.raises(ht.MachineFormatError, match="line 3"):
        ht.parse_machine("init a\naccept z\na 1 > b 1 R\n")
    with pytest.raises(ht.MachineFormatError, match="line 4"):
        ht.parse_machine("init a\naccept z\na 1 -> a 1 R\na 1 -> a 0 L\n")
    with pytest.raises(ht.MachineFormatError, match="init"):
        ht.parse_machine("accept z\n")


@pytest.mark.parametrize("head", ["init", "accept"])
def test_parse_rejects_a_second_head_line(head):
    rules = "".join(f"a {s} -> a {s} R\n" for s in ("0", "1", "_"))
    with pytest.raises(ht.MachineFormatError, match=f"line 3: second '{head}' line"):
        ht.parse_machine(f"init a\naccept z\n{head} b\n{rules}")


def test_machine_validation():
    with pytest.raises(ht.MachineFormatError, match="differ"):
        ht.BoundedMachine(transitions={}, initial="a", accepting="a")
    with pytest.raises(ht.MachineFormatError, match="missing transition"):
        ht.BoundedMachine(
            transitions={("a", "1"): ("a", "1", "R")}, initial="a", accepting="z"
        )
    with pytest.raises(ht.MachineFormatError, match="move"):
        ht.parse_machine(
            "init a\naccept z\n"
            + "".join(f"a {s} -> a {s} X\n" for s in ("0", "1", "_"))
        )


def test_accepting_state_has_no_rules():
    with pytest.raises(ht.MachineFormatError, match="accepting"):
        ht.BoundedMachine(
            transitions={
                ("a", "0"): ("a", "0", "R"),
                ("a", "1"): ("a", "1", "R"),
                ("a", "_"): ("z", "_", "S"),
                ("z", "0"): ("z", "0", "R"),
                ("z", "1"): ("z", "1", "R"),
                ("z", "_"): ("z", "_", "R"),
            },
            initial="a",
            accepting="z",
        )
