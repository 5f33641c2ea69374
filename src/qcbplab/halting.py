"""Step-bounded machine simulation driving solution-map inputs.

A deterministic single-tape machine over the alphabet {0, 1, blank} receives
a natural number in unary and either accepts it or runs forever.  From a step
budget j we form the capped acceptance count r(n, j): the exact number of
steps q_n the machine needed when it accepted n within j steps, and j itself
otherwise.  Feeding r(n, j) into the perturbation family of
:mod:`qcbplab.families` produces, for each n, a sequence of instances that
stabilizes at a fixed member when the machine accepts n and otherwise drifts
into the families' common limit at rate 2**-j.

The decision routine below extracts membership from the *stabilized* case:
once the machine has accepted within budget, the instance is pinned exactly,
its exact solution sits a certified distance above bound/4 from the limit's
solution, and the comparison is decided by exact rational arithmetic (with a
computable-real mirror of the same comparison).  Without acceptance within
budget the routine reports exactly that -- not halted at this budget.  No
inspection of the approximations' solution values can do better: the family
members' solutions hold their distance from the limit solution all the way
down, so the value alone never reveals whether stabilization has happened.
Removing the budget is precisely what the discontinuity forbids.

Ground truth exists for the bundled machines (parity scanners and friends) by
construction, which is what makes the property tests possible; a machine for
a semi-decidable-but-undecidable set cannot be instantiated, and this module
does not pretend otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from importlib import resources

from qcbplab import creal, families
from qcbplab.rationals import l2_norm_sq
from qcbplab.qcbp import Instance, select_embedded

BLANK = "_"
SYMBOLS = ("0", "1", BLANK)
MOVES = ("L", "R", "S")

IN = "IN"
NOT_HALTED_AT_BUDGET = "NOT_HALTED_AT_BUDGET"


class MachineFormatError(ValueError):
    """Malformed machine description; message carries the line number."""


@dataclass(frozen=True)
class BoundedMachine:
    """Deterministic single-tape machine with unary input encoding.

    The transition table must be total on (state, symbol) for every state
    except the accepting one, which has no outgoing transitions; the initial
    state must differ from the accepting state, so acceptance always costs at
    least one step.
    """

    transitions: dict[tuple[str, str], tuple[str, str, str]]
    initial: str
    accepting: str
    name: str = ""

    def __post_init__(self):
        states = {s for s, _ in self.transitions} | {
            t for t, _, _ in self.transitions.values()
        }
        states |= {self.initial, self.accepting}
        if self.initial == self.accepting:
            raise MachineFormatError("initial and accepting states must differ")
        for (s, sym), (_, w, mv) in self.transitions.items():
            if s == self.accepting:
                raise MachineFormatError("accepting state cannot have transitions")
            if sym not in SYMBOLS or w not in SYMBOLS:
                raise MachineFormatError(f"unknown symbol in rule ({s},{sym})")
            if mv not in MOVES:
                raise MachineFormatError(f"move must be one of {MOVES}, got {mv}")
        for s in states:
            if s == self.accepting:
                continue
            for sym in SYMBOLS:
                if (s, sym) not in self.transitions:
                    raise MachineFormatError(f"missing transition for ({s},{sym!r})")


@dataclass(frozen=True)
class RunOutcome:
    accepted: bool
    steps_to_accept: int | None
    steps_executed: int


def run_bounded(machine: BoundedMachine, n: int, budget: int) -> RunOutcome:
    """Simulate on unary input n for at most ``budget`` steps.

    Accepting means entering the accepting state; the step that enters it is
    counted, so the minimal acceptance count q satisfies 1 <= q <= budget.
    """
    if n < 0 or budget < 0:
        raise ValueError("input and budget must be nonnegative")
    tape = {i: "1" for i in range(n)}
    head = 0
    state = machine.initial
    for step in range(1, budget + 1):
        sym = tape.get(head, BLANK)
        state, write, move = machine.transitions[(state, sym)]
        tape[head] = write
        if move == "L":
            head -= 1
        elif move == "R":
            head += 1
        if state == machine.accepting:
            return RunOutcome(accepted=True, steps_to_accept=step, steps_executed=step)
    return RunOutcome(accepted=False, steps_to_accept=None, steps_executed=budget)


def capped_accept_steps(machine: BoundedMachine, n: int, budget: int) -> int:
    """q_n when the machine accepts n within the budget, else the budget itself.

    Total and computable for every (n, budget); stabilizes at q_n once the
    budget passes it, and equals the budget forever when n is never accepted.
    """
    out = run_bounded(machine, n, budget)
    return out.steps_to_accept if out.accepted else budget


TAIL_OFFSET = 1  # family indices start at 1, where the separation certificate begins


def encoded_instance(
    machine: BoundedMachine, n: int, budget: int, p: families.FamilyParams
) -> Instance:
    """The budget-j approximation of the instance encoding "machine accepts n".

    Returns family member 2 at index r(n, j) + 1: constant once the machine
    has accepted (the limit object is then that fixed member), and converging
    to the families' common limit at rate 2**-j otherwise.  Family 2 is the
    one whose solutions stay separated from the *selected* limit solution
    under the smallest-active-index rule, which is what makes the stabilized
    case decidable by one exact comparison.
    """
    r = capped_accept_steps(machine, n, budget)
    return families.perturbed_instance(2, r + TAIL_OFFSET, p)


@dataclass
class Decision:
    status: str
    n: int
    budget: int
    steps_to_accept: int | None
    distance_sq: Q | None
    distance_sq_at_budget: Q
    threshold_sq: Q
    mirror_precision: int | None
    mirror_agrees: bool | None


def decide_membership(
    machine: BoundedMachine,
    n: int,
    budget: int,
    precision_budget: int,
    p: families.FamilyParams,
    cert: families.SeparationCertificate,
) -> Decision:
    """Budget-bounded membership decision via the encoded instances.

    IN is certified twice over: the machine actually accepted within budget,
    and the exact solution of the stabilized instance sits strictly above the
    bound/4 threshold away from the limit's solution (compared on squares by
    rational arithmetic, and mirrored through a computable-real square root
    evaluated at the proof-grade precision when it fits the precision
    budget).  NOT_HALTED_AT_BUDGET is exactly what it says; the reported
    at-budget distance demonstrates that the solution values alone cannot
    settle membership, since they stay above threshold whether or not the
    machine will ever accept.
    """
    if cert.params != p:
        raise ValueError("certificate was issued for different family parameters")
    threshold_sq = cert.threshold_sq()
    star = families.limit_solution(p)

    outcome = run_bounded(machine, n, budget)
    r = outcome.steps_to_accept if outcome.accepted else budget
    inst = families.perturbed_instance(2, r + TAIL_OFFSET, p)
    at_budget_sq = l2_norm_sq(select_embedded(inst) - star)
    if not outcome.accepted:
        return Decision(
            status=NOT_HALTED_AT_BUDGET,
            n=n,
            budget=budget,
            steps_to_accept=None,
            distance_sq=None,
            distance_sq_at_budget=at_budget_sq,
            threshold_sq=threshold_sq,
            mirror_precision=None,
            mirror_agrees=None,
        )

    # stabilized: the encoded instance is exactly the fixed family member
    d_sq = at_budget_sq
    if d_sq <= threshold_sq:
        raise families.CertificateError("separation certificate violated at decision time")

    # computable-real mirror: approximate the distance itself to within
    # 2**-M < bound/6 and compare that rational against bound/4
    mirror_precision = None
    mirror_agrees = None
    m_needed = 1
    while Q(1, 2**m_needed) >= cert.bound / 6:
        m_needed += 1
    if m_needed <= precision_budget:
        mirror_precision = m_needed
        dist = creal.sqrt_c(creal.from_rational(d_sq))
        approx = dist.approx(m_needed)
        mirror_agrees = approx > cert.bound / 4
    return Decision(
        status=IN,
        n=n,
        budget=budget,
        steps_to_accept=outcome.steps_to_accept,
        distance_sq=d_sq,
        distance_sq_at_budget=at_budget_sq,
        threshold_sq=threshold_sq,
        mirror_precision=mirror_precision,
        mirror_agrees=mirror_agrees,
    )


# --- machine text format --------------------------------------------------------
#
# Line-based:   init <state>
#               accept <state>
#               <state> <symbol> -> <state'> <symbol'> <move>
# Symbols are 0, 1 or _ (blank); moves are L, R or S.  '#' starts a comment.

def parse_machine(text: str, name: str = "") -> BoundedMachine:
    initial = None
    accepting = None
    transitions: dict[tuple[str, str], tuple[str, str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "init" and len(parts) == 2:
            initial = parts[1]
            continue
        if parts[0] == "accept" and len(parts) == 2:
            accepting = parts[1]
            continue
        if len(parts) == 6 and parts[2] == "->":
            state, sym, _, nstate, nsym, move = parts
            if (state, sym) in transitions:
                raise MachineFormatError(f"line {lineno}: duplicate rule for ({state},{sym})")
            transitions[(state, sym)] = (nstate, nsym, move)
            continue
        raise MachineFormatError(f"line {lineno}: cannot parse {raw!r}")
    if initial is None or accepting is None:
        raise MachineFormatError("machine needs 'init' and 'accept' lines")
    try:
        return BoundedMachine(
            transitions=transitions, initial=initial, accepting=accepting, name=name
        )
    except MachineFormatError as exc:
        raise MachineFormatError(str(exc)) from None


def load_machine_file(path: str) -> BoundedMachine:
    with open(path, "r", encoding="ascii") as fh:
        return parse_machine(fh.read(), name=path)


def load_builtin(name: str) -> BoundedMachine:
    ref = resources.files("qcbplab").joinpath(f"machines/{name}.tm")
    return parse_machine(ref.read_text(encoding="ascii"), name=f"builtin:{name}")


def machine_never() -> BoundedMachine:
    """Accepts nothing: walks right forever on every input."""
    t = {("go", sym): ("go", sym, "R") for sym in SYMBOLS}
    # accepting state present but unreachable
    return BoundedMachine(transitions=t, initial="go", accepting="yes", name="never")


def machine_delay(delay: int) -> BoundedMachine:
    """Accepts every input after exactly ``delay + 1`` steps.

    Useful for exercising deep acceptance counts: the encoded instances then
    carry 2**-(q+1) entries with q ~ delay, stressing exact serialization.
    """
    if delay < 0:
        raise ValueError("delay must be >= 0")
    t = {}
    for i in range(delay):
        for sym in SYMBOLS:
            t[(f"w{i}", sym)] = (f"w{i + 1}", sym, "R")
    for sym in SYMBOLS:
        t[(f"w{delay}", sym)] = ("yes", sym, "S")
    return BoundedMachine(
        transitions=t, initial="w0", accepting="yes", name=f"delay{delay}"
    )


def machine_threshold(limit: int) -> BoundedMachine:
    """Accepts n if and only if n <= limit, by a bounded right scan.

    A decidable stand-in for bounded-search machines: acceptance times grow
    with n up to the cutoff, after which the machine walks forever.
    """
    if limit < 0:
        raise ValueError("limit must be >= 0")
    t = {}
    for i in range(limit + 1):
        t[(f"c{i}", "1")] = (f"c{i + 1}" if i < limit else "loop", "1", "R")
        t[(f"c{i}", "0")] = (f"c{i}", "0", "R")
        t[(f"c{i}", BLANK)] = ("yes", BLANK, "S")
    for sym in SYMBOLS:
        t[("loop", sym)] = ("loop", sym, "R")
    return BoundedMachine(
        transitions=t, initial="c0", accepting="yes", name=f"threshold{limit}"
    )
