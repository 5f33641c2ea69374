"""Programmatic machines with known ground truth, shared by the tests."""

from qcbplab.halting import BLANK, SYMBOLS, BoundedMachine


def machine_never() -> BoundedMachine:
    """Accepts nothing: walks right forever on every input."""
    t = {("go", sym): ("go", sym, "R") for sym in SYMBOLS}
    # accepting state present but unreachable
    return BoundedMachine(transitions=t, initial="go", accepting="yes")


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
    return BoundedMachine(transitions=t, initial="w0", accepting="yes")


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
    return BoundedMachine(transitions=t, initial="c0", accepting="yes")
