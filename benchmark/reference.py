"""The reference loop that end-to-end times are scaled by.

The speed at which a shared virtual machine runs the same Python code
wanders by up to a factor of two over a few seconds: on a 2-vCPU VM, a
fixed spin loop gave an IQR/median of 0.2 between 20 s windows, and
longer windows did not narrow it.  Raw wall times of two runs of the same
code therefore differ by about as much as a regression bound allows.

So each end-to-end time is measured with this loop run just before and
just after it, in the same process, and reported in *reference seconds*:

    wall seconds * REF_S / (mean time of the two reference loops)

On a machine where the loop takes REF_S, reference seconds are seconds.
The loop is benchmark code, so no change to liefol can speed it up.  This
module imports nothing from liefol and nothing heavy, so that a fresh
interpreter can load it before timing ``import liefol``.
"""

from time import perf_counter

REF_S = 0.002  # nominal time of one reference loop
_REF_STEPS = 20000  # about REF_S on a 2-vCPU VM at its usual speed


def reference_s() -> float:
    """Wall time of one fixed pure-Python loop (integer and dict work)."""
    t0 = perf_counter()
    acc = 0
    slots = {}
    for k in range(_REF_STEPS):
        acc += k * k
        slots[k & 63] = acc
    return perf_counter() - t0


def scaled(wall_s: float, ref_before: float, ref_after: float) -> float:
    """``wall_s`` in reference seconds."""
    return wall_s * REF_S / ((ref_before + ref_after) / 2)
