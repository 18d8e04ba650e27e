"""Consistency suite: duality, Euler characteristic, method agreement,
universal coefficients, the divisibility corollary, and a small
known-answer database.

Every check yields one report entry, but the corollary, decided exactly
from the kernel's echelon form, gives one FAIL per failing degree with the
combination its augmented elimination finds; a loaded Sq^1 = 0 descriptor
cannot fail it (see kernel.corollary_check). No check draws anything at
random, so the report depends on the descriptor alone. Checks whose
hypotheses fail are recorded as notes rather than silently skipped, so a
report always shows the same set of check names for a given kind of input.
"""

from . import betti, kernel, spaces, steenrod
from .report import FAIL, NOTE, PASS, Report
from .spaces import BettiTable, ManifoldDescriptor

# Hilbert-square rows this package is expected to reproduce. "derived" rows
# were computed independently (enumeration of the generating families plus
# hand bookkeeping of the exact sequence); "published" rows are reference
# values from the literature on these surfaces.
KNOWN_HILB2_ROWS: dict[str, tuple[tuple, str]] = {
    "p1": ((1, 0, 1, 0, 1), "derived"),
    "p2": ((1, 0, 2, 0, 3, 0, 2, 0, 1), "derived"),
    "p3": ((1, 0, 2, 0, 4, 0, 4, 0, 4, 0, 2, 0, 1), "derived"),
    "k3": ((1, 0, 23, 0, 276, 0, 23, 0, 1), "derived"),
    "elliptic_y": ((1, 1, 13, 14, 92, 14, 13, 1, 1), "published"),
}

# The published reference row for the Enriques surface disagrees with what
# the exact sequence over the stated generator families yields, so the suite
# reports both rows as a note and treats neither as ground truth.
ENRIQUES_PUBLISHED_ROW = (1, 1, 13, 15, 94, 15, 13, 1, 1)


def check_duality(table: BettiTable) -> Report:
    """Poincare duality for the table of a compact space: b_k = b_(top-k)."""
    rep = Report()
    if table.is_palindromic():
        rep.add("duality", PASS, f"row {list(table.as_row())} is palindromic")
    else:
        bad = [k for k in range(table.top + 1)
               if table.dim(k) != table.dim(table.top - k)]
        rep.add("duality", FAIL,
                f"row {list(table.as_row())} breaks symmetry at degrees {bad}")
    return rep


def check_euler(d: ManifoldDescriptor, table: BettiTable) -> Report:
    """chi(Hilb) = (chi^2 + chi)/2 + (n-1) chi for chi = chi(X)."""
    rep = Report()
    chi = spaces.betti_of_x(d).euler()
    expected = (chi * chi + chi) // 2 + (d.n - 1) * chi
    got = table.euler()
    if got == expected:
        rep.add("euler", PASS, f"chi = {got} matches (chi^2+chi)/2 + (n-1)chi")
    else:
        rep.add("euler", FAIL,
                f"table gives chi = {got}, identity demands {expected}")
    return rep


def known_answers(d: ManifoldDescriptor, table: BettiTable) -> Report:
    """Compare against the stored row, or emit the Enriques discrepancy note."""
    rep = Report()
    computed = table.as_row()
    if d.name == "enriques_x":
        rep.add("known-answer", NOTE, {
            "message": (
                "computed row and published reference row disagree for "
                "enriques_x; both are quoted and neither is asserted"),
            "computed": list(computed),
            "published": list(ENRIQUES_PUBLISHED_ROW),
        })
        return rep
    if d.name not in KNOWN_HILB2_ROWS:
        rep.add("known-answer", NOTE, f"no stored row for {d.name!r}")
        return rep
    row, provenance = KNOWN_HILB2_ROWS[d.name]
    if computed == row:
        rep.add("known-answer", PASS,
                f"matches the stored {provenance} row {list(row)}")
    else:
        rep.add("known-answer", FAIL,
                f"computed {list(computed)} but the stored {provenance} "
                f"row is {list(row)}")
    return rep


def run_suite(d: ManifoldDescriptor, seed: int = 0) -> Report:
    """Run every applicable check. The report depends on d alone: seed is
    accepted for existing callers and ignored."""
    rep = Report()

    violations = spaces.descriptor_violations(d)
    if violations.ok:
        rep.add("validate", PASS, "no axiom or invariant violations")
    else:
        rep.extend(violations)
        rep.add("validate", FAIL,
                f"{len(violations.failures)} violations; downstream checks "
                "assume a valid descriptor")
        return rep

    exact = betti.betti_hilb2_exact(d)
    sq1_zero = steenrod.is_sq1_zero(d.module)

    if sq1_zero:
        closed = betti.betti_hilb2_closed(d)
        if exact == closed:
            rep.add("method-agreement", PASS,
                    f"exact and closed rows agree: {list(exact.as_row())}")
        else:
            rep.add("method-agreement", FAIL, {
                "exact": list(exact.as_row()),
                "closed": list(closed.as_row()),
            })
    else:
        rep.add("method-agreement", NOTE, "Sq^1 != 0; closed form not applicable")

    if d.compact:
        rep.extend(check_duality(exact))
    else:
        rep.add("duality", NOTE, "noncompact input; duality not expected")

    rep.extend(check_euler(d, exact))

    if d.integral.torsion_free:
        profile = betti.integral_sym2(d)
        f2 = betti.betti_sym2_f2(d)
        if profile.mod2_dims() == f2.dims:
            rep.add("universal-coefficients", PASS,
                    "integral profile reduces to the mod-2 row")
        else:
            rep.add("universal-coefficients", FAIL, {
                "from_integral": profile.mod2_dims(),
                "mod2": dict(f2.dims),
            })
    else:
        rep.add("universal-coefficients", NOTE,
                "not flagged torsion-free; integral profile unavailable")

    if sq1_zero:
        rep.extend(kernel.corollary_check(d))
    else:
        rep.add("corollary", NOTE, "Sq^1 != 0; divisibility corollary skipped")

    redundant = kernel.redundant_degrees(d)
    if redundant:
        rep.add("kernel-redundancy", NOTE, {
            "message": "generator families overlap in these degrees",
            "degrees": {str(k): {"generators": c, "dimension": r}
                        for k, (c, r) in redundant.items()},
        })

    rep.extend(known_answers(d, exact))
    return rep
