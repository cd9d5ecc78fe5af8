#!/usr/bin/env python3
"""Survey how far the residue-class congruence families actually hold.

For each residue-class case without a prime parameter and each parameter
point, prints the nominal exponent next to the largest exponent observed
across the checked range.  The gap pattern (sign of the class member,
depth of the progression) is the interesting output; see the suite
report for the raw counterexamples.

Usage: python scripts/scan_class_exponents.py [n_max]
"""

import sys

from q3series.verifier import ResidueClass, catalog, class_members, verify_congruence


def main() -> int:
    n_max = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    print(f"{'case':6s} {'a':>2s} {'b':>2s} {'ell':>4s} {'nominal':>8s} {'observed':>9s}")
    for case in catalog()["congruences"]:
        if not isinstance(case.ell, ResidueClass) or case.prime_class is not None:
            continue
        for alpha in (0, 1):
            for beta in (0, 1):
                for ell in class_members(case.ell.base(alpha), 2):
                    rep = verify_congruence(case.id, {"alpha": alpha, "beta": beta, "ell": ell},
                                            n_max)
                    holds = rep.extras.get("holds_to_exponent",
                                           rep.extras.get("branch_holds_to_exponent"))
                    shown = "inf" if holds is None else str(holds)
                    if rep.extras.get("exponent_capped"):
                        shown = ">=" + shown
                    mark = "" if rep.status == "PASS" else "   <-- overshoot"
                    print(f"{case.id:6s} {alpha:2d} {beta:2d} {ell:4d} "
                          f"{rep.extras['modulus_exponent']:8d} {shown:>9s}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
