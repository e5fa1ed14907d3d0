"""Demo: the perfect pairing between the two first-page models.

The tensor-power complex block (p, h) pairs perfectly with the graph
quotient block (p, (n-p)m - h), the differentials are adjoint up to a sign
constant on each column, and the second pages mirror each other dimension
by dimension.  Run with:  PYTHONPATH=src python3 demos/demo_duality.py
"""

from confspace import catalog
from confspace.duality import theorem1_check


def main():
    for nm in ("s2", "t2", "cp2"):
        for n in (2, 3):
            a = catalog.load(nm)
            out = theorem1_check(a, n)
            cols = {}
            for (p, h), s in out["signs"].items():
                if s is not None:
                    cols.setdefault(p, set()).add(str(s))
            print("%s, n=%d: pairing perfect on every block" % (a.name, n))
            print("  adjointness signs by column:",
                  {p: sorted(v) for p, v in sorted(cols.items())})
            for (b1, b2, d, db) in out["e2_pairs"]:
                print("  E2 %s = %d  <->  E2 %s = %d" % (b1, d, b2, db))
            print()


if __name__ == "__main__":
    main()
