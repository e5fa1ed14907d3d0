"""Demo: triple Massey products from explicit defining systems.

Two carriers: the three-dimensional nilmanifold model (the classic nonzero
triple product in degree one) and a formal model where every defined
product dies modulo its indeterminacy.  Run with:
PYTHONPATH=src python3 demos/demo_massey.py
"""

from confspace import catalog
from confspace.algebra import cohomology, format_element
from confspace.massey import triple_massey, NotDefined


def survey(H, name):
    print(name)
    cand = [i for i in range(H.dim) if H.degrees[i] > 0]
    f = H.field
    for a in cand:
        for b in cand:
            for c in cand:
                ea, eb, ec = ({t: f.one} for t in (a, b, c))
                try:
                    r = triple_massey(H, ea, eb, ec)
                except NotDefined:
                    continue
                core = r.class_modulo_indeterminacy()
                if not core:
                    continue
                print("  <%s, %s, %s> = %s"
                      % (H.labels[a], H.labels[b], H.labels[c],
                         format_element(H, core)))
    print()


def main():
    survey(cohomology(catalog.load("heis3"), 3),
           "nilmanifold model (nonzero products expected):")
    survey(cohomology(catalog.load("cs_s5"), 5),
           "formal connected-sum model (nothing should print):")


if __name__ == "__main__":
    main()
