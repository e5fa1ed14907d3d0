"""Demo: a nonzero second-page differential detected by Massey products.

The carrier is a truncated free CDGA modelling the unit tangent bundle
total space over a product of two 2-spheres.  Its cohomology looks
perfectly ordinary (all products of the degree-2 classes vanish), but the
triple Massey products <x,x,y> and <x,y,y> are nonzero, and they force a
nonzero differential on the second page of the four-point reduced
bicomplex.  Run with:  PYTHONPATH=src python3 demos/demo_nonzero_d2.py
"""

from confspace import catalog
from confspace.algebra import format_element
from confspace.bgcomplex import build_C
from confspace.spectral import SpectralSequence
from confspace.massey import (
    triple_massey, d2_formula, d2_zigzag, quadruple_tensor, corner_element,
)


def main():
    H = catalog.load("stb_s2xs2_h")
    print("cohomology classes:")
    for lab, d in zip(H.labels, H.degrees):
        print("  degree %d: %s" % (d, lab))

    x, y = H.element("[x]"), H.element("[y]")
    print("\n[x][y] =", H.multiply(x, y) or 0, " (all pairwise products vanish)")

    for trip in (("[x]", "[x]", "[y]"), ("[x]", "[y]", "[y]")):
        r = triple_massey(H, *trip)
        print("<%s, %s, %s> = %s  (indeterminacy dim %d)"
              % (*trip, format_element(H, r.class_el), len(r.indeterminacy)))

    print("\nsecond-page differential of [x (x) x (x) y (x) y] on C(4, model):")
    bc = build_C(H.ambient, 4, qmax=10)
    u = quadruple_tensor(bc, H, "[x]", "[x]", "[y]", "[y]")
    _, img = d2_zigzag(bc, u)
    ss = SpectralSequence(bc)
    zz = ss.project_class(img, 2, 2, 7)
    print("  zig-zag class in E2(2,7):", zz)

    tensors = d2_formula(H, "[x]", "[x]", "[y]", "[y]")
    fc = ss.project_class(corner_element(bc, H, tensors), 2, 2, 7)
    print("  closed-formula class:    ", fc)
    print("  corner tensor (edges 23,34):")
    for (i, j), c in sorted(tensors["e2334"].items()):
        print("    %s * %s (x) %s" % (c, H.labels[i], H.labels[j]))
    print("\nverdict:", "nonzero" if zz else "zero",
          "- the spectral sequence does NOT collapse at the second page")


if __name__ == "__main__":
    main()
