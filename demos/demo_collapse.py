"""Demo: collapse of the graph-side spectral sequence for formal carriers.

For a formal coefficient algebra the column-filtration spectral sequence of
the no-duplicate-target bicomplex collapses at the second page; this script
prints the page tables for a few catalog algebras so the collapse is
visible.  Run with:  PYTHONPATH=src python3 demos/demo_collapse.py
"""

from confspace import catalog
from confspace import graphs as gr
from confspace.bgcomplex import build_AG
from confspace.spectral import SpectralSequence


def show(nm, n):
    a = catalog.load(nm)
    bc = build_AG(a, n, gr.NODUPTARGET)
    ss = SpectralSequence(bc)
    print("%s, %d points (blocks: %d basis elements total)"
          % (a.name, n, bc.total_dim()))
    for r in (1, 2, 3):
        dims = {pq: d for pq, d in sorted(ss.page(r).items()) if d}
        print("  E%d:" % r, " ".join("(%d,%d)=%d" % (p, q, d)
                                     for (p, q), d in dims.items()))
    print("  collapse page:", ss.collapse_page())
    print()


def main():
    for nm in ("s2", "s3", "t2", "cp2"):
        show(nm, 3)


if __name__ == "__main__":
    main()
