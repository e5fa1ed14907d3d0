"""Built-in example algebras and differential graded models.

Names accepted by :func:`load`:

* ``point``              - the ground field
* ``sphere(m)``          - cohomology of an m-sphere (aliases ``s2``..``s7``)
* ``torus(k)``           - exterior algebra on k degree-1 classes (alias ``t2``)
* ``cp2``                - truncated polynomial algebra on a degree-2 class
* ``s2xs2``              - product of two 2-spheres
* ``stb_s2xs2``          - free CDGA model of the unit sphere tangent bundle
                           of s2xs2 (generators x, y, u, v, t), truncated
* ``stb_s2xs2_h``        - its cohomology with stored representatives
* ``heis3``              - CDGA on a, b, c of degree 1 with d(c) = ab
* ``heis3_s2``           - heis3 tensored with sphere(2): a non-formal
                           6-manifold model with a top class in degree 5
* ``cs_s5``              - connected-sum model sphere(5) # (S2 x S3)
* ``cs_heis3_s2``        - connected-sum model heis3_s2 # (S2 x S3)
"""

import re

from .exactlinalg import QQ
from .algebra import (
    Algebra, TruncatedFreeCDGA, cohomology, connected_sum_model,
    tensor_algebra,
)


class CatalogError(ValueError):
    pass


def to_algebra(carrier, name, top):
    """Expand any finite carrier into an explicit structure-constant Algebra
    (running the full axiom checks in the process)."""
    basis = list(zip(carrier.labels, carrier.degrees))
    dims = range(carrier.dim)
    products = {(i, j): carrier.mul_basis(i, j) for i in dims for j in dims}
    differential = {i: el for i in dims if (el := carrier.d_basis(i))}
    return Algebra(name, carrier.field, basis, carrier.unit,
                   products, differential=differential or None, top=top)


def point(field=QQ):
    return Algebra("point", field, [("1", 0)], 0, {}, top=0)


def sphere(m, field=QQ):
    if m < 1:
        raise CatalogError("sphere dimension must be >= 1")
    f = field
    w = "w%d" % m
    products = {(1, 1): {}}
    return Algebra("sphere(%d)" % m, f, [("1", 0), (w, m)], 0, products, top=1)


def torus(k, field=QQ):
    if not (1 <= k <= 6):
        raise CatalogError("torus rank must be 1..6")
    gens = [("a%d" % (i + 1), 1) for i in range(k)]
    ext = TruncatedFreeCDGA("torus(%d)" % k, field, gens, {}, k)
    top = ext.index_of(tuple(range(k)))
    return to_algebra(ext, "torus(%d)" % k, top=top)


def cp2(field=QQ):
    products = {(1, 1): {2: field.one}, (1, 2): {}, (2, 2): {}}
    return Algebra("cp2", field, [("1", 0), ("h", 2), ("h^2", 4)], 0,
                   products, top=2)


def s2xs2(field=QQ):
    basis = [("1", 0), ("a", 2), ("b", 2), ("ab", 4)]
    one = field.one
    products = {(1, 1): {}, (2, 2): {}, (1, 2): {3: one},
                (1, 3): {}, (2, 3): {}, (3, 3): {}}
    return Algebra("s2xs2", field, basis, 0, products, top=3)


def stb_s2xs2(field=QQ, truncate=12):
    """Free CDGA model of the unit sphere tangent bundle of s2xs2:
    generators x, y in degree 2 and u, v, t in degree 3 with
    d(u) = x^2, d(v) = y^2, d(t) = xy."""
    gens = [("x", 2), ("y", 2), ("u", 3), ("v", 3), ("t", 3)]
    d_gens = {
        "u": [(("x", "x"), 1)],
        "v": [(("y", "y"), 1)],
        "t": [(("x", "y"), 1)],
    }
    model = TruncatedFreeCDGA("stb_s2xs2", field, gens, d_gens, truncate)
    # the bundle is a closed 7-manifold: its cohomology stops in degree 7
    model.formal_dimension = 7
    return model


def stb_s2xs2_h(field=QQ, truncate=12):
    model = stb_s2xs2(field, truncate)
    return cohomology(model, model.formal_dimension)


def heis3(field=QQ):
    gens = [("a", 1), ("b", 1), ("c", 1)]
    ext = TruncatedFreeCDGA("heis3", field, gens, {"c": [(("a", "b"), 1)]}, 3)
    top = ext.index_of((0, 1, 2))
    return to_algebra(ext, "heis3", top=top)


def heis3_s2(field=QQ):
    return tensor_algebra(heis3(field), sphere(2, field), "heis3_s2")


def cs_s5(field=QQ):
    return connected_sum_model(sphere(5, field), 5)


def cs_heis3_s2(field=QQ):
    return connected_sum_model(heis3_s2(field), 5)


_SIMPLE = {
    "point": point,
    "cp2": cp2,
    "s2xs2": s2xs2,
    "heis3": heis3,
    "heis3_s2": heis3_s2,
    "cs_s5": cs_s5,
    "cs_heis3_s2": cs_heis3_s2,
    "t2": lambda field=QQ: torus(2, field),
}


# entries built from a truncated free model: the only ones taking truncate
_TRUNCATED = {"stb_s2xs2": stb_s2xs2, "stb_s2xs2_h": stb_s2xs2_h}


def names():
    fixed = sorted(_SIMPLE) + sorted(_TRUNCATED)
    return fixed + ["sphere(m)", "torus(k)", "s1..s7"]


def load(name, field=QQ, truncate=None):
    """Catalog entry by name.  truncate is the bound of a truncated model
    (default 12); any other entry refuses it rather than ignore it."""
    name = name.strip().lower()
    if name in _TRUNCATED:
        return _TRUNCATED[name](field, 12 if truncate is None else truncate)
    if truncate is not None:
        raise CatalogError("truncate applies only to %s, not %r"
                           % (" and ".join(sorted(_TRUNCATED)), name))
    if name in _SIMPLE:
        return _SIMPLE[name](field)
    m = re.fullmatch(r"s([1-9])", name)
    if m:
        return sphere(int(m.group(1)), field)
    m = re.fullmatch(r"sphere\((\d+)\)", name)
    if m:
        return sphere(int(m.group(1)), field)
    m = re.fullmatch(r"torus\((\d+)\)", name)
    if m:
        return torus(int(m.group(1)), field)
    raise CatalogError("unknown catalog name %r (try: %s)"
                       % (name, ", ".join(names())))
