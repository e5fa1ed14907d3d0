"""Reference sparse-vector arithmetic over field scalars, for the tests:
term by term, with none of the exact-constant paths of ``exactlinalg``."""

from confspace.exactlinalg import vec_iadd


def vec_add(u, v, c=None):
    """u + c*v (c defaults to 1) for sparse dict vectors."""
    return vec_iadd(dict(u), v, c)


def vec_scale(v, c):
    if not c:
        return {}
    return {j: c * x for j, x in v.items()}


def apply_map(image, vec):
    """sum_i vec[i] image(i) for images that hold field scalars."""
    out = {}
    for i, c in vec.items():
        vec_iadd(out, image(i), c)
    return out
