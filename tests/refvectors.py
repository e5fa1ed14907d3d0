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


def as_block(bc, el, p, q):
    """el, over keys of block (p, q) of the bicomplex bc, as a coordinate
    vector over that block; a key of another block raises KeyError."""
    out = {}
    for key, c in el.items():
        p1, q1, i = bc.block_of.get(key, (None, None, None))
        if (p1, q1) != (p, q):
            raise KeyError("element leaves block (%d, %d): %r" % (p, q, key))
        out[i] = c
    return out


def from_block(bc, vec, p, q):
    """The inverse of ``as_block``."""
    keys = bc.blocks.get((p, q), [])
    return {keys[i]: c for i, c in vec.items()}
