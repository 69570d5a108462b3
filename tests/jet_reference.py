"""Reference jet products written with np.einsum and np.concatenate.

Each is the product rule spelled out term by term, one ``np.einsum`` per
term, the way :mod:`paralift.ad` once evaluated jet products.  The package
now takes them as stacked matmuls and preallocated blocks; these slower
forms stay here as the oracle the tests compare against.
"""

import numpy as np

from paralift import ad


def einsum(subscripts, a, b):
    """Two-operand ``np.einsum`` ("ij,jk->ik") on plain arrays or jets."""
    if not isinstance(a, ad.Jet) and not isinstance(b, ad.Jet):
        return np.einsum(subscripts, a, b)
    inputs, out = subscripts.split("->")
    sa, sb = inputs.split(",")
    s = next(c for c in "zyxwvu" if c not in subscripts)  # the seed axis
    terms = []
    if isinstance(a, ad.Jet):
        terms.append(np.einsum(f"{sa}{s},{sb}->{out}{s}", a.grad, ad.val(b)))
    if isinstance(b, ad.Jet):
        terms.append(np.einsum(f"{sa},{sb}{s}->{out}{s}", ad.val(a), b.grad))
    grad = terms[0] + terms[1] if len(terms) == 2 else terms[0]
    return ad.Jet(np.einsum(subscripts, ad.val(a), ad.val(b)), grad)


def matmul(a, b):
    return einsum("...ij,...jk->...ik", a, b)


def outer(a, b):
    return einsum("...i,...j->...ij", a, b)


def block(rows):
    """``np.block`` of jets and plain blocks, by concatenation."""
    parts = [x for row in rows for x in row]
    lead = np.broadcast_shapes(*(np.shape(x)[:-2] for x in parts))
    m = next(x.grad.shape[-1] for x in parts if isinstance(x, ad.Jet))

    def value(x):
        return np.broadcast_to(ad.val(x), lead + np.shape(x)[-2:])

    def grad(x):
        g = ad.partials(x, m)
        return np.broadcast_to(g, lead + g.shape[-3:])

    return ad.Jet(
        np.concatenate([np.concatenate([value(x) for x in row], -1)
                        for row in rows], -2),
        np.concatenate([np.concatenate([grad(x) for x in row], -2)
                        for row in rows], -3))
