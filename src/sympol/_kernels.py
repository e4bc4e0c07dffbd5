"""Row reduction kernels over GF(p).

These pure Python functions are the package's only kernel
implementation, so BACKEND is always "pure".  A matrix is a sequence of
row sequences with entries in range(p).  All kernels return tuples of
row tuples in reduced row echelon form: pivot entries are 1, pivot
columns strictly increase, pivot columns are clear above and below, and
zero rows are dropped.  The empty tuple () is the canonical form of the
zero space.
"""

BACKEND = "pure"

_INVERSES = {}


def inverses(p):
    """Table t with t[a] * a = 1 mod p for a in 1..p-1 (t[0] = 0)."""
    t = _INVERSES.get(p)
    if t is None:
        t = tuple(pow(a, p - 2, p) if a else 0 for a in range(p))
        _INVERSES[p] = t
    return t


def rref(rows, width, p):
    """Reduced row echelon form of the given rows."""
    mat = [list(r) for r in rows]
    inv = inverses(p)
    nrows = len(mat)
    r = 0
    for c in range(width):
        piv = -1
        for i in range(r, nrows):
            if mat[i][c]:
                piv = i
                break
        if piv < 0:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        row = mat[r]
        f = inv[row[c]]
        if f != 1:
            row = mat[r] = [(x * f) % p for x in row]
        for i in range(nrows):
            if i != r and mat[i][c]:
                g = mat[i][c]
                mat[i] = [(a - g * b) % p for a, b in zip(mat[i], row)]
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat[:r])


def residue(vec, rows, p):
    """Reduce vec against canonical rows; zero iff vec is in their span."""
    v = list(vec)
    for row in rows:
        c = 0
        while not row[c]:
            c += 1
        f = v[c]
        if f:
            v = [(a - f * b) % p for a, b in zip(v, row)]
    return tuple(v)


def nullspace(rows, width, p):
    """Canonical basis of {x : A x^T = 0} for A given by rows."""
    red = rref(rows, width, p)
    pivots = []
    for row in red:
        c = 0
        while not row[c]:
            c += 1
        pivots.append(c)
    pivot_set = set(pivots)
    basis = []
    for f in range(width):
        if f in pivot_set:
            continue
        v = [0] * width
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r][f]) % p
        basis.append(v)
    return rref(basis, width, p)


def intersect(rows_a, rows_b, width, p):
    """Canonical basis of the intersection of two row spaces."""
    block = [list(r) + list(r) for r in rows_a]
    zeros = [0] * width
    block += [list(r) + zeros for r in rows_b]
    red = rref(block, 2 * width, p)
    out = []
    for row in red:
        if any(row[:width]):
            continue
        out.append(row[width:])
    # tail rows of an RREF block are already canonical on the right half
    return tuple(tuple(r) for r in out)
