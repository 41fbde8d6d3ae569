"""Dense reference versions of the homology that `oddwalk.ncomplex` reduces
by unit pivots.

`h1_homology` builds the whole edges x triangles boundary matrix d2 and
`presentation_abelianization` the whole relators x generators exponent-sum
matrix, and both run the dense Smith normal form on it: the versions the
library used before it eliminated unit pivots on sparse columns.
test_ncomplex.py requires the library to return the same H1Descriptor.
"""

from oddwalk.errors import RefusalError
from oddwalk.ncomplex import GroupPresentation, H1Descriptor, SimplicialComplex
from oddwalk.snf import smith_normal_form


def h1_homology(k: SimplicialComplex) -> H1Descriptor:
    if not k.is_connected():
        raise RefusalError("complex is disconnected; compute components separately")
    edges = k.edges()
    eidx = {e: i for i, e in enumerate(edges)}
    triangles = k.triangles()
    if not edges:
        return H1Descriptor(0, ())
    # d1 of a connected complex has rank |V| - 1
    rank_d1 = len(k.vertices()) - 1
    if triangles:
        d2 = [[0] * len(triangles) for _ in edges]
        for j, (a, b, c) in enumerate(triangles):
            d2[eidx[(b, c)]][j] = 1
            d2[eidx[(a, c)]][j] = -1
            d2[eidx[(a, b)]][j] = 1
        snf2 = smith_normal_form(d2)
        rank_d2 = snf2.rank
        torsion = tuple(d for d in snf2.diagonal if d > 1)
    else:
        rank_d2 = 0
        torsion = ()
    free_rank = len(edges) - rank_d1 - rank_d2
    return H1Descriptor(free_rank, torsion)


def presentation_abelianization(p: GroupPresentation) -> H1Descriptor:
    if p.num_generators == 0:
        return H1Descriptor(0, ())
    if not p.relators:
        return H1Descriptor(p.num_generators, ())
    matrix = []
    for w in p.relators:
        row = [0] * p.num_generators
        for s in w:
            row[abs(s) - 1] += 1 if s > 0 else -1
        matrix.append(row)
    snf = smith_normal_form(matrix)
    torsion = tuple(d for d in snf.diagonal if d > 1)
    return H1Descriptor(p.num_generators - snf.rank, torsion)
