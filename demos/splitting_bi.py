"""Class BI: the intertwiner, its splitting, and finite-rank corners.

When the classifier finds a Q tuple (classes AI and BI) the pair
blocks [[-Q_a, B], [B, -Q]] assemble into an operator J conjugating
the representation to its twin.  For BI the twins are also equivalent
through a form-unitary K, and the composition splits the space into
two eigenspaces with unimodular eigenvalues.  The script builds J for
a random BI instance, verifies it is a unitary intertwiner, splits it,
and inspects the rank profile of its letter-corner compressions.
"""

import itertools

import numpy as np

from freerep import (
    build_J,
    classify,
    finite_rank_check,
    general_intertwiner_family,
    generate,
    normalize,
    split,
    verify_inverse_relations,
    verify_isometry_and_intertwining,
)

nsys = normalize(generate.bi_instance(3))
rep = classify(nsys)
print("class:", rep.class_label, "/ verdict:", rep.realization_verdict)
print("Q residual: %.2e, antisymmetry: %.2e"
      % (rep.Q.residual, rep.Q.antisymmetry_residual))

# ------------------------------------------------------------- build J
J = build_J(rep)
print("\npair-block scale relating the twin forms: %.6f" % J.bhat_scale)
# t is a ratio of form traces: t^2 = sum tr(Bhat) / sum tr(B) = scale
print("unitarizing scale t (t^2 = scale): %.6f" % J.unitary_scale)

# the inverse comes in closed form; the three inverse relations tie the
# hatted tuples to the originals
rel = verify_inverse_relations(J)
print("inverse relations, worst residual: %.2e" % rel.max)

# the certificate: isometry on W_1, commutation with the generator action
# from W_0 to W_1 and the telescoped word identity up to length 4, as
# `freerep classify` checks it; with the Q residual they bound the
# residuals at every depth by 2 (q_residual + W_1 Gram residual)
cert = verify_isometry_and_intertwining(J, depth=1, word_max=4)
bound = 2.0 * (rep.Q.residual + cert.gram_residuals[0])
print("W_1 isometry residual: %.2e, commutation W_0 -> W_1: %.2e"
      % (cert.gram_residuals[0], cert.intertwine_residual))
print("word identity residual: %.2e" % cert.fin_residual)

# the same checks on W_1..W_3, with commutation from W_2 to W_3, stay
# within that bound
iso = verify_isometry_and_intertwining(J, depth=3, word_max=5)
print("W dimensions:", iso.w_dims)
print("isometry residuals:", ["%.1e" % g for g in iso.gram_residuals])
print("intertwining residual W_2 -> W_3: %.2e (bound %.2e plus rounding)"
      % (iso.intertwine_residual, bound))

# ---------------------------------------------------------------- split
sp = split(J)
print("\nsplitting constant c = %.6f (|c| < 2)" % sp.c)
print("eigenvalues %s and %s, both unimodular within %.1e"
      % (np.round(sp.lambda_plus, 6), np.round(sp.lambda_minus, 6),
         sp.unimodularity))
print("projector defects: idempotency %.1e, orthogonality %.1e, "
      "completeness %.1e" % (sp.idempotency, sp.orthogonality,
                             sp.completeness))
print("commutation with the action, W_0 -> W_1: %.2e"
      % sp.commutation_residual)
print("eigenspace dimensions:", sp.subspace_dims)

# J is one point of a two-parameter family; off-center members split
# with a nonzero constant and eigenvalues away from +-1
member, _ = general_intertwiner_family(J, lam=1.0, c=0.7)
spm = split(member)
print("\nfamily member at c0 = 0.7 splits with c = %.6f" % spm.c)
print("eigenvalues %s and %s, product %s"
      % (np.round(spm.lambda_plus, 6), np.round(spm.lambda_minus, 6),
         np.round(spm.lambda_plus * spm.lambda_minus, 6)))

# --------------------------------------------------- finite-rank corner
# compressing J between the letter subspaces of depth n gives operators
# whose rank stabilizes immediately and never exceeds the target block
print("\nrank of the (b, a) corner of J on W_1..W_5:")
letters = nsys.alphabet.letters
for a, b in itertools.permutations(letters[:2], 2):
    fr = finite_rank_check(J, a, b, nmax=5)
    print("  %s -> %s: ranks %s, cap %d"
          % (nsys.alphabet.letter_name(a), nsys.alphabet.letter_name(b),
             fr.ranks, fr.cap))
