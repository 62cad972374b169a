/// \file ordering.h
/// \brief The fill-reducing ordering of every sparse Cholesky analysis, and
/// permutation helpers.
///
/// Orderings are permutations perm such that new_index = perm[old_index].
#pragma once

#include <cstddef>
#include <vector>

#include "linalg/sparse_matrix.h"

namespace tfc::linalg {

/// Approximate minimum degree ordering of the symmetric pattern of
/// \p a + \p aᵀ (diagonal ignored) — the quotient-graph elimination of
/// Amestoy, Davis & Duff (SIAM J. Matrix Anal. Appl. 17(4), 1996): element
/// absorption (aggressive included), approximate external degrees,
/// supervariable detection with mass elimination, and a postorder of the
/// resulting assembly tree. Runs in about O(nnz(A)) on flat integer arrays.
/// The result depends only on the pattern (never on hash or pointer order),
/// so every platform computes the same permutation.
/// Returns perm with new_index = perm[old_index].
std::vector<std::size_t> approximate_minimum_degree(const SparseMatrix& a);

/// Inverse of a permutation.
std::vector<std::size_t> invert_permutation(const std::vector<std::size_t>& perm);

/// Symmetric permutation B = P A Pᵀ, i.e. B(perm[i], perm[j]) = A(i, j).
SparseMatrix permute_symmetric(const SparseMatrix& a, const std::vector<std::size_t>& perm);

/// Apply permutation to a vector: out[perm[i]] = v[i].
Vector permute(const Vector& v, const std::vector<std::size_t>& perm);

}  // namespace tfc::linalg
