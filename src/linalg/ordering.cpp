#include "linalg/ordering.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace tfc::linalg {

namespace {

using Int = std::int64_t;

/// Encodes "absorbed into j" (or "list pointer j" during garbage
/// collection) as a value ≤ −2; self-inverse, and flip(−1) = −1.
constexpr Int flip(Int j) { return -j - 2; }

/// Pattern of A + Aᵀ without the diagonal, deduplicated, as flat adjacency
/// lists: variable i owns iw[pe[i] .. pe[i] + len[i]). Returns the total
/// entry count; iw gets elbow room for the new elements of the elimination.
Int symmetric_adjacency(const SparseMatrix& a, std::vector<Int>& pe,
                        std::vector<Int>& len, std::vector<Int>& iw) {
  const Int n = Int(a.rows());
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  // Raw lists with both (r, c) and (c, r), duplicates included.
  std::vector<Int> raw_ptr(std::size_t(n) + 1, 0);
  for (Int r = 0; r < n; ++r) {
    for (std::size_t q = rp[r]; q < rp[r + 1]; ++q) {
      const Int c = Int(ci[q]);
      if (c == r) continue;
      ++raw_ptr[r + 1];
      ++raw_ptr[c + 1];
    }
  }
  for (Int r = 0; r < n; ++r) raw_ptr[r + 1] += raw_ptr[r];
  std::vector<Int> raw(static_cast<std::size_t>(raw_ptr[n]));
  {
    std::vector<Int> cursor(raw_ptr.begin(), raw_ptr.end() - 1);
    for (Int r = 0; r < n; ++r) {
      for (std::size_t q = rp[r]; q < rp[r + 1]; ++q) {
        const Int c = Int(ci[q]);
        if (c == r) continue;
        raw[cursor[r]++] = c;
        raw[cursor[c]++] = r;
      }
    }
  }
  // Deduplicate into contiguous lists.
  std::vector<Int> seen(std::size_t(n), -1);
  Int nnz = 0;
  for (Int i = 0; i < n; ++i) {
    pe[i] = nnz;
    for (Int p = raw_ptr[i]; p < raw_ptr[i + 1]; ++p) {
      if (seen[raw[p]] != i) {
        seen[raw[p]] = i;
        raw[nnz++] = raw[p];
      }
    }
    len[i] = nnz - pe[i];
  }
  iw.assign(std::size_t(nnz + nnz / 5 + 2 * n), 0);
  std::copy(raw.begin(), raw.begin() + nnz, iw.begin());
  return nnz;
}

}  // namespace

std::vector<std::size_t> approximate_minimum_degree(const SparseMatrix& a) {
  if (!a.square()) {
    throw std::invalid_argument("approximate_minimum_degree: matrix not square");
  }
  const Int n = Int(a.rows());
  if (n == 0) return {};

  // Quotient graph. For a variable i, iw[pe[i] ..] holds its elements
  // (the first elen[i] entries) followed by its variable neighbours; for an
  // element e it holds the variables of L_e. An absorbed object has
  // pe = flip(parent) in the assembly tree; a root has pe = −1.
  std::vector<Int> pe(n), len(n), iw;
  Int pfree = symmetric_adjacency(a, pe, len, iw);
  const Int iwlen = Int(iw.size());

  std::vector<Int> nv(n, 1);       // supervariable size (0: absorbed); −nv while in L_k
  std::vector<Int> elen(n, 0);     // |E_i| of a variable; −2 for an element, −1 absorbed
  std::vector<Int> degree(n);      // approximate external degree; |L_e| of an element
  std::vector<Int> w(n, 1);        // |L_e \ L_k| + mark during scans; 0 = dead element
  std::vector<Int> head(n, -1);    // degree lists, then assembly-tree children
  std::vector<Int> next(n, -1);
  std::vector<Int> last(n, -1);    // degree-list back links, then the hash of i
  std::vector<Int> hash_head(n, -1);

  // w[e] never exceeds mark + lemax, so advancing mark past that clears
  // every w at once. Each pivot advances mark by at most 2n, so a 64-bit
  // mark never wraps.
  Int mark = 2;
  Int lemax = 0;  // largest |L_e| so far

  auto insert_degree = [&](Int i, Int d) {
    if (head[d] != -1) last[head[d]] = i;
    next[i] = head[d];
    last[i] = -1;
    head[d] = i;
  };
  auto remove_degree = [&](Int i) {
    if (next[i] != -1) last[next[i]] = last[i];
    if (last[i] != -1) {
      next[last[i]] = next[i];
    } else {
      head[degree[i]] = next[i];
    }
  };

  Int eliminated = 0;
  for (Int i = 0; i < n; ++i) {
    degree[i] = len[i];
    if (degree[i] == 0) {
      // Isolated: an element of its own, a root of the assembly tree.
      elen[i] = -2;
      pe[i] = -1;
      w[i] = 0;
      ++eliminated;
    } else {
      insert_degree(i, degree[i]);
    }
  }

  Int mindeg = 0;
  while (eliminated < n) {
    // --- Pivot: a supervariable of least approximate degree (the newest
    // in its list).
    while (head[mindeg] == -1) ++mindeg;
    const Int k = head[mindeg];
    if (next[k] != -1) last[next[k]] = -1;
    head[mindeg] = next[k];
    const Int elenk = elen[k];
    Int nvk = nv[k];
    eliminated += nvk;

    // --- Compact iw when the new element may not fit (|L_k| ≤ degree[k]).
    if (elenk > 0 && pfree + degree[k] >= iwlen) {
      for (Int j = 0; j < n; ++j) {
        if (pe[j] >= 0) {
          const Int p = pe[j];
          pe[j] = iw[p];
          iw[p] = flip(j);
        }
      }
      Int q = 0;
      for (Int p = 0; p < pfree;) {
        const Int j = flip(iw[p++]);
        if (j < 0) continue;  // garbage of an absorbed list
        iw[q] = pe[j];
        pe[j] = q++;
        for (Int t = 1; t < len[j]; ++t) iw[q++] = iw[p++];
      }
      pfree = q;
    }

    // --- New element L_k: the union of k's elements and variables, minus
    // k. In place when k has no elements (L_k ⊆ A_k), else at pfree.
    Int dk = 0;
    nv[k] = -nvk;
    Int p = pe[k];
    const Int pk1 = (elenk == 0) ? p : pfree;
    Int pk2 = pk1;
    for (Int k1 = 1; k1 <= elenk + 1; ++k1) {
      Int e, pj, ln;
      if (k1 > elenk) {
        e = k;
        pj = p;
        ln = len[k] - elenk;
      } else {
        e = iw[p++];
        pj = pe[e];
        ln = len[e];
      }
      for (Int k2 = 0; k2 < ln; ++k2) {
        const Int i = iw[pj++];
        const Int nvi = nv[i];
        if (nvi <= 0) continue;  // absorbed, or already in L_k
        dk += nvi;
        nv[i] = -nvi;
        iw[pk2++] = i;
        remove_degree(i);
      }
      if (e != k) {
        pe[e] = flip(k);  // element absorption
        w[e] = 0;
      }
    }
    if (elenk != 0) pfree = pk2;
    degree[k] = dk;
    pe[k] = pk1;
    len[k] = pk2 - pk1;
    elen[k] = -2;

    // --- Scan 1: w[e] − mark = |L_e \ L_k| for every element e touching L_k.
    for (Int pk = pk1; pk < pk2; ++pk) {
      const Int i = iw[pk];
      const Int eln = elen[i];
      if (eln <= 0) continue;
      const Int nvi = -nv[i];
      const Int wnvi = mark - nvi;
      for (Int q = pe[i]; q < pe[i] + eln; ++q) {
        const Int e = iw[q];
        if (w[e] >= mark) {
          w[e] -= nvi;
        } else if (w[e] != 0) {
          w[e] = degree[e] + wnvi;  // first visit this step
        }
      }
    }

    // --- Scan 2: approximate degrees, pruned lists, hashes.
    for (Int pk = pk1; pk < pk2; ++pk) {
      const Int i = iw[pk];
      const Int p1 = pe[i];
      const Int p2 = p1 + elen[i];
      Int pn = p1;
      Int h = 0, d = 0;
      for (Int q = p1; q < p2; ++q) {
        const Int e = iw[q];
        if (w[e] == 0) continue;  // absorbed this step
        const Int dext = w[e] - mark;
        if (dext > 0) {
          d += dext;
          iw[pn++] = e;
          h += e;
        } else {
          pe[e] = flip(k);  // aggressive absorption: L_e ⊆ L_k
          w[e] = 0;
        }
      }
      elen[i] = pn - p1 + 1;  // + k, inserted below
      const Int p3 = pn;
      const Int p4 = p1 + len[i];
      for (Int q = p2; q < p4; ++q) {
        const Int j = iw[q];
        const Int nvj = nv[j];
        if (nvj <= 0) continue;  // absorbed, or in L_k (covered by k)
        d += nvj;
        iw[pn++] = j;
        h += j;
      }
      if (d == 0) {
        // Mass elimination: i is adjacent to k alone.
        pe[i] = flip(k);
        const Int nvi = -nv[i];
        dk -= nvi;
        nvk += nvi;
        eliminated += nvi;
        nv[i] = 0;
        elen[i] = -1;
      } else {
        degree[i] = std::min(degree[i], d);
        // k becomes i's first element; the displaced entries move back.
        iw[pn] = iw[p3];
        iw[p3] = iw[p1];
        iw[p1] = k;
        len[i] = pn - p1 + 1;
        h %= n;
        next[i] = hash_head[h];
        hash_head[h] = i;
        last[i] = h;
      }
    }
    degree[k] = dk;
    lemax = std::max(lemax, dk);
    mark += lemax;

    // --- Supervariables: variables of L_k with identical element and
    // variable lists merge into one (compared bucket by bucket).
    for (Int pk = pk1; pk < pk2; ++pk) {
      Int i = iw[pk];
      if (nv[i] >= 0) continue;
      const Int h = last[i];
      i = hash_head[h];
      hash_head[h] = -1;
      for (; i != -1 && next[i] != -1; i = next[i], ++mark) {
        const Int ln = len[i];
        const Int eln = elen[i];
        for (Int q = pe[i] + 1; q < pe[i] + ln; ++q) w[iw[q]] = mark;
        Int jlast = i;
        for (Int j = next[i]; j != -1;) {
          bool same = len[j] == ln && elen[j] == eln;
          for (Int q = pe[j] + 1; same && q < pe[j] + ln; ++q) {
            if (w[iw[q]] != mark) same = false;
          }
          if (same) {
            pe[j] = flip(i);
            nv[i] += nv[j];
            nv[j] = 0;
            elen[j] = -1;
            j = next[j];
            next[jlast] = j;
          } else {
            jlast = j;
            j = next[j];
          }
        }
      }
    }

    // --- Finalize L_k: restore sizes, external degrees, degree lists.
    Int pout = pk1;
    for (Int pk = pk1; pk < pk2; ++pk) {
      const Int i = iw[pk];
      const Int nvi = -nv[i];
      if (nvi <= 0) continue;  // absorbed above
      nv[i] = nvi;
      const Int d = std::min(degree[i] + dk - nvi, n - eliminated - nvi);
      insert_degree(i, d);
      mindeg = std::min(mindeg, d);
      degree[i] = d;
      iw[pout++] = i;
    }
    nv[k] = nvk;
    len[k] = pout - pk1;
    if (len[k] == 0) {
      pe[k] = -1;  // a root
      w[k] = 0;
    }
    if (elenk != 0) pfree = pout;
  }

  // --- Postorder the assembly tree: children before parents, absorbed
  // variables right before the supervariable or element they joined.
  for (Int i = 0; i < n; ++i) pe[i] = flip(pe[i]);
  std::fill(head.begin(), head.end(), -1);
  for (Int j = n - 1; j >= 0; --j) {
    if (nv[j] > 0) continue;  // elements below
    next[j] = head[pe[j]];
    head[pe[j]] = j;
  }
  for (Int e = n - 1; e >= 0; --e) {
    if (nv[e] <= 0 || pe[e] == -1) continue;
    next[e] = head[pe[e]];
    head[pe[e]] = e;
  }
  std::vector<std::size_t> perm(static_cast<std::size_t>(n));
  std::vector<Int> stack;
  std::size_t order = 0;
  for (Int root = 0; root < n; ++root) {
    if (pe[root] != -1) continue;
    stack.push_back(root);
    while (!stack.empty()) {
      const Int top = stack.back();
      const Int child = head[top];
      if (child == -1) {
        stack.pop_back();
        perm[top] = order++;
      } else {
        head[top] = next[child];
        stack.push_back(child);
      }
    }
  }
  if (order != std::size_t(n)) {
    throw std::logic_error("approximate_minimum_degree: assembly tree does not span");
  }
  return perm;
}

std::vector<std::size_t> invert_permutation(const std::vector<std::size_t>& perm) {
  std::vector<std::size_t> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) inv[perm[i]] = i;
  return inv;
}

SparseMatrix permute_symmetric(const SparseMatrix& a, const std::vector<std::size_t>& perm) {
  if (!a.square() || perm.size() != a.rows()) {
    throw std::invalid_argument("permute_symmetric: dimension mismatch");
  }
  TripletList t(a.rows(), a.cols());
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& vals = a.values();
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      t.add(perm[r], perm[ci[k]], vals[k]);
    }
  }
  return SparseMatrix::from_triplets(t);
}

Vector permute(const Vector& v, const std::vector<std::size_t>& perm) {
  if (perm.size() != v.size()) throw std::invalid_argument("permute: dimension mismatch");
  Vector out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[perm[i]] = v[i];
  return out;
}

}  // namespace tfc::linalg
