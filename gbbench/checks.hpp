// Correctness checks the benchmark applies to every result it times.
//
// None of them compares against a recorded output of the program:
//   - root counts (the number of standard monomials of the leading-term
//     ideal, i.e. solutions counted with multiplicity) come from the
//     literature;
//   - a basis is compared with the canonical reduced basis of another engine
//     path, computed in the same process outside the timed passes;
//   - a served result is parsed back in the submitted variables and
//     re-certified in the benchmark's own process, and a renamed variant's
//     answer must be the renaming of its original's answer.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "io/parse.hpp"
#include "poly/coeff.hpp"
#include "poly/polynomial.hpp"

namespace gbbench {

/// Dimension of the quotient by the leading-term ideal of `basis` (a
/// Gröbner basis), or nullopt when that ideal is not zero-dimensional or
/// the count exceeds `limit`.
std::optional<std::size_t> count_standard_monomials(const gbd::PolyContext& ctx,
                                                    const std::vector<gbd::Polynomial>& basis,
                                                    std::size_t limit = std::size_t{1} << 20);

/// Root count from the literature for a problem name the corpora use, or 0
/// when none is known: 2^n for katsura(n) (katsura4 = katsura(4)), 70 for
/// cyclic(5) and arnborg5, 156 for cyclic(6), 2^(n-2) for eco(n).
std::size_t literature_root_count(const std::string& name);

/// One certified solve as the certify and paper-glp passes produce it.
struct Solve {
  std::string name;
  const gbd::PolyContext* ctx = nullptr;
  gbd::CoeffOptions coeff;
  std::vector<gbd::Polynomial> basis;  ///< canonical reduced basis
  bool certified = false;              ///< the program's own certificate passed
  /// The canonical reduced basis of an independent engine path.
  const std::vector<gbd::Polynomial>* reference = nullptr;
};

/// The solve is certified, equals its reference term for term, and has the
/// literature root count when one is known. On failure *why names the
/// first mismatch.
bool check_solve(const Solve& s, std::string* why);

/// Parse a served result back in the submitted system's variables and
/// certify it there over `coeff`. On success *reduced receives its
/// canonical reduced basis (for the renaming check).
bool check_served(const gbd::PolySystem& submitted, const std::vector<std::string>& result,
                  const gbd::CoeffOptions& coeff, std::vector<gbd::Polynomial>* reduced,
                  std::string* why);

/// Variable i of each polynomial becomes variable perm[i] in `to`; the list
/// is returned sorted by ascending head, as reduce_basis orders it.
std::vector<gbd::Polynomial> rename_basis(const gbd::PolyContext& to,
                                          const std::vector<gbd::Polynomial>& basis,
                                          const std::vector<std::size_t>& perm);

/// A variant's reduced answer equals the renaming by `perm` of its
/// original's reduced answer.
bool check_renaming(const gbd::PolyContext& variant_ctx,
                    const std::vector<gbd::Polynomial>& variant_reduced,
                    const std::vector<gbd::Polynomial>& original_reduced,
                    const std::vector<std::size_t>& perm, std::string* why);

}  // namespace gbbench
