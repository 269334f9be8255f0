#include "checks.hpp"

#include <algorithm>
#include <cstdlib>
#include <set>

#include "gb/verify.hpp"
#include "poly/reduce.hpp"

namespace gbbench {

using gbd::Monomial;
using gbd::PolyContext;
using gbd::Polynomial;

std::optional<std::size_t> count_standard_monomials(const PolyContext& ctx,
                                                    const std::vector<Polynomial>& basis,
                                                    std::size_t limit) {
  std::vector<Monomial> heads;
  for (const Polynomial& g : basis)
    if (!g.is_zero()) heads.push_back(g.hmono());
  const std::size_t n = ctx.nvars();
  // Zero-dimensional iff every variable has a pure power among the heads.
  for (std::size_t v = 0; v < n; ++v) {
    bool pure = std::any_of(heads.begin(), heads.end(), [&](const Monomial& m) {
      return m.exp(v) > 0 && m.degree() == m.exp(v);
    });
    if (!pure) return std::nullopt;
  }
  auto standard = [&](const Monomial& m) {
    return std::none_of(heads.begin(), heads.end(),
                        [&](const Monomial& h) { return h.divides(m); });
  };
  // The standard monomials form an order ideal: walk it from 1 by
  // multiplying with single variables.
  std::set<std::vector<std::uint32_t>> seen;
  std::vector<std::vector<std::uint32_t>> frontier;
  std::vector<std::uint32_t> one(n, 0);
  if (!standard(Monomial(one))) return 0;
  seen.insert(one);
  frontier.push_back(one);
  while (!frontier.empty()) {
    std::vector<std::uint32_t> e = std::move(frontier.back());
    frontier.pop_back();
    for (std::size_t v = 0; v < n; ++v) {
      ++e[v];
      if (!seen.count(e) && standard(Monomial(e))) {
        if (seen.size() >= limit) return std::nullopt;
        seen.insert(e);
        frontier.push_back(e);
      }
      --e[v];
    }
  }
  return seen.size();
}

namespace {

// Parses N out of "<prefix>(N)"; -1 when `name` has another form.
int family_order(const std::string& name, const std::string& prefix) {
  if (name.size() < prefix.size() + 3 || name.compare(0, prefix.size() + 1, prefix + "(") != 0 ||
      name.back() != ')')
    return -1;
  std::string digits = name.substr(prefix.size() + 1, name.size() - prefix.size() - 2);
  if (digits.empty() || digits.find_first_not_of("0123456789") != std::string::npos) return -1;
  return std::atoi(digits.c_str());
}

}  // namespace

std::size_t literature_root_count(const std::string& name) {
  if (name == "katsura4") return 16;
  if (name == "arnborg5" || name == "cyclic(5)") return 70;
  if (name == "cyclic(6)") return 156;
  if (int n = family_order(name, "katsura"); n >= 1) return std::size_t{1} << n;
  if (int n = family_order(name, "eco"); n >= 3) return std::size_t{1} << (n - 2);
  return 0;
}

namespace {

bool same_basis(const std::vector<Polynomial>& got, const std::vector<Polynomial>& want,
                std::string* why) {
  if (got.size() != want.size()) {
    *why = "basis has " + std::to_string(got.size()) + " elements, expected " +
           std::to_string(want.size());
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!got[i].equals(want[i])) {
      *why = "basis element " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

}  // namespace

bool check_solve(const Solve& s, std::string* why) {
  if (!s.certified) {
    *why = s.name + ": certificate failed";
    return false;
  }
  if (!same_basis(s.basis, *s.reference, why)) {
    *why = s.name + ": " + *why;
    return false;
  }
  if (std::size_t want = literature_root_count(s.name); want != 0) {
    std::optional<std::size_t> got = count_standard_monomials(*s.ctx, s.basis);
    if (got != want) {
      *why = s.name + ": " + (got ? std::to_string(*got) : std::string("no finite")) +
             " standard monomials, literature count " + std::to_string(want);
      return false;
    }
  }
  return true;
}

bool check_served(const gbd::PolySystem& submitted, const std::vector<std::string>& result,
                  const gbd::CoeffOptions& coeff, std::vector<Polynomial>* reduced,
                  std::string* why) {
  std::vector<Polynomial> basis;
  basis.reserve(result.size());
  for (const std::string& text : result) {
    Polynomial p;
    std::string err;
    if (!gbd::parse_poly(submitted.ctx, text, &p, &err)) {
      *why = "result does not parse in the submitted variables: " + err;
      return false;
    }
    basis.push_back(std::move(p));
  }
  if (!gbd::verify_groebner_result(submitted.ctx, submitted.polys, basis, why, coeff)) {
    *why = "re-certification failed: " + *why;
    return false;
  }
  *reduced = gbd::reduce_basis(submitted.ctx, std::move(basis), coeff);
  return true;
}

std::vector<Polynomial> rename_basis(const PolyContext& to, const std::vector<Polynomial>& basis,
                                     const std::vector<std::size_t>& perm) {
  std::vector<Polynomial> out;
  out.reserve(basis.size());
  for (const Polynomial& p : basis) {
    std::vector<gbd::Term> terms;
    terms.reserve(p.nterms());
    for (const gbd::Term& t : p.terms()) {
      std::vector<std::uint32_t> e(to.nvars(), 0);
      for (std::size_t v = 0; v < perm.size(); ++v) e[perm[v]] = t.mono.exp(v);
      terms.push_back({t.coeff, Monomial(std::move(e))});
    }
    out.push_back(Polynomial::from_terms(to, std::move(terms)));
  }
  std::stable_sort(out.begin(), out.end(), [&](const Polynomial& a, const Polynomial& b) {
    return to.cmp(a.hmono(), b.hmono()) < 0;
  });
  return out;
}

bool check_renaming(const PolyContext& variant_ctx, const std::vector<Polynomial>& variant_reduced,
                    const std::vector<Polynomial>& original_reduced,
                    const std::vector<std::size_t>& perm, std::string* why) {
  if (!same_basis(variant_reduced, rename_basis(variant_ctx, original_reduced, perm), why)) {
    *why = "variant is not the renaming of its original: " + *why;
    return false;
  }
  return true;
}

}  // namespace gbbench
