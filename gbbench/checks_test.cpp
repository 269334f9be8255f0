// Negative controls for the benchmark's checks: each checker must reject a
// basis with one element dropped and one with a coefficient perturbed, and
// the renaming check must reject a wrong permutation. The positive cases
// show the same checkers accept the untouched answer.
#include <gtest/gtest.h>

#include <numeric>

#include "checks.hpp"
#include "gb/sequential.hpp"
#include "gb/verify.hpp"
#include "poly/reduce.hpp"
#include "problems/problems.hpp"

namespace gbbench {
namespace {

using gbd::CoeffOptions;
using gbd::Polynomial;

constexpr std::uint64_t kPrime = 4294967291ULL;  // largest prime below 2^32

struct Case {
  std::string name;
  CoeffOptions coeff;
};

std::vector<Case> cases() {
  return {{"katsura(3)", CoeffOptions::exact()},
          {"katsura(3)", CoeffOptions::zp(kPrime)},
          {"cyclic(5)", CoeffOptions::exact()},
          {"eco(5)", CoeffOptions::zp(kPrime)}};
}

std::vector<Polynomial> reduced_basis(const gbd::PolySystem& sys, const CoeffOptions& coeff) {
  gbd::GbConfig cfg;
  cfg.coeff = coeff;
  return gbd::reduce_basis(sys.ctx, gbd::groebner_sequential(sys, cfg).basis, coeff);
}

// The basis with element `at` removed.
std::vector<Polynomial> dropped(std::vector<Polynomial> b, std::size_t at) {
  b.erase(b.begin() + static_cast<std::ptrdiff_t>(at));
  return b;
}

// The basis with the last coefficient of element `at` increased by one.
std::vector<Polynomial> perturbed(const gbd::PolyContext& ctx, std::vector<Polynomial> b,
                                  std::size_t at) {
  std::vector<gbd::Term> terms = b[at].terms();
  terms.back().coeff = terms.back().coeff + gbd::BigInt(1);
  b[at] = Polynomial::from_terms(ctx, std::move(terms));
  return b;
}

std::vector<std::string> rendered(const gbd::PolyContext& ctx, const std::vector<Polynomial>& b) {
  std::vector<std::string> out;
  for (const Polynomial& p : b) out.push_back(p.to_string(ctx));
  return out;
}

// check_solve as the certify and paper-glp passes call it, with the
// program's own certificate computed on the basis under test.
bool solve_ok(const Case& c, const gbd::PolySystem& sys, std::vector<Polynomial> basis,
              const std::vector<Polynomial>& reference) {
  Solve s;
  s.name = c.name;
  s.ctx = &sys.ctx;
  s.coeff = c.coeff;
  s.certified = gbd::verify_groebner_result(sys.ctx, sys.polys, basis, nullptr, c.coeff);
  s.basis = std::move(basis);
  s.reference = &reference;
  std::string why;
  return check_solve(s, &why);
}

TEST(RootCount, MatchesTheLiterature) {
  for (const char* name : {"katsura(3)", "katsura(4)", "cyclic(5)", "eco(5)", "eco(6)"}) {
    gbd::PolySystem sys = gbd::load_problem(name);
    EXPECT_EQ(count_standard_monomials(sys.ctx, reduced_basis(sys, CoeffOptions::exact())),
              literature_root_count(name))
        << name;
  }
  EXPECT_EQ(literature_root_count("katsura4"), 16u);
  EXPECT_EQ(literature_root_count("arnborg5"), 70u);
  EXPECT_EQ(literature_root_count("cyclic(6)"), 156u);
  EXPECT_EQ(literature_root_count("trinks1"), 0u);
}

TEST(RootCount, PositiveDimensionalIdealHasNoCount) {
  gbd::PolySystem sys = gbd::load_problem("cyclic(4)");
  EXPECT_FALSE(count_standard_monomials(sys.ctx, reduced_basis(sys, CoeffOptions::exact())));
}

TEST(CheckSolve, AcceptsTheAnswerAndRejectsDroppedOrPerturbedElements) {
  for (const Case& c : cases()) {
    gbd::PolySystem sys = gbd::load_problem(c.name);
    const std::vector<Polynomial> ref = reduced_basis(sys, c.coeff);
    EXPECT_TRUE(solve_ok(c, sys, ref, ref)) << c.name;
    for (std::size_t at : {std::size_t{0}, ref.size() - 1}) {
      EXPECT_FALSE(solve_ok(c, sys, dropped(ref, at), ref)) << c.name << " drop " << at;
      EXPECT_FALSE(solve_ok(c, sys, perturbed(sys.ctx, ref, at), ref))
          << c.name << " perturb " << at;
    }
  }
}

TEST(CheckSolve, RejectsDroppedOrPerturbedElementsEvenWhenCertified) {
  // The reference comparison and the root count reject on their own, so a
  // wrong basis the program wrongly certified is still caught.
  for (const Case& c : cases()) {
    gbd::PolySystem sys = gbd::load_problem(c.name);
    const std::vector<Polynomial> ref = reduced_basis(sys, c.coeff);
    Solve s;
    s.name = c.name;
    s.ctx = &sys.ctx;
    s.coeff = c.coeff;
    s.certified = true;
    s.reference = &ref;
    std::string why;
    s.basis = dropped(ref, 1);
    EXPECT_FALSE(check_solve(s, &why)) << c.name;
    s.basis = perturbed(sys.ctx, ref, 1);
    EXPECT_FALSE(check_solve(s, &why)) << c.name;
  }
}

TEST(CheckServed, AcceptsTheAnswerAndRejectsDroppedOrPerturbedElements) {
  for (const Case& c : cases()) {
    gbd::PolySystem sys = gbd::load_problem(c.name);
    const std::vector<Polynomial> ref = reduced_basis(sys, c.coeff);
    std::vector<Polynomial> reduced;
    std::string why;
    EXPECT_TRUE(check_served(sys, rendered(sys.ctx, ref), c.coeff, &reduced, &why)) << why;
    for (std::size_t at : {std::size_t{0}, ref.size() - 1}) {
      EXPECT_FALSE(check_served(sys, rendered(sys.ctx, dropped(ref, at)), c.coeff, &reduced, &why))
          << c.name << " drop " << at;
      EXPECT_FALSE(check_served(sys, rendered(sys.ctx, perturbed(sys.ctx, ref, at)), c.coeff,
                                &reduced, &why))
          << c.name << " perturb " << at;
    }
  }
}

TEST(CheckServed, ReferenceRejectsTheAnswerOfALargerIdeal) {
  // {1} is a Gröbner basis that every input lies in, so re-certification
  // alone passes it; serve-mix also holds an original's answer to the
  // reference basis, which rejects it.
  for (const Case& c : cases()) {
    gbd::PolySystem sys = gbd::load_problem(c.name);
    const std::vector<Polynomial> ref = reduced_basis(sys, c.coeff);
    std::vector<Polynomial> reduced;
    std::string why;
    ASSERT_TRUE(check_served(sys, {"1"}, c.coeff, &reduced, &why)) << c.name << ": " << why;
    Solve s;
    s.name = c.name;
    s.ctx = &sys.ctx;
    s.coeff = c.coeff;
    s.basis = reduced;
    s.certified = true;
    s.reference = &ref;
    EXPECT_FALSE(check_solve(s, &why)) << c.name;
  }
}

TEST(CheckServed, RejectsAResultThatDoesNotParseInTheSubmittedVariables) {
  gbd::PolySystem sys = gbd::load_problem("katsura(3)");
  std::vector<Polynomial> reduced;
  std::string why;
  EXPECT_FALSE(check_served(sys, {"q0^2 - 1"}, CoeffOptions::exact(), &reduced, &why));
}

TEST(CheckRenaming, AcceptsTheRenamingAndRejectsWrongAnswers) {
  for (const Case& c : cases()) {
    gbd::PolySystem orig = gbd::load_problem(c.name);
    gbd::PolySystem variant = orig;
    for (std::size_t i = 0; i < variant.ctx.vars.size(); ++i)
      variant.ctx.vars[i] = "w" + std::to_string(i);
    const std::vector<Polynomial> ref = reduced_basis(orig, c.coeff);
    // The variant's answer as a client sees it: rendered in its variables.
    std::vector<Polynomial> answer;
    std::string why;
    ASSERT_TRUE(check_served(variant, rendered(variant.ctx, reduced_basis(variant, c.coeff)),
                             c.coeff, &answer, &why))
        << why;

    std::vector<std::size_t> identity(orig.ctx.nvars());
    std::iota(identity.begin(), identity.end(), 0);
    EXPECT_TRUE(check_renaming(variant.ctx, answer, ref, identity, &why)) << why;

    std::vector<std::size_t> swapped = identity;
    std::swap(swapped[0], swapped[1]);
    EXPECT_FALSE(check_renaming(variant.ctx, answer, ref, swapped, &why)) << c.name;
    std::vector<std::size_t> rotated = identity;
    std::rotate(rotated.begin(), rotated.begin() + 1, rotated.end());
    EXPECT_FALSE(check_renaming(variant.ctx, answer, ref, rotated, &why)) << c.name;

    EXPECT_FALSE(check_renaming(variant.ctx, dropped(answer, 0), ref, identity, &why)) << c.name;
    EXPECT_FALSE(
        check_renaming(variant.ctx, perturbed(variant.ctx, answer, 0), ref, identity, &why))
        << c.name;
  }
}

}  // namespace
}  // namespace gbbench
