#include <gtest/gtest.h>

#include "pta/expr.hpp"
#include "util/error.hpp"

namespace bsched::pta {
namespace {

TEST(Expr, ConstantsAndArithmetic) {
  const expr e = (lit(2) + lit(3)) * lit(4) - lit(5);
  EXPECT_EQ(e.eval({}), 15);
  EXPECT_EQ((lit(7) / lit(2)).eval({}), 3);
  EXPECT_EQ((lit(7) % lit(2)).eval({}), 1);
  EXPECT_EQ((-lit(4)).eval({}), -4);
}

TEST(Expr, ComparisonsYieldZeroOne) {
  EXPECT_EQ((lit(1) < lit(2)).eval({}), 1);
  EXPECT_EQ((lit(2) < lit(2)).eval({}), 0);
  EXPECT_EQ((lit(2) <= lit(2)).eval({}), 1);
  EXPECT_EQ((lit(3) > lit(2)).eval({}), 1);
  EXPECT_EQ((lit(3) >= lit(4)).eval({}), 0);
  EXPECT_EQ((lit(3) == lit(3)).eval({}), 1);
  EXPECT_EQ((lit(3) != lit(3)).eval({}), 0);
}

TEST(Expr, LogicShortCircuits) {
  // The right operand would divide by zero; && must not evaluate it.
  const expr guard = (lit(0) != lit(0)) && (lit(1) / lit(0) == lit(1));
  EXPECT_EQ(guard.eval({}), 0);
  const expr guard2 = (lit(1) == lit(1)) || (lit(1) / lit(0) == lit(1));
  EXPECT_EQ(guard2.eval({}), 1);
  EXPECT_EQ((!lit(0)).eval({}), 1);
  EXPECT_EQ((!lit(5)).eval({}), 0);
}

TEST(Expr, VariablesReadTheStore) {
  const expr x = expr::variable(0, "x");
  const expr y = expr::variable(1, "y");
  const std::vector<std::int64_t> vars{10, 4};
  EXPECT_EQ((x - y).eval(vars), 6);
}

TEST(Expr, ArrayElementIndexesDynamically) {
  // Store: [i, a0, a1, a2].
  const expr i = expr::variable(0, "i");
  const expr a = expr::element(1, 3, i, "a");
  std::vector<std::int64_t> vars{2, 100, 200, 300};
  EXPECT_EQ(a.eval(vars), 300);
  vars[0] = 0;
  EXPECT_EQ(a.eval(vars), 100);
}

TEST(Expr, ArrayOutOfBoundsThrows) {
  const expr i = expr::variable(0, "i");
  const expr a = expr::element(1, 3, i, "a");
  const std::vector<std::int64_t> vars{5, 1, 2, 3};
  EXPECT_THROW((void)a.eval(vars), bsched::error);
  const std::vector<std::int64_t> negative{-1, 1, 2, 3};
  EXPECT_THROW((void)a.eval(negative), bsched::error);
}

TEST(Expr, DivisionByZeroThrows) {
  EXPECT_THROW((void)(lit(1) / lit(0)).eval({}), bsched::error);
  EXPECT_THROW((void)(lit(1) % lit(0)).eval({}), bsched::error);
}

TEST(Expr, EmptyExpressionThrows) {
  const expr empty;
  EXPECT_FALSE(empty.valid());
  EXPECT_THROW((void)empty.eval({}), bsched::error);
}

TEST(Expr, RendersReadably) {
  const expr x = expr::variable(0, "x");
  const expr e = (lit(1000) - x) * lit(2) >= lit(166);
  EXPECT_EQ(e.str(), "(((1000 - x) * 2) >= 166)");
}

TEST(Lvalue, ScalarAssignment) {
  var_store vars{1, 2};
  const assignment a{lvalue{0, "x"}, lit(42)};
  a.apply(vars);
  EXPECT_EQ(vars[0], 42);
  EXPECT_EQ(a.str(), "x := 42");
}

TEST(Lvalue, ArrayCellAssignment) {
  // Store: [i, a0, a1]; a[i] := a[i] + 1 with i = 1.
  var_store vars{1, 10, 20};
  const expr i = expr::variable(0, "i");
  const assignment a{lvalue{1, 2, i, "a"},
                     expr::element(1, 2, i, "a") + lit(1)};
  a.apply(vars);
  EXPECT_EQ(vars[2], 21);
}

TEST(Lvalue, IndexEvaluatedBeforeWrite) {
  // a[i] := 5 where the rhs also changes... ensure index resolves on the
  // pre-assignment store (single assignment is atomic).
  var_store vars{0, 7, 8};
  const expr i = expr::variable(0, "i");
  const assignment a{lvalue{1, 2, i, "a"}, lit(5)};
  a.apply(vars);
  EXPECT_EQ(vars[1], 5);
  EXPECT_EQ(vars[2], 8);
}

TEST(Lvalue, OutOfBoundsThrows) {
  var_store vars{9, 1, 2};
  const expr i = expr::variable(0, "i");
  const assignment a{lvalue{1, 2, i, "a"}, lit(0)};
  EXPECT_THROW(a.apply(vars), bsched::error);
}

}  // namespace
}  // namespace bsched::pta
