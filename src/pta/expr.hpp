// Integer expression language for guards, invariant bounds, cost rates and
// assignments of the timed-automata engine.
//
// Expressions are immutable DAGs over 64-bit integers; variables refer to a
// flat store owned by the network state (scalars and arrays share the store,
// an array is a base offset plus a dynamically evaluated index). Operator
// overloads give the model-builder code a near-Uppaal surface syntax, e.g.
//   (lit(1000) - c) * m_delta[id] >= c * n_gamma[id]
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace bsched::pta {

/// Flat integer store holding every scalar and array cell of a network.
using var_store = std::vector<std::int64_t>;

namespace detail {
struct node;
using node_ptr = std::shared_ptr<const node>;
}  // namespace detail

/// An integer expression. Comparison/logical operators yield 0 or 1.
class expr {
 public:
  expr() = default;  ///< Empty expression; evaluating it is an error.

  [[nodiscard]] bool valid() const noexcept { return node_ != nullptr; }

  /// Evaluates against a store. Throws bsched::error on division by zero
  /// or out-of-bounds array access.
  [[nodiscard]] std::int64_t eval(std::span<const std::int64_t> vars) const;

  /// Human-readable rendering (for traces and debugging).
  [[nodiscard]] std::string str() const;

  // Factories ---------------------------------------------------------
  [[nodiscard]] static expr constant(std::int64_t value);
  [[nodiscard]] static expr variable(std::size_t slot, std::string name);
  /// Array cell `base[index]` with bounds [0, size).
  [[nodiscard]] static expr element(std::size_t base, std::size_t size,
                                    expr index, std::string name);

  friend expr operator+(expr a, expr b);
  friend expr operator-(expr a, expr b);
  friend expr operator*(expr a, expr b);
  friend expr operator/(expr a, expr b);
  friend expr operator%(expr a, expr b);
  friend expr operator<(expr a, expr b);
  friend expr operator<=(expr a, expr b);
  friend expr operator>(expr a, expr b);
  friend expr operator>=(expr a, expr b);
  friend expr operator==(expr a, expr b);
  friend expr operator!=(expr a, expr b);
  friend expr operator&&(expr a, expr b);
  friend expr operator||(expr a, expr b);
  friend expr operator!(expr a);
  friend expr operator-(expr a);

 private:
  explicit expr(detail::node_ptr n) : node_(std::move(n)) {}
  detail::node_ptr node_;
};

/// Shorthand for expr::constant.
[[nodiscard]] inline expr lit(std::int64_t value) {
  return expr::constant(value);
}

/// An assignable location: a scalar slot or an array cell.
class lvalue {
 public:
  /// Scalar slot.
  lvalue(std::size_t slot, std::string name);
  /// Array cell with a dynamic index.
  lvalue(std::size_t base, std::size_t size, expr index, std::string name);

  /// Resolves to a concrete slot in `vars` (evaluating the index).
  [[nodiscard]] std::size_t resolve(std::span<const std::int64_t> vars) const;

  [[nodiscard]] std::string str() const;

 private:
  std::size_t base_;
  std::size_t size_;  // 1 for scalars
  expr index_;        // invalid for scalars
  std::string name_;
};

/// One assignment `target := value`, executed atomically in edge order.
struct assignment {
  lvalue target;
  expr value;

  /// Applies to `vars` in place.
  void apply(var_store& vars) const;

  [[nodiscard]] std::string str() const;
};

}  // namespace bsched::pta
