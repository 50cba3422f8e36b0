#include "pta/expr.hpp"

#include <utility>

#include "util/error.hpp"

namespace bsched::pta {

namespace detail {

enum class op : std::uint8_t {
  constant, variable, element,
  add, sub, mul, div, mod,
  lt, le, gt, ge, eq, ne,
  land, lor, lnot, neg,
};

struct node {
  op kind;
  std::int64_t value = 0;     // constant value / variable base slot
  std::size_t size = 1;       // array size (element)
  std::string name;           // variable/array display name
  node_ptr left;
  node_ptr right;
};

namespace {

std::int64_t eval_node(const node& n, std::span<const std::int64_t> vars) {
  switch (n.kind) {
    case op::constant:
      return n.value;
    case op::variable: {
      const auto slot = static_cast<std::size_t>(n.value);
      require(slot < vars.size(), "expr: variable slot out of range");
      return vars[slot];
    }
    case op::element: {
      const std::int64_t index = eval_node(*n.left, vars);
      require(index >= 0 && static_cast<std::size_t>(index) < n.size,
              "expr: array index out of bounds in " + n.name);
      const auto slot = static_cast<std::size_t>(n.value) +
                        static_cast<std::size_t>(index);
      require(slot < vars.size(), "expr: array slot out of range");
      return vars[slot];
    }
    case op::lnot:
      return eval_node(*n.left, vars) == 0 ? 1 : 0;
    case op::neg:
      return -eval_node(*n.left, vars);
    case op::land:
      // Short-circuit like C.
      return eval_node(*n.left, vars) != 0 && eval_node(*n.right, vars) != 0;
    case op::lor:
      return eval_node(*n.left, vars) != 0 || eval_node(*n.right, vars) != 0;
    default:
      break;
  }
  const std::int64_t a = eval_node(*n.left, vars);
  const std::int64_t b = eval_node(*n.right, vars);
  switch (n.kind) {
    case op::add: return a + b;
    case op::sub: return a - b;
    case op::mul: return a * b;
    case op::div:
      require(b != 0, "expr: division by zero");
      return a / b;
    case op::mod:
      require(b != 0, "expr: modulo by zero");
      return a % b;
    case op::lt: return a < b;
    case op::le: return a <= b;
    case op::gt: return a > b;
    case op::ge: return a >= b;
    case op::eq: return a == b;
    case op::ne: return a != b;
    default:
      throw error("expr: malformed node");
  }
}

std::string str_node(const node& n) {
  const auto bin = [&](const char* sym) {
    std::string out = "(";
    out += str_node(*n.left);
    out += ' ';
    out += sym;
    out += ' ';
    out += str_node(*n.right);
    out += ')';
    return out;
  };
  switch (n.kind) {
    case op::constant: return std::to_string(n.value);
    case op::variable: return n.name;
    case op::element: return n.name + "[" + str_node(*n.left) + "]";
    case op::add: return bin("+");
    case op::sub: return bin("-");
    case op::mul: return bin("*");
    case op::div: return bin("/");
    case op::mod: return bin("%");
    case op::lt: return bin("<");
    case op::le: return bin("<=");
    case op::gt: return bin(">");
    case op::ge: return bin(">=");
    case op::eq: return bin("==");
    case op::ne: return bin("!=");
    case op::land: return bin("&&");
    case op::lor: return bin("||");
    // Built via append: `"!" + str_node(...)` trips GCC 12's -Wrestrict
    // false positive on the rvalue string overload at -O3.
    case op::lnot: {
      std::string out = "!";
      out += str_node(*n.left);
      return out;
    }
    case op::neg: {
      std::string out = "-";
      out += str_node(*n.left);
      return out;
    }
  }
  return "?";
}

node_ptr make(op kind, node_ptr left, node_ptr right) {
  auto n = std::make_shared<node>();
  n->kind = kind;
  n->left = std::move(left);
  n->right = std::move(right);
  return n;
}

}  // namespace
}  // namespace detail

std::int64_t expr::eval(std::span<const std::int64_t> vars) const {
  require(valid(), "expr: evaluating an empty expression");
  return detail::eval_node(*node_, vars);
}

std::string expr::str() const {
  if (!valid()) return "<empty>";
  return detail::str_node(*node_);
}

expr expr::constant(std::int64_t value) {
  auto n = std::make_shared<detail::node>();
  n->kind = detail::op::constant;
  n->value = value;
  return expr{std::move(n)};
}

expr expr::variable(std::size_t slot, std::string name) {
  auto n = std::make_shared<detail::node>();
  n->kind = detail::op::variable;
  n->value = static_cast<std::int64_t>(slot);
  n->name = std::move(name);
  return expr{std::move(n)};
}

expr expr::element(std::size_t base, std::size_t size, expr index,
                   std::string name) {
  require(index.valid(), "expr: array index must be a valid expression");
  auto n = std::make_shared<detail::node>();
  n->kind = detail::op::element;
  n->value = static_cast<std::int64_t>(base);
  n->size = size;
  n->name = std::move(name);
  n->left = index.node_;
  return expr{std::move(n)};
}

// Friend operators: each builds one interior node over the operand DAGs.
#define BSCHED_EXPR_BINARY(symbol, kind)                                   \
  expr operator symbol(expr a, expr b) {                                   \
    require(a.valid() && b.valid(), "expr: operand is empty");             \
    return expr{detail::make(detail::op::kind, std::move(a.node_),         \
                             std::move(b.node_))};                         \
  }

BSCHED_EXPR_BINARY(+, add)
BSCHED_EXPR_BINARY(-, sub)
BSCHED_EXPR_BINARY(*, mul)
BSCHED_EXPR_BINARY(/, div)
BSCHED_EXPR_BINARY(%, mod)
BSCHED_EXPR_BINARY(<, lt)
BSCHED_EXPR_BINARY(<=, le)
BSCHED_EXPR_BINARY(>, gt)
BSCHED_EXPR_BINARY(>=, ge)
BSCHED_EXPR_BINARY(==, eq)
BSCHED_EXPR_BINARY(!=, ne)
BSCHED_EXPR_BINARY(&&, land)
BSCHED_EXPR_BINARY(||, lor)
#undef BSCHED_EXPR_BINARY

expr operator!(expr a) {
  require(a.valid(), "expr: operand is empty");
  return expr{detail::make(detail::op::lnot, std::move(a.node_), nullptr)};
}

expr operator-(expr a) {
  require(a.valid(), "expr: operand is empty");
  return expr{detail::make(detail::op::neg, std::move(a.node_), nullptr)};
}

lvalue::lvalue(std::size_t slot, std::string name)
    : base_(slot), size_(1), name_(std::move(name)) {}

lvalue::lvalue(std::size_t base, std::size_t size, expr index,
               std::string name)
    : base_(base), size_(size), index_(std::move(index)),
      name_(std::move(name)) {
  require(index_.valid(), "lvalue: array index must be valid");
  require(size_ > 0, "lvalue: array must be non-empty");
}

std::size_t lvalue::resolve(std::span<const std::int64_t> vars) const {
  if (!index_.valid()) return base_;
  const std::int64_t index = index_.eval(vars);
  require(index >= 0 && static_cast<std::size_t>(index) < size_,
          "lvalue: array index out of bounds in " + name_);
  return base_ + static_cast<std::size_t>(index);
}

std::string lvalue::str() const {
  if (!index_.valid()) return name_;
  return name_ + "[" + index_.str() + "]";
}

void assignment::apply(var_store& vars) const {
  const std::size_t slot = target.resolve(vars);
  const std::int64_t v = value.eval(vars);
  BSCHED_ASSERT(slot < vars.size());
  vars[slot] = v;
}

std::string assignment::str() const {
  return target.str() + " := " + value.str();
}

}  // namespace bsched::pta
