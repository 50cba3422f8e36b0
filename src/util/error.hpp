// Error handling for the bsched library.
//
// Public API boundaries throw `bsched::error` on precondition violations;
// internal invariants use `BSCHED_ASSERT`, which is active in all build
// types (the library is a research artifact: silent corruption is worse
// than an abort).
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace bsched {

/// Exception thrown on violated preconditions at public API boundaries.
class error : public std::runtime_error {
 public:
  explicit error(const std::string& what) : std::runtime_error(what) {}
};

/// Throws `bsched::error` with `message` unless `condition` holds.
///
/// Messages start with an origin prefix — "<module>: ", "<function>: " —
/// naming the throwing component, so an error surfaced through the API
/// (or a wire protocol) identifies its source without a stack trace.
/// scripts/lint_bsched.py (rule `require-prefix`) enforces this across
/// src/.
inline void require(bool condition, const std::string& message) {
  if (!condition) throw error(message);
}

/// The literal-message overload: `require(ok, "net: bad frame")` binds
/// here without a change at the call site, so a passing check costs one
/// branch — the std::string is built only when it throws. (Through the
/// std::string overload every call would construct, and for messages
/// past the small-string buffer heap-allocate, the message first.) A
/// message *built* from runtime parts on a per-call path — a loop, a
/// per-decision or per-epoch check — is spelled
/// `if (!cond) throw error("<origin>: " + part + ...);` for the same
/// reason: the concatenation then runs only on failure.
inline void require(bool condition, const char* message) {
  if (!condition) throw error(message);
}

namespace detail {
[[noreturn]] void assert_fail(const char* expr, std::source_location loc);
}  // namespace detail

}  // namespace bsched

/// Internal invariant check; aborts with location info when violated.
/// Active in every build type.
#define BSCHED_ASSERT(expr)                                                  \
  ((expr) ? static_cast<void>(0)                                            \
          : ::bsched::detail::assert_fail(#expr,                            \
                                          std::source_location::current()))
