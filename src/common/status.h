// Status: the error-propagation vocabulary for all of libxst.
//
// Follows the Arrow/RocksDB idiom: library functions that can fail return a
// Status (or Result<T>, see result.h); exceptions never cross the public API.

#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <utility>

namespace xst {

/// \brief Machine-readable category of a failure.
enum class StatusCode : int8_t {
  kOk = 0,
  kInvalid = 1,        ///< caller supplied an argument that violates a precondition
  kTypeError = 2,      ///< an extended set had the wrong shape (e.g. atom where set needed)
  kNotFound = 3,       ///< a requested object (catalog entry, page, key) does not exist
  kAlreadyExists = 4,  ///< creation collided with an existing object
  kOutOfRange = 5,     ///< index/position outside the valid range
  kCapacityError = 6,  ///< a size limit (page, tuple width, power-set bound) was exceeded
  kIOError = 7,        ///< the storage layer failed to read or write
  kCorruption = 8,     ///< persistent data failed validation (checksum, framing)
  kNotImplemented = 9, ///< feature intentionally unavailable
  kParseError = 10,    ///< textual XST notation could not be parsed
  // 11 is retired; codes keep their numbers.
  kUnknown = 12,
};

/// \brief Returns the canonical lower-case name of a status code.
const char* StatusCodeToString(StatusCode code);

/// \brief Outcome of an operation: OK, or a code plus a human-readable message.
///
/// Status is cheap to copy in the OK case (a null pointer); error states
/// allocate a small shared state. Test with ok(), branch with code(), and
/// propagate with XST_RETURN_NOT_OK (see macros.h).
///
/// [[nodiscard]]: a dropped Status is a swallowed failure, so discarding one
/// is a compile error (-Werror=unused-result). The rare deliberate drop —
/// best-effort cleanup on an already-failing path — must be an explicit
/// `(void)` cast with a comment saying why losing the error is sound.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() = default;

  Status(StatusCode code, std::string msg)
      : state_(code == StatusCode::kOk
                   ? nullptr
                   : std::make_shared<State>(State{code, std::move(msg)})) {}

  /// \brief The singleton-like success value.
  static Status OK() { return Status(); }

  static Status Invalid(std::string msg) {
    return Status(StatusCode::kInvalid, std::move(msg));
  }
  static Status TypeError(std::string msg) {
    return Status(StatusCode::kTypeError, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status CapacityError(std::string msg) {
    return Status(StatusCode::kCapacityError, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotImplemented(std::string msg) {
    return Status(StatusCode::kNotImplemented, std::move(msg));
  }
  static Status ParseError(std::string msg) {
    return Status(StatusCode::kParseError, std::move(msg));
  }

  /// \brief True iff the operation succeeded.
  bool ok() const { return state_ == nullptr; }

  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }

  /// \brief The error message; empty for OK.
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->msg;
  }

  bool IsInvalid() const { return code() == StatusCode::kInvalid; }
  bool IsTypeError() const { return code() == StatusCode::kTypeError; }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsCapacityError() const { return code() == StatusCode::kCapacityError; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsNotImplemented() const { return code() == StatusCode::kNotImplemented; }
  bool IsParseError() const { return code() == StatusCode::kParseError; }

  /// \brief "OK" or "<code>: <message>".
  std::string ToString() const;

  /// \brief Returns a copy with extra context prepended to the message.
  Status WithContext(const std::string& context) const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string msg;
  };
  std::shared_ptr<const State> state_;  // null == OK
};

inline std::ostream& operator<<(std::ostream& os, const Status& st) {
  return os << st.ToString();
}

}  // namespace xst
