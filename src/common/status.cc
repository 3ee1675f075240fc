#include "src/common/status.h"

namespace xst {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalid:
      return "invalid";
    case StatusCode::kTypeError:
      return "type error";
    case StatusCode::kNotFound:
      return "not found";
    case StatusCode::kAlreadyExists:
      return "already exists";
    case StatusCode::kOutOfRange:
      return "out of range";
    case StatusCode::kCapacityError:
      return "capacity error";
    case StatusCode::kIOError:
      return "io error";
    case StatusCode::kCorruption:
      return "corruption";
    case StatusCode::kNotImplemented:
      return "not implemented";
    case StatusCode::kParseError:
      return "parse error";
    case StatusCode::kUnknown:
      return "unknown";
  }
  return "unknown";
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeToString(code());
  out += ": ";
  out += message();
  return out;
}

Status Status::WithContext(const std::string& context) const {
  if (ok()) return *this;
  return Status(code(), context + ": " + message());
}

}  // namespace xst
