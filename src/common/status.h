// Lightweight status type for module-boundary error reporting.
// Hot paths use asserts; Status is for construction/configuration APIs.
#ifndef STAGEDCMP_COMMON_STATUS_H_
#define STAGEDCMP_COMMON_STATUS_H_

#include <string>
#include <utility>

namespace stagedcmp {

/// Error categories surfaced by public APIs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kInternal,
};

/// A cheap, moveable success-or-error result. OK status carries no allocation.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string ToString() const {
    if (ok()) return "OK";
    return CodeName(code_) + ": " + message_;
  }

 private:
  static std::string CodeName(StatusCode c) {
    switch (c) {
      case StatusCode::kOk: return "OK";
      case StatusCode::kInvalidArgument: return "InvalidArgument";
      case StatusCode::kInternal: return "Internal";
    }
    return "Unknown";
  }

  StatusCode code_;
  std::string message_;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_STATUS_H_
