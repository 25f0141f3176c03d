#ifndef ADAPTIDX_UTIL_STATUS_H_
#define ADAPTIDX_UTIL_STATUS_H_

#include <string>
#include <utility>

namespace adaptidx {

/// \brief RocksDB-style status object returned by fallible operations.
///
/// The library does not throw exceptions on hot paths; operations that can
/// fail return a `Status`, and operations that produce a value either take an
/// out-parameter or return a small result struct carrying a `Status`.
///
/// `Status` is cheap to copy in the OK case (no allocation) and carries an
/// optional message otherwise.
class Status {
 public:
  /// Status codes. `kBusy` signals a failed try-acquire (conflict avoidance,
  /// Section 3.3 of the paper); `kConflict` signals a detected transactional
  /// lock conflict; `kAborted` signals a refinement that was abandoned via
  /// early termination; `kIOError` signals a failed or short read or write
  /// of a file whose bytes were not judged (unlike `kCorruption`, which
  /// says the bytes were read and are wrong).
  enum class Code : unsigned char {
    kOk = 0,
    kNotFound = 1,
    kInvalidArgument = 2,
    kBusy = 3,
    kConflict = 4,
    kAborted = 5,
    kTimedOut = 6,
    kNotSupported = 7,
    kCorruption = 8,
    kIOError = 9,
  };

  Status() = default;

  /// \brief Success singleton-style factory.
  static Status OK() { return Status(); }
  static Status NotFound(std::string msg = "") {
    return Status(Code::kNotFound, std::move(msg));
  }
  static Status InvalidArgument(std::string msg = "") {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  static Status Busy(std::string msg = "") {
    return Status(Code::kBusy, std::move(msg));
  }
  static Status Conflict(std::string msg = "") {
    return Status(Code::kConflict, std::move(msg));
  }
  static Status Aborted(std::string msg = "") {
    return Status(Code::kAborted, std::move(msg));
  }
  static Status TimedOut(std::string msg = "") {
    return Status(Code::kTimedOut, std::move(msg));
  }
  static Status NotSupported(std::string msg = "") {
    return Status(Code::kNotSupported, std::move(msg));
  }
  static Status Corruption(std::string msg = "") {
    return Status(Code::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg = "") {
    return Status(Code::kIOError, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsConflict() const { return code_ == Code::kConflict; }
  bool IsAborted() const { return code_ == Code::kAborted; }
  bool IsTimedOut() const { return code_ == Code::kTimedOut; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsIOError() const { return code_ == Code::kIOError; }

  Code code() const { return code_; }
  const std::string& message() const { return msg_; }

  /// \brief Human-readable rendering, e.g. "Busy: piece latch held".
  std::string ToString() const {
    std::string out;
    switch (code_) {
      case Code::kOk:
        return "OK";
      case Code::kNotFound:
        out = "NotFound";
        break;
      case Code::kInvalidArgument:
        out = "InvalidArgument";
        break;
      case Code::kBusy:
        out = "Busy";
        break;
      case Code::kConflict:
        out = "Conflict";
        break;
      case Code::kAborted:
        out = "Aborted";
        break;
      case Code::kTimedOut:
        out = "TimedOut";
        break;
      case Code::kNotSupported:
        out = "NotSupported";
        break;
      case Code::kCorruption:
        out = "Corruption";
        break;
      case Code::kIOError:
        out = "IOError";
        break;
    }
    if (!msg_.empty()) {
      out += ": ";
      out += msg_;
    }
    return out;
  }

  bool operator==(const Status& other) const { return code_ == other.code_; }

 private:
  Status(Code code, std::string msg) : code_(code), msg_(std::move(msg)) {}

  Code code_ = Code::kOk;
  std::string msg_;
};

}  // namespace adaptidx

#endif  // ADAPTIDX_UTIL_STATUS_H_
