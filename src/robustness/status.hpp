#pragma once
// Typed status layer: every way the generation pipeline can fail gets a
// stable code, so callers (and the CLI's exit-status contract) can react
// programmatically instead of string-matching exception messages. Status
// and Result<T> are the exception-free surface; StatusError carries a
// Status through the legacy throwing APIs (it derives from
// std::runtime_error, so existing catch sites keep working).

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>

namespace nullgraph {

/// Stable error taxonomy. Codes are append-only: their numeric values and
/// the CLI exit statuses derived from them are a documented contract
/// (README "Error handling & recovery"). The contract is machine-checked:
/// the semantic analyzer's exit-contract rule (scripts/analyze/) verifies
/// on every check run that this enum, the status_exit_code /
/// status_code_name switches, and the README exit-code table agree — add
/// a code here and the check tier fails until all three are updated.
enum class [[nodiscard]] StatusCode : int {
  kOk = 0,
  kInvalidArgument,        // caller passed something unusable (usage level)
  kIoError,                // file unreadable / unwritable
  kIoMalformed,            // parse failure: bad token, trailing garbage
  kNotGraphical,           // Erdős–Gallai rejects the input distribution
  kProbabilityOverflow,    // matrix entry outside [0,1] or non-finite
  kNonSimpleOutput,        // self-loops / multi-edges survived a phase
  kDegreeMismatch,         // degree sequence not preserved across a phase
  kSwapStagnation,         // swap chain made no progress on a dirty graph
  kConnectivityExhausted,  // reserved, no producer (connected variant removed)
  kRepairIncomplete,       // repair pass could not place all deficit stubs
  kInternal,               // unclassified failure
  kDeadlineExceeded,       // RunBudget wall-clock / iteration cap expired
  kCancelled,              // CancelToken tripped (signal or caller request)
  kSwapStalled,            // watchdog: swap acceptance collapsed to zero
  kCapacityExhausted,      // ConcurrentHashSet probe budget spent (table full)
  kMemoryBudget,           // RunBudget memory ceiling would be exceeded
  kCheckpointInvalid,      // checkpoint file failed magic/version/CRC checks
  kOverloaded,             // service admission control rejected the job
  kJobEvicted,             // queued/in-flight job dropped by daemon lifecycle
  kClientProtocol,         // malformed/slow client traffic on the wire
  kShardCorrupt,           // spill shard failed CRC/framing checks (fsck/resume)
};

/// Short stable identifier, e.g. "kNotGraphical".
[[nodiscard]] const char* status_code_name(StatusCode code) noexcept;

/// Process exit status the CLI maps each code to: 0 ok, 1 usage,
/// 2 unclassified runtime failure, 3+ one per typed class (stable).
[[nodiscard]] int status_exit_code(StatusCode code) noexcept;

/// [[nodiscard]]: a dropped Status is a swallowed failure. The analysis
/// tier (scripts/check.sh, -Werror=unused-result) turns any discard into a
/// build error; intentional discards must say why next to a (void) cast.
class [[nodiscard]] Status {
 public:
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  [[nodiscard]] bool ok() const noexcept { return code_ == StatusCode::kOk; }
  [[nodiscard]] StatusCode code() const noexcept { return code_; }
  [[nodiscard]] const std::string& message() const noexcept {
    return message_;
  }

  /// "kNotGraphical: degree 9 exceeds n-1=7" (or "kOk").
  [[nodiscard]] std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Exception shim for the legacy throwing APIs: a Status that travels as a
/// std::runtime_error so pre-existing catch sites stay valid.
class StatusError : public std::runtime_error {
 public:
  explicit StatusError(Status status)
      : std::runtime_error(status.to_string()), status_(std::move(status)) {}

  const Status& status() const noexcept { return status_; }
  StatusCode code() const noexcept { return status_.code(); }

 private:
  Status status_;
};

/// Either a value or a non-ok Status. Minimal by design: the pipeline only
/// needs construction, ok(), value access, and status access.
/// [[nodiscard]] for the same reason as Status: dropping a Result drops
/// both the value and the failure it may carry.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}  // NOLINT(runtime/explicit)
  Result(Status status) : data_(std::move(status)) {  // NOLINT
    // A Result must never hold an OK status without a value.
    if (std::get<Status>(data_).ok())
      data_ = Status(StatusCode::kInternal, "Result built from ok status");
  }

  [[nodiscard]] bool ok() const noexcept {
    return std::holds_alternative<T>(data_);
  }

  [[nodiscard]] Status status() const {
    return ok() ? Status::Ok() : std::get<Status>(data_);
  }

  [[nodiscard]] T& value() & { return std::get<T>(data_); }
  [[nodiscard]] const T& value() const& { return std::get<T>(data_); }
  [[nodiscard]] T&& value() && { return std::get<T>(std::move(data_)); }

  /// Value or throw the carried status as a StatusError.
  [[nodiscard]] T take() && {
    if (!ok()) throw StatusError(std::get<Status>(data_));
    return std::get<T>(std::move(data_));
  }

 private:
  std::variant<T, Status> data_;
};

}  // namespace nullgraph
