// Chrome trace-event / Perfetto-compatible span timeline.
//
// A TraceCollector buffers complete ("ph":"X") duration events recorded
// from any thread; WriteJson() flushes them as a Chrome Trace Event JSON
// object that ui.perfetto.dev (or chrome://tracing) loads directly. A
// TraceSpan is the RAII recording handle: construct it around a region
// of work and its destructor records one X event with the span's wall
// duration, the recording thread's tid, and optional JSON args.
//
// Contracts:
//   * Thread-safe: spans may be recorded concurrently from any thread.
//     Each recording takes one collector mutex — spans here are coarse
//     (bundle loads, trace-set builds, cell replays), so contention is
//     not a concern by design; do not wrap per-event work in spans.
//   * Null-collector no-op: every entry point tolerates a null
//     TraceCollector*, so instrumentation points cost one branch when
//     tracing is off.
//   * Deterministic flush ordering: WriteJson sorts events before
//     emitting — by (ts, start sequence) normally, so parents precede
//     their children even when the microsecond clock ties, and in
//     deterministic mode by (cat, name, args) with synthetic timestamps
//     (see below).
//   * Deterministic mode (--deterministic --trace-out): wall-clock
//     timestamps and thread identities are replaced at flush time by the
//     canonical ordering (ts = rank, dur = 1, pid/tid = 0), so two runs
//     recording the same logical span set — e.g. replaying the same
//     bundle at different thread counts — produce byte-identical files.
//     Contention-dependent spans (e.g. the sweep's build-wait spans) are
//     skipped at record time in this mode, because their presence
//     depends on scheduling.
//
// Span taxonomy and examples for this repo: docs/OBSERVABILITY.md.
#ifndef STAGEDCMP_COMMON_TRACE_SPAN_H_
#define STAGEDCMP_COMMON_TRACE_SPAN_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace stagedcmp {

class TraceCollector {
 public:
  explicit TraceCollector(bool deterministic = false)
      : deterministic_(deterministic),
        t0_(std::chrono::steady_clock::now()) {}

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  bool deterministic() const { return deterministic_; }

  /// Nanoseconds since collector construction (the trace's time base;
  /// events are emitted in microseconds, see SpanMicros).
  uint64_t NowNanos() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0_)
            .count());
  }

  /// The microsecond event {ts, dur} for a span that ran over
  /// [start_ns, end_ns]: the start floored, the end floored and then
  /// bumped one tick. Both bounds are monotonic in their input, so a span
  /// that starts and ends within another never ends after it, and dur
  /// is always >= 1 without a clamp (clamping a zero-length span to 1us
  /// would let it end after a parent that started a tick earlier).
  static std::pair<uint64_t, uint64_t> SpanMicros(uint64_t start_ns,
                                                  uint64_t end_ns) {
    const uint64_t ts = start_ns / 1000;
    const uint64_t end = std::max(start_ns, end_ns) / 1000 + 1;
    return {ts, end - ts};
  }

  /// Names the calling thread in the emitted timeline (Perfetto's track
  /// label). First call wins; later calls and unnamed threads keep their
  /// default "thread-N". Safe to call repeatedly (e.g. from pooled
  /// tasks).
  void NameThisThread(const std::string& name);

  /// Claims the next span start-sequence number. TraceSpan takes one at
  /// construction; it breaks flush-order ties when the microsecond clock
  /// can't (a parent always holds a smaller sequence than its children).
  uint64_t NextStartSeq() {
    return next_seq_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Records one complete event (`dur_us` >= 1). `cat` must outlive the
  /// collector (string literals); `args_json` is either empty or a full
  /// JSON object (`{"k": 1}`) emitted verbatim as the event's "args".
  void RecordComplete(const char* cat, std::string name, uint64_t ts_us,
                      uint64_t dur_us, std::string args_json = "",
                      uint64_t start_seq = 0);

  struct Event {
    std::string name;
    const char* cat = "";
    uint64_t ts = 0;   ///< microseconds since collector start
    uint64_t dur = 0;  ///< microseconds, >= 1
    uint64_t seq = 0;  ///< span start order (flush-order tie-break)
    uint32_t tid = 0;
    std::string args;  ///< "" or a JSON object
  };

  /// Buffered events in flush order (tests assert monotonic ts and
  /// per-tid nesting on this view).
  std::vector<Event> SortedEvents() const;

  size_t event_count() const;

  /// Thread name by tid ("" when defaulted).
  std::vector<std::string> ThreadNames() const;

  /// Emits the Chrome Trace Event JSON document (see header comment).
  void WriteJson(std::ostream& os) const;

 private:
  uint32_t TidForThisThreadLocked();

  const bool deterministic_;
  const std::chrono::steady_clock::time_point t0_;
  std::atomic<uint64_t> next_seq_{0};
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<std::thread::id, uint32_t> tids_;
  std::vector<std::string> thread_names_;  ///< by tid; "" = unnamed
};

/// RAII span: records one complete event covering its lifetime. With a
/// null collector every member is a no-op. Move-only; End() records
/// early and is idempotent.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(TraceCollector* collector, const char* cat, std::string name,
            std::string args_json = "")
      : collector_(collector),
        cat_(cat),
        name_(std::move(name)),
        args_(std::move(args_json)),
        start_ns_(collector ? collector->NowNanos() : 0),
        start_seq_(collector ? collector->NextStartSeq() : 0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  TraceSpan(TraceSpan&& o) noexcept { *this = std::move(o); }
  TraceSpan& operator=(TraceSpan&& o) noexcept {
    if (this != &o) {
      End();
      collector_ = o.collector_;
      cat_ = o.cat_;
      name_ = std::move(o.name_);
      args_ = std::move(o.args_);
      start_ns_ = o.start_ns_;
      start_seq_ = o.start_seq_;
      o.collector_ = nullptr;
    }
    return *this;
  }

  /// Replaces the span's args (e.g. with a result computed inside it).
  void set_args(std::string args_json) { args_ = std::move(args_json); }

  void End() {
    if (collector_ == nullptr) return;
    const auto [ts, dur] =
        TraceCollector::SpanMicros(start_ns_, collector_->NowNanos());
    collector_->RecordComplete(cat_, std::move(name_), ts, dur,
                               std::move(args_), start_seq_);
    collector_ = nullptr;
  }

  ~TraceSpan() { End(); }

 private:
  TraceCollector* collector_ = nullptr;
  const char* cat_ = "";
  std::string name_;
  std::string args_;
  uint64_t start_ns_ = 0;
  uint64_t start_seq_ = 0;
};

}  // namespace stagedcmp

#endif  // STAGEDCMP_COMMON_TRACE_SPAN_H_
