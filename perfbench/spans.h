#ifndef DISCSEC_PERFBENCH_SPANS_H_
#define DISCSEC_PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded span: a call into a module's public function, timed by the
/// benchmark itself. `parent` is the index of the enclosing span (-1 for a
/// root) and `session` the timed session the span belongs to.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t session = 0;
};

/// Per-layer figures of one session, keyed by span name.
struct LayerTimes {
  std::map<std::string, double> total_ms;  ///< sum of span durations
  std::map<std::string, double> self_ms;   ///< sum of self times
  std::map<std::string, uint64_t> count;
};

/// In-memory span store. Spans nest through the stack of open spans. A
/// span's self time is its duration minus the durations of its direct
/// children. A disabled log records nothing and costs one branch per call.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  bool enabled() const { return enabled_; }
  void set_session(uint32_t session) { session_ = session; }

  /// Opens a span under the innermost open span.
  int32_t Begin(const char* name);
  void End(int32_t id);

  double DurationMs(int32_t id) const;
  /// Sum of the durations of `id`'s direct children.
  double ChildrenMs(int32_t id) const;
  const std::vector<Span>& spans() const { return spans_; }

  /// Aggregates the spans of every session by name.
  std::map<uint32_t, LayerTimes> BySession() const;

  /// Writes the spans as JSON (name, start, end, parent, session), starts
  /// relative to the first span. Returns false when the file cannot be
  /// written.
  bool WriteJson(const std::string& path, const std::string& workload,
                 uint64_t seed) const;

 private:
  bool enabled_;
  uint32_t session_ = 0;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a disabled log makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name)
      : log_(log->enabled() ? log : nullptr),
        id_(log_ != nullptr ? log_->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

int64_t NowNs();

}  // namespace perfbench

#endif  // DISCSEC_PERFBENCH_SPANS_H_
