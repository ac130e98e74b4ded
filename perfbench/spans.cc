#include "spans.h"

#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled) {
  if (enabled_) spans_.reserve(1 << 16);
}

int32_t SpanLog::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.session = session_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanLog::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  open_.pop_back();
}

double SpanLog::DurationMs(int32_t id) const {
  const Span& span = spans_[static_cast<size_t>(id)];
  return static_cast<double>(span.end_ns - span.start_ns) / 1e6;
}

double SpanLog::ChildrenMs(int32_t id) const {
  double ms = 0;
  for (size_t i = static_cast<size_t>(id) + 1; i < spans_.size(); ++i) {
    if (spans_[i].parent == id) ms += DurationMs(static_cast<int32_t>(i));
  }
  return ms;
}

std::map<uint32_t, LayerTimes> SpanLog::BySession() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      child_ms[static_cast<size_t>(spans_[i].parent)] +=
          DurationMs(static_cast<int32_t>(i));
    }
  }
  std::map<uint32_t, LayerTimes> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    LayerTimes& layers = out[span.session];
    const double ms = DurationMs(static_cast<int32_t>(i));
    layers.total_ms[span.name] += ms;
    layers.self_ms[span.name] += ms - child_ms[i];
    ++layers.count[span.name];
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path, const std::string& workload,
                        uint64_t seed) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(file,
               "{\"workload\": \"%s\", \"seed\": %llu, \"fields\": "
               "[\"name\", \"start_ns\", \"end_ns\", \"parent\", "
               "\"session\"], \"spans\": [",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file, "%s\n[\"%s\", %lld, %lld, %d, %u]", i == 0 ? "" : ",",
                 span.name, static_cast<long long>(span.start_ns - origin),
                 static_cast<long long>(span.end_ns - origin), span.parent,
                 span.session);
  }
  std::fprintf(file, "\n]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
