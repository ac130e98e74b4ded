// perfbench — the repository benchmark described by BENCHMARK.json.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test --seed <n>
//
// A run builds its inputs from the seed kSetups times (setup_s is the
// median), then drives one closed-loop client — one session in flight, on
// this thread — for `seconds`. Every session is gated against a verdict
// reference captured at set-up; a wrong verdict or broken fleet invariant
// prints "correct": false and exits 1.
//
// Shared hosts alternate between quiet and loaded states, in which this
// code runs up to 2x slower (other tenants contend for the memory system),
// in stretches of a fraction of a second to minutes; how much of a run each
// state covers differs from run to run, so a run's overall median jumps
// between them. The timed samples are therefore cut into consecutive
// blocks of at least kBlockMs, and the kQuietShare of blocks whose sessions
// ran fastest relative to the run's median for the same input are the
// run's quiet stretches: session_p50_ms is the median and sessions_per_s
// the rate over their samples. session_p99_ms, which needs more samples
// beyond it, is the p99 over the kTailShare of blocks (cut at whole passes
// over the inputs) with the lowest median. The block medians are printed
// before the result. peak_rss_mb is read after kRssSessions sessions,
// because the player's resident set still grows with every session run.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the first half
// of the time untraced and the second half traced (each session followed
// by its layer-by-layer replay), prints the per-layer metrics, a self-time
// table, and writes every span to <trace-dir>/<workload>-seed<n>.json.
// The last stdout line is always the result JSON. perfbench/METRICS.md
// defines every metric.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetups = 5;  // set-up repetitions per run
constexpr int kWarmup = 2;  // gated, untimed sessions after each set-up
constexpr double kBlockMs = 125;  // least timed-call time in one block
constexpr double kQuietShare = 0.05;  // quiet blocks for p50 and the rate
constexpr double kTailShare = 0.5;  // quieter blocks for p99
constexpr double kStintMs = 1000;  // time on one CPU before the next
constexpr size_t kRssSessions = 128;  // four full fleet_mixed plan cycles

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string trace_dir = ".bench_build/traces";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args->self_test = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return args->self_test || (!args->workload.empty() && args->seconds > 0);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// A workload set up kSetups times from the same seed; the last one is kept.
struct Prepared {
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_s;
  std::string digest;
  std::string error;
};

Prepared Prepare(const std::string& name, uint64_t seed) {
  Prepared out;
  SpanLog off(false);
  for (int i = 0; i < kSetups && out.error.empty(); ++i) {
    const int64_t start = NowNs();
    std::unique_ptr<Workload> workload = MakeWorkload(name, seed);
    if (workload == nullptr) {
      out.error = "unknown workload '" + name + "'";
      break;
    }
    discsec::Status status = workload->Setup();
    if (!status.ok()) {
      out.error = "set-up failed: " + status.ToString();
      break;
    }
    for (int w = 0; w < kWarmup && out.error.empty(); ++w) {
      Counts ignored;
      out.error = workload->Session(&off, &ignored).wrong;
    }
    out.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
    const std::string digest = workload->InputDigest();
    if (!out.digest.empty() && digest != out.digest) {
      out.error = "the same seed gave different inputs";
    }
    out.digest = digest;
    out.workload = std::move(workload);
  }
  return out;
}

/// The process's resident-set high-water mark (VmHWM). getrusage's
/// ru_maxrss is not used: across fork + exec it can report the parent's
/// resident set, and run.py starts this binary from Python.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kib) == 1) break;
  }
  std::fclose(status);
  return kib / 1024.0;
}

/// Consecutive timed samples [first, last).
using Block = std::pair<size_t, size_t>;

/// One closed-loop timed phase.
struct Phase {
  std::vector<double> session_ms;
  /// Per loop iteration: the timed call plus its gate and, when traced,
  /// its replay and probes.
  std::vector<double> iteration_ms;
  std::vector<uint64_t> units;  ///< per session
  std::vector<size_t> inputs;   ///< per session: SessionResult::input
  uint64_t failed = 0;
  double peak_rss_mb = 0;
  std::string wrong;
  std::vector<Counts> counts;  ///< per traced session

  uint64_t TotalUnits() const {
    uint64_t total = 0;
    for (uint64_t u : units) total += u;
    return total;
  }

  /// Consecutive blocks of samples: each holds at least kBlockMs of timed
  /// calls and a whole number of `cycle` sessions. A trailing remainder too
  /// short to be a block is left out; a phase too short for one block is a
  /// single block.
  std::vector<Block> Blocks(size_t cycle) const {
    std::vector<Block> blocks;
    size_t first = 0;
    double ms = 0;
    for (size_t i = 0; i < session_ms.size(); ++i) {
      ms += session_ms[i];
      if (ms >= kBlockMs && (i + 1 - first) % cycle == 0) {
        blocks.emplace_back(first, i + 1);
        first = i + 1;
        ms = 0;
      }
    }
    if (blocks.empty() && !session_ms.empty()) {
      blocks.emplace_back(0, session_ms.size());
    }
    return blocks;
  }

  /// Each session's time over the median time of the phase's sessions on
  /// the same input, so that blocks holding different inputs compare.
  std::vector<double> Relative() const {
    std::map<size_t, std::vector<double>> by_input;
    for (size_t i = 0; i < session_ms.size(); ++i) {
      by_input[inputs[i]].push_back(session_ms[i]);
    }
    std::map<size_t, double> median;
    for (auto& [input, times] : by_input) median[input] = Median(times);
    std::vector<double> relative;
    for (size_t i = 0; i < session_ms.size(); ++i) {
      relative.push_back(session_ms[i] / median[inputs[i]]);
    }
    return relative;
  }

  /// The `share` of `blocks` (at least one) with the lowest median `key`:
  /// the run's quiet stretches.
  static std::vector<Block> Quietest(std::vector<Block> blocks,
                                     const std::vector<double>& key,
                                     double share) {
    std::vector<std::pair<double, Block>> ranked;
    for (const Block& b : blocks) {
      ranked.emplace_back(
          Median({key.begin() + b.first, key.begin() + b.second}), b);
    }
    std::sort(ranked.begin(), ranked.end());
    const size_t keep = std::max<size_t>(
        1, static_cast<size_t>(share * static_cast<double>(ranked.size()) +
                               0.5));
    blocks.clear();
    for (size_t i = 0; i < std::min(keep, ranked.size()); ++i) {
      blocks.push_back(ranked[i].second);
    }
    return blocks;
  }

  /// The kQuietShare of kBlockMs blocks with the lowest median relative
  /// time: session_p50_ms and sessions_per_s are taken over these.
  std::vector<Block> QuietBlocks() const {
    return Quietest(Blocks(1), Relative(), kQuietShare);
  }

  /// The kTailShare of blocks of whole passes over the inputs with the
  /// lowest median time: session_p99_ms is taken over these.
  std::vector<Block> TailBlocks() const {
    const size_t cycle =
        inputs.empty() ? 1
                       : *std::max_element(inputs.begin(), inputs.end()) + 1;
    return Quietest(Blocks(cycle), session_ms, kTailShare);
  }

  /// Quantile `q` of the session times in `blocks`.
  double Quantile(const std::vector<Block>& blocks, double q) const {
    std::vector<double> pooled;
    for (const auto& [first, last] : blocks) {
      pooled.insert(pooled.end(), session_ms.begin() + first,
                    session_ms.begin() + last);
    }
    return perfbench::Quantile(std::move(pooled), q);
  }

  /// Sessions (fleet: events) per second over the quiet blocks, of `ms`:
  /// the timed calls' (session_ms) or the whole loop's (iteration_ms) wall
  /// time.
  double Rate(const std::vector<double>& ms) const {
    double units_sum = 0, seconds = 0;
    for (const auto& [first, last] : QuietBlocks()) {
      for (size_t i = first; i < last; ++i) {
        units_sum += static_cast<double>(units[i]);
        seconds += ms[i] / 1e3;
      }
    }
    return seconds > 0 ? units_sum / seconds : 0;
  }

  std::vector<double> BlockMedians() const {
    std::vector<double> medians;
    for (const auto& [first, last] : Blocks(1)) {
      medians.push_back(
          Median({session_ms.begin() + first, session_ms.begin() + last}));
    }
    return medians;
  }
};

/// Moves the calling thread to each CPU it may run on in turn, one stint of
/// kStintMs at a time, and restores its CPU set at the end. Threads the
/// program starts meanwhile inherit the current CPU. On a shared host one
/// core can stay busy with another tenant's work for minutes; visiting
/// every CPU keeps that from holding a whole run.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof(allowed_), &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() {
    if (cpus_.size() > 1) sched_setaffinity(0, sizeof(allowed_), &allowed_);
  }

  void Tick(int64_t now_ns) {
    if (cpus_.size() < 2 || now_ns < next_ns_) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[stint_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof(one), &one);
    next_ns_ = now_ns + static_cast<int64_t>(kStintMs * 1e6);
  }

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  size_t stint_ = 0;
  int64_t next_ns_ = 0;
};

Phase RunPhase(Workload* workload, double seconds, SpanLog* log) {
  Phase phase;
  CpuRotation rotation;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  uint32_t session = 0;
  int64_t start = NowNs();
  while (start < deadline) {
    rotation.Tick(start);
    log->set_session(++session);
    Counts counts;
    SessionResult result = workload->Session(log, &counts);
    const int64_t end = NowNs();
    phase.iteration_ms.push_back(static_cast<double>(end - start) / 1e6);
    start = end;
    phase.session_ms.push_back(result.ms);
    phase.units.push_back(result.units);
    phase.inputs.push_back(result.input);
    phase.failed += result.failed;
    if (session == kRssSessions) phase.peak_rss_mb = PeakRssMb();
    if (!result.wrong.empty()) {
      phase.wrong = result.wrong;
      break;
    }
    if (log->enabled()) phase.counts.push_back(std::move(counts));
  }
  if (phase.peak_rss_mb == 0) phase.peak_rss_mb = PeakRssMb();
  return phase;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

void PrintBlocks(const char* name, const std::vector<double>& values) {
  std::printf("%s", name);
  for (double v : values) std::printf(" %.6g", v);
  std::printf("\n");
}

/// Where a per-layer metric comes from: a span's summed duration or self
/// time per session, or a per-session count the workload recorded.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;  ///< null: read from the session's Counts
  bool self = false;
};

const LayerMetric kLayerMetrics[] = {
    {"net.fetch_ms", "ms", "net.fetch"},
    {"crypto.rsa_public_ms", "ms", "crypto.rsa_public"},
    {"pki.chain_ms", "ms", "pki.chain"},
    {"crypto.rsa_private_ms", "ms", "crypto.rsa_private"},
    {"xmldsig.sign_ms", "ms", "xmldsig.sign"},
    {"xmlenc.encrypt_ms", "ms", "xmlenc.encrypt"},
    {"authoring.publish_ms", "ms", "authoring.publish"},
    {"disc.read_ms", "ms", "disc.read"},
    {"xml.parse_ms", "ms", "xml.parse"},
    {"xml.parse_allocs", "count", nullptr},
    {"xml.c14n_ms", "ms", "xml.c14n", true},
    {"xml.c14n_bytes", "bytes", nullptr},
    {"crypto.digest_ms", "ms", "crypto.digest"},
    {"xmldsig.verify_ms", "ms", "xmldsig.verify"},
    {"xmldsig.verify_self_ms", "ms", nullptr},
    {"xmldsig.references", "count", nullptr},
    {"xmlenc.decrypt_ms", "ms", "xmlenc.decrypt"},
    {"xmlenc.cipher_bytes", "bytes", nullptr},
    {"crypto.aes_mb_per_s", "MB/s", nullptr},
    {"access.policy_ms", "ms", "access.policy"},
    {"smil.markup_ms", "ms", "smil.markup"},
    {"script.run_ms", "ms", "script.run"},
    {"script.steps", "count", nullptr},
    {"player.unattributed_ms", "ms", nullptr},
    {"player.replay_gap_ms", "ms", nullptr},
    {"player.allocs", "count", nullptr},
    {"cache.digest_hit_ratio", "ratio", nullptr},
    {"cache.digest_bypass", "count", nullptr},
    {"xkms.locate_hit_ratio", "ratio", nullptr},
    {"xkms.transport_calls", "count", nullptr},
    {"xkms.responder_shed", "count", nullptr},
    {"sim.attack_rejected", "count", nullptr},
    {"sim.quarantined_tracks", "count", nullptr},
    {"sim.played_clean", "count", nullptr},
    {"sim.run_fixed_ms", "ms", nullptr},
};

/// Median over traced sessions of every layer metric (0 where the layer is
/// not on the workload's path), plus the self-time table on stdout.
std::vector<Metric> LayerMetrics(const SpanLog& log, const Phase& traced) {
  const std::map<uint32_t, LayerTimes> sessions = log.BySession();
  std::vector<Metric> out;
  for (const LayerMetric& m : kLayerMetrics) {
    std::vector<double> values;
    if (m.span == nullptr) {
      for (const Counts& counts : traced.counts) {
        auto it = counts.find(m.name);
        values.push_back(it == counts.end() ? 0 : it->second);
      }
    } else {
      for (const auto& [id, layers] : sessions) {
        const auto& table = m.self ? layers.self_ms : layers.total_ms;
        auto it = table.find(m.span);
        values.push_back(it == table.end() ? 0 : it->second);
      }
    }
    out.push_back({m.name, Median(values), m.unit});
  }

  std::map<std::string, std::vector<double>> total, self, count;
  for (const auto& [id, layers] : sessions) {
    for (const auto& [name, ms] : layers.total_ms) {
      total[name].push_back(ms);
      self[name].push_back(layers.self_ms.at(name));
      count[name].push_back(static_cast<double>(layers.count.at(name)));
    }
  }
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, values] : self) {
    order.emplace_back(-Median(values), name);
  }
  std::sort(order.begin(), order.end());
  std::printf("per-layer self time, median over %zu traced sessions:\n",
              sessions.size());
  std::printf("  %-22s %12s %12s %8s\n", "span", "total_ms", "self_ms",
              "calls");
  for (const auto& [neg_self, name] : order) {
    std::printf("  %-22s %12.4f %12.4f %8.1f\n", name.c_str(),
                Median(total[name]), -neg_self, Median(count[name]));
  }
  return out;
}

int Run(const Args& args) {
  Prepared prepared = Prepare(args.workload, args.seed);
  std::printf("workload %s seed %llu inputs_sha256 %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed),
              prepared.digest.c_str());
  if (!prepared.error.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", prepared.error.c_str());
    PrintResult(false, 1, 0, {});
    return 1;
  }
  Workload* workload = prepared.workload.get();

  SpanLog off(false);
  if (!args.trace) {
    Phase phase = RunPhase(workload, args.seconds, &off);
    if (!phase.wrong.empty()) {
      std::fprintf(stderr, "perfbench: %s\n", phase.wrong.c_str());
      PrintResult(false, phase.TotalUnits(), phase.failed, {});
      return 1;
    }
    std::printf("samples %zu blocks %zu quiet %zu\n", phase.session_ms.size(),
                phase.Blocks(1).size(), phase.QuietBlocks().size());
    PrintBlocks("block_p50_ms", phase.BlockMedians());
    PrintResult(true, phase.TotalUnits(), phase.failed,
                {{"setup_s", Median(prepared.setup_s), "s"},
                 {"session_p50_ms", phase.Quantile(phase.QuietBlocks(), 0.5),
                  "ms"},
                 {"session_p99_ms",
                  phase.Quantile(phase.TailBlocks(), 0.99),
                  "ms"},
                 {"sessions_per_s", phase.Rate(phase.session_ms), "1/s"},
                 {"peak_rss_mb", phase.peak_rss_mb, "MB"}});
    return 0;
  }

  Phase plain = RunPhase(workload, args.seconds / 2, &off);
  SpanLog log(true);
  Phase traced = plain.wrong.empty()
                     ? RunPhase(workload, args.seconds / 2, &log)
                     : Phase{};
  const std::string& wrong = plain.wrong.empty() ? traced.wrong : plain.wrong;
  const uint64_t units = plain.TotalUnits() + traced.TotalUnits();
  const uint64_t failed = plain.failed + traced.failed;
  if (!wrong.empty()) {
    std::fprintf(stderr, "perfbench: %s\n", wrong.c_str());
    PrintResult(false, units, failed, {});
    return 1;
  }
  std::vector<Metric> metrics = LayerMetrics(log, traced);
  // Over whole loop iterations, so the replay and probes that tracing adds
  // count as well as any perturbation of the timed call itself.
  metrics.push_back({"trace.overhead_frac",
                     1.0 - traced.Rate(traced.iteration_ms) /
                               plain.Rate(plain.iteration_ms),
                     "ratio"});
  std::error_code ec;
  std::filesystem::create_directories(args.trace_dir, ec);
  const std::string path = args.trace_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".json";
  if (!log.WriteJson(path, args.workload, args.seed)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    PrintResult(false, units, failed, {});
    return 1;
  }
  std::printf("spans %zu written to %s\n", log.spans().size(), path.c_str());
  PrintResult(true, units, failed, metrics);
  return 0;
}

/// The benchmark's own self-test: the gate must trip on a one-byte tamper
/// of the disc_dense image and of the published publish_launch document, the
/// same seed must give identical inputs, and a second seed must pass every
/// check on every workload.
int SelfTest(uint64_t seed) {
  int failures = 0;
  auto report = [&](bool ok, const std::string& what) {
    std::printf("self-test %-52s %s\n", what.c_str(), ok ? "ok" : "FAILED");
    if (!ok) ++failures;
  };
  SpanLog off(false);
  for (const char* name : {"publish_launch", "disc_dense"}) {
    Prepared prepared = Prepare(name, seed);
    report(prepared.error.empty(),
           std::string(name) + ": set-up and gated sessions pass");
    if (!prepared.error.empty()) continue;
    std::unique_ptr<Workload> again = MakeWorkload(name, seed);
    report(again->Setup().ok() && again->InputDigest() == prepared.digest,
           std::string(name) + ": same seed, identical inputs");
    Counts counts;
    const bool tampered = prepared.workload->Tamper().ok();
    SessionResult result = prepared.workload->Session(&off, &counts);
    report(tampered && !result.wrong.empty(),
           std::string(name) + ": one-byte tamper trips the gate");
    if (!result.wrong.empty()) {
      std::printf("  gate: %s\n", result.wrong.substr(0, 160).c_str());
    }
  }
  for (const std::string& name : WorkloadNames()) {
    Prepared prepared = Prepare(name, seed + 1);
    std::string error = prepared.error;
    SpanLog log(true);
    for (int i = 0; i < 2 && error.empty(); ++i) {
      Counts counts;
      log.set_session(static_cast<uint32_t>(i + 1));
      error = prepared.workload->Session(&log, &counts).wrong;
    }
    report(error.empty(), name + ": second seed passes (plain and traced)");
    if (!error.empty()) std::printf("  %s\n", error.c_str());
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-dir <dir>]\n"
                 "       perfbench --self-test --seed <n>\n");
    return 2;
  }
  return args.self_test ? perfbench::SelfTest(args.seed)
                        : perfbench::Run(args);
}
