#ifndef DISCSEC_PERFBENCH_WORKLOADS_H_
#define DISCSEC_PERFBENCH_WORKLOADS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "spans.h"

namespace perfbench {

/// Outcome of one timed session.
struct SessionResult {
  double ms = 0;          ///< wall time of the timed public call
  uint64_t units = 1;     ///< sessions the sample stands for (fleet: events)
  uint64_t failed = 0;    ///< units that returned a transient error
  /// Which of the workload's inputs the session ran (fleet_mixed: its
  /// plan); sessions take inputs 0, 1, ... in turn.
  size_t input = 0;
  std::string wrong;      ///< non-empty: the verdict gate tripped, and why
};

/// Per-session values a traced session gathers besides its span times
/// (allocation counts, bytes, public result fields), keyed by the layer
/// metric name they feed.
using Counts = std::map<std::string, double>;

/// One benchmark workload: inputs generated from a seed, a session that is
/// timed around one public call and gated against a verdict reference, and
/// a traced replay of the same session through the modules' public
/// functions.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds every input from the seed (world keys, documents, disc images,
  /// simulator), captures the verdict reference and warms up. All of it
  /// counts as set-up time.
  virtual discsec::Status Setup() = 0;

  /// SHA-256 (hex) over the generated documents and disc images.
  virtual std::string InputDigest() const = 0;

  /// Runs one timed session and gates its verdict. With an enabled `log`
  /// the session's spans and `counts` are recorded and its stages are
  /// replayed layer by layer afterwards.
  virtual SessionResult Session(SpanLog* log, Counts* counts) = 0;

  /// Self-test: damages one byte of the input the sessions read, so the
  /// next session must trip the verdict gate. Unsupported by default.
  virtual discsec::Status Tamper();
};

/// The benchmark's workloads, as BENCHMARK.json lists them.
std::vector<std::string> WorkloadNames();

/// Also builds publish_launch and disc_dense, the two halves of player_mix,
/// which the self-test tampers with one at a time. Null for an unknown
/// workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed);

}  // namespace perfbench

#endif  // DISCSEC_PERFBENCH_WORKLOADS_H_
