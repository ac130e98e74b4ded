#ifndef DISCSEC_XKMS_CLIENT_H_
#define DISCSEC_XKMS_CLIENT_H_

#include <functional>
#include <string>

#include "common/fault.h"
#include "common/result.h"
#include "common/timer_wheel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "xkms/service.h"

namespace discsec {
namespace xkms {

/// Completion of a transport call: the serialized response, or why there
/// is none. Invoked exactly once, on any thread.
using TransportCallback = std::function<void(Result<std::string>)>;

/// The client's transport: ships a serialized request and completes through
/// `done`. A blocking source (Downloader::XkmsTransport, the inline Xkmsd,
/// a test lambda) calls done(...) before it returns; a networked one
/// completes later from a TimerWheel or a worker thread, which is what lets
/// an XKMS round-trip ride a task-graph async node without holding the
/// pool worker that issued it.
using Transport =
    std::function<void(const std::string& request_xml, TransportCallback done)>;

/// Player/author-side XKMS client: builds request markup, sends it through
/// the transport, parses the response.
///
/// Error taxonomy: transport failures come back from the Transport itself
/// (an "XKMS transport" context, kUnavailable when retryable), errors the
/// trust service raised carry an "XKMS service" context, and a response
/// that arrived but does not parse as the expected result markup gets an
/// "XKMS response" context here — three distinct, testable layers.
class XkmsClient {
 public:
  explicit XkmsClient(Transport transport)
      : transport_(std::move(transport)) {}

  /// Locates a registered key binding by name. `done` is invoked exactly
  /// once, possibly on another thread.
  void LocateAsync(const std::string& name,
                   std::function<void(Result<KeyBinding>)> done);

  /// Asks the trust service whether (name, key) is currently valid.
  void ValidateAsync(const std::string& name,
                     const crypto::RsaPublicKey& key,
                     std::function<void(Result<KeyStatus>)> done);

  /// Blocking adapters (Await over the transport). Never call them inside
  /// a transport completion; code running there takes the async calls.
  Result<KeyBinding> Locate(const std::string& name);
  Result<KeyStatus> Validate(const std::string& name,
                             const crypto::RsaPublicKey& key);

  /// Registers a binding with the trust service.
  Status Register(const KeyBinding& binding);

  /// Revokes a binding.
  Status Revoke(const std::string& name);

  /// Binds a client directly to an in-process service (no wire).
  static XkmsClient Direct(XkmsService* service);

  /// The transport Direct() uses, exposed so callers can wrap it (retry,
  /// fault injection). Consults `injector` (null = global) at the
  /// fault::kXkmsTransport point on the request and response strings
  /// (details "request"/"response"); service-side failures are labelled
  /// "XKMS service", injected transport errors "XKMS transport". A fired
  /// kDelay fault parks the continuation on `wheel` for its latency instead
  /// of sleeping a thread; with a null wheel the delay is slept inline and
  /// the call completes before it returns. The service and wheel must
  /// outlive the returned closure.
  static Transport DirectTransport(XkmsService* service,
                                   TimerWheel* wheel = nullptr,
                                   fault::FaultInjector* injector = nullptr);

  /// Observability (DESIGN.md §10): "xkms.locate" / "xkms.validate" /
  /// "xkms.register" / "xkms.revoke" spans (attributes: name, and the
  /// binding status on validate) and "xkms.<op>" counters. Null = no-op.
  void set_observability(obs::Tracer* tracer, obs::MetricsRegistry* metrics) {
    tracer_ = tracer;
    metrics_ = metrics;
  }

 private:
  /// The one call body: counts `op`, ships `request`, and decodes the
  /// response with `decode(response_xml, span)` inside an `op` span.
  template <typename R, typename Decode>
  void Call(const char* op, const std::string& name,
            const std::string& request, Decode decode,
            std::function<void(R)> done);

  Transport transport_;
  obs::Tracer* tracer_ = nullptr;
  obs::MetricsRegistry* metrics_ = nullptr;
};

}  // namespace xkms
}  // namespace discsec

#endif  // DISCSEC_XKMS_CLIENT_H_
