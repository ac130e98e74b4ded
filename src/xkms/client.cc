#include "xkms/client.h"

#include <chrono>
#include <thread>

#include "common/await.h"
#include "pki/key_codec.h"
#include "xml/parser.h"

namespace discsec {
namespace xkms {

namespace {

/// Parses response markup, labelling failures as response-layer errors.
Result<xml::Document> ParseResponse(const std::string& response_xml) {
  Result<xml::Document> doc = xml::Parse(response_xml);
  if (!doc.ok()) return doc.status().WithContext("XKMS response");
  return doc;
}

Result<KeyBinding> ParseLocateResponse(const std::string& name,
                                       const std::string& response_xml) {
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc, ParseResponse(response_xml));
  const xml::Element* root = doc.root();
  const std::string* minor = root->GetAttribute("ResultMinor");
  if (minor != nullptr && *minor == "NoMatch") {
    return Status::NotFound("XKMS locate: no binding for '" + name + "'");
  }
  const xml::Element* kb = root->FirstChildElementByLocalName("KeyBinding");
  if (kb == nullptr) {
    return Status::ParseError("LocateResult missing KeyBinding")
        .WithContext("XKMS response");
  }
  KeyBinding binding;
  const xml::Element* key_name = kb->FirstChildElementByLocalName("KeyName");
  const xml::Element* key = kb->FirstChildElementByLocalName("RSAKeyValue");
  if (key_name == nullptr || key == nullptr) {
    return Status::ParseError("KeyBinding missing fields")
        .WithContext("XKMS response");
  }
  binding.name = key_name->TextContent();
  Result<crypto::RsaPublicKey> parsed_key = pki::RsaKeyFromXml(*key);
  if (!parsed_key.ok()) {
    return parsed_key.status().WithContext("XKMS response");
  }
  binding.key = std::move(parsed_key).value();
  for (const auto& child : kb->children()) {
    if (!child->IsElement()) continue;
    const auto* e = static_cast<const xml::Element*>(child.get());
    if (e->LocalName() == "KeyUsage") {
      binding.key_usage.push_back(e->TextContent());
    } else if (e->LocalName() == "Status") {
      std::string s = e->TextContent();
      binding.status = s == "Valid"     ? KeyStatus::kValid
                       : s == "Invalid" ? KeyStatus::kInvalid
                                        : KeyStatus::kIndeterminate;
    }
  }
  return binding;
}

/// `raw_status`, when non-null, receives the Status element's literal text
/// (recorded as the span attribute).
Result<KeyStatus> ParseValidateResponse(const std::string& response_xml,
                                        std::string* raw_status) {
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc, ParseResponse(response_xml));
  const xml::Element* status =
      doc.root()->FirstChildElementByLocalName("Status");
  if (status == nullptr) {
    return Status::ParseError("ValidateResult missing Status")
        .WithContext("XKMS response");
  }
  std::string s = status->TextContent();
  if (raw_status != nullptr) *raw_status = s;
  if (s == "Valid") return KeyStatus::kValid;
  if (s == "Invalid") return KeyStatus::kInvalid;
  return KeyStatus::kIndeterminate;
}

/// Register/Revoke decoding: a ResultMajor of Success, else `rejected`.
Status ExpectSuccess(const std::string& response_xml, Status rejected) {
  DISCSEC_ASSIGN_OR_RETURN(xml::Document doc, ParseResponse(response_xml));
  const std::string* major = doc.root()->GetAttribute("ResultMajor");
  if (major == nullptr || *major != "Success") return rejected;
  return Status::OK();
}

}  // namespace

XkmsClient XkmsClient::Direct(XkmsService* service) {
  return XkmsClient(DirectTransport(service));
}

Transport XkmsClient::DirectTransport(XkmsService* service, TimerWheel* wheel,
                                      fault::FaultInjector* injector) {
  // Serves a fault-injected latency: parked on the wheel when there is one,
  // slept inline otherwise.
  auto after = [wheel](int64_t delay_us, auto next) {
    if (delay_us > 0) {
      if (wheel != nullptr) {
        wheel->ScheduleAfter(delay_us, std::move(next));
        return;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
    }
    next();
  };
  return [service, injector, after](const std::string& request,
                                    TransportCallback done) {
    fault::FaultInjector* fi = fault::Effective(injector);
    std::string wire_request = request;
    int64_t request_delay_us = 0;
    Status hit = fi->HitDataDeferred(fault::kXkmsTransport, &wire_request,
                                     "request", &request_delay_us)
                     .WithContext("XKMS transport");
    if (!hit.ok()) {
      done(std::move(hit));
      return;
    }
    // The service call plus the response-side fault point; runs after the
    // request-side latency (if any) has been served.
    after(request_delay_us, [service, fi, after,
                             wire_request = std::move(wire_request), done]() {
      Result<std::string> response = service->HandleRequest(wire_request);
      if (!response.ok()) {
        done(response.status().WithContext("XKMS service"));
        return;
      }
      std::string wire_response = std::move(response).value();
      int64_t response_delay_us = 0;
      Status hit = fi->HitDataDeferred(fault::kXkmsTransport, &wire_response,
                                       "response", &response_delay_us)
                       .WithContext("XKMS transport");
      if (!hit.ok()) {
        done(std::move(hit));
        return;
      }
      after(response_delay_us,
            [done, wire_response = std::move(wire_response)]() mutable {
              done(std::move(wire_response));
            });
    });
  };
}

template <typename R, typename Decode>
void XkmsClient::Call(const char* op, const std::string& name,
                      const std::string& request, Decode decode,
                      std::function<void(R)> done) {
  if (metrics_ != nullptr) metrics_->GetCounter(op)->Add();
  obs::Tracer* tracer = tracer_;
  transport_(request, [op, name, tracer, decode = std::move(decode),
                       done = std::move(done)](Result<std::string> response) {
    // The completion may land on another thread, so the span is opened
    // here, around response decoding, instead of spanning the in-flight
    // gap: ScopedSpan's thread-local parent stack must begin and end on one
    // thread.
    obs::ScopedSpan span(tracer, op);
    span.SetAttr("name", name);
    if (!response.ok()) {
      done(response.status());
      return;
    }
    done(decode(response.value(), &span));
  });
}

void XkmsClient::LocateAsync(const std::string& name,
                             std::function<void(Result<KeyBinding>)> done) {
  Call<Result<KeyBinding>>(
      "xkms.locate", name, BuildLocateRequest(name),
      [name](const std::string& response_xml, obs::ScopedSpan*) {
        return ParseLocateResponse(name, response_xml);
      },
      std::move(done));
}

void XkmsClient::ValidateAsync(const std::string& name,
                               const crypto::RsaPublicKey& key,
                               std::function<void(Result<KeyStatus>)> done) {
  Call<Result<KeyStatus>>(
      "xkms.validate", name, BuildValidateRequest(name, key),
      [](const std::string& response_xml, obs::ScopedSpan* span) {
        std::string raw_status;
        Result<KeyStatus> parsed =
            ParseValidateResponse(response_xml, &raw_status);
        if (parsed.ok()) span->SetAttr("status", raw_status);
        return parsed;
      },
      std::move(done));
}

Result<KeyBinding> XkmsClient::Locate(const std::string& name) {
  return Await<Result<KeyBinding>>(
      [&](std::function<void(Result<KeyBinding>)> done) {
        LocateAsync(name, std::move(done));
      });
}

Result<KeyStatus> XkmsClient::Validate(const std::string& name,
                                       const crypto::RsaPublicKey& key) {
  return Await<Result<KeyStatus>>(
      [&](std::function<void(Result<KeyStatus>)> done) {
        ValidateAsync(name, key, std::move(done));
      });
}

Status XkmsClient::Register(const KeyBinding& binding) {
  return Await<Status>([&](std::function<void(Status)> done) {
    Call<Status>(
        "xkms.register", binding.name, BuildRegisterRequest(binding),
        [](const std::string& response_xml, obs::ScopedSpan*) -> Status {
          return ExpectSuccess(response_xml,
                               Status::VerificationFailed(
                                   "XKMS register rejected"));
        },
        std::move(done));
  });
}

Status XkmsClient::Revoke(const std::string& name) {
  return Await<Status>([&](std::function<void(Status)> done) {
    Call<Status>(
        "xkms.revoke", name, BuildRevokeRequest(name),
        [name](const std::string& response_xml, obs::ScopedSpan*) -> Status {
          return ExpectSuccess(
              response_xml,
              Status::NotFound("XKMS revoke failed for '" + name + "'"));
        },
        std::move(done));
  });
}

}  // namespace xkms
}  // namespace discsec
