#include "workloads.h"

#include <map>
#include <optional>
#include <utility>

#include "access/pep.h"
#include "access/permission_request.h"
#include "authoring/author.h"
#include "common/base64.h"
#include "crypto/aes.h"
#include "crypto/algorithms.h"
#include "crypto/digest.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"
#include "disc/local_storage.h"
#include "net/server.h"
#include "player/engine.h"
#include "player/host_api.h"
#include "player/playback.h"
#include "player/session.h"
#include "sim/fleet.h"
#include "smil/smil.h"
#include "svg/svg.h"
#include "xml/c14n.h"
#include "xml/parser.h"
#include "xmldsig/signer.h"
#include "xmldsig/transforms.h"
#include "xmldsig/verifier.h"
#include "xmlenc/decryptor.h"
#include "xmlenc/encryptor.h"

#include "alloc_count.h"
#include "fixture.h"

namespace perfbench {

using namespace discsec;

Status Workload::Tamper() {
  return Status::Unsupported("this workload has no tamper self-test");
}

namespace {

using player::Origin;

constexpr size_t kPayloadBytes = 1024;  // publish_launch app
constexpr size_t kDenseScripts = 250;   // disc_dense cluster
// Events per fleet_mixed Run: ScenarioSpec's default, pinned here. Each Run
// also sets up its archetypes, responder and engines and warms the caches
// before its first event; at 100 events that fixed work is about a tenth
// of the Run (a third at 24 events), so the Run mostly measures warm-cache
// traffic (sim.run_fixed_ms reports the share).
constexpr uint32_t kFleetPlayers = 100;
constexpr size_t kFleetPlans = 32;  // distinct Run seeds fleet_mixed cycles
constexpr char kLaunchPath[] = "/apps/launch.xml";
constexpr char kAuthorPath[] = "/apps/authored.xml";
constexpr char kAlphabet[] =
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// The World's demo cluster plus one script of ~`payload_bytes` of seeded
/// filler: the 1 KiB signed application of publish_launch.
disc::InteractiveCluster PayloadCluster(const World& world,
                                        size_t payload_bytes, uint64_t seed) {
  disc::InteractiveCluster cluster = world.DemoCluster();
  Rng rng(seed);
  std::string filler = "var data = \"";
  while (filler.size() < payload_bytes + 12) {
    filler.push_back(kAlphabet[rng.NextBelow(sizeof(kAlphabet) - 1)]);
  }
  filler += "\";";
  cluster.tracks[1].manifest.scripts.push_back({"payload", filler});
  return cluster;
}

/// The demo cluster with `count` one-line scripts: element-dense markup
/// (thousands of nodes, tiny text). Every script runs, and the last one
/// prints a seed-dependent checksum, so the console proves they all did.
disc::InteractiveCluster DenseCluster(const World& world, size_t count,
                                      uint64_t seed) {
  disc::InteractiveCluster cluster = world.DemoCluster();
  auto& scripts = cluster.tracks[1].manifest.scripts;
  scripts.push_back(
      {"counter", "var hits = 0;\nfunction on() { hits = hits + 1; "
                  "return hits; }\n"});
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    scripts.push_back({"s" + std::to_string(i),
                       "var v" + std::to_string(i) + " = on() + " +
                           std::to_string(rng.NextBelow(1000)) + ";"});
  }
  scripts.push_back({"checksum", "print('checksum ' + (v0 + v" +
                                     std::to_string(count - 1) +
                                     ") + ' hits ' + hits);"});
  return cluster;
}

authoring::Author::ProtectOptions ProtectOptionsFor(const World& world) {
  authoring::Author::ProtectOptions options;
  options.sign = true;
  options.encrypt_ids = {"quiz"};
  options.encryption = world.MakeEncryptionSpec();
  return options;
}

/// Flips one base64 character in the middle of the first CipherValue.
Status TamperCipherValue(std::string* xml) {
  size_t open = xml->find("CipherValue>");
  if (open == std::string::npos) {
    return Status::NotFound("no CipherValue to tamper with");
  }
  size_t begin = open + 12;
  size_t end = xml->find('<', begin);
  if (end == std::string::npos || end - begin < 8) {
    return Status::NotFound("CipherValue too short to tamper with");
  }
  char& c = (*xml)[begin + (end - begin) / 2];
  c = c == 'A' ? 'B' : 'A';
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Verdict gate
// ---------------------------------------------------------------------------

/// The fields of a launch the gate compares against the reference.
struct Verdict {
  bool signature_verified = false;
  bool content_decrypted = false;
  std::vector<std::string> verified_references;
  std::vector<std::string> console;
  std::vector<std::string> render_ops;  ///< "region|kind|payload"

  bool operator==(const Verdict&) const = default;
};

Verdict VerdictOf(const player::LaunchReport& report) {
  Verdict v;
  v.signature_verified = report.signature_verified;
  v.content_decrypted = report.content_decrypted;
  v.verified_references = report.verified_references;
  v.console = report.console;
  for (const player::RenderOp& op : report.render_ops) {
    v.render_ops.push_back(op.region + "|" + op.kind + "|" + op.payload);
  }
  return v;
}

std::string Join(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "'" : ", '") + items[i] + "'";
  }
  return out + "]";
}

std::string Describe(const Verdict& v) {
  return std::string("signature_verified=") +
         (v.signature_verified ? "true" : "false") +
         " content_decrypted=" + (v.content_decrypted ? "true" : "false") +
         " references=" + Join(v.verified_references) +
         " console=" + Join(v.console) + " render_ops=" + Join(v.render_ops);
}

/// Gates a launch against the reference verdict.
std::string Mismatch(const Verdict& want, const Verdict& got) {
  if (want == got) return {};
  return "verdict differs from the reference: want {" + Describe(want) +
         "} got {" + Describe(got) + "}";
}

/// Sanity check on a freshly captured reference: the session it came from
/// must have verified the signature and decrypted the manifest, covered
/// exactly the references the author signed, and run the scripts.
Status CheckReference(const Verdict& v,
                      const std::vector<std::string>& references,
                      const std::string& console_line) {
  bool ran = false;
  for (const std::string& line : v.console) ran |= line == console_line;
  if (!v.signature_verified || !v.content_decrypted ||
      v.verified_references != references || !ran || v.render_ops.empty()) {
    return Status::VerificationFailed("reference session is not a verified, "
                                      "decrypted launch: " + Describe(v));
  }
  return Status::OK();
}

/// A failed call is a transient failure when a retry may succeed; any other
/// error on these valid inputs is a wrong verdict.
void Classify(const Status& status, SessionResult* out) {
  if (status.IsRetryable()) {
    out->failed = out->units;
  } else {
    out->wrong = "session returned " + status.ToString();
  }
}

std::string_view AsView(const Bytes& bytes) {
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

/// One message digest, as its own "crypto.digest" span.
Result<Bytes> Digest(SpanLog* log, const std::string& algorithm,
                     std::string_view data) {
  ScopedSpan span(log, "crypto.digest");
  DISCSEC_ASSIGN_OR_RETURN(auto digest, crypto::MakeDigest(algorithm));
  digest->Update(data);
  return digest->Finalize();
}

/// The digest URI behind an RSA SignatureMethod.
std::string SignatureDigestUri(const xml::Element& signed_info) {
  const std::string* method =
      signed_info.FirstChildElementByLocalName("SignatureMethod")
          ->GetAttribute("Algorithm");
  return method != nullptr && *method == crypto::kAlgRsaSha256
             ? crypto::kAlgSha256
             : crypto::kAlgSha1;
}

/// Runs `fn` inside a span and stores its wall time in `*ms`.
template <typename Fn>
auto Timed(SpanLog* log, const char* name, double* ms, Fn&& fn) {
  ScopedSpan span(log, name);
  const int64_t start = NowNs();
  auto result = fn();
  *ms = static_cast<double>(NowNs() - start) / 1e6;
  return result;
}

// ---------------------------------------------------------------------------
// Traced replay of the player's launch pipeline
// ---------------------------------------------------------------------------

/// Replays InteractiveApplicationEngine::BeginSession stage by stage
/// through the modules' public functions, on the session's own inputs and
/// with the same PlayerConfig, recording one span per layer call. The route
/// follows the config the way the engine's RunSecurity, VerifyPhase and
/// RunExecute do (arena parse, streaming verify, digest cache, coverage
/// check); a config that selects a stage the replay does not model (XKMS
/// key binding, rights) fails the traced run rather than be misattributed.
///
/// Probe() then re-runs the sub-steps of the real Verifier::Verify calls
/// (reference dereference, transforms and C14N; digests; certificate chain;
/// RSA) on the same reference targets and SignedInfo, and AES-CBC over the
/// same ciphertexts, under root spans of their own, so probe work never
/// counts as replayed work. xmldsig.verify_self_ms is the real verify time
/// the probed sub-steps do not explain.
class LaunchReplay {
 public:
  LaunchReplay(const player::PlayerConfig& config, SpanLog* log,
               Counts* counts)
      : config_(config), log_(log), counts_(*counts), decryptor_(config.keys) {
    decryptor_.set_parse_options(config_.parse_limits);
  }

  /// Returns the replayed scripts' console output.
  Result<std::vector<std::string>> Run(
      const std::string& xml, Origin origin,
      const xmldsig::ExternalResolver& resolver) {
    if (config_.xkms != nullptr || config_.xkms_cache != nullptr ||
        config_.rights != nullptr) {
      return Status::Unsupported(
          "the replay does not model XKMS key binding or rights management");
    }
    DISCSEC_ASSIGN_OR_RETURN(xml::Document doc, Parse(xml));
    const auto signatures = xmldsig::Verifier::FindSignatures(doc.root());
    if (signatures.empty()) {
      return Status::Unsupported("the replay does not model unsigned launches");
    }
    std::string subject;
    std::vector<std::string> references;
    for (xml::Element* signature : signatures) {
      ScopedSpan span(log_, "xmldsig.verify");
      auto info = xmldsig::Verifier::Verify(&doc, *signature,
                                            Options(origin, resolver, xml));
      if (!info.ok()) return info.status();
      subject = info->signer_subject;
      references.insert(references.end(), info->reference_uris.begin(),
                        info->reference_uris.end());
      verify_spans_.push_back(span.id());
    }
    counts_["xmldsig.references"] += static_cast<double>(references.size());
    {
      ScopedSpan span(log_, "xmlenc.decrypt");
      DISCSEC_RETURN_IF_ERROR(decryptor_.DecryptAll(&doc, nullptr, {}));
    }
    std::optional<disc::InteractiveCluster> cluster;
    {
      ScopedSpan span(log_, "disc.cluster");
      DISCSEC_ASSIGN_OR_RETURN(cluster, disc::InteractiveCluster::FromXml(doc));
      DISCSEC_RETURN_IF_ERROR(cluster->Validate());
    }
    const disc::Track* track = cluster->FirstApplicationTrack();
    if (track == nullptr) return Status::NotFound("no application track");
    if (config_.require_app_coverage && SignatureRequired(origin)) {
      // The engine's signature-wrapping defense: the track must lie inside
      // the whole document or an Id reference, resolved strictly.
      ScopedSpan span(log_, "player.coverage");
      DISCSEC_RETURN_IF_ERROR(Covered(doc, references, *track));
    }
    const disc::ApplicationManifest& manifest = track->manifest;
    std::unique_ptr<access::PolicyEnforcementPoint> pep;
    {
      ScopedSpan span(log_, "access.policy");
      access::PermissionRequest request;
      if (!manifest.permission_request_xml.empty()) {
        DISCSEC_ASSIGN_OR_RETURN(request,
                                 access::PermissionRequest::FromXmlString(
                                     manifest.permission_request_xml));
      }
      std::string principal =
          subject.empty() ? "disc:" + request.org_id : subject;
      pep = std::make_unique<access::PolicyEnforcementPoint>(
          &config_.pdp, std::move(request), principal);
      report_.grants = pep->EvaluateAll();
    }
    DISCSEC_RETURN_IF_ERROR(Markup(manifest));
    {
      ScopedSpan span(log_, "script.run");
      disc::LocalStorage storage(config_.storage_quota);
      script::Interpreter interpreter(config_.script_limits);
      player::BindHostApi(&interpreter, pep.get(), &storage, &report_);
      for (const disc::ScriptPart& part : manifest.scripts) {
        DISCSEC_RETURN_IF_ERROR(interpreter.Run(part.source).status());
      }
      if (!interpreter.GetGlobal("onLoad").IsUndefined()) {
        DISCSEC_RETURN_IF_ERROR(interpreter.CallGlobal("onLoad", {}).status());
      }
      counts_["script.steps"] += static_cast<double>(interpreter.steps_used());
    }
    return report_.console;
  }

  /// The engine's coverage check: some verified reference is the whole
  /// document, or names the track, its manifest or one of their ancestors.
  static Status Covered(const xml::Document& doc,
                        const std::vector<std::string>& references,
                        const disc::Track& track) {
    xml::IdRegistry registry(doc);
    auto strict = [&](const std::string& id) -> Result<xml::Element*> {
      Result<xml::Element*> found = registry.Find(id);
      if (found.ok() || !found.status().IsNotFound()) return found;
      return static_cast<xml::Element*>(nullptr);
    };
    for (const std::string& uri : references) {
      if (uri.empty()) return Status::OK();
      if (uri.size() < 2 || uri[0] != '#') continue;
      DISCSEC_ASSIGN_OR_RETURN(xml::Element * target, strict(uri.substr(1)));
      if (target == nullptr) continue;
      for (const std::string& id : {track.id, track.manifest.id}) {
        DISCSEC_ASSIGN_OR_RETURN(xml::Element * e, strict(id));
        for (; e != nullptr; e = e->parent()) {
          if (e == target) return Status::OK();
        }
      }
    }
    return Status::VerificationFailed("application track '" + track.id +
                                      "' is not covered (replay)");
  }

  /// The engine's cluster parse, into a per-launch arena when the config
  /// asks for one.
  Result<xml::Document> Parse(std::string_view xml) {
    ScopedSpan span(log_, "xml.parse");
    xml::ParseOptions options = config_.parse_limits;
    if (config_.arena_parse) options.arena = std::make_shared<xml::Arena>();
    const size_t before = AllocCount();
    auto doc = xml::Parse(xml, options);
    counts_["xml.parse_allocs"] +=
        static_cast<double>(AllocCount() - before);
    return doc;
  }

  Status Probe(const std::string& xml, Origin origin,
               const xmldsig::ExternalResolver& resolver) {
    std::vector<std::pair<Bytes, std::string>> ciphers;  // bytes, key name
    int32_t probe_span;
    {
      ScopedSpan span(log_, "xmldsig.probe");
      probe_span = span.id();
      DISCSEC_ASSIGN_OR_RETURN(xml::Document doc,
                               xml::Parse(xml, config_.parse_limits));
      const xmldsig::VerifyOptions options = Options(origin, resolver, {});
      for (xml::Element* signature :
           xmldsig::Verifier::FindSignatures(doc.root())) {
        DISCSEC_RETURN_IF_ERROR(ProbeVerify(doc, *signature, options));
      }
      doc.root()->ForEachElement([&](xml::Element* e) {
        if (!xmlenc::IsEncryptedData(*e)) return;
        const xml::Element* key =
            e->FirstChildElementByLocalName("KeyInfo");
        const xml::Element* data =
            e->FirstChildElementByLocalName("CipherData");
        if (key == nullptr || data == nullptr) return;
        key = key->FirstChildElementByLocalName("KeyName");
        data = data->FirstChildElementByLocalName("CipherValue");
        if (key == nullptr || data == nullptr) return;
        auto bytes = Base64Decode(data->TextContent());
        if (bytes.ok()) ciphers.emplace_back(*bytes, key->TextContent());
      });
    }
    double verify_ms = 0;
    for (int32_t id : verify_spans_) verify_ms += log_->DurationMs(id);
    counts_["xmldsig.verify_self_ms"] =
        verify_ms - log_->ChildrenMs(probe_span);

    ScopedSpan span(log_, "xmlenc.probe");
    double bytes = 0;
    int32_t aes_span;
    {
      ScopedSpan aes(log_, "crypto.aes");
      aes_span = aes.id();
      for (const auto& [cipher, key_name] : ciphers) {
        DISCSEC_ASSIGN_OR_RETURN(Bytes key, config_.keys.FindKey(key_name));
        DISCSEC_RETURN_IF_ERROR(crypto::AesCbcDecrypt(key, cipher).status());
        bytes += static_cast<double>(cipher.size());
      }
    }
    counts_["xmlenc.cipher_bytes"] = bytes;
    const double aes_ms = log_->DurationMs(aes_span);
    if (aes_ms > 0) counts_["crypto.aes_mb_per_s"] = bytes / 1e3 / aes_ms;
    return Status::OK();
  }

  /// Records the engine-side figures of the traced session and checks the
  /// replay reproduced the engine's console output.
  std::string Record(const player::LaunchReport& report, double session_ms,
                     size_t allocs, int32_t replay_span,
                     const Result<std::vector<std::string>>& replayed) {
    if (!replayed.ok()) {
      return "replay failed: " + replayed.status().ToString();
    }
    if (replayed.value() != report.console) {
      return "replay console " + Join(replayed.value()) +
             " differs from the engine's " + Join(report.console);
    }
    counts_["player.allocs"] = static_cast<double>(allocs);
    counts_["player.unattributed_ms"] =
        session_ms - static_cast<double>(report.timings.TotalUs()) / 1e3;
    counts_["player.replay_gap_ms"] =
        session_ms - log_->ChildrenMs(replay_span);
    return {};
  }

 private:
  bool SignatureRequired(Origin origin) const {
    return origin == Origin::kNetwork ? config_.require_signature_for_network
                                      : !config_.trust_disc_content;
  }

  /// The engine's VerifyPhase options for `origin`. `source` is the cluster
  /// text the streaming route re-lexes; the probe passes none.
  xmldsig::VerifyOptions Options(Origin origin,
                                 const xmldsig::ExternalResolver& resolver,
                                 std::string_view source) const {
    xmldsig::VerifyOptions options;
    options.cert_store = &config_.trust;
    options.now = config_.now;
    options.decrypt_hook = decryptor_.MakeHook();
    options.resolver = resolver;
    options.parse_options = config_.parse_limits;
    options.pool = config_.pool;
    if (config_.streaming_verify) options.source_text = source;
    options.digest_cache = config_.digest_cache;
    if (SignatureRequired(origin) && config_.restrict_reference_targets) {
      options.allowed_reference_roots = {"cluster", "track",  "manifest",
                                         "markup",  "code",   "script",
                                         "submarkup"};
    }
    return options;
  }

  Status ProbeVerify(const xml::Document& doc, const xml::Element& signature,
                     const xmldsig::VerifyOptions& options) {
    xmldsig::ReferenceContext ctx;
    ctx.document = &doc;
    ctx.signature_path = xmldsig::ComputePath(&signature);
    ctx.parse_options = options.parse_options;
    // The probe's hooks show what the real call hides: the Decryption
    // Transform and disc reads of external (AV essence) references.
    ctx.decrypt_hook = [&](xml::Document* working, xml::Element* apex,
                           const std::vector<std::string>& except) {
      ScopedSpan span(log_, "xmlenc.decrypt");
      return options.decrypt_hook(working, apex, except);
    };
    if (options.resolver) {
      ctx.resolver = [&](const std::string& uri) {
        ScopedSpan span(log_, "disc.read");
        return options.resolver(uri);
      };
    }
    const xml::Element* signed_info =
        signature.FirstChildElementByLocalName("SignedInfo");
    for (const auto& child : signed_info->children()) {
      if (!child->IsElement()) continue;
      const auto& ref = static_cast<const xml::Element&>(*child);
      if (ref.LocalName() != "Reference") continue;
      const std::string* uri = ref.GetAttribute("URI");
      const bool same_document =
          uri == nullptr || uri->empty() || (*uri)[0] == '#';
      // The streaming route fuses lex, C14N and digest of same-document
      // references inside Verify, with no public seam to time them apart,
      // so there their cost stays in xmldsig.verify_self_ms.
      if (same_document && config_.streaming_verify) continue;
      Bytes octets;
      {
        ScopedSpan span(log_, "xml.c14n");
        DISCSEC_ASSIGN_OR_RETURN(octets, xmldsig::ProcessReference(ref, ctx));
      }
      if (same_document) {
        counts_["xml.c14n_bytes"] += static_cast<double>(octets.size());
      }
      const std::string* alg =
          ref.FirstChildElementByLocalName("DigestMethod")
              ->GetAttribute("Algorithm");
      DISCSEC_ASSIGN_OR_RETURN(
          Bytes expected,
          Base64Decode(
              ref.FirstChildElementByLocalName("DigestValue")->TextContent()));
      DISCSEC_ASSIGN_OR_RETURN(Bytes digest,
                               Digest(log_, *alg, AsView(octets)));
      if (digest != expected) {
        return Status::VerificationFailed("probe: reference digest differs");
      }
    }
    std::string canonical;
    {
      ScopedSpan span(log_, "xml.c14n");
      canonical = xml::CanonicalizeElement(*signed_info);
    }
    counts_["xml.c14n_bytes"] += static_cast<double>(canonical.size());
    const std::string digest_uri = SignatureDigestUri(*signed_info);
    DISCSEC_ASSIGN_OR_RETURN(Bytes digest,
                             Digest(log_, digest_uri, canonical));
    std::vector<pki::Certificate> chain;
    {
      ScopedSpan span(log_, "pki.chain");
      const xml::Element* x509 =
          signature.FirstChildElementByLocalName("KeyInfo")
              ->FirstChildElementByLocalName("X509Data");
      for (const auto& child : x509->children()) {
        if (!child->IsElement()) continue;
        DISCSEC_ASSIGN_OR_RETURN(
            Bytes text, Base64Decode(static_cast<const xml::Element&>(*child)
                                         .TextContent()));
        DISCSEC_ASSIGN_OR_RETURN(pki::Certificate cert,
                                 pki::Certificate::FromXmlString(
                                     ToString(text)));
        chain.push_back(std::move(cert));
      }
      DISCSEC_RETURN_IF_ERROR(
          options.cert_store->ValidateChain(chain, options.now));
    }
    DISCSEC_ASSIGN_OR_RETURN(
        Bytes value,
        Base64Decode(signature.FirstChildElementByLocalName("SignatureValue")
                         ->TextContent()));
    ScopedSpan span(log_, "crypto.rsa_public");
    return crypto::RsaVerifyDigest(chain.front().info().public_key,
                                   digest_uri, digest, value);
  }

  /// The engine's MarkupPhase: SMIL layout and timeline, SVG graphics.
  Status Markup(const disc::ApplicationManifest& manifest) {
    ScopedSpan span(log_, "smil.markup");
    const disc::SubMarkup* layout = manifest.FindMarkupByRole("layout");
    if (layout == nullptr && !manifest.markups.empty()) {
      layout = &manifest.markups.front();
    }
    if (layout != nullptr) {
      DISCSEC_ASSIGN_OR_RETURN(smil::Presentation presentation,
                               smil::ParseSmil(layout->content));
      DISCSEC_RETURN_IF_ERROR(presentation.Validate());
      report_.timeline = presentation.ResolveTimeline();
      report_.presentation_duration = presentation.Duration();
    }
    for (const disc::SubMarkup& markup : manifest.markups) {
      if (markup.role != "graphics") continue;
      DISCSEC_ASSIGN_OR_RETURN(svg::Scene scene, svg::ParseSvg(markup.content));
      DISCSEC_RETURN_IF_ERROR(scene.Validate());
    }
    return Status::OK();
  }

  const player::PlayerConfig& config_;
  SpanLog* log_;
  Counts& counts_;
  xmlenc::Decryptor decryptor_;
  std::vector<int32_t> verify_spans_;
  player::LaunchReport report_;  ///< what the replayed host API writes
};

// ---------------------------------------------------------------------------
// disc_dense
// ---------------------------------------------------------------------------

class DiscDense : public Workload {
 public:
  explicit DiscDense(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    world_ = std::make_unique<World>();
    authoring::Author author = world_->MakeAuthor();
    authoring::Author::ProtectOptions options = ProtectOptionsFor(*world_);
    options.sign_av_essence = true;
    Rng author_rng(seed_);
    DISCSEC_ASSIGN_OR_RETURN(
        image_, author.MasterProtected(
                    DenseCluster(*world_, kDenseScripts, seed_), options,
                    &author_rng));
    config_ = world_->MakePlayerConfig();

    player::InteractiveApplicationEngine engine(config_);
    DISCSEC_ASSIGN_OR_RETURN(player::DiscPlayback playback,
                             engine.PlayDisc(image_));
    if (playback.app == nullptr || playback.degraded()) {
      return Status::VerificationFailed(
          "reference insertion did not launch the application cleanly");
    }
    reference_ = VerdictOf(playback.app->report());
    played_ = playback.played.size();
    std::string checksum = "checksum ";
    {
      // v0 = 1 + r0 and v<last> = count + r<last>, from the same seeded
      // draws DenseCluster made.
      Rng rng(seed_);
      uint64_t first = rng.NextBelow(1000), last = first;
      for (size_t i = 1; i < kDenseScripts; ++i) last = rng.NextBelow(1000);
      checksum += std::to_string(1 + first + kDenseScripts + last) +
                  " hits " + std::to_string(kDenseScripts);
    }
    DISCSEC_RETURN_IF_ERROR(CheckReference(
        reference_, {"", "disc://BDMV/STREAM/00001.m2ts"}, checksum));
    if (played_ != 1) {
      return Status::VerificationFailed("reference played no AV track");
    }
    return Status::OK();
  }

  std::string InputDigest() const override {
    return ToHex(crypto::Sha256::Hash(image_.Pack()));
  }

  SessionResult Session(SpanLog* log, Counts* counts) override {
    SessionResult out;
    player::InteractiveApplicationEngine engine(config_);
    const size_t allocs = AllocCount();
    auto playback = Timed(log, "player.session", &out.ms,
                          [&] { return engine.PlayDisc(image_); });
    const size_t session_allocs = AllocCount() - allocs;
    if (!playback.ok()) {
      Classify(playback.status(), &out);
      return out;
    }
    if (playback->app == nullptr || playback->degraded() ||
        playback->played.size() != played_) {
      out.wrong = "insertion quarantined a track or skipped the application";
      return out;
    }
    const player::LaunchReport& report = playback->app->report();
    out.wrong = Mismatch(reference_, VerdictOf(report));
    if (!out.wrong.empty() || !log->enabled()) return out;

    LaunchReplay replay(config_, log, counts);
    std::string xml;
    const xmldsig::ExternalResolver resolver = disc::MakeDiscResolver(&image_);
    Result<std::vector<std::string>> replayed = Status::OK();
    int32_t replay_span;
    {
      ScopedSpan span(log, "player.replay");
      replay_span = span.id();
      replayed = [&]() -> Result<std::vector<std::string>> {
        // PlayDisc: read and parse the table of contents, launch the
        // application track, then plan every AV track.
        {
          ScopedSpan read(log, "disc.read");
          DISCSEC_ASSIGN_OR_RETURN(xml, image_.GetText(disc::kClusterPath));
        }
        DISCSEC_ASSIGN_OR_RETURN(xml::Document toc, replay.Parse(xml));
        std::optional<disc::InteractiveCluster> cluster;
        {
          ScopedSpan span(log, "disc.cluster");
          DISCSEC_ASSIGN_OR_RETURN(cluster,
                                   disc::InteractiveCluster::FromXml(toc));
          DISCSEC_RETURN_IF_ERROR(cluster->Validate());
        }
        DISCSEC_ASSIGN_OR_RETURN(std::vector<std::string> console,
                                 replay.Run(xml, Origin::kDisc, resolver));
        ScopedSpan plan(log, "player.playback");
        for (const disc::Track& track : cluster->tracks) {
          if (track.kind != disc::Track::Kind::kAudioVideo) continue;
          DISCSEC_RETURN_IF_ERROR(
              player::BuildPlaybackPlan(*cluster, image_, track.id).status());
        }
        return console;
      }();
    }
    out.wrong = replay.Record(report, out.ms, session_allocs, replay_span,
                              replayed);
    if (out.wrong.empty()) {
      Status probed = replay.Probe(xml, Origin::kDisc, resolver);
      if (!probed.ok()) out.wrong = "probe failed: " + probed.ToString();
    }
    return out;
  }

  /// Flips one byte of the signed AV essence.
  Status Tamper() override {
    const std::string path = std::string(disc::kStreamDir) + "00001.m2ts";
    DISCSEC_ASSIGN_OR_RETURN(Bytes essence, image_.Get(path));
    if (essence.size() < 4096) return Status::NotFound("essence too short");
    essence[essence.size() / 2 + 1] ^= 0x01;
    image_.Put(path, std::move(essence));
    return Status::OK();
  }

 private:
  const uint64_t seed_;
  std::unique_ptr<World> world_;
  disc::DiscImage image_;
  player::PlayerConfig config_;
  Verdict reference_;
  size_t played_ = 0;
};

// ---------------------------------------------------------------------------
// publish_launch
// ---------------------------------------------------------------------------

/// One round trip of the 1 KiB signed application: the studio builds,
/// signs, encrypts and publishes it (fresh IVs), then a fresh player engine
/// launches it from the server over the secure channel.
class PublishLaunch : public Workload {
 public:
  explicit PublishLaunch(uint64_t seed)
      : seed_(seed),
        rng_(seed),
        channel_rng_(seed + 1),
        replay_rng_(seed + 2) {}

  Status Setup() override {
    world_ = std::make_unique<World>();
    server_.SetIdentity({world_->server_cert, world_->root_cert},
                        world_->server_key.private_key);
    DISCSEC_RETURN_IF_ERROR(trust_.AddTrustedRoot(world_->root_cert));
    download_.use_secure_channel = true;
    download_.trust = &trust_;
    download_.now = kNow;
    author_.emplace(world_->MakeAuthor());
    cluster_ = PayloadCluster(*world_, kPayloadBytes, seed_);
    options_ = ProtectOptionsFor(*world_);
    config_ = world_->MakePlayerConfig();
    DISCSEC_ASSIGN_OR_RETURN(
        xml::Document doc, author_->BuildProtected(cluster_, options_, &rng_));
    DISCSEC_RETURN_IF_ERROR(author_->Publish(&server_, kLaunchPath, doc));
    DISCSEC_ASSIGN_OR_RETURN(Bytes published, server_.HandleGet(kLaunchPath));
    first_document_ = ToString(published);
    player::InteractiveApplicationEngine engine(config_);
    DISCSEC_ASSIGN_OR_RETURN(
        player::LaunchReport report,
        engine.LaunchFromServer(&server_, kLaunchPath, download_,
                                &channel_rng_));
    reference_ = VerdictOf(report);
    return CheckReference(reference_, {""}, "best score: 4200");
  }

  std::string InputDigest() const override {
    crypto::Sha256 sha;
    sha.Update(cluster_.ToXmlString());
    sha.Update(first_document_);
    return ToHex(sha.Finalize());
  }

  SessionResult Session(SpanLog* log, Counts* counts) override {
    SessionResult out;
    double publish_ms = 0, launch_ms = 0;
    Status published =
        Timed(log, "authoring.session", &publish_ms, [&]() -> Status {
          DISCSEC_ASSIGN_OR_RETURN(
              xml::Document doc,
              author_->BuildProtected(cluster_, options_, &rng_));
          return author_->Publish(&server_, kLaunchPath, doc);
        });
    out.ms = publish_ms;
    if (!published.ok()) {
      Classify(published, &out);
      return out;
    }
    if (tamper_) {
      // Self-test: the published document loses one byte before launch.
      Status tampered = TamperPublished();
      if (!tampered.ok()) {
        out.wrong = "tamper failed: " + tampered.ToString();
        return out;
      }
    }
    player::InteractiveApplicationEngine engine(config_);
    const size_t allocs = AllocCount();
    auto report = Timed(log, "player.session", &launch_ms, [&] {
      return engine.LaunchFromServer(&server_, kLaunchPath, download_,
                                     &channel_rng_);
    });
    const size_t session_allocs = AllocCount() - allocs;
    out.ms = publish_ms + launch_ms;
    if (!report.ok()) {
      Classify(report.status(), &out);
      return out;
    }
    out.wrong = Mismatch(reference_, VerdictOf(*report));
    if (!out.wrong.empty() || !log->enabled()) return out;

    // The write side: build, sign, encrypt and publish replayed stage by
    // stage, then the signature's sub-steps probed.
    std::optional<xml::Document> signed_doc;
    Status replayed_author;
    {
      ScopedSpan span(log, "authoring.replay");
      replayed_author = Replay(log, &signed_doc);
    }
    if (replayed_author.ok()) {
      ScopedSpan span(log, "xmldsig.probe");
      replayed_author = ProbeSign(*signed_doc, log, counts);
    }
    if (!replayed_author.ok()) {
      out.wrong = "replay failed: " + replayed_author.ToString();
      return out;
    }

    // The read side: the launch replayed layer by layer, then probed.
    LaunchReplay replay(config_, log, counts);
    std::string xml;
    Result<std::vector<std::string>> replayed = Status::OK();
    int32_t replay_span;
    {
      ScopedSpan span(log, "player.replay");
      replay_span = span.id();
      replayed = [&]() -> Result<std::vector<std::string>> {
        Result<Bytes> content = Status::OK();
        {
          ScopedSpan fetch(log, "net.fetch");
          net::Downloader downloader(&server_, download_, &replay_rng_);
          content = downloader.Fetch(kLaunchPath);
        }
        DISCSEC_RETURN_IF_ERROR(content.status());
        xml = ToString(content.value());
        return replay.Run(xml, Origin::kNetwork, nullptr);
      }();
    }
    out.wrong = replay.Record(*report, launch_ms, session_allocs, replay_span,
                              replayed);
    if (out.wrong.empty()) {
      Status probed = replay.Probe(xml, Origin::kNetwork, nullptr);
      if (!probed.ok()) out.wrong = "probe failed: " + probed.ToString();
    }
    return out;
  }

  /// Every later session flips one byte of a CipherValue in the document
  /// it published, before the player fetches it.
  Status Tamper() override {
    tamper_ = true;
    return Status::OK();
  }

 private:
  Status TamperPublished() {
    DISCSEC_ASSIGN_OR_RETURN(Bytes doc, server_.HandleGet(kLaunchPath));
    std::string xml = ToString(doc);
    DISCSEC_RETURN_IF_ERROR(TamperCipherValue(&xml));
    server_.HostText(kLaunchPath, xml);
    return Status::OK();
  }

  /// Author::BuildProtected + Publish stage by stage. `signed_doc` gets a
  /// copy of the document as signed, before encryption, for the probe.
  Status Replay(SpanLog* log, std::optional<xml::Document>* signed_doc) {
    std::optional<xml::Document> doc;
    {
      ScopedSpan span(log, "authoring.build");
      DISCSEC_RETURN_IF_ERROR(cluster_.Validate());
      doc.emplace(cluster_.ToXml());
    }
    {
      ScopedSpan span(log, "xmldsig.sign");
      const xmldsig::Signer& signer = author_->signer();
      xmldsig::ReferenceContext ctx = SigningContext(&*doc);
      xml::Element* placeholder = doc->root()->AppendElement("ds:Signature");
      ctx.signature_path = xmldsig::ComputePath(placeholder);
      xmldsig::ReferenceSpec spec;
      spec.transforms = {crypto::kAlgEnvelopedSignature,
                         crypto::kAlgDecryptionTransform, crypto::kAlgC14N};
      DISCSEC_ASSIGN_OR_RETURN(auto built, signer.BuildUnsigned({spec}, ctx));
      const size_t index = doc->root()->IndexOfChild(placeholder);
      doc->root()->ReplaceChild(placeholder, std::move(built));
      DISCSEC_RETURN_IF_ERROR(signer.Finalize(
          static_cast<xml::Element*>(doc->root()->ChildAt(index))));
    }
    signed_doc->emplace(doc->Clone());
    {
      ScopedSpan span(log, "xmlenc.encrypt");
      DISCSEC_ASSIGN_OR_RETURN(
          xmlenc::Encryptor encryptor,
          xmlenc::Encryptor::Create(options_.encryption, &replay_rng_));
      for (const std::string& id : options_.encrypt_ids) {
        xml::Element* target = doc->FindById(id);
        if (target == nullptr) return Status::NotFound("no element " + id);
        DISCSEC_RETURN_IF_ERROR(
            encryptor.EncryptElement(&*doc, target, "enc-" + id).status());
      }
    }
    ScopedSpan span(log, "authoring.publish");
    return author_->Publish(&replay_server_, kAuthorPath, *doc);
  }

  /// Author-side reference processing: nothing is encrypted yet at signing
  /// time, so the Decryption Transform is a no-op.
  static xmldsig::ReferenceContext SigningContext(const xml::Document* doc) {
    xmldsig::ReferenceContext ctx;
    ctx.document = doc;
    ctx.decrypt_hook = [](xml::Document*, xml::Element*,
                          const std::vector<std::string>&) {
      return Status::OK();
    };
    return ctx;
  }

  /// The signature's sub-steps on the signed document: reference C14N and
  /// digest, SignedInfo C14N and digest, RSA private-key signing. The
  /// digest and signature value must reproduce what the signer wrote.
  Status ProbeSign(const xml::Document& doc, SpanLog* log, Counts* counts) {
    const xml::Element* sig =
        doc.root()->FirstChildElementByLocalName("Signature");
    if (sig == nullptr) return Status::NotFound("document has no signature");
    const xml::Element& signature = *sig;
    xmldsig::ReferenceContext ctx = SigningContext(&doc);
    ctx.signature_path = xmldsig::ComputePath(&signature);
    const xml::Element* signed_info =
        signature.FirstChildElementByLocalName("SignedInfo");
    const xml::Element* ref =
        signed_info->FirstChildElementByLocalName("Reference");
    Bytes octets;
    {
      ScopedSpan span(log, "xml.c14n");
      DISCSEC_ASSIGN_OR_RETURN(octets, xmldsig::ProcessReference(*ref, ctx));
    }
    std::string canonical;
    {
      ScopedSpan span(log, "xml.c14n");
      canonical = xml::CanonicalizeElement(*signed_info);
    }
    (*counts)["xml.c14n_bytes"] +=
        static_cast<double>(octets.size() + canonical.size());
    const std::string* ref_alg =
        ref->FirstChildElementByLocalName("DigestMethod")
            ->GetAttribute("Algorithm");
    DISCSEC_ASSIGN_OR_RETURN(Bytes ref_digest,
                             Digest(log, *ref_alg, AsView(octets)));
    const std::string digest_uri = SignatureDigestUri(*signed_info);
    DISCSEC_ASSIGN_OR_RETURN(Bytes digest, Digest(log, digest_uri, canonical));
    DISCSEC_ASSIGN_OR_RETURN(
        Bytes expected,
        Base64Decode(
            ref->FirstChildElementByLocalName("DigestValue")->TextContent()));
    if (ref_digest != expected) {
      return Status::VerificationFailed("probe: reference digest differs");
    }
    Bytes value;
    {
      ScopedSpan span(log, "crypto.rsa_private");
      DISCSEC_ASSIGN_OR_RETURN(
          value, crypto::RsaSignDigest(world_->studio_key.private_key,
                                       digest_uri, digest));
    }
    DISCSEC_ASSIGN_OR_RETURN(
        Bytes signed_value,
        Base64Decode(signature.FirstChildElementByLocalName("SignatureValue")
                         ->TextContent()));
    if (value != signed_value) {
      return Status::VerificationFailed("probe: signature value differs");
    }
    return Status::OK();
  }

  const uint64_t seed_;
  std::unique_ptr<World> world_;
  std::optional<authoring::Author> author_;
  disc::InteractiveCluster cluster_;
  authoring::Author::ProtectOptions options_;
  player::PlayerConfig config_;
  net::ContentServer server_;
  net::ContentServer replay_server_;
  pki::CertStore trust_;
  net::Downloader::Options download_;
  Rng rng_;
  Rng channel_rng_;
  Rng replay_rng_;
  std::string first_document_;
  Verdict reference_;
  bool tamper_ = false;
};

// ---------------------------------------------------------------------------
// player_mix
// ---------------------------------------------------------------------------

/// The per-session counts of two workloads run as one session: sums, except
/// the AES rate, which is their cipher bytes over their AES time.
Counts AddCounts(const Counts& a, const Counts& b) {
  constexpr char kRate[] = "crypto.aes_mb_per_s";
  constexpr char kBytes[] = "xmlenc.cipher_bytes";
  auto aes_ms = [&](const Counts& c) {
    auto rate = c.find(kRate), bytes = c.find(kBytes);
    return rate == c.end() || bytes == c.end() || rate->second <= 0
               ? 0.0
               : bytes->second / 1e3 / rate->second;
  };
  const double ms = aes_ms(a) + aes_ms(b);
  Counts sum = a;
  for (const auto& [name, value] : b) sum[name] += value;
  if (ms > 0) sum[kRate] = sum[kBytes] / 1e3 / ms;
  return sum;
}

/// One publish_launch round trip and one disc_dense insertion, timed as one
/// session: every authoring and player layer runs in it, without caches.
class PlayerMix : public Workload {
 public:
  explicit PlayerMix(uint64_t seed) : launch_(seed), disc_(seed) {}

  Status Setup() override {
    DISCSEC_RETURN_IF_ERROR(launch_.Setup());
    return disc_.Setup();
  }

  std::string InputDigest() const override {
    crypto::Sha256 sha;
    sha.Update(launch_.InputDigest());
    sha.Update(disc_.InputDigest());
    return ToHex(sha.Finalize());
  }

  SessionResult Session(SpanLog* log, Counts* counts) override {
    Counts launch_counts, disc_counts;
    SessionResult out = launch_.Session(log, &launch_counts);
    if (!out.wrong.empty() || out.failed > 0) return out;
    SessionResult disc = disc_.Session(log, &disc_counts);
    out.ms += disc.ms;
    out.failed = disc.failed;
    out.wrong = disc.wrong;
    if (log->enabled()) *counts = AddCounts(launch_counts, disc_counts);
    return out;
  }

 private:
  PublishLaunch launch_;
  DiscDense disc_;
};

// ---------------------------------------------------------------------------
// fleet_mixed
// ---------------------------------------------------------------------------

/// Sessions cycle through kFleetPlans event plans (Run seeds derived from
/// --seed), so one process measures a fixed spread of traffic rather than
/// whichever discs a single plan happened to draw. Every plan is
/// deterministic (jobs = 0): a repeated plan must reproduce its event
/// digest, and its counters feed the per-layer figures unchanged.
class FleetMixed : public Workload {
 public:
  explicit FleetMixed(uint64_t seed) : seed_(seed) {}

  Status Setup() override {
    world_ = std::make_unique<World>();
    DISCSEC_ASSIGN_OR_RETURN(sim::FleetEnvironment env,
                             MakeFleetEnvironment(*world_));
    crypto::Sha256 sha;
    sha.Update(env.cluster.ToXmlString());
    for (const sim::AttackDisc& attack : env.attacks) sha.Update(attack.xml);
    DISCSEC_ASSIGN_OR_RETURN(simulator_,
                             sim::FleetSimulator::Create(std::move(env)));
    spec_.name = "fleet_mixed";
    spec_.players = kFleetPlayers;
    spec_.cache = sim::CacheState::kWarm;
    spec_.route = sim::VerifyRoute::kDom;
    spec_.chaos = "none";
    spec_.jobs = 0;
    DISCSEC_ASSIGN_OR_RETURN(sim::ScenarioResult first,
                             simulator_->Run(spec_, PlanSeed(0)));
    std::string broken = Record(0, first);
    if (!broken.empty()) return Status::VerificationFailed(broken);
    sha.Update(first.event_digest);
    digest_ = ToHex(sha.Finalize());
    return Status::OK();
  }

  std::string InputDigest() const override { return digest_; }

  SessionResult Session(SpanLog* log, Counts* counts) override {
    SessionResult out;
    out.units = spec_.TotalEvents();
    const size_t plan = next_plan_++ % kFleetPlans;
    out.input = plan;
    auto row = Timed(log, "sim.run", &out.ms,
                     [&] { return simulator_->Run(spec_, PlanSeed(plan)); });
    if (!row.ok()) {
      Classify(row.status(), &out);
      return out;
    }
    out.units = row->events;
    out.failed = row->transient_failures;
    out.wrong = Record(plan, *row);
    if (log->enabled()) {
      *counts = Totals();
      // Run time outside the event loop: per-Run set-up (archetype images,
      // responder, engines) and the warm-up insertions.
      (*counts)["sim.run_fixed_ms"] = out.ms - row->wall_seconds * 1e3;
    }
    return out;
  }

 private:
  /// Per-plan counters, kept so the per-layer figures are the same
  /// whole-cycle aggregate for every session once each plan has run.
  struct PlanCounts {
    std::string event_digest;
    double digest_hits = 0, digest_lookups = 0, digest_bypass = 0;
    double locate_hits = 0, locates = 0, transport_calls = 0, shed = 0;
    double attack_rejected = 0, quarantined_tracks = 0, played_clean = 0;
  };

  uint64_t PlanSeed(size_t plan) const { return seed_ + plan * 7919; }

  /// Checks the fleet's hard invariants, full event accounting and plan
  /// determinism, and keeps the plan's counters. Returns why it failed.
  std::string Record(size_t plan, const sim::ScenarioResult& row) {
    sim::FleetReport report;
    report.rows.push_back(row);
    Status invariants = report.CheckInvariants();
    if (!invariants.ok()) return invariants.ToString();
    if (row.played_clean + row.played_degraded != row.pristine_events) {
      return "pristine events not all accounted for";
    }
    if (row.attack_rejected != row.attack_events) {
      return "attack events not all rejected";
    }
    if (row.pristine_events + row.attack_events != row.events) {
      return "events not all accounted for";
    }
    auto seen = plans_.find(plan);
    if (seen != plans_.end()) {
      return seen->second.event_digest == row.event_digest
                 ? std::string()
                 : "the same plan gave a different event sequence";
    }
    PlanCounts& p = plans_[plan];
    p.event_digest = row.event_digest;
    p.digest_hits = static_cast<double>(row.digest.hits);
    p.digest_lookups = static_cast<double>(row.digest.hits + row.digest.misses +
                                           row.digest.bypasses);
    p.digest_bypass = static_cast<double>(row.digest.bypasses);
    p.locate_hits = static_cast<double>(row.locate.hits);
    p.locates = static_cast<double>(row.locate.hits + row.locate.misses +
                                    row.locate.coalesced);
    p.transport_calls = static_cast<double>(row.locate.transport_calls);
    const xkms::XkmsdStats& r = row.responder;
    p.shed = static_cast<double>(r.shed_queue_full + r.shed_deadline +
                                 r.shed_oversized + r.shed_malformed +
                                 r.shed_fault);
    p.attack_rejected = static_cast<double>(row.attack_rejected);
    p.quarantined_tracks = static_cast<double>(row.quarantined_tracks);
    p.played_clean = static_cast<double>(row.played_clean);
    return {};
  }

  /// Hit ratios over every plan seen; counts as means per Run.
  Counts Totals() const {
    PlanCounts sum;
    for (const auto& [plan, p] : plans_) {
      sum.digest_hits += p.digest_hits;
      sum.digest_lookups += p.digest_lookups;
      sum.digest_bypass += p.digest_bypass;
      sum.locate_hits += p.locate_hits;
      sum.locates += p.locates;
      sum.transport_calls += p.transport_calls;
      sum.shed += p.shed;
      sum.attack_rejected += p.attack_rejected;
      sum.quarantined_tracks += p.quarantined_tracks;
      sum.played_clean += p.played_clean;
    }
    const double runs = static_cast<double>(plans_.size());
    Counts c;
    c["cache.digest_hit_ratio"] =
        sum.digest_lookups > 0 ? sum.digest_hits / sum.digest_lookups : 0;
    c["cache.digest_bypass"] = sum.digest_bypass / runs;
    c["xkms.locate_hit_ratio"] =
        sum.locates > 0 ? sum.locate_hits / sum.locates : 0;
    c["xkms.transport_calls"] = sum.transport_calls / runs;
    c["xkms.responder_shed"] = sum.shed / runs;
    c["sim.attack_rejected"] = sum.attack_rejected / runs;
    c["sim.quarantined_tracks"] = sum.quarantined_tracks / runs;
    c["sim.played_clean"] = sum.played_clean / runs;
    return c;
  }

  const uint64_t seed_;
  std::unique_ptr<World> world_;
  std::unique_ptr<sim::FleetSimulator> simulator_;
  sim::ScenarioSpec spec_;
  std::map<size_t, PlanCounts> plans_;
  size_t next_plan_ = 0;
  std::string digest_;
};

}  // namespace

std::vector<std::string> WorkloadNames() {
  return {"player_mix", "fleet_mixed"};
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "player_mix") return std::make_unique<PlayerMix>(seed);
  if (name == "publish_launch") return std::make_unique<PublishLaunch>(seed);
  if (name == "disc_dense") return std::make_unique<DiscDense>(seed);
  if (name == "fleet_mixed") return std::make_unique<FleetMixed>(seed);
  return nullptr;
}

}  // namespace perfbench
