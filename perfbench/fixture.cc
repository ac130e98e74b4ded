#include "fixture.h"

#include <utility>

#include "xml/parser.h"
#include "xml/serializer.h"

namespace perfbench {

using namespace discsec;

World::World()
    : root_key(crypto::RsaGenerateKeyPair(512, &rng).value()),
      studio_key(crypto::RsaGenerateKeyPair(512, &rng).value()),
      server_key(crypto::RsaGenerateKeyPair(512, &rng).value()),
      root_cert(MakeRoot()),
      studio_cert(MakeLeaf("CN=Acme Studios Signing", 2, studio_key)),
      server_cert(MakeLeaf("CN=cdn.acme.example", 3, server_key)),
      disc_content_key(rng.NextBytes(16)) {}

pki::Certificate World::MakeRoot() {
  pki::CertificateInfo info;
  info.subject = "CN=Disc Player Root CA";
  info.issuer = info.subject;
  info.serial = 1;
  info.not_before = kNow - kYear;
  info.not_after = kNow + 20 * kYear;
  info.is_ca = true;
  info.public_key = root_key.public_key;
  return pki::IssueCertificate(info, root_key.private_key).value();
}

pki::Certificate World::MakeLeaf(const std::string& subject, uint64_t serial,
                                 const crypto::RsaKeyPair& key) {
  pki::CertificateInfo info;
  info.subject = subject;
  info.issuer = root_cert.info().subject;
  info.serial = serial;
  info.not_before = kNow - kYear;
  info.not_after = kNow + 2 * kYear;
  info.public_key = key.public_key;
  return pki::IssueCertificate(info, root_key.private_key).value();
}

disc::InteractiveCluster World::DemoCluster() const {
  disc::InteractiveCluster cluster;
  cluster.id = "feature-disc";
  cluster.title = "Feature Film + Quiz Game";

  disc::ClipInfo clip;
  clip.id = "clip-main";
  clip.ts_path = std::string(disc::kStreamDir) + "00001.m2ts";
  clip.duration_ms = 2000;
  cluster.clips.push_back(clip);

  disc::Playlist playlist;
  playlist.id = "pl-main";
  playlist.items.push_back({"clip-main", 0, 2000});
  cluster.playlists.push_back(playlist);

  disc::Track movie;
  movie.id = "track-movie";
  movie.kind = disc::Track::Kind::kAudioVideo;
  movie.playlist_id = "pl-main";
  cluster.tracks.push_back(movie);

  disc::Track app;
  app.id = "track-app";
  app.kind = disc::Track::Kind::kApplication;
  app.manifest.id = "quiz";
  app.manifest.markups.push_back(
      {"menu", "layout",
       "<smil><head><layout>"
       "<root-layout width=\"1920\" height=\"1080\"/>"
       "<region id=\"title\" left=\"60\" top=\"40\" width=\"800\" "
       "height=\"120\"/>"
       "<region id=\"board\" left=\"60\" top=\"200\" width=\"1800\" "
       "height=\"800\"/>"
       "</layout></head>"
       "<body><par dur=\"indefinite\">"
       "<img region=\"title\" src=\"title.png\"/>"
       "<text region=\"board\" src=\"questions.txt\"/>"
       "</par></body></smil>"});
  app.manifest.scripts.push_back(
      {"main",
       "var round = 0;\n"
       "function onLoad() {\n"
       "  ui.drawText('title', 'Quiz Night!');\n"
       "  scores.submit('alice', 4200);\n"
       "  scores.submit('bob', 3100);\n"
       "  print('best score: ' + scores.best());\n"
       "  return scores.best();\n"
       "}\n"});
  app.manifest.permission_request_xml =
      "<permissionrequestfile appid=\"0x4501\" orgid=\"acme.example\">"
      "<localstorage path=\"scores/\" access=\"readwrite\"/>"
      "<graphics plane=\"true\"/>"
      "</permissionrequestfile>";
  cluster.tracks.push_back(app);
  return cluster;
}

access::PolicyDecisionPoint World::MakePdp() const {
  access::PolicyDecisionPoint pdp;
  access::Policy policy;
  policy.id = "platform-policy";
  policy.target.subjects = {"CN=Acme*", "disc:*"};
  access::Rule storage;
  storage.id = "storage-scores";
  storage.effect = access::Decision::kPermit;
  storage.target.resources = {"localstorage"};
  storage.conditions.push_back(
      {"path", access::Condition::Op::kPrefix, "scores/"});
  access::Rule graphics;
  graphics.id = "graphics";
  graphics.effect = access::Decision::kPermit;
  graphics.target.resources = {"graphics"};
  access::Rule network;
  network.id = "network";
  network.effect = access::Decision::kPermit;
  network.target.resources = {"network"};
  policy.rules = {storage, graphics, network};
  pdp.AddPolicy(std::move(policy));
  return pdp;
}

player::PlayerConfig World::MakePlayerConfig() const {
  player::PlayerConfig config;
  (void)config.trust.AddTrustedRoot(root_cert);
  config.pdp = MakePdp();
  config.keys.AddKey("disc-content-key", disc_content_key);
  config.now = kNow;
  return config;
}

authoring::Author World::MakeAuthor() const {
  xmldsig::KeyInfoSpec key_info;
  key_info.certificate_chain = {studio_cert, root_cert};
  key_info.key_name = pki::KeyFingerprint(studio_key.public_key);
  return authoring::Author(xmldsig::SigningKey::Rsa(studio_key.private_key),
                           key_info);
}

xmlenc::EncryptionSpec World::MakeEncryptionSpec() const {
  xmlenc::EncryptionSpec spec;
  spec.content_key = disc_content_key;
  spec.key_mode = xmlenc::KeyMode::kDirectReference;
  spec.key_name = "disc-content-key";
  return spec;
}

// ---------------------------------------------------------------------------
// Attack corpus
// ---------------------------------------------------------------------------

namespace {

using authoring::SignLevel;
using Route = sim::AttackDisc::Route;

/// A §5 signing scenario; `part_name` selects the script or SubMarkup of
/// the fragment-level ones.
struct Scenario {
  SignLevel level;
  const char* part_name;
};

constexpr Scenario kScenarios[] = {
    {SignLevel::kCluster, ""},   {SignLevel::kTrack, ""},
    {SignLevel::kManifest, ""},  {SignLevel::kMarkupPart, ""},
    {SignLevel::kCodePart, ""},  {SignLevel::kScript, "main"},
    {SignLevel::kSubMarkup, "menu"},
};

Status MissingAnchor(const std::string& anchor) {
  return Status::NotFound("attack corpus: anchor '" + anchor +
                          "' missing from the signed document");
}

/// The pristine signed demo cluster of one scenario, serialized.
Result<std::string> PristineWire(const World& world,
                                 const Scenario& scenario) {
  authoring::Author author = world.MakeAuthor();
  DISCSEC_ASSIGN_OR_RETURN(
      xml::Document doc,
      author.BuildSigned(world.DemoCluster(), scenario.level, "",
                         scenario.part_name));
  return xml::Serialize(doc);
}

Result<std::string> ReplaceOnce(std::string s, const std::string& find,
                                const std::string& replace) {
  const size_t pos = s.find(find);
  if (pos == std::string::npos) return MissingAnchor(find);
  s.replace(pos, find.size(), replace);
  return s;
}

/// Inserts `fragment` right after the root element's opening tag.
Result<std::string> InsertAfterRootOpen(std::string s,
                                        const std::string& fragment) {
  const size_t root = s.find("<cluster");
  const size_t end = root == std::string::npos ? root : s.find('>', root);
  if (end == std::string::npos) return MissingAnchor("<cluster");
  s.insert(end + 1, fragment);
  return s;
}

/// Flips the first base64 character after `tag` to another one.
Result<std::string> FlipBase64After(std::string s, const std::string& tag) {
  const size_t pos = s.find(tag);
  if (pos == std::string::npos) return MissingAnchor(tag);
  char& c = s[pos + tag.size()];
  c = c == 'A' ? 'B' : 'A';
  return s;
}

/// Removes 4 base64 characters after `tag`: still valid base64, but 3
/// bytes short of the modulus.
Result<std::string> TruncateBase64After(std::string s,
                                        const std::string& tag) {
  const size_t pos = s.find(tag);
  if (pos == std::string::npos) return MissingAnchor(tag);
  s.erase(pos + tag.size(), 4);
  return s;
}

/// The attacker's own application track, put before the signed one so the
/// engine would run it first.
constexpr char kEvilTrack[] =
    "<track Id=\"track-evil\" kind=\"application\">"
    "<manifest Id=\"evil\"><markup Id=\"evil-markup\"/>"
    "<code Id=\"evil-code\"><script Id=\"evil-s\" name=\"main\">"
    "var pwned = true;</script></code>"
    "<permissions Id=\"evil-p\">"
    "&lt;permissionrequestfile appid=\"0\" orgid=\"evil\"/&gt;"
    "</permissions></manifest></track>";

sim::AttackDisc Make(const Scenario& scenario, const std::string& attack_class,
                     Route route, std::string xml, Status::Code code,
                     const std::string& substring) {
  sim::AttackDisc out;
  out.name =
      std::string(authoring::SignLevelName(scenario.level)) + "/" +
      attack_class;
  out.attack_class = attack_class;
  out.route = route;
  out.xml = std::move(xml);
  out.expected_code = code;
  out.expected_substring = substring;
  return out;
}

Result<std::vector<sim::AttackDisc>> BuildAttackCorpus(const World& world) {
  std::vector<sim::AttackDisc> corpus;
  constexpr Status::Code kVerify = Status::Code::kVerificationFailed;
  constexpr Status::Code kExhausted = Status::Code::kResourceExhausted;
  std::string xml;

  for (const Scenario& scenario : kScenarios) {
    DISCSEC_ASSIGN_OR_RETURN(const std::string wire,
                             PristineWire(world, scenario));

    DISCSEC_ASSIGN_OR_RETURN(xml, FlipBase64After(wire, "<ds:DigestValue>"));
    corpus.push_back(Make(scenario, "digest-tamper", Route::kVerifier, xml,
                          kVerify, "digest mismatch"));

    // Content tamper inside the signed region: widen the board region of
    // the layout markup, or inflate a score in the quiz script.
    const bool markup = scenario.level == SignLevel::kMarkupPart ||
                        scenario.level == SignLevel::kSubMarkup;
    DISCSEC_ASSIGN_OR_RETURN(xml, ReplaceOnce(wire, markup ? "1800" : "4200",
                                              markup ? "1801" : "9999"));
    corpus.push_back(Make(scenario, "content-tamper", Route::kVerifier, xml,
                          kVerify, "digest mismatch"));

    DISCSEC_ASSIGN_OR_RETURN(
        xml, ReplaceOnce(wire, "<ds:SignatureMethod Algorithm=",
                         "<ds:SignatureMethod Extra=\"x\" Algorithm="));
    corpus.push_back(Make(scenario, "signedinfo-tamper", Route::kVerifier,
                          xml, kVerify, "RSA signature mismatch"));

    DISCSEC_ASSIGN_OR_RETURN(
        xml, ReplaceOnce(wire, "xmldsig#rsa-sha1", "xmldsig#hmac-sha1"));
    corpus.push_back(Make(scenario, "algorithm-substitution",
                          Route::kVerifier, xml, kVerify, "shared secret"));

    DISCSEC_ASSIGN_OR_RETURN(
        xml, TruncateBase64After(wire, "<ds:SignatureValue>"));
    corpus.push_back(Make(scenario, "signature-truncation", Route::kVerifier,
                          xml, kVerify, "signature length mismatch"));

    DISCSEC_ASSIGN_OR_RETURN(
        xml, ReplaceOnce(wire, "<ds:Transforms>",
                         "<ds:Transforms><ds:Transform Algorithm=\""
                         "http://www.w3.org/TR/1999/REC-xpath-19991116\">"
                         "<ds:XPath>//*[@Id='track-evil']</ds:XPath>"
                         "</ds:Transform>"));
    corpus.push_back(Make(scenario, "xpath-transform-relocation",
                          Route::kVerifier, xml, Status::Code::kUnsupported,
                          "transform algorithm"));

    DISCSEC_ASSIGN_OR_RETURN(
        xml,
        ReplaceOnce(wire, "<cluster", "<cluster xmlns:atk=\"urn:evil:wrap\""));
    corpus.push_back(Make(scenario, "namespace-injection-wrapping",
                          Route::kVerifier, xml, kVerify, "digest mismatch"));

    // Detached scenarios: a decoy declares the referenced Id again.
    if (scenario.level != SignLevel::kCluster) {
      DISCSEC_ASSIGN_OR_RETURN(
          std::string id,
          authoring::ResolveSignTargetId(world.DemoCluster(), scenario.level,
                                         "", scenario.part_name));
      DISCSEC_ASSIGN_OR_RETURN(
          xml, InsertAfterRootOpen(wire, "<decoy Id=\"" + id + "\"/>"));
      corpus.push_back(Make(scenario, "duplicate-id-wrapping",
                            Route::kVerifier, xml, kVerify, "ambiguous"));
    }

    // Player route: the signed element stays intact, but the engine would
    // run the attacker's earlier track.
    if (scenario.level == SignLevel::kTrack ||
        scenario.level == SignLevel::kManifest) {
      DISCSEC_ASSIGN_OR_RETURN(
          xml, ReplaceOnce(wire, "<track Id=\"track-app\"",
                           std::string(kEvilTrack) +
                               "<track Id=\"track-app\""));
      corpus.push_back(Make(scenario, "reference-relocation", Route::kPlayer,
                            xml, kVerify, "not covered"));
    }
  }

  // Parser resource bombs on the whole-cluster scenario, through the full
  // player, whose parse limits are the defense.
  const Scenario cluster = kScenarios[0];
  DISCSEC_ASSIGN_OR_RETURN(const std::string wire,
                           PristineWire(world, cluster));
  const xml::ParseOptions limits;
  {
    std::string run;
    const size_t refs = limits.max_entity_output + 1;
    run.reserve(refs * 5);
    for (size_t i = 0; i < refs; ++i) run += "&#65;";
    DISCSEC_ASSIGN_OR_RETURN(xml, InsertAfterRootOpen(wire, run));
    corpus.push_back(Make(cluster, "entity-expansion-bomb", Route::kPlayer,
                          xml, kExhausted, "entity expansion"));
  }
  {
    std::string open, close;
    for (size_t i = 0; i < limits.max_depth + 2; ++i) {
      open += "<z>";
      close += "</z>";
    }
    DISCSEC_ASSIGN_OR_RETURN(xml, InsertAfterRootOpen(wire, open + close));
    corpus.push_back(Make(cluster, "deep-nesting-bomb", Route::kPlayer, xml,
                          kExhausted, "max_depth"));
  }
  {
    std::string bomb = "<z";
    for (size_t i = 0; i < limits.max_attributes + 1; ++i) {
      bomb += " a" + std::to_string(i) + "=\"x\"";
    }
    bomb += "/>";
    DISCSEC_ASSIGN_OR_RETURN(xml, InsertAfterRootOpen(wire, bomb));
    corpus.push_back(Make(cluster, "attribute-list-bomb", Route::kPlayer, xml,
                          kExhausted, "max_attributes"));
  }
  return corpus;
}

}  // namespace

Result<sim::FleetEnvironment> MakeFleetEnvironment(const World& world) {
  sim::FleetEnvironment env;
  env.cluster = world.DemoCluster();
  env.signing_key = xmldsig::SigningKey::Rsa(world.studio_key.private_key);
  env.key_info.certificate_chain = {world.studio_cert, world.root_cert};
  env.key_info.key_name = pki::KeyFingerprint(world.studio_key.public_key);
  env.root_cert = world.root_cert;
  env.studio_key_name = env.key_info.key_name;
  env.studio_public_key = world.studio_key.public_key;
  env.pdp = world.MakePdp();
  env.content_key = world.disc_content_key;
  env.encryption = world.MakeEncryptionSpec();
  env.now = kNow;
  DISCSEC_ASSIGN_OR_RETURN(env.attacks, BuildAttackCorpus(world));
  return env;
}

}  // namespace perfbench
