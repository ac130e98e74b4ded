#include <algorithm>

#include <gtest/gtest.h>

#include "tests/test_world.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace authoring {
namespace {

using testing_world::kNow;
using testing_world::World;

class AuthoringFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { world_ = new World(); }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }

  xmldsig::VerifyOptions Options() {
    static pki::CertStore store = [] {
      pki::CertStore s;
      (void)s.AddTrustedRoot(world_->root_cert);
      return s;
    }();
    xmldsig::VerifyOptions options;
    options.cert_store = &store;
    options.now = kNow;
    return options;
  }

  static World* world_;
};

World* AuthoringFixture::world_ = nullptr;

TEST_F(AuthoringFixture, ResolveSignTargetIds) {
  disc::InteractiveCluster cluster = world_->DemoCluster();
  EXPECT_EQ(
      ResolveSignTargetId(cluster, SignLevel::kTrack, "", "").value(),
      "track-app");
  EXPECT_EQ(
      ResolveSignTargetId(cluster, SignLevel::kManifest, "", "").value(),
      "quiz");
  EXPECT_EQ(
      ResolveSignTargetId(cluster, SignLevel::kMarkupPart, "", "").value(),
      "quiz-markup");
  EXPECT_EQ(
      ResolveSignTargetId(cluster, SignLevel::kCodePart, "", "").value(),
      "quiz-code");
  EXPECT_EQ(
      ResolveSignTargetId(cluster, SignLevel::kScript, "", "main").value(),
      "quiz-script-main");
  EXPECT_EQ(
      ResolveSignTargetId(cluster, SignLevel::kSubMarkup, "", "menu").value(),
      "quiz-sub-menu");
  EXPECT_TRUE(ResolveSignTargetId(cluster, SignLevel::kScript, "", "ghost")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(ResolveSignTargetId(cluster, SignLevel::kTrack, "nope", "")
                  .status()
                  .IsNotFound());
}

/// Every signing level round-trips: build, serialize, re-parse, verify.
class SignLevelTest
    : public AuthoringFixture,
      public ::testing::WithParamInterface<SignLevel> {};

TEST_P(SignLevelTest, SignsAndVerifiesAtLevel) {
  SignLevel level = GetParam();
  std::string name = level == SignLevel::kScript      ? "main"
                     : level == SignLevel::kSubMarkup ? "menu"
                                                      : "";
  Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(), level, "", name);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  auto reparsed = xml::Parse(xml::Serialize(doc.value()));
  ASSERT_TRUE(reparsed.ok());
  auto result =
      xmldsig::Verifier::VerifyFirstSignature(reparsed.value(), Options());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->signer_subject, "CN=Acme Studios Signing");
}

INSTANTIATE_TEST_SUITE_P(
    AllLevels, SignLevelTest,
    ::testing::Values(SignLevel::kCluster, SignLevel::kTrack,
                      SignLevel::kManifest, SignLevel::kMarkupPart,
                      SignLevel::kCodePart, SignLevel::kScript,
                      SignLevel::kSubMarkup),
    [](const ::testing::TestParamInfo<SignLevel>& info) {
      std::string name = SignLevelName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_F(AuthoringFixture, SelectiveSigningScopesTamperDetection) {
  // Fig. 5: signing only the Code part — markup changes pass, code changes
  // fail.
  Author author = world_->MakeAuthor();
  auto doc =
      author.BuildSigned(world_->DemoCluster(), SignLevel::kCodePart);
  ASSERT_TRUE(doc.ok());
  std::string wire = xml::Serialize(doc.value());

  // Tamper the markup (outside the signed scope): still verifies.
  std::string markup_tampered = wire;
  size_t pos = markup_tampered.find("Quiz Night");  // in the script? no:
  // "Quiz Night!" appears in the script source (code part). Use the SMIL
  // region name instead, which lives in the markup part.
  pos = markup_tampered.find("board");
  ASSERT_NE(pos, std::string::npos);
  markup_tampered.replace(pos, 5, "bored");
  auto doc1 = xml::Parse(markup_tampered);
  ASSERT_TRUE(doc1.ok());
  EXPECT_TRUE(
      xmldsig::Verifier::VerifyFirstSignature(doc1.value(), Options()).ok());

  // Tamper the script (inside the signed scope): fails.
  std::string code_tampered = wire;
  pos = code_tampered.find("4200");
  ASSERT_NE(pos, std::string::npos);
  code_tampered.replace(pos, 4, "9999");
  auto doc2 = xml::Parse(code_tampered);
  ASSERT_TRUE(doc2.ok());
  EXPECT_TRUE(
      xmldsig::Verifier::VerifyFirstSignature(doc2.value(), Options())
          .status()
          .IsVerificationFailed());
}

TEST_F(AuthoringFixture, ClusterLevelCatchesEverything) {
  Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(), SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  std::string wire = xml::Serialize(doc.value());
  // Any content change — here the playlist timing — breaks the signature.
  size_t pos = wire.find("out=\"2000\"");
  ASSERT_NE(pos, std::string::npos);
  std::string tampered = wire;
  tampered.replace(pos, 10, "out=\"9000\"");
  auto doc2 = xml::Parse(tampered);
  ASSERT_TRUE(doc2.ok());
  EXPECT_TRUE(
      xmldsig::Verifier::VerifyFirstSignature(doc2.value(), Options())
          .status()
          .IsVerificationFailed());
}

TEST_F(AuthoringFixture, InvalidClusterRefusedAtBuild) {
  disc::InteractiveCluster broken = world_->DemoCluster();
  broken.tracks[0].playlist_id = "ghost";
  Author author = world_->MakeAuthor();
  EXPECT_FALSE(author.BuildSigned(broken, SignLevel::kCluster).ok());
}

TEST_F(AuthoringFixture, ProtectEncryptsNamedTargets) {
  Author author = world_->MakeAuthor();
  Author::ProtectOptions options;
  options.sign = true;
  options.encrypt_ids = {"quiz-code"};  // only the Code part
  options.encryption = world_->MakeEncryptionSpec();
  auto doc =
      author.BuildProtected(world_->DemoCluster(), options, &world_->rng);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  std::string wire = xml::Serialize(doc.value());
  // Script hidden, markup visible: the paper's partial-encryption win.
  EXPECT_EQ(wire.find("scores.submit"), std::string::npos);
  EXPECT_NE(wire.find("root-layout"), std::string::npos);
}

TEST_F(AuthoringFixture, ProtectUnknownIdFails) {
  Author author = world_->MakeAuthor();
  Author::ProtectOptions options;
  options.encrypt_ids = {"no-such-id"};
  options.encryption = world_->MakeEncryptionSpec();
  EXPECT_TRUE(
      author.BuildProtected(world_->DemoCluster(), options, &world_->rng)
          .status()
          .IsNotFound());
}

TEST_F(AuthoringFixture, DualSignerScenario) {
  // Fig. 3 shows both roles signing: "both at the content creators end and
  // at the application authors' end, the applications can be digitally
  // signed". The content creator signs the AV tracks; the application
  // author signs the manifest; the player verifies both independently.
  Rng rng(8181);
  auto app_author_key = crypto::RsaGenerateKeyPair(512, &rng).value();
  pki::CertificateInfo author_info;
  author_info.subject = "CN=Indie App Author";
  author_info.issuer = world_->root_cert.info().subject;
  author_info.serial = 20;
  author_info.not_before = kNow - 1000;
  author_info.not_after = kNow + 1000000;
  author_info.public_key = app_author_key.public_key;
  auto author_cert =
      pki::IssueCertificate(author_info, world_->root_key.private_key)
          .value();

  disc::InteractiveCluster cluster = world_->DemoCluster();
  xml::Document doc = cluster.ToXml();

  // Content creator (the studio) signs the movie track.
  xmldsig::KeyInfoSpec studio_ki;
  studio_ki.certificate_chain = {world_->studio_cert, world_->root_cert};
  xmldsig::Signer studio_signer(
      xmldsig::SigningKey::Rsa(world_->studio_key.private_key), studio_ki);
  ASSERT_TRUE(studio_signer
                  .SignDetached(&doc, doc.FindById("track-movie"),
                                "track-movie", doc.root())
                  .ok());

  // Application author signs the manifest.
  xmldsig::KeyInfoSpec author_ki;
  author_ki.certificate_chain = {author_cert, world_->root_cert};
  xmldsig::Signer author_signer(
      xmldsig::SigningKey::Rsa(app_author_key.private_key), author_ki);
  ASSERT_TRUE(author_signer
                  .SignDetached(&doc, doc.FindById("quiz"), "quiz",
                                doc.root())
                  .ok());

  // Both signatures verify with their own signers.
  auto reparsed = xml::Parse(xml::Serialize(doc)).value();
  auto signatures = xmldsig::Verifier::FindSignatures(reparsed.root());
  ASSERT_EQ(signatures.size(), 2u);
  std::vector<std::string> signers;
  for (xml::Element* sig : signatures) {
    auto result = xmldsig::Verifier::Verify(&reparsed, *sig, Options());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    signers.push_back(result->signer_subject);
  }
  EXPECT_NE(std::find(signers.begin(), signers.end(),
                      "CN=Acme Studios Signing"),
            signers.end());
  EXPECT_NE(std::find(signers.begin(), signers.end(),
                      "CN=Indie App Author"),
            signers.end());

  // The engine (which requires ALL signatures to verify) accepts it once
  // the platform policy also covers the app author's subject...
  player::PlayerConfig config = world_->MakePlayerConfig();
  access::Policy indie_policy;
  indie_policy.id = "indie-authors";
  indie_policy.target.subjects = {"CN=Indie*"};
  access::Rule permit_all;
  permit_all.id = "permit";
  permit_all.effect = access::Decision::kPermit;
  indie_policy.rules = {permit_all};
  config.pdp.AddPolicy(std::move(indie_policy));
  player::InteractiveApplicationEngine engine(std::move(config));
  ASSERT_TRUE(engine
                  .LaunchClusterXml(xml::Serialize(doc),
                                    player::Origin::kNetwork)
                  .ok());
  // ...and rejects it when either signed part is tampered.
  std::string wire = xml::Serialize(doc);
  std::string bad_movie = wire;
  size_t pos = bad_movie.find("playlist=\"pl-main\"");
  ASSERT_NE(pos, std::string::npos);
  bad_movie.replace(pos, 18, "playlist=\"pl-evil\"");
  EXPECT_FALSE(engine
                   .LaunchClusterXml(bad_movie, player::Origin::kNetwork)
                   .ok());
}

TEST_F(AuthoringFixture, MasterProducesCompleteImage) {
  Author author = world_->MakeAuthor();
  disc::InteractiveCluster cluster = world_->DemoCluster();
  auto doc = author.BuildSigned(cluster, SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  auto image = author.Master(cluster, doc.value());
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE(image->Exists(disc::kClusterPath));
  EXPECT_TRUE(image->Exists(cluster.clips[0].ts_path));
  // The mastered TS is structurally valid.
  EXPECT_TRUE(disc::ValidateTransportStream(
                  image->Get(cluster.clips[0].ts_path).value())
                  .ok());
  // And the image round-trips through the pack format.
  auto unpacked = disc::DiscImage::Unpack(image->Pack());
  ASSERT_TRUE(unpacked.ok());
  EXPECT_EQ(unpacked->FileCount(), image->FileCount());
}

TEST_F(AuthoringFixture, AuthoringIsDeterministic) {
  // Equal seeds produce byte-identical protected output — required for
  // reproducible disc mastering (two pressings of the same title must
  // match).
  Author author = world_->MakeAuthor();
  Author::ProtectOptions options;
  options.sign = true;
  options.encrypt_ids = {"quiz"};
  options.encryption = world_->MakeEncryptionSpec();
  Rng rng_a(123);
  Rng rng_b(123);
  auto a = author.BuildProtected(world_->DemoCluster(), options, &rng_a);
  auto b = author.BuildProtected(world_->DemoCluster(), options, &rng_b);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(xml::Serialize(a.value()), xml::Serialize(b.value()));
  // Different seeds give different ciphertext (fresh IVs).
  Rng rng_c(456);
  auto c = author.BuildProtected(world_->DemoCluster(), options, &rng_c);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(xml::Serialize(a.value()), xml::Serialize(c.value()));
}

TEST_F(AuthoringFixture, LayeredSignaturesCompose) {
  // Counter-signing composition: an inner detached signature over the
  // manifest, then an outer enveloped signature over the whole document
  // (which therefore also covers the inner signature).
  disc::InteractiveCluster cluster = world_->DemoCluster();
  xml::Document doc = cluster.ToXml();
  xmldsig::KeyInfoSpec ki;
  ki.certificate_chain = {world_->studio_cert, world_->root_cert};
  xmldsig::Signer signer(
      xmldsig::SigningKey::Rsa(world_->studio_key.private_key), ki);
  ASSERT_TRUE(
      signer.SignDetached(&doc, doc.FindById("quiz"), "quiz", doc.root())
          .ok());
  ASSERT_TRUE(signer.SignEnveloped(&doc, doc.root()).ok());

  auto reparsed = xml::Parse(xml::Serialize(doc)).value();
  auto signatures = xmldsig::Verifier::FindSignatures(reparsed.root());
  ASSERT_EQ(signatures.size(), 2u);
  for (xml::Element* sig : signatures) {
    EXPECT_TRUE(xmldsig::Verifier::Verify(&reparsed, *sig, Options()).ok());
  }

  // Tampering the manifest breaks BOTH layers.
  std::string wire = xml::Serialize(doc);
  std::string tampered = wire;
  size_t pos = tampered.find("4200");
  tampered.replace(pos, 4, "6666");
  auto bad = xml::Parse(tampered).value();
  int failures = 0;
  for (xml::Element* sig :
       xmldsig::Verifier::FindSignatures(bad.root())) {
    if (!xmldsig::Verifier::Verify(&bad, *sig, Options()).ok()) ++failures;
  }
  EXPECT_EQ(failures, 2);

  // Stripping the inner signature breaks the outer one (it covered it).
  auto stripped = xml::Parse(wire).value();
  auto sigs = xmldsig::Verifier::FindSignatures(stripped.root());
  ASSERT_EQ(sigs.size(), 2u);
  // The inner (detached, first added) one is the first in document order
  // among root children... identify by reference URI.
  for (xml::Element* sig : sigs) {
    auto info = xmldsig::Verifier::Verify(&stripped, *sig, Options());
    ASSERT_TRUE(info.ok());
    if (info->reference_uris == std::vector<std::string>{"#quiz"}) {
      sig->parent()->RemoveChild(sig);
      break;
    }
  }
  auto remaining = xmldsig::Verifier::FindSignatures(stripped.root());
  ASSERT_EQ(remaining.size(), 1u);
  EXPECT_TRUE(xmldsig::Verifier::Verify(&stripped, *remaining[0], Options())
                  .status()
                  .IsVerificationFailed());
}

TEST_F(AuthoringFixture, PublishHostsSerializedCluster) {
  Author author = world_->MakeAuthor();
  auto doc = author.BuildSigned(world_->DemoCluster(), SignLevel::kCluster);
  ASSERT_TRUE(doc.ok());
  net::ContentServer server;
  ASSERT_TRUE(author.Publish(&server, "/apps/quiz.xml", doc.value()).ok());
  EXPECT_TRUE(server.Hosts("/apps/quiz.xml"));
  EXPECT_TRUE(author.Publish(nullptr, "/x", doc.value()).IsInvalidArgument());
}

}  // namespace
}  // namespace authoring
}  // namespace discsec
