#ifndef DISCSEC_PERFBENCH_FIXTURE_H_
#define DISCSEC_PERFBENCH_FIXTURE_H_

// The benchmark's fixed world: keys, certificates, the demo cluster, the
// platform policy, a provisioned player, an author, and the fleet
// simulator's environment with its attack corpus. The benchmark owns these
// inputs, so a change elsewhere in the repository cannot change what it
// measures.

#include <string>
#include <vector>

#include "access/policy.h"
#include "authoring/author.h"
#include "common/random.h"
#include "common/status.h"
#include "crypto/rsa.h"
#include "disc/content.h"
#include "pki/cert_store.h"
#include "pki/certificate.h"
#include "pki/key_codec.h"
#include "player/engine.h"
#include "sim/fleet.h"
#include "xmldsig/signer.h"
#include "xmlenc/encryptor.h"

namespace perfbench {

inline constexpr int64_t kNow = 1120000000;  // mid-2005
inline constexpr int64_t kYear = 365LL * 24 * 3600;

/// Root CA, studio signing cert and server cert (RSA-512, from a fixed
/// seed), the content key, and the demo content every workload builds on.
struct World {
  discsec::Rng rng{20050915};
  discsec::crypto::RsaKeyPair root_key;
  discsec::crypto::RsaKeyPair studio_key;
  discsec::crypto::RsaKeyPair server_key;
  discsec::pki::Certificate root_cert;
  discsec::pki::Certificate studio_cert;
  discsec::pki::Certificate server_cert;
  discsec::Bytes disc_content_key;  ///< provisioned AES-128 content key

  World();

  /// One AV track (movie) and one application track (quiz game with layout
  /// markup, a script and a permission request).
  discsec::disc::InteractiveCluster DemoCluster() const;

  /// Acme-signed and disc-resident apps may use graphics, the network and
  /// the scores/ storage area.
  discsec::access::PolicyDecisionPoint MakePdp() const;

  /// A default player provisioned with the root anchor, the platform
  /// policy and the disc content key.
  discsec::player::PlayerConfig MakePlayerConfig() const;

  /// An author holding the studio key and presenting its chain.
  discsec::authoring::Author MakeAuthor() const;

  discsec::xmlenc::EncryptionSpec MakeEncryptionSpec() const;

 private:
  discsec::pki::Certificate MakeRoot();
  discsec::pki::Certificate MakeLeaf(const std::string& subject,
                                     uint64_t serial,
                                     const discsec::crypto::RsaKeyPair& key);
};

/// The simulator's environment over `world`, with the attack corpus: every
/// §5 signing level crossed with every applicable attack class, plus three
/// parser resource bombs (62 discs).
discsec::Result<discsec::sim::FleetEnvironment> MakeFleetEnvironment(
    const World& world);

}  // namespace perfbench

#endif  // DISCSEC_PERFBENCH_FIXTURE_H_
