#include "crypto/rsa.h"

#include "crypto/algorithms.h"

namespace discsec {
namespace crypto {

namespace {

/// ASN.1 DER DigestInfo prefixes for EMSA-PKCS1-v1_5 (RFC 3447 §9.2).
Result<Bytes> DigestInfoPrefix(const std::string& digest_algorithm_uri) {
  if (digest_algorithm_uri == kAlgSha1) {
    return Bytes{0x30, 0x21, 0x30, 0x09, 0x06, 0x05, 0x2b, 0x0e,
                 0x03, 0x02, 0x1a, 0x05, 0x00, 0x04, 0x14};
  }
  if (digest_algorithm_uri == kAlgSha256) {
    return Bytes{0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48,
                 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05, 0x00, 0x04,
                 0x20};
  }
  return Status::Unsupported("no DigestInfo for " + digest_algorithm_uri);
}

/// EMSA-PKCS1-v1_5 encoding: 0x00 0x01 FF..FF 0x00 || DigestInfo || digest.
Result<Bytes> EmsaPkcs1Encode(const std::string& digest_algorithm_uri,
                              const Bytes& digest, size_t em_len) {
  DISCSEC_ASSIGN_OR_RETURN(Bytes prefix,
                           DigestInfoPrefix(digest_algorithm_uri));
  size_t t_len = prefix.size() + digest.size();
  if (em_len < t_len + 11) {
    return Status::InvalidArgument("RSA modulus too small for digest");
  }
  Bytes em;
  em.reserve(em_len);
  em.push_back(0x00);
  em.push_back(0x01);
  em.insert(em.end(), em_len - t_len - 3, 0xff);
  em.push_back(0x00);
  Append(&em, prefix);
  Append(&em, digest);
  return em;
}

}  // namespace

Result<RsaKeyPair> RsaGenerateKeyPair(size_t bits, Rng* rng) {
  if (bits < 256 || bits % 2 != 0) {
    return Status::InvalidArgument("RSA modulus must be >= 256 bits, even");
  }
  const BigInt e(65537);
  for (;;) {
    BigInt p = BigInt::GeneratePrime(bits / 2, rng);
    BigInt q = BigInt::GeneratePrime(bits / 2, rng);
    if (p == q) continue;
    if (p < q) std::swap(p, q);
    BigInt n = p * q;
    if (n.BitLength() != bits) continue;
    BigInt phi = (p - BigInt(1)) * (q - BigInt(1));
    if (BigInt::Gcd(e, phi) != BigInt(1)) continue;
    auto d_result = BigInt::ModInverse(e, phi);
    if (!d_result.ok()) continue;
    BigInt d = std::move(d_result).value();

    RsaPrivateKey priv;
    priv.modulus = n;
    priv.public_exponent = e;
    priv.private_exponent = d;
    priv.prime_p = p;
    priv.prime_q = q;
    DISCSEC_ASSIGN_OR_RETURN(priv.exponent_dp, d.Mod(p - BigInt(1)));
    DISCSEC_ASSIGN_OR_RETURN(priv.exponent_dq, d.Mod(q - BigInt(1)));
    DISCSEC_ASSIGN_OR_RETURN(priv.coefficient, BigInt::ModInverse(q, p));

    RsaKeyPair pair;
    pair.private_key = priv;
    pair.public_key = priv.PublicKey();
    return pair;
  }
}

Result<BigInt> RsaPrivateOp(const RsaPrivateKey& key, const BigInt& m) {
  if (m >= key.modulus) {
    return Status::InvalidArgument("message representative out of range");
  }
  // CRT: m1 = m^dp mod p, m2 = m^dq mod q, h = qInv (m1 - m2) mod p,
  // s = m2 + h q. Adding p first keeps the difference non-negative for
  // generated keys (p > q > m2), so Mod never takes its negative-operand
  // path. The additions, subtraction and Mod here are still variable-time.
  DISCSEC_ASSIGN_OR_RETURN(
      BigInt m1, BigInt::ModPow(m, key.exponent_dp, key.prime_p));
  DISCSEC_ASSIGN_OR_RETURN(
      BigInt m2, BigInt::ModPow(m, key.exponent_dq, key.prime_q));
  DISCSEC_ASSIGN_OR_RETURN(
      BigInt h, (key.coefficient * (m1 + key.prime_p - m2)).Mod(key.prime_p));
  return m2 + h * key.prime_q;
}

Result<Bytes> RsaSignDigest(const RsaPrivateKey& key,
                            const std::string& digest_algorithm_uri,
                            const Bytes& digest) {
  size_t k = key.ModulusBytes();
  DISCSEC_ASSIGN_OR_RETURN(Bytes em,
                           EmsaPkcs1Encode(digest_algorithm_uri, digest, k));
  BigInt m = BigInt::FromBytesBE(em);
  DISCSEC_ASSIGN_OR_RETURN(BigInt s, RsaPrivateOp(key, m));
  return s.ToBytesBE(k);
}

Status RsaVerifyDigest(const RsaPublicKey& key,
                       const std::string& digest_algorithm_uri,
                       const Bytes& digest, const Bytes& signature) {
  size_t k = key.ModulusBytes();
  if (signature.size() != k) {
    return Status::VerificationFailed("signature length mismatch");
  }
  BigInt s = BigInt::FromBytesBE(signature);
  if (s >= key.modulus) {
    return Status::VerificationFailed("signature out of range");
  }
  auto m_result = BigInt::ModPow(s, key.exponent, key.modulus);
  if (!m_result.ok()) {
    return Status::VerificationFailed("RSA op failed: " +
                                      m_result.status().message());
  }
  auto em_result = m_result.value().ToBytesBE(k);
  if (!em_result.ok()) {
    return Status::VerificationFailed("bad representative");
  }
  auto expected = EmsaPkcs1Encode(digest_algorithm_uri, digest, k);
  if (!expected.ok()) return expected.status();
  if (!ConstantTimeEquals(em_result.value(), expected.value())) {
    return Status::VerificationFailed("RSA signature mismatch");
  }
  return Status::OK();
}

Result<Bytes> RsaEncrypt(const RsaPublicKey& key, const Bytes& message,
                         Rng* rng) {
  size_t k = key.ModulusBytes();
  if (message.size() + 11 > k) {
    return Status::InvalidArgument("message too long for RSA modulus");
  }
  // EME-PKCS1-v1_5: 0x00 0x02 PS 0x00 M, PS = nonzero random padding.
  Bytes em;
  em.reserve(k);
  em.push_back(0x00);
  em.push_back(0x02);
  size_t ps_len = k - message.size() - 3;
  for (size_t i = 0; i < ps_len; ++i) {
    uint8_t b;
    do {
      b = static_cast<uint8_t>(rng->NextUint64());
    } while (b == 0);
    em.push_back(b);
  }
  em.push_back(0x00);
  Append(&em, message);
  BigInt m = BigInt::FromBytesBE(em);
  DISCSEC_ASSIGN_OR_RETURN(BigInt c,
                           BigInt::ModPow(m, key.exponent, key.modulus));
  return c.ToBytesBE(k);
}

Result<Bytes> RsaDecrypt(const RsaPrivateKey& key, const Bytes& ciphertext) {
  size_t k = key.ModulusBytes();
  if (ciphertext.size() != k) {
    return Status::Corruption("RSA ciphertext length mismatch");
  }
  BigInt c = BigInt::FromBytesBE(ciphertext);
  if (c >= key.modulus) {
    return Status::Corruption("RSA ciphertext out of range");
  }
  DISCSEC_ASSIGN_OR_RETURN(BigInt m, RsaPrivateOp(key, c));
  DISCSEC_ASSIGN_OR_RETURN(Bytes em, m.ToBytesBE(k));
  if (em.size() < 11 || em[0] != 0x00 || em[1] != 0x02) {
    return Status::CryptoError("RSA decryption padding invalid");
  }
  size_t i = 2;
  while (i < em.size() && em[i] != 0x00) ++i;
  if (i < 10 || i == em.size()) {
    return Status::CryptoError("RSA decryption padding invalid");
  }
  return Bytes(em.begin() + i + 1, em.end());
}

}  // namespace crypto
}  // namespace discsec
