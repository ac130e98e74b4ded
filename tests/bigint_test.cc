#include <gtest/gtest.h>

#include "bench/alloc_tracker.h"
#include "crypto/algorithms.h"
#include "crypto/bigint.h"
#include "crypto/rsa.h"
#include "crypto/sha256.h"

namespace discsec {
namespace crypto {
namespace {

TEST(BigIntTest, ZeroProperties) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsNegative());
  EXPECT_EQ(z.BitLength(), 0u);
  EXPECT_TRUE(z.ToBytesBE().empty());
  EXPECT_EQ(z.ToDecimalString(), "0");
}

TEST(BigIntTest, FromUint64) {
  BigInt v(0x0123456789abcdefULL);
  EXPECT_EQ(v.ToDecimalString(), "81985529216486895");
  EXPECT_EQ(v.BitLength(), 57u);
}

TEST(BigIntTest, BytesRoundTrip) {
  Bytes in = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
  BigInt v = BigInt::FromBytesBE(in);
  EXPECT_EQ(v.ToBytesBE(), in);
}

TEST(BigIntTest, LeadingZerosIgnored) {
  Bytes in = {0x00, 0x00, 0x12, 0x34};
  BigInt v = BigInt::FromBytesBE(in);
  EXPECT_EQ(v.ToBytesBE(), Bytes({0x12, 0x34}));
  auto padded = v.ToBytesBE(4);
  ASSERT_TRUE(padded.ok());
  EXPECT_EQ(padded.value(), in);
}

TEST(BigIntTest, ToBytesFixedLengthFails) {
  BigInt v(0x123456);
  EXPECT_FALSE(v.ToBytesBE(2).ok());
}

TEST(BigIntTest, DecimalStringRoundTrip) {
  const char* cases[] = {"0", "1", "-1", "4294967295", "4294967296",
                         "18446744073709551616",
                         "340282366920938463463374607431768211455"};
  for (const char* c : cases) {
    auto v = BigInt::FromDecimalString(c);
    ASSERT_TRUE(v.ok()) << c;
    EXPECT_EQ(v.value().ToDecimalString(), c);
  }
}

TEST(BigIntTest, FromDecimalRejectsBadInput) {
  EXPECT_FALSE(BigInt::FromDecimalString("").ok());
  EXPECT_FALSE(BigInt::FromDecimalString("12a").ok());
  EXPECT_FALSE(BigInt::FromDecimalString("-").ok());
}

TEST(BigIntTest, AdditionWithCarryChain) {
  auto a = BigInt::FromDecimalString("18446744073709551615").value();  // 2^64-1
  BigInt one(1);
  EXPECT_EQ((a + one).ToDecimalString(), "18446744073709551616");
}

TEST(BigIntTest, SignedArithmetic) {
  BigInt a(5);
  BigInt b(9);
  EXPECT_EQ((a - b).ToDecimalString(), "-4");
  EXPECT_EQ(((a - b) + b).ToDecimalString(), "5");
  EXPECT_EQ((-(a - b)).ToDecimalString(), "4");
  EXPECT_EQ(((a - b) * b).ToDecimalString(), "-36");
  EXPECT_EQ(((a - b) * (a - b)).ToDecimalString(), "16");
}

TEST(BigIntTest, CompareRespectsSign) {
  BigInt neg = BigInt(1) - BigInt(10);
  EXPECT_LT(neg, BigInt(0));
  EXPECT_LT(neg, BigInt(1));
  EXPECT_GT(BigInt(3), neg);
}

TEST(BigIntTest, MultiplicationKnownValue) {
  auto a = BigInt::FromDecimalString("123456789012345678901234567890").value();
  auto b = BigInt::FromDecimalString("987654321098765432109876543210").value();
  EXPECT_EQ((a * b).ToDecimalString(),
            "121932631137021795226185032733622923332237463801111263526900");
}

TEST(BigIntTest, DivModKnownValue) {
  auto a = BigInt::FromDecimalString("121932631137021795226185032733622923"
                                     "332237463801111263526900")
               .value();
  auto b = BigInt::FromDecimalString("987654321098765432109876543210").value();
  BigInt q, r;
  ASSERT_TRUE(a.DivMod(b, &q, &r).ok());
  EXPECT_EQ(q.ToDecimalString(), "123456789012345678901234567890");
  EXPECT_TRUE(r.IsZero());
}

TEST(BigIntTest, DivModByZeroFails) {
  BigInt q, r;
  EXPECT_FALSE(BigInt(5).DivMod(BigInt(), &q, &r).ok());
}

TEST(BigIntTest, DivModRandomizedInvariant) {
  // Property: for random a, b: a == q*b + r, 0 <= r < b.
  Rng rng(42);
  for (int i = 0; i < 200; ++i) {
    size_t abits = 1 + rng.NextBelow(512);
    size_t bbits = 1 + rng.NextBelow(256);
    BigInt a = BigInt::RandomWithBits(abits, &rng);
    BigInt b = BigInt::RandomWithBits(bbits, &rng);
    BigInt q, r;
    ASSERT_TRUE(a.DivMod(b, &q, &r).ok());
    EXPECT_EQ(q * b + r, a) << "iteration " << i;
    EXPECT_LT(r, b);
    EXPECT_FALSE(r.IsNegative());
  }
}

TEST(BigIntTest, ShiftLeftRightInverse) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    BigInt v = BigInt::RandomWithBits(1 + rng.NextBelow(300), &rng);
    size_t s = rng.NextBelow(100);
    EXPECT_EQ(v.ShiftLeft(s).ShiftRight(s), v);
  }
}

TEST(BigIntTest, ModNegativeDividendNonNegativeResult) {
  BigInt a = BigInt(3) - BigInt(10);  // -7
  auto m = a.Mod(BigInt(5));
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m.value().ToDecimalString(), "3");
}

TEST(BigIntTest, ModPowSmallKnownValues) {
  // 4^13 mod 497 = 445.
  auto r = BigInt::ModPow(BigInt(4), BigInt(13), BigInt(497));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().ToDecimalString(), "445");
  // x^0 = 1.
  EXPECT_EQ(BigInt::ModPow(BigInt(12345), BigInt(0), BigInt(7)).value(),
            BigInt(1));
}

TEST(BigIntTest, ModPowFermat) {
  // Fermat's little theorem: a^(p-1) ≡ 1 mod p for prime p, gcd(a,p)=1.
  BigInt p(1000003);
  for (uint64_t a : {2ULL, 3ULL, 65537ULL, 999999ULL}) {
    auto r = BigInt::ModPow(BigInt(a), p - BigInt(1), p);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value(), BigInt(1)) << a;
  }
}

TEST(BigIntTest, ModInverseKnownValue) {
  auto inv = BigInt::ModInverse(BigInt(3), BigInt(11));
  ASSERT_TRUE(inv.ok());
  EXPECT_EQ(inv.value().ToDecimalString(), "4");
}

TEST(BigIntTest, ModInverseFailsWhenNotCoprime) {
  EXPECT_FALSE(BigInt::ModInverse(BigInt(6), BigInt(9)).ok());
}

TEST(BigIntTest, ModInverseRandomizedInvariant) {
  Rng rng(5);
  BigInt m = BigInt::GeneratePrime(128, &rng);
  for (int i = 0; i < 50; ++i) {
    BigInt a = BigInt::RandomBelow(m - BigInt(1), &rng) + BigInt(1);
    auto inv = BigInt::ModInverse(a, m);
    ASSERT_TRUE(inv.ok());
    EXPECT_EQ((a * inv.value()).Mod(m).value(), BigInt(1));
  }
}

TEST(BigIntTest, GcdKnownValues) {
  EXPECT_EQ(BigInt::Gcd(BigInt(48), BigInt(36)), BigInt(12));
  EXPECT_EQ(BigInt::Gcd(BigInt(17), BigInt(5)), BigInt(1));
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(9)), BigInt(9));
}

TEST(BigIntTest, RandomWithBitsHasExactBitLength) {
  Rng rng(3);
  for (size_t bits : {1u, 31u, 32u, 33u, 255u, 256u, 512u}) {
    BigInt v = BigInt::RandomWithBits(bits, &rng);
    EXPECT_EQ(v.BitLength(), bits);
  }
}

TEST(BigIntTest, PrimalityKnownPrimes) {
  Rng rng(11);
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 65537ULL, 1000003ULL, 2147483647ULL}) {
    EXPECT_TRUE(BigInt::IsProbablePrime(BigInt(p), 20, &rng)) << p;
  }
}

TEST(BigIntTest, PrimalityKnownComposites) {
  Rng rng(11);
  // Includes Carmichael numbers 561, 41041, strong pseudoprime candidates.
  for (uint64_t c : {1ULL, 4ULL, 561ULL, 41041ULL, 1000001ULL,
                     2147483649ULL}) {
    EXPECT_FALSE(BigInt::IsProbablePrime(BigInt(c), 20, &rng)) << c;
  }
}

TEST(BigIntTest, GeneratePrimeIsPrimeAndRightSize) {
  Rng rng(23);
  BigInt p = BigInt::GeneratePrime(128, &rng);
  EXPECT_EQ(p.BitLength(), 128u);
  EXPECT_TRUE(BigInt::IsProbablePrime(p, 30, &rng));
}

// ---------------------------------------------- ModPow differential tests

/// Left-to-right square-and-multiply from public BigInt operations only:
/// the oracle the Montgomery ModPow is checked against.
BigInt NaiveModPow(const BigInt& base, const BigInt& exponent,
                   const BigInt& modulus) {
  BigInt acc = BigInt(1).Mod(modulus).value();
  BigInt b = base.Mod(modulus).value();
  for (size_t i = exponent.BitLength(); i-- > 0;) {
    acc = (acc * acc).Mod(modulus).value();
    if (exponent.Bit(i)) acc = (acc * b).Mod(modulus).value();
  }
  return acc;
}

void ExpectMatchesOracle(const BigInt& base, const BigInt& exponent,
                         const BigInt& modulus) {
  auto got = BigInt::ModPow(base, exponent, modulus);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value(), NaiveModPow(base, exponent, modulus))
      << "base " << base.ToDecimalString() << " exponent "
      << exponent.ToDecimalString() << " modulus "
      << modulus.ToDecimalString();
}

/// A modulus of exactly `bits` bits with the requested parity (an even
/// one needs bits >= 2).
BigInt ModulusWithBits(size_t bits, bool odd, Rng* rng) {
  BigInt m = BigInt::RandomWithBits(bits, rng);
  if (m.IsOdd() == odd) return m;
  return odd ? m + BigInt(1) : m - BigInt(1);
}

TEST(ModPowDifferentialTest, RandomOddAndEvenModuliMatchNaiveLoop) {
  // Widths straddling every 64-bit boundary the Montgomery limbs cross,
  // plus seeded random widths up to 2048 bits, each with both parities.
  std::vector<size_t> widths = {1,   2,   31,  32,  33,   63,   64,
                                65,  127, 128, 129, 511,  512,  513,
                                1023, 1024, 1025, 2047, 2048};
  Rng rng(20050915);
  for (int i = 0; i < 40; ++i) widths.push_back(1 + rng.NextBelow(2048));
  for (size_t bits : widths) {
    for (bool odd : {true, false}) {
      if (bits == 1 && !odd) continue;  // the only 1-bit modulus is 1
      BigInt m = ModulusWithBits(bits, odd, &rng);
      // Bases both below and well above the modulus; exponents of 0 to
      // 192 bits (the oracle's cost grows with width times exponent).
      BigInt below = BigInt::RandomBelow(m, &rng);
      BigInt above = BigInt::RandomWithBits(bits + 1 + rng.NextBelow(96),
                                            &rng);
      BigInt e = BigInt::RandomWithBits(rng.NextBelow(193), &rng);
      SCOPED_TRACE(testing::Message() << bits << "-bit "
                                      << (odd ? "odd" : "even"));
      ExpectMatchesOracle(below, e, m);
      ExpectMatchesOracle(above, e, m);
    }
  }
}

TEST(ModPowDifferentialTest, EdgeCases) {
  Rng rng(7);
  BigInt m = ModulusWithBits(200, /*odd=*/true, &rng);
  BigInt e = BigInt::RandomWithBits(150, &rng);
  // Base >= modulus, including exact multiples of it.
  ExpectMatchesOracle(m, e, m);
  ExpectMatchesOracle(m * BigInt(3) + BigInt(5), e, m);
  // Base 0: 0^e = 0, 0^0 = 1.
  ExpectMatchesOracle(BigInt(), e, m);
  EXPECT_EQ(BigInt::ModPow(BigInt(), BigInt(), m).value(), BigInt(1));
  // Exponent 0.
  ExpectMatchesOracle(BigInt(12345), BigInt(), m);
  EXPECT_EQ(BigInt::ModPow(BigInt(12345), BigInt(), m).value(), BigInt(1));
  // Modulus 1: everything is 0.
  for (const BigInt& x : {BigInt(), BigInt(1), BigInt(99), m}) {
    EXPECT_EQ(BigInt::ModPow(x, e, BigInt(1)).value(), BigInt());
    EXPECT_EQ(BigInt::ModPow(x, BigInt(), BigInt(1)).value(), BigInt());
  }
  // All-ones top 64-bit limb: 2^256 - 1 and 2^192 - 2^128 + odd low limbs.
  BigInt all_ones = BigInt(1).ShiftLeft(256) - BigInt(1);
  ExpectMatchesOracle(BigInt::RandomBelow(all_ones, &rng), e, all_ones);
  BigInt top_ones = (BigInt(~0ULL).ShiftLeft(128)) +
                    ModulusWithBits(127, /*odd=*/true, &rng);
  ExpectMatchesOracle(BigInt::RandomBelow(top_ones, &rng), e, top_ones);
  // One limb past a 64-bit boundary: the top 64-bit limb is just 1.
  for (size_t boundary : {64u, 128u, 512u, 1024u}) {
    BigInt past = BigInt(1).ShiftLeft(boundary) +
                  ModulusWithBits(boundary - 3, /*odd=*/true, &rng);
    ExpectMatchesOracle(BigInt::RandomBelow(past, &rng), e, past);
    ExpectMatchesOracle(past - BigInt(1), e, past);
  }
  // Modulus - 1 squared is 1: exercises the conditional subtraction.
  ExpectMatchesOracle(m - BigInt(1), BigInt(2), m);
  // Either side of the 64-bit line between square-and-multiply (public
  // exponents) and fixed windows.
  for (size_t bits : {63u, 64u, 65u, 66u}) {
    ExpectMatchesOracle(BigInt::RandomBelow(m, &rng),
                        BigInt::RandomWithBits(bits, &rng), m);
  }
}

TEST(ModPowDifferentialTest, RejectsBadArguments) {
  EXPECT_FALSE(BigInt::ModPow(BigInt(2), BigInt(3), BigInt()).ok());
  EXPECT_FALSE(
      BigInt::ModPow(BigInt(2), BigInt(3), BigInt() - BigInt(7)).ok());
  EXPECT_FALSE(
      BigInt::ModPow(BigInt(2), BigInt() - BigInt(3), BigInt(7)).ok());
}

// ---------------------------------------------------- RSA byte identity

TEST(RsaPinnedTest, FixedSeedKeysSignToPinnedBytes) {
  // PKCS#1 v1.5 is deterministic and key generation draws a fixed RNG
  // stream, so these bytes pin the whole RSA stack (prime search,
  // Miller-Rabin, CRT private op) across changes to the arithmetic.
  struct Pin {
    size_t bits;
    const char* modulus;
    const char* signature;
  };
  const Pin pins[] = {
      {512,
       "8278ee0f10c6d169fe5be07626616c0a31fe03d1ce3ce17c7734f2b6150478e7"
       "4a7ac16552b142cf71286c7bfa9dd37b4e94ece4f59efe088c226a69f3430973",
       "6048ef29d57dcefcdd40b7e288b67ab40280a9190d5afd1d157bb1d7bbe42e69"
       "9c065510730c9ac09d6891d1a3416b7eafc5120d98c95b9c7247c8a2d9f9a5ab"},
      {1024,
       "8743acaeb9181aa3c6666e8753b1400f437f26c617c867fe5b316c72a2c84fcc"
       "e46707ca9960e9a7de631e4617cc37946ebf1ca18773de6d5105976fc867d1c7"
       "2e4a0cde5fe87b17145761f14d8746517211e61728f57723af6ac121cc3d809a"
       "8b0b382c8aff6b196e3630ddce70685b08c3fcc5616f671f89fe61b218df9bd7",
       "0c4bd16521dad2e4de7e27b66a3655415062ed4018c433875e60bb4bce97ccd5"
       "bfaaf164c5332d4c643e17f5dada54d5d4902ca20f53e42ced795fb5ee290caf"
       "4dd2f0797946621b40158b3d6c0a842b36a6bba02af9bdf1aceb64832fb2932e"
       "dca7b456c7b8631e3d7980edc41efc2c09b38ad6ecc90ad55586359d6b11244f"},
  };
  Bytes digest = Sha256::Hash(ToBytes("discsec pinned signature"));
  for (const Pin& pin : pins) {
    Rng rng(20050915 + pin.bits);
    auto pair = RsaGenerateKeyPair(pin.bits, &rng).value();
    EXPECT_EQ(ToHex(pair.public_key.modulus.ToBytesBE()), pin.modulus);
    auto signature = RsaSignDigest(pair.private_key, kAlgSha256, digest);
    ASSERT_TRUE(signature.ok());
    EXPECT_EQ(ToHex(signature.value()), pin.signature) << pin.bits;
    EXPECT_TRUE(RsaVerifyDigest(pair.public_key, kAlgSha256, digest,
                                signature.value())
                    .ok());
  }
}

TEST(RsaAllocationTest, HeapCallsDoNotGrowWithKeySize) {
  // The exponentiation runs in one workspace per ModPow call, so a sign
  // or verify makes the same few heap allocations for any key size: none
  // per exponent bit.
  Bytes digest = Sha256::Hash(ToBytes("allocation bound"));
  size_t sign_allocs[2][2];
  size_t verify_allocs[2][2];
  const size_t sizes[] = {512, 1024};
  for (int s = 0; s < 2; ++s) {
    for (int k = 0; k < 2; ++k) {
      Rng rng(100 * s + k);
      auto pair = RsaGenerateKeyPair(sizes[s], &rng).value();
      bench::ResetAllocStats();
      auto signature = RsaSignDigest(pair.private_key, kAlgSha256, digest);
      sign_allocs[s][k] = bench::AllocCount();
      ASSERT_TRUE(signature.ok());
      bench::ResetAllocStats();
      Status verdict = RsaVerifyDigest(pair.public_key, kAlgSha256, digest,
                                       signature.value());
      verify_allocs[s][k] = bench::AllocCount();
      EXPECT_TRUE(verdict.ok());
    }
  }
  for (int s = 0; s < 2; ++s) {
    for (int k = 0; k < 2; ++k) {
      EXPECT_EQ(sign_allocs[s][k], sign_allocs[0][0]) << sizes[s] << "/" << k;
      EXPECT_EQ(verify_allocs[s][k], verify_allocs[0][0])
          << sizes[s] << "/" << k;
    }
  }
  EXPECT_LE(sign_allocs[0][0], 32u);
  EXPECT_LE(verify_allocs[0][0], 32u);
}

}  // namespace
}  // namespace crypto
}  // namespace discsec
