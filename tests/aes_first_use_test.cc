// AES table initialisation under concurrent first use. Its own binary, with
// a single test, so the threads below really are the process's first AES
// users; under the ThreadSanitizer CI stage any table written on first use
// shows up as a data race.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "crypto/aes.h"

namespace discsec {
namespace crypto {
namespace {

TEST(AesFirstUseTest, ConcurrentCreateAndDecryptOnFourThreads) {
  // FIPS-197 Appendix C.1 (AES-128).
  const Bytes key = {0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
                     0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f};
  const Bytes ciphertext = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30,
                            0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5, 0x5a};
  const Bytes plaintext = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                           0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  constexpr int kThreads = 4;
  std::atomic<int> waiting{kThreads};
  std::vector<Bytes> decrypted(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Start together so the first Create/DecryptBlock calls overlap.
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      Result<Aes> aes = Aes::Create(key);
      if (!aes.ok()) return;
      Bytes block = ciphertext;
      aes->DecryptBlock(block.data());
      decrypted[t] = block;
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(decrypted[t], plaintext) << "thread " << t;
  }
}

}  // namespace
}  // namespace crypto
}  // namespace discsec
