// Concurrency tests for the parallel verification engine: the
// content-addressed DigestCache, the single-flight XKMS LocateCache,
// pooled PlayDisc equivalence with the inline path, and the thread-safety
// retrofits (FaultInjector, retrying transport, GlobalRng).
// Every assertion here also runs under the ThreadSanitizer CI stage, which
// is what actually proves the absence of data races.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/timer_wheel.h"
#include "crypto/digest_cache.h"
#include "crypto/sha256.h"
#include "player/engine.h"
#include "tests/attacks/attack_corpus.h"
#include "tests/test_world.h"
#include "xkms/client.h"
#include "xkms/locate_cache.h"
#include "xkms/retrying_transport.h"
#include "xkms/service.h"
#include "xml/parser.h"
#include "xmldsig/verifier.h"

namespace discsec {
namespace {

using testing_world::kNow;
using testing_world::World;

const World& SharedWorld() {
  static const World* world = new World();
  return *world;
}

Bytes PatternBytes(uint32_t seed, size_t len) {
  Bytes out(len);
  uint32_t x = seed * 2654435761u + 1;
  for (size_t i = 0; i < len; ++i) {
    x = x * 1664525u + 1013904223u;
    out[i] = static_cast<uint8_t>(x >> 24);
  }
  return out;
}

Bytes DirectSha256(const Bytes& data) {
  crypto::Sha256 digest;
  digest.Update(data.data(), data.size());
  return digest.Finalize();
}

// --------------------------------------------------------------- DigestCache

constexpr char kAlg[] = "http://www.w3.org/2000/09/xmldsig#sha1";

TEST(DigestCacheTest, SinkMatchesDirectDigestAndHitsOnRepeat) {
  crypto::DigestCache cache;
  Bytes data = PatternBytes(7, 4096);
  Bytes expected = DirectSha256(data);

  crypto::Sha256 first;
  crypto::CachingDigestSink miss_sink(&cache, &first, kAlg);
  miss_sink.Append(data.data(), data.size());
  EXPECT_EQ(miss_sink.Finalize(), expected);
  EXPECT_FALSE(miss_sink.was_hit());

  crypto::Sha256 second;
  crypto::CachingDigestSink hit_sink(&cache, &second, kAlg);
  hit_sink.Append(data.data(), data.size());
  EXPECT_EQ(hit_sink.Finalize(), expected);
  EXPECT_TRUE(hit_sink.was_hit());

  crypto::DigestCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(DigestCacheTest, NullCacheIsPassThrough) {
  Bytes data = PatternBytes(9, 512);
  crypto::Sha256 digest;
  crypto::CachingDigestSink sink(nullptr, &digest, kAlg);
  sink.Append(data.data(), data.size());
  EXPECT_EQ(sink.Finalize(), DirectSha256(data));
  EXPECT_FALSE(sink.was_hit());
}

TEST(DigestCacheTest, DifferentAlgorithmUrisDoNotCollide) {
  crypto::DigestCache cache;
  Bytes data = PatternBytes(11, 256);
  crypto::Sha256 a;
  crypto::CachingDigestSink sink_a(&cache, &a, "urn:alg:a");
  sink_a.Append(data.data(), data.size());
  (void)sink_a.Finalize();
  // Same content, different algorithm URI: must be a miss, not a cross-
  // algorithm hit — the key commits to the algorithm too.
  crypto::Sha256 b;
  crypto::CachingDigestSink sink_b(&cache, &b, "urn:alg:b");
  sink_b.Append(data.data(), data.size());
  (void)sink_b.Finalize();
  EXPECT_FALSE(sink_b.was_hit());
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(DigestCacheTest, ConcurrentInsertAndLookupStaysCorrect) {
  crypto::DigestCache cache;
  constexpr size_t kPayloads = 128;
  constexpr size_t kThreads = 4;
  std::vector<Bytes> payloads;
  std::vector<Bytes> expected;
  for (size_t i = 0; i < kPayloads; ++i) {
    payloads.push_back(PatternBytes(static_cast<uint32_t>(i), 1024 + i));
    expected.push_back(DirectSha256(payloads[i]));
  }
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread walks all payloads from a different offset, so inserts
      // and hits for the same key race on purpose.
      for (size_t round = 0; round < 3; ++round) {
        for (size_t i = 0; i < kPayloads; ++i) {
          size_t p = (i + t * 31) % kPayloads;
          crypto::Sha256 digest;
          crypto::CachingDigestSink sink(&cache, &digest, kAlg);
          sink.Append(payloads[p].data(), payloads[p].size());
          if (sink.Finalize() != expected[p]) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
  crypto::DigestCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kThreads * 3 * kPayloads);
  // First-round touches may race (several threads miss the same key and all
  // insert — benign, the value is content-addressed), but every round-2/3
  // lookup is a guaranteed hit: the cache never evicts at this size.
  EXPECT_GE(stats.hits, kThreads * 2 * kPayloads);
  EXPECT_EQ(stats.entries, kPayloads);
}

TEST(DigestCacheTest, EvictionKeepsEntryCountBounded) {
  crypto::DigestCache::Options options;
  options.max_entries = 8;
  options.shards = 1;
  crypto::DigestCache cache(options);
  for (uint32_t i = 0; i < 100; ++i) {
    Bytes key = DirectSha256(PatternBytes(i, 64));
    cache.Insert(kAlg, key, PatternBytes(i, 20));
  }
  EXPECT_LE(cache.size(), 8u);
  EXPECT_EQ(cache.stats().evictions, 92u);
}

TEST(DigestCacheTest, OversizedStreamBypassesButStaysCorrect) {
  crypto::DigestCache::Options options;
  options.max_entry_bytes = 64;
  crypto::DigestCache cache(options);
  Bytes data = PatternBytes(13, 1000);
  crypto::Sha256 digest;
  crypto::CachingDigestSink sink(&cache, &digest, kAlg);
  // Feed in chunks so the overflow happens mid-stream (prefix replay path).
  for (size_t off = 0; off < data.size(); off += 100) {
    sink.Append(data.data() + off, std::min<size_t>(100, data.size() - off));
  }
  EXPECT_EQ(sink.Finalize(), DirectSha256(data));
  EXPECT_FALSE(sink.was_hit());
  EXPECT_EQ(cache.stats().bypasses, 1u);
  EXPECT_EQ(cache.size(), 0u);
}

// --------------------------------------------------------------- LocateCache

xkms::KeyBinding TestBinding(const std::string& name) {
  xkms::KeyBinding binding;
  binding.name = name;
  binding.key = SharedWorld().studio_key.public_key;
  binding.key_usage = {"Signature"};
  return binding;
}

/// A transport that parks every request until the test answers it, so a
/// whole storm of callers is provably in flight at once.
struct ParkingTransport {
  std::mutex mu;
  std::vector<std::pair<std::string, xkms::TransportCallback>> parked;

  xkms::Transport transport() {
    return [this](const std::string& request, xkms::TransportCallback done) {
      std::lock_guard<std::mutex> lock(mu);
      parked.emplace_back(request, std::move(done));
    };
  }
  size_t calls() {
    std::lock_guard<std::mutex> lock(mu);
    return parked.size();
  }
};

/// Issues `callers` concurrent LocateAsync calls, one thread each, and
/// collects what their callbacks receive.
struct LocateStorm {
  std::mutex mu;
  std::vector<Result<xkms::KeyBinding>> results;

  void Run(xkms::LocateCache* cache, size_t callers) {
    std::vector<std::thread> threads;
    for (size_t t = 0; t < callers; ++t) {
      threads.emplace_back([this, cache] {
        cache->LocateAsync("studio-key", [this](Result<xkms::KeyBinding> r) {
          std::lock_guard<std::mutex> lock(mu);
          results.push_back(std::move(r));
        });
      });
    }
    for (auto& thread : threads) thread.join();
  }
  size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return results.size();
  }
};

TEST(LocateCacheTest, SingleFlightCoalescesConcurrentLookups) {
  constexpr size_t kCallers = 8;
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("studio-key")).ok());
  ParkingTransport wire;
  xkms::XkmsClient client(wire.transport());
  xkms::LocateCache cache(&client);

  LocateStorm storm;
  storm.Run(&cache, kCallers);
  // Every caller is waiting and exactly one request went out.
  ASSERT_EQ(wire.calls(), 1u);
  EXPECT_EQ(storm.size(), 0u);
  xkms::LocateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.transport_calls, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, kCallers - 1);

  wire.parked[0].second(service.HandleRequest(wire.parked[0].first));
  ASSERT_EQ(storm.size(), kCallers);
  for (const auto& binding : storm.results) {
    ASSERT_TRUE(binding.ok()) << binding.status().ToString();
    EXPECT_EQ(binding->name, "studio-key");
  }
  // The answer was cached: the next caller hits without a transport call.
  EXPECT_TRUE(cache.Locate("studio-key").ok());
  EXPECT_EQ(wire.calls(), 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(LocateCacheTest, SingleFlightFailureIsSharedNotAmplified) {
  // A fleet-side storm against a *down* responder: every waiter must share
  // the leader's error instead of each issuing its own doomed transport
  // call, or the cache amplifies the outage by exactly the storm size.
  constexpr size_t kCallers = 8;
  ParkingTransport wire;
  xkms::XkmsClient client(wire.transport());
  xkms::LocateCache cache(&client);

  LocateStorm storm;
  storm.Run(&cache, kCallers);
  ASSERT_EQ(wire.calls(), 1u);
  wire.parked[0].second(Status::Unavailable("XKMS transport: responder down"));

  // One storm wave, one upstream call — and everyone saw the same verdict.
  ASSERT_EQ(storm.size(), kCallers);
  for (const auto& binding : storm.results) {
    EXPECT_TRUE(binding.status().IsUnavailable())
        << binding.status().ToString();
  }
  xkms::LocateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.transport_calls, 1u);
  EXPECT_EQ(stats.coalesced, kCallers - 1);
  // The shared failure was never cached: the next call goes upstream.
  EXPECT_EQ(cache.size(), 0u);
  cache.LocateAsync("studio-key", [](Result<xkms::KeyBinding>) {});
  EXPECT_EQ(wire.calls(), 2u);
  wire.parked[1].second(Status::Unavailable("still down"));
}

TEST(LocateCacheTest, LocateAsyncInsideAWheelCompletionFinishes) {
  // The reentrancy rule: code running inside a transport completion takes
  // the async calls. Here the completion runs on a real TimerWheel thread
  // (the injected transport delay parks there), and inside it a cache miss
  // issues another lookup whose own delay needs that same wheel thread. A
  // blocking Locate in its place would wait on itself forever.
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("first-key")).ok());
  ASSERT_TRUE(service.Register(TestBinding("second-key")).ok());
  fault::FaultInjector injector;
  fault::FaultSpec delay;
  delay.point = std::string(fault::kXkmsTransport);
  delay.kind = fault::Kind::kDelay;
  delay.delay_us = 2000;
  injector.Arm(delay);
  TimerWheel wheel;
  xkms::XkmsClient client(
      xkms::XkmsClient::DirectTransport(&service, &wheel, &injector));
  xkms::LocateCache cache(&client);

  std::mutex mu;
  std::condition_variable cv;
  std::optional<Result<xkms::KeyBinding>> second;
  std::thread::id first_completed_on;
  cache.LocateAsync("first-key", [&](Result<xkms::KeyBinding> first) {
    first_completed_on = std::this_thread::get_id();
    EXPECT_TRUE(first.ok()) << first.status().ToString();
    cache.LocateAsync("second-key", [&](Result<xkms::KeyBinding> r) {
      std::lock_guard<std::mutex> lock(mu);
      second = std::move(r);
      cv.notify_one();
    });
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return second.has_value(); });
  EXPECT_NE(first_completed_on, std::this_thread::get_id());
  ASSERT_TRUE(second->ok()) << second->status().ToString();
  EXPECT_EQ((*second)->name, "second-key");
  xkms::LocateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.transport_calls, 2u);
}

TEST(LocateCacheTest, TtlExpiryForcesRefresh) {
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("studio-key")).ok());
  xkms::XkmsClient client = xkms::XkmsClient::Direct(&service);

  std::atomic<int64_t> now{0};
  xkms::LocateCache::Options options;
  options.ttl_us = 1000;
  options.clock = [&] { return now.load(); };
  xkms::LocateCache cache(&client, options);

  ASSERT_TRUE(cache.Locate("studio-key").ok());  // miss -> transport
  ASSERT_TRUE(cache.Locate("studio-key").ok());  // fresh -> hit
  now = 2000;                                    // past the TTL
  ASSERT_TRUE(cache.Locate("studio-key").ok());  // expired -> transport again

  xkms::LocateCacheStats stats = cache.stats();
  EXPECT_EQ(stats.transport_calls, 2u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.expirations, 1u);
}

TEST(LocateCacheTest, ErrorsAreDeliveredButNeverCached) {
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("studio-key")).ok());
  std::atomic<size_t> calls{0};
  xkms::Transport transport = [&](const std::string& request,
                                  xkms::TransportCallback done) {
    if (calls.fetch_add(1) == 0) {
      done(Status::Unavailable("XKMS transport: injected outage"));
      return;
    }
    done(service.HandleRequest(request));
  };
  xkms::XkmsClient client(transport);
  xkms::LocateCache cache(&client);

  EXPECT_FALSE(cache.Locate("studio-key").ok());
  EXPECT_EQ(cache.size(), 0u);  // the failure was not cached
  EXPECT_TRUE(cache.Locate("studio-key").ok());
  EXPECT_EQ(calls.load(), 2u);
}

TEST(LocateCacheTest, InvalidateDropsTheEntry) {
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("studio-key")).ok());
  xkms::XkmsClient client = xkms::XkmsClient::Direct(&service);
  xkms::LocateCache cache(&client);
  ASSERT_TRUE(cache.Locate("studio-key").ok());
  EXPECT_EQ(cache.size(), 1u);
  cache.Invalidate("studio-key");
  EXPECT_EQ(cache.size(), 0u);
  ASSERT_TRUE(cache.Locate("studio-key").ok());
  EXPECT_EQ(cache.stats().transport_calls, 2u);
}

// ---------------------------------------------------------- parallel PlayDisc

/// DemoCluster plus extra AV tracks (each with its own clip and playlist) —
/// the multi-track workload the parallel engine fans out over.
disc::InteractiveCluster MultiTrackCluster(size_t av_tracks) {
  disc::InteractiveCluster cluster = SharedWorld().DemoCluster();
  for (size_t i = 2; i <= av_tracks; ++i) {
    std::string n = std::to_string(i);
    disc::ClipInfo clip;
    clip.id = "clip-" + n;
    clip.ts_path = std::string(disc::kStreamDir) + "0000" + n + ".m2ts";
    clip.duration_ms = 1000;
    cluster.clips.push_back(clip);
    disc::Playlist playlist;
    playlist.id = "pl-" + n;
    playlist.items.push_back({clip.id, 0, 1000});
    cluster.playlists.push_back(playlist);
    disc::Track track;
    track.id = "track-av-" + n;
    track.kind = disc::Track::Kind::kAudioVideo;
    track.playlist_id = playlist.id;
    cluster.tracks.push_back(track);
  }
  return cluster;
}

std::vector<std::string> PlayedIds(const player::DiscPlayback& playback) {
  std::vector<std::string> ids;
  for (const player::PlaybackPlan& plan : playback.played) {
    ids.push_back(plan.track_id);
  }
  return ids;
}

std::vector<std::string> QuarantinedIds(const player::DiscPlayback& playback) {
  std::vector<std::string> ids;
  for (const player::TrackFailure& failure : playback.quarantined) {
    ids.push_back(failure.track_id + "/" + failure.phase);
  }
  return ids;
}

TEST(ParallelPlayDiscTest, MatchesSerialOnCleanDisc) {
  const World& world = SharedWorld();
  disc::InteractiveCluster cluster = MultiTrackCluster(4);
  authoring::Author::ProtectOptions protect;
  protect.sign = true;
  protect.sign_av_essence = true;  // one external reference per clip
  Rng rng(42);
  disc::DiscImage image =
      world.MakeAuthor().MasterProtected(cluster, protect, &rng).value();

  player::InteractiveApplicationEngine serial(world.MakePlayerConfig());
  auto serial_playback = serial.PlayDisc(image);
  ASSERT_TRUE(serial_playback.ok()) << serial_playback.status().ToString();

  ThreadPool pool(4);
  crypto::DigestCache digest_cache;
  player::PlayerConfig config = world.MakePlayerConfig();
  config.pool = &pool;
  config.digest_cache = &digest_cache;
  player::InteractiveApplicationEngine parallel(config);
  auto parallel_playback = parallel.PlayDisc(image);
  ASSERT_TRUE(parallel_playback.ok()) << parallel_playback.status().ToString();

  EXPECT_EQ(serial_playback->app != nullptr, parallel_playback->app != nullptr);
  EXPECT_EQ(PlayedIds(*serial_playback), PlayedIds(*parallel_playback));
  EXPECT_EQ(QuarantinedIds(*serial_playback),
            QuarantinedIds(*parallel_playback));
  EXPECT_FALSE(parallel_playback->degraded());
  EXPECT_GT(digest_cache.stats().misses, 0u);

  // A second insertion of the same disc is served from the warm cache.
  uint64_t cold_misses = digest_cache.stats().misses;
  auto warm = parallel.PlayDisc(image);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(digest_cache.stats().hits, 0u);
  EXPECT_EQ(digest_cache.stats().misses, cold_misses);
}

TEST(ParallelPlayDiscTest, DegradedModeQuarantinesIdentically) {
  const World& world = SharedWorld();
  disc::InteractiveCluster cluster = MultiTrackCluster(4);
  authoring::Author::ProtectOptions protect;  // signed cluster, no essence refs
  Rng rng(43);
  disc::DiscImage image =
      world.MakeAuthor().MasterProtected(cluster, protect, &rng).value();
  // Scratch one track's essence: that track (and only it) must quarantine.
  Bytes ts = image.Get(cluster.clips[1].ts_path).value();
  ts[0] = 0;
  image.Put(cluster.clips[1].ts_path, ts);

  player::PlayerConfig serial_config = world.MakePlayerConfig();
  serial_config.allow_degraded_playback = true;
  player::InteractiveApplicationEngine serial(serial_config);
  auto serial_playback = serial.PlayDisc(image);
  ASSERT_TRUE(serial_playback.ok()) << serial_playback.status().ToString();

  ThreadPool pool(4);
  crypto::DigestCache digest_cache;
  player::PlayerConfig parallel_config = world.MakePlayerConfig();
  parallel_config.allow_degraded_playback = true;
  parallel_config.pool = &pool;
  parallel_config.digest_cache = &digest_cache;
  player::InteractiveApplicationEngine parallel(parallel_config);
  auto parallel_playback = parallel.PlayDisc(image);
  ASSERT_TRUE(parallel_playback.ok()) << parallel_playback.status().ToString();

  EXPECT_TRUE(serial_playback->degraded());
  EXPECT_EQ(PlayedIds(*serial_playback), PlayedIds(*parallel_playback));
  ASSERT_EQ(QuarantinedIds(*serial_playback),
            QuarantinedIds(*parallel_playback));
  ASSERT_EQ(serial_playback->quarantined.size(),
            parallel_playback->quarantined.size());
  for (size_t i = 0; i < serial_playback->quarantined.size(); ++i) {
    EXPECT_EQ(serial_playback->quarantined[i].status.ToString(),
              parallel_playback->quarantined[i].status.ToString());
  }
}

TEST(ParallelPlayDiscTest, StrictModeReportsSameFirstFailure) {
  const World& world = SharedWorld();
  disc::InteractiveCluster cluster = MultiTrackCluster(4);
  authoring::Author::ProtectOptions protect;
  Rng rng(44);
  disc::DiscImage image =
      world.MakeAuthor().MasterProtected(cluster, protect, &rng).value();
  Bytes ts = image.Get(cluster.clips[1].ts_path).value();
  ts[0] = 0;
  image.Put(cluster.clips[1].ts_path, ts);

  player::InteractiveApplicationEngine serial(world.MakePlayerConfig());
  auto serial_playback = serial.PlayDisc(image);
  ASSERT_FALSE(serial_playback.ok());

  ThreadPool pool(4);
  player::PlayerConfig config = world.MakePlayerConfig();
  config.pool = &pool;
  player::InteractiveApplicationEngine parallel(config);
  auto parallel_playback = parallel.PlayDisc(image);
  ASSERT_FALSE(parallel_playback.ok());

  EXPECT_EQ(serial_playback.status().ToString(),
            parallel_playback.status().ToString());
}

// A disc with two signatures: the first verifies but its signer is unknown
// to XKMS, the second fails its digest check. Every launch verifies all
// signatures before the XKMS stage, so a pool-less and a pooled player
// both report the second signature's failure.
TEST(UnifiedExecutorTest, XkmsAndLaterFailureReportOneErrorWithOrWithoutPool) {
  const World& world = SharedWorld();
  disc::InteractiveCluster cluster = world.DemoCluster();
  authoring::Author author = world.MakeAuthor();
  auto doc = author.BuildSigned(cluster, authoring::SignLevel::kTrack);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  // The second signature covers the playlist, outside the first's scope.
  xml::Element* playlist = doc->FindById("pl-main");
  ASSERT_NE(playlist, nullptr);
  auto second =
      author.signer().SignDetached(&*doc, playlist, "pl-main", doc->root());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  xml::Element* digest =
      (*second)
          ->FirstChildElementByLocalName("SignedInfo")
          ->FirstChildElementByLocalName("Reference")
          ->FirstChildElementByLocalName("DigestValue");
  ASSERT_NE(digest, nullptr);
  digest->SetTextContent("AAAAAAAAAAAAAAAAAAAAAAAAAAA=");
  disc::DiscImage image = author.Master(cluster, *doc).value();

  xkms::XkmsService service;  // nothing registered: Locate finds nothing
  xkms::XkmsClient client = xkms::XkmsClient::Direct(&service);
  player::PlayerConfig inline_config = world.MakePlayerConfig();
  inline_config.xkms = &client;
  player::InteractiveApplicationEngine inline_engine(inline_config);
  auto inline_playback = inline_engine.PlayDisc(image);
  ASSERT_FALSE(inline_playback.ok());

  ThreadPool pool(4);
  player::PlayerConfig pooled_config = world.MakePlayerConfig();
  pooled_config.xkms = &client;
  pooled_config.pool = &pool;
  player::InteractiveApplicationEngine pooled_engine(pooled_config);
  auto pooled_playback = pooled_engine.PlayDisc(image);
  ASSERT_FALSE(pooled_playback.ok());

  EXPECT_EQ(inline_playback.status().code(), pooled_playback.status().code());
  EXPECT_EQ(inline_playback.status().message(),
            pooled_playback.status().message());
  EXPECT_TRUE(inline_playback.status().IsVerificationFailed());
  EXPECT_NE(inline_playback.status().message().find(
                "digest mismatch for reference '#pl-main'"),
            std::string::npos)
      << inline_playback.status().ToString();
}

// ----------------------------------------------- warm caches vs the attacks

// A warm digest cache (seeded by verifying the pristine documents) and a
// thread pool must not weaken a single defense: every attack-corpus mutation
// is still rejected with the same status code. A cache-poisoning attempt —
// getting a forged digest served for mutated content — would surface here
// as an accepted mutation.
TEST(ParallelAttackSurfaceTest, WarmCacheStillRejectsEntireCorpus) {
  const World& world = SharedWorld();
  ThreadPool pool(4);
  crypto::DigestCache digest_cache;
  xmldsig::VerifyOptions options;
  pki::CertStore trust;
  ASSERT_TRUE(trust.AddTrustedRoot(world.root_cert).ok());
  options.cert_store = &trust;
  options.now = kNow;
  options.pool = &pool;
  options.digest_cache = &digest_cache;

  // Warm the cache with every pristine baseline first.
  for (const attacks::AttackCase& baseline :
       attacks::BuildPristineBaselines(world)) {
    if (baseline.route != attacks::AttackRoute::kVerifier) continue;
    auto doc = xml::Parse(baseline.xml);
    ASSERT_TRUE(doc.ok());
    Status status =
        xmldsig::Verifier::VerifyFirstSignature(doc.value(), options).status();
    EXPECT_TRUE(status.ok()) << baseline.name << ": " << status.ToString();
  }
  ASSERT_GT(digest_cache.stats().entries, 0u);

  size_t checked = 0;
  for (const attacks::AttackCase& attack : attacks::BuildAttackCorpus(world)) {
    if (attack.route != attacks::AttackRoute::kVerifier) continue;
    auto doc = xml::Parse(attack.xml);
    if (!doc.ok()) continue;  // parser-level rejections never reach the cache
    Status status =
        xmldsig::Verifier::VerifyFirstSignature(doc.value(), options).status();
    ASSERT_FALSE(status.ok())
        << attack.name << ": mutation ACCEPTED with warm cache";
    EXPECT_EQ(static_cast<int>(status.code()),
              static_cast<int>(attack.expected_code))
        << attack.name << ": " << status.ToString();
    ++checked;
  }
  EXPECT_GT(checked, 20u);  // the sweep actually covered the corpus
}

// -------------------------------------------------- thread-safety retrofits

TEST(FaultInjectorConcurrencyTest, ConcurrentArmHitDisarmIsRaceFree) {
  fault::FaultInjector injector(12345);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> injected{0};
  std::vector<std::thread> hitters;
  for (int t = 0; t < 4; ++t) {
    hitters.emplace_back([&] {
      Bytes payload = PatternBytes(1, 188);
      while (!stop.load()) {
        Bytes copy = payload;
        if (!injector.HitData(fault::kDiscRead, &copy, "stream").ok()) {
          injected.fetch_add(1);
        }
      }
    });
  }
  for (int round = 0; round < 50; ++round) {
    fault::FaultSpec spec;
    spec.point = std::string(fault::kDiscRead);
    spec.kind = (round % 2 == 0) ? fault::Kind::kError : fault::Kind::kCorrupt;
    spec.probability = 0.5;
    injector.Arm(spec);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    injector.Disarm(fault::kDiscRead);
  }
  stop = true;
  for (auto& thread : hitters) thread.join();
  // Counters stay coherent: every fire was a hit first.
  EXPECT_LE(injector.fires(fault::kDiscRead), injector.hits(fault::kDiscRead));
  EXPECT_EQ(injector.total_fires(), injector.fires(fault::kDiscRead));
}

TEST(RetryingTransportConcurrencyTest, SharedTransportCountsEveryCall) {
  constexpr size_t kThreads = 4;
  constexpr size_t kCallsPerThread = 50;
  xkms::XkmsService service;
  ASSERT_TRUE(service.Register(TestBinding("studio-key")).ok());
  std::shared_ptr<const xkms::RetryingTransportStats> stats;
  xkms::Transport transport = xkms::MakeRetryingTransport(
      xkms::XkmsClient::DirectTransport(&service), {}, nullptr, &stats);
  xkms::XkmsClient client(transport);

  std::atomic<size_t> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = 0; i < kCallsPerThread; ++i) {
        if (!client.Locate("studio-key").ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(stats->calls, kThreads * kCallsPerThread);
  EXPECT_EQ(stats->attempts, kThreads * kCallsPerThread);
  EXPECT_EQ(stats->retries, 0u);
}

TEST(GlobalRngTest, EachThreadOwnsAnIndependentGenerator) {
  const Rng* main_rng = &GlobalRng();
  const Rng* other_rng = nullptr;
  std::thread other([&] { other_rng = &GlobalRng(); });
  other.join();
  EXPECT_NE(main_rng, other_rng);
}

}  // namespace
}  // namespace discsec
