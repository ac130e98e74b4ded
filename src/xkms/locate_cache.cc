#include "xkms/locate_cache.h"

#include <chrono>
#include <optional>
#include <utility>

#include "common/await.h"

namespace discsec {
namespace xkms {

namespace {

int64_t SteadyNowUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

LocateCache::LocateCache(XkmsClient* client, Options options)
    : client_(client),
      options_(std::move(options)),
      clock_(options_.clock ? options_.clock
                            : std::function<int64_t()>(SteadyNowUs)) {}

void LocateCache::LocateAsync(const std::string& name,
                              std::function<void(Result<KeyBinding>)> done) {
  std::optional<KeyBinding> hit;
  {
    obs::ScopedSpan span(tracer_, "xkms.locate_cache");
    span.SetAttr("name", name);
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = entries_.find(name);
      if (it != entries_.end() && clock_() < it->second.expires_us) {
        ++stats_.hits;
        hit = it->second.binding;
      } else {
        if (it != entries_.end()) {
          entries_.erase(it);
          ++stats_.expirations;
        }
        std::vector<Waiter>& waiters = flights_[name];
        waiters.push_back(std::move(done));
        if (waiters.size() > 1) {
          ++stats_.coalesced;
          span.SetAttr("outcome", "coalesced");
          return;
        }
        ++stats_.misses;
        ++stats_.transport_calls;
      }
    }
    if (!hit) {
      // Leader: the transport call happens outside the cache lock, so slow
      // lookups for one name never block hits on others.
      span.SetAttr("outcome", "miss");
      client_->LocateAsync(name, [this, name](Result<KeyBinding> result) {
        Finish(name, result);
      });
      return;
    }
    span.SetAttr("outcome", "hit");
  }
  done(std::move(*hit));
}

void LocateCache::Finish(const std::string& name,
                         const Result<KeyBinding>& result) {
  std::vector<Waiter> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.ok()) {
      entries_[name] = Entry{result.value(), clock_() + options_.ttl_us};
      while (entries_.size() > options_.max_entries) {
        auto victim = entries_.begin();
        for (auto it = entries_.begin(); it != entries_.end(); ++it) {
          if (it->second.expires_us < victim->second.expires_us) victim = it;
        }
        entries_.erase(victim);
      }
    }
    // The cache entry and the flight's retirement are one step under the
    // lock: every caller that arrived during the flight is a waiter here,
    // and the next caller either hits the entry or — after an error, which
    // is never cached — leads a fresh flight (one retry per storm wave,
    // not one per caller).
    auto flight = flights_.find(name);
    waiters = std::move(flight->second);
    flights_.erase(flight);
  }
  for (const Waiter& waiter : waiters) waiter(result);
}

Result<KeyBinding> LocateCache::Locate(const std::string& name) {
  return Await<Result<KeyBinding>>(
      [&](std::function<void(Result<KeyBinding>)> done) {
        LocateAsync(name, std::move(done));
      });
}

void LocateCache::Invalidate(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.erase(name);
}

void LocateCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

LocateCacheStats LocateCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t LocateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace xkms
}  // namespace discsec
