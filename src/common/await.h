#ifndef DISCSEC_COMMON_AWAIT_H_
#define DISCSEC_COMMON_AWAIT_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <utility>

namespace discsec {

/// The one blocking adapter over the library's callback-shaped calls:
/// hands `start` a completion callback, blocks until that callback has
/// run, and returns the value it was called with. `start` must arrange for
/// the callback to run exactly once — inline before it returns (an inline
/// transport, a served-inline xkmsd) or later on any thread (a TimerWheel,
/// a pool worker).
///
///   Result<KeyBinding> binding = Await<Result<KeyBinding>>(
///       [&](std::function<void(Result<KeyBinding>)> done) {
///         client.LocateAsync(name, std::move(done));
///       });
///
/// Never call Await inside a completion (a wheel callback, an xkmsd worker,
/// a transport's done): the thread that would complete the awaited call may
/// be the one blocked here. Code that runs in completions takes the async
/// call shapes all the way down.
template <typename T, typename Start>
T Await(Start&& start) {
  struct Slot {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<T> value;
  } slot;
  start(std::function<void(T)>([&slot](T value) {
    // Notify under the lock: once `value` is set the waiter may return and
    // destroy `slot`, so the notify must finish before the waiter can see it.
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.value.emplace(std::move(value));
    slot.cv.notify_one();
  }));
  std::unique_lock<std::mutex> lock(slot.mu);
  slot.cv.wait(lock, [&slot] { return slot.value.has_value(); });
  return std::move(*slot.value);
}

}  // namespace discsec

#endif  // DISCSEC_COMMON_AWAIT_H_
