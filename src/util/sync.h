#ifndef FARMER_UTIL_SYNC_H_
#define FARMER_UTIL_SYNC_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

#include "util/check.h"

/// The project's synchronization vocabulary, annotated for Clang's
/// -Wthread-safety analysis (docs/STATIC_ANALYSIS.md has the catalog).
///
/// Every mutex, lock guard, and condition variable in src/ goes through
/// the wrappers below — never through <mutex> directly (tools/
/// farmer_lint.py enforces this, rule `raw-sync`). The wrappers carry
/// capability attributes, so which lock guards which field is part of
/// each class declaration (`FARMER_GUARDED_BY(mutex_)`) and Clang proves
/// at compile time that every access happens under the right lock. On
/// compilers without the attributes (GCC) the macros expand to nothing
/// and the wrappers compile to exactly the std primitives they wrap.
///
/// For state that is *thread-confined* rather than lock-protected (an
/// event loop's connection table, parser buffers), ThreadChecker gives
/// the same discipline a runtime teeth: debug builds abort on access
/// from a foreign thread.

#if defined(__clang__) && !defined(SWIG)
#define FARMER_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define FARMER_THREAD_ANNOTATION(x)  // no-op outside Clang
#endif

/// Declares a class to be a capability (lockable type).
#define FARMER_CAPABILITY(x) FARMER_THREAD_ANNOTATION(capability(x))

/// Declares an RAII class that acquires a capability in its constructor
/// and releases it in its destructor.
#define FARMER_SCOPED_CAPABILITY FARMER_THREAD_ANNOTATION(scoped_lockable)

/// Field attribute: reads and writes require holding `x`.
#define FARMER_GUARDED_BY(x) FARMER_THREAD_ANNOTATION(guarded_by(x))

/// Pointer-field attribute: the pointed-to data requires holding `x`.
#define FARMER_PT_GUARDED_BY(x) FARMER_THREAD_ANNOTATION(pt_guarded_by(x))

/// Function attribute: the caller must hold the listed capabilities.
#define FARMER_REQUIRES(...) \
  FARMER_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Function attribute: acquires the listed capabilities (not held on
/// entry, held on exit).
#define FARMER_ACQUIRE(...) \
  FARMER_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function attribute: releases the listed capabilities.
#define FARMER_RELEASE(...) \
  FARMER_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Function attribute: acquires the capability iff the return value
/// equals the first argument.
#define FARMER_TRY_ACQUIRE(...) \
  FARMER_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function attribute: the caller must NOT hold the listed capabilities
/// (deadlock prevention for self-locking methods).
#define FARMER_EXCLUDES(...) \
  FARMER_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function attribute: returns a reference to the listed capability.
#define FARMER_RETURN_CAPABILITY(x) \
  FARMER_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: disables the analysis for one function. Every use
/// needs an adjacent comment saying why the analysis cannot see the
/// invariant.
#define FARMER_NO_THREAD_SAFETY_ANALYSIS \
  FARMER_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace farmer {

/// A plain (non-recursive, non-shared) mutex carrying the `capability`
/// attribute. Prefer MutexLock over calling Lock()/Unlock() directly;
/// the explicit pair exists for the rare non-scoped protocol.
class FARMER_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() FARMER_ACQUIRE() { mu_.lock(); }
  void Unlock() FARMER_RELEASE() { mu_.unlock(); }
  bool TryLock() FARMER_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  // The one place in src/ a raw std primitive is allowed: this is the
  // wrapped instance itself.
  std::mutex mu_;
};

/// RAII lock for a Mutex — the project's spelling of std::lock_guard.
class FARMER_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) FARMER_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() FARMER_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable bound to the Mutex wrapper. Every Wait overload
/// REQUIRES the mutex, so forgetting the lock is a compile error on
/// Clang instead of undefined behavior at 3am. Predicates must not
/// throw (they run with the internal adopted lock in flight).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, sleeps, and re-acquires before return.
  void Wait(Mutex& mu) FARMER_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait(adopted);
    adopted.release();  // The caller's MutexLock still owns the unlock.
  }

  /// Waits until `pred()` holds (loops over spurious wakeups). Only for
  /// predicates over atomics or otherwise lock-free state: the analysis
  /// does not thread the held-lock set into the predicate call, so a
  /// predicate reading FARMER_GUARDED_BY fields should instead be
  /// written as an explicit `while (!cond) cv.Wait(mu);` loop at the
  /// call site, where the analysis sees the lock.
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred) FARMER_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    cv_.wait(adopted, std::move(pred));
    adopted.release();
  }

  /// Timed wait: returns true when woken before `seconds` elapsed
  /// (spurious wakeups included), false on timeout. Re-check the
  /// condition either way.
  bool WaitForSeconds(Mutex& mu, double seconds) FARMER_REQUIRES(mu) {
    std::unique_lock<std::mutex> adopted(mu.mu_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(adopted, std::chrono::duration<double>(seconds));
    adopted.release();
    return status == std::cv_status::no_timeout;
  }

  /// Wake-ups need not hold the mutex (both orders are TSan-clean; the
  /// waiter re-checks its predicate under the lock either way).
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

/// Debug-build ownership assertion for thread-confined state — the
/// static counterpart is documentation plus the farmer_lint.py
/// event-loop rules; this is the runtime teeth.
///
/// The checker binds to the first thread that calls
/// CalledOnValidThread() (not the constructing thread: the caller
/// builds each EventLoop that its own loop thread then owns);
/// every later call verifies the caller is that thread. Detach()
/// unbinds so an object can be handed off between confinement eras.
///
/// Use through the macro so release builds compile the check away:
///
///   class EventLoopBase {
///     ThreadChecker checker_;
///     std::unordered_map<int, ...> conns_;  // confined to the loop
///   };
///   bool EventLoopBase::Write(LoopConn& conn) {
///     FARMER_DCHECK_CALLED_ON(checker_);
///     ...
///   }
class ThreadChecker {
 public:
  ThreadChecker() = default;
  ThreadChecker(const ThreadChecker&) = delete;
  ThreadChecker& operator=(const ThreadChecker&) = delete;

  /// True when called from the owning thread; the first call after
  /// construction or Detach() claims ownership and returns true.
  bool CalledOnValidThread() const {
    const std::thread::id self = std::this_thread::get_id();
    std::thread::id expected{};  // id{} == "no thread": unbound.
    if (owner_.compare_exchange_strong(expected, self,
                                       std::memory_order_relaxed)) {
      return true;
    }
    return expected == self;
  }

  /// Unbinds; the next CalledOnValidThread() claims ownership anew.
  void Detach() {
    owner_.store(std::thread::id{}, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::thread::id> owner_{std::thread::id{}};
};

}  // namespace farmer

/// Asserts (debug builds / FARMER_FORCE_DCHECKS) that the calling
/// thread owns `checker`'s confined state. Compiles to nothing under
/// NDEBUG, so release hot paths pay zero.
#define FARMER_DCHECK_CALLED_ON(checker)                 \
  FARMER_DCHECK((checker).CalledOnValidThread())         \
      << "thread-confined state accessed from a foreign" \
      << " thread (ThreadChecker violation)"

#endif  // FARMER_UTIL_SYNC_H_
