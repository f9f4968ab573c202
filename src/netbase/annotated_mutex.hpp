// netbase/annotated_mutex.hpp — mutex wrappers carrying Clang thread-safety
// capabilities, so the cross-thread invariants documented in
// docs/ARCHITECTURE.md ("Threading model") are compiler-checked facts
// instead of prose.
//
// Under Clang, `-Wthread-safety -Werror` (the CI `thread-safety` job)
// rejects any access to a B6_GUARDED_BY member without its mutex held, any
// REQUIRES-annotated call on the wrong side of a lock, and any
// acquire/release imbalance. Under GCC (the local toolchain) every macro
// expands to nothing and the wrappers are exactly std::mutex /
// std::condition_variable — zero runtime difference.
//
// Usage pattern (see campaign/parallel.cpp for the full worked example):
//
//   class Queue {
//     netbase::Mutex mu_;
//     std::deque<Item> items_ B6_GUARDED_BY(mu_);
//    public:
//     void push(Item it) {
//       netbase::MutexLock lock(mu_);
//       items_.push_back(std::move(it));   // OK: lock held
//     }
//     void push_unlocked(Item) B6_REQUIRES(mu_);  // caller must hold mu_
//   };
//
// Known analysis limits, and the conventions that keep us inside them:
//   * lambda bodies are analyzed as separate functions with no capability
//     context — so no guarded access inside condition_variable wait
//     predicates. Use explicit `while (!cond()) cv.wait(lock);` loops in
//     B6_REQUIRES-annotated methods instead;
//   * the attributes only attach to data members and globals, not locals —
//     shared state must live in a class (which is better structure anyway).
#pragma once

#include <condition_variable>
#include <mutex>

// Clang exposes the analysis via __attribute__((...)); the macro layer
// makes every annotation vanish on GCC and MSVC.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define B6_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef B6_THREAD_ANNOTATION
#define B6_THREAD_ANNOTATION(x)
#endif

#define B6_CAPABILITY(x) B6_THREAD_ANNOTATION(capability(x))
#define B6_SCOPED_CAPABILITY B6_THREAD_ANNOTATION(scoped_lockable)
#define B6_GUARDED_BY(x) B6_THREAD_ANNOTATION(guarded_by(x))
#define B6_PT_GUARDED_BY(x) B6_THREAD_ANNOTATION(pt_guarded_by(x))
#define B6_REQUIRES(...) \
  B6_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define B6_REQUIRES_SHARED(...) \
  B6_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define B6_ACQUIRE(...) B6_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define B6_ACQUIRE_SHARED(...) \
  B6_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define B6_RELEASE(...) B6_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define B6_RELEASE_SHARED(...) \
  B6_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define B6_EXCLUDES(...) B6_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define B6_RETURN_CAPABILITY(x) B6_THREAD_ANNOTATION(lock_returned(x))
#define B6_NO_THREAD_SAFETY_ANALYSIS \
  B6_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace beholder6::netbase {

/// std::mutex carrying the `capability` attribute.
class B6_CAPABILITY("mutex") Mutex {
 public:
  void lock() B6_ACQUIRE() { mu_.lock(); }
  void unlock() B6_RELEASE() { mu_.unlock(); }
  bool try_lock() B6_THREAD_ANNOTATION(try_acquire_capability(true)) {
    return mu_.try_lock();
  }

  /// The wrapped mutex, for APIs that need the native handle. Calls made
  /// through it are invisible to the analysis — prefer the wrappers.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Scoped exclusive lock over Mutex, relockable (lock()/unlock() pairs mid
/// scope) — the shape the condition-variable wait protocol needs.
class B6_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) B6_ACQUIRE(mu) : lock_(mu.native()) {}
  ~MutexLock() B6_RELEASE() = default;

  /// Drop the lock mid-scope (e.g. to run a work unit outside it).
  void unlock() B6_RELEASE() { lock_.unlock(); }
  /// Re-take it before touching guarded state again.
  void lock() B6_ACQUIRE() { lock_.lock(); }

  /// The wrapped lock, for std::condition_variable::wait. The analysis
  /// treats the wait as a no-op on the capability, which matches the
  /// protocol: wait() releases and re-acquires internally, and on return
  /// the lock is held again.
  std::unique_lock<std::mutex>& native() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// Condition variable paired with Mutex/MutexLock. wait() must be called
/// with the lock held; the B6_REQUIRES annotation on the caller's method
/// is what proves it.
class CondVar {
 public:
  void wait(MutexLock& lock) { cv_.wait(lock.native()); }
  void notify_one() { cv_.notify_one(); }
  void notify_all() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace beholder6::netbase
