#ifndef ZOMBIE_UTIL_THREAD_ANNOTATIONS_H_
#define ZOMBIE_UTIL_THREAD_ANNOTATIONS_H_

// Clang thread-safety annotations + capability-annotated lock primitives.
//
// Every wall-clock optimization (feature cache, persistent store,
// thread-pooled driver) rests on a byte-identical-results invariant whose
// enforcement used to be purely dynamic (tests, TSan). This
// header makes the locking discipline a *compile-time* artifact: members are
// declared ZOMBIE_GUARDED_BY their mutex, locking helpers carry
// ZOMBIE_ACQUIRE / ZOMBIE_RELEASE, and functions that expect a lock held (or
// not held) say so with ZOMBIE_REQUIRES / ZOMBIE_EXCLUDES. Under clang with
// -Wthread-safety (CMake option ZOMBIE_THREAD_SAFETY=ON, -Werror in CI) an
// unannotated access to protected state fails the build; under gcc and
// other compilers the macros expand to nothing and the wrappers are plain
// std::mutex / std::shared_mutex shims with identical runtime behavior
// (TSan and the sanitizer legs see straight through them).
//
// Convention: library code takes locks only through the wrappers below
// (zombie::Mutex / zombie::SharedMutex + the RAII *MutexLock guards), never
// through bare std::mutex — a bare standard mutex is invisible to the
// analysis, so any state it protects is unchecked. zombie_lint's
// determinism rules and DESIGN.md "Static analysis" document the rest of
// the contract.

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#if defined(__clang__)
#define ZOMBIE_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define ZOMBIE_THREAD_ANNOTATION_(x)  // no-op outside clang
#endif

/// Marks a type as a capability (lockable). The string names the capability
/// kind in diagnostics ("mutex", "shared_mutex").
#define ZOMBIE_CAPABILITY(x) ZOMBIE_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases a
/// capability.
#define ZOMBIE_SCOPED_CAPABILITY ZOMBIE_THREAD_ANNOTATION_(scoped_lockable)

/// Declares that a member is protected by the given capability: reads
/// require the capability held (shared or exclusive), writes require it
/// held exclusively.
#define ZOMBIE_GUARDED_BY(x) ZOMBIE_THREAD_ANNOTATION_(guarded_by(x))

/// Like ZOMBIE_GUARDED_BY, but for the data *pointed to* by a pointer
/// member (the pointer itself is unguarded).
#define ZOMBIE_PT_GUARDED_BY(x) ZOMBIE_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The function may only be called with the capability held exclusively;
/// it does not acquire or release it.
#define ZOMBIE_REQUIRES(...) \
  ZOMBIE_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The function may only be called with the capability held (shared is
/// enough).
#define ZOMBIE_REQUIRES_SHARED(...) \
  ZOMBIE_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))

/// The function acquires the capability exclusively and holds it on return.
#define ZOMBIE_ACQUIRE(...) \
  ZOMBIE_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The function acquires the capability shared and holds it on return.
#define ZOMBIE_ACQUIRE_SHARED(...) \
  ZOMBIE_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))

/// The function releases the capability (exclusive).
#define ZOMBIE_RELEASE(...) \
  ZOMBIE_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The function releases the capability (shared).
#define ZOMBIE_RELEASE_SHARED(...) \
  ZOMBIE_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))

/// The function releases the capability whether it was held shared or
/// exclusive (used on guards that can wrap either mode).
#define ZOMBIE_RELEASE_GENERIC(...) \
  ZOMBIE_THREAD_ANNOTATION_(release_generic_capability(__VA_ARGS__))

/// The function attempts the acquisition; the first argument is the return
/// value that signals success.
#define ZOMBIE_TRY_ACQUIRE(...) \
  ZOMBIE_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// The caller must NOT hold the capability (non-reentrant locking:
/// documents and checks the public-API side of a lock's contract).
#define ZOMBIE_EXCLUDES(...) \
  ZOMBIE_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// Asserts (for the analysis only) that the capability is held.
#define ZOMBIE_ASSERT_CAPABILITY(x) \
  ZOMBIE_THREAD_ANNOTATION_(assert_capability(x))

/// The function returns a reference to the given capability.
#define ZOMBIE_RETURN_CAPABILITY(x) ZOMBIE_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function's body is not analyzed. Use only for code
/// whose correctness the analysis cannot express, with a comment saying
/// why.
#define ZOMBIE_NO_THREAD_SAFETY_ANALYSIS \
  ZOMBIE_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace zombie {

/// Capability-annotated exclusive mutex. A thin shim over std::mutex that
/// the thread-safety analysis can see; prefer the MutexLock RAII guard over
/// calling Lock/Unlock directly.
class ZOMBIE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ZOMBIE_ACQUIRE() { mu_.lock(); }
  void Unlock() ZOMBIE_RELEASE() { mu_.unlock(); }
  bool TryLock() ZOMBIE_TRY_ACQUIRE(true) { return mu_.try_lock(); }

  /// The wrapped standard mutex, for interop with std::condition_variable
  /// (see CondVar). Access through this pointer is invisible to the
  /// analysis — do not lock it directly.
  std::mutex& native() { return mu_; }

 private:
  std::mutex mu_;
};

/// Capability-annotated reader/writer mutex over std::shared_mutex.
class ZOMBIE_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock() ZOMBIE_ACQUIRE() { mu_.lock(); }
  void Unlock() ZOMBIE_RELEASE() { mu_.unlock(); }
  void ReaderLock() ZOMBIE_ACQUIRE_SHARED() { mu_.lock_shared(); }
  void ReaderUnlock() ZOMBIE_RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// RAII exclusive lock on a zombie::Mutex. Holds a std::unique_lock
/// internally so CondVar can wait on it.
class ZOMBIE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ZOMBIE_ACQUIRE(mu) : lock_(mu->native()) {}
  // Empty body (not "= default"): GNU attributes and defaulted special
  // members do not mix on all toolchains. lock_ releases in its own dtor.
  ~MutexLock() ZOMBIE_RELEASE() {}  // NOLINT(modernize-use-equals-default)

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// For CondVar::Wait only; the lock is owned for the guard's whole scope.
  std::unique_lock<std::mutex>& native_handle() { return lock_; }

 private:
  std::unique_lock<std::mutex> lock_;
};

/// RAII shared (reader) lock on a zombie::SharedMutex.
class ZOMBIE_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ZOMBIE_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->ReaderLock();
  }
  ~ReaderMutexLock() ZOMBIE_RELEASE_GENERIC() { mu_->ReaderUnlock(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// RAII exclusive (writer) lock on a zombie::SharedMutex.
class ZOMBIE_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ZOMBIE_ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() ZOMBIE_RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* mu_;
};

/// Condition variable that waits on a MutexLock. Wait() releases and
/// reacquires the underlying mutex internally; from the analysis' point of
/// view the capability is held across the call, which matches the caller's
/// view (the lock is held whenever the predicate is evaluated). Spurious
/// wakeups are possible — always wait in a predicate loop.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void Wait(MutexLock* lock) { cv_.wait(lock->native_handle()); }
  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace zombie

#endif  // ZOMBIE_UTIL_THREAD_ANNOTATIONS_H_
