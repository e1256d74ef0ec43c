/**
 * @file
 * Clang thread-safety annotations and the annotated mutex wrappers
 * every lock in `src/` must use (tapas-lint rule R7 bans the raw
 * `std::mutex` family outside this header).
 *
 * Under clang with `-Wthread-safety` (CMake option
 * `TAPAS_THREAD_SAFETY`, the build-clang leg of scripts/check.sh)
 * the annotations turn the repo's lock discipline — which members
 * `ThreadPool::queueMutex` and `PerfModel::cacheMutex` guard, which
 * functions must or must not hold them — into compile-time errors.
 * Under GCC (the default toolchain) every macro expands to nothing
 * and the wrappers are zero-cost forwarding shims around
 * `std::mutex`, so annotating costs nothing at runtime.
 *
 * The macro set mirrors the clang documentation's canonical
 * mutex.h / Abseil thread_annotations.h vocabulary.
 */

#ifndef TAPAS_COMMON_THREAD_ANNOTATIONS_HH
#define TAPAS_COMMON_THREAD_ANNOTATIONS_HH

#include <mutex>

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define TAPAS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef TAPAS_THREAD_ANNOTATION
#define TAPAS_THREAD_ANNOTATION(x) // no-op off clang
#endif

/** Marks a type as a lockable capability ("mutex"). */
#define TAPAS_CAPABILITY(x) TAPAS_THREAD_ANNOTATION(capability(x))

/** Marks an RAII type whose lifetime holds a capability. */
#define TAPAS_SCOPED_CAPABILITY \
    TAPAS_THREAD_ANNOTATION(scoped_lockable)

/** Member may only be read/written while holding the mutex. */
#define TAPAS_GUARDED_BY(x) TAPAS_THREAD_ANNOTATION(guarded_by(x))

/** Pointee may only be accessed while holding the mutex. */
#define TAPAS_PT_GUARDED_BY(x) \
    TAPAS_THREAD_ANNOTATION(pt_guarded_by(x))

/** Function requires the capabilities to be held on entry. */
#define TAPAS_REQUIRES(...) \
    TAPAS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** Function acquires the capabilities (held on return). */
#define TAPAS_ACQUIRE(...) \
    TAPAS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** Function releases the capabilities. */
#define TAPAS_RELEASE(...) \
    TAPAS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** Function acquires the capability iff it returns @p ret. */
#define TAPAS_TRY_ACQUIRE(...) \
    TAPAS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Caller must NOT hold the capabilities (deadlock prevention). */
#define TAPAS_EXCLUDES(...) \
    TAPAS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Function returns a reference to the named capability. */
#define TAPAS_RETURN_CAPABILITY(x) \
    TAPAS_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: disable analysis inside one function body. */
#define TAPAS_NO_THREAD_SAFETY_ANALYSIS \
    TAPAS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace tapas {

/**
 * Annotated mutex. Same interface subset as std::mutex (Lockable),
 * so std-style generic code works, but carries the capability
 * attribute the analysis tracks.
 */
class TAPAS_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void lock() TAPAS_ACQUIRE() { m.lock(); }
    void unlock() TAPAS_RELEASE() { m.unlock(); }
    bool try_lock() TAPAS_TRY_ACQUIRE(true) { return m.try_lock(); }

  private:
    std::mutex m;
};

/** Annotated lock_guard equivalent over tapas::Mutex. */
class TAPAS_SCOPED_CAPABILITY MutexLock
{
  public:
    explicit MutexLock(Mutex &m) TAPAS_ACQUIRE(m) : mu(m)
    { mu.lock(); }
    ~MutexLock() TAPAS_RELEASE() { mu.unlock(); }

    MutexLock(const MutexLock &) = delete;
    MutexLock &operator=(const MutexLock &) = delete;

  private:
    Mutex &mu;
};

/**
 * Annotated two-mutex scoped lock (std::scoped_lock is opaque to the
 * analysis). Address-ordered acquisition, so cross-object pairs
 * (this->cacheMutex, other.cacheMutex) cannot deadlock against the
 * mirrored assignment running concurrently.
 */
class TAPAS_SCOPED_CAPABILITY MutexLock2
{
  public:
    MutexLock2(Mutex &a, Mutex &b) TAPAS_ACQUIRE(a, b)
        : first(&a < &b ? a : b), second(&a < &b ? b : a)
    {
        first.lock();
        second.lock();
    }
    ~MutexLock2() TAPAS_RELEASE()
    {
        second.unlock();
        first.unlock();
    }

    MutexLock2(const MutexLock2 &) = delete;
    MutexLock2 &operator=(const MutexLock2 &) = delete;

  private:
    Mutex &first;
    Mutex &second;
};

/**
 * Annotated unique_lock equivalent: BasicLockable, so it can be
 * handed to std::condition_variable_any::wait (which unlocks and
 * relocks it; the capability is held at entry and at return, which
 * is exactly what the analysis sees).
 */
class TAPAS_SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &m) TAPAS_ACQUIRE(m) : mu(m)
    { mu.lock(); }
    ~UniqueLock() TAPAS_RELEASE() { mu.unlock(); }

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

    /** BasicLockable for condition_variable_any. */
    void lock() TAPAS_ACQUIRE() { mu.lock(); }
    void unlock() TAPAS_RELEASE() { mu.unlock(); }

  private:
    Mutex &mu;
};

} // namespace tapas

#endif // TAPAS_COMMON_THREAD_ANNOTATIONS_HH
