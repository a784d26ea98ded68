#pragma once

/**
 * @file
 * Guarded<T>: a value reachable only while its own mutex is held.
 *
 * The mutex and the value are private; lock() is the one way in. It
 * returns a Locked handle that owns a std::unique_lock, and the handle
 * is the only thing that dereferences to the value. So "accessed only
 * under its mutex" is a property of the type, checked by the compiler:
 *
 * @code
 *   Guarded<std::vector<Event>> g_events;
 *
 *   auto events = g_events.lock();   // mutex held until `events` dies
 *   events->push_back(e);
 *
 *   g_events.value_.clear();         // error: private
 *   Event &e = (*g_events.lock())[0]; // error: operator* on a temporary
 * @endcode
 *
 * The handle's operator* and operator-> are lvalue-only; their rvalue
 * overloads are deleted, so a reference taken through a temporary
 * handle cannot outlive the lock it was taken under. The handle can be
 * neither copied nor moved, so no second handle can outlive the lock
 * either.
 */

#include <mutex>

namespace snoop {

template <class T>
class Guarded
{
  public:
    /** Proof that the mutex is held: the value's only access path. */
    class Locked
    {
      public:
        // Declaring the copy deleted also suppresses the move: the
        // handle returned by lock() is the only one there is.
        Locked(const Locked &) = delete;
        Locked &operator=(const Locked &) = delete;

        T &operator*() & { return *value_; }
        T &operator*() && = delete;
        T *operator->() & { return value_; }
        T *operator->() && = delete;

      private:
        friend class Guarded;

        Locked(std::mutex &mutex, T &value) : lock_(mutex), value_(&value)
        {
        }

        std::unique_lock<std::mutex> lock_;
        T *value_;
    };

    /** Take the mutex; the value is reachable through the handle until
     * it goes out of scope. */
    Locked lock() { return Locked(mutex_, value_); }

  private:
    std::mutex mutex_;
    T value_{};
};

} // namespace snoop
