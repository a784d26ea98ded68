#pragma once

/**
 * @file
 * LookupMap<K, V, Hash>: a hash map that can be looked up but not
 * iterated.
 *
 * Hash iteration order depends on the standard library and on the
 * insertion history, so it must never reach a result that the
 * bit-identity contract covers. A bit-identity-critical module
 * (tools/lint/determinism.txt) keys its indexes through this type
 * instead of a raw std::unordered_map: without begin()/end() there is
 * no order to leak. snoop_lint's `fp-determinism` rule bans the
 * `unordered_` containers from those modules, and the ctest
 * lint/lookup_map proves that a range-for over a LookupMap does not
 * compile.
 */

#include <cstddef>
#include <functional>
#include <unordered_map>
#include <utility>

namespace snoop {

template <typename K, typename V, typename Hash = std::hash<K>>
class LookupMap
{
  public:
    /** The value stored under @p key, or nullptr when absent. */
    V *
    find(const K &key)
    {
        auto it = map_.find(key);
        return it == map_.end() ? nullptr : &it->second;
    }

    /** Store @p value under @p key, replacing any previous value. */
    void
    insertOrAssign(const K &key, V value)
    {
        map_.insert_or_assign(key, std::move(value));
    }

    /** Remove @p key; a no-op when absent. */
    void erase(const K &key) { map_.erase(key); }

    void clear() { map_.clear(); }
    size_t size() const { return map_.size(); }

  private:
    std::unordered_map<K, V, Hash> map_;
};

} // namespace snoop
