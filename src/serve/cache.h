#ifndef FARMER_SERVE_CACHE_H_
#define FARMER_SERVE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/sync.h"

namespace farmer {
namespace serve {

/// Thread-safe LRU cache for rendered response payloads, keyed by
/// (snapshot version, canonicalized query). The version is part of the
/// key, so a hot snapshot swap can never serve a stale payload: entries
/// rendered against an old snapshot become unreachable the moment the
/// server bumps its version, and DropVersionsBelow() reclaims their
/// bytes eagerly instead of waiting for LRU pressure.
///
/// Bounded both by entry count and by total payload bytes; inserting
/// past either bound evicts the least-recently-used entries. One mutex
/// guards everything — entries are small strings and the critical
/// sections are a few pointer moves, so contention is not a concern at
/// the server's request rates (shards copy the payload out under the
/// lock and render outside it).
class ResponseCache {
 public:
  ResponseCache(std::size_t max_entries, std::size_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  ResponseCache(const ResponseCache&) = delete;
  ResponseCache& operator=(const ResponseCache&) = delete;

  /// Looks up (version, key); on hit copies the payload into *value,
  /// promotes the entry to most-recently-used, and returns true. The
  /// lookup itself copies nothing.
  bool Get(std::uint64_t version, std::string_view key, std::string* value);

  /// Inserts (or refreshes) (version, key) -> `value`, then evicts LRU
  /// entries until both bounds hold again. Values larger than the byte
  /// bound are not cached at all.
  void Put(std::uint64_t version, std::string key, std::string value);

  /// Frees every entry older than `version` — called on snapshot swap
  /// so dead payloads stop occupying byte budget. (Version-keyed
  /// lookups already make them unreachable; this is reclamation, not
  /// correctness.)
  void DropVersionsBelow(std::uint64_t version);

  /// Drops every entry (the bench's cold-cache phases).
  void Clear();

  std::size_t size() const;
  std::size_t bytes() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

 private:
  struct Entry {
    std::uint64_t version;
    std::string key;  // The canonical key; the map views it in place.
    std::string payload;
  };

  /// A map key: the version plus a view of an entry's own key (list
  /// nodes never move, so the view stays valid while the entry lives).
  /// Lookups view the caller's key instead, so neither path copies it.
  struct KeyRef {
    std::uint64_t version;
    std::string_view key;
    bool operator==(const KeyRef&) const = default;
  };
  struct KeyRefHash {
    std::size_t operator()(const KeyRef& k) const {
      return std::hash<std::string_view>()(k.key) ^
             static_cast<std::size_t>(k.version * 0x9e3779b97f4a7c15ULL);
    }
  };

  void EvictLocked() FARMER_REQUIRES(mutex_);

  const std::size_t max_entries_;
  const std::size_t max_bytes_;

  mutable Mutex mutex_;
  // Front = most recently used.
  std::list<Entry> lru_ FARMER_GUARDED_BY(mutex_);
  std::unordered_map<KeyRef, std::list<Entry>::iterator, KeyRefHash> map_
      FARMER_GUARDED_BY(mutex_);
  std::size_t bytes_ FARMER_GUARDED_BY(mutex_) = 0;
  std::uint64_t hits_ FARMER_GUARDED_BY(mutex_) = 0;
  std::uint64_t misses_ FARMER_GUARDED_BY(mutex_) = 0;
  std::uint64_t evictions_ FARMER_GUARDED_BY(mutex_) = 0;
};

}  // namespace serve
}  // namespace farmer

#endif  // FARMER_SERVE_CACHE_H_
