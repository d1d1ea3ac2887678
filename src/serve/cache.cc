#include "serve/cache.h"

namespace farmer {
namespace serve {

bool ResponseCache::Get(std::uint64_t version, std::string_view key,
                        std::string* value) {
  MutexLock lock(mutex_);
  auto it = map_.find(KeyRef{version, key});
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  *value = it->second->payload;
  ++hits_;
  return true;
}

void ResponseCache::Put(std::uint64_t version, std::string key,
                        std::string value) {
  if (value.size() > max_bytes_) return;
  MutexLock lock(mutex_);
  auto it = map_.find(KeyRef{version, key});
  if (it != map_.end()) {
    bytes_ -= it->second->payload.size();
    bytes_ += value.size();
    it->second->payload = std::move(value);
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    bytes_ += value.size();
    lru_.push_front(Entry{version, std::move(key), std::move(value)});
    map_.emplace(KeyRef{version, lru_.front().key}, lru_.begin());
  }
  EvictLocked();
}

void ResponseCache::DropVersionsBelow(std::uint64_t version) {
  MutexLock lock(mutex_);
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->version < version) {
      bytes_ -= it->payload.size();
      map_.erase(KeyRef{it->version, it->key});
      it = lru_.erase(it);
      ++evictions_;
    } else {
      ++it;
    }
  }
}

void ResponseCache::Clear() {
  MutexLock lock(mutex_);
  lru_.clear();
  map_.clear();
  bytes_ = 0;
}

void ResponseCache::EvictLocked() {
  while (!lru_.empty() &&
         (map_.size() > max_entries_ || bytes_ > max_bytes_)) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.payload.size();
    map_.erase(KeyRef{victim.version, victim.key});
    lru_.pop_back();
    ++evictions_;
  }
}

std::size_t ResponseCache::size() const {
  MutexLock lock(mutex_);
  return map_.size();
}

std::size_t ResponseCache::bytes() const {
  MutexLock lock(mutex_);
  return bytes_;
}

std::uint64_t ResponseCache::hits() const {
  MutexLock lock(mutex_);
  return hits_;
}

std::uint64_t ResponseCache::misses() const {
  MutexLock lock(mutex_);
  return misses_;
}

std::uint64_t ResponseCache::evictions() const {
  MutexLock lock(mutex_);
  return evictions_;
}

}  // namespace serve
}  // namespace farmer
