#include "serve/scene_cache.hpp"

#include <bit>
#include <cstring>
#include <utility>

#include "md/engine.hpp"
#include "md/scene_io.hpp"
#include "parallel/thread_pool.hpp"

namespace mwx::serve {

namespace {

int resolve_chunks(parallel::FixedThreadPool* pool, int n_chunks) {
  if (pool == nullptr) return 1;
  return n_chunks > 0 ? n_chunks : pool->n_threads();
}

}  // namespace

std::string scene_text(const md::MolecularSystem& sys) {
  return scene_text(sys, nullptr, 1);
}

std::string scene_text(const md::MolecularSystem& sys, parallel::FixedThreadPool* pool,
                       int n_chunks) {
  return md::format_scene(sys, pool, resolve_chunks(pool, n_chunks));
}

std::string checkpoint_text(const md::Engine& engine) {
  return checkpoint_text(engine, nullptr, 1);
}

std::string checkpoint_text(const md::Engine& engine, parallel::FixedThreadPool* pool,
                            int n_chunks) {
  return md::format_checkpoint(engine.system(), engine.neighbor_list().reference_positions(),
                               pool, resolve_chunks(pool, n_chunks));
}

// XXH64 (seed 0): four independent lanes each take every fourth 8-byte word,
// so the multiply chains overlap instead of serializing one per byte.  Words
// are read in host byte order — the key never leaves the process.
std::uint64_t SceneCache::content_hash(std::string_view text) {
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ull;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ull;
  constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ull;
  auto word = [](const char* p) {
    std::uint64_t w;
    std::memcpy(&w, p, sizeof w);
    return w;
  };
  auto lane_round = [](std::uint64_t acc, std::uint64_t w) {
    return std::rotl(acc + w * kP2, 31) * kP1;
  };
  const char* p = text.data();
  const char* const end = p + text.size();
  std::uint64_t h = kP5;
  if (text.size() >= 32) {
    std::uint64_t v[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    for (; end - p >= 32; p += 32) {
      for (int l = 0; l < 4; ++l) v[l] = lane_round(v[l], word(p + 8 * l));
    }
    h = std::rotl(v[0], 1) + std::rotl(v[1], 7) + std::rotl(v[2], 12) + std::rotl(v[3], 18);
    for (const std::uint64_t lane : v) h = (h ^ lane_round(0, lane)) * kP1 + kP4;
  }
  h += text.size();
  for (; end - p >= 8; p += 8) h = std::rotl(h ^ lane_round(0, word(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    std::uint32_t w;
    std::memcpy(&w, p, sizeof w);
    h = std::rotl(h ^ (w * kP1), 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ (static_cast<unsigned char>(*p) * kP5), 11) * kP1;
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::size_t SceneCache::size() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

void SceneCache::set_parse_hook(std::function<void()> hook) {
  std::lock_guard lock(mutex_);
  parse_hook_ = std::move(hook);
}

std::shared_ptr<const md::MolecularSystem> SceneCache::load(const std::string& text) {
  const std::uint64_t key = content_hash(text);
  std::function<void()> hook;
  {
    std::lock_guard lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.text == text) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.system;
    }
    hook = parse_hook_;
  }

  // Probable miss (or collision): parse outside the lock so a slow parse of
  // one scene never serializes hits on others.  The hit/miss verdict waits
  // for the re-lock — a concurrent loader may insert this exact content
  // while we parse, and that outcome is a hit (the cache served the request;
  // this thread's parse was wasted work, not a cache miss).
  if (hook) hook();
  auto system = std::make_shared<const md::MolecularSystem>(md::load_scene(text));

  std::lock_guard lock(mutex_);
  if (max_entries_ == 0) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return system;
  }
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.text == text) {  // racer beat us: the cache resolved it
      hits_.fetch_add(1, std::memory_order_relaxed);
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.system;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    return system;  // genuine collision: serve uncached
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  if (entries_.size() >= max_entries_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{text, system, lru_.begin()});
  return system;
}

}  // namespace mwx::serve
