// core::ColdStore — where evicted streams' serialized Pipeline state lives.
//
// One store per shard (so no two shards contend on its mutex). An entry is
// an opaque checkpoint blob (io/checkpoint.hpp format, a full checkpoint or
// a template delta, tier-enforced at restore time) held either in memory as
// a shared immutable string, or — when a spill directory is configured — as
// a file on disk. shared_ptr ownership is what makes mass cold-seeding
// cheap: 100k streams seeded from one fitted template all point at the same
// delta, so the cold side of a 100k-stream registration costs one
// serialization and one allocation.
//
// Thread safety: every method is safe from any thread (internal mutex).
// The serving layer still serializes put/peek/erase *per stream id* through
// the stream's produce mutex; the store's own lock only protects the map.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace edgedrift::core {

/// Keyed blob store for cold streams: in-memory by default, spilling
/// per-eviction blobs to `<spill_dir>/edgedrift-stream-<id>.ckpt` when a
/// spill directory is set.
class ColdStore {
 public:
  ColdStore() = default;
  ~ColdStore();

  ColdStore(const ColdStore&) = delete;
  ColdStore& operator=(const ColdStore&) = delete;

  /// Routes future put() blobs to disk. Must name an existing writable
  /// directory; entries already stored are unaffected.
  void set_spill_dir(std::string dir);

  /// Stores the blob for `id` (replacing any previous entry), spilling to
  /// disk when a spill dir is set. Returns false when the spill write
  /// failed (the entry is then kept in memory instead, so the stream stays
  /// restorable).
  bool put(std::uint64_t id, std::shared_ptr<const std::string> blob);

  /// Stores the blob in memory unconditionally — the mass-seeding entry
  /// point, where many ids deliberately share one template blob.
  void put_memory(std::uint64_t id, std::shared_ptr<const std::string> blob);

  /// The blob for `id`; nullptr when absent, when a spilled file cannot be
  /// read back, or when the read-back bytes fail the checksum recorded at
  /// put() time (a truncated or bit-flipped spill file is reported as a
  /// restore failure here, before the checkpoint parser ever sees it).
  /// Verification is folded into the single read pass — the file is read
  /// once and hashed from the in-memory buffer, never re-read. Does not
  /// remove the entry.
  std::shared_ptr<const std::string> peek(std::uint64_t id) const;

  /// Drops the entry (and deletes its spill file, if any).
  void erase(std::uint64_t id);

  /// Entries held.
  std::size_t count() const;

  /// Payload bytes across entries (deduplicated: ids sharing one in-memory
  /// template blob count its bytes once).
  std::size_t bytes() const;

 private:
  struct Entry {
    std::shared_ptr<const std::string> blob;  ///< Null when spilled.
    std::string path;                         ///< Spill file, or empty.
    std::size_t bytes = 0;
    /// util::digest64 of the blob, recorded when a spilled entry is written and
    /// verified by peek() when it is read back. In-memory entries skip it —
    /// their bytes never leave the process.
    std::uint64_t checksum = 0;
  };

  std::string spill_path_locked(std::uint64_t id) const;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::string spill_dir_;
};

}  // namespace edgedrift::core
