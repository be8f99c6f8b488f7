#include "edgedrift/core/cold_store.hpp"

#include <cstdio>
#include <fstream>
#include <unordered_set>
#include <utility>

#include "edgedrift/util/digest.hpp"

namespace edgedrift::core {

ColdStore::~ColdStore() {
  // Spill files belong to this store's lifetime; leave nothing behind.
  for (const auto& [id, entry] : entries_) {
    if (!entry.path.empty()) std::remove(entry.path.c_str());
  }
}

void ColdStore::set_spill_dir(std::string dir) {
  std::lock_guard lock(mutex_);
  spill_dir_ = std::move(dir);
}

std::string ColdStore::spill_path_locked(std::uint64_t id) const {
  return spill_dir_ + "/edgedrift-stream-" + std::to_string(id) + ".ckpt";
}

bool ColdStore::put(std::uint64_t id,
                    std::shared_ptr<const std::string> blob) {
  std::lock_guard lock(mutex_);
  Entry entry;
  entry.bytes = blob->size();
  bool spilled_ok = true;
  if (!spill_dir_.empty()) {
    entry.checksum = util::digest64(blob->data(), blob->size());
    entry.path = spill_path_locked(id);
    std::ofstream out(entry.path, std::ios::binary | std::ios::trunc);
    if (out && out.write(blob->data(),
                         static_cast<std::streamsize>(blob->size()))) {
      out.close();
      spilled_ok = static_cast<bool>(out);
    } else {
      spilled_ok = false;
    }
    if (!spilled_ok) {
      // Failed spill: fall back to holding the blob in memory so the
      // stream stays restorable; report the degradation to the caller.
      std::remove(entry.path.c_str());
      entry.path.clear();
    }
  }
  if (entry.path.empty()) entry.blob = std::move(blob);
  auto [it, inserted] = entries_.insert_or_assign(id, std::move(entry));
  (void)it;
  (void)inserted;
  return spilled_ok;
}

void ColdStore::put_memory(std::uint64_t id,
                           std::shared_ptr<const std::string> blob) {
  std::lock_guard lock(mutex_);
  Entry entry;
  entry.bytes = blob->size();
  entry.blob = std::move(blob);
  entries_.insert_or_assign(id, std::move(entry));
}

std::shared_ptr<const std::string> ColdStore::peek(std::uint64_t id) const {
  std::string path;
  std::uint64_t expected = 0;
  std::size_t expected_bytes = 0;
  {
    std::lock_guard lock(mutex_);
    const auto it = entries_.find(id);
    if (it == entries_.end()) return nullptr;
    if (it->second.blob != nullptr) return it->second.blob;
    path = it->second.path;
    expected = it->second.checksum;
    expected_bytes = it->second.bytes;
  }
  // Spilled entry: read the file outside the lock (the per-stream produce
  // mutex already serializes accesses to one id), then verify the put-time
  // checksum from the buffer just read — one pass over the file, one over
  // memory, no re-read. A truncated or bit-flipped file surfaces as a
  // restore failure here instead of reaching the checkpoint parser.
  std::ifstream in(path, std::ios::binary);
  if (!in) return nullptr;
  auto blob = std::make_shared<std::string>();
  in.seekg(0, std::ios::end);
  const auto size = in.tellg();
  if (size < 0) return nullptr;
  blob->resize(static_cast<std::size_t>(size));
  in.seekg(0, std::ios::beg);
  if (!in.read(blob->data(), size)) return nullptr;
  if (blob->size() != expected_bytes ||
      util::digest64(blob->data(), blob->size()) != expected) {
    return nullptr;
  }
  return blob;
}

void ColdStore::erase(std::uint64_t id) {
  std::lock_guard lock(mutex_);
  const auto it = entries_.find(id);
  if (it == entries_.end()) return;
  if (!it->second.path.empty()) std::remove(it->second.path.c_str());
  entries_.erase(it);
}

bool ColdStore::contains(std::uint64_t id) const {
  std::lock_guard lock(mutex_);
  return entries_.find(id) != entries_.end();
}

std::size_t ColdStore::count() const {
  std::lock_guard lock(mutex_);
  return entries_.size();
}

std::size_t ColdStore::bytes() const {
  std::lock_guard lock(mutex_);
  // Deduplicate by blob identity: mass-seeded ids share one template blob
  // and should report its footprint once — that sharing is the point.
  std::unordered_set<const std::string*> seen;
  std::size_t total = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry.blob != nullptr) {
      if (seen.insert(entry.blob.get()).second) total += entry.bytes;
    } else {
      total += entry.bytes;
    }
  }
  return total;
}

}  // namespace edgedrift::core
