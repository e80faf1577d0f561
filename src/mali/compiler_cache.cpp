#include "mali/compiler_cache.h"

#include "common/fnv1a.h"

namespace malisim::mali {

std::uint64_t CompileCache::Key(const kir::Program& program,
                                const MaliTimingParams& timing) {
  // Every timing field the pure compile (AnalyzeForMali) reads. The fault
  // gates read more (via the injector), but those run outside the cache.
  return Fnv1a()
      .Bytes(kir::ToText(program))
      .Int(timing.max_thread_reg_bytes, 4)
      .Int(timing.reg_file_bytes_per_core, 4)
      .Int(timing.max_threads_per_core, 4)
      .Double(timing.restrict_sched_factor)
      .Double(timing.const_sched_factor)
      .digest();
}

std::shared_ptr<const CompileCache::Entry> CompileCache::Lookup(
    std::uint64_t key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return it->second;
}

std::shared_ptr<const CompileCache::Entry> CompileCache::Insert(
    std::uint64_t key, Entry entry) {
  auto shared = std::make_shared<const Entry>(std::move(entry));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.emplace(key, std::move(shared));
  return it->second;
}

CompileCache::Stats CompileCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::size_t CompileCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace malisim::mali
