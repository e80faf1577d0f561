#include "obs/recorder.h"

#include <utility>

#include "common/log.h"

namespace malisim::obs {

void FillLaunchCounts(std::span<const kir::CoreRun> cores,
                      const kir::WorkGroupRun& run, std::uint64_t dram_bytes,
                      KernelRecord* record) {
  for (const kir::CoreRun& core : cores) {
    for (std::size_t op = 0; op < record->opcode_counts.size(); ++op) {
      record->opcode_counts[op] += core.opcode_tally[op];
    }
  }
  record->ops = run.ops;
  record->loads = run.loads;
  record->stores = run.stores;
  record->load_bytes = run.load_bytes;
  record->store_bytes = run.store_bytes;
  record->atomics = run.atomics;
  record->barriers_crossed = run.barriers_crossed;
  record->work_items = run.work_items;
  record->dram_bytes = dram_bytes;
}

void Recorder::NoteRecordLocked() {
  if (!sealed_) return;
  ++late_records_;
  if (late_records_ == 1) {
    MALI_LOG_WARN(
        "obs: record added to a sealed recorder — an export taken before "
        "this point is missing events; re-export or seal later");
  }
}

void Recorder::AddKernel(KernelRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  NoteRecordLocked();
  kernels_.push_back(std::move(record));
}

void Recorder::AddCommand(CommandRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  NoteRecordLocked();
  commands_.push_back(std::move(record));
}

void Recorder::AddPowerSegment(PowerSegment segment) {
  std::lock_guard<std::mutex> lock(mutex_);
  NoteRecordLocked();
  segments_.push_back(std::move(segment));
}

void Recorder::AddFault(FaultRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  NoteRecordLocked();
  faults_.push_back(std::move(record));
}

void Recorder::AddGraph(GraphRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  NoteRecordLocked();
  graphs_.push_back(std::move(record));
}

void Recorder::AddSlo(SloRecord record) {
  std::lock_guard<std::mutex> lock(mutex_);
  NoteRecordLocked();
  slos_.push_back(std::move(record));
}

std::vector<KernelRecord> Recorder::kernels() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return kernels_;
}

std::vector<CommandRecord> Recorder::commands() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return commands_;
}

std::vector<PowerSegment> Recorder::power_segments() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return segments_;
}

std::vector<FaultRecord> Recorder::faults() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_;
}

std::vector<GraphRecord> Recorder::graphs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_;
}

std::vector<SloRecord> Recorder::slos() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slos_;
}

RecorderSnapshot Recorder::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  RecorderSnapshot snapshot;
  snapshot.kernels = kernels_;
  snapshot.commands = commands_;
  snapshot.power_segments = segments_;
  snapshot.faults = faults_;
  snapshot.graphs = graphs_;
  snapshot.slos = slos_;
  return snapshot;
}

void Recorder::Seal() {
  std::lock_guard<std::mutex> lock(mutex_);
  sealed_ = true;
}

bool Recorder::sealed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sealed_;
}

std::uint64_t Recorder::late_records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return late_records_;
}

}  // namespace malisim::obs
