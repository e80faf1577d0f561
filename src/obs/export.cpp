#include "obs/export.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/json.h"
#include "common/table.h"
#include "common/version.h"
#include "kir/opcode.h"

namespace malisim::obs {

namespace {

// CSV cells use the same locale-independent %.17g-equivalent rendering as
// the JSON exports (non-finite -> "0"), so profiles round-trip exactly.
std::string Num(double v) { return JsonNumber(v); }

// Comment header for the obs CSV artifacts: schema id + producing commit,
// so a stray profile_metrics.csv is attributable. '#' lines are skipped by
// pandas (comment='#') and gnuplot alike.
void CsvHeader(std::ostringstream* csv, const char* schema) {
  *csv << "# schema: " << schema << "\n# git: " << GitSha() << "\n";
}

void WriteRails(JsonWriter* w, const RailPower& r) {
  w->BeginObject();
  w->Key("total");
  w->Number(r.total);
  w->Key("static");
  w->Number(r.static_w);
  w->Key("cpu");
  w->Number(r.cpu);
  w->Key("gpu");
  w->Number(r.gpu);
  w->Key("dram");
  w->Number(r.dram);
  w->EndObject();
}

/// Cache accesses issued by a kernel: loads + stores + atomic read/write.
std::uint64_t CacheAccesses(const KernelRecord& k) {
  return k.loads + k.stores + 2 * k.atomics;
}

double HitRate(std::uint64_t accesses, std::uint64_t misses) {
  if (accesses == 0) return 1.0;
  return 1.0 - static_cast<double>(misses) / static_cast<double>(accesses);
}

std::uint64_t TotalL1Misses(const KernelRecord& k) {
  std::uint64_t n = 0;
  for (const CoreKernelCounters& c : k.cores) n += c.l1_misses;
  return n;
}

std::uint64_t TotalL2Misses(const KernelRecord& k) {
  std::uint64_t n = 0;
  for (const CoreKernelCounters& c : k.cores) n += c.l2_misses;
  return n;
}

Status WriteStringTo(const std::string& content, const std::string& path) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    return InvalidArgumentError("cannot open output '" + path + "'");
  }
  file << content;
  return file.good() ? Status::Ok()
                     : InternalError("short write to '" + path + "'");
}

}  // namespace

void BuildTrace(const Recorder& recorder, const power::PowerModel& model,
                TraceBuilder* trace) {
  const RecorderSnapshot snap = recorder.TakeSnapshot();
  const std::vector<KernelRecord>& kernels = snap.kernels;
  const std::vector<CommandRecord>& commands = snap.commands;
  const std::vector<PowerSegment>& segments = snap.power_segments;

  trace->SetProcessName(kTracePidSoc, "modelled SoC (Exynos 5250)");
  trace->SetThreadName(kTracePidSoc, kTraceTidA15Base + 0, "a15-core0");
  trace->SetThreadName(kTracePidSoc, kTraceTidA15Base + 1, "a15-core1");
  for (int c = 0; c < 4; ++c) {
    trace->SetThreadName(kTracePidSoc, kTraceTidMaliBase + c,
                         "mali-core" + std::to_string(c));
  }
  trace->SetThreadName(kTracePidSoc, kTraceTidQueue, "ocl-command-queue");

  // Hetero co-execution sub-launches get their own lane pair so a split
  // launch reads as two overlapping halves instead of interleaving with
  // plain per-core device spans. Stable names: "hetero/mali", "hetero/a15".
  bool any_hetero = false;
  for (const KernelRecord& k : kernels) any_hetero |= (k.scope == "hetero");
  if (any_hetero) {
    trace->SetThreadName(kTracePidSoc, kTraceTidHeteroMali, "hetero/mali");
    trace->SetThreadName(kTracePidSoc, kTraceTidHeteroA15, "hetero/a15");
  }

  // Kernel launches: back-to-back per device, one span per modelled core
  // with up to 8 nested work-group batch slices.
  double device_cursor_us[2] = {0.0, 0.0};  // [0]=a15, [1]=mali
  for (const KernelRecord& k : kernels) {
    if (k.scope == "hetero") {
      // One aggregated span per sub-range launch on the hetero lane.
      const bool on_mali = k.device == "mali-t604";
      std::uint64_t groups = 0;
      for (const CoreKernelCounters& c : k.cores) groups += c.groups;
      trace->AddSpan(k.kernel, "hetero",
                     on_mali ? kTraceTidHeteroMali : kTraceTidHeteroA15,
                     k.seconds,
                     {{"device", k.device},
                      {"groups", std::to_string(groups)},
                      {"bottleneck", k.bottleneck}});
      continue;
    }
    const bool on_mali = k.device == "mali-t604";
    const int base_tid = on_mali ? kTraceTidMaliBase : kTraceTidA15Base;
    double& cursor = device_cursor_us[on_mali ? 1 : 0];
    const double dur_us = k.seconds * 1e6;
    for (std::size_t c = 0; c < k.cores.size(); ++c) {
      const CoreKernelCounters& core = k.cores[c];
      const double core_dur_us = std::min(dur_us, core.core_sec * 1e6);
      if (core.groups == 0 && core_dur_us <= 0.0) continue;
      std::vector<std::pair<std::string, double>> metrics = {
          {"groups", static_cast<double>(core.groups)},
          {"l1_misses", static_cast<double>(core.l1_misses)},
          {"l2_misses", static_cast<double>(core.l2_misses)},
          {"arith_cycles", core.arith_cycles},
          {"ls_cycles", core.ls_cycles},
          {"stall_sec", core.stall_sec},
          {"imbalance", core.imbalance},
      };
      trace->AddSpanAt(k.kernel, k.device, kTracePidSoc,
                       base_tid + static_cast<int>(c), cursor, core_dur_us,
                       {{"bottleneck", k.bottleneck}}, std::move(metrics));
      // Work-group batch slices: evenly divided, at most 8 per core, so a
      // 10^5-group launch stays inspectable without a 10^5-event trace.
      const std::uint64_t batches = std::min<std::uint64_t>(core.groups, 8);
      for (std::uint64_t s = 0; s < batches; ++s) {
        const std::uint64_t g0 = core.groups * s / batches;
        const std::uint64_t g1 = core.groups * (s + 1) / batches;
        trace->AddSpanAt(
            "wg[" + std::to_string(g0) + ".." + std::to_string(g1) + ")",
            "work-groups", kTracePidSoc, base_tid + static_cast<int>(c),
            cursor + core_dur_us * static_cast<double>(s) /
                         static_cast<double>(batches),
            core_dur_us / static_cast<double>(batches),
            {{"groups", std::to_string(g1 - g0)}});
      }
    }
    cursor += dur_us;
  }

  // Host command queue, in submission order.
  double queue_cursor_us = 0.0;
  for (const CommandRecord& cmd : commands) {
    const std::string name =
        cmd.detail.empty() ? cmd.kind : cmd.kind + " " + cmd.detail;
    trace->AddSpanAt(name, "ocl", kTracePidSoc, kTraceTidQueue,
                     queue_cursor_us, cmd.seconds * 1e6,
                     {{"bytes", std::to_string(cmd.bytes)}});
    queue_cursor_us += cmd.seconds * 1e6;
  }

  // Scheduled event graphs: nodes at their modelled start/finish on
  // per-lane tracks, a causal flow arrow per dependency edge, and
  // critical-path membership in the args. Multiple graphs (one per
  // context) are laid out back-to-back.
  if (!snap.graphs.empty()) {
    int max_lane = 0;
    for (const GraphRecord& g : snap.graphs) {
      for (const GraphNodeRecord& n : g.nodes) max_lane = std::max(max_lane, n.lane);
    }
    static constexpr const char* kSchedLaneNames[] = {"sched/host",
                                                      "sched/compute",
                                                      "sched/transfer"};
    for (int lane = 0; lane <= max_lane; ++lane) {
      trace->SetThreadName(kTracePidSoc, kTraceTidSchedBase + lane,
                           lane < 3 ? kSchedLaneNames[lane]
                                    : "sched/lane" + std::to_string(lane));
    }
    std::uint64_t flow_id = 1;
    double base_us = 0.0;
    for (const GraphRecord& g : snap.graphs) {
      const double window =
          g.makespan_sec > 0.0 ? g.makespan_sec : 1.0;
      std::vector<std::pair<std::string, double>> lane_util;
      for (std::size_t lane = 0; lane < g.lane_busy_sec.size(); ++lane) {
        lane_util.emplace_back(
            lane < 3 ? kSchedLaneNames[lane]
                     : "sched/lane" + std::to_string(lane),
            g.lane_busy_sec[lane] / window);
      }
      trace->AddCounter("sched_lane_utilization", kTracePidSoc, base_us,
                        std::move(lane_util));
      for (std::size_t i = 0; i < g.nodes.size(); ++i) {
        const GraphNodeRecord& n = g.nodes[i];
        trace->AddSpanAt(
            n.label.empty() ? "cmd" : n.label, "sched:" + g.label,
            kTracePidSoc, kTraceTidSchedBase + n.lane,
            base_us + n.start_sec * 1e6,
            (n.finish_sec - n.start_sec) * 1e6,
            {{"critical", n.critical ? "true" : "false"}});
        for (const std::uint32_t dep : n.deps) {
          if (dep >= g.nodes.size()) continue;
          const GraphNodeRecord& d = g.nodes[dep];
          trace->AddFlow("dep", "sched", flow_id++, kTracePidSoc,
                         kTraceTidSchedBase + d.lane,
                         base_us + d.finish_sec * 1e6,
                         kTraceTidSchedBase + n.lane,
                         base_us + n.start_sec * 1e6);
        }
      }
      base_us += g.makespan_sec * 1e6;
    }
  }

  // Power meter process: measurement windows + sampled per-rail counter
  // track. Separate pid because its timebase (seconds of meter time) is
  // unrelated to the µs-scale modelled kernel timeline above.
  if (!segments.empty()) {
    trace->SetProcessName(kTracePidMeter,
                          "virtual power meter (WT230-style)");
    trace->SetThreadName(kTracePidMeter, kTraceTidMeter, "meter-window");
    PowerSampler sampler(&model, recorder.options().power_hz);
    const PowerTimeline timeline = sampler.Render(segments);
    for (const SegmentPower& seg : timeline.segments) {
      trace->AddSpanAt(seg.label, "power", kTracePidMeter, kTraceTidMeter,
                       seg.start_sec * 1e6, seg.window_sec * 1e6,
                       {{"avg_w", FormatDouble(seg.watts.total, 3)},
                        {"energy_j", FormatDouble(seg.energy_j.total, 3)}});
    }
    for (const PowerSample& s : timeline.samples) {
      trace->AddCounter("power_w", kTracePidMeter, s.t_sec * 1e6,
                        {{"cpu", s.watts.cpu},
                         {"gpu", s.watts.gpu},
                         {"dram", s.watts.dram},
                         {"static", s.watts.static_w}});
    }
  }
}

Status WritePerfettoTrace(const Recorder& recorder,
                          const power::PowerModel& model,
                          const std::string& path) {
  TraceBuilder trace;
  BuildTrace(recorder, model, &trace);
  return trace.WriteTo(path);
}

std::string MetricsJson(const Recorder& recorder,
                        const power::PowerModel& model) {
  // One consistent cut: the faults array must belong to the same run state
  // as the kernels/segments it explains.
  const RecorderSnapshot snap = recorder.TakeSnapshot();
  const std::vector<KernelRecord>& kernels = snap.kernels;
  const std::vector<CommandRecord>& commands = snap.commands;
  const std::vector<PowerSegment>& segments = snap.power_segments;

  JsonWriter w;
  w.BeginObject();
  w.Key("schema");
  w.String("malisim-prof-v1");

  w.Key("kernels");
  w.BeginArray();
  for (const KernelRecord& k : kernels) {
    w.BeginObject();
    w.Key("name");
    w.String(k.kernel);
    w.Key("device");
    w.String(k.device);
    w.Key("seconds");
    w.Number(k.seconds);

    w.Key("opcode_histogram");
    w.BeginObject();
    for (int op = 0; op < kir::kNumOpcodeValues; ++op) {
      if (k.opcode_counts[static_cast<std::size_t>(op)] == 0) continue;
      w.Key(std::string(kir::OpcodeName(static_cast<kir::Opcode>(op))));
      w.Number(k.opcode_counts[static_cast<std::size_t>(op)]);
    }
    w.EndObject();

    const std::uint64_t accesses = CacheAccesses(k);
    const std::uint64_t l1_misses = TotalL1Misses(k);
    const std::uint64_t l2_misses = TotalL2Misses(k);
    w.Key("cache");
    w.BeginObject();
    w.Key("accesses");
    w.Number(accesses);
    w.Key("l1_misses");
    w.Number(l1_misses);
    w.Key("l1_hit_rate");
    w.Number(HitRate(accesses, l1_misses));
    w.Key("l2_misses");
    w.Number(l2_misses);
    w.Key("l2_hit_rate");
    w.Number(HitRate(l1_misses, l2_misses));
    w.EndObject();

    w.Key("memory");
    w.BeginObject();
    w.Key("loads");
    w.Number(k.loads);
    w.Key("stores");
    w.Number(k.stores);
    w.Key("load_bytes");
    w.Number(k.load_bytes);
    w.Key("store_bytes");
    w.Number(k.store_bytes);
    w.Key("atomics");
    w.Number(k.atomics);
    w.Key("dram_bytes");
    w.Number(k.dram_bytes);
    w.EndObject();

    double arith_cycles = 0.0;
    double ls_cycles = 0.0;
    for (const CoreKernelCounters& c : k.cores) {
      arith_cycles += c.arith_cycles;
      ls_cycles += c.ls_cycles;
    }
    w.Key("pipes");
    w.BeginObject();
    w.Key("arith_cycles");
    w.Number(arith_cycles);
    w.Key("ls_cycles");
    w.Number(ls_cycles);
    w.Key("dram_bw_floor_sec");
    w.Number(k.dram_bw_floor_sec);
    w.Key("atomic_floor_sec");
    w.Number(k.atomic_floor_sec);
    w.Key("bottleneck");
    w.String(k.bottleneck);
    w.EndObject();

    w.Key("occupancy");
    w.BeginObject();
    w.Key("work_items");
    w.Number(k.work_items);
    w.Key("barriers_crossed");
    w.Number(k.barriers_crossed);
    w.Key("threads_per_core");
    w.Number(static_cast<std::uint64_t>(k.threads_per_core));
    w.Key("live_reg_bytes");
    w.Number(static_cast<std::uint64_t>(k.live_reg_bytes));
    w.Key("sched_factor");
    w.Number(k.sched_factor);
    w.EndObject();

    w.Key("cores");
    w.BeginArray();
    for (const CoreKernelCounters& c : k.cores) {
      w.BeginObject();
      w.Key("groups");
      w.Number(c.groups);
      w.Key("l1_misses");
      w.Number(c.l1_misses);
      w.Key("l2_misses");
      w.Number(c.l2_misses);
      w.Key("arith_cycles");
      w.Number(c.arith_cycles);
      w.Key("ls_cycles");
      w.Number(c.ls_cycles);
      w.Key("dispatch_cycles");
      w.Number(c.dispatch_cycles);
      w.Key("stall_sec");
      w.Number(c.stall_sec);
      w.Key("busy_sec");
      w.Number(c.busy_sec);
      w.Key("core_sec");
      w.Number(c.core_sec);
      w.Key("imbalance");
      w.Number(c.imbalance);
      w.EndObject();
    }
    w.EndArray();
    w.EndObject();
  }
  w.EndArray();

  w.Key("commands");
  w.BeginArray();
  for (const CommandRecord& c : commands) {
    w.BeginObject();
    w.Key("kind");
    w.String(c.kind);
    w.Key("detail");
    w.String(c.detail);
    w.Key("bytes");
    w.Number(c.bytes);
    w.Key("seconds");
    w.Number(c.seconds);
    w.EndObject();
  }
  w.EndArray();

  PowerSampler sampler(&model, recorder.options().power_hz);
  const PowerTimeline timeline = sampler.Render(segments);
  w.Key("power");
  w.BeginObject();
  w.Key("sampling_hz");
  w.Number(timeline.sampling_hz);
  w.Key("total_sec");
  w.Number(timeline.total_sec);
  w.Key("segments");
  w.BeginArray();
  for (const SegmentPower& s : timeline.segments) {
    w.BeginObject();
    w.Key("label");
    w.String(s.label);
    w.Key("window_sec");
    w.Number(s.window_sec);
    w.Key("watts");
    WriteRails(&w, s.watts);
    w.Key("energy_j");
    WriteRails(&w, s.energy_j);
    w.EndObject();
  }
  w.EndArray();
  w.Key("energy_j");
  WriteRails(&w, timeline.TotalEnergy());
  w.Key("samples");
  w.BeginArray();
  for (const PowerSample& s : timeline.samples) {
    w.BeginArray();
    w.Number(s.t_sec);
    w.Number(s.watts.total);
    w.Number(s.watts.cpu);
    w.Number(s.watts.gpu);
    w.Number(s.watts.dram);
    w.Number(s.watts.static_w);
    w.EndArray();
  }
  w.EndArray();
  w.EndObject();

  w.Key("faults");
  w.BeginArray();
  for (const FaultRecord& f : snap.faults) {
    w.BeginObject();
    w.Key("site");
    w.String(f.site);
    w.Key("key");
    w.String(f.key);
    w.Key("action");
    w.String(f.action);
    w.Key("detail");
    w.String(f.detail);
    w.EndObject();
  }
  w.EndArray();

  w.Key("slos");
  w.BeginArray();
  for (const SloRecord& s : snap.slos) {
    w.BeginObject();
    w.Key("objective");
    w.String(s.name);
    w.Key("action");
    w.String(s.action);
    w.Key("window");
    w.Number(s.window);
    w.Key("threshold");
    w.Number(s.threshold);
    w.Key("short");
    w.Number(s.short_value);
    w.Key("long");
    w.Number(s.long_value);
    w.EndObject();
  }
  w.EndArray();

  w.EndObject();
  return w.str() + "\n";
}

Status WriteMetricsJson(const Recorder& recorder,
                        const power::PowerModel& model,
                        const std::string& path) {
  return WriteStringTo(MetricsJson(recorder, model), path);
}

std::string KernelMetricsCsv(const Recorder& recorder) {
  std::ostringstream csv;
  CsvHeader(&csv, "malisim-prof-kernels-v1");
  csv << "kernel,device,seconds,core,groups,l1_misses,l2_misses,"
         "arith_cycles,ls_cycles,dispatch_cycles,stall_sec,busy_sec,"
         "core_sec,imbalance,bottleneck\n";
  for (const KernelRecord& k : recorder.kernels()) {
    for (std::size_t c = 0; c < k.cores.size(); ++c) {
      const CoreKernelCounters& core = k.cores[c];
      csv << k.kernel << ',' << k.device << ',' << Num(k.seconds) << ',' << c
          << ',' << core.groups << ',' << core.l1_misses << ','
          << core.l2_misses << ',' << Num(core.arith_cycles) << ','
          << Num(core.ls_cycles) << ',' << Num(core.dispatch_cycles) << ','
          << Num(core.stall_sec) << ',' << Num(core.busy_sec) << ','
          << Num(core.core_sec) << ',' << Num(core.imbalance) << ','
          << k.bottleneck << '\n';
    }
  }
  return csv.str();
}

Status WriteKernelMetricsCsv(const Recorder& recorder,
                             const std::string& path) {
  return WriteStringTo(KernelMetricsCsv(recorder), path);
}

std::string PowerTimelineCsv(const PowerTimeline& timeline) {
  std::ostringstream csv;
  CsvHeader(&csv, "malisim-prof-power-v1");
  csv << "t_sec,segment,total_w,static_w,cpu_w,gpu_w,dram_w\n";
  for (const PowerSample& s : timeline.samples) {
    const std::string label =
        s.segment >= 0 &&
                s.segment < static_cast<int>(timeline.segments.size())
            ? timeline.segments[static_cast<std::size_t>(s.segment)].label
            : "";
    csv << Num(s.t_sec) << ',' << label << ',' << Num(s.watts.total) << ','
        << Num(s.watts.static_w) << ',' << Num(s.watts.cpu) << ','
        << Num(s.watts.gpu) << ',' << Num(s.watts.dram) << '\n';
  }
  return csv.str();
}

Status WritePowerTimelineCsv(const PowerTimeline& timeline,
                             const std::string& path) {
  return WriteStringTo(PowerTimelineCsv(timeline), path);
}

std::string TextReport(const Recorder& recorder,
                       const power::PowerModel& model) {
  std::ostringstream out;
  const RecorderSnapshot snap = recorder.TakeSnapshot();
  const std::vector<KernelRecord>& kernels = snap.kernels;
  const std::vector<PowerSegment>& segments = snap.power_segments;

  const std::vector<FaultRecord>& faults = snap.faults;
  out << "=== malisim-prof report ===\n";
  out << kernels.size() << " kernel launch(es), "
      << snap.commands.size() << " queue command(s), "
      << segments.size() << " power segment(s), " << faults.size()
      << " fault event(s)\n";

  // Hot opcodes across all launches.
  OpcodeCounts total{};
  std::uint64_t grand_total = 0;
  for (const KernelRecord& k : kernels) {
    for (int op = 0; op < kir::kNumOpcodeValues; ++op) {
      total[static_cast<std::size_t>(op)] +=
          k.opcode_counts[static_cast<std::size_t>(op)];
      grand_total += k.opcode_counts[static_cast<std::size_t>(op)];
    }
  }
  if (grand_total > 0) {
    std::vector<int> order;
    for (int op = 0; op < kir::kNumOpcodeValues; ++op) {
      if (total[static_cast<std::size_t>(op)] > 0) order.push_back(op);
    }
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return total[static_cast<std::size_t>(a)] >
             total[static_cast<std::size_t>(b)];
    });
    if (order.size() > 10) order.resize(10);
    Table hot({"opcode", "executed", "share"});
    for (int op : order) {
      const std::uint64_t n = total[static_cast<std::size_t>(op)];
      hot.BeginRow();
      hot.AddCell(std::string(kir::OpcodeName(static_cast<kir::Opcode>(op))));
      hot.AddCell(std::to_string(n));
      hot.AddCell(FormatDouble(100.0 * static_cast<double>(n) /
                                   static_cast<double>(grand_total),
                               1) +
                  "%");
    }
    out << "\nHot opcodes (" << grand_total << " instructions executed):\n"
        << hot.ToAscii();
  }

  if (!kernels.empty()) {
    Table kt({"kernel", "device", "seconds", "L1 hit", "L2 hit", "arith cyc",
              "ls cyc", "bottleneck"});
    for (const KernelRecord& k : kernels) {
      const std::uint64_t accesses = CacheAccesses(k);
      const std::uint64_t l1_misses = TotalL1Misses(k);
      double arith = 0.0;
      double ls = 0.0;
      for (const CoreKernelCounters& c : k.cores) {
        arith += c.arith_cycles;
        ls += c.ls_cycles;
      }
      kt.BeginRow();
      kt.AddCell(k.kernel);
      kt.AddCell(k.device);
      kt.AddCell(FormatDouble(k.seconds * 1e3, 4) + " ms");
      kt.AddCell(FormatDouble(100.0 * HitRate(accesses, l1_misses), 2) + "%");
      kt.AddCell(FormatDouble(100.0 * HitRate(l1_misses, TotalL2Misses(k)), 2) +
                 "%");
      kt.AddNumber(arith, 0);
      kt.AddNumber(ls, 0);
      kt.AddCell(k.bottleneck);
    }
    out << "\nKernel launches:\n" << kt.ToAscii();
  }

  if (!segments.empty()) {
    PowerSampler sampler(&model, recorder.options().power_hz);
    const PowerTimeline timeline = sampler.Render(segments);
    Table pt({"segment", "window s", "avg W", "static W", "cpu W", "gpu W",
              "dram W", "energy J"});
    for (const SegmentPower& s : timeline.segments) {
      pt.BeginRow();
      pt.AddCell(s.label);
      pt.AddNumber(s.window_sec, 2);
      pt.AddNumber(s.watts.total, 3);
      pt.AddNumber(s.watts.static_w, 3);
      pt.AddNumber(s.watts.cpu, 3);
      pt.AddNumber(s.watts.gpu, 3);
      pt.AddNumber(s.watts.dram, 3);
      pt.AddNumber(s.energy_j.total, 3);
    }
    const RailPower e = timeline.TotalEnergy();
    out << "\nPower rails (virtual meter, "
        << FormatDouble(timeline.sampling_hz, 1) << " Hz, "
        << timeline.samples.size() << " samples over "
        << FormatDouble(timeline.total_sec, 1) << " s):\n"
        << pt.ToAscii();
    out << "Energy breakdown: total " << FormatDouble(e.total, 3)
        << " J = static " << FormatDouble(e.static_w, 3) << " J + cpu "
        << FormatDouble(e.cpu, 3) << " J + gpu " << FormatDouble(e.gpu, 3)
        << " J + dram " << FormatDouble(e.dram, 3) << " J\n";
  }

  if (!faults.empty()) {
    Table ft({"site", "key", "action", "detail"});
    for (const FaultRecord& f : faults) {
      ft.BeginRow();
      ft.AddCell(f.site);
      ft.AddCell(f.key);
      ft.AddCell(f.action);
      ft.AddCell(f.detail);
    }
    out << "\nFault events (injected faults and resilience actions):\n"
        << ft.ToAscii();
  }

  if (!snap.slos.empty()) {
    Table st({"objective", "action", "window", "short", "long"});
    for (const SloRecord& s : snap.slos) {
      st.BeginRow();
      st.AddCell(s.name);
      st.AddCell(s.action);
      st.AddCell(std::to_string(s.window));
      st.AddCell(FormatDouble(s.short_value, 4));
      st.AddCell(FormatDouble(s.long_value, 4));
    }
    out << "\nSLO transitions (telemetry burn-rate events):\n"
        << st.ToAscii();
  }
  return out.str();
}

}  // namespace malisim::obs
