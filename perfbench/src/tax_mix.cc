// tax_mix: the 15 Adaptive* entry points of Soft Limoncello in a seeded
// mix, on one thread.
//
// Layers: tax (the kernels) and softpf (the runtime each wrapper asks
// for its prefetch configuration). Call sizes come from
// MemcpySizeDistribution, the paper's Fig. 14 shape, capped at one
// arena slot. Decoders consume what the matching encoder produced.
// Half the calls run in the hw_off regime: the runtime is told the
// hardware prefetchers are off, and inputs sit cold at page-randomized
// slots of an arena larger than the host LLC (the tuner's
// kHwOffEmulated set-up). The other half run in the hw_on regime: a
// warm, reused working set with the runtime told the prefetchers are
// on. The same kernels thus take both of their paths.
//
// Output checks: round trips for compress, wire, varint and dict
// codecs; CRC32C against a bytewise reference; hash-join sums against
// std::unordered_map. The references run on the first repetition;
// later repetitions (same inputs) must reproduce its results exactly.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "report.h"
#include "softpf/runtime.h"
#include "tax/adaptive.h"
#include "trace.h"
#include "util/rng.h"
#include "workloads/generators.h"

namespace perfbench {
namespace {

using namespace limoncello;

constexpr std::size_t kMaxCall = 256 * 1024;
constexpr std::size_t kSlotStride = kMaxCall + 4096;
constexpr int kSetups = 3;

enum Entry : int {
  kMemcpy, kMemmove, kMemset, kBlockHash64, kCrc32c, kCompress, kDecompress,
  kWireSerialize, kWireParse, kVarintEncode, kVarintDecode, kDictCompress,
  kDictDecompress, kHashJoinBuild, kHashJoinProbe, kNumEntries
};
constexpr const char* kEntryNames[kNumEntries] = {
    "memcpy",        "memmove",        "memset",        "block_hash64",
    "crc32c",        "compress",       "decompress",    "wire_serialize",
    "wire_parse",    "varint_encode",  "varint_decode", "dict_compress",
    "dict_decompress", "hash_join_build", "hash_join_probe"};
constexpr const char* kSpanNames[kNumEntries] = {
    "tax.memcpy",        "tax.memmove",        "tax.memset",
    "tax.block_hash64",  "tax.crc32c",         "tax.compress",
    "tax.decompress",    "tax.wire_serialize", "tax.wire_parse",
    "tax.varint_encode", "tax.varint_decode",  "tax.dict_compress",
    "tax.dict_decompress", "tax.hash_join_build", "tax.hash_join_probe"};
constexpr TaxKernel kKernels[kNumEntries] = {
    TaxKernel::kMemcpy,        TaxKernel::kMemmove,
    TaxKernel::kMemset,        TaxKernel::kBlockHash,
    TaxKernel::kCrc32c,        TaxKernel::kCompress,
    TaxKernel::kDecompress,    TaxKernel::kSerialize,
    TaxKernel::kParse,         TaxKernel::kVarintEncode,
    TaxKernel::kVarintDecode,  TaxKernel::kDictCompress,
    TaxKernel::kDictDecompress, TaxKernel::kHashJoinBuild,
    TaxKernel::kHashJoinProbe};

// One step of the mix calls one entry point, or an encoder followed by
// the decoder that consumes its output.
enum class Op { kMemcpy, kMemmove, kMemset, kHash, kCrc, kCodec, kWire,
                kVarint, kDict, kJoin };
constexpr Op kOps[] = {Op::kMemcpy, Op::kMemmove, Op::kMemset, Op::kHash,
                       Op::kCrc,    Op::kCodec,   Op::kWire,   Op::kVarint,
                       Op::kDict,   Op::kJoin};

struct Step {
  Op op;
  std::size_t n;           // call size in bytes
  std::size_t src;         // input offset in the arena
  std::size_t dst;         // write-slot offset (memmove / memset)
  std::size_t message = 0; // index into Regime::messages (kWire)
};

// A regime's inputs: the arena (input slots plus write slots) and the
// step list.
struct Regime {
  const char* name;
  bool hw_prefetchers_on;
  std::vector<unsigned char> arena;
  std::vector<Step> steps;
  std::vector<WireMessage> messages;
};

std::string WordSoup(std::size_t bytes, Rng& rng) {
  static constexpr const char* kWords[] = {
      "request", "latency", "bandwidth", "prefetch", "cache",  "memory",
      "socket",  "stream",  "payload",   "header",   "bucket", "shard",
      "replica", "commit",  "epoch",     "metric",   "queue",  "batch"};
  std::string out;
  out.reserve(bytes + 16);
  while (out.size() < bytes) {
    out += kWords[rng.NextBounded(sizeof(kWords) / sizeof(kWords[0]))];
    out += rng.NextBernoulli(0.1) ? '\n' : ' ';
    if (rng.NextBernoulli(0.05)) out += std::to_string(rng.NextBounded(1u << 20));
  }
  out.resize(bytes);
  return out;
}

// Lays `num_slots` slots of text out in `regime.arena` (each at a random
// 64-byte offset inside its page-aligned stride, in shuffled order) and
// draws `num_steps` steps over them. Every fourth slot is a write slot.
void BuildRegime(Regime& regime, std::size_t num_slots, int num_steps,
                 const std::string& text, Rng& rng) {
  regime.arena.assign(num_slots * kSlotStride, 0);
  std::vector<std::size_t> inputs;
  std::vector<std::size_t> outputs;
  std::vector<std::size_t> order(num_slots);
  for (std::size_t i = 0; i < num_slots; ++i) order[i] = i;
  for (std::size_t i = num_slots; i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  for (std::size_t i = 0; i < num_slots; ++i) {
    const std::size_t off = order[i] * kSlotStride + 64 * rng.NextBounded(64);
    if (i % 4 == 3) {
      outputs.push_back(off);
      continue;
    }
    const std::size_t from = (i * 4099) % (text.size() - kMaxCall);
    std::memcpy(regime.arena.data() + off, text.data() + from, kMaxCall);
    inputs.push_back(off);
  }
  MemcpySizeDistribution::Options size_options;
  size_options.max_bytes = kMaxCall;
  const MemcpySizeDistribution sizes(size_options);
  regime.steps.clear();
  regime.messages.clear();
  for (int i = 0; i < num_steps; ++i) {
    Step step;
    step.op = kOps[rng.NextBounded(sizeof(kOps) / sizeof(kOps[0]))];
    step.n = std::max<std::size_t>(16, sizes.Sample(rng));
    step.src = inputs[rng.NextBounded(inputs.size())];
    step.dst = outputs[rng.NextBounded(outputs.size())];
    if (step.op == Op::kWire) {
      // Up to 8 length-delimited fields cut from the input.
      WireMessage message;
      const std::size_t fields = std::min<std::size_t>(8, step.n / 16);
      const std::size_t each = step.n / fields;
      for (std::size_t f = 0; f < fields; ++f) {
        message.push_back(
            {static_cast<std::uint32_t>(f + 1),
             std::string(reinterpret_cast<const char*>(regime.arena.data() +
                                                       step.src + f * each),
                         each)});
      }
      step.message = regime.messages.size();
      regime.messages.push_back(std::move(message));
    }
    regime.steps.push_back(step);
  }
}

std::uint32_t BytewiseCrc32c(const unsigned char* data, std::size_t n) {
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0x82F63B78u & (0u - (crc & 1u)));
    }
  }
  return ~crc;
}

struct Inputs {
  std::string text;
  Regime regimes[2] = {{"hw_off", false, {}, {}, {}},
                       {"hw_on", true, {}, {}, {}}};
  std::unique_ptr<DictCompressor> dict;
};

std::unique_ptr<Inputs> SetUp(const Options& options) {
  auto in = std::make_unique<Inputs>();
  Rng rng(options.seed);
  in->text = WordSoup(2 * kMaxCall + 64 * 1024, rng);
  // hw_off: an arena of cold slots (768 MiB, as the tuner's emulated
  // hw-off regime); hw_on: eight slots that stay cache-resident.
  const std::size_t cold_slots =
      options.smoke ? 64 : (std::size_t{768} << 20) / kSlotStride;
  // Enough distinct steps that the Fig. 14 tail (a few percent of
  // calls, most of the bytes) is well sampled at every seed.
  const int steps = options.smoke ? 400 : 40000;
  BuildRegime(in->regimes[0], cold_slots, steps, in->text, rng);
  BuildRegime(in->regimes[1], 8, steps, in->text, rng);
  in->dict = std::make_unique<DictCompressor>(
      std::string_view(in->text).substr(0, 16 * 1024));
  return in;
}

struct Scratch {
  std::vector<unsigned char> dst = std::vector<unsigned char>(kMaxCall);
  std::string encoded;
  std::string decoded;
  WireMessage parsed;
  std::vector<std::uint64_t> values;
  HashJoinTable table;
  std::vector<std::uint64_t> sums = std::vector<std::uint64_t>(kMaxCall / 8);
};

struct Tally {
  double ns[2][kNumEntries] = {};
  double bytes[2][kNumEntries] = {};
  std::uint64_t calls[2] = {};
  std::uint64_t prefetch_on[2] = {};
  std::vector<double> call_us;  // this repetition's call latencies
  double total_ns = 0.0;
  double total_bytes = 0.0;
};

class Runner {
 public:
  Runner(Inputs& inputs, Report& report) : in_(inputs), report_(report) {}

  // Runs every step of both regimes once. On the first repetition the
  // reference checks run and each step's result is recorded; later
  // repetitions must reproduce the recorded results.
  void Repetition(Tally& tally, Tracer& tracer) {
    tracer_ = &tracer;
    std::size_t index = 0;
    for (int r = 0; r < 2; ++r) {
      Regime& regime = in_.regimes[r];
      SoftPrefetchRuntime::Global().SetHwPrefetchersEnabled(
          regime.hw_prefetchers_on);
      for (const Step& step : regime.steps) {
        const std::uint64_t result = RunStep(regime, r, step, tally);
        ++report_.attempted;
        if (first_) {
          results_.push_back(result);
        } else if (results_[index] != result) {
          ++report_.failed;
          report_.Fail(std::string(regime.name) + " step " +
                       std::to_string(index) +
                       ": result differs from the first repetition");
        }
        ++index;
      }
    }
    first_ = false;
  }

 private:
  // Times one entry-point call and books its input bytes.
  template <typename Fn>
  void Call(int regime, Entry entry, std::size_t config_size,
            std::size_t input_bytes, Tally& tally, Fn&& fn) {
    if (SoftPrefetchRuntime::Global()
            .ConfigFor(kKernels[entry], config_size)
            .enabled) {
      ++tally.prefetch_on[regime];
    }
    ++tally.calls[regime];
    const std::int64_t t0 = NowNs();
    {
      ScopedSpan span(*tracer_, kSpanNames[entry]);
      fn();
    }
    const double ns = static_cast<double>(NowNs() - t0);
    tally.ns[regime][entry] += ns;
    tally.bytes[regime][entry] += static_cast<double>(input_bytes);
    tally.call_us.push_back(ns * 1e-3);
    tally.total_ns += ns;
    tally.total_bytes += static_cast<double>(input_bytes);
  }

  void Check(bool ok, const char* what) {
    if (ok) return;
    ++report_.failed;
    report_.Fail(what);
  }

  std::uint64_t RunStep(Regime& regime, int r, const Step& step,
                        Tally& tally) {
    unsigned char* arena = regime.arena.data();
    const unsigned char* src = arena + step.src;
    const std::size_t n = step.n;
    const std::string_view text(reinterpret_cast<const char*>(src), n);
    const auto* words = reinterpret_cast<const std::uint64_t*>(src);
    switch (step.op) {
      case Op::kMemcpy:
        Call(r, kMemcpy, n, n, tally,
             [&] { AdaptiveMemcpy(scratch_.dst.data(), src, n); });
        Check(std::memcmp(scratch_.dst.data(), src, n) == 0, "memcpy");
        return n;
      case Op::kMemmove:
        Call(r, kMemmove, n, n, tally,
             [&] { AdaptiveMemmove(arena + step.dst, src, n); });
        Check(std::memcmp(arena + step.dst, src, n) == 0, "memmove");
        return n;
      case Op::kMemset: {
        const int value = static_cast<int>(n & 0xff);
        Call(r, kMemset, n, n, tally,
             [&] { AdaptiveMemset(arena + step.dst, value, n); });
        Check(arena[step.dst] == value && arena[step.dst + n - 1] == value,
              "memset");
        return n;
      }
      case Op::kHash: {
        std::uint64_t hash = 0;
        Call(r, kBlockHash64, n, n, tally,
             [&] { hash = AdaptiveBlockHash64(src, n, 7); });
        return hash;
      }
      case Op::kCrc: {
        std::uint32_t crc = 0;
        Call(r, kCrc32c, n, n, tally, [&] { crc = AdaptiveCrc32c(src, n); });
        if (first_) Check(crc == BytewiseCrc32c(src, n), "crc32c reference");
        return crc;
      }
      case Op::kCodec: {
        Call(r, kCompress, n, n, tally,
             [&] { AdaptiveCompress(text, &scratch_.encoded); });
        bool ok = false;
        const std::size_t m = scratch_.encoded.size();
        Call(r, kDecompress, m, m, tally, [&] {
          ok = AdaptiveDecompress(scratch_.encoded, &scratch_.decoded);
        });
        Check(ok && scratch_.decoded == text, "compress round trip");
        return m;
      }
      case Op::kWire: {
        const WireMessage& message = regime.messages[step.message];
        const std::size_t size = WireSerializer::EncodedSize(message);
        Call(r, kWireSerialize, size, n, tally,
             [&] { AdaptiveWireSerialize(message, &scratch_.encoded); });
        bool ok = false;
        const std::size_t m = scratch_.encoded.size();
        Call(r, kWireParse, m, m, tally, [&] {
          ok = AdaptiveWireParse(scratch_.encoded, &scratch_.parsed);
        });
        Check(ok && scratch_.parsed == message, "wire round trip");
        return m;
      }
      case Op::kVarint: {
        const std::size_t count = n / 8;
        if (count == 0) return 0;
        Call(r, kVarintEncode, count * 8, count * 8, tally, [&] {
          AdaptiveVarintEncode(words, count, &scratch_.encoded);
        });
        bool ok = false;
        const std::size_t m = scratch_.encoded.size();
        Call(r, kVarintDecode, m, m, tally, [&] {
          ok = AdaptiveVarintDecode(scratch_.encoded, &scratch_.values);
        });
        Check(ok && scratch_.values.size() == count &&
                  std::memcmp(scratch_.values.data(), words, count * 8) == 0,
              "varint round trip");
        return m;
      }
      case Op::kDict: {
        Call(r, kDictCompress, n, n, tally, [&] {
          AdaptiveDictCompress(*in_.dict, text, &scratch_.encoded);
        });
        bool ok = false;
        const std::size_t m = scratch_.encoded.size();
        Call(r, kDictDecompress, m, m, tally, [&] {
          ok = AdaptiveDictDecompress(*in_.dict, scratch_.encoded,
                                      &scratch_.decoded);
        });
        Check(ok && scratch_.decoded == text, "dict round trip");
        return m;
      }
      case Op::kJoin: {
        // Build on the first n/16 words (keys) with the next n/16 as
        // values; probe with the first n/8 words, so half the probes hit.
        const std::size_t build = std::max<std::size_t>(1, n / 16);
        const std::size_t probe = 2 * build;
        const std::uint64_t* keys = words;
        const std::uint64_t* values = words + build;
        Call(r, kHashJoinBuild, build * 8, build * 16, tally, [&] {
          AdaptiveHashJoinBuild(scratch_.table, keys, values, build);
        });
        std::uint64_t matches = 0;
        Call(r, kHashJoinProbe, probe * 8, probe * 8, tally, [&] {
          matches = AdaptiveHashJoinProbe(scratch_.table, words, probe,
                                          scratch_.sums.data());
        });
        std::uint64_t digest = matches;
        for (std::size_t i = 0; i < probe; ++i) digest += scratch_.sums[i];
        if (first_) {
          std::unordered_map<std::uint64_t, std::pair<std::uint64_t,
                                                      std::uint64_t>> ref;
          for (std::size_t i = 0; i < build; ++i) {
            auto& entry = ref[keys[i]];
            entry.first += values[i];
            ++entry.second;
          }
          std::uint64_t ref_matches = 0;
          bool ok = true;
          for (std::size_t i = 0; i < probe; ++i) {
            const auto it = ref.find(words[i]);
            const std::uint64_t sum = it == ref.end() ? 0 : it->second.first;
            if (it != ref.end()) ref_matches += it->second.second;
            ok = ok && scratch_.sums[i] == sum;
          }
          Check(ok && matches == ref_matches, "hash join vs unordered_map");
        }
        return digest;
      }
    }
    return 0;
  }

  Inputs& in_;
  Report& report_;
  Tracer* tracer_ = nullptr;
  Scratch scratch_;
  bool first_ = true;
  std::vector<std::uint64_t> results_;
};

}  // namespace

void RunTaxMix(const Options& options, Report& report) {
  // Set-up: build the inputs several times and keep the last; the
  // first adaptive calls also install the tuned parameter table.
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> inputs;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = NowNs();
    inputs.reset();
    inputs = SetUp(options);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }

  Tracer tracer(options.trace);
  Tracer untraced(false);
  Runner runner(*inputs, report);
  // The first repetition runs the reference checks and warms the hw_on
  // working set; in the traced run it is also the untraced reference
  // for the tracing overhead.
  Tally warm;
  const std::int64_t warm_start = NowNs();
  runner.Repetition(warm, untraced);
  // One span per call: size the span store from the untraced
  // repetition so recording never reallocates mid-run.
  const double warm_s = static_cast<double>(NowNs() - warm_start) * 1e-9;
  tracer.Reserve(static_cast<std::size_t>(
      1.5 * static_cast<double>(warm.calls[0] + warm.calls[1]) *
      (options.seconds / warm_s + 1.0)));

  Tally tally;
  // Input bytes per second in the kernels, one entry per repetition:
  // the median is robust to a repetition slowed by the host.
  std::vector<double> rep_rate;
  // Call latency quantiles, one entry per repetition (80,000 calls).
  std::vector<double> rep_p50_us;
  std::vector<double> rep_p90_us;
  const std::int64_t start = NowNs();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(options.seconds * 1e9);
  do {
    const double ns = tally.total_ns;
    const double bytes = tally.total_bytes;
    runner.Repetition(tally, tracer);
    rep_rate.push_back((tally.total_bytes - bytes) /
                       ((tally.total_ns - ns) * 1e-9));
    rep_p50_us.push_back(Percentile(tally.call_us, 0.5));
    rep_p90_us.push_back(Percentile(tally.call_us, 0.90));
    tally.call_us.clear();
  } while (NowNs() < deadline);
  const double window_s = static_cast<double>(NowNs() - start) * 1e-9;
  SoftPrefetchRuntime::Global().SetHwPrefetchersEnabled(true);

  if (!options.trace) {
    report.Metric("setup_s", Percentile(setup_s, 0.5), "s");
    report.Metric("peak_rss_mb", PeakRssMb(), "MB");
    report.Metric("work_per_s", Percentile(rep_rate, 0.5), "1/s");
    report.Metric("op_p50_us", Percentile(rep_p50_us, 0.5), "us");
    report.Metric("op_p90_us", Percentile(rep_p90_us, 0.5), "us");
    return;
  }

  tracer.WriteTsv(options.run_dir + "/spans-tax_mix.tsv");
  for (int r = 0; r < 2; ++r) {
    const std::string regime = inputs->regimes[r].name;
    double ns = 0.0;
    double bytes = 0.0;
    for (int e = 0; e < kNumEntries; ++e) {
      ns += tally.ns[r][e];
      bytes += tally.bytes[r][e];
      report.Metric("tax." + std::string(kEntryNames[e]) + "." + regime +
                        ".ns_per_kb",
                    tally.bytes[r][e] > 0.0
                        ? tally.ns[r][e] / (tally.bytes[r][e] / 1024.0)
                        : 0.0,
                    "ns/KiB");
    }
    report.Metric("tax." + regime + ".bytes_per_s",
                  ns > 0.0 ? bytes / (ns * 1e-9) : 0.0, "B/s");
    report.Metric("softpf.prefetch_on_frac." + regime,
                  tally.calls[r] ? static_cast<double>(tally.prefetch_on[r]) /
                                       static_cast<double>(tally.calls[r])
                                 : 0.0,
                  "fraction");
  }
  report.TraceSummary(tracer, window_s);
  const double traced_ns_per_byte = tally.total_ns / tally.total_bytes;
  const double untraced_ns_per_byte = warm.total_ns / warm.total_bytes;
  report.Metric("trace.overhead_frac",
                traced_ns_per_byte / untraced_ns_per_byte - 1.0, "fraction");
}

}  // namespace perfbench
