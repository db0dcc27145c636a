// The benchmark's workload interface. A workload turns a seed into
// inputs, runs them as a closed loop of items through the simulator's
// public entry points, checks every output, and reads its per-layer
// metrics off the ledger of a traced pass.
#pragma once

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace perfbench {

struct Options {
    std::string root;        ///< checkout root: corpus/v1 and the work dir live here
    std::uint64_t seed = 1;
};

/// One finished item.
struct ItemResult {
    bool ok = false;
    std::uint64_t ns = 0;      ///< host time of the item alone
    std::uint64_t output = 0;  ///< digest of what the item produced
};

/// A per-layer metric value; every value is per item unless it is a ratio.
struct LayerValue {
    const char* name;
    double value;
};

class Workload {
public:
    virtual ~Workload() = default;

    /// One complete set-up before the first timed item.
    virtual bool setup(std::string& error) = 0;

    /// Run item `i` (0-based, in seed order). Work between items that is
    /// not part of any item (a new campaign, a fresh system) happens
    /// here too, outside ItemResult::ns.
    virtual ItemResult run_item(std::size_t i) = 0;

    /// End of the timed pass (final store sync and merge); timed.
    /// Returns the number of failed checks.
    virtual std::uint64_t finish(std::string& detail) {
        (void)detail;
        return 0;
    }

    /// Untimed checks that need the whole pass (re-runs). `outputs` are
    /// the per-item digests of the pass. Returns the number of failures.
    virtual std::uint64_t verify(const std::vector<std::uint64_t>& outputs,
                                 std::string& detail) {
        (void)outputs;
        (void)detail;
        return 0;
    }

    /// The number of items after which the inputs repeat (valid after
    /// setup). Every cycle holds the same items, in the same order, so
    /// figures taken over whole cycles do not depend on how many items a
    /// run reaches: allocs_per_item covers the first cycle, and the
    /// rate and latency metrics whole cycles.
    virtual std::size_t cycle_items() const = 0;

    /// Items per latency block, at most cycle_items(): a fixed count, so
    /// a block's tail is the same percentile however fast the program
    /// runs.
    virtual std::size_t block_items() const = 0;

    /// Human-readable tallies of the pass.
    virtual void report(std::FILE* out) const { (void)out; }

    /// Per-layer values of a traced pass over `items` items.
    virtual std::vector<LayerValue> layer_values(const Ledger& ledger,
                                                 std::size_t items) const = 0;

    /// Host time of work a traced pass adds beside its items (fault-free
    /// replays under the observer); left out of the tracing overhead.
    virtual std::uint64_t probe_ns() const { return 0; }

    /// Digest of the inputs the seed generates for the first `items`
    /// items; equal seeds must give equal digests.
    virtual std::uint64_t input_digest(std::size_t items) = 0;
};

std::unique_ptr<Workload> make_corpus_replay(const Options& opts);
std::unique_ptr<Workload> make_fault_campaign(const Options& opts);
std::unique_ptr<Workload> make_cosim(const Options& opts);

// ---- shared helpers ---------------------------------------------------------

/// splitmix64: the benchmark's own input generator, independent of the
/// simulator's RNGs so inputs stay fixed when the program changes.
class SeedRng {
public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    std::uint64_t below(std::uint64_t bound) { return next() % bound; }

private:
    std::uint64_t state_;
};

/// FNV-1a step over one 64-bit value.
inline std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xffu;
        h *= 0x100000001b3ULL;
    }
    return h;
}

inline constexpr std::uint64_t fnv_basis = 0xcbf29ce484222325ULL;

/// Per-item share of a span's inclusive time, in microseconds.
inline double span_us(const Ledger& l, SpanId id, std::size_t items) {
    return items == 0 ? 0.0
                      : static_cast<double>(l.stat(id).incl_ns) / 1e3 /
                            static_cast<double>(items);
}

/// Per-item share of a span's inclusive allocations.
inline double span_allocs(const Ledger& l, SpanId id, std::size_t items) {
    return items == 0 ? 0.0
                      : static_cast<double>(l.stat(id).incl_allocs) /
                            static_cast<double>(items);
}

inline double per_item(std::uint64_t total, std::size_t items) {
    return items == 0 ? 0.0
                      : static_cast<double>(total) / static_cast<double>(items);
}

inline double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace perfbench
