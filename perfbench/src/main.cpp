// perfbench: the simulator's benchmark binary.
//
//   perfbench --workload corpus_replay|fault_campaign|cosim --seed N
//             --seconds S --trace 0|1 [--root DIR]
//   perfbench --self-test
//   perfbench --list-metrics
//   perfbench --input-digest ITEMS --workload W --seed N [--root DIR]
//   perfbench --items N --workload W --seed N --trace 0|1 [--root DIR]
//
// One run is a closed loop on one thread: the next item starts when the
// previous one ends, for S seconds. The workload's set-up is timed
// kSetups times, spread over the run. Every item's output is checked. --trace 0 prints
// the end-to-end metrics; --trace 1 then replays the same items with the
// ledger and the read-only observer attached, checks that every output
// is unchanged, and prints the per-layer metrics instead. The last line
// of standard output is the result object. --items runs exactly N items
// instead of a timed pass, for tests that need a given item count.
//
// Single-threaded by design: on a shared machine, threaded throughput
// measures the host scheduler rather than the simulator.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <regex>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "alloc_count.hpp"
#include "bench/bench_util.hpp"
#include "ledger.hpp"
#include "provenance.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

struct MetricDef {
    const char* name;
    const char* unit;
};

/// End-to-end metrics (--trace 0), in BENCHMARK.json order.
constexpr MetricDef kEndToEnd[] = {
    {"items_per_s", "1/s"},     {"item_p50_ms", "ms"}, {"item_tail_ms", "ms"},
    {"allocs_per_item", "count"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
};

/// Per-layer metrics (--trace 1). Every value is per item except the
/// ratios; a layer a workload does not call reads 0.
constexpr MetricDef kPerLayer[] = {
    {"corpus.read_us", "us"},
    {"corpus.digest_us", "us"},
    {"corpus.parse_us", "us"},
    {"corpus.parse_allocs", "count"},
    {"api.json_parse_us", "us"},
    {"corpus.checks_us", "us"},
    {"harness.bridge_us", "us"},
    {"harness.run_us", "us"},
    {"harness.run_allocs", "count"},
    {"harness.workload_build_us", "us"},
    {"harness.fingerprint_us", "us"},
    {"harness.baseline_us", "us"},
    {"harness.baselines", "count"},
    {"harness.job_us", "us"},
    {"harness.job_allocs", "count"},
    {"harness.injected_ratio", "ratio"},
    {"harness.store.append_us", "us"},
    {"harness.store.sync_us", "us"},
    {"harness.store.syncs", "count"},
    {"harness.store.bytes", "B"},
    {"harness.merge_us", "us"},
    {"harness.init_us", "us"},
    {"tkernel.service_calls", "count"},
    {"tkernel.service_us", "us"},
    {"tkernel.service_share", "ratio"},
    {"sim.dispatches", "count"},
    {"sim.preemptions", "count"},
    {"sim.gantt_segments", "count"},
    {"sysc.delta_cycles", "count"},
    {"sysc.run_us", "us"},
    {"trace.events", "count"},
    {"bfm.bus_accesses", "count"},
    {"app.frames", "count"},
};

/// Set-ups timed per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 15;

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Options& opts) {
    if (name == "corpus_replay") {
        return make_corpus_replay(opts);
    }
    if (name == "fault_campaign") {
        return make_fault_campaign(opts);
    }
    if (name == "cosim") {
        return make_cosim(opts);
    }
    return nullptr;
}

// ---- statistics -------------------------------------------------------------

/// Linear-interpolated quantile q in [0, 1] of unsorted values.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Mean of the middle half of the values: an average over the pass that
/// a few blocks hit by a host stall cannot drag.
double interquartile_mean(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t cut = v.size() / 4;
    double sum = 0.0;
    for (std::size_t i = cut; i < v.size() - cut; ++i) {
        sum += v[i];
    }
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size() - 2 * cut);
}

/// The highest percentile with at least ten samples beyond it.
struct Tail {
    double value_ms = 0.0;
    double percentile = 100.0;
    std::size_t beyond = 0;
};

Tail tail_of(std::vector<std::uint64_t> ns) {
    Tail t;
    if (ns.empty()) {
        return t;
    }
    std::sort(ns.begin(), ns.end());
    const std::size_t n = ns.size();
    const std::size_t k = n > 10 ? n - 11 : n - 1;  // n-1-k samples beyond
    t.value_ms = static_cast<double>(ns[k]) / 1e6;
    t.percentile = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
    t.beyond = n - 1 - k;
    return t;
}

// ---- one pass ---------------------------------------------------------------

struct Pass {
    std::vector<std::uint64_t> item_ns;
    std::vector<std::uint64_t> item_end_ns;  ///< since the first item started
    std::vector<std::uint64_t> outputs;
    std::vector<double> setup_s;
    std::uint64_t failed = 0;
    std::uint64_t allocs = 0;
    /// Allocations of the workload's first cycle; 0 until the pass ends it.
    std::uint64_t cycle_allocs = 0;
    std::uint64_t wall_ns = 0;
    bool setup_ok = true;
    std::string detail;

    std::size_t items() const { return item_ns.size(); }
};

using Factory = std::function<std::unique_ptr<Workload>()>;

/// Time one set-up of `wl` into `samples`.
bool timed_setup(Workload& wl, std::vector<double>& samples, std::string& error) {
    const std::uint64_t t0 = now_ns();
    const bool ok = wl.setup(error);
    samples.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return ok;
}

/// Set `wl` up, then run items until `seconds` have passed (or exactly
/// `max_items` items when it is not 0). With `fresh`, kSetups - 1 more
/// set-ups of fresh workloads are timed, at even intervals through a
/// timed pass, so the set-up median samples the host across the whole
/// run, as the items do; their time and allocations are left out of the
/// pass.
Pass run_pass(Workload& wl, double seconds, std::size_t max_items,
              const Factory& fresh) {
    // A timed pass spreads its extra set-ups over the run; a pass of a
    // fixed item count takes them after its items.
    const bool spread = fresh && max_items == 0;
    Pass p;
    std::string error;
    if (!timed_setup(wl, p.setup_s, error)) {
        p.setup_ok = false;
        p.detail = "set-up failed: " + error;
        return p;
    }
    p.item_ns.reserve(std::size_t{1} << 17);
    p.item_end_ns.reserve(std::size_t{1} << 17);
    p.outputs.reserve(std::size_t{1} << 17);
    std::uint64_t excluded_ns = 0;
    std::uint64_t excluded_allocs = 0;
    auto sample_setup = [&] {
        const std::uint64_t t0 = now_ns();
        const std::uint64_t a0 = alloc_count();
        {
            const std::unique_ptr<Workload> other = fresh();
            if (!timed_setup(*other, p.setup_s, error)) {
                p.setup_ok = false;
                p.detail = "set-up failed: " + error;
            }
        }
        excluded_ns += now_ns() - t0;
        excluded_allocs += alloc_count() - a0;
    };
    const std::uint64_t interval =
        static_cast<std::uint64_t>(seconds * 1e9) / kSetups;
    const std::uint64_t a0 = alloc_count();
    const std::uint64_t start = now_ns();
    const std::uint64_t deadline =
        start + static_cast<std::uint64_t>(seconds * 1e9);
    for (std::size_t i = 0; max_items != 0 ? i < max_items : now_ns() < deadline;
         ++i) {
        if (spread && p.setup_s.size() < kSetups &&
            now_ns() - start >= p.setup_s.size() * interval) {
            sample_setup();
        }
        const ItemResult r = wl.run_item(i);
        p.item_ns.push_back(r.ns);
        p.item_end_ns.push_back(now_ns() - start - excluded_ns);
        p.outputs.push_back(r.output);
        p.failed += r.ok ? 0 : 1;
        if (i + 1 == wl.cycle_items()) {
            p.cycle_allocs = alloc_count() - a0 - excluded_allocs;
        }
    }
    p.failed += wl.finish(p.detail);
    p.wall_ns = now_ns() - start - excluded_ns;
    p.allocs = alloc_count() - a0 - excluded_allocs;
    while (fresh && p.setup_s.size() < kSetups && p.setup_ok) {
        sample_setup();
    }
    return p;
}

/// One block of consecutive items, a repeat within the pass.
struct Block {
    std::size_t items = 0;
    double rate = 0.0;  ///< items per second
    double p50_ms = 0.0;
    Tail tail;
};

/// Items of the pass in whole input cycles: the items the rate and
/// latency metrics cover. A pass shorter than one cycle uses all its
/// items.
std::size_t whole_cycle_items(std::size_t n, std::size_t cycle) {
    return n < cycle ? n : n / cycle * cycle;
}

/// The first `items` items cut into blocks of `size` consecutive items,
/// each cycle on its own (a cycle's remainder is left out). Fewer items
/// than one cycle make a single block.
std::vector<Block> blocks_of(const Pass& p, std::size_t items, std::size_t cycle,
                             std::size_t size) {
    if (items < cycle || items < size) {
        cycle = size = items;
    }
    std::vector<Block> blocks;
    for (std::size_t c = 0; size != 0 && c + cycle <= items; c += cycle) {
        for (std::size_t first = c; first + size <= c + cycle; first += size) {
            const std::size_t last = first + size;  // exclusive
            const std::uint64_t begin = first == 0 ? 0 : p.item_end_ns[first - 1];
            Block block;
            block.items = size;
            block.rate = static_cast<double>(size) /
                         (static_cast<double>(p.item_end_ns[last - 1] - begin) / 1e9);
            std::vector<std::uint64_t> ns(
                p.item_ns.begin() + static_cast<std::ptrdiff_t>(first),
                p.item_ns.begin() + static_cast<std::ptrdiff_t>(last));
            std::vector<double> ms;
            for (const std::uint64_t v : ns) {
                ms.push_back(static_cast<double>(v) / 1e6);
            }
            block.p50_ms = quantile(std::move(ms), 0.5);
            block.tail = tail_of(std::move(ns));
            blocks.push_back(block);
        }
    }
    return blocks;
}

double peak_rss_mb() {
    struct rusage ru {};
    ::getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- output -----------------------------------------------------------------

struct Metric {
    const char* name;
    double value;
    const char* unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name, v, metrics[i].unit);
    }
    std::printf("}}\n");
}

/// The "where the time goes" table of a traced pass, per item.
void print_ledger(const Ledger& l, std::size_t items, std::uint64_t item_wall_ns) {
    std::printf("%-24s %9s %12s %12s %8s %12s %12s\n", "span", "count",
                "incl_us/item", "self_us/item", "self_%", "allocs/item",
                "self_allocs");
    for (std::size_t i = 0; i < span_count; ++i) {
        const SpanId id = static_cast<SpanId>(i);
        const SpanStat& s = l.stat(id);
        if (s.count == 0) {
            continue;
        }
        const double n = static_cast<double>(items);
        std::printf("%-24s %9llu %12.3f %12.3f %8.2f %12.1f %12.1f\n",
                    span_name(id), static_cast<unsigned long long>(s.count),
                    static_cast<double>(s.incl_ns) / 1e3 / n,
                    static_cast<double>(s.self_ns) / 1e3 / n,
                    100.0 * static_cast<double>(s.self_ns) /
                        static_cast<double>(item_wall_ns),
                    static_cast<double>(s.incl_allocs) / n,
                    static_cast<double>(s.self_allocs) / n);
    }
    // Machine-readable copy for the benchmark's tests.
    std::printf("ledger-json {");
    bool first = true;
    for (std::size_t i = 0; i < span_count; ++i) {
        const SpanStat& s = l.stat(static_cast<SpanId>(i));
        if (s.count == 0) {
            continue;
        }
        std::printf("%s\"%s\": {\"count\": %llu, \"incl_ns\": %llu, "
                    "\"self_ns\": %llu, \"min_self_ns\": %lld}",
                    first ? "" : ", ", span_name(static_cast<SpanId>(i)),
                    static_cast<unsigned long long>(s.count),
                    static_cast<unsigned long long>(s.incl_ns),
                    static_cast<unsigned long long>(s.self_ns),
                    static_cast<long long>(s.min_self_ns));
        first = false;
    }
    std::printf("}\n");
}

// ---- modes ------------------------------------------------------------------

bool valid_name(const char* name) {
    static const std::regex re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
    return std::regex_match(name, re);
}

int list_metrics() {
    for (const MetricDef& m : kEndToEnd) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
    }
    for (const MetricDef& m : kPerLayer) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
    }
    return 0;
}

/// Checks of the benchmark's own machinery: the allocation counter,
/// span self time and metric names.
int self_test() {
    bool ok = true;
    if (!alloc_self_check()) {
        std::printf("self-test: allocation counter missed allocations\n");
        ok = false;
    }
    Ledger l;
    set_active_ledger(&l);
    {
        Span outer(SpanId::item);
        for (int i = 0; i < 3; ++i) {
            Span inner(SpanId::harness_run);
            std::vector<int> v(1000, i);  // one allocation per inner span
            volatile int sink = v[999];
            (void)sink;
        }
    }
    set_active_ledger(nullptr);
    const SpanStat& outer = l.stat(SpanId::item);
    const SpanStat& inner = l.stat(SpanId::harness_run);
    if (l.depth() != 0 || outer.count != 1 || inner.count != 3 ||
        outer.self_ns + inner.incl_ns != outer.incl_ns ||
        outer.min_self_ns < 0 || inner.min_self_ns < 0 ||
        inner.incl_allocs != 3 || outer.self_allocs != 0) {
        std::printf("self-test: span accounting is inconsistent\n");
        ok = false;
    }
    for (const MetricDef& m : kEndToEnd) {
        ok = ok && valid_name(m.name);
    }
    for (const MetricDef& m : kPerLayer) {
        ok = ok && valid_name(m.name);
    }
    std::printf("self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
}

int usage() {
    std::fprintf(stderr,
                 "usage: perfbench --workload corpus_replay|fault_campaign|cosim "
                 "--seed N --seconds S --trace 0|1 [--root DIR]\n"
                 "       perfbench --self-test | --list-metrics\n"
                 "       perfbench --input-digest ITEMS --workload W --seed N "
                 "[--root DIR]\n"
                 "       perfbench --items N --workload W --seed N --trace 0|1 "
                 "[--root DIR]\n");
    return 2;
}

int run(int argc, char** argv) {
    std::string workload;
    std::string root = ".";
    std::uint64_t seed = 0;
    double seconds = 0.0;
    std::uint64_t trace = 0;
    std::uint64_t digest_items = 0;
    std::uint64_t fixed_items = 0;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
        if (flag == "--self-test") {
            return self_test();
        }
        if (flag == "--list-metrics") {
            return list_metrics();
        }
        if (value == nullptr) {
            return usage();
        }
        ++i;
        if (flag == "--workload") {
            workload = value;
        } else if (flag == "--root") {
            root = value;
        } else if (flag == "--seed") {
            have_seed = rtk::bench::parse_count(value, seed);
            if (!have_seed) {
                return usage();
            }
        } else if (flag == "--seconds") {
            char* end = nullptr;
            seconds = std::strtod(value, &end);
            if (*end != '\0' || !(seconds > 0.0) || seconds > 3600.0) {
                return usage();
            }
        } else if (flag == "--trace") {
            if (!rtk::bench::parse_count(value, trace) || trace > 1) {
                return usage();
            }
        } else if (flag == "--items") {
            if (!rtk::bench::parse_count(value, fixed_items) || fixed_items == 0) {
                return usage();
            }
        } else if (flag == "--input-digest") {
            if (!rtk::bench::parse_count(value, digest_items)) {
                return usage();
            }
        } else {
            return usage();
        }
    }
    const Options opts{root, seed};
    std::unique_ptr<Workload> wl = make_workload(workload, opts);
    if (wl == nullptr || !have_seed) {
        return usage();
    }
    if (digest_items != 0) {
        std::printf("%016llx\n",
                    static_cast<unsigned long long>(wl->input_digest(digest_items)));
        return 0;
    }
    if ((seconds > 0.0) == (fixed_items != 0)) {
        return usage();  // exactly one of --seconds and --items
    }

    const LoadAvg load_start = read_loadavg();
    const bool alloc_ok = alloc_self_check();
    if (!alloc_ok) {
        std::fprintf(stderr, "perfbench: the allocation counter failed its self-check\n");
    }

    Pass p0 = run_pass(*wl, seconds, fixed_items,
                       [&] { return make_workload(workload, opts); });
    if (!p0.setup_ok) {
        std::fprintf(stderr, "perfbench: %s: %s\n", workload.c_str(),
                     p0.detail.c_str());
        return 1;
    }
    std::string verify_detail;
    p0.failed += wl->verify(p0.outputs, verify_detail);
    const double rss_mb = peak_rss_mb();
    const std::size_t n = p0.items();

    std::vector<double> item_ms;
    item_ms.reserve(n);
    for (const std::uint64_t ns : p0.item_ns) {
        item_ms.push_back(static_cast<double>(ns) / 1e6);
    }
    const std::size_t cycle = wl->cycle_items();
    const std::size_t covered = whole_cycle_items(n, cycle);
    const std::vector<Block> blocks =
        blocks_of(p0, covered, cycle, wl->block_items());
    std::vector<double> rates;
    std::vector<double> p50s;
    std::vector<double> tails;
    for (const Block& b : blocks) {
        rates.push_back(b.rate);
        p50s.push_back(b.p50_ms);
        tails.push_back(b.tail.value_ms);
    }
    const Tail whole_tail = tail_of(p0.item_ns);
    // The rate over whole cycles, so every run counts the same mix of
    // items; a pass shorter than a cycle also counts its closing work.
    const double items_per_s =
        static_cast<double>(covered) /
        (static_cast<double>(covered == n ? p0.wall_ns : p0.item_end_ns[covered - 1]) /
         1e9);
    // Host contention on a shared machine comes in spells of seconds;
    // averaging the blocks' median and tail over the pass gives each
    // spell its share, where one median over the pass would flip with
    // whichever spell held most of the items.
    const double item_p50_ms = interquartile_mean(p50s);
    const double item_tail_ms = interquartile_mean(tails);
    const double setup_s = quantile(p0.setup_s, 0.5);
    // Allocations of the first cycle, so a speed change alone does not
    // change which items the figure covers.
    const bool cycle_done = n >= cycle;
    const double allocs_per_item =
        cycle_done ? static_cast<double>(p0.cycle_allocs) / static_cast<double>(cycle)
                   : static_cast<double>(p0.allocs) /
                         static_cast<double>(std::max<std::size_t>(n, 1));

    std::printf("workload %s seed %llu: %zu items in %.3f s, %llu failed "
                "(failed_ratio %.6f)\n",
                workload.c_str(), static_cast<unsigned long long>(seed), n,
                static_cast<double>(p0.wall_ns) / 1e9,
                static_cast<unsigned long long>(p0.failed),
                n == 0 ? 0.0 : static_cast<double>(p0.failed) / static_cast<double>(n));
    if (!p0.detail.empty() || !verify_detail.empty()) {
        std::printf("detail: %s %s\n", p0.detail.c_str(), verify_detail.c_str());
    }
    wl->report(stdout);
    std::printf("items_per_s %.6g over %zu items (%zu whole cycles of %zu); "
                "over %zu blocks: median %.6g q1 %.6g q3 %.6g\n",
                items_per_s, covered, n / cycle, cycle, blocks.size(),
                quantile(rates, 0.5),
                quantile(rates, 0.25), quantile(rates, 0.75));
    std::printf("item latency: p50 %.4f ms as the interquartile mean of %zu "
                "block medians "
                "(q1 %.4f q3 %.4f); whole pass p50 %.4f ms q1 %.4f ms q3 %.4f ms "
                "over %zu items\n",
                item_p50_ms, blocks.size(), quantile(p50s, 0.25),
                quantile(p50s, 0.75), quantile(item_ms, 0.5),
                quantile(item_ms, 0.25), quantile(item_ms, 0.75), n);
    if (!blocks.empty()) {
        std::printf("item tail: interquartile mean of %zu block tails %.4f ms "
                    "(q1 %.4f q3 "
                    "%.4f), each p%.3f of %zu items with %zu beyond; whole "
                    "pass p%.4f %.4f ms\n",
                    blocks.size(), item_tail_ms, quantile(tails, 0.25),
                    quantile(tails, 0.75), blocks[0].tail.percentile,
                    blocks[0].items, blocks[0].tail.beyond,
                    whole_tail.percentile,
                    whole_tail.value_ms);
    }
    std::printf("allocs_per_item %.6g over the first %zu items%s; %.6g over "
                "the pass\n",
                allocs_per_item, std::min(n, cycle),
                cycle_done ? "" : " (the pass ended inside its first cycle)",
                static_cast<double>(p0.allocs) /
                    static_cast<double>(std::max<std::size_t>(n, 1)));
    std::printf("setup over %zu repeats: median %.6f s q1 %.6f s q3 %.6f s\n",
                p0.setup_s.size(), setup_s, quantile(p0.setup_s, 0.25),
                quantile(p0.setup_s, 0.75));

    bool correct = alloc_ok && p0.failed == 0 && n != 0;
    std::uint64_t failed = p0.failed;
    std::vector<Metric> metrics;
    if (trace == 0) {
        const double values[] = {
            items_per_s,
            item_p50_ms,
            item_tail_ms,
            allocs_per_item,
            rss_mb,
            setup_s,
        };
        for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
            metrics.push_back({kEndToEnd[i].name, values[i], kEndToEnd[i].unit});
        }
    } else {
        // The traced pass replays exactly the items of the untraced one
        // in a fresh workload, so every output must match item by item.
        std::unique_ptr<Workload> traced = make_workload(workload, opts);
        Ledger ledger;
        set_active_ledger(&ledger);
        Pass p1 = run_pass(*traced, 0.0, n, nullptr);
        set_active_ledger(nullptr);
        std::uint64_t diverged = p1.failed;
        for (std::size_t i = 0; i < std::min(n, p1.items()); ++i) {
            diverged += p1.outputs[i] != p0.outputs[i] ? 1 : 0;
        }
        if (!p1.setup_ok || p1.items() != n || ledger.depth() != 0) {
            diverged += 1;
        }
        if (diverged != 0) {
            std::fprintf(stderr,
                         "perfbench: the traced pass differs from the untraced "
                         "one in %llu item(s) %s\n",
                         static_cast<unsigned long long>(diverged),
                         p1.detail.c_str());
        }
        failed += diverged;
        correct = correct && diverged == 0;
        const double traced_s =
            static_cast<double>(p1.wall_ns - traced->probe_ns()) / 1e9;
        const double untraced_s = static_cast<double>(p0.wall_ns) / 1e9;
        std::printf("neutrality: traced outputs %s the untraced ones (%zu items)\n",
                    diverged == 0 ? "equal" : "DIFFER FROM", n);
        std::printf("tracing overhead: traced %.3f s vs untraced %.3f s (%+.1f%%)\n",
                    traced_s, untraced_s, 100.0 * (traced_s / untraced_s - 1.0));
        print_ledger(ledger, n, ledger.stat(SpanId::item).incl_ns);

        std::map<std::string, double> values;
        for (const LayerValue& v : traced->layer_values(ledger, n)) {
            values[v.name] = v.value;
        }
        for (const MetricDef& m : kPerLayer) {
            const auto it = values.find(m.name);
            metrics.push_back({m.name, it == values.end() ? 0.0 : it->second, m.unit});
            if (it != values.end()) {
                values.erase(it);
            }
        }
        for (const auto& [name, value] : values) {
            std::fprintf(stderr, "perfbench: unlisted per-layer metric %s\n",
                         name.c_str());
            correct = false;
        }
    }
    std::printf("provenance %s\n",
                provenance_json(root, load_start, read_loadavg()).c_str());
    print_result(correct, std::max<std::uint64_t>(n, 1), failed, metrics);
    return 0;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run(argc, argv); }
