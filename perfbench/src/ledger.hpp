// The per-layer ledger of a traced run: spans recorded from the
// benchmark's own files around each call into a layer, plus counts taken
// at the same boundaries.
//
// A span has a fixed id (no allocation when it opens or closes, so the
// allocation counts it attributes stay exact), a start, an end and a
// parent: the span open when it started. A layer's self time is its
// inclusive time minus the inclusive time of its child spans. Allocations
// are attributed the same way, from the counting operator new.
//
// Spans are recorded only while a Ledger is active; untraced runs pay one
// null-pointer test per span.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>

#include "harness/scenario.hpp"
#include "sim/observer.hpp"

namespace perfbench {

/// Host time in nanoseconds on the steady clock.
inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Every span the benchmark records, one per layer boundary it brackets.
enum class SpanId : std::uint8_t {
    item,                  ///< one timed item (root span)
    corpus_read,           ///< scenario file read
    corpus_digest,         ///< corpus::fnv1a64 over the file bytes
    corpus_parse,          ///< corpus::ScenarioFile::parse
    api_json_parse,        ///< api::Json::parse of the same bytes
    harness_bridge,        ///< harness::scenario_from_corpus
    harness_run,           ///< harness::run_scenario
    harness_workload_build,  ///< inside the wrapped ScenarioSpec::workload
    harness_fingerprint,   ///< harness::fingerprint_simulation in the wrapped check
    corpus_checks,         ///< corpus::evaluate_checks
    harness_baseline,      ///< first campaign::BaselineCache::get of a workload
    harness_job,           ///< campaign::run_job
    store_append,          ///< campaign::JsonlAppender::append
    store_sync,            ///< JsonlAppender::close at the end of a campaign
    harness_merge,         ///< campaign::scan_stores + merged_report
    harness_init,          ///< campaign::init_campaign + load + store open
    harness_probe,         ///< fault-free leg replayed under the observer
    sysc_run,              ///< sysc::Kernel::run_until (cosim)
    count_
};

inline constexpr std::size_t span_count = static_cast<std::size_t>(SpanId::count_);

/// Dotted ledger name of a span ("corpus.parse", ...).
const char* span_name(SpanId id);

/// Totals of every span with one id.
struct SpanStat {
    std::uint64_t count = 0;
    std::uint64_t incl_ns = 0;
    std::uint64_t self_ns = 0;
    std::uint64_t incl_allocs = 0;
    std::uint64_t self_allocs = 0;
    /// Self time of the worst single span; never negative by
    /// construction, checked by the self-test.
    std::int64_t min_self_ns = 0;
};

/// Counts taken at layer boundaries during a traced run.
struct LayerCounts {
    std::uint64_t service_calls = 0;  ///< outermost service sections entered
    std::uint64_t service_ns = 0;     ///< host time with a section open
    std::uint64_t dispatches = 0;
    std::uint64_t preemptions = 0;
    std::uint64_t gantt_segments = 0;
    std::uint64_t delta_cycles = 0;
    std::uint64_t trace_events = 0;
    std::uint64_t baselines = 0;
    std::uint64_t injected = 0;
    std::uint64_t store_syncs = 0;
    std::uint64_t store_sync_ns = 0;  ///< appends that flushed + final closes
    std::uint64_t store_bytes = 0;
    std::uint64_t bus_accesses = 0;
    std::uint64_t frames = 0;
    std::uint64_t probe_runs = 0;     ///< fault-free replays under the observer
    std::uint64_t probe_run_ns = 0;
};

class Ledger {
public:
    void open(SpanId id);
    void close();

    const SpanStat& stat(SpanId id) const {
        return stats_[static_cast<std::size_t>(id)];
    }
    /// Deepest nesting reached; more than max_depth is a usage error.
    std::size_t depth() const { return depth_; }

    LayerCounts counts;

    static constexpr std::size_t max_depth = 16;

private:
    struct Frame {
        SpanId id = SpanId::item;
        std::uint64_t start_ns = 0;
        std::uint64_t start_allocs = 0;
        std::uint64_t child_ns = 0;
        std::uint64_t child_allocs = 0;
    };
    std::array<SpanStat, span_count> stats_{};
    std::array<Frame, max_depth> stack_{};
    std::size_t depth_ = 0;
};

/// The ledger spans are recorded into; nullptr outside a traced run.
Ledger* active_ledger();
void set_active_ledger(Ledger* ledger);

/// RAII span on the active ledger.
class Span {
public:
    explicit Span(SpanId id) : ledger_(active_ledger()) {
        if (ledger_ != nullptr) {
            ledger_->open(id);
        }
    }
    ~Span() {
        if (ledger_ != nullptr) {
            ledger_->close();
        }
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    Ledger* ledger_;
};

/// Read-only SimObserver the traced run attaches through
/// SimApi::add_observer. It counts dispatches, preemptions and outermost
/// service sections, and times the host interval during which the
/// running thread is inside an outermost service section: a section's
/// clock runs from enter to exit but stops while its thread is switched
/// out (a task blocked inside a call, a preempting handler). It never
/// calls back into the simulation, so it cannot move simulated time or
/// fingerprints.
class LayerObserver final : public rtk::sim::SimObserver {
public:
    LayerObserver(rtk::sim::SimApi& api, LayerCounts& sink);
    ~LayerObserver() override;

    LayerObserver(const LayerObserver&) = delete;
    LayerObserver& operator=(const LayerObserver&) = delete;

    /// Bring the sink up to the current host time at an item boundary.
    void flush();

    void on_dispatch(const rtk::sim::TThread& t, rtk::sysc::Time at) override;
    void on_preemption(const rtk::sim::TThread& t, rtk::sysc::Time at) override;
    void on_interrupt_enter(const rtk::sim::TThread& isr, rtk::sysc::Time at) override;
    void on_interrupt_return(const rtk::sim::TThread& isr, rtk::sysc::Time at) override;
    void on_idle(rtk::sysc::Time at) override;
    void on_service_enter(const rtk::sim::TThread& t, rtk::sysc::Time at) override;
    void on_service_exit(const rtk::sim::TThread& t, rtk::sysc::Time at) override;

private:
    /// Threads with ids at or above this are counted but not timed.
    static constexpr std::size_t max_threads = 1024;
    static constexpr std::size_t max_nesting = 16;

    /// Stop the clock, make `id` the running thread (-1: none), and
    /// restart the clock when that thread is inside a section.
    void run(int id);
    bool in_service(int id) const;

    rtk::sim::SimApi& api_;
    LayerCounts& sink_;
    std::array<bool, max_threads> in_service_{};
    std::array<int, max_nesting> interrupted_{};  ///< threads under a handler
    std::size_t nesting_ = 0;
    int running_ = -1;
    bool timing_ = false;
    std::uint64_t since_ns_ = 0;
};

/// Wrap `spec` for a traced pass: attach a LayerObserver feeding
/// `counts` inside the workload closure (timed as harness.workload_build)
/// and call `on_check` inside the check closure, before the original
/// check. run_scenario skips the check of a hung run. `counts` and
/// whatever `on_check` captures must outlive every run of `spec`.
void observe(rtk::harness::ScenarioSpec& spec, LayerCounts& counts,
             std::function<void(rtk::Simulation&)> on_check);

}  // namespace perfbench
