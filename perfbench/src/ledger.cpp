#include "ledger.hpp"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "alloc_count.hpp"
#include "sim/sim_api.hpp"
#include "sim/tthread.hpp"

namespace perfbench {

namespace {

Ledger* g_active = nullptr;

}  // namespace

const char* span_name(SpanId id) {
    switch (id) {
        case SpanId::item: return "item";
        case SpanId::corpus_read: return "corpus.read";
        case SpanId::corpus_digest: return "corpus.digest";
        case SpanId::corpus_parse: return "corpus.parse";
        case SpanId::api_json_parse: return "api.json_parse";
        case SpanId::harness_bridge: return "harness.bridge";
        case SpanId::harness_run: return "harness.run";
        case SpanId::harness_workload_build: return "harness.workload_build";
        case SpanId::harness_fingerprint: return "harness.fingerprint";
        case SpanId::corpus_checks: return "corpus.checks";
        case SpanId::harness_baseline: return "harness.baseline";
        case SpanId::harness_job: return "harness.job";
        case SpanId::store_append: return "harness.store.append";
        case SpanId::store_sync: return "harness.store.sync";
        case SpanId::harness_merge: return "harness.merge";
        case SpanId::harness_init: return "harness.init";
        case SpanId::harness_probe: return "harness.probe";
        case SpanId::sysc_run: return "sysc.run";
        case SpanId::count_: break;
    }
    return "?";
}

Ledger* active_ledger() { return g_active; }

void set_active_ledger(Ledger* ledger) { g_active = ledger; }

void Ledger::open(SpanId id) {
    if (depth_ == max_depth) {
        std::fprintf(stderr, "perfbench: span stack overflow at %s\n",
                     span_name(id));
        std::abort();
    }
    Frame& f = stack_[depth_++];
    f.id = id;
    f.child_ns = 0;
    f.child_allocs = 0;
    f.start_allocs = alloc_count();
    f.start_ns = now_ns();
}

void Ledger::close() {
    const std::uint64_t end_ns = now_ns();
    const std::uint64_t end_allocs = alloc_count();
    if (depth_ == 0) {
        std::fprintf(stderr, "perfbench: span closed twice\n");
        std::abort();
    }
    const Frame& f = stack_[--depth_];
    const std::uint64_t incl_ns = end_ns - f.start_ns;
    const std::uint64_t incl_allocs = end_allocs - f.start_allocs;
    const std::int64_t self_ns =
        static_cast<std::int64_t>(incl_ns) - static_cast<std::int64_t>(f.child_ns);

    SpanStat& s = stats_[static_cast<std::size_t>(f.id)];
    if (s.count == 0 || self_ns < s.min_self_ns) {
        s.min_self_ns = self_ns;
    }
    ++s.count;
    s.incl_ns += incl_ns;
    s.self_ns += incl_ns - f.child_ns;
    s.incl_allocs += incl_allocs;
    s.self_allocs += incl_allocs - f.child_allocs;
    if (depth_ != 0) {
        Frame& parent = stack_[depth_ - 1];
        parent.child_ns += incl_ns;
        parent.child_allocs += incl_allocs;
    }
}

LayerObserver::LayerObserver(rtk::sim::SimApi& api, LayerCounts& sink)
    : api_(api), sink_(sink) {
    api_.add_observer(this);
}

LayerObserver::~LayerObserver() {
    run(-1);
    api_.remove_observer(this);
}

bool LayerObserver::in_service(int id) const {
    return id >= 0 && static_cast<std::size_t>(id) < max_threads &&
           in_service_[static_cast<std::size_t>(id)];
}

void LayerObserver::run(int id) {
    const std::uint64_t t = now_ns();
    if (timing_) {
        sink_.service_ns += t - since_ns_;
    }
    running_ = id;
    timing_ = in_service(id);
    since_ns_ = t;
}

void LayerObserver::flush() { run(running_); }

void LayerObserver::on_dispatch(const rtk::sim::TThread& t, rtk::sysc::Time) {
    ++sink_.dispatches;
    run(t.id());
}

void LayerObserver::on_preemption(const rtk::sim::TThread&, rtk::sysc::Time) {
    ++sink_.preemptions;
}

void LayerObserver::on_interrupt_enter(const rtk::sim::TThread& isr,
                                       rtk::sysc::Time) {
    if (nesting_ < max_nesting) {
        interrupted_[nesting_] = running_;
    }
    ++nesting_;
    run(isr.id());
}

void LayerObserver::on_interrupt_return(const rtk::sim::TThread&, rtk::sysc::Time) {
    if (nesting_ == 0) {
        return;
    }
    --nesting_;
    run(nesting_ < max_nesting ? interrupted_[nesting_] : -1);
}

void LayerObserver::on_idle(rtk::sysc::Time) { run(-1); }

void LayerObserver::on_service_enter(const rtk::sim::TThread& t, rtk::sysc::Time) {
    ++sink_.service_calls;
    const int id = t.id();
    if (id >= 0 && static_cast<std::size_t>(id) < max_threads) {
        in_service_[static_cast<std::size_t>(id)] = true;
    }
    run(id);  // only a running thread enters a section
}

void LayerObserver::on_service_exit(const rtk::sim::TThread& t, rtk::sysc::Time) {
    const int id = t.id();
    if (id >= 0 && static_cast<std::size_t>(id) < max_threads) {
        in_service_[static_cast<std::size_t>(id)] = false;
    }
    run(id);
}

void observe(rtk::harness::ScenarioSpec& spec, LayerCounts& counts,
             std::function<void(rtk::Simulation&)> on_check) {
    auto workload = std::move(spec.workload);
    spec.workload = [workload, &counts](rtk::Simulation& sim,
                                        const rtk::harness::ScenarioSpec& s) {
        Span span(SpanId::harness_workload_build);
        sim.retain(std::make_shared<LayerObserver>(sim.sim(), counts));
        if (workload) {
            workload(sim, s);
        }
    };
    auto check = std::move(spec.check);
    spec.check = [check, on_check = std::move(on_check), &counts](
                     rtk::Simulation& sim, const rtk::harness::ScenarioSpec& s) {
        counts.delta_cycles += sim.kernel().delta_count();
        on_check(sim);
        return check ? check(sim, s) : true;
    };
}

}  // namespace perfbench
