// corpus_replay: every corpus/v1 scenario, in a seed-chosen order,
// replayed the way `rtk-corpus replay` replays it -- read, digest check,
// strict parse, bridge, traced run, rate checks -- with each fingerprint
// and verdict compared to corpus/v1/index.json, read at run time so a
// documented re-pin flows through. Scenarios are tiny, so the fixed
// per-scenario cost dominates: parse, object-graph build, boot,
// teardown, fingerprint and Gantt.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "api/json.hpp"
#include "corpus/checks.hpp"
#include "corpus/index.hpp"
#include "corpus/scenario_file.hpp"
#include "harness/corpus_bridge.hpp"
#include "harness/scenario.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace corpus = rtk::corpus;
namespace harness = rtk::harness;

bool read_file(const std::string& path, std::string& out) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        return false;
    }
    bool ok = std::fseek(f, 0, SEEK_END) == 0;
    const long size = ok ? std::ftell(f) : -1;
    ok = ok && size > 0 && std::fseek(f, 0, SEEK_SET) == 0;
    if (ok) {
        out.resize(static_cast<std::size_t>(size));
        ok = std::fread(out.data(), 1, out.size(), f) == out.size();
    }
    std::fclose(f);
    return ok;
}

class CorpusReplay final : public Workload {
public:
    explicit CorpusReplay(const Options& opts)
        : dir_(opts.root + "/corpus/v1"), seed_(opts.seed) {}

    bool setup(std::string& error) override {
        corpus::CorpusIndex index;
        if (!corpus::CorpusIndex::load(dir_, index, &error)) {
            return false;
        }
        index.sort();
        if (index.entries.empty()) {
            error = "corpus index has no entries";
            return false;
        }
        entries_ = std::move(index.entries);
        order_.resize(entries_.size());
        for (std::size_t i = 0; i < order_.size(); ++i) {
            order_[i] = i;
        }
        SeedRng rng(seed_);
        for (std::size_t i = order_.size() - 1; i > 0; --i) {
            std::swap(order_[i], order_[rng.below(i + 1)]);
        }
        return true;
    }

    ItemResult run_item(std::size_t i) override {
        const corpus::IndexEntry& e = entries_[order_[i % order_.size()]];
        ItemResult r;
        const std::uint64_t t0 = now_ns();
        {
            Span item(SpanId::item);
            r.ok = replay(e, r.output);
        }
        r.ns = now_ns() - t0;
        return r;
    }

    /// One replay of the whole corpus, in blocks of 128 scenarios.
    std::size_t cycle_items() const override { return order_.size(); }
    std::size_t block_items() const override { return 128; }

    std::vector<LayerValue> layer_values(const Ledger& l,
                                         std::size_t items) const override {
        const LayerCounts& c = l.counts;
        return {
            {"corpus.read_us", span_us(l, SpanId::corpus_read, items)},
            {"corpus.digest_us", span_us(l, SpanId::corpus_digest, items)},
            {"corpus.parse_us", span_us(l, SpanId::corpus_parse, items)},
            {"corpus.parse_allocs", span_allocs(l, SpanId::corpus_parse, items)},
            {"api.json_parse_us", span_us(l, SpanId::api_json_parse, items)},
            {"corpus.checks_us", span_us(l, SpanId::corpus_checks, items)},
            {"harness.bridge_us", span_us(l, SpanId::harness_bridge, items)},
            {"harness.run_us", span_us(l, SpanId::harness_run, items)},
            {"harness.run_allocs", span_allocs(l, SpanId::harness_run, items)},
            {"harness.workload_build_us",
             span_us(l, SpanId::harness_workload_build, items)},
            {"harness.fingerprint_us",
             span_us(l, SpanId::harness_fingerprint, items)},
            {"tkernel.service_calls", per_item(c.service_calls, items)},
            {"tkernel.service_us", per_item(c.service_ns, items) / 1e3},
            {"tkernel.service_share",
             ratio(c.service_ns, l.stat(SpanId::harness_run).incl_ns)},
            {"sim.dispatches", per_item(c.dispatches, items)},
            {"sim.preemptions", per_item(c.preemptions, items)},
            {"sim.gantt_segments", per_item(c.gantt_segments, items)},
            {"sysc.delta_cycles", per_item(c.delta_cycles, items)},
            {"trace.events", per_item(c.trace_events, items)},
        };
    }

    std::uint64_t input_digest(std::size_t items) override {
        std::string error;
        if (entries_.empty() && !setup(error)) {
            return 0;
        }
        std::uint64_t h = fnv_basis;
        for (std::size_t i = 0; i < items; ++i) {
            h = mix(h, corpus::fnv1a64(entries_[order_[i % order_.size()]].file));
        }
        return h;
    }

private:
    bool replay(const corpus::IndexEntry& e, std::uint64_t& output) {
        Ledger* ledger = active_ledger();
        std::string bytes;
        {
            Span s(SpanId::corpus_read);
            if (!read_file(dir_ + "/" + e.file, bytes)) {
                return fail(e, "unreadable");
            }
        }
        std::uint64_t digest = 0;
        {
            Span s(SpanId::corpus_digest);
            digest = corpus::fnv1a64(bytes);
        }
        if (digest != e.digest) {
            return fail(e, "byte digest differs from the index");
        }
        corpus::ScenarioFile file;
        {
            Span s(SpanId::corpus_parse);
            std::string error;
            if (!corpus::ScenarioFile::parse(bytes, file, &error)) {
                return fail(e, error);
            }
        }
        if (ledger != nullptr) {
            // The JSON share of corpus.parse, timed by parsing the same
            // bytes once more; only the traced pass pays for it.
            Span s(SpanId::api_json_parse);
            rtk::api::Json j;
            (void)rtk::api::Json::parse(bytes, j);
        }
        harness::ScenarioSpec spec;
        {
            Span s(SpanId::harness_bridge);
            spec = harness::scenario_from_corpus(file);
            spec.trace.enabled = true;  // the rate checks read trace::Metrics
        }
        // Filled by the wrapped check of a traced pass: the fingerprint
        // computed there must equal the one run_scenario reports.
        bool checked = false;
        std::uint64_t check_fp = 0;
        if (ledger != nullptr) {
            observe(spec, ledger->counts, [&](rtk::Simulation& sim) {
                Span span(SpanId::harness_fingerprint);
                check_fp = harness::fingerprint_simulation(sim);
                checked = true;
            });
        }
        harness::ScenarioResult res;
        {
            Span s(SpanId::harness_run);
            res = harness::run_scenario(spec);
        }
        bool verdict = false;
        {
            Span s(SpanId::corpus_checks);
            const auto checks = corpus::evaluate_checks(file, res.metrics);
            verdict = res.passed && corpus::all_passed(checks);
        }
        output = mix(mix(fnv_basis, res.fingerprint), verdict ? 1 : 0);
        if (ledger != nullptr) {
            ledger->counts.trace_events += res.trace_events;
            ledger->counts.gantt_segments += res.gantt_segments;
            if (checked && check_fp != res.fingerprint) {
                return fail(e, "the observed run fingerprints differently");
            }
        }
        if (res.fingerprint != e.fingerprint) {
            return fail(e, "fingerprint differs from the index");
        }
        if (verdict != e.passed) {
            return fail(e, "verdict differs from the index");
        }
        return true;
    }

    bool fail(const corpus::IndexEntry& e, const std::string& why) {
        if (++failures_ <= 8) {
            std::fprintf(stderr, "corpus_replay: %s: %s\n", e.file.c_str(),
                         why.c_str());
        }
        return false;
    }

    std::string dir_;
    std::uint64_t seed_;
    std::vector<corpus::IndexEntry> entries_;
    std::vector<std::size_t> order_;
    std::uint64_t failures_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_corpus_replay(const Options& opts) {
    return std::make_unique<CorpusReplay>(opts);
}

}  // namespace perfbench
