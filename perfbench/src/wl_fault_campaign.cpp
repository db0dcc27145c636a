// fault_campaign: generated-workload fault campaigns run the way one
// campaign shard runs them -- campaign::run_job per job, each record
// appended through JsonlAppender with the manifest's default fsync
// batching, and scan_stores + merged_report when the campaign ends. It is
// the ROADMAP's headline cost (injections per second) and the only
// workload that writes durable state.
//
// The run is a sequence of campaigns of the shape `rtk-campaign submit`
// gives by default (Manifest defaults: 8 workloads x 32 injections), each
// in a fresh directory with a fresh BaselineCache, like a shard's
// lifetime. Campaigns of a fixed size keep the retained state (baseline
// cache, merged records) independent of how many jobs a run completes, so
// peak memory does not grow with speed.
//
// The campaigns come from a fixed pool of kPoolCampaigns manifests (base
// seeds 1, 9, 17, ...: 128 generated workloads), cycled in a seed-chosen
// order, as corpus_replay cycles its corpus. Generated workloads differ
// widely in cost, so a pool drawn from the seed would make the figures
// depend on which workloads a seed happened to draw; a fixed pool gives
// every seed the same mix, and allocs_per_item covers exactly one cycle.
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include "corpus/index.hpp"
#include "harness/campaign.hpp"
#include "harness/campaign_store.hpp"
#include "harness/fault.hpp"
#include "harness/scenario.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

namespace campaign = rtk::harness::campaign;
namespace fault = rtk::harness::fault;
namespace harness = rtk::harness;
namespace fs = std::filesystem;

/// Every kVerifyStride-th job is re-run in a fresh BaselineCache.
constexpr std::size_t kVerifyStride = 97;
/// Campaigns in the pool; allocs_per_item covers one cycle of them.
constexpr std::size_t kPoolCampaigns = 16;

class FaultCampaign final : public Workload {
public:
    explicit FaultCampaign(const Options& opts)
        : work_dir_(opts.root + "/.bench_build/work/fault-" +
                    std::to_string(::getpid()) + "-" +
                    std::to_string(instances_++)),
          workloads_(campaign::Manifest{}.corpus),
          injections_(campaign::Manifest{}.injections_per_workload),
          jobs_(workloads_ * injections_) {
        order_.resize(kPoolCampaigns);
        for (std::size_t k = 0; k < kPoolCampaigns; ++k) {
            order_[k] = k;
        }
        SeedRng rng(opts.seed);
        for (std::size_t k = kPoolCampaigns - 1; k > 0; --k) {
            std::swap(order_[k], order_[rng.below(k + 1)]);
        }
    }

    ~FaultCampaign() override {
        current_.reset();
        std::error_code ec;
        fs::remove_all(work_dir_, ec);
    }

    FaultCampaign(const FaultCampaign&) = delete;
    FaultCampaign& operator=(const FaultCampaign&) = delete;

    bool setup(std::string& error) override { return begin_campaign(0, error); }

    ItemResult run_item(std::size_t i) override {
        ItemResult r;
        const std::size_t c = i / jobs_;
        if (current_ == nullptr || current_->index != c) {
            std::string error;
            if (!begin_campaign(c, error)) {
                report_failure(error);
                return r;
            }
        }
        Campaign& cur = *current_;
        const campaign::Job& job = cur.jobs[i % jobs_];
        Ledger* ledger = active_ledger();
        bool new_workload = false;
        rtk::api::Json rec;
        std::string line;
        bool appended = false;
        const std::uint64_t t0 = now_ns();
        {
            Span item(SpanId::item);
            if (ledger != nullptr && job.workload != cur.last_workload) {
                new_workload = true;
                Span s(SpanId::harness_baseline);
                (void)cur.cache.get(cur.manifest, job.workload);
            }
            {
                Span s(SpanId::harness_job);
                rec = campaign::run_job(cur.manifest, job, cur.cache);
            }
            line = rec.dump(-1);
            const bool flushes =
                (cur.store.appended() + 1) % cur.manifest.flush_every == 0;
            const std::uint64_t a0 = now_ns();
            {
                Span s(SpanId::store_append);
                appended = cur.store.append(line);
            }
            if (ledger != nullptr) {
                ledger->counts.store_bytes += line.size() + 1;
                if (flushes) {
                    ++ledger->counts.store_syncs;
                    ledger->counts.store_sync_ns += now_ns() - a0;
                }
            }
        }
        r.ns = now_ns() - t0;
        cur.last_workload = job.workload;
        ++cur.done;
        r.output = rtk::corpus::fnv1a64(line);
        r.ok = appended && tally(rec, job.id);
        if (new_workload) {
            probe(cur, job.workload, ledger->counts);
        }
        if (cur.done == jobs_) {
            // The campaign's last job: merge it and open the next one now,
            // so every cycle of the pool holds the same campaign turnovers.
            std::string error;
            failures_ += end_campaign(error);
            if (!begin_campaign(c + 1, error)) {
                report_failure(error);  // run_item retries and fails the job
            }
        }
        return r;
    }

    std::uint64_t finish(std::string& detail) override {
        return failures_ + end_campaign(detail);
    }

    std::uint64_t verify(const std::vector<std::uint64_t>& outputs,
                         std::string& detail) override {
        // A stride sample of jobs, re-run in a fresh BaselineCache each,
        // must reproduce its record byte for byte.
        std::uint64_t bad = 0;
        for (std::size_t i = 0; i < outputs.size(); i += kVerifyStride) {
            const campaign::Manifest m = manifest(i / jobs_);
            const std::vector<campaign::Job> jobs = campaign::make_jobs(m);
            campaign::BaselineCache fresh;
            const std::string line =
                campaign::run_job(m, jobs[i % jobs_], fresh).dump(-1);
            if (rtk::corpus::fnv1a64(line) != outputs[i]) {
                ++bad;
                detail = "job " + std::to_string(i) +
                         " re-run in a fresh cache gave another record";
            }
            ++verified_;
        }
        return bad;
    }

    void report(std::FILE* out) const override {
        std::fprintf(out, "fault outcomes:");
        for (const auto& [name, count] : outcomes_) {
            std::fprintf(out, " %s=%llu", name.c_str(),
                         static_cast<unsigned long long>(count));
        }
        std::fprintf(out,
                     " | injected=%llu diverged=%llu skipped=%llu campaigns=%zu "
                     "re-run records compared=%llu\n",
                     static_cast<unsigned long long>(injected_),
                     static_cast<unsigned long long>(diverged_),
                     static_cast<unsigned long long>(skipped_), campaigns_,
                     static_cast<unsigned long long>(verified_));
    }

    /// One pass over the pool, in blocks of one campaign: campaigns differ
    /// widely in cost, so only whole campaigns make blocks alike.
    std::size_t cycle_items() const override { return kPoolCampaigns * jobs_; }
    std::size_t block_items() const override { return jobs_; }

    std::vector<LayerValue> layer_values(const Ledger& l,
                                         std::size_t items) const override {
        // Service calls, dispatches and Gantt segments are not visible
        // from outside run_job; they come from replaying each workload's
        // fault-free leg under the observer, per replayed run.
        const LayerCounts& c = l.counts;
        return {
            {"harness.baseline_us", span_us(l, SpanId::harness_baseline, items)},
            {"harness.baselines", per_item(c.baselines, items)},
            {"harness.job_us", span_us(l, SpanId::harness_job, items)},
            {"harness.job_allocs", span_allocs(l, SpanId::harness_job, items)},
            {"harness.injected_ratio", ratio(c.injected, items)},
            {"harness.store.append_us", span_us(l, SpanId::store_append, items)},
            {"harness.store.sync_us",
             per_item(c.store_sync_ns + l.stat(SpanId::store_sync).incl_ns,
                      items) / 1e3},
            {"harness.store.syncs",
             per_item(c.store_syncs + l.stat(SpanId::store_sync).count, items)},
            {"harness.store.bytes", per_item(c.store_bytes, items)},
            {"harness.merge_us", span_us(l, SpanId::harness_merge, items)},
            {"harness.init_us", span_us(l, SpanId::harness_init, items)},
            {"tkernel.service_calls", per_item(c.service_calls, c.probe_runs)},
            {"tkernel.service_us", per_item(c.service_ns, c.probe_runs) / 1e3},
            {"tkernel.service_share", ratio(c.service_ns, c.probe_run_ns)},
            {"sim.dispatches", per_item(c.dispatches, c.probe_runs)},
            {"sim.preemptions", per_item(c.preemptions, c.probe_runs)},
            {"sim.gantt_segments", per_item(c.gantt_segments, c.probe_runs)},
            {"sysc.delta_cycles", per_item(c.delta_cycles, c.probe_runs)},
        };
    }

    std::uint64_t probe_ns() const override { return probe_ns_; }

    std::uint64_t input_digest(std::size_t items) override {
        // The generated workloads behind the first `items` jobs.
        std::uint64_t h = fnv_basis;
        for (std::size_t i = 0; i < items; i += injections_) {
            const campaign::Manifest m = manifest(i / jobs_);
            const std::uint64_t w = (i % jobs_) / injections_;
            h = mix(h, rtk::corpus::fnv1a64(
                           rtk::harness::fuzz::generate_spec(m.base_seed + w)
                               .to_json()
                               .dump(-1)));
        }
        return h;
    }

private:
    struct Campaign {
        std::size_t index = 0;
        std::string dir;
        campaign::Manifest manifest;
        std::vector<campaign::Job> jobs;
        campaign::JsonlAppender store;
        campaign::BaselineCache cache;
        std::uint64_t last_workload = ~std::uint64_t{0};
        std::size_t done = 0;
    };

    /// Campaign `c` of the run: pool entry order_[c % kPoolCampaigns].
    /// Pool entries' base seeds are disjoint, so no generated workload
    /// repeats within a cycle.
    campaign::Manifest manifest(std::size_t c) const {
        campaign::Manifest m;
        m.name = "perfbench-fault";
        m.kind = campaign::Kind::fault;
        m.base_seed = order_[c % kPoolCampaigns] * workloads_ + 1;
        return m;
    }

    bool begin_campaign(std::size_t c, std::string& error) {
        Span span(SpanId::harness_init);
        auto cur = std::make_unique<Campaign>();
        cur->index = c;
        cur->dir = work_dir_ + "/campaign-" + std::to_string(c);
        std::error_code ec;
        fs::remove_all(cur->dir, ec);
        if (!campaign::init_campaign(cur->dir, manifest(c), &error) ||
            !campaign::load_manifest(cur->dir, cur->manifest, &error) ||
            !campaign::load_jobs(cur->dir, cur->jobs, &error)) {
            return false;
        }
        if (cur->jobs.size() != jobs_) {
            error = "campaign has " + std::to_string(cur->jobs.size()) + " jobs";
            return false;
        }
        if (!cur->store.open(campaign::shard_store_path(cur->dir, 0, 0),
                             cur->manifest.flush_every, &error)) {
            return false;
        }
        current_ = std::move(cur);
        ++campaigns_;
        return true;
    }

    /// Close the store, merge the campaign and check that every job run
    /// left exactly one record. Returns the number of failed checks.
    std::uint64_t end_campaign(std::string& detail) {
        if (current_ == nullptr) {
            return 0;
        }
        Campaign& cur = *current_;
        std::uint64_t bad = 0;
        {
            Span s(SpanId::store_sync);
            if (!cur.store.close()) {
                ++bad;
                detail = "store close failed";
            }
        }
        campaign::StoreScan scan;
        rtk::api::Json report;
        {
            Span s(SpanId::harness_merge);
            std::string error;
            if (!campaign::scan_stores(cur.dir, scan, &error)) {
                ++bad;
                detail = error;
            }
            report = campaign::merged_report(cur.manifest, cur.jobs, scan);
        }
        const rtk::api::Json& totals = report.at("totals");
        if (scan.records.size() != cur.done || scan.skipped_lines != 0 ||
            scan.duplicates != 0 ||
            report.at("campaign").at("completed").as_u64() != cur.done ||
            totals.at("skipped").as_u64() != 0) {
            ++bad;
            detail = "campaign " + std::to_string(cur.index) + ": " +
                     std::to_string(scan.records.size()) + " records for " +
                     std::to_string(cur.done) + " jobs";
        }
        std::error_code ec;
        fs::remove_all(cur.dir, ec);
        current_.reset();
        if (bad != 0) {
            report_failure(detail);
        }
        return bad;
    }

    /// Check one record and add it to the outcome tallies.
    bool tally(const rtk::api::Json& rec, std::uint64_t id) {
        if (rec.at("id").as_u64() != id) {
            report_failure("job " + std::to_string(id) + ": record of another job");
            return false;
        }
        if (rec.at("skipped").as_bool()) {
            ++skipped_;
            report_failure("job " + std::to_string(id) + " skipped: " +
                           rec.at("reason").as_string());
            return false;
        }
        ++outcomes_[rec.at("outcome").as_string()];
        const bool injected = rec.at("injected").as_bool();
        injected_ += injected ? 1 : 0;
        diverged_ += rec.at("diverged").as_bool() ? 1 : 0;
        if (Ledger* ledger = active_ledger()) {
            ledger->counts.injected += injected ? 1 : 0;
        }
        return true;
    }

    /// Traced pass only: replay the fault-free leg of workload `w` with
    /// the observer attached, and check it fingerprints like the cached
    /// baseline profile.
    void probe(Campaign& cur, std::uint64_t w, LayerCounts& counts) {
        Span span(SpanId::harness_probe);
        const std::uint64_t t0 = now_ns();
        ++counts.baselines;
        const auto& [spec, base] = cur.cache.get(cur.manifest, w);
        fault::FaultSpec f;
        f.workload = spec;
        f.delta_budget = cur.manifest.delta_budget;
        fault::BuiltInjection built = fault::build_injection(f, /*with_fault=*/false);
        observe(built.scenario, counts, [](rtk::Simulation&) {});
        const std::uint64_t r0 = now_ns();
        const harness::ScenarioResult run = harness::run_scenario(built.scenario);
        counts.probe_run_ns += now_ns() - r0;
        ++counts.probe_runs;
        counts.gantt_segments += run.gantt_segments;
        if (run.fingerprint != base.fingerprint) {
            ++failures_;
            report_failure("workload " + std::to_string(w) +
                           ": the observed fault-free leg fingerprints differently");
        }
        probe_ns_ += now_ns() - t0;
    }

    void report_failure(const std::string& what) {
        if (++reported_ <= 8) {
            std::fprintf(stderr, "fault_campaign: %s\n", what.c_str());
        }
    }

    /// Instances made by this process; each gets its own directory.
    static inline std::uint64_t instances_ = 0;

    std::string work_dir_;
    std::size_t workloads_;    ///< per campaign
    std::size_t injections_;   ///< per workload
    std::size_t jobs_;         ///< per campaign
    std::vector<std::size_t> order_;  ///< pool entries in run order
    std::unique_ptr<Campaign> current_;
    std::size_t campaigns_ = 0;
    std::uint64_t failures_ = 0;
    std::uint64_t reported_ = 0;
    std::uint64_t probe_ns_ = 0;
    std::uint64_t verified_ = 0;
    std::map<std::string, std::uint64_t> outcomes_;
    std::uint64_t injected_ = 0;
    std::uint64_t diverged_ = 0;
    std::uint64_t skipped_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fault_campaign(const Options& opts) {
    return std::make_unique<FaultCampaign>(opts);
}

}  // namespace perfbench
