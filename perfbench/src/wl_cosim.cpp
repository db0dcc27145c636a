// cosim: the paper's Table 2 system -- RTK-Spec TRON + i8051 BFM +
// video game, 10 ms physics (the maximum BFM access rate), no GUI -- run
// as a long simulation in items of one simulated second, with
// seed-drawn keypad presses between items. Per-scenario fixed costs
// vanish here; timed events, delta cycles, coroutine switches and bus
// accesses dominate, and items_per_s is the paper's S/R. Changes to the
// corpus, harness and store layers should not move it.
//
// The simulation restarts every kEpochSeconds simulated seconds with the
// same press schedule. The restart keeps the Gantt record (which grows
// with simulated time) the same size however fast a run is, and every
// epoch repeats the first one, which is the correctness check: frames,
// score and bus accesses after each item must match the first epoch.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "app/videogame.hpp"
#include "bfm/bfm8051.hpp"
#include "sim/sim_api.hpp"
#include "sysc/kernel.hpp"
#include "tkernel/kernel.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using rtk::app::VideoGame;
using rtk::sysc::Time;

constexpr std::size_t kEpochSeconds = 60;
constexpr rtk::tkernel::RELTIM kPhysicsPeriodMs = 10;
constexpr std::uint64_t kPressMs = 20;
/// Key held for kPressMs at the start of an item; kNoKey: no press.
constexpr unsigned kNoKey = ~0u;

rtk::app::GameConfig game_config() {
    rtk::app::GameConfig gc;
    gc.physics_period_ms = kPhysicsPeriodMs;
    return gc;
}

/// One complete co-simulation, wired the way the Table 2 bench wires it.
struct System {
    System() : tk(kernel), board(tk.sim()), game(tk, board, game_config()) {
        VideoGame::wire(tk, board);
        game.install();
    }

    rtk::sysc::Kernel kernel;
    rtk::tkernel::TKernel tk;
    rtk::bfm::Bfm8051 board;
    VideoGame game;
    /// Declared last so it detaches before the kernel model dies.
    std::unique_ptr<LayerObserver> observer;
};

/// Cumulative counters of one epoch after an item.
struct Progress {
    std::uint64_t frames = 0;
    std::uint64_t bus_accesses = 0;
    std::uint64_t delta_cycles = 0;
    std::uint64_t gantt_segments = 0;
};

class Cosim final : public Workload {
public:
    explicit Cosim(const Options& opts) {
        SeedRng rng(opts.seed);
        keys_.resize(kEpochSeconds);
        for (unsigned& key : keys_) {
            const std::uint64_t draw = rng.below(4);
            key = draw == 0   ? VideoGame::key_left
                  : draw == 1 ? VideoGame::key_right
                              : kNoKey;
        }
    }

    bool setup(std::string& error) override {
        (void)error;
        start_system();
        return true;
    }

    ItemResult run_item(std::size_t i) override {
        const std::size_t j = i % kEpochSeconds;
        System& sys = *system_;
        const Time start = Time::sec(j);
        ItemResult r;
        const std::uint64_t t0 = now_ns();
        {
            Span item(SpanId::item);
            Span run(SpanId::sysc_run);
            if (keys_[j] != kNoKey) {
                sys.board.keypad().press(keys_[j]);
                sys.kernel.run_until(start + Time::ms(kPressMs));
                sys.board.keypad().release(keys_[j]);
            }
            sys.kernel.run_until(start + Time::sec(1));
        }
        r.ns = now_ns() - t0;

        Progress now;
        now.frames = sys.game.frames_rendered();
        now.bus_accesses = sys.board.bus().access_count();
        now.delta_cycles = sys.kernel.delta_count();
        now.gantt_segments = sys.tk.sim().gantt().segments().size();
        std::uint64_t out = mix(fnv_basis, now.frames);
        out = mix(out, sys.game.score());
        out = mix(out, sys.game.misses());
        out = mix(out, sys.game.key_events());
        out = mix(out, now.bus_accesses);
        r.output = out;

        // Each simulated second renders frames over the bus; an item that
        // does neither is broken whatever its repeats say.
        r.ok = now.frames > last_.frames && now.bus_accesses > last_.bus_accesses;
        if (i < kEpochSeconds) {
            reference_.push_back(out);
        } else if (reference_[j] != out) {
            r.ok = false;
        }
        if (!r.ok && ++reported_ <= 8) {
            std::fprintf(stderr,
                         "cosim: item %zu (second %zu of its epoch) differs from "
                         "the first epoch or made no progress\n",
                         i, j);
        }
        if (Ledger* ledger = active_ledger()) {
            sys.observer->flush();
            LayerCounts& c = ledger->counts;
            c.frames += now.frames - last_.frames;
            c.bus_accesses += now.bus_accesses - last_.bus_accesses;
            c.delta_cycles += now.delta_cycles - last_.delta_cycles;
            c.gantt_segments += now.gantt_segments - last_.gantt_segments;
        }
        last_ = now;
        if (j + 1 == kEpochSeconds) {
            // Restart at the end of an epoch, so every cycle of
            // cycle_items() holds the same two restarts.
            system_.reset();
            start_system();
        }
        return r;
    }

    /// Two epochs, so a block of 120 simulated seconds has a p91.7 tail.
    std::size_t cycle_items() const override { return 2 * kEpochSeconds; }
    std::size_t block_items() const override { return 2 * kEpochSeconds; }

    std::vector<LayerValue> layer_values(const Ledger& l,
                                         std::size_t items) const override {
        const LayerCounts& c = l.counts;
        return {
            {"tkernel.service_calls", per_item(c.service_calls, items)},
            {"tkernel.service_us", per_item(c.service_ns, items) / 1e3},
            {"tkernel.service_share",
             ratio(c.service_ns, l.stat(SpanId::sysc_run).incl_ns)},
            {"sim.dispatches", per_item(c.dispatches, items)},
            {"sim.preemptions", per_item(c.preemptions, items)},
            {"sim.gantt_segments", per_item(c.gantt_segments, items)},
            {"sysc.delta_cycles", per_item(c.delta_cycles, items)},
            {"sysc.run_us", span_us(l, SpanId::sysc_run, items)},
            {"bfm.bus_accesses", per_item(c.bus_accesses, items)},
            {"app.frames", per_item(c.frames, items)},
        };
    }

    std::uint64_t input_digest(std::size_t items) override {
        std::uint64_t h = fnv_basis;
        for (std::size_t i = 0; i < items; ++i) {
            h = mix(h, keys_[i % kEpochSeconds]);
        }
        return h;
    }

private:
    void start_system() {
        system_ = std::make_unique<System>();
        if (Ledger* ledger = active_ledger()) {
            system_->observer =
                std::make_unique<LayerObserver>(system_->tk.sim(), ledger->counts);
        }
        system_->tk.power_on();
        last_ = Progress{};
    }

    std::vector<unsigned> keys_;
    std::unique_ptr<System> system_;
    Progress last_;
    std::vector<std::uint64_t> reference_;
    std::uint64_t reported_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cosim(const Options& opts) {
    return std::make_unique<Cosim>(opts);
}

}  // namespace perfbench
