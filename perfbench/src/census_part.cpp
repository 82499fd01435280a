// The census part: repeated ScaleTransport sweeps through the multi-pass
// census engine (CensusRunner::stream_passes, 2 passes), either spilled to
// disk on one vantage lane or held in memory across several lanes.
//
// Checks, per sweep, against ScaleTransport::persona_for — an independent
// recomputation of what each target can answer:
//   - no record shows an answer its persona does not give;
//   - records arrive gap-free in global-index order;
//   - the responsive count lies within the loss model's bound;
//   - the pass accounting is conserved when recounted from the records.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/census.hpp"
#include "core/record_sink.hpp"
#include "parts.hpp"
#include "sim/scale_world.hpp"
#include "timed_transport.hpp"

namespace perfbench {
namespace {

using namespace lfp;

constexpr double kLossRate = 0.02;
constexpr double kResponsiveFraction = 0.65;
constexpr std::size_t kPasses = 2;

// Expectation bits per target, from its persona.
constexpr std::uint8_t kExists = 1;
constexpr std::uint8_t kIcmp = 2;
constexpr std::uint8_t kTcp = 4;
constexpr std::uint8_t kUdp = 8;
constexpr std::uint8_t kSnmp = 16;
constexpr std::uint8_t kProtocolBits[probe::kProtocolCount] = {kIcmp, kTcp, kUdp};

sim::ScaleWorldConfig world_config(std::uint64_t seed) {
    return {.seed = seed, .responsive_fraction = kResponsiveFraction, .loss_rate = kLossRate};
}

/// The responder's own cost: re-sends the packets `lane` captured, batch
/// by batch, into a fresh ScaleTransport on this thread alone, with no
/// receive thread contending for its queue, and returns the seconds spent
/// inside send_batch.
double replay_responder(const TimedTransport& lane, std::uint64_t seed) {
    sim::ScaleTransport responder(world_config(seed));
    std::vector<net::Bytes> drained;
    double seconds = 0.0;
    lane.for_each_captured_batch([&](std::span<const net::Bytes> batch) {
        const auto start = Clock::now();
        responder.send_batch(batch);
        seconds += seconds_since(start);
        responder.poll_responses_into(std::chrono::milliseconds(0), drained);
        drained.clear();
    });
    return seconds;
}

/// Tail of the record stream: checks each record against its persona,
/// tallies what the pass accounting is recounted from, and stamps when the
/// first record arrived and when the stream finished.
class CheckSink final : public core::RecordSink {
  public:
    explicit CheckSink(const std::vector<std::uint8_t>& expect) : expect_(&expect) {}

    void accept(std::uint64_t global_index, core::TargetRecord&& record) override {
        if (records == 0) first_record = Clock::now();
        ordered = ordered && global_index == records;
        ++records;
        if (global_index >= expect_->size()) {
            ++contradictions;
            return;
        }
        const std::uint8_t expect = (*expect_)[global_index];
        for (std::size_t p = 0; p < probe::kProtocolCount; ++p) {
            if (record.probes.responses_for(static_cast<probe::ProtoIndex>(p)) > 0 &&
                (expect & kProtocolBits[p]) == 0) {
                ++contradictions;
            }
        }
        if ((record.probes.snmp || record.snmp_vendor) && (expect & kSnmp) == 0) ++contradictions;
        if (record.responsive()) ++responsive;
        if (record.pass == 1) ++from_pass1;
        if (record.pass > 1) ++contradictions;
        if (core::RetrySink::incomplete(record)) ++incomplete;
    }

    void finish() override { finished = Clock::now(); }

    std::uint64_t records = 0;
    std::uint64_t contradictions = 0;
    std::uint64_t responsive = 0;
    std::uint64_t from_pass1 = 0;
    std::uint64_t incomplete = 0;
    bool ordered = true;
    Clock::time_point first_record{};
    Clock::time_point finished{};

  private:
    const std::vector<std::uint8_t>* expect_;
};

struct Inputs {
    std::vector<net::IPv4Address> targets;
    std::vector<std::uint8_t> expect;
    /// Targets whose persona answers at least one exchange.
    std::uint64_t answering = 0;
    /// Expected number of answering targets left silent by loss: each
    /// answering target goes silent only when every exchange it answers is
    /// lost in pass 0 (silent targets are not retried), and it answers at
    /// least 3 ICMP, 3 UDP, 1 SNMP and 1 TCP exchange when its persona
    /// speaks that protocol, so the sum of kLossRate^k is an upper bound.
    double expected_silenced = 0.0;
};

Inputs make_inputs(std::uint64_t seed, std::size_t count) {
    Inputs inputs;
    const sim::ScaleTransport world(world_config(seed));
    const std::uint32_t base = 0x0B000000u + (static_cast<std::uint32_t>(seed % 160) << 16);
    inputs.targets.reserve(count);
    inputs.expect.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        const net::IPv4Address target(base + static_cast<std::uint32_t>(i));
        const auto persona = world.persona_for(target);
        std::uint8_t bits = 0;
        if (persona.exists) {
            bits |= kExists;
            if (persona.responds_icmp) bits |= kIcmp;
            if (persona.responds_tcp) bits |= kTcp;
            if (persona.responds_udp) bits |= kUdp;
            if (persona.snmp_enabled) bits |= kSnmp;
        }
        if ((bits & (kIcmp | kTcp | kUdp | kSnmp)) != 0) {
            ++inputs.answering;
            const int exchanges = ((bits & kIcmp) ? 3 : 0) + ((bits & kUdp) ? 3 : 0) +
                                  ((bits & kSnmp) ? 1 : 0) + ((bits & kTcp) ? 1 : 0);
            inputs.expected_silenced += std::pow(kLossRate, exchanges);
        }
        inputs.targets.push_back(target);
        inputs.expect.push_back(bits);
    }
    return inputs;
}

struct Sweep {
    double seconds = 0.0;
    double probe_phase_s = 0.0;
    double emit_s = 0.0;
    std::vector<core::PassStats> stats;
    std::uint64_t strays = 0;
    std::vector<std::unique_ptr<sim::ScaleTransport>> worlds;
    std::vector<std::unique_ptr<TimedTransport>> timed;
    AllocCounts allocs;
};

Sweep run_sweep(RunContext& ctx, const CensusShape& shape, const Inputs& inputs, bool traced,
                bool capture) {
    Sweep sweep;
    auto& worlds = sweep.worlds;
    core::CensusPlan plan;
    plan.name = "perfbench-census";
    for (std::size_t lane = 0; lane < shape.lanes; ++lane) {
        worlds.push_back(std::make_unique<sim::ScaleTransport>(world_config(ctx.seed())));
        if (traced) {
            sweep.timed.push_back(std::make_unique<TimedTransport>(*worlds.back(), capture));
            plan.vantages.push_back(sweep.timed.back().get());
        } else {
            plan.vantages.push_back(worlds.back().get());
        }
    }
    plan.campaign.window = 256;
    plan.campaign.keep_request_bytes = false;
    plan.campaign.response_timeout = std::chrono::milliseconds(250);
    plan.passes = kPasses;
    plan.spill = shape.spill;
    plan.spill_config.directory = (ctx.temp_dir() / "spill").string();
    auto runner = std::make_unique<core::CensusRunner>(std::move(plan));

    CheckSink sink(inputs.expect);
    Tracer* tracer = traced ? ctx.tracer() : nullptr;
    const AllocCounts allocs_before = alloc_counts();
    const auto start = Clock::now();
    {
        Scope span(tracer, "core.stream_passes");
        runner->stream_passes(inputs.targets, {}, kPasses, sink);
    }
    const auto end = Clock::now();
    sweep.allocs = alloc_counts() - allocs_before;
    sweep.seconds = seconds_between(start, end);
    sweep.probe_phase_s = seconds_between(start, sink.first_record);
    sweep.emit_s = seconds_between(sink.first_record, sink.finished);
    if (tracer != nullptr) {
        const Tracer::Id parent = Scope::current();
        tracer->add("core.probe_phase", start, sink.first_record, parent);
        tracer->add("core.emit", sink.first_record, sink.finished, parent);
    }
    sweep.stats = runner->last_pass_stats();
    sweep.strays = runner->stray_responses();

    // ---- output checks ----------------------------------------------------
    const std::uint64_t n = inputs.targets.size();
    ctx.check(sink.records == n && sink.ordered,
              "census: " + std::to_string(sink.records) + " records, ordered=" +
                  std::to_string(sink.ordered) + ", expected a gap-free " + std::to_string(n));
    ctx.check(sink.contradictions == 0,
              "census: " + std::to_string(sink.contradictions) +
                  " records show an answer their persona does not give");
    const double silenced_bound =
        inputs.expected_silenced + 6.0 * std::sqrt(inputs.expected_silenced) + 3.0;
    ctx.check(sink.responsive <= inputs.answering &&
                  static_cast<double>(inputs.answering - sink.responsive) <= silenced_bound,
              "census: responsive " + std::to_string(sink.responsive) + " outside [" +
                  std::to_string(inputs.answering) + " - " + std::to_string(silenced_bound) +
                  ", " + std::to_string(inputs.answering) + "]");
    const auto& stats = sweep.stats;
    const bool accounting = stats.size() == kPasses && stats[0].probed == n &&
                            stats[1].probed == stats[0].incomplete &&
                            stats[1].upgraded == sink.from_pass1 &&
                            stats[1].incomplete == sink.incomplete;
    ctx.check(accounting, "census: pass accounting differs from the recount over the records");
    ctx.attempted(n);
    runner.reset();
    release_free_memory();
    return sweep;
}

/// Repeated sweeps over the same inputs; reports their middle-mean rate.
class CensusPart final : public Part {
  public:
    CensusPart(RunContext& ctx, const CensusShape& shape)
        : ctx_(&ctx), shape_(shape), inputs_(make_inputs(ctx.seed(), shape.targets)) {
        // Warm-up: one full sweep lets lazily built state (the stack
        // catalog, allocator arenas) settle before anything is timed, and
        // brings the process to the census's own memory peak.
        (void)run_sweep(*ctx_, shape_, inputs_, false, false);
    }

    void round() override {
        rates_.push_back(static_cast<double>(shape_.targets) /
                         run_sweep(*ctx_, shape_, inputs_, false, false).seconds);
    }

    void report() override { ctx_->metric("targets_per_s", middle_mean(rates_), "1/s"); }

  private:
    RunContext* ctx_;
    CensusShape shape_;
    Inputs inputs_;
    std::vector<double> rates_;
};

}  // namespace

std::unique_ptr<Part> census_part(RunContext& ctx, const CensusShape& shape) {
    return std::make_unique<CensusPart>(ctx, shape);
}

void trace_census_part(RunContext& ctx, const CensusShape& shape, const Budget& budget) {
    const Inputs inputs = make_inputs(ctx.seed(), shape.targets);
    const auto n = static_cast<double>(shape.targets);
    (void)run_sweep(ctx, shape, inputs, false, false);  // warm-up, as untraced

    // Traced: half the budget untraced, half traced, so the tracing
    // overhead is measured on the same inputs in the same process.
    const Budget half{budget.seconds / 2, budget.min_rounds};
    std::vector<double> plain_s;
    auto start = Clock::now();
    while (half.more(plain_s.size(), start)) {
        plain_s.push_back(run_sweep(ctx, shape, inputs, false, false).seconds);
    }
    std::vector<Sweep> sweeps;
    std::vector<double> traced_s;
    double responder_s = 0.0;
    start = Clock::now();
    while (half.more(sweeps.size(), start)) {
        Scope span(ctx.tracer(), "census.sweep");
        const bool capture = sweeps.empty();
        set_alloc_counting(true);
        Sweep sweep = run_sweep(ctx, shape, inputs, true, capture);
        set_alloc_counting(false);
        traced_s.push_back(sweep.seconds);
        if (capture) {
            Scope replay(ctx.tracer(), "sim.scale.replay");
            for (const auto& lane : sweep.timed) responder_s += replay_responder(*lane, ctx.seed());
        }
        sweeps.push_back(std::move(sweep));
    }

    std::vector<double> send_s, poll_s, probe_phase_s, emit_s;
    for (const Sweep& sweep : sweeps) {
        double send = 0.0, poll = 0.0;
        for (const auto& lane : sweep.timed) {
            send += lane->send_s;
            poll += lane->poll_s;
        }
        send_s.push_back(send);
        poll_s.push_back(poll);
        probe_phase_s.push_back(sweep.probe_phase_s);
        emit_s.push_back(sweep.emit_s);
    }
    // Counts come from the first traced sweep, the one whose packets were
    // replayed.
    const Sweep& first = sweeps.front();
    std::uint64_t packets = 0, polls = 0, empty = 0, responses = 0;
    for (const auto& lane : first.timed) {
        packets += lane->packets_sent;
        polls += lane->polls;
        empty += lane->empty_polls;
        responses += lane->responses;
    }
    const auto share = [](std::uint64_t part, std::uint64_t whole) {
        return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
    };
    ctx.metric("probe.send_s", send_s.front(), "s");
    ctx.metric("sim.scale.responder_s", responder_s, "s");
    ctx.metric("probe.handoff_s", send_s.front() - responder_s, "s");
    ctx.metric("probe.recv.poll_s", median(poll_s), "s");
    ctx.metric("probe.recv.polls", static_cast<double>(polls), "count");
    ctx.metric("probe.recv.empty_poll_share", share(empty, polls), "ratio");
    ctx.metric("probe.packets_per_target", static_cast<double>(packets) / n, "count");
    ctx.metric("probe.response_share", share(responses, packets), "ratio");
    ctx.metric("probe.strays", static_cast<double>(first.strays), "count");
    ctx.metric("core.probe_phase_s", median(probe_phase_s), "s");
    ctx.metric("core.emit_s", median(emit_s), "s");
    const core::PassStats pass1 = first.stats.size() > 1 ? first.stats[1] : core::PassStats{};
    ctx.metric("core.pass1.probed", static_cast<double>(pass1.probed), "count");
    ctx.metric("core.pass1.upgraded", static_cast<double>(pass1.upgraded), "count");
    ctx.metric("core.retry_yield", share(pass1.upgraded, pass1.probed), "ratio");
    ctx.metric("alloc.per_target", static_cast<double>(first.allocs.total()) / n, "count");
    for (std::size_t i = 0; i < kAllocBuckets; ++i) {
        const std::string stage = i < kAllocStages.size() ? kAllocStages[i] : "untagged";
        ctx.metric("alloc.per_target." + stage, static_cast<double>(first.allocs.by_stage[i]) / n,
                   "count");
    }
    ctx.metric("trace.overhead.census", median(traced_s) / median(plain_s) - 1.0, "ratio");
}

}  // namespace perfbench
