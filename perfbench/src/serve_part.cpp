// The serve part: a CensusService over a ScaleTransport world answers
// framed socket queries in a closed loop — each client sends its next
// VENDOR or PATH query only once the previous reply has arrived — while
// run_census_now republishes on the main thread. Each client connection
// is served by its own serve_connection thread over a socketpair.
//
// Checks: every reply matches the verdict of a batch pipeline run
// in-process (measure_passes -> build_database -> classify) on a fresh
// ScaleTransport with the same seed, and names a version that was actually
// published. The target count is a multiple of 2^16 / 10 IPIDs per target,
// so every census the service runs stamps the same IPIDs (mod 2^16) as the
// reference's; the world's loss draws are keyed on the request IPID, so
// every published version must answer exactly like the reference.
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <random>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/census.hpp"
#include "parts.hpp"
#include "serve/query.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/scale_world.hpp"

namespace perfbench {
namespace {

using namespace lfp;

constexpr std::size_t kPathHops = 4;
/// One query in kPathEvery is a PATH query, the rest VENDOR lookups.
constexpr std::uint64_t kPathEvery = 4;

sim::ScaleWorldConfig world_config(std::uint64_t seed) {
    return {.seed = seed ^ 0x5E7E, .responsive_fraction = 0.65, .loss_rate = 0.02};
}

core::CensusPlan census_plan(const std::vector<net::IPv4Address>& targets,
                             probe::ProbeTransport& transport) {
    core::CensusPlan plan;
    plan.name = "perfbench-serve";
    plan.targets = targets;
    plan.vantages = {&transport};
    plan.campaign.window = 64;
    plan.campaign.keep_request_bytes = false;
    plan.passes = 2;
    return plan;
}

/// What the batch pipeline says about one target, as the wire renders it.
struct Expected {
    std::string snmp;
    std::string lfp;
    std::string kind;
    std::string combined;  ///< SNMP label, else the LFP verdict, else "-"
};

std::string_view field(std::string_view reply, std::string_view key) {
    const std::size_t at = reply.find(key);
    if (at == std::string_view::npos) return {};
    const std::size_t begin = at + key.size();
    const std::size_t end = reply.find(' ', begin);
    return reply.substr(begin, end == std::string_view::npos ? end : end - begin);
}

/// Everything a round of queries shares: the target list, the reference
/// verdicts, and the service.
class ServeFixture {
  public:
    ServeFixture(std::uint64_t seed, std::size_t count)
        : seed_(seed), world_(world_config(seed)) {
        base_ = 0x0C000000u + (static_cast<std::uint32_t>(seed % 160) << 16);
        targets_.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            targets_.push_back(net::IPv4Address(base_ + static_cast<std::uint32_t>(i)));
        }
        build_reference();
        serve::ServiceConfig config;
        config.name = "perfbench-serve";
        config.run_immediately = false;
        service_ = std::make_unique<serve::CensusService>(census_plan(targets_, world_), config);
        engine_ = std::make_unique<serve::QueryEngine>(service_->store());
    }

    [[nodiscard]] serve::CensusService& service() { return *service_; }
    [[nodiscard]] const serve::QueryEngine& engine() const { return *engine_; }
    [[nodiscard]] std::uint64_t seed() const { return seed_; }

    /// Runs one census and records its version as published.
    double publish() {
        const auto start = Clock::now();
        const std::uint64_t version = service_->run_census_now();
        const double seconds = seconds_since(start);
        std::lock_guard<std::mutex> lock(mutex_);
        published_.insert(version);
        return seconds;
    }

    [[nodiscard]] bool was_published(std::uint64_t version) const {
        std::lock_guard<std::mutex> lock(mutex_);
        return published_.count(version) != 0;
    }

    /// The i-th query of a client's deterministic query stream.
    [[nodiscard]] std::string query(std::mt19937_64& rng, std::uint64_t sequence) const {
        std::string request = sequence % kPathEvery == kPathEvery - 1 ? "PATH" : "VENDOR";
        const std::size_t hops = request == "PATH" ? kPathHops : 1;
        for (std::size_t h = 0; h < hops; ++h) {
            request += ' ';
            request += targets_[rng() % targets_.size()].to_string();
        }
        return request;
    }

    /// Checks one reply against the reference; returns its version (0 when
    /// the reply is malformed or wrong).
    [[nodiscard]] std::uint64_t verify(std::string_view request, std::string_view reply) const {
        if (!reply.starts_with("OK ")) return 0;
        const std::uint64_t version = std::strtoull(field(reply, "version=").data(), nullptr, 10);
        if (request.starts_with("VENDOR ")) {
            const Expected* expected = lookup(request.substr(7));
            if (expected == nullptr || field(reply, " known=") != "1" ||
                field(reply, " snmp=") != expected->snmp ||
                field(reply, " lfp=") != expected->lfp ||
                field(reply, " kind=") != expected->kind) {
                return 0;
            }
            return version;
        }
        // PATH a b c d -> "... | a=X b=Y c=Z d=W"
        const std::size_t bar = reply.find(" | ");
        if (bar == std::string_view::npos) return 0;
        std::string_view hops = reply.substr(bar + 3);
        std::string_view operands = request.substr(5);
        while (!operands.empty()) {
            const std::size_t op_end = operands.find(' ');
            const std::string_view address = operands.substr(0, op_end);
            const std::size_t hop_end = hops.find(' ');
            const std::string_view hop = hops.substr(0, hop_end);
            const Expected* expected = lookup(address);
            if (expected == nullptr || !hop.starts_with(address) || hop.size() <= address.size() ||
                hop.substr(address.size() + 1) != expected->combined) {
                return 0;
            }
            operands = op_end == std::string_view::npos ? std::string_view{}
                                                        : operands.substr(op_end + 1);
            hops = hop_end == std::string_view::npos ? std::string_view{} : hops.substr(hop_end + 1);
        }
        return version;
    }

  private:
    void build_reference() {
        sim::ScaleTransport fresh(world_config(seed_));
        core::CensusRunner runner(census_plan(targets_, fresh));
        core::Measurement measurement = runner.measure_passes("reference", targets_);
        const core::SignatureDatabase database =
            runner.build_database(std::span<const core::Measurement>(&measurement, 1));
        runner.classify(measurement, database);
        expected_.reserve(measurement.records.size());
        for (const core::TargetRecord& record : measurement.records) {
            Expected expected;
            expected.snmp = record.snmp_vendor ? stack::to_string(*record.snmp_vendor) : "-";
            expected.lfp = record.lfp.vendor ? stack::to_string(*record.lfp.vendor) : "-";
            expected.kind = core::to_string(record.lfp.kind);
            expected.combined = record.snmp_vendor ? expected.snmp : expected.lfp;
            expected_.push_back(std::move(expected));
        }
    }

    [[nodiscard]] const Expected* lookup(std::string_view text) const {
        const auto address = net::IPv4Address::parse(text);
        if (!address) return nullptr;
        const std::uint32_t offset = address.value().value() - base_;
        return offset < expected_.size() ? &expected_[offset] : nullptr;
    }

    std::uint64_t seed_;
    std::uint32_t base_ = 0;
    sim::ScaleTransport world_;
    std::vector<net::IPv4Address> targets_;
    std::vector<Expected> expected_;
    std::unique_ptr<serve::CensusService> service_;
    std::unique_ptr<serve::QueryEngine> engine_;
    mutable std::mutex mutex_;
    std::set<std::uint64_t> published_;
};

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
    cpu_set_t allowed;
    std::vector<int> cpus;
    if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
    return cpus;
}

/// Keeps the calling thread on `cpus` while it lives, then gives it back
/// the CPUs it had. Threads the calling thread starts meanwhile inherit
/// the restriction.
class CpuPin {
  public:
    explicit CpuPin(std::span<const int> cpus) {
        if (cpus.empty() || ::pthread_getaffinity_np(::pthread_self(), sizeof saved_, &saved_) != 0) {
            return;
        }
        cpu_set_t set;
        CPU_ZERO(&set);
        for (const int cpu : cpus) CPU_SET(cpu, &set);
        pinned_ = ::pthread_setaffinity_np(::pthread_self(), sizeof set, &set) == 0;
    }
    ~CpuPin() {
        if (pinned_) (void)::pthread_setaffinity_np(::pthread_self(), sizeof saved_, &saved_);
    }
    CpuPin(const CpuPin&) = delete;
    CpuPin& operator=(const CpuPin&) = delete;

  private:
    cpu_set_t saved_{};
    bool pinned_ = false;
};

struct ClientTally {
    std::vector<double> latency_us;
    std::map<std::uint64_t, std::uint64_t> versions;
    std::uint64_t queries = 0;
    std::uint64_t wrong = 0;
    std::uint64_t io_errors = 0;
};

struct LoopResult {
    double seconds = 0.0;       ///< from the clients' start to their stop
    double publish_s = 0.0;     ///< the census run meanwhile (0 when idle)
    std::vector<ClientTally> clients;
};

/// One closed-loop round: `clients` socket connections, each served by its
/// own serve_connection thread, query until the main thread's census has
/// published (or, idle, until `idle_seconds` have passed).
LoopResult query_loop(ServeFixture& fixture, std::size_t clients, bool with_census,
                      double idle_seconds, Tracer* tracer, std::uint64_t round) {
    LoopResult result;
    result.clients.resize(clients);
    std::vector<int> client_fds(clients, -1), server_fds(clients, -1);
    for (std::size_t c = 0; c < clients; ++c) {
        int pair[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
            throw std::runtime_error("socketpair failed");
        }
        client_fds[c] = pair[0];
        server_fds[c] = pair[1];
    }
    // When there are CPUs enough, each client and the connection thread
    // serving it get a CPU each, and the census runs on the rest, at least
    // two; otherwise nothing is pinned. Left to the scheduler, a census
    // thread now and then shared a CPU with a client, and a round's median
    // latency jumped by half. Client and server stay on different CPUs, as
    // they would be in a deployment: on a shared 4-vCPU virtual machine a
    // same-CPU socket ping-pong switched between a 5 us and an 8 us mode
    // every few seconds, and sharing a CPU spread the rounds' median
    // latency three times as wide; a cross-CPU ping-pong held at 11-14 us.
    const std::vector<int> cpus = allowed_cpus();
    const bool partition = cpus.size() >= 2 * clients + 2;
    const auto cpu_of = [&](std::size_t slot) {
        return std::span<const int>(cpus).subspan(partition ? slot : 0, partition ? 1 : 0);
    };
    const Tracer::Id parent = Scope::current();
    std::atomic<bool> stop{false};
    std::atomic<std::size_t> started{0};
    std::vector<std::thread> servers, workers;
    for (std::size_t c = 0; c < clients; ++c) {
        servers.emplace_back([&fixture, fd = server_fds[c], pin = cpu_of(2 * c + 1)] {
            const CpuPin pinned(pin);
            (void)serve::serve_connection(fd, fixture.service(), fixture.engine());
        });
    }
    for (std::size_t c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
            const CpuPin pinned(cpu_of(2 * c));
            ClientTally& tally = result.clients[c];
            std::mt19937_64 rng(fixture.seed() * 7919 + round * 131 + c);
            bool counted = false;
            const auto mark_started = [&] {
                if (!counted) started.fetch_add(1);
                counted = true;
            };
            while (!stop.load(std::memory_order_relaxed)) {
                const std::string request = fixture.query(rng, tally.queries);
                const auto t0 = Clock::now();
                const bool sent = serve::write_frame(client_fds[c], request);
                const auto reply = sent ? serve::read_frame(client_fds[c]) : std::nullopt;
                const auto t1 = Clock::now();
                if (!reply) {
                    ++tally.io_errors;
                    break;
                }
                if (tracer != nullptr) tracer->add("serve.query", t0, t1, parent);
                ++tally.queries;
                tally.latency_us.push_back(seconds_between(t0, t1) * 1e6);
                const std::uint64_t version = fixture.verify(request, *reply);
                if (version == 0) ++tally.wrong;
                ++tally.versions[version];
                mark_started();
            }
            mark_started();  // a client that failed before its first reply
        });
    }
    while (started.load() < clients) std::this_thread::yield();
    const auto start = Clock::now();
    if (with_census) {
        const CpuPin census_cpus(
            std::span<const int>(cpus).subspan(partition ? 2 * clients : cpus.size()));
        result.publish_s = fixture.publish();
    } else {
        std::this_thread::sleep_for(std::chrono::duration<double>(idle_seconds));
    }
    stop.store(true);
    for (std::thread& worker : workers) worker.join();
    result.seconds = seconds_since(start);
    for (const int fd : client_fds) ::close(fd);  // EOF ends each serve_connection
    for (std::thread& server : servers) server.join();
    for (const int fd : server_fds) ::close(fd);
    return result;
}

/// Folds a round's tallies into the run's checks and counters.
void account(RunContext& ctx, const ServeFixture& fixture, const LoopResult& result,
             std::vector<double>& latency_us, std::uint64_t& queries) {
    for (const ClientTally& tally : result.clients) {
        ctx.check(tally.wrong == 0, "serve: " + std::to_string(tally.wrong) + " of " +
                                        std::to_string(tally.queries) +
                                        " replies differ from the batch pipeline's verdicts");
        for (const auto& [version, count] : tally.versions) {
            ctx.check(version == 0 || fixture.was_published(version),
                      "serve: " + std::to_string(count) + " replies name version " +
                          std::to_string(version) + ", which was never published");
        }
        ctx.attempted(tally.queries + tally.io_errors);
        ctx.failed(tally.io_errors);
        latency_us.insert(latency_us.end(), tally.latency_us.begin(), tally.latency_us.end());
        queries += tally.queries;
    }
}

/// One query round per census published under load; reports the middle
/// mean of the rounds' query rates and 99th percentiles, and the fastest
/// round's median latency and publish time.
class ServePart final : public Part {
  public:
    ServePart(RunContext& ctx, const ServeShape& shape)
        : ctx_(&ctx), shape_(shape), fixture_(ctx.seed(), shape.targets) {
        (void)fixture_.publish();  // the first version: something to serve
        release_free_memory();
    }

    void round() override {
        const LoopResult result = query_loop(fixture_, shape_.clients, true, 0.0, nullptr, round_++);
        std::vector<double> latency_us;
        std::uint64_t queries = 0;
        account(*ctx_, fixture_, result, latency_us, queries);
        publish_s_.push_back(result.publish_s);
        rates_.push_back(static_cast<double>(queries) / result.seconds);
        p50_us_.push_back(percentile(latency_us, 0.50));
        p99_us_.push_back(percentile(latency_us, 0.99));
        release_free_memory();
    }

    void report() override {
        // Latency percentiles per round, then across the rounds.
        ctx_->metric("query_rate", middle_mean(rates_), "1/s");
        ctx_->metric("query_p50_us", fastest(p50_us_), "us");
        ctx_->metric("query_p99_us", middle_mean(p99_us_), "us");
        ctx_->metric("publish_s", fastest(publish_s_), "s");
    }

  private:
    RunContext* ctx_;
    ServeShape shape_;
    ServeFixture fixture_;
    std::uint64_t round_ = 0;
    std::vector<double> publish_s_, rates_, p50_us_, p99_us_;
};

}  // namespace

std::unique_ptr<Part> serve_part(RunContext& ctx, const ServeShape& shape) {
    return std::make_unique<ServePart>(ctx, shape);
}

void trace_serve_part(RunContext& ctx, const ServeShape& shape, const Budget& budget) {
    ServeFixture fixture(ctx.seed(), shape.targets);
    (void)fixture.publish();  // the first version: something to serve
    release_free_memory();
    std::vector<double> latency_us;
    std::uint64_t queries = 0;
    std::uint64_t round = 0;

    // Traced: a quarter of the budget each for untraced loaded rounds,
    // traced loaded rounds (a span per query), the idle query loop plus the
    // idle publish, and the in-process request handler.
    Tracer* tracer = ctx.tracer();
    const Budget quarter{budget.seconds / 4, 1};
    std::vector<double> plain_rates, traced_rates;
    for (const bool traced : {false, true}) {
        auto& rates = traced ? traced_rates : plain_rates;
        const auto start = Clock::now();
        while (quarter.more(rates.size(), start)) {
            Scope span(traced ? tracer : nullptr, "serve.round");
            const LoopResult result =
                query_loop(fixture, shape.clients, true, 0.0, traced ? tracer : nullptr, round++);
            account(ctx, fixture, result, latency_us, queries);
            std::uint64_t round_queries = 0;
            for (const ClientTally& tally : result.clients) round_queries += tally.queries;
            rates.push_back(static_cast<double>(round_queries) / result.seconds);
        }
    }

    double idle_rate = 0.0;
    {
        Scope span(tracer, "serve.idle_queries");
        const LoopResult result = query_loop(fixture, shape.clients, false,
                                             std::max(quarter.seconds / 2, 0.5), nullptr, round++);
        const std::uint64_t before = queries;
        account(ctx, fixture, result, latency_us, queries);
        idle_rate = static_cast<double>(queries - before) / result.seconds;
    }
    std::vector<double> idle_publish_s;
    const auto publish_start = Clock::now();
    while (Budget{quarter.seconds / 2, 1}.more(idle_publish_s.size(), publish_start)) {
        Scope span(tracer, "serve.idle_publish");
        idle_publish_s.push_back(fixture.publish());
    }

    // In-process request handling, no socket, over the clients' query mix.
    std::vector<double> vendor_us, path_us;
    {
        Scope span(tracer, "serve.handle_request");
        std::mt19937_64 rng(ctx.seed() * 104729);
        const auto start = Clock::now();
        for (std::uint64_t sequence = 0;
             sequence < 4 * kPathEvery || seconds_since(start) < quarter.seconds; ++sequence) {
            const std::string request = fixture.query(rng, sequence);
            const auto t0 = Clock::now();
            const serve::RequestOutcome outcome =
                serve::handle_request(request, fixture.service(), fixture.engine());
            const double us = seconds_since(t0) * 1e6;
            (request.starts_with("PATH") ? path_us : vendor_us).push_back(us);
            const std::uint64_t version = fixture.verify(request, outcome.response);
            ctx.check(version != 0 && fixture.was_published(version),
                      "serve: in-process reply to '" + request + "' is wrong: " + outcome.response);
            ctx.attempted(1);
        }
    }
    ctx.metric("serve.handle_request_us.vendor", median(vendor_us), "us");
    ctx.metric("serve.handle_request_us.path", median(path_us), "us");
    ctx.metric("serve.query_rate_idle", idle_rate, "1/s");
    ctx.metric("serve.publish_idle_s", median(idle_publish_s), "s");
    ctx.metric("trace.overhead.serve", median(plain_rates) / median(traced_rates) - 1.0, "ratio");
}

}  // namespace perfbench
