// The pipeline part: the paper's Figure-1 pipeline on the stateful
// fidelity sim (ExperimentWorld::create: topology, six datasets, their
// campaigns, the signature database, classification), then the §6.3
// informed-routing case study and a PathCensus over the same world.
//
// A traced round composes the public steps create() runs, so each can be
// timed, and checks that the composed world exports byte-identical CSV and
// signature database to create()'s.
//
// Checks, per round, against the topology's ground truth
// (Topology::find_by_interface):
//   - every SNMPv3 label names the router's actual vendor;
//   - unique-full verdicts are right at least as often as the admission
//     rule leads one to expect (see accuracy_floor);
//   - the per-vendor totals of the AS and regional analyses add up to the
//     identified count taken directly from the records;
//   - the path census's accuracy and coverage, recomputed from the
//     topology, stay within their bounds, and its hop accounting is
//     conserved.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/as_analysis.hpp"
#include "analysis/experiment_world.hpp"
#include "analysis/informed_routing.hpp"
#include "analysis/path_analysis.hpp"
#include "analysis/path_census.hpp"
#include "io/csv_export.hpp"
#include "io/signature_store.hpp"
#include "parts.hpp"
#include "timed_transport.hpp"

namespace perfbench {
namespace {

using namespace lfp;

/// The least share of `verdicts` LFP verdicts that must name the router's
/// actual vendor. A signature is admitted only with at least
/// `min_occurrences` (m) SNMP labels, and it yields unique verdicts only
/// when all of them name one vendor. If routers of other vendors make up a
/// share q of the routers carrying it, all m labels agree with probability
/// (1-q)^m; with no prior knowledge of q (uniform), the expected q given m
/// agreeing labels is 1/(m+2). The floor is that expected accuracy less
/// three binomial standard deviations for the number of verdicts checked.
double accuracy_floor(std::size_t min_occurrences, std::uint64_t verdicts) {
    const double error = 1.0 / (static_cast<double>(min_occurrences) + 2.0);
    const double n = static_cast<double>(std::max<std::uint64_t>(verdicts, 1));
    return 1.0 - error - 3.0 * std::sqrt(error * (1.0 - error) / n);
}

/// The pipeline's inputs do not depend on --seed. The world is the one
/// every bench builds by default (WorldConfig's seed) at the shape's size:
/// its cost depends on the topology it draws, so a seeded topology would
/// make the seeds, not the code, set the figures. Defaults, not from_env:
/// the environment must not change what the benchmark measures.
analysis::WorldConfig world_config(const PipelineShape& shape) {
    analysis::WorldConfig config;
    config.num_ases = shape.ases;
    config.scale = shape.scale;
    config.traces_per_snapshot = shape.traces;
    return config;
}

/// What the analyses read from a built world, whichever way it was built.
struct WorldView {
    sim::Topology* topology;
    sim::Internet* internet;
    const std::vector<sim::TracerouteDataset>* ripe;
    const sim::ItdkDataset* itdk;
    const std::vector<core::Measurement>* measurements;
    const core::SignatureDatabase* database;
};

WorldView view_of(analysis::ExperimentWorld& world) {
    return {&world.topology(),     &world.internet(),     &world.ripe(),
            &world.itdk(),         &world.measurements(), &world.database()};
}

template <typename Fn>
auto in_span(Tracer* tracer, const char* name, Fn&& fn) {
    Scope span(tracer, name);
    return fn();
}

/// The steps ExperimentWorld::create runs for a single-vantage, unfaulted
/// world, composed from their public pieces so each one can be timed. The
/// vantage transport is wrapped in a TimedTransport to time the simulated
/// Internet's send path.
class ComposedWorld {
  public:
    ComposedWorld(const analysis::WorldConfig& config, Tracer* tracer)
        : topology_(in_span(tracer, "sim.topology.build",
                            [&] {
                                return sim::Topology::build({.seed = config.seed,
                                                             .num_ases = config.num_ases,
                                                             .tier1_count = 12,
                                                             .transit_fraction = 0.18,
                                                             .scale = config.scale});
                            })),
          internet_(topology_, {.seed = config.seed ^ 0xF00D, .loss_rate = 0.004}),
          transport_(internet_),
          timed_(transport_) {
        {
            Scope span(tracer, "sim.datasets.build");
            sim::DatasetConfig dataset_config;
            dataset_config.seed = config.seed ^ 0xDA7A;
            dataset_config.traces_per_snapshot = config.traces_per_snapshot;
            sim::DatasetBuilder builder(topology_, dataset_config);
            ripe_ = builder.ripe_snapshots();
            itdk_ = builder.itdk();
        }

        core::CensusPlan plan;
        plan.vantages = {&timed_};
        plan.campaign.window = config.window;
        plan.campaign.adaptive_window = config.adaptive_window;
        plan.campaign.packets_per_second = config.packets_per_second;
        plan.worker_threads = config.worker_threads;
        plan.passes = config.passes;
        core::CensusRunner runner(std::move(plan));
        core::SignatureDatabase database(
            core::SignatureDbConfig{.min_occurrences = config.signature_min_occurrences});
        {
            Scope span(tracer, "core.census");
            const auto stream_dataset = [&](const std::string& name,
                                            const std::vector<net::IPv4Address>& targets) {
                core::CollectingSink collect(name);
                collect.reserve(targets.size());
                core::SignatureAbsorbSink absorb(database, &collect);
                runner.stream_passes(targets, {}, config.passes, absorb);
                measurements_.push_back(collect.take());
            };
            for (const sim::TracerouteDataset& snapshot : ripe_) {
                stream_dataset(snapshot.name, snapshot.router_ips());
            }
            stream_dataset(itdk_.name, itdk_.router_ips());
        }
        {
            Scope span(tracer, "core.db.finalize");
            database.finalize();
            database_ = std::move(database);
        }
        {
            Scope span(tracer, "core.classify");
            for (core::Measurement& measurement : measurements_) {
                runner.classify(measurement, database_);
            }
        }
    }

    ComposedWorld(const ComposedWorld&) = delete;
    ComposedWorld& operator=(const ComposedWorld&) = delete;

    [[nodiscard]] WorldView view() {
        return {&topology_, &internet_, &ripe_, &itdk_, &measurements_, &database_};
    }
    [[nodiscard]] double internet_send_s() const { return timed_.send_s; }

  private:
    sim::Topology topology_;
    sim::Internet internet_;
    probe::SimTransport transport_;
    TimedTransport timed_;
    std::vector<sim::TracerouteDataset> ripe_;
    sim::ItdkDataset itdk_;
    std::vector<core::Measurement> measurements_;
    core::SignatureDatabase database_;
};

/// The artifacts create() would export: every measurement as CSV, then the
/// signature database.
std::string export_world(const WorldView& world) {
    std::ostringstream out;
    for (const core::Measurement& measurement : *world.measurements) {
        io::export_measurement_csv(out, measurement);
    }
    io::save_signatures(out, *world.database);
    return out.str();
}

struct CaseStudy {
    std::vector<analysis::RouterVerdict> verdicts;
    std::vector<analysis::AsCoverage> coverage;
    std::vector<analysis::HomogeneousAs> candidates;
    std::vector<analysis::TransitCaseStudy> studies;
};

/// §6.3 as bench_case_informed_routing runs it: router verdicts over the
/// ITDK alias sets, vendor-homogeneous transit ASes, and up to six of them
/// evaluated for vendor-avoiding alternative paths.
CaseStudy run_case_study(const WorldView& world, const PipelineShape& shape, Tracer* tracer) {
    CaseStudy out;
    const core::Measurement& itdk = world.measurements->back();
    const auto snmp_map =
        analysis::VendorMap::from_measurement(itdk, analysis::VendorMap::Method::snmpv3);
    const auto lfp_map =
        analysis::VendorMap::from_measurement(itdk, analysis::VendorMap::Method::lfp);
    out.verdicts = analysis::map_routers(*world.itdk, *world.topology, snmp_map, lfp_map);
    out.coverage = analysis::per_as_coverage(out.verdicts);
    out.candidates = analysis::find_homogeneous_ases(out.coverage, shape.case_study_min_routers, 0.85);
    std::erase_if(out.candidates, [&world](const analysis::HomogeneousAs& as) {
        return world.topology->graph().node(as.asn).customers.empty();
    });
    if (out.candidates.size() > 6) out.candidates.resize(6);
    const analysis::InformedRoutingAnalysis engine(*world.topology,
                                                   {.sources_per_destination = 64, .seed = 1771});
    for (const analysis::HomogeneousAs& candidate : out.candidates) {
        Scope span(tracer, "analysis.informed_routing.evaluate");
        out.studies.push_back(engine.evaluate(candidate));
    }
    return out;
}

struct PathRun {
    core::PathTargets targets;
    analysis::VendorMap vendors;
};

/// The sweep keeps PathCensusConfig's default seed for the same reason as
/// the world: the hop count it discovers sets the census's cost. So does
/// the case study (InformedRoutingAnalysis seed 1771, as its bench uses).
analysis::PathCensusConfig path_config(const PipelineShape& shape) {
    analysis::PathCensusConfig config;
    config.sources = 8;
    config.destinations = shape.path_destinations;
    return config;
}

/// A PathCensus over the world, classified against the world's database.
/// Traced, it runs PathCensus::run's steps one by one to time discovery
/// apart from probing.
PathRun run_path_census(const WorldView& world, const analysis::PathCensusConfig& config,
                        Tracer* tracer) {
    probe::SimTransport transport(*world.internet);
    core::CensusPlan plan;
    plan.name = "perfbench-paths";
    plan.vantages = {&transport};
    plan.campaign.window = 16;
    plan.passes = 2;
    core::CensusRunner runner(std::move(plan));
    const analysis::PathCensus census(*world.topology, config);
    if (tracer == nullptr) {
        analysis::PathCensusResult result = census.run(runner, world.database);
        return {std::move(result.targets), std::move(result.vendors)};
    }
    const analysis::PathDiscovery discovery =
        in_span(tracer, "analysis.path_census.discover", [&] { return census.discover(); });
    core::Measurement measurement = in_span(tracer, "analysis.path_census.probe", [&] {
        return runner.measure_paths("path-census", discovery.hop_lists(), discovery.trace_source);
    });
    {
        Scope span(tracer, "analysis.path_census.classify");
        runner.classify(measurement, *world.database);
    }
    return {runner.last_path_targets(),
            analysis::VendorMap::from_measurement(measurement, config.method)};
}

std::optional<stack::Vendor> truth_of(const sim::Topology& topology, net::IPv4Address address) {
    const std::size_t index = topology.find_by_interface(address);
    if (index == sim::Topology::npos) return std::nullopt;
    return topology.router(index).vendor();
}

bool is_unique(core::MatchKind kind) {
    return kind == core::MatchKind::unique_full || kind == core::MatchKind::unique_partial;
}

void check_world(RunContext& ctx, const WorldView& world, const CaseStudy& study,
                 std::size_t min_occurrences) {
    const sim::Topology& topology = *world.topology;
    std::uint64_t snmp_labels = 0, snmp_wrong = 0, unique_full = 0, unique_full_right = 0;
    for (const core::Measurement& measurement : *world.measurements) {
        for (const core::TargetRecord& record : measurement.records) {
            const auto truth = truth_of(topology, record.probes.target);
            if (record.snmp_vendor) {
                ++snmp_labels;
                if (!truth || *truth != *record.snmp_vendor) ++snmp_wrong;
            }
            if (record.lfp.kind == core::MatchKind::unique_full) {
                ++unique_full;
                if (truth && record.lfp.vendor == truth) ++unique_full_right;
            }
        }
    }
    ctx.check(snmp_labels > 0 && snmp_wrong == 0,
              "pipeline: " + std::to_string(snmp_wrong) + " of " + std::to_string(snmp_labels) +
                  " SNMPv3 labels differ from the topology's vendor");
    const double accuracy =
        unique_full == 0 ? 0.0
                         : static_cast<double>(unique_full_right) / static_cast<double>(unique_full);
    const double floor = accuracy_floor(min_occurrences, unique_full);
    ctx.check(unique_full > 0 && accuracy >= floor,
              "pipeline: unique-full accuracy " + std::to_string(accuracy) + " over " +
                  std::to_string(unique_full) + " verdicts is below " + std::to_string(floor));

    // Identified routers per vendor, straight from the ITDK records: an
    // alias set is identified when any interface carries an SNMP label or
    // a unique LFP verdict, SNMP first, the lowest vendor among several.
    std::unordered_map<net::IPv4Address, const core::TargetRecord*> by_address;
    for (const core::TargetRecord& record : world.measurements->back().records) {
        by_address.emplace(record.probes.target, &record);
    }
    std::map<stack::Vendor, std::size_t> expected, expected_with_geo;
    for (const sim::AliasSet& alias_set : world.itdk->alias_sets) {
        std::set<stack::Vendor> snmp, lfp;
        for (const net::IPv4Address address : alias_set.addresses) {
            const auto it = by_address.find(address);
            if (it == by_address.end()) continue;
            const core::TargetRecord& record = *it->second;
            if (record.snmp_vendor) snmp.insert(*record.snmp_vendor);
            if (is_unique(record.lfp.kind) && record.lfp.vendor) lfp.insert(*record.lfp.vendor);
        }
        if (snmp.empty() && lfp.empty()) continue;
        const stack::Vendor vendor = snmp.empty() ? *lfp.begin() : *snmp.begin();
        ++expected[vendor];
        if (topology.geo().lookup(topology.asn_of(alias_set.router_index)) != nullptr) {
            ++expected_with_geo[vendor];
        }
    }
    std::map<stack::Vendor, std::size_t> per_as, regional;
    std::size_t identified = 0, expected_total = 0;
    for (const analysis::AsCoverage& entry : study.coverage) {
        identified += entry.routers_identified;
        for (const auto& [vendor, count] : entry.vendor_counts) per_as[vendor] += count;
    }
    for (const auto& [vendor, count] : expected) expected_total += count;
    for (const auto& [continent, counts] : analysis::regional_distribution(study.verdicts, topology)) {
        for (const auto& [vendor, count] : counts) regional[vendor] += count;
    }
    ctx.check(per_as == expected && identified == expected_total && regional == expected_with_geo,
              "pipeline: per-vendor totals of the AS/regional analyses differ from the records (" +
                  std::to_string(identified) + " identified vs " +
                  std::to_string(expected_total) + ")");
    for (const analysis::TransitCaseStudy& case_study : study.studies) {
        ctx.check(case_study.with_alternative + case_study.without_alternative ==
                      case_study.destinations,
                  "pipeline: case study of AS" + std::to_string(case_study.transit_asn) +
                      " splits its destinations inconsistently");
    }
    ctx.check(!study.studies.empty(), "pipeline: the case study found no candidate AS");
}

void check_paths(RunContext& ctx, const sim::Topology& topology, const PathRun& paths,
                 std::size_t min_occurrences) {
    const core::PathTargets& targets = paths.targets;
    ctx.check(targets.hops_listed ==
                  targets.unroutable_dropped + targets.duplicates_collapsed + targets.targets.size(),
              "path census: hop accounting not conserved");
    std::size_t truth_known = 0, measured_known = 0, both = 0, matches = 0;
    for (const net::IPv4Address address : targets.targets) {
        const auto truth = truth_of(topology, address);
        const auto measured = paths.vendors.lookup(address);
        if (truth) ++truth_known;
        if (measured) ++measured_known;
        if (truth && measured) {
            ++both;
            if (*truth == *measured) ++matches;
        }
    }
    const double accuracy =
        both == 0 ? 0.0 : static_cast<double>(matches) / static_cast<double>(both);
    // SNMP labels are exact (checked above for the world), so the LFP
    // verdicts among these hops are held to the same floor.
    const double floor = accuracy_floor(min_occurrences, both);
    ctx.check(both > 0 && accuracy >= floor,
              "path census: accuracy " + std::to_string(accuracy) + " over " +
                  std::to_string(both) + " hops is below " + std::to_string(floor));
    ctx.check(measured_known > 0 && measured_known == both && measured_known <= truth_known,
              "path census: measured map names " + std::to_string(measured_known) +
                  " hops, " + std::to_string(measured_known - both) +
                  " of them unknown to the topology");
}

/// Builds the world, runs the case study and the path census once per
/// round; reports the middle mean of the build and path-census times and
/// the fastest case study.
class PipelinePart final : public Part {
  public:
    PipelinePart(RunContext& ctx, const PipelineShape& shape)
        : ctx_(&ctx), shape_(shape), config_(world_config(shape)), paths_config_(path_config(shape)) {
        // Warm-up: one world build lets lazily built state settle.
        (void)analysis::ExperimentWorld::create(config_);
        release_free_memory();
    }

    void round() override {
        const auto t0 = Clock::now();
        auto world = analysis::ExperimentWorld::create(config_);
        const auto t1 = Clock::now();
        const WorldView view = view_of(*world);
        const CaseStudy study = run_case_study(view, shape_, nullptr);
        const auto t2 = Clock::now();
        const PathRun paths = run_path_census(view, paths_config_, nullptr);
        const auto t3 = Clock::now();
        build_s_.push_back(seconds_between(t0, t1));
        case_s_.push_back(seconds_between(t1, t2));
        path_s_.push_back(seconds_between(t2, t3));
        check_world(*ctx_, view, study, config_.signature_min_occurrences);
        check_paths(*ctx_, *view.topology, paths, config_.signature_min_occurrences);
        ctx_->attempted(1);
        world.reset();
        release_free_memory();
    }

    void report() override {
        ctx_->metric("world_build_s", middle_mean(build_s_), "s");
        ctx_->metric("case_study_s", fastest(case_s_), "s");
        ctx_->metric("path_census_s", middle_mean(path_s_), "s");
    }

  private:
    RunContext* ctx_;
    PipelineShape shape_;
    analysis::WorldConfig config_;
    analysis::PathCensusConfig paths_config_;
    std::vector<double> build_s_, case_s_, path_s_;
};

}  // namespace

std::unique_ptr<Part> pipeline_part(RunContext& ctx, const PipelineShape& shape) {
    return std::make_unique<PipelinePart>(ctx, shape);
}

void trace_pipeline_part(RunContext& ctx, const PipelineShape& shape, const Budget& budget) {
    const analysis::WorldConfig config = world_config(shape);
    const analysis::PathCensusConfig paths_config = path_config(shape);
    (void)analysis::ExperimentWorld::create(config);  // warm-up, as untraced
    release_free_memory();

    Tracer* tracer = ctx.tracer();
    std::vector<double> plain_build_s, traced_build_s, evaluate_s, diversity_s, homogeneity_s,
        regional_s, send_s;
    std::size_t candidates = 0;
    PathRun last_paths;
    const auto start = Clock::now();
    std::size_t rounds = 0;
    while (budget.more(rounds, start)) {
        Scope round(tracer, "pipeline.round");
        const auto t0 = Clock::now();
        auto reference = analysis::ExperimentWorld::create(config);
        plain_build_s.push_back(seconds_since(t0));

        const auto t1 = Clock::now();
        std::unique_ptr<ComposedWorld> composed;
        {
            Scope span(tracer, "pipeline.world_build");
            composed = std::make_unique<ComposedWorld>(config, tracer);
        }
        traced_build_s.push_back(seconds_since(t1));
        send_s.push_back(composed->internet_send_s());
        const WorldView view = composed->view();
        ctx.check(export_world(view) == export_world(view_of(*reference)),
                  "pipeline: composed stages export other CSV/signatures than create()");

        const CaseStudy study = in_span(tracer, "analysis.case_study",
                                        [&] { return run_case_study(view, shape, tracer); });
        candidates = study.candidates.size();
        {
            Scope span(tracer, "analysis.path_diversity");
            const auto t = Clock::now();
            const auto vendors = analysis::VendorMap::from_measurement(
                (*view.measurements)[4], analysis::VendorMap::Method::combined);
            const analysis::PathAnalyzer analyzer(*view.topology, vendors);
            for (const auto scope : {analysis::PathScope::all, analysis::PathScope::intra_us,
                                     analysis::PathScope::inter_us}) {
                (void)analyzer.analyze(view.ripe->back().traces, scope, {});
            }
            diversity_s.push_back(seconds_since(t));
        }
        {
            Scope span(tracer, "analysis.homogeneity");
            const auto t = Clock::now();
            (void)analysis::homogeneity_ecdf(analysis::per_as_coverage(study.verdicts), 5);
            homogeneity_s.push_back(seconds_since(t));
        }
        {
            Scope span(tracer, "analysis.regional");
            const auto t = Clock::now();
            (void)analysis::regional_distribution(study.verdicts, *view.topology);
            regional_s.push_back(seconds_since(t));
        }
        last_paths = in_span(tracer, "analysis.path_census",
                             [&] { return run_path_census(view, paths_config, tracer); });
        check_world(ctx, view, study, config.signature_min_occurrences);
        check_paths(ctx, *view.topology, last_paths, config.signature_min_occurrences);
        ctx.attempted(1);
        ++rounds;
        composed.reset();
        reference.reset();
        release_free_memory();
    }
    const auto span_median = [tracer](const char* name) { return median(tracer->durations(name)); };
    ctx.metric("sim.topology.build_s", span_median("sim.topology.build"), "s");
    ctx.metric("sim.datasets.build_s", span_median("sim.datasets.build"), "s");
    ctx.metric("sim.internet.send_s", median(send_s), "s");
    ctx.metric("core.census_s", span_median("core.census"), "s");
    ctx.metric("core.db.finalize_s", span_median("core.db.finalize"), "s");
    ctx.metric("core.classify_s", span_median("core.classify"), "s");
    ctx.metric("analysis.informed_routing.evaluate_s",
               span_median("analysis.informed_routing.evaluate"), "s");
    ctx.metric("analysis.informed_routing.candidates", static_cast<double>(candidates), "count");
    ctx.metric("analysis.path_diversity_s", median(diversity_s), "s");
    ctx.metric("analysis.homogeneity_s", median(homogeneity_s), "s");
    ctx.metric("analysis.regional_s", median(regional_s), "s");
    ctx.metric("analysis.path_census.discover_s", span_median("analysis.path_census.discover"), "s");
    ctx.metric("analysis.path_census.probe_s", span_median("analysis.path_census.probe"), "s");
    ctx.metric("analysis.path_census.targets", static_cast<double>(last_paths.targets.targets.size()),
               "count");
    ctx.metric("analysis.path_census.duplicates_collapsed",
               static_cast<double>(last_paths.targets.duplicates_collapsed), "count");
    ctx.metric("trace.overhead.pipeline", median(traced_build_s) / median(plain_build_s) - 1.0,
               "ratio");
}

}  // namespace perfbench
