// lfp_perfbench: the repository's benchmark. One command runs one named
// workload and prints, as its last line, one JSON object:
//
//   {"correct": <bool>, "attempted": <n>, "failed": <n>, "metrics": {...}}
//
// Usage:
//   lfp_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--spans <file>]
//
// Untraced (--trace 0) the metrics are the end-to-end ones; traced
// (--trace 1) they are the per-layer ones, including each part's tracing
// overhead against its untraced run, and the spans (name, start, end,
// parent) are written out at the end — to --spans when given, otherwise
// into the run's temporary directory, which is removed at exit like every
// other file the run makes (spill segments included).
//
// Every workload runs all three parts (census, pipeline, serve; see
// parts.hpp), so every metric is measured on every workload; the workload
// chooses the census's shape. An untraced run sets the three parts up,
// then interleaves their rounds over the whole run, each part getting its
// share of the time, so that every metric samples the same stretch of the
// host's load rather than a few seconds of it.
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

#include "parts.hpp"

namespace {

using namespace perfbench;

struct Workload {
    std::string_view name;
    CensusShape census;
};

constexpr Workload kWorkloads[] = {
    {"census-spill", {.targets = 50'000, .lanes = 1, .spill = true}},
    {"census-memory", {.targets = 50'000, .lanes = 2, .spill = false}},
};
constexpr PipelineShape kPipeline{.ases = 300,
                                  .scale = 0.4,
                                  .traces = 3000,
                                  .case_study_min_routers = 10,
                                  .path_destinations = 64};
// Multiples of 32768 targets: see serve_part.cpp.
constexpr ServeShape kServe{.targets = 32'768, .clients = 1};

/// Shares of --seconds the census, pipeline and serve parts get.
constexpr double kShares[3] = {0.35, 0.35, 0.3};
constexpr std::size_t kMinRounds = 3;

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string spans;
};

std::optional<Options> parse(int argc, char** argv) {
    Options options;
    bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string_view key = argv[i];
        const std::string value = argv[i + 1];
        char* end = nullptr;
        if (key == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = end != value.c_str() && *end == '\0' && value[0] != '-';
        } else if (key == "--seconds") {
            options.seconds = std::strtod(value.c_str(), &end);
            have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0;
        } else if (key == "--trace") {
            options.trace = value == "1";
            have_trace = value == "0" || value == "1";
        } else if (key == "--spans") {
            options.spans = value;
        } else {
            return std::nullopt;
        }
    }
    if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds || !have_trace) {
        return std::nullopt;
    }
    return options;
}

/// The run's scratch directory inside the working directory, removed with
/// everything in it when the run ends.
class TempDir {
  public:
    TempDir()
        : path_(std::filesystem::current_path() / ".perfbench_tmp" /
                ("run-" + std::to_string(::getpid()))) {
        std::filesystem::create_directories(path_);
    }
    ~TempDir() {
        std::error_code ignored;
        std::filesystem::remove_all(path_, ignored);
        std::filesystem::remove(path_.parent_path(), ignored);  // only if empty
    }
    TempDir(const TempDir&) = delete;
    TempDir& operator=(const TempDir&) = delete;
    [[nodiscard]] const std::filesystem::path& path() const noexcept { return path_; }

  private:
    std::filesystem::path path_;
};

std::string json_number(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.9g", value);
    return buffer;
}

void print_result(const RunContext& ctx) {
    std::ostringstream out;
    out << "{\"correct\": " << (ctx.correct() ? "true" : "false")
        << ", \"attempted\": " << ctx.attempted_count() << ", \"failed\": " << ctx.failed_count()
        << ", \"metrics\": {";
    bool first = true;
    for (const Metric& metric : ctx.metrics()) {
        if (!first) out << ", ";
        first = false;
        out << '"' << metric.name << "\": {\"value\": " << json_number(metric.value)
            << ", \"unit\": \"" << metric.unit << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
}

void run_workload(RunContext& ctx, const Workload& workload, double seconds) {
    if (ctx.traced()) {
        {
            Scope span(ctx.tracer(), "part.census");
            trace_census_part(ctx, workload.census, {seconds * kShares[0], kMinRounds});
        }
        {
            Scope span(ctx.tracer(), "part.pipeline");
            trace_pipeline_part(ctx, kPipeline, {seconds * kShares[1], kMinRounds});
        }
        Scope span(ctx.tracer(), "part.serve");
        trace_serve_part(ctx, kServe, {seconds * kShares[2], kMinRounds});
        return;
    }
    const std::unique_ptr<Part> census = census_part(ctx, workload.census);
    // The census's own peak: its inputs and one full sweep, before the
    // other parts hold any memory.
    ctx.metric("peak_rss_mb", peak_rss_mb(), "MB");
    const std::unique_ptr<Part> pipeline = pipeline_part(ctx, kPipeline);
    const std::unique_ptr<Part> serve = serve_part(ctx, kServe);
    Part* const parts[3] = {census.get(), pipeline.get(), serve.get()};
    ctx.end_setup();
    // Next is always the part furthest behind its share of the time.
    double busy_s[3] = {};
    std::size_t rounds[3] = {};
    const auto start = Clock::now();
    const auto more = [&] {
        return seconds_since(start) < seconds ||
               *std::min_element(std::begin(rounds), std::end(rounds)) < kMinRounds;
    };
    while (more()) {
        std::size_t next = 0;
        for (std::size_t i = 1; i < 3; ++i) {
            if (busy_s[i] / kShares[i] < busy_s[next] / kShares[next]) next = i;
        }
        const auto t0 = Clock::now();
        parts[next]->round();
        busy_s[next] += seconds_since(t0);
        ++rounds[next];
    }
    std::cerr << "rounds: census " << rounds[0] << ", pipeline " << rounds[1] << ", serve "
              << rounds[2] << "\n";
    for (Part* part : parts) part->report();
}

}  // namespace

int main(int argc, char** argv) {
    const auto process_start = Clock::now();
    const std::optional<Options> options = parse(argc, argv);
    if (!options) {
        std::cerr << "usage: lfp_perfbench --workload <name> --seed <n> --seconds <s> "
                     "--trace <0|1> [--spans <file>]\n";
        return 2;
    }
    const Workload* workload = nullptr;
    for (const Workload& candidate : kWorkloads) {
        if (candidate.name == options->workload) workload = &candidate;
    }
    if (workload == nullptr) {
        std::cerr << "unknown workload '" << options->workload << "'\n";
        return 2;
    }
    // A client writing to a connection its server already closed must see
    // EPIPE, not die of SIGPIPE.
    ::signal(SIGPIPE, SIG_IGN);

    try {
        TempDir temp;
        RunContext ctx(options->seed, options->trace, temp.path(), process_start);
        run_workload(ctx, *workload, options->seconds);
        if (Tracer* tracer = ctx.tracer()) {
            const std::filesystem::path spans =
                options->spans.empty() ? temp.path() / "spans.csv"
                                       : std::filesystem::path(options->spans);
            if (!tracer->write_csv(spans)) {
                std::cerr << "cannot write spans to " << spans << "\n";
                return 1;
            }
            std::cerr << "spans: " << tracer->size() << " written to " << spans.string() << "\n";
        }
        print_result(ctx);
    } catch (const std::exception& error) {
        std::cerr << "lfp_perfbench: " << error.what() << "\n";
        return 1;
    }
    return 0;
}
