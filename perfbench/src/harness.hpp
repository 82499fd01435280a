// Shared plumbing of the benchmark program: the run context each part of a
// workload reports into, span tracing, heap-allocation counting by
// pipeline stage, peak RSS, and small statistics helpers.
//
// Everything here measures the library from outside: spans wrap calls into
// public functions, and the allocation counter reads the stage tag the
// library already sets (util/alloc_trace.hpp) from this binary's own
// replacement of global operator new.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point from) {
    return seconds_between(from, Clock::now());
}

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> values);
/// Nearest-rank percentile of a sample, q in [0, 1] (0 for an empty one).
[[nodiscard]] double percentile(std::vector<double> values, double q);
/// The figure a part reports for a per-round series: the mean of its
/// middle half (the interquartile mean). Rounds on a shared host fall into
/// fast and slow modes that switch every few seconds whatever the code does
/// (the same case-study round took 0.19 or 0.27 s within one run), and CPU
/// time the hypervisor steals only ever slows a round down. A quartile or
/// the median of a dozen rounds flips between the modes from run to run;
/// the middle half's mean moves only with their mix, and the outliers at
/// both ends do not count.
[[nodiscard]] double middle_mean(std::vector<double> values);
/// The fastest round's time (0 for an empty series), for the figures whose
/// slow mode is much slower than their fast one: the case study, a round's
/// median query latency and the publish under load. Their slow mode cost
/// them 20-40%, and the share of it in a run set their middle mean. Every
/// run had fast rounds, and their fastest round spread no wider over runs
/// than their middle mean, for the first two a half to a third as wide.
[[nodiscard]] double fastest(const std::vector<double>& seconds);

/// Peak resident set size of this process (VmHWM) in MB, or 0 when
/// /proc is unavailable.
[[nodiscard]] double peak_rss_mb();
/// Returns the allocator's free memory to the system (malloc_trim), so
/// every round starts from the same heap instead of inheriting the last
/// round's fragmentation; without it the peak RSS depends on which threads
/// happened to free what. Called between rounds, never inside a timed one.
void release_free_memory();

// ---- heap allocation counting -------------------------------------------

/// Pipeline stages the library tags (util::AllocStageScope), plus a
/// trailing "untagged" bucket.
inline constexpr std::array<const char*, 7> kAllocStages = {
    "lane", "admit", "dispatch", "recv", "sim", "assemble", "sink"};
inline constexpr std::size_t kAllocBuckets = kAllocStages.size() + 1;

/// Per-stage allocation counts since counting was switched on.
struct AllocCounts {
    std::array<std::uint64_t, kAllocBuckets> by_stage{};
    [[nodiscard]] std::uint64_t total() const;
    [[nodiscard]] AllocCounts operator-(const AllocCounts& earlier) const;
};

/// Switches the operator-new counter on or off (on only around traced work;
/// otherwise each allocation pays one predictable branch). Switch it on
/// before starting the threads whose allocations should count.
void set_alloc_counting(bool on);
[[nodiscard]] AllocCounts alloc_counts();

// ---- spans ----------------------------------------------------------------

/// In-memory span recorder: name, start, end and the span that caused it.
/// Spans are kept until the run ends and then written out as CSV. Safe to
/// use from several threads.
class Tracer {
  public:
    using Id = std::uint32_t;  ///< 0 = no span

    explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

    /// Records a finished span and returns its id.
    Id add(std::string_view name, Clock::time_point start, Clock::time_point end, Id parent);

    /// Opens a span now; close() stamps its end.
    Id open(std::string_view name, Id parent);
    void close(Id id);

    [[nodiscard]] std::size_t size() const;
    /// Durations (seconds) of every span with this name.
    [[nodiscard]] std::vector<double> durations(std::string_view name) const;
    /// Writes "id,name,start_ns,end_ns,parent" rows; returns false on I/O
    /// failure.
    bool write_csv(const std::filesystem::path& path) const;

  private:
    struct Record {
        std::string name;
        std::int64_t start_ns = 0;
        std::int64_t end_ns = -1;
        Id parent = 0;
    };
    [[nodiscard]] std::int64_t offset_ns(Clock::time_point at) const;

    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Record> records_;
};

/// RAII span on the calling thread. Nested Scopes on one thread link to
/// their enclosing Scope as parent; a null tracer makes it a no-op.
class Scope {
  public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// The innermost open Scope on this thread (0 when none).
    [[nodiscard]] static Tracer::Id current() noexcept;

  private:
    Tracer* tracer_;
    Tracer::Id id_ = 0;
    Tracer::Id previous_ = 0;
};

// ---- run context ----------------------------------------------------------

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Round budget of one part of a workload: keep running rounds until both
/// `seconds` have passed and `min_rounds` rounds are done.
struct Budget {
    double seconds = 1.0;
    std::size_t min_rounds = 1;
    [[nodiscard]] bool more(std::size_t rounds, Clock::time_point start) const {
        return rounds < min_rounds || seconds_since(start) < seconds;
    }
};

/// What every part of a run reports into.
class RunContext {
  public:
    RunContext(std::uint64_t seed, bool trace, std::filesystem::path temp_dir,
               Clock::time_point process_start);

    [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
    [[nodiscard]] bool traced() const noexcept { return tracer_ != nullptr; }
    /// The span recorder of a traced run, null otherwise.
    [[nodiscard]] Tracer* tracer() noexcept { return tracer_.get(); }
    [[nodiscard]] const std::filesystem::path& temp_dir() const noexcept { return temp_dir_; }

    void metric(std::string name, double value, std::string unit);
    /// Ends the benchmark's set-up: the first call records setup_s, the
    /// time from process start to the first measured operation.
    void end_setup();
    [[nodiscard]] const std::vector<Metric>& metrics() const noexcept { return metrics_; }

    /// Records one output check; a failed check makes the run incorrect
    /// and is reported on stderr with `what`.
    void check(bool ok, const std::string& what);
    [[nodiscard]] bool correct() const noexcept { return check_failures_ == 0; }

    void attempted(std::uint64_t operations) { attempted_ += operations; }
    void failed(std::uint64_t operations) { failed_ += operations; }
    [[nodiscard]] std::uint64_t attempted_count() const noexcept { return attempted_; }
    [[nodiscard]] std::uint64_t failed_count() const noexcept { return failed_; }

  private:
    std::uint64_t seed_;
    std::unique_ptr<Tracer> tracer_;
    std::filesystem::path temp_dir_;
    Clock::time_point process_start_;
    std::vector<Metric> metrics_;
    std::uint64_t check_failures_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool setup_recorded_ = false;
};

}  // namespace perfbench
