#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>

#include "util/alloc_trace.hpp"

// ---- global allocation counter ------------------------------------------
// Replaces global operator new for the whole binary. Untraced runs only
// test a flag; traced runs bucket every allocation by the allocating
// thread's stage tag (util::t_alloc_stage).
namespace {

std::atomic<bool> g_counting{false};
/// One cache line per bucket: the stages are counted from different
/// threads, which must not contend for one line.
struct alignas(64) Bucket {
    std::atomic<std::uint64_t> count{0};
};
std::array<Bucket, perfbench::kAllocBuckets> g_allocs{};

std::size_t stage_bucket(const char* tag) noexcept {
    // A thread keeps its tag for a whole region, so remember the last
    // lookup instead of comparing names on every allocation.
    thread_local const char* last_tag = nullptr;
    thread_local std::size_t last_bucket = perfbench::kAllocStages.size();
    if (tag == last_tag) return last_bucket;
    std::size_t bucket = perfbench::kAllocStages.size();
    if (tag != nullptr) {
        for (std::size_t i = 0; i < perfbench::kAllocStages.size(); ++i) {
            if (std::strcmp(tag, perfbench::kAllocStages[i]) == 0) bucket = i;
        }
    }
    last_tag = tag;
    last_bucket = bucket;
    return bucket;
}

}  // namespace

void* operator new(std::size_t size) {
    if (g_counting.load(std::memory_order_relaxed)) {
        g_allocs[stage_bucket(lfp::util::t_alloc_stage)].count.fetch_add(
            1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace perfbench {

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t middle = values.size() / 2;
    return values.size() % 2 == 1 ? values[middle] : 0.5 * (values[middle - 1] + values[middle]);
}

double percentile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(q * static_cast<double>(values.size()));
    return values[std::min(rank, values.size() - 1)];
}

double middle_mean(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t drop = values.size() / 4;
    double sum = 0.0;
    for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * drop);
}

double fastest(const std::vector<double>& seconds) {
    return seconds.empty() ? 0.0 : *std::min_element(seconds.begin(), seconds.end());
}

double peak_rss_mb() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return static_cast<double>(std::strtoull(line.c_str() + 6, nullptr, 10)) / 1024.0;
        }
    }
    return 0.0;
}

void release_free_memory() { malloc_trim(0); }

std::uint64_t AllocCounts::total() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t count : by_stage) sum += count;
    return sum;
}

AllocCounts AllocCounts::operator-(const AllocCounts& earlier) const {
    AllocCounts out;
    for (std::size_t i = 0; i < kAllocBuckets; ++i) out.by_stage[i] = by_stage[i] - earlier.by_stage[i];
    return out;
}

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

AllocCounts alloc_counts() {
    AllocCounts out;
    for (std::size_t i = 0; i < kAllocBuckets; ++i) {
        out.by_stage[i] = g_allocs[i].count.load(std::memory_order_relaxed);
    }
    return out;
}

// ---- Tracer ---------------------------------------------------------------

std::int64_t Tracer::offset_ns(Clock::time_point at) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(at - epoch_).count();
}

Tracer::Id Tracer::add(std::string_view name, Clock::time_point start, Clock::time_point end,
                       Id parent) {
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back({std::string(name), offset_ns(start), offset_ns(end), parent});
    return static_cast<Id>(records_.size());
}

Tracer::Id Tracer::open(std::string_view name, Id parent) {
    const std::int64_t start = offset_ns(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back({std::string(name), start, -1, parent});
    return static_cast<Id>(records_.size());
}

void Tracer::close(Id id) {
    const std::int64_t end = offset_ns(Clock::now());
    std::lock_guard<std::mutex> lock(mutex_);
    if (id > 0 && id <= records_.size()) records_[id - 1].end_ns = end;
}

std::size_t Tracer::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return records_.size();
}

std::vector<double> Tracer::durations(std::string_view name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out;
    for (const Record& record : records_) {
        if (record.name == name && record.end_ns >= record.start_ns) {
            out.push_back(static_cast<double>(record.end_ns - record.start_ns) / 1e9);
        }
    }
    return out;
}

bool Tracer::write_csv(const std::filesystem::path& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "id,name,start_ns,end_ns,parent\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record& record = records_[i];
        out << (i + 1) << ',' << record.name << ',' << record.start_ns << ',' << record.end_ns
            << ',' << record.parent << '\n';
    }
    return static_cast<bool>(out.flush());
}

namespace {
thread_local Tracer::Id t_current_span = 0;
}  // namespace

Scope::Scope(Tracer* tracer, std::string_view name) : tracer_(tracer) {
    if (tracer_ == nullptr) return;
    previous_ = t_current_span;
    id_ = tracer_->open(name, previous_);
    t_current_span = id_;
}

Scope::~Scope() {
    if (tracer_ == nullptr) return;
    tracer_->close(id_);
    t_current_span = previous_;
}

Tracer::Id Scope::current() noexcept { return t_current_span; }

// ---- RunContext -----------------------------------------------------------

RunContext::RunContext(std::uint64_t seed, bool trace, std::filesystem::path temp_dir,
                       Clock::time_point process_start)
    : seed_(seed),
      tracer_(trace ? std::make_unique<Tracer>(process_start) : nullptr),
      temp_dir_(std::move(temp_dir)),
      process_start_(process_start) {}

void RunContext::metric(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

void RunContext::end_setup() {
    if (setup_recorded_) return;
    setup_recorded_ = true;
    if (!traced()) metric("setup_s", seconds_since(process_start_), "s");
}

void RunContext::check(bool ok, const std::string& what) {
    if (ok) return;
    ++check_failures_;
    std::cerr << "CHECK FAILED: " << what << "\n";
}

}  // namespace perfbench
