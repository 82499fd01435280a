// The three parts every workload runs, each against its own layers:
//
//   census    a ScaleTransport sweep through CensusRunner::stream_passes
//             (probe, sim, core)
//   pipeline  the paper pipeline: ExperimentWorld::create, the §6.3
//             informed-routing case study and a PathCensus (sim, core,
//             analysis)
//   serve     a CensusService answering framed socket queries while it
//             republishes (serve, core)
//
// An untraced run sets every part up first, then runs their rounds
// interleaved over the whole run (see main.cpp); a traced run runs each
// part's traced function in turn. The workload only chooses the census's
// shape; each part reports the same metrics whatever the workload.
#pragma once

#include <cstddef>
#include <memory>

#include "harness.hpp"

namespace perfbench {

struct CensusShape {
    std::size_t targets = 0;
    std::size_t lanes = 1;
    bool spill = false;
};

struct PipelineShape {
    std::size_t ases = 0;
    double scale = 0.0;
    std::size_t traces = 0;
    std::size_t case_study_min_routers = 0;
    std::size_t path_destinations = 0;
};

struct ServeShape {
    std::size_t targets = 0;
    std::size_t clients = 2;
};

/// A part of an untraced run. Its factory sets it up (inputs, reference
/// results, a warm-up round); round() then runs one timed round and checks
/// its outputs, and report() adds the part's end-to-end metrics, each
/// taken over all of its rounds.
class Part {
  public:
    virtual ~Part() = default;
    virtual void round() = 0;
    virtual void report() = 0;
};

std::unique_ptr<Part> census_part(RunContext& ctx, const CensusShape& shape);
std::unique_ptr<Part> pipeline_part(RunContext& ctx, const PipelineShape& shape);
std::unique_ptr<Part> serve_part(RunContext& ctx, const ServeShape& shape);

/// The traced runs: each sets its part up, runs rounds within `budget` and
/// adds the part's per-layer metrics.
void trace_census_part(RunContext& ctx, const CensusShape& shape, const Budget& budget);
void trace_pipeline_part(RunContext& ctx, const PipelineShape& shape, const Budget& budget);
void trace_serve_part(RunContext& ctx, const ServeShape& shape, const Budget& budget);

}  // namespace perfbench
