// Per-session component factories for the extraction loops. One
// extraction session is the paper's loop bound to one relation; its
// mutable state (ranker, update detector, rerank frontier, flight
// recorder) is owned by the run — ExtractionSession, private to
// pipeline.cc — and every read-only input lives in SharedContext
// (pipeline/pipeline.h). The factories are split out of the run so other
// loops (the FactCrawl baseline, a replay harness) build the same
// components the run builds.
#pragma once

#include <memory>
#include <vector>

#include "pipeline/pipeline.h"
#include "ranking/document_ranker.h"
#include "sampling/sampler.h"
#include "update/update_detector.h"

namespace ie {

/// The configured ranker, seeded for this session.
std::unique_ptr<DocumentRanker> MakeRanker(const PipelineConfig& config,
                                           uint64_t seed);

/// The configured update detector. `pool_size` calibrates Wind-F's
/// fixed-interval schedule.
std::unique_ptr<UpdateDetector> MakeDetector(const PipelineConfig& config,
                                             size_t pool_size,
                                             uint64_t seed);

/// The configured initial sampler over the shared context (CQS needs the
/// shared index + query list; checked here).
std::unique_ptr<Sampler> MakeSampler(const SharedContext& shared,
                                     SamplerKind kind);

/// The pool's distinct ids in first-occurrence order. Every loop samples,
/// counts, ranks and takes leftovers from this list, so a pool that names
/// a document twice still counts and processes it once.
std::vector<DocId> DistinctPool(const std::vector<DocId>& pool);

}  // namespace ie
