// Multi-seed experiment aggregation: runs a pipeline configuration across
// independent seeds (the paper executes each experiment five times with
// different samples) and reports mean ± sample stddev per metric plus the
// pointwise-averaged recall curve.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "pipeline/result.h"

namespace ie {

struct RunMetrics {
  std::vector<double> recall_curve;  // percent grid 0..100
  double average_precision = 0.0;
  double auc = 0.0;
  PipelineResult raw;
};

/// Computes ranking metrics over the RANKED portion of the run, i.e. after
/// the warmup prefix (initial sample / query evaluation). The paper's
/// warmup is ~0.2% of its 1.09M-document pool and hence invisible in its
/// figures; at bench scale the warmup is a noticeable fraction, so scoring
/// it would blur every strategy toward random. Set include_warmup = true
/// for cost accounting views.
RunMetrics EvaluateRun(PipelineResult result, bool include_warmup = false);

struct AggregateMetrics {
  std::string label;
  size_t runs = 0;
  std::vector<double> mean_recall_curve;
  double ap_mean = 0.0;
  double ap_std = 0.0;
  double auc_mean = 0.0;
  double auc_std = 0.0;
  double updates_mean = 0.0;
  double extraction_seconds_mean = 0.0;
  double ranking_cpu_seconds_mean = 0.0;
  double detector_cpu_seconds_mean = 0.0;
  double total_seconds_mean = 0.0;
};

/// Runs `run(seed_index)` for `num_seeds` seeds and aggregates.
AggregateMetrics RunExperiment(
    const std::string& label, size_t num_seeds,
    const std::function<PipelineResult(size_t)>& run);

/// Prints "<label>: r@10 r@20 ... AP AUC" summary lines and full curves in
/// a gnuplot-friendly "percent<TAB>recall" block.
void PrintCurve(const AggregateMetrics& metrics, size_t step_percent = 10);

/// Like PrintCurve but appends the mean number of model updates per run.
void PrintCurveWithUpdates(const AggregateMetrics& metrics,
                           size_t step_percent = 10);
void PrintApAucRow(const AggregateMetrics& metrics);

}  // namespace ie
