// Tests for the pipeline flight recorder (DESIGN.md §15): the
// PipelineRecorder's JSONL ledger and the recorder's pipeline integration
// (per-line invariants over a real run's ledger, passivity).
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "pipeline/pipeline.h"
#include "pipeline/recorder.h"
#include "test_util.h"

namespace ie {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string TempPath(const char* name) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + info->test_suite_name() + "_" + info->name() +
         "_" + name;
}

// ---- PipelineRecorder ledger -------------------------------------------

TEST(PipelineRecorderTest, LedgerHasHeaderIterAndFooterLines) {
  const std::string path = TempPath("ledger.jsonl");
  PipelineRecorder recorder(path);
  ASSERT_TRUE(recorder.active());

  recorder.BeginRun(PipelineConfig{}, /*pool_size=*/10);
  PipelineResult result;
  for (int i = 0; i < 10; ++i) {
    IterationRecord record;
    record.doc = static_cast<uint32_t>(i);
    record.useful = i % 2 == 0;
    if (i == 3) {
      record.retrained = true;
      record.weight_delta_norm = 0.25;
      record.component_delta_norms = {0.25};
    }
    recorder.RecordIteration(record);
    result.processing_order.push_back(record.doc);
    result.processed_useful.push_back(record.useful ? 1 : 0);
  }
  EXPECT_EQ(recorder.iterations(), 10u);
  result.update_positions = {4};
  recorder.EndRun(result);

  const std::string contents = ReadFile(path);
  ASSERT_FALSE(contents.empty());
  EXPECT_EQ(contents.back(), '\n');
  std::vector<std::string> lines;
  std::istringstream stream(contents);
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 12u);  // header + 10 iters + footer
  EXPECT_NE(lines.front().find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"schema\":4"), std::string::npos);
  EXPECT_NE(lines.front().find("\"ranker\":\"RSVM-IE\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"pool_size\":10"), std::string::npos);
  EXPECT_NE(lines[1].find("\"type\":\"iter\""), std::string::npos);
  // An iter line carries the document's facts and no running totals.
  EXPECT_EQ(lines[1],
            "{\"type\":\"iter\",\"i\":1,\"doc\":0,\"phase\":\"main\","
            "\"useful\":1,\"stat\":0,\"retrain\":0}");
  EXPECT_NE(lines[2].find("\"useful\":0"), std::string::npos);
  // dw/dw_c appear exactly on the retrained iteration.
  EXPECT_NE(lines[4].find("\"retrain\":1"), std::string::npos);
  EXPECT_NE(lines[4].find("\"dw\":"), std::string::npos);
  EXPECT_NE(lines[4].find("\"dw_c\":[0.25]"), std::string::npos);
  EXPECT_EQ(lines[5].find("\"dw\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"type\":\"end\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"iterations\":10"), std::string::npos);
  EXPECT_NE(lines.back().find("\"updates\":1"), std::string::npos);
  // The footer's totals come from the result: documents 0, 2, ... are
  // useful.
  EXPECT_NE(lines.back().find("\"useful_total\":5"), std::string::npos);
}

TEST(PipelineRecorderTest, InactiveWithoutSinks) {
  PipelineRecorder recorder("");
  EXPECT_FALSE(recorder.active());
  recorder.RecordIteration(IterationRecord{});
  EXPECT_EQ(recorder.iterations(), 1u);  // counts, but records nothing
}

// ---- Pipeline integration ----------------------------------------------

/// The number after `"key":` in one ledger line; -1 when the key is absent.
double LedgerNumber(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = line.find(needle);
  return pos == std::string::npos ? -1.0
                                  : std::stod(line.substr(pos + needle.size()));
}

/// The `"dw_c":[...]` array of one ledger line (empty when absent).
std::vector<double> LedgerComponentNorms(const std::string& line) {
  std::vector<double> norms;
  const std::string needle = "\"dw_c\":[";
  const size_t start = line.find(needle);
  if (start == std::string::npos) return norms;
  std::istringstream items(
      line.substr(start + needle.size(),
                  line.find(']', start) - start - needle.size()));
  for (std::string item; std::getline(items, item, ',');) {
    norms.push_back(std::stod(item));
  }
  return norms;
}

TEST(FlightRecorderPipelineTest, RecordsLedgerWithoutChangingRun) {
  const SharedContext context =
      test::MakeSharedContext(RelationId::kPersonCharge);
  PipelineConfig config = PipelineConfig::Defaults(
      RankerKind::kRSVMIE, SamplerKind::kSRS, UpdateKind::kModC, 11);
  config.sample_size = 120;

  const PipelineResult baseline =
      AdaptiveExtractionPipeline::Run(context, config);

  const std::string ledger_path = TempPath("run.jsonl");
  config.ledger_path = ledger_path;
  const PipelineResult recorded =
      AdaptiveExtractionPipeline::Run(context, config);

  // Passivity: the recorder must not perturb the run.
  EXPECT_EQ(recorded.processing_order, baseline.processing_order);
  EXPECT_EQ(recorded.update_positions, baseline.update_positions);
  EXPECT_EQ(recorded.final_weights, baseline.final_weights);

  // Ledger: header + one line per processed document + footer.
  std::istringstream stream(ReadFile(ledger_path));
  std::vector<std::string> lines;
  for (std::string line; std::getline(stream, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), recorded.processing_order.size() + 2);
  EXPECT_NE(lines.front().find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(lines.front().find("\"ranker\":\"RSVM-IE\""), std::string::npos);
  EXPECT_NE(lines.back().find("\"type\":\"end\""), std::string::npos);

  // Per-line facts: strict numbering, the document and its usefulness as
  // the result lists them, and ‖Δw‖ exactly on the retrain lines (RSVM-IE:
  // one component, == dw).
  size_t retrain_lines = 0;
  for (size_t n = 1; n + 1 < lines.size(); ++n) {
    const std::string& line = lines[n];
    SCOPED_TRACE(line);
    ASSERT_NE(line.find("\"type\":\"iter\""), std::string::npos);
    EXPECT_EQ(LedgerNumber(line, "i"), static_cast<double>(n));
    EXPECT_EQ(LedgerNumber(line, "doc"),
              static_cast<double>(recorded.processing_order[n - 1]));
    EXPECT_EQ(LedgerNumber(line, "useful"),
              static_cast<double>(recorded.processed_useful[n - 1]));
    const double dw = LedgerNumber(line, "dw");
    const std::vector<double> dw_c = LedgerComponentNorms(line);
    if (LedgerNumber(line, "retrain") == 1.0) {
      ++retrain_lines;
      EXPECT_GT(dw, 0.0);
      ASSERT_EQ(dw_c.size(), 1u);
      EXPECT_EQ(dw, dw_c[0]);
    } else {
      EXPECT_EQ(LedgerNumber(line, "retrain"), 0.0);
      EXPECT_EQ(dw, -1.0);  // absent
      EXPECT_TRUE(dw_c.empty());
    }
  }
  // Every update the pipeline logged appears as a retrain line.
  EXPECT_GT(retrain_lines, 0u);
  EXPECT_EQ(retrain_lines, recorded.update_positions.size());
}

}  // namespace
}  // namespace ie
