#include "workloads.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <thread>
#include <utility>

#include "corpus/corpus_io.h"
#include "corpus/generator.h"
#include "corpus/relation.h"
#include "spans.h"

namespace perfbench {
namespace {

const std::array<Workload, 4> kWorkloads = {{
    {"detect_heavy", ie::AccessMode::kFullAccess, false, 1,
     {ie::UpdateKind::kTopK, ie::UpdateKind::kFeatS}, false, 14000, 30},
    {"rerank_heavy", ie::AccessMode::kFullAccess, false, 1,
     {ie::UpdateKind::kWindF, ie::UpdateKind::kModC}, false, 14000, 10},
    {"search_live", ie::AccessMode::kSearchInterface, true, 1,
     {ie::UpdateKind::kWindF, ie::UpdateKind::kModC}, true, 10000, 15},
    {"extract_parallel", ie::AccessMode::kFullAccess, true, 3,
     {ie::UpdateKind::kWindF, ie::UpdateKind::kModC}, false, 14000, 15},
}};

const std::array<ie::RelationId, 2> kRelations = {
    ie::RelationId::kPersonCharge, ie::RelationId::kPersonCareer};
const std::array<ie::RankerKind, 2> kRankers = {ie::RankerKind::kRSVMIE,
                                                ie::RankerKind::kBAggIE};

size_t SetupThreads() {
  return std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
}

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& workload : kWorkloads) {
    if (name == workload.name) return &workload;
  }
  return nullptr;
}

size_t PassCount(const Workload& workload, double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(seconds / workload.pass_seconds));
}

std::vector<ConfigCase> ConfigSet(const Workload& workload, uint64_t seed,
                                  size_t pass) {
  std::vector<ConfigCase> cases;
  for (size_t r = 0; r < kRelations.size(); ++r) {
    for (ie::RankerKind ranker : kRankers) {
      for (ie::UpdateKind detector : workload.detectors) {
        ConfigCase c;
        c.label = ie::GetRelation(kRelations[r]).code + "/" +
                  ie::RankerKindName(ranker) + "/" +
                  ie::UpdateKindName(detector);
        if (pass > 0) c.label += "@" + std::to_string(pass);
        c.relation = r;
        const uint64_t run = pass * kConfigsPerPass + cases.size();
        c.config = ie::PipelineConfig::Defaults(
            ranker, ie::SamplerKind::kSRS, detector,
            seed * 1000003ULL + run * 7919ULL + 1);
        c.config.access = workload.access;
        c.config.extract_threads = workload.extract_threads;
        cases.push_back(std::move(c));
      }
    }
  }
  return cases;
}

std::unique_ptr<World> Setup(const Workload& workload, size_t docs,
                             uint64_t seed, const std::string& work_dir) {
  auto world = std::make_unique<World>();
  SetupTimes& t = world->times;
  const int64_t start = NowNs();
  ie::GeneratorOptions options;
  options.num_documents = docs;
  options.seed = seed;
  int64_t step = NowNs();
  if (workload.iecp) {
    const std::string path = work_dir + "/corpus-" + workload.name + "-" +
                             std::to_string(seed) + ".iecp";
    const ie::StatusOr<size_t> written =
        ie::WriteGeneratedCorpus(options, path);
    if (!written.ok()) {
      throw std::runtime_error("IECP write: " + written.status().ToString());
    }
    t.generate = SecondsSince(step);
    step = NowNs();
    ie::StatusOr<ie::Corpus> read = ie::ReadCorpusFile(path);
    if (!read.ok()) {
      throw std::runtime_error("IECP read: " + read.status().ToString());
    }
    world->corpus = std::move(read).value();
    t.read = SecondsSince(step);
    std::filesystem::remove(path);
  } else {
    world->corpus = ie::GenerateCorpus(options);
    t.generate = SecondsSince(step);
  }

  step = NowNs();
  for (ie::RelationId relation : kRelations) {
    world->systems.push_back(
        ie::TrainExtractionSystem(relation, world->corpus.shared_vocab()));
  }
  t.train = SecondsSince(step);

  step = NowNs();
  for (const auto& system : world->systems) {
    world->outcomes.push_back(ie::ExtractionOutcomes::Compute(
        *system, world->corpus, SetupThreads()));
  }
  t.outcomes = SecondsSince(step);

  step = NowNs();
  world->featurizer = std::make_unique<ie::Featurizer>(&world->corpus.vocab());
  world->word_features =
      ie::FeaturizePool(world->corpus, *world->featurizer, SetupThreads());
  // Intern both relations' attribute features in a fixed order, so
  // feature ids do not depend on which config happens to run first.
  for (const ie::ExtractionOutcomes& outcomes : world->outcomes) {
    for (ie::DocId id : world->pool()) {
      for (const std::string& value : outcomes.AttributeValues(id)) {
        world->featurizer->AttributeFeatureId(value);
      }
    }
  }
  t.featurize = SecondsSince(step);

  step = NowNs();
  auto index = ie::BuildPoolIndex(world->corpus, world->pool());
  world->index = std::make_unique<decltype(index)>(std::move(index));
  t.index = SecondsSince(step);
  t.total = SecondsSince(start);
  return world;
}

ie::SharedContext ContextFor(const World& world, const Workload& workload,
                             size_t relation) {
  ie::SharedContext context;
  context.corpus = &world.corpus;
  context.pool = &world.pool();
  context.outcomes = &world.outcomes[relation];
  context.relation = &ie::GetRelation(kRelations[relation]);
  context.featurizer = world.featurizer.get();
  context.word_features = &world.word_features;
  context.index = world.index.get();
  if (workload.live) context.extraction_system = world.systems[relation].get();
  return context;
}

}  // namespace perfbench
