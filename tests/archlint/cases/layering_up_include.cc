// Violation: a ranking-module file reaching UP into pipeline. ie_pipeline
// links ie_ranking, so the dependency must be inverted (pipeline includes
// ranking), not the other way around.
// archlint: module=ranking
#include "pipeline/rerank_engine.h"

int Noop() { return 0; }
