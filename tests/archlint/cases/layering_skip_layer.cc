// Violation: a text-module file reaching up into corpus. ie_corpus links
// ie_text, not the other way round; text must not know about the corpus
// structures built on top of it.
// archlint: module=text
#include "corpus/corpus.h"

int Noop() { return 0; }
