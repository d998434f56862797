// Violation: a learn-module file including a module its library does not
// link. ie_extract links ie_learn; ie_learn does not link ie_extract, so
// learn including extract is a layering violation.
// archlint: module=learn
#include "extract/extraction_system.h"

int Noop() { return 0; }
