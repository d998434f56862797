// Architecture markers (DESIGN.md §16) — annotations the archlint rules in
// tools/lint.py recognize and cross-check. They expand to nothing; their
// value is that the lint can find them and enforce the contract they name.
#pragma once

// IE_SHARED_IMMUTABLE — placed between `struct`/`class` and the type name:
//
//   struct IE_SHARED_IMMUTABLE SharedContext { ... };
//
// declares a shared-immutable type: an object that many concurrent
// sessions read with no synchronization, so it must be deeply const. The
// `shared-immutable` lint rule enforces, inside the marked body:
//
//   * every data member is const (a `const T*` / `const T&` view or a
//     const value), so only const member functions of the pointees are
//     reachable through it — the compiler enforces the rest;
//   * no `mutable` members;
//   * every member function declared on the type is const-qualified.
//
// Mutable interiors of pointee types are governed separately by the
// `const-escape` rule and its per-site `// ARCH: const-escape (<reason>)`
// waivers.
#define IE_SHARED_IMMUTABLE
