// Control-flavoured violation pair: a mutable sync-facade primitive is
// the sanctioned synchronized-interior handle and must NOT fire, but the
// mutable payload next to it still needs its own waiver and MUST fire.
// Exactly one const-escape finding (the payload line).
namespace ie {
class Mutex {};
}  // namespace ie

struct LazyTable {
  mutable ie::Mutex mu;
  mutable long table = 0;
};
