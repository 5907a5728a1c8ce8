// L2 negative fixture: the sanctioned ways to touch a FlatMap / FlatIndex in
// a determinism-critical directory — point lookups, and walks whose result
// does not depend on visit order. Zero findings.
#include <algorithm>
#include <vector>

#include "epc/flat_index.h"

struct ConnTable {
  scale::epc::FlatMap<unsigned, int> conns_;
  scale::epc::FlatIndex by_key_;

  std::vector<unsigned> stale_sorted() {
    std::vector<unsigned> stale;
    // lint: order-independent — collected, then sorted before use.
    conns_.for_each([&](unsigned id, int& age) {
      if (age > 3) stale.push_back(id);
    });
    std::sort(stale.begin(), stale.end());
    return stale;
  }

  int lookup(unsigned id) {
    const int* age = conns_.find(id);  // point lookup: always fine
    return age == nullptr ? 0 : *age;
  }

  unsigned long max_key() const {
    unsigned long best = 0;
    by_key_.for_each_entry(  // lint: order-independent — a max.
        [&](unsigned long key, unsigned) { best = std::max(best, key); });
    return best;
  }
};
