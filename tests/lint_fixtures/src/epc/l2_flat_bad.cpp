// L2 positive fixture: unannotated table-order walks of a FlatMap and a
// FlatIndex in src/epc. Their order depends on insertion history, so a walk
// that emits events per visit leaks it into the trajectory. Exactly 2 [L2]
// findings.
#include <vector>

#include "epc/flat_index.h"

struct ConnTable {
  scale::epc::FlatMap<unsigned, int> conns_;
  scale::epc::FlatIndex by_key_;
  std::vector<unsigned> released_;

  void release_all() {
    conns_.for_each([&](unsigned id, int&) {  // finding 1: FlatMap walk
      released_.push_back(id);
    });
  }

  void collect(std::vector<unsigned long>& out) const {
    by_key_.for_each_entry([&](unsigned long key, unsigned) {  // finding 2
      out.push_back(key);
    });
  }
};
