#include "epc/fabric.h"

#include "common/logging.h"
#include "obs/registry.h"
#include "obs/trace.h"

namespace scale::epc {

namespace {

// Hop/fault annotations for an attached tracer. Kept out of line so the
// clean path (no sink) pays exactly the Tracer::current() null check.
void trace_hop(sim::NodeId from, sim::NodeId to, const proto::Pdu& pdu,
               Time now, Duration latency) {
  obs::Tracer* tr = obs::Tracer::current();
  obs::Json args = obs::Json::object();
  args.set("from", from);
  tr->complete(to, proto::pdu_name(pdu), now, latency, std::move(args));
}

void trace_fault(sim::NodeId from, sim::NodeId to, const proto::Pdu& pdu,
                 Time now, sim::FaultCause cause) {
  obs::Tracer* tr = obs::Tracer::current();
  obs::Json args = obs::Json::object();
  args.set("from", from);
  args.set("pdu", proto::pdu_name(pdu));
  args.set("cause", sim::fault_cause_name(cause));
  tr->instant(to, "fault", now, std::move(args));
}

}  // namespace

Endpoint::Endpoint(Fabric& fabric)
    : fabric_(fabric), node_(fabric.add_endpoint(this)) {}

Endpoint::~Endpoint() { leave(); }

void Endpoint::leave() {
  if (!registered_) return;
  registered_ = false;
  fabric_.remove_endpoint(node_);
}

Fabric::Fabric(sim::Engine& engine, sim::Network& network)
    : engine_(engine), network_(network) {
  // Room for a typical world's endpoints in one allocation; slot 0 stays
  // empty (NodeId 0 is never assigned).
  endpoints_.reserve(64);
  endpoints_.push_back(nullptr);
}

NodeId Fabric::add_endpoint(Endpoint* ep) {
  SCALE_CHECK(ep != nullptr);
  const auto id = static_cast<NodeId>(endpoints_.size());
  endpoints_.push_back(ep);
  ++live_endpoints_;
  return id;
}

void Fabric::remove_endpoint(NodeId id) {
  SCALE_CHECK_MSG(is_registered(id), "removing unknown endpoint");
  endpoints_[id] = nullptr;
  --live_endpoints_;
}

bool Fabric::is_registered(NodeId id) const {
  return id < endpoints_.size() && endpoints_[id] != nullptr;
}

void Fabric::send(NodeId from, NodeId to, proto::PduRef pdu) {
  network_.record_transfer(from, to, pdu->wire_bytes);
  Duration latency = network_.delay(from, to);
  if (network_.faults_enabled()) {
    const sim::FaultVerdict v =
        network_.fault_verdict(from, to, engine_.now());
    if (!v.deliver) {
      SCALE_DEBUG("fault-dropped " << proto::pdu_name(pdu->value) << " "
                                   << from << " -> " << to);
      if (obs::Tracer::current() != nullptr)
        trace_fault(from, to, pdu->value, engine_.now(), v.cause);
      return;  // lost on the wire; counted in network().fault_counters()
    }
    if (v.latency_factor != 1.0) latency = latency * v.latency_factor;
    latency = latency + v.extra_delay;
    if (v.cause != sim::FaultCause::kNone &&
        obs::Tracer::current() != nullptr)
      trace_fault(from, to, pdu->value, engine_.now(), v.cause);
    if (v.duplicate) {
      // The duplicate trails the original by one (deterministic) configured
      // latency — no extra Rng draw, so replays stay byte-identical.
      deliver(from, to, pdu, latency + network_.delay(from, to));
    }
  }
  if (obs::Tracer::current() != nullptr)
    trace_hop(from, to, pdu->value, engine_.now(), latency);
  deliver(from, to, std::move(pdu), latency);
}

void Fabric::deliver(NodeId from, NodeId to, proto::PduRef p,
                     Duration latency) {
  // The batch holds the sender's box; the drain event captures only
  // (this, to, batch).
  const Time at = engine_.now() + latency;
  const std::int64_t at_us = at.count_us();
  // Same-destination, same-timestamp coalescing. The scheduled-event
  // counter guard is what keeps this fingerprint-safe: appends are legal
  // only while NOTHING has been scheduled since the batch event, i.e. the
  // folded PDUs would have occupied consecutive seqs with no same-time
  // competitor between them, so draining them back-to-back from the batch's
  // seq slot replays the exact unbatched order.
  if (open_batch_ != nullptr && open_to_ == to && open_at_us_ == at_us &&
      engine_.events_scheduled() == open_sched_count_) {
    open_batch_->items.emplace_back(from, std::move(p));
    ++batched_pdus_;
    return;
  }
  DeliveryBatch* b = alloc_batch();
  b->items.emplace_back(from, std::move(p));
  engine_.at(at, [this, to, b]() { drain_batch(to, b); });
  ++batches_;
  open_batch_ = b;
  open_to_ = to;
  open_at_us_ = at_us;
  open_sched_count_ = engine_.events_scheduled();  // snapshot post-schedule
}

Fabric::DeliveryBatch* Fabric::alloc_batch() {
  if (!batch_free_.empty()) {
    DeliveryBatch* b = batch_free_.back();
    batch_free_.pop_back();
    return b;
  }
  // A fresh batch starts with room for a few folded PDUs, so a steady
  // workload stops growing batch storage once it has its batches, instead
  // of each one reaching a new high-water mark the first time it folds.
  batch_pool_.push_back(std::make_unique<DeliveryBatch>());
  batch_pool_.back()->items.reserve(kBatchReserve);
  return batch_pool_.back().get();
}

void Fabric::drain_batch(NodeId to, DeliveryBatch* b) {
  // Close the batch before the first receive(): a handler sending at this
  // exact timestamp must open a fresh event, never append to a batch that
  // is already draining (or, worse, recycled).
  if (open_batch_ == b) open_batch_ = nullptr;
  for (auto& [from, p] : b->items) {
    // Per-item lookup, not hoisted: a receive() may deregister this very
    // endpoint (crash mid-batch), and the remaining items must then drop
    // exactly as individually scheduled deliveries would have.
    Endpoint* ep = to < endpoints_.size() ? endpoints_[to] : nullptr;
    if (ep == nullptr) {
      ++dropped_;
      SCALE_DEBUG("dropped " << proto::pdu_name(p->value)
                             << " to departed node " << to);
      if (obs::Tracer* tr = obs::Tracer::current()) {
        obs::Json args = obs::Json::object();
        args.set("from", from);
        args.set("pdu", proto::pdu_name(p->value));
        tr->instant(to, "dead_endpoint", engine_.now(), std::move(args));
      }
      continue;
    }
    ep->receive(from, p);
  }
  if (b->items.size() > 1) engine_.credit_batched(b->items.size() - 1);
  b->items.clear();
  batch_free_.push_back(b);
}

void Fabric::reset_counters() {
  dropped_ = 0;
  network_.reset_counters();
}

void Fabric::export_metrics(obs::MetricsRegistry& reg,
                            const std::string& prefix) const {
  reg.set_counter(prefix + ".dead_endpoint_drops", dropped_);
  reg.set_counter(prefix + ".late_arrivals", late_arrivals());
  reg.set_counter(prefix + ".delivery_batches", batches_);
  reg.set_counter(prefix + ".batched_pdus", batched_pdus_);
  reg.set(prefix + ".endpoints", static_cast<double>(live_endpoints_));
}

}  // namespace scale::epc
