// Seeded violations for the five contract rules added in the token
// analyzer (plus an unused suppression). Never compiled; the WILL_FAIL
// ctest entry proves each rule still fires.
#include <cstdlib>
#include <vector>

// unbudgeted-alloc: a freshly parsed count drives resize with no
// require/RDO_CHECK between parse and allocation.
void unbudgeted(Reader& r, std::vector<int>& v) {
  const std::uint32_t n = r.scalar<std::uint32_t>("count");
  v.resize(n);
}

// float-reduce-order: accumulating into a captured variable from inside
// a parallel_for body sums in chunk-completion order.
double race_sum(const std::vector<double>& xs) {
  double total = 0.0;
  rdo::nn::parallel_for(xs.size(), [&](std::size_t i) {
    total += xs[i];
  });
  return total;
}

// metric-name: off-convention names (no subsystem prefix; sub-second
// unit; histogram not in seconds).
void bad_metrics(rdo::obs::MetricsRegistry& reg) {
  reg.counter("requests").inc();
  reg.gauge("serve_latency_ms").set(3);
  reg.histogram("serve_enqueue_micros").observe(1.0);
}

// pass-invariant: an opt::Pass with a check() that asserts nothing.
class SloppyPass final : public Pass {
 public:
  const char* name() const override { return "sloppy"; }
  void run(Plan& plan) const override { mutate(plan); }
  void check(const Plan& plan) const override {
    (void)plan;  // no RDO_CHECK: the invariant is never asserted
  }
};

// naked-getenv: a knob read that bypasses rdo::obs::env_knob.
const char* naked_knob() { return std::getenv("RDO_SECRET_KNOB"); }

// unused-suppression: allowance on a line that triggers nothing.
// rdo-lint: allow(nondeterminism) stale allowance that should be reported
int perfectly_deterministic() { return 4; }
