#include "markov/dtmc.hh"

#include <cmath>

#include "util/contracts.hh"
#include "util/logging.hh"

namespace snoop {

Dtmc::Dtmc(size_t num_states) : numStates_(num_states)
{
    if (num_states == 0)
        fatal("Dtmc: need at least one state");
}

void
Dtmc::addTransition(size_t from, size_t to, double prob)
{
    if (from >= numStates_ || to >= numStates_)
        fatal("Dtmc::addTransition: state out of range (%zu -> %zu, n=%zu)",
              from, to, numStates_);
    if (prob < 0.0 || prob > 1.0 + 1e-12 || std::isnan(prob))
        fatal("Dtmc::addTransition: bad probability %g", prob);
    if (prob == 0.0)
        return;
    transitions_.push_back({from, to, prob});
}

void
Dtmc::validate() const
{
    std::vector<double> row(numStates_, 0.0);
    for (const auto &t : transitions_)
        row[t.from] += t.prob;
    for (size_t s = 0; s < numStates_; ++s) {
        if (std::fabs(row[s] - 1.0) > 1e-9)
            fatal("Dtmc: row %zu sums to %g, not 1", s, row[s]);
    }
}

std::vector<double>
Dtmc::dense() const
{
    std::vector<double> p(numStates_ * numStates_, 0.0);
    for (const auto &t : transitions_)
        p[t.from * numStates_ + t.to] += t.prob;
    return p;
}

std::vector<double>
Dtmc::steadyStateGth() const
{
    validate();
    size_t n = numStates_;
    std::vector<double> p = dense();

    // GTH state reduction: eliminate states n-1 .. 1, redistributing
    // their probability flow. No subtractions of like-signed values,
    // so the method is numerically stable.
    for (size_t k = n; k-- > 1;) {
        double out = 0.0;
        for (size_t j = 0; j < k; ++j)
            out += p[k * n + j];
        if (out <= 0.0) {
            fatal("Dtmc::steadyStateGth: state %zu unreachable from or "
                  "isolated below the recurrent class (zero pivot)", k);
        }
        for (size_t i = 0; i < k; ++i) {
            double pik = p[i * n + k];
            if (pik == 0.0)
                continue;
            for (size_t j = 0; j < k; ++j)
                p[i * n + j] += pik * p[k * n + j] / out;
        }
    }

    // Back substitution.
    std::vector<double> pi(n, 0.0);
    pi[0] = 1.0;
    for (size_t k = 1; k < n; ++k) {
        double out = 0.0;
        for (size_t j = 0; j < k; ++j)
            out += p[k * n + j];
        double num = 0.0;
        for (size_t i = 0; i < k; ++i)
            num += pi[i] * p[i * n + k];
        pi[k] = num / out;
    }

    double total = 0.0;
    for (double x : pi)
        total += x;
    SNOOP_NUMERIC_CHECK(std::isfinite(total) && total > 0.0,
                        "GTH back substitution lost all probability "
                        "mass (total %g)", total);
    for (double &x : pi)
        x /= total;
    NumericGuard("Dtmc::steadyStateGth").distribution("pi", pi);
    return pi;
}

std::vector<double>
Dtmc::steadyStatePower(double tolerance, int max_iterations) const
{
    validate();
    if (tolerance <= 0.0)
        fatal("Dtmc::steadyStatePower: tolerance must be positive");
    size_t n = numStates_;
    std::vector<double> pi(n, 1.0 / static_cast<double>(n));
    std::vector<double> next(n, 0.0);
    for (int it = 0; it < max_iterations; ++it) {
        std::fill(next.begin(), next.end(), 0.0);
        for (const auto &t : transitions_)
            next[t.to] += pi[t.from] * t.prob;
        // Half-step smoothing makes periodic chains converge to the
        // stationary vector of the original chain (same fixed point).
        double delta = 0.0;
        for (size_t s = 0; s < n; ++s) {
            next[s] = 0.5 * next[s] + 0.5 * pi[s];
            delta = std::max(delta, std::fabs(next[s] - pi[s]));
        }
        pi.swap(next);
        if (delta < tolerance) {
            NumericGuard("Dtmc::steadyStatePower").distribution("pi", pi);
            return pi;
        }
    }
    fatal("Dtmc::steadyStatePower: no convergence after %d iterations",
          max_iterations);
}

} // namespace snoop
