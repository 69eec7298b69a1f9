#include "arb/matrix_arbiter.hh"

namespace pdr::arb {

MatrixArbiter::MatrixArbiter(int n) : Arbiter(n), words_(wordsFor(n))
{
    pdr_assert(n >= 1);
    rows_.assign(std::size_t(n) * words_, 0);
    pack_.assign(words_, 0);
    initRows(rows_.data(), n, words_);
}

void
MatrixArbiter::initRows(std::uint64_t *rows, int n, int words)
{
    // i beats j initially for all i < j: row i has bits (i, n) set.
    for (int i = 0; i < n; i++) {
        std::uint64_t *row = &rows[std::size_t(i) * words];
        for (int j = i + 1; j < n; j++)
            setBit(row, j);
    }
}

bool
MatrixArbiter::beats(int i, int j) const
{
    pdr_assert(i != j);
    return testBit(&rows_[std::size_t(i) * words_], j);
}

int
MatrixArbiter::arbitrateRows(const std::uint64_t *rows, int words,
                             const std::uint64_t *requests)
{
    // Requestor i wins iff no other request bit falls outside row i.
    for (int w = 0; w < words; w++) {
        std::uint64_t m = requests[w];
        while (m) {
            int b = ctz64(m);
            m &= m - 1;
            int i = w * kWordBits + b;
            const std::uint64_t *row = &rows[std::size_t(i) * words];
            bool wins = true;
            for (int k = 0; k < words && wins; k++) {
                std::uint64_t others = requests[k] & ~row[k];
                if (k == w)
                    others &= ~(std::uint64_t(1) << b);
                wins = others == 0;
            }
            if (wins)
                return i;
        }
    }
    return NoGrant;
}

int
MatrixArbiter::arbitrate(const ReqRow &requests) const
{
    // Compatibility entry (tests, round-robin-style callers): pack the
    // byte row into words and run the mask path.
    pdr_assert(int(requests.size()) == size());
    for (int w = 0; w < words_; w++)
        pack_[w] = 0;
    // pdr-lint: allow(PDR-PERF-DENSESCAN) compat entry; the router hot
    // path stages packed words and calls arbitrateMask directly
    for (int i = 0; i < size(); i++) {
        if (requests[i])
            setBit(pack_.data(), i);
    }
    return arbitrateMask(pack_.data());
}

void
MatrixArbiter::update(int winner)
{
    if (winner == NoGrant)
        return;
    pdr_assert(winner >= 0 && winner < size());
    updateRows(rows_.data(), size(), words_, winner);
}

void
MatrixArbiter::updateRows(std::uint64_t *rows, int n, int words,
                          int winner)
{
    // Winner drops to lowest priority: clear its row (it now beats
    // nobody) and set its column bit in every other row.  The column
    // write-back is inherently one bit per row; the arbitration-side
    // win is what the packed layout buys.
    std::uint64_t *wrow = &rows[std::size_t(winner) * words];
    for (int w = 0; w < words; w++)
        wrow[w] = 0;
    const std::size_t ww = std::size_t(winner) >> 6;
    const std::uint64_t wbit = std::uint64_t(1) << (winner & 63);
    for (int j = 0; j < n; j++) {
        if (j != winner)
            rows[std::size_t(j) * words + ww] |= wbit;
    }
}

void
MatrixArbiter::dumpRows(const std::uint64_t *rows, int n, int words,
                        std::vector<std::uint8_t> &out)
{
    // Diagnostic serialization for the equivalence tests, not on the
    // allocation hot path.
    for (int i = 0; i < n; i++) {
        const std::uint64_t *row = &rows[std::size_t(i) * words];
        for (int j = i + 1; j < n; j++)
            out.push_back(testBit(row, j) ? 1 : 0);
    }
}

MatrixArbiterSlab::MatrixArbiterSlab(int count, int n)
    : count_(count), n_(n), words_(wordsFor(n))
{
    pdr_assert(count >= 1 && n >= 1);
    rows_.assign(std::size_t(count) * std::size_t(n) * words_, 0);
    for (int a = 0; a < count; a++)
        MatrixArbiter::initRows(rowsOf(a), n, words_);
}

void
MatrixArbiterSlab::dumpState(std::vector<std::uint8_t> &out) const
{
    for (int a = 0; a < count_; a++)
        MatrixArbiter::dumpRows(rowsOf(a), n_, words_, out);
}

} // namespace pdr::arb
