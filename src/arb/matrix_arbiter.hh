/**
 * @file
 * Matrix arbiter (Figure 10(b) of the paper), word-parallel storage.
 *
 * An upper-triangular matrix of flip-flops records the binary priority
 * between each pair of requestors.  A requestor wins iff it has higher
 * priority than every other current requestor.  When a requestor consumes
 * a grant its priority is set to the lowest of all requestors, which
 * makes the arbiter strongly fair (least-recently-served order).
 *
 * Storage is bitmask-native: row i is a packed uint64_t word array with
 * bit j set iff i beats j (the full antisymmetric relation, both
 * triangles materialized; the diagonal is never set).  A grant test for
 * requestor i is then one AND-reduce -- i wins iff no *other* requestor
 * falls outside row i: (requests & ~row_i & ~bit_i) == 0 -- and
 * arbitrate walks only the set bits of the request word.  The scalar
 * reference implementation is retained verbatim as
 * ScalarMatrixArbiter in scalar_oracle.hh; tests/arb/test_alloc_equiv.cc
 * drives both in lockstep.
 *
 * The row engine is a set of static functions over a raw row pointer,
 * so an allocator can keep all of its arbiters in one contiguous slab
 * (MatrixArbiterSlab) instead of one heap block per arbiter.  When a
 * row fits in one word (n <= 64) the inline arbitrateWord/updateWord
 * forms apply: arbitration is a ctz walk over one request word and an
 * update is one OR per row.  The generic forms handle any width; both
 * produce identical winners and priority state
 * (tests/arb/test_matrix_arbiter.cc runs them in lockstep).
 */

#ifndef PDR_ARB_MATRIX_ARBITER_HH
#define PDR_ARB_MATRIX_ARBITER_HH

#include "arb/arbiter.hh"
#include "arb/bitrow.hh"
#include "common/logging.hh"

namespace pdr::arb {

/** Least-recently-served matrix arbiter over packed priority rows. */
class MatrixArbiter : public Arbiter
{
  public:
    explicit MatrixArbiter(int n);

    int arbitrate(const ReqRow &requests) const override;
    void update(int winner) override;

    /**
     * Arbitrate a packed request row of words() words (bit i set iff
     * requestor i bids).  Returns the winning index or NoGrant; does
     * NOT update priority state.
     */
    int
    arbitrateMask(const std::uint64_t *requests) const
    {
        return arbitrateRows(rows_.data(), words_, requests);
    }

    /** Single-word arbitrateMask (requires size() <= 64). */
    int
    arbitrateWord(std::uint64_t requests) const
    {
        pdr_assert(words_ == 1);
        return arbitrateWord(rows_.data(), requests);
    }

    /** Single-word update (requires size() <= 64). */
    void
    updateWord(int winner)
    {
        pdr_assert(words_ == 1);
        pdr_assert(winner >= 0 && winner < size());
        updateWord(rows_.data(), size(), winner);
    }

    /** Does requestor i currently beat requestor j? (diagnostic). */
    bool beats(int i, int j) const;

    /** Words per packed row. */
    int words() const { return words_; }

    /** Append the upper-triangular priority state (beats(i, j) for all
     *  i < j, row-major) as 0/1 bytes -- the equivalence tests compare
     *  this against the scalar oracle every round. */
    void
    dumpState(std::vector<std::uint8_t> &out) const
    {
        dumpRows(rows_.data(), size(), words_, out);
    }

    // ----- row engine over n rows of `words` words each ------------

    /** Initial priority: i beats j for all i < j. */
    static void initRows(std::uint64_t *rows, int n, int words);

    /** Winner among the packed `requests`, or NoGrant.  Works for any
     *  width; one-word callers use the faster arbitrateWord. */
    static int arbitrateRows(const std::uint64_t *rows, int words,
                             const std::uint64_t *requests);

    /** `winner` drops to lowest priority. */
    static void updateRows(std::uint64_t *rows, int n, int words,
                           int winner);

    /**
     * Single-word arbitrateRows.  The priority state is a total order,
     * so exactly one requestor is beaten by no other requestor: OR the
     * rows of all requestors together and the one request bit left
     * uncovered is the winner.  That is the requestor the generic form
     * finds (the one whose row covers every other request), with one
     * loop and no data-dependent exit.
     */
    static int
    arbitrateWord(const std::uint64_t *rows, std::uint64_t requests)
    {
        std::uint64_t beaten = 0;
        for (std::uint64_t m = requests; m; m &= m - 1)
            beaten |= rows[ctz64(m)];
        const std::uint64_t win = requests & ~beaten;
        return win ? ctz64(win) : NoGrant;
    }

    /** Single-word updateRows: the winner's column bit is set in every
     *  row, then its own row is cleared (it beats nobody). */
    static void
    updateWord(std::uint64_t *rows, int n, int winner)
    {
        const std::uint64_t wbit = std::uint64_t(1) << winner;
        for (int j = 0; j < n; j++)
            rows[j] |= wbit;
        rows[winner] = 0;
    }

    /** dumpState over raw rows. */
    static void dumpRows(const std::uint64_t *rows, int n, int words,
                         std::vector<std::uint8_t> &out);

  private:
    int words_;
    /** Row-major packed matrix: rows_[i * words_ + w] bit b set iff
     *  requestor i beats requestor 64 * w + b.  Diagonal always 0. */
    std::vector<std::uint64_t> rows_;
    /** Scratch for the ReqRow compatibility entry point. */
    mutable std::vector<std::uint64_t> pack_;
};

/**
 * `count` independent n:1 matrix arbiters in one contiguous slab of
 * packed rows: arbiter a owns rows [a * n, (a + 1) * n), each of
 * wordsFor(n) words.  An allocator's per-port arbiters then share one
 * allocation and stay adjacent in cache.  Each arbiter behaves exactly
 * like a MatrixArbiter(n).
 */
class MatrixArbiterSlab
{
  public:
    MatrixArbiterSlab(int count, int n);

    int count() const { return count_; }
    /** Requestors per arbiter. */
    int size() const { return n_; }
    /** Words per packed row. */
    int words() const { return words_; }

    /** Arbiter a's winner among the packed `requests` (words() words). */
    int
    arbitrate(int a, const std::uint64_t *requests) const
    {
        return MatrixArbiter::arbitrateRows(rowsOf(a), words_, requests);
    }

    void
    update(int a, int winner)
    {
        pdr_assert(winner >= 0 && winner < n_);
        MatrixArbiter::updateRows(rowsOf(a), n_, words_, winner);
    }

    /** Single-word arbitrate (requires size() <= 64). */
    int
    arbitrateWord(int a, std::uint64_t requests) const
    {
        pdr_assert(words_ == 1);
        return MatrixArbiter::arbitrateWord(rowsOf(a), requests);
    }

    /** Single-word update (requires size() <= 64). */
    void
    updateWord(int a, int winner)
    {
        pdr_assert(words_ == 1);
        pdr_assert(winner >= 0 && winner < n_);
        MatrixArbiter::updateWord(rowsOf(a), n_, winner);
    }

    /** Every arbiter's MatrixArbiter::dumpState, in index order. */
    void dumpState(std::vector<std::uint8_t> &out) const;

  private:
    const std::uint64_t *
    rowsOf(int a) const
    {
        pdr_assert(a >= 0 && a < count_);
        return &rows_[std::size_t(a) * std::size_t(n_) * words_];
    }
    std::uint64_t *
    rowsOf(int a)
    {
        pdr_assert(a >= 0 && a < count_);
        return &rows_[std::size_t(a) * std::size_t(n_) * words_];
    }

    int count_;
    int n_;
    int words_;
    std::vector<std::uint64_t> rows_;
};

} // namespace pdr::arb

#endif // PDR_ARB_MATRIX_ARBITER_HH
