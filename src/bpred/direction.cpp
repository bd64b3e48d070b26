#include "bpred/direction.hpp"

#include <cmath>

#include "common/log.hpp"

namespace reno
{

const char *
dirPredKindName(DirPredKind kind)
{
    switch (kind) {
      case DirPredKind::Bimodal:    return "bimodal";
      case DirPredKind::GShare:     return "gshare";
      case DirPredKind::Tournament: return "tournament";
      case DirPredKind::Tage:       return "tage";
      case DirPredKind::Perceptron: return "perceptron";
    }
    panic("bad DirPredKind %u", static_cast<unsigned>(kind));
}

namespace
{

void
requirePow2(const char *engine, const char *what, unsigned v)
{
    if (v == 0 || (v & (v - 1)) != 0)
        fatal("%s predictor: %s must be a non-zero power of two "
              "(got %u)", engine, what, v);
}

void
bump2(std::uint8_t &counter, bool up)
{
    if (up && counter < 3)
        ++counter;
    else if (!up && counter > 0)
        --counter;
}

/** Fold the low @p len bits of @p hist into @p bits bits by xor. */
std::uint64_t
fold(std::uint64_t hist, unsigned len, unsigned bits)
{
    if (bits == 0)
        return 0;
    const std::uint64_t h =
        len >= 64 ? hist : hist & ((std::uint64_t{1} << len) - 1);
    std::uint64_t f = 0;
    for (unsigned i = 0; i < len; i += bits)
        f ^= h >> i;
    return f & ((std::uint64_t{1} << bits) - 1);
}

std::vector<std::uint64_t>
packU8(const std::vector<std::uint8_t> &v)
{
    return {v.begin(), v.end()};
}

bool
unpackU8(const std::vector<std::uint64_t> &in, std::uint64_t limit,
         std::vector<std::uint8_t> *out)
{
    if (in.size() != out->size())
        return false;
    for (std::size_t i = 0; i < in.size(); ++i) {
        if (in[i] > limit)
            return false;
        (*out)[i] = static_cast<std::uint8_t>(in[i]);
    }
    return true;
}

// ---------------------------------------------------------------------------
// Bimodal: per-PC 2-bit counters, no history.
// ---------------------------------------------------------------------------

class BimodalPredictor final : public DirectionPredictor
{
  public:
    explicit BimodalPredictor(const DirPredParams &params)
        : params_(params), table_(params.bimodalEntries, 1)
    {
        requirePow2("bimodal", "table size", params.bimodalEntries);
    }

    bool
    predict(Addr pc) override
    {
        return table_[index(pc)] >= 2;
    }

    void
    train(Addr pc, bool taken) override
    {
        bump2(table_[index(pc)], taken);
    }

    DirPredState
    exportState() const override
    {
        DirPredState s;
        s.tables = {packU8(table_)};
        return s;
    }

    bool
    importState(const DirPredState &s) override
    {
        return s.tables.size() == 1 &&
               unpackU8(s.tables[0], 3, &table_);
    }

    std::unique_ptr<DirectionPredictor>
    clone() const override
    {
        return std::make_unique<BimodalPredictor>(*this);
    }

    DirPredKind kind() const override { return DirPredKind::Bimodal; }

  private:
    unsigned
    index(Addr pc) const
    {
        return static_cast<unsigned>((pc >> 2) %
                                     params_.bimodalEntries);
    }

    DirPredParams params_;
    std::vector<std::uint8_t> table_;
};

// ---------------------------------------------------------------------------
// GShare: 2-bit counters indexed by PC xor global history.
// ---------------------------------------------------------------------------

class GSharePredictor final : public DirectionPredictor
{
  public:
    explicit GSharePredictor(const DirPredParams &params)
        : params_(params), table_(params.gshareEntries, 1)
    {
        requirePow2("gshare", "table size", params.gshareEntries);
        if (params.historyBits == 0 || params.historyBits > 63)
            fatal("gshare predictor: historyBits must be in [1, 63] "
                  "(got %u)", params.historyBits);
    }

    bool
    predict(Addr pc) override
    {
        return table_[index(pc)] >= 2;
    }

    void
    train(Addr pc, bool taken) override
    {
        bump2(table_[index(pc)], taken);
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

    DirPredState
    exportState() const override
    {
        DirPredState s;
        s.history = history_;
        s.tables = {packU8(table_)};
        return s;
    }

    bool
    importState(const DirPredState &s) override
    {
        if (s.tables.size() != 1 ||
            !unpackU8(s.tables[0], 3, &table_))
            return false;
        history_ = s.history;
        return true;
    }

    std::unique_ptr<DirectionPredictor>
    clone() const override
    {
        return std::make_unique<GSharePredictor>(*this);
    }

    DirPredKind kind() const override { return DirPredKind::GShare; }

  private:
    unsigned
    index(Addr pc) const
    {
        const std::uint64_t hist =
            history_ &
            ((std::uint64_t{1} << params_.historyBits) - 1);
        return static_cast<unsigned>(((pc >> 2) ^ hist) %
                                     params_.gshareEntries);
    }

    DirPredParams params_;
    std::vector<std::uint8_t> table_;
    std::uint64_t history_ = 0;
};

// ---------------------------------------------------------------------------
// Tournament: bimodal + gshare with a per-PC chooser. The default
// engine; bit-for-bit the behavior of the seed's hardwired hybrid
// (same initialization, indexing and update order), which the paper-
// geometry bench goldens depend on.
// ---------------------------------------------------------------------------

class TournamentPredictor final : public DirectionPredictor
{
  public:
    explicit TournamentPredictor(const DirPredParams &params)
        : params_(params),
          bimodal_(params.bimodalEntries, 1),
          gshare_(params.gshareEntries, 1),
          chooser_(params.chooserEntries, 2)
    {
        requirePow2("tournament", "bimodal table size",
                    params.bimodalEntries);
        requirePow2("tournament", "gshare table size",
                    params.gshareEntries);
        requirePow2("tournament", "chooser table size",
                    params.chooserEntries);
        if (params.historyBits == 0 || params.historyBits > 63)
            fatal("tournament predictor: historyBits must be in "
                  "[1, 63] (got %u)", params.historyBits);
    }

    bool
    predict(Addr pc) override
    {
        const bool use_gshare = chooser_[chooserIndex(pc)] >= 2;
        const std::uint8_t counter = use_gshare
                                         ? gshare_[gshareIndex(pc)]
                                         : bimodal_[bimodalIndex(pc)];
        return counter >= 2;
    }

    void
    train(Addr pc, bool taken) override
    {
        const bool bim_correct =
            (bimodal_[bimodalIndex(pc)] >= 2) == taken;
        const bool gsh_correct =
            (gshare_[gshareIndex(pc)] >= 2) == taken;
        if (bim_correct != gsh_correct)
            bump2(chooser_[chooserIndex(pc)], gsh_correct);
        bump2(bimodal_[bimodalIndex(pc)], taken);
        bump2(gshare_[gshareIndex(pc)], taken);
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

    DirPredState
    exportState() const override
    {
        DirPredState s;
        s.history = history_;
        s.tables = {packU8(bimodal_), packU8(gshare_),
                    packU8(chooser_)};
        return s;
    }

    bool
    importState(const DirPredState &s) override
    {
        if (s.tables.size() != 3 ||
            !unpackU8(s.tables[0], 3, &bimodal_) ||
            !unpackU8(s.tables[1], 3, &gshare_) ||
            !unpackU8(s.tables[2], 3, &chooser_))
            return false;
        history_ = s.history;
        return true;
    }

    std::unique_ptr<DirectionPredictor>
    clone() const override
    {
        return std::make_unique<TournamentPredictor>(*this);
    }

    DirPredKind kind() const override
    {
        return DirPredKind::Tournament;
    }

  private:
    // Table sizes are validated powers of two: mask, never divide
    // (this runs on every branch of functional warming).
    unsigned
    bimodalIndex(Addr pc) const
    {
        return static_cast<unsigned>((pc >> 2) &
                                     (params_.bimodalEntries - 1));
    }

    unsigned
    gshareIndex(Addr pc) const
    {
        const std::uint64_t hist =
            history_ &
            ((std::uint64_t{1} << params_.historyBits) - 1);
        return static_cast<unsigned>(((pc >> 2) ^ hist) &
                                     (params_.gshareEntries - 1));
    }

    unsigned
    chooserIndex(Addr pc) const
    {
        return static_cast<unsigned>((pc >> 2) &
                                     (params_.chooserEntries - 1));
    }

    DirPredParams params_;
    std::vector<std::uint8_t> bimodal_;
    std::vector<std::uint8_t> gshare_;
    std::vector<std::uint8_t> chooser_;
    std::uint64_t history_ = 0;
};

// ---------------------------------------------------------------------------
// TAGE-lite: bimodal base + tagged tables with geometric histories.
// Longest tag match provides the prediction; 3-bit counters, 2-bit
// useful bits, allocate-on-mispredict into a longer table.
// ---------------------------------------------------------------------------

class TagePredictor final : public DirectionPredictor
{
  public:
    explicit TagePredictor(const DirPredParams &params)
        : params_(params), base_(params.tageBaseEntries, 1)
    {
        requirePow2("tage", "base table size", params.tageBaseEntries);
        requirePow2("tage", "tagged table size", params.tageEntries);
        if (params.tageEntries < 2)
            fatal("tage predictor: tagged table size must be at "
                  "least 2 (got %u)", params.tageEntries);
        if (params.tageTables == 0)
            fatal("tage predictor: needs at least one tagged table");
        if (params.tageTagBits < 4 || params.tageTagBits > 15)
            fatal("tage predictor: tag width must be in [4, 15] bits "
                  "(got %u)", params.tageTagBits);
        if (params.tageMinHist == 0 ||
            params.tageMaxHist < params.tageMinHist ||
            params.tageMaxHist > 64)
            fatal("tage predictor: history range must satisfy "
                  "1 <= min <= max <= 64 (got [%u, %u])",
                  params.tageMinHist, params.tageMaxHist);

        // Geometric history lengths: L_0 = min, L_{T-1} = max,
        // intermediate lengths on the geometric interpolation,
        // strictly increasing.
        const unsigned n = params.tageTables;
        histLen_.resize(n);
        for (unsigned i = 0; i < n; ++i) {
            double len = params.tageMinHist;
            if (n > 1)
                len = params.tageMinHist *
                      std::pow(double(params.tageMaxHist) /
                                   params.tageMinHist,
                               double(i) / (n - 1));
            histLen_[i] = static_cast<unsigned>(std::lround(len));
            if (i > 0 && histLen_[i] <= histLen_[i - 1])
                histLen_[i] = histLen_[i - 1] + 1;
            if (histLen_[i] > 64)
                histLen_[i] = 64;
        }
        idxBits_ = 0;
        while ((1u << idxBits_) < params.tageEntries)
            ++idxBits_;
        tables_.assign(n, Table{
            std::vector<std::uint16_t>(params.tageEntries,
                                       InvalidTag),
            std::vector<std::uint8_t>(params.tageEntries, 0),
            std::vector<std::uint8_t>(params.tageEntries, 0)});
    }

    bool
    predict(Addr pc) override
    {
        const int provider = findProvider(pc);
        // The core and functional warming always train right after
        // predicting (the history cannot advance in between), so
        // park the provider for train() to reuse.
        memoPc_ = pc;
        memoProvider_ = provider;
        memoValid_ = true;
        if (provider >= 0) {
            ++providerHits_;
            return tables_[provider]
                       .ctr[indexOf(pc, provider)] >= 4;
        }
        ++altHits_;
        return base_[baseIndex(pc)] >= 2;
    }

    void
    train(Addr pc, bool taken) override
    {
        // The provider predict() found is still valid (the history
        // has not advanced); recompute only on an unpaired train.
        const int provider = memoValid_ && memoPc_ == pc
                                 ? memoProvider_
                                 : findProvider(pc);
        memoValid_ = false;
        const bool alt_pred = altPrediction(pc, provider);
        bool provider_pred = alt_pred;
        if (provider >= 0) {
            Table &t = tables_[provider];
            const unsigned idx = indexOf(pc, provider);
            provider_pred = t.ctr[idx] >= 4;
            if (provider_pred != alt_pred) {
                // The tagged entry mattered: age its useful bit.
                if (provider_pred == taken) {
                    if (t.useful[idx] < 3)
                        ++t.useful[idx];
                } else if (t.useful[idx] > 0) {
                    --t.useful[idx];
                }
            }
            if (taken && t.ctr[idx] < 7)
                ++t.ctr[idx];
            else if (!taken && t.ctr[idx] > 0)
                --t.ctr[idx];
        } else {
            bump2(base_[baseIndex(pc)], taken);
        }

        // On a misprediction, allocate in a longer-history table.
        if (provider_pred != taken &&
            provider + 1 < static_cast<int>(tables_.size())) {
            bool allocated = false;
            for (unsigned j = provider + 1; j < tables_.size(); ++j) {
                Table &t = tables_[j];
                const unsigned idx = indexOf(pc, j);
                if (t.useful[idx] == 0) {
                    t.tag[idx] = tagOf(pc, j);
                    t.ctr[idx] = taken ? 4 : 3;
                    allocated = true;
                    break;
                }
            }
            if (!allocated) {
                for (unsigned j = provider + 1; j < tables_.size();
                     ++j) {
                    const unsigned idx = indexOf(pc, j);
                    if (tables_[j].useful[idx] > 0)
                        --tables_[j].useful[idx];
                }
            }
        }
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

    DirPredState
    exportState() const override
    {
        DirPredState s;
        s.history = history_;
        s.tables.push_back(packU8(base_));
        for (const Table &t : tables_) {
            s.tables.emplace_back(t.tag.begin(), t.tag.end());
            s.tables.push_back(packU8(t.ctr));
            s.tables.push_back(packU8(t.useful));
        }
        return s;
    }

    bool
    importState(const DirPredState &s) override
    {
        if (s.tables.size() != 1 + 3 * tables_.size() ||
            !unpackU8(s.tables[0], 3, &base_))
            return false;
        for (std::size_t i = 0; i < tables_.size(); ++i) {
            Table &t = tables_[i];
            const auto &tags = s.tables[1 + 3 * i];
            if (tags.size() != t.tag.size())
                return false;
            for (std::size_t e = 0; e < tags.size(); ++e) {
                if (tags[e] > InvalidTag)
                    return false;
                t.tag[e] = static_cast<std::uint16_t>(tags[e]);
            }
            if (!unpackU8(s.tables[2 + 3 * i], 7, &t.ctr) ||
                !unpackU8(s.tables[3 + 3 * i], 3, &t.useful))
                return false;
        }
        history_ = s.history;
        memoValid_ = false;
        return true;
    }

    std::unique_ptr<DirectionPredictor>
    clone() const override
    {
        return std::make_unique<TagePredictor>(*this);
    }

    DirPredKind kind() const override { return DirPredKind::Tage; }

  private:
    static constexpr std::uint16_t InvalidTag = 0xffff;

    struct Table {
        std::vector<std::uint16_t> tag;  //!< InvalidTag = empty
        std::vector<std::uint8_t> ctr;   //!< 3-bit, taken if >= 4
        std::vector<std::uint8_t> useful;  //!< 2-bit
    };

    unsigned
    baseIndex(Addr pc) const
    {
        return static_cast<unsigned>((pc >> 2) %
                                     params_.tageBaseEntries);
    }

    unsigned
    indexOf(Addr pc, unsigned table) const
    {
        const std::uint64_t mix =
            (pc >> 2) ^ ((pc >> 2) >> idxBits_) ^
            fold(history_, histLen_[table], idxBits_) ^ table;
        return static_cast<unsigned>(mix % params_.tageEntries);
    }

    std::uint16_t
    tagOf(Addr pc, unsigned table) const
    {
        const unsigned bits = params_.tageTagBits;
        const std::uint64_t mix =
            (pc >> 2) ^ ((pc >> 2) >> bits) ^
            fold(history_, histLen_[table], bits) ^
            (fold(history_, histLen_[table], bits - 1) << 1);
        return static_cast<std::uint16_t>(
            mix & ((std::uint64_t{1} << bits) - 1));
    }

    /** Longest-history table whose tagged entry matches; -1 = none. */
    int
    findProvider(Addr pc) const
    {
        for (int i = static_cast<int>(tables_.size()) - 1; i >= 0;
             --i) {
            if (tables_[i].tag[indexOf(pc, i)] == tagOf(pc, i))
                return i;
        }
        return -1;
    }

    /** The prediction below @p provider (next match, else base). */
    bool
    altPrediction(Addr pc, int provider) const
    {
        for (int i = provider - 1; i >= 0; --i) {
            const unsigned idx = indexOf(pc, i);
            if (tables_[i].tag[idx] == tagOf(pc, i))
                return tables_[i].ctr[idx] >= 4;
        }
        return base_[baseIndex(pc)] >= 2;
    }

    DirPredParams params_;
    std::vector<std::uint8_t> base_;
    std::vector<Table> tables_;
    std::vector<unsigned> histLen_;
    unsigned idxBits_ = 0;
    std::uint64_t history_ = 0;

    // predict()-to-train() provider memo (not simulation state: the
    // memoized value always equals what recomputation would find).
    Addr memoPc_ = 0;
    int memoProvider_ = -1;
    bool memoValid_ = false;
};

// ---------------------------------------------------------------------------
// Perceptron: per-PC signed weight rows over the global history,
// threshold training (Jimenez & Lin).
// ---------------------------------------------------------------------------

class PerceptronPredictor final : public DirectionPredictor
{
  public:
    explicit PerceptronPredictor(const DirPredParams &params)
        : params_(params),
          weights_(static_cast<std::size_t>(params.perceptronEntries) *
                       (params.perceptronHistBits + 1),
                   0),
          threshold_(static_cast<int>(
              (193 * params.perceptronHistBits) / 100 + 14))
    {
        requirePow2("perceptron", "table size",
                    params.perceptronEntries);
        if (params.perceptronHistBits == 0 ||
            params.perceptronHistBits > 63)
            fatal("perceptron predictor: history must be in [1, 63] "
                  "bits (got %u)", params.perceptronHistBits);
    }

    bool
    predict(Addr pc) override
    {
        const int dot = dotProduct(pc);
        // Park the dot product for the paired train() call (the
        // history cannot advance in between).
        memoPc_ = pc;
        memoDot_ = dot;
        memoValid_ = true;
        if (dot > threshold_ || dot < -threshold_)
            ++confident_;
        return dot >= 0;
    }

    void
    train(Addr pc, bool taken) override
    {
        const int dot = memoValid_ && memoPc_ == pc
                            ? memoDot_
                            : dotProduct(pc);
        memoValid_ = false;
        const bool pred = dot >= 0;
        if (pred != taken ||
            (dot <= threshold_ && dot >= -threshold_)) {
            std::int8_t *row = rowOf(pc);
            adjust(row[0], taken);
            for (unsigned i = 0; i < params_.perceptronHistBits; ++i)
                adjust(row[i + 1], taken == bit(i));
        }
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

    DirPredState
    exportState() const override
    {
        DirPredState s;
        s.history = history_;
        s.tables.emplace_back();
        s.tables[0].reserve(weights_.size());
        for (const std::int8_t w : weights_)
            s.tables[0].push_back(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(w)));
        return s;
    }

    bool
    importState(const DirPredState &s) override
    {
        if (s.tables.size() != 1 ||
            s.tables[0].size() != weights_.size())
            return false;
        for (std::size_t i = 0; i < weights_.size(); ++i) {
            const auto v =
                static_cast<std::int64_t>(s.tables[0][i]);
            if (v < -128 || v > 127)
                return false;
            weights_[i] = static_cast<std::int8_t>(v);
        }
        history_ = s.history;
        memoValid_ = false;
        return true;
    }

    std::unique_ptr<DirectionPredictor>
    clone() const override
    {
        return std::make_unique<PerceptronPredictor>(*this);
    }

    DirPredKind kind() const override
    {
        return DirPredKind::Perceptron;
    }

  private:
    bool
    bit(unsigned i) const
    {
        return (history_ >> i) & 1;
    }

    const std::int8_t *
    rowOf(Addr pc) const
    {
        const std::size_t row =
            static_cast<std::size_t>((pc >> 2) %
                                     params_.perceptronEntries);
        return &weights_[row * (params_.perceptronHistBits + 1)];
    }

    std::int8_t *
    rowOf(Addr pc)
    {
        return const_cast<std::int8_t *>(
            const_cast<const PerceptronPredictor *>(this)->rowOf(pc));
    }

    int
    dotProduct(Addr pc) const
    {
        const std::int8_t *row = rowOf(pc);
        int dot = row[0];
        for (unsigned i = 0; i < params_.perceptronHistBits; ++i)
            dot += bit(i) ? row[i + 1] : -row[i + 1];
        return dot;
    }

    static void
    adjust(std::int8_t &w, bool up)
    {
        if (up && w < 127)
            ++w;
        else if (!up && w > -128)
            --w;
    }

    DirPredParams params_;
    std::vector<std::int8_t> weights_;
    int threshold_;
    std::uint64_t history_ = 0;

    // predict()-to-train() dot-product memo (not simulation state:
    // the memoized value always equals what recomputation would
    // find).
    Addr memoPc_ = 0;
    int memoDot_ = 0;
    bool memoValid_ = false;
};

} // namespace

std::unique_ptr<DirectionPredictor>
makeDirectionPredictor(const DirPredParams &params)
{
    switch (params.kind) {
      case DirPredKind::Bimodal:
        return std::make_unique<BimodalPredictor>(params);
      case DirPredKind::GShare:
        return std::make_unique<GSharePredictor>(params);
      case DirPredKind::Tournament:
        return std::make_unique<TournamentPredictor>(params);
      case DirPredKind::Tage:
        return std::make_unique<TagePredictor>(params);
      case DirPredKind::Perceptron:
        return std::make_unique<PerceptronPredictor>(params);
    }
    fatal("bad direction-predictor kind %u",
          static_cast<unsigned>(params.kind));
}

} // namespace reno
