/**
 * @file
 * Unit and property tests for the CDCL SAT solver: basic semantics,
 * assumptions, incrementality, budgets, and randomized cross-checks
 * against brute-force enumeration on small formulas.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "sat/solver.hh"

using namespace rmp::sat;

namespace
{

Lit
pos(Var v)
{
    return Lit(v, false);
}

Lit
neg(Var v)
{
    return Lit(v, true);
}

} // namespace

TEST(Sat, TrivialSat)
{
    Solver s;
    Var a = s.newVar();
    s.addClause(pos(a));
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
}

TEST(Sat, TrivialUnsat)
{
    Solver s;
    Var a = s.newVar();
    s.addClause(pos(a));
    EXPECT_FALSE(s.addClause(neg(a)));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, UnitPropagationChain)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar();
    s.addClause(pos(a));
    s.addClause(neg(a), pos(b)); // a -> b
    s.addClause(neg(b), pos(c)); // b -> c
    EXPECT_EQ(s.solve(), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
    EXPECT_TRUE(s.modelValue(b));
    EXPECT_TRUE(s.modelValue(c));
}

TEST(Sat, XorChainRequiresSearch)
{
    // (a xor b), (b xor c), (a xor c) is unsat.
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar();
    auto add_xor = [&](Var x, Var y) {
        s.addClause(pos(x), pos(y));
        s.addClause(neg(x), neg(y));
    };
    add_xor(a, b);
    add_xor(b, c);
    add_xor(a, c);
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, AssumptionsSelectBranch)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar();
    s.addClause(pos(a), pos(b));
    EXPECT_EQ(s.solve({neg(a)}), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(b));
    EXPECT_EQ(s.solve({neg(b)}), SatResult::Sat);
    EXPECT_TRUE(s.modelValue(a));
    EXPECT_EQ(s.solve({neg(a), neg(b)}), SatResult::Unsat);
    // The formula itself is still satisfiable afterwards (incremental).
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, ContradictoryAssumptions)
{
    Solver s;
    Var a = s.newVar();
    s.addClause(pos(a), neg(a)); // tautology, removed
    EXPECT_EQ(s.solve({pos(a), neg(a)}), SatResult::Unsat);
    EXPECT_EQ(s.solve({pos(a)}), SatResult::Sat);
}

TEST(Sat, DuplicateAndTautologyClauses)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar();
    EXPECT_TRUE(s.addClause({pos(a), pos(a), pos(b)}));
    EXPECT_TRUE(s.addClause({pos(a), neg(a)}));
    EXPECT_EQ(s.solve(), SatResult::Sat);
}

TEST(Sat, PigeonHole3Into2IsUnsat)
{
    // PHP(3,2): 3 pigeons, 2 holes. x[p][h].
    Solver s;
    Var x[3][2];
    for (auto &row : x)
        for (auto &v : row)
            v = s.newVar();
    // Each pigeon in some hole.
    for (int p = 0; p < 3; p++)
        s.addClause(pos(x[p][0]), pos(x[p][1]));
    // No two pigeons share a hole.
    for (int h = 0; h < 2; h++)
        for (int p = 0; p < 3; p++)
            for (int q = p + 1; q < 3; q++)
                s.addClause(neg(x[p][h]), neg(x[q][h]));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

TEST(Sat, PigeonHole5Into4IsUnsat)
{
    Solver s;
    const int P = 5, H = 4;
    std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
    for (int p = 0; p < P; p++)
        for (int h = 0; h < H; h++)
            x[p][h] = s.newVar();
    for (int p = 0; p < P; p++) {
        std::vector<Lit> cl;
        for (int h = 0; h < H; h++)
            cl.push_back(pos(x[p][h]));
        s.addClause(cl);
    }
    for (int h = 0; h < H; h++)
        for (int p = 0; p < P; p++)
            for (int q = p + 1; q < P; q++)
                s.addClause(neg(x[p][h]), neg(x[q][h]));
    EXPECT_EQ(s.solve(), SatResult::Unsat);
    EXPECT_GT(s.stats().conflicts, 0u);
}

TEST(Sat, BudgetYieldsUndetermined)
{
    // A hard instance with a 1-conflict budget must give up.
    Solver s;
    const int P = 7, H = 6;
    std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
    for (int p = 0; p < P; p++)
        for (int h = 0; h < H; h++)
            x[p][h] = s.newVar();
    for (int p = 0; p < P; p++) {
        std::vector<Lit> cl;
        for (int h = 0; h < H; h++)
            cl.push_back(pos(x[p][h]));
        s.addClause(cl);
    }
    for (int h = 0; h < H; h++)
        for (int p = 0; p < P; p++)
            for (int q = p + 1; q < P; q++)
                s.addClause(neg(x[p][h]), neg(x[q][h]));
    SatBudget tight;
    tight.maxConflicts = 1;
    EXPECT_EQ(s.solve({}, tight), SatResult::Undetermined);
    // With no budget it finishes.
    EXPECT_EQ(s.solve(), SatResult::Unsat);
}

namespace
{

/** Brute-force satisfiability of a CNF over <= 16 vars. */
bool
bruteForceSat(int nvars, const std::vector<std::vector<Lit>> &cnf)
{
    for (uint32_t m = 0; m < (1u << nvars); m++) {
        bool all = true;
        for (const auto &cl : cnf) {
            bool any = false;
            for (Lit l : cl) {
                bool v = (m >> l.var()) & 1;
                if (v != l.sign()) {
                    any = true;
                    break;
                }
            }
            if (!any) {
                all = false;
                break;
            }
        }
        if (all)
            return true;
    }
    return false;
}

} // namespace

class SatRandomCnf : public ::testing::TestWithParam<int>
{
};

TEST_P(SatRandomCnf, MatchesBruteForce)
{
    std::mt19937 rng(GetParam());
    const int nvars = 8;
    std::uniform_int_distribution<int> nclauses_dist(5, 40);
    std::uniform_int_distribution<int> len_dist(1, 4);
    std::uniform_int_distribution<int> var_dist(0, nvars - 1);
    std::uniform_int_distribution<int> sign_dist(0, 1);

    for (int iter = 0; iter < 20; iter++) {
        int nclauses = nclauses_dist(rng);
        std::vector<std::vector<Lit>> cnf;
        for (int i = 0; i < nclauses; i++) {
            std::vector<Lit> cl;
            int len = len_dist(rng);
            for (int j = 0; j < len; j++)
                cl.push_back(Lit(var_dist(rng), sign_dist(rng)));
            cnf.push_back(cl);
        }
        Solver s;
        for (int v = 0; v < nvars; v++)
            s.newVar();
        bool trivially_unsat = false;
        for (const auto &cl : cnf)
            if (!s.addClause(cl))
                trivially_unsat = true;
        bool expect = bruteForceSat(nvars, cnf);
        if (trivially_unsat) {
            EXPECT_FALSE(expect);
            continue;
        }
        SatResult r = s.solve();
        EXPECT_EQ(r, expect ? SatResult::Sat : SatResult::Unsat)
            << "seed " << GetParam() << " iter " << iter;
        if (r == SatResult::Sat) {
            // The model must actually satisfy the formula.
            for (const auto &cl : cnf) {
                bool any = false;
                for (Lit l : cl)
                    if (s.modelValue(l.var()) != l.sign())
                        any = true;
                EXPECT_TRUE(any);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SatRandomCnf, ::testing::Range(1, 9));

TEST(Sat, FailedAssumptionsFormAnUnsatCore)
{
    Solver s;
    Var a = s.newVar(), b = s.newVar(), c = s.newVar(), d = s.newVar();
    s.addClause(neg(a), neg(b)); // a and b conflict
    s.addClause(pos(c), pos(d));
    // d is irrelevant to the conflict; the core must be within {a, b}.
    ASSERT_EQ(s.solve({pos(a), pos(b), pos(d)}), SatResult::Unsat);
    const std::vector<Lit> core = s.failedAssumptions();
    ASSERT_FALSE(core.empty());
    for (Lit l : core) {
        bool among = l == pos(a) || l == pos(b);
        EXPECT_TRUE(among) << "core literal outside the assumption set";
    }
    // Re-solving under the core alone must still be Unsat, and the
    // solver stays usable afterwards.
    EXPECT_EQ(s.solve(core), SatResult::Unsat);
    EXPECT_EQ(s.solve({pos(a)}), SatResult::Sat);
}

TEST(Sat, AssumptionCoreFromPropagatedConflict)
{
    // The conflict only appears after unit propagation from the
    // assumptions (the analyzeFinal reason-walk path, not the
    // directly-contradictory one).
    Solver s;
    Var a = s.newVar(), b = s.newVar(), x = s.newVar(), y = s.newVar();
    s.addClause(neg(a), pos(x));          // a -> x
    s.addClause(neg(b), pos(y));          // b -> y
    s.addClause(neg(x), neg(y));          // not both x and y
    ASSERT_EQ(s.solve({pos(a), pos(b)}), SatResult::Unsat);
    std::vector<Lit> core = s.failedAssumptions();
    ASSERT_FALSE(core.empty());
    for (Lit l : core)
        EXPECT_TRUE(l == pos(a) || l == pos(b));
    EXPECT_EQ(s.solve(core), SatResult::Unsat);
    EXPECT_EQ(s.stats().assumptionConflicts, 2u);
}

TEST(Sat, LongIncrementalSessionKeepsMemoryBounded)
{
    // Regression for the tombstone leak: repeated solve/addClause rounds
    // on one solver must not grow the clause DB without bound. Each
    // round gates a fresh PHP(4,3) instance behind its own selector
    // variable and solves under that selector -- the standard
    // incremental pattern. Every round's learned clauses mention a
    // selector no later round assumes, so they are pure garbage
    // afterwards; the old DB kept a tombstone per learned clause
    // forever and scanned them all on every bumpClause rescale.
    Solver s;
    const int P = 4, H = 3;
    size_t peak = 0;
    for (int round = 0; round < 1000; round++) {
        Var sel = s.newVar();
        std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
        for (int p = 0; p < P; p++)
            for (int h = 0; h < H; h++)
                x[p][h] = s.newVar();
        for (int p = 0; p < P; p++) {
            std::vector<Lit> cl = {neg(sel)};
            for (int h = 0; h < H; h++)
                cl.push_back(pos(x[p][h]));
            ASSERT_TRUE(s.addClause(cl));
        }
        for (int h = 0; h < H; h++)
            for (int p = 0; p < P; p++)
                for (int q = p + 1; q < P; q++)
                    ASSERT_TRUE(s.addClause(
                        {neg(sel), neg(x[p][h]), neg(x[q][h])}));
        SatBudget b;
        b.maxConflicts = 500;
        EXPECT_NE(s.solve({pos(sel)}, b), SatResult::Sat)
            << "round " << round;
        peak = std::max(peak, s.arenaWords());
        // The dead fraction stays below the GC trigger threshold.
        EXPECT_LE(s.wastedWords() * 4, s.arenaWords() + 4)
            << "round " << round;
    }
    // Problem clauses grow linearly by construction (~22 clauses/round,
    // ~150k arena words total); the learned DB on top must stay bounded
    // by the reduce limit instead of accumulating a dead entry per
    // clause ever learned. The pre-fix DB retains every learned clause
    // slot and blows far past this cap.
    EXPECT_LT(peak, 1000000u) << "arena grew without bound";
    EXPECT_GT(s.stats().dbReductions, 0u);
    EXPECT_GT(s.stats().assumptionConflicts, 0u);
    s.debugCheckInvariants();
}

TEST(Sat, WatcherInvariantsHoldAfterReductionAndGc)
{
    // Drive the solver through learned-clause reduction and arena GC,
    // then check the watcher structure invariants directly. PHP(8,7) is
    // gated behind a selector so the formula stays root-satisfiable no
    // matter how far the budgeted solve gets.
    Solver s;
    const int P = 8, H = 7;
    Var sel = s.newVar();
    std::vector<std::vector<Var>> x(P, std::vector<Var>(H));
    for (int p = 0; p < P; p++)
        for (int h = 0; h < H; h++)
            x[p][h] = s.newVar();
    for (int p = 0; p < P; p++) {
        std::vector<Lit> cl = {neg(sel)};
        for (int h = 0; h < H; h++)
            cl.push_back(pos(x[p][h]));
        s.addClause(cl);
    }
    for (int h = 0; h < H; h++)
        for (int p = 0; p < P; p++)
            for (int q = p + 1; q < P; q++)
                s.addClause({neg(sel), neg(x[p][h]), neg(x[q][h])});
    SatBudget b;
    b.maxConflicts = 20000;
    EXPECT_NE(s.solve({pos(sel)}, b), SatResult::Sat);
    EXPECT_GT(s.stats().dbReductions, 0u);
    s.debugCheckInvariants();
    // The solver still answers correctly after all that churn: with the
    // selector free, the gated instance is vacuously satisfiable.
    EXPECT_EQ(s.solve({pos(x[0][0])}), SatResult::Sat);
    s.debugCheckInvariants();
}

TEST(Sat, SharedAssumptionPrefixReusesTrail)
{
    // Successive solves under a common assumption prefix (the per-cone
    // BMC pattern) must reuse the saved trail -- and, more importantly,
    // produce exactly the verdicts a fresh solver would.
    Solver warm;
    Solver cold_ref;
    const int nvars = 16;
    std::vector<Var> wv(nvars), cv(nvars);
    for (int i = 0; i < nvars; i++) {
        wv[i] = warm.newVar();
        cv[i] = cold_ref.newVar();
    }
    std::mt19937 rng(11);
    std::uniform_int_distribution<int> var_dist(0, nvars - 1);
    std::uniform_int_distribution<int> sign_dist(0, 1);
    std::vector<std::vector<Lit>> cnf;
    for (int i = 0; i < 40; i++) {
        std::vector<Lit> cl;
        for (int j = 0; j < 3; j++)
            cl.push_back(Lit(var_dist(rng), sign_dist(rng)));
        cnf.push_back(cl);
        warm.addClause(cl);
        cold_ref.addClause(cl);
    }
    // Shared prefix {v0, ~v1}; the last assumption varies per query.
    std::vector<Lit> prefix = {pos(wv[0]), neg(wv[1])};
    for (int q = 0; q < nvars; q++) {
        std::vector<Lit> assumes = prefix;
        assumes.push_back(Lit(wv[q], q & 1));
        SatResult rw = warm.solve(assumes);
        Solver fresh;
        for (int i = 0; i < nvars; i++)
            fresh.newVar();
        for (const auto &cl : cnf)
            fresh.addClause(cl);
        EXPECT_EQ(rw, fresh.solve(assumes)) << "query " << q;
    }
    // The warm solver actually exercised the trail-saving path.
    EXPECT_GT(warm.stats().savedTrailLits, 0u);
}
