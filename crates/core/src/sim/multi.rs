//! Many-user query multiplexing over one deployment: the fleet, its sharing
//! mode and the aggregated output.
//!
//! The paper evaluates one mobile user per trial; the roadmap's target is
//! hundreds of concurrent users served by the same sensor network. The
//! stepped engine runs a [`QuerySet`] of `N` users — each with its own trajectory,
//! motion profiles and staggered query lifetime, all derived from the
//! scenario seed through [`wsn_sim::mix_seed`] — over the substrate built by
//! [`super::deploy::Deployment`], and multiplexes their per-period query
//! trees through the reference-counted [`wsn_net::TreeCache`].
//!
//! **Sharing is result-identical per user.** Both sharing modes quantise
//! each user's predicted pickup point to a lattice cell of side `Rq` before
//! building a tree, so a shared tree's construction inputs are bit-identical
//! to what the naive one-tree-per-user path would use, and a tree key names
//! every one of them, whether a repair left crash victims out included;
//! [`TreeSharing::Naive`] builds every tree afresh through an independent
//! scratch (never touching the cache) and serves as the reference
//! implementation, in the style of `elect_backbone_reference`. All random
//! scoring draws come from per-query streams
//! `mix_seed(seed, [QUERY_STREAM, user, k])`, and contention depends only on
//! the (pure) count of concurrently active users — so shared and naive runs
//! produce byte-identical per-user [`QueryLog`]s, which the
//! `tree_cache_equivalence` proptests, every multi-user experiment trial
//! (`run_equivalent_pair` in `mobiquery-experiments`) and, under crashes,
//! `tests/golden_faulted_modes.rs` assert.
//!
//! The period machinery lives in [`super::stepped::SteppedSim`]; a batch
//! trial is `SteppedSim::new(scenario, QuerySet::generate(..), sharing)`
//! walked with `run_to_end` and closed with `finish`. The engine keeps its
//! users as a [`Fleet`]: a fixed-size [`QueryRow`] for every user it ever
//! admitted, and the trajectory, profiles and standing queries only of the
//! users whose last period has not resolved yet.

use super::stepped::ActiveQuery;
use crate::config::Scenario;
use crate::error::ConfigError;
use wsn_metrics::{summarize_users, QueryLog, UserSummary};
use wsn_mobility::{generate_fleet, MotionProfile, UserMotion};
use wsn_sim::{mix_seed, SimRng};

/// Stream tag for each user's query-lifetime window draw.
const LIFETIME_STREAM: u64 = 0x11FE_0000_0000_0002;

/// Whether overlapping query areas share flood trees through the cache or
/// every query builds its own tree (the reference implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TreeSharing {
    /// One reference-counted tree per distinct `(collector, cell, radius)`
    /// key, shared by every query that maps to it.
    Shared,
    /// One fresh tree per query install — the one-tree-per-user baseline the
    /// shared path is proven equal to.
    Naive,
}

impl TreeSharing {
    /// Stable lower-case name, used in JSON documents and CLI output.
    pub fn as_str(self) -> &'static str {
        match self {
            TreeSharing::Shared => "shared",
            TreeSharing::Naive => "naive",
        }
    }
}

/// One user of a multi-user trial: identity, motion, profiles and the
/// staggered window of query periods the user is active in.
#[derive(Debug, Clone, PartialEq)]
pub struct UserQuery {
    /// Fleet index of the user.
    pub user: usize,
    /// The user's derived seed (base for its downstream streams).
    pub seed: u64,
    /// Ground-truth trajectory.
    pub motion: UserMotion,
    /// Motion profiles delivered for this user, sorted by `effective_from`.
    pub profiles: Vec<MotionProfile>,
    /// First query period the user is active in (1-based).
    pub first_k: u64,
    /// Last query period the user is active in (inclusive).
    pub last_k: u64,
}

impl UserQuery {
    /// Number of queries the user issues over its lifetime window.
    pub fn query_count(&self) -> u64 {
        self.last_k.saturating_sub(self.first_k) + 1
    }
}

/// The set of concurrent users of one multi-user trial.
///
/// A pure function of `(scenario, users)`: user `u` is derived from
/// `mix_seed(scenario.seed, [FLEET_STREAM, u])` and its lifetime window from
/// `mix_seed(user_seed, [LIFETIME_STREAM])`, so the set is identical across
/// sharing modes and fleet sizes (prefix-stable in `users`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySet {
    users: Vec<UserQuery>,
    max_k: u64,
}

impl QuerySet {
    /// Generates the fleet and each user's staggered lifetime window.
    ///
    /// User 0 spans the full query lifetime (the single-user convention, and
    /// a guarantee that every period has at least one active user); each
    /// further user draws its window start and end from its own stream,
    /// covering at least half the lifetime.
    pub fn generate(scenario: &Scenario, users: usize) -> Self {
        let max_k = scenario.query.result_count();
        let fleet = generate_fleet(
            &scenario.motion,
            scenario.profile_source,
            users,
            scenario.seed,
        );
        let users = fleet
            .into_iter()
            .map(|member| {
                let (first_k, last_k) = if member.index == 0 {
                    (1, max_k)
                } else {
                    let mut rng = SimRng::seed_from_u64(mix_seed(member.seed, &[LIFETIME_STREAM]));
                    let span = (max_k / 4).max(1) as usize;
                    let mut first = 1 + rng.gen_range_usize(0, span) as u64;
                    let mut last = max_k - rng.gen_range_usize(0, span) as u64;
                    if first > last {
                        std::mem::swap(&mut first, &mut last);
                    }
                    (first.clamp(1, max_k), last.clamp(first, max_k))
                };
                UserQuery {
                    user: member.index,
                    seed: member.seed,
                    motion: member.motion,
                    profiles: member.profiles,
                    first_k,
                    last_k,
                }
            })
            .collect();
        QuerySet { users, max_k }
    }

    /// Builds a query set from explicit users — the replay path: a schedule
    /// recorded by the service's load generator rerun as a batch trial.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when a user's index differs from its
    /// position (fleet order is identity) or its window falls outside
    /// `1..=max_k`: the admission rule a set grown at runtime also keeps.
    pub fn from_users(users: Vec<UserQuery>, max_k: u64) -> Result<Self, ConfigError> {
        let mut set = QuerySet {
            users: Vec::with_capacity(users.len()),
            max_k,
        };
        for user in users {
            set.push(user)?;
        }
        Ok(set)
    }

    /// Appends `user` and returns its fleet index, under [`admissible`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when `user` breaks the rule; the set is
    /// left as it was.
    fn push(&mut self, user: UserQuery) -> Result<usize, ConfigError> {
        let index = self.users.len();
        admissible(index, &user, self.max_k)?;
        self.users.push(user);
        Ok(index)
    }

    /// The users, in fleet order.
    pub fn users(&self) -> &[UserQuery] {
        &self.users
    }

    /// Number of users in the set.
    pub fn len(&self) -> usize {
        self.users.len()
    }

    /// Returns `true` for an empty set.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The number of query periods of the underlying scenario.
    pub fn max_k(&self) -> u64 {
        self.max_k
    }

    /// Total number of query installs over the whole trial.
    pub fn total_queries(&self) -> u64 {
        self.users.iter().map(|u| u.query_count()).sum()
    }
}

/// The one admission rule, for a set built whole ([`QuerySet::from_users`])
/// and for one grown at runtime ([`super::SteppedSim::admit`]): the user at
/// position `index` carries fleet index `index` (fleet order is identity),
/// and its window lies in `1..=max_k`.
fn admissible(index: usize, user: &UserQuery, max_k: u64) -> Result<(), ConfigError> {
    if user.user != index {
        return Err(ConfigError::new(format!(
            "user at position {index} carries fleet index {}",
            user.user
        )));
    }
    if user.first_k < 1 || user.first_k > user.last_k || user.last_k > max_k {
        return Err(ConfigError::new(format!(
            "user {index} window [{}, {}] outside 1..={max_k}",
            user.first_k, user.last_k
        )));
    }
    Ok(())
}

/// The window of one query the stepped engine admitted: the fixed-size row
/// it keeps for every user, from admission to the end of the run. The row's
/// index is the user's fleet index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRow {
    /// First query period the user is active in (1-based).
    pub first_k: u64,
    /// Last query period the user is active in, after any retirement.
    pub last_k: u64,
}

impl QueryRow {
    /// Returns `true` when the user issues a query in period `k`.
    pub fn active_in(&self, k: u64) -> bool {
        self.first_k <= k && k <= self.last_k
    }
}

/// The queries one user can hold standing at once: the install lead (one
/// period) plus one, for the period that resolves.
pub(crate) const QUERY_SLOTS: usize = 2;

/// The slot of [`LiveUser::queries`] that holds period `k`'s query.
pub(crate) fn query_slot(k: u64) -> usize {
    (k % QUERY_SLOTS as u64) as usize
}

/// What the stepped engine needs of a user while its queries run: the
/// ground truth it is scored against, the profiles its installs predict
/// from, and its standing queries. It goes once the user's last period has
/// resolved.
#[derive(Debug)]
pub(crate) struct LiveUser {
    /// Fleet index: the user's [`QueryRow`] and per-query RNG streams.
    pub(crate) user: usize,
    /// Ground-truth trajectory.
    pub(crate) motion: UserMotion,
    /// Motion profiles delivered for this user, sorted by `effective_from`.
    pub(crate) profiles: Vec<MotionProfile>,
    /// Standing queries, period `k` in slot [`query_slot`]`(k)`: an install
    /// fills it (unless it stood no tree), a crash repair may replace or drop
    /// it, and the period's resolve takes it.
    pub(crate) queries: [Option<ActiveQuery>; QUERY_SLOTS],
}

/// The stepped engine's users, split by how long each part lives: a
/// [`QueryRow`] for every user ever admitted, and a [`LiveUser`] only until
/// the user's last period has resolved ([`Fleet::release_through`]). A
/// resident service so holds trajectories in proportion to the queries
/// standing, not to its history.
///
/// The live users stay in fleet order, so a walk over them installs,
/// scores and draws in the order a walk over the whole fleet would.
#[derive(Debug)]
pub(crate) struct Fleet {
    rows: Vec<QueryRow>,
    live: Vec<LiveUser>,
    max_k: u64,
}

impl Fleet {
    /// Takes a validated set's users, every one of them live.
    pub(crate) fn new(set: QuerySet) -> Self {
        let mut fleet = Fleet {
            rows: Vec::with_capacity(set.users.len()),
            live: Vec::with_capacity(set.users.len()),
            max_k: set.max_k,
        };
        for user in set.users {
            fleet.insert(user);
        }
        fleet
    }

    /// Admits `user` at the next fleet index, under [`admissible`], and
    /// returns that index.
    pub(crate) fn push(&mut self, user: UserQuery) -> Result<usize, ConfigError> {
        let index = self.rows.len();
        admissible(index, &user, self.max_k)?;
        self.insert(user);
        Ok(index)
    }

    fn insert(&mut self, user: UserQuery) {
        self.rows.push(QueryRow {
            first_k: user.first_k,
            last_k: user.last_k,
        });
        self.live.push(LiveUser {
            user: user.user,
            motion: user.motion,
            profiles: user.profiles,
            queries: Default::default(),
        });
    }

    /// Every user's row, index = fleet index.
    pub(crate) fn rows(&self) -> &[QueryRow] {
        &self.rows
    }

    /// The users whose last period has not resolved yet, in fleet order.
    pub(crate) fn live(&self) -> &[LiveUser] {
        &self.live
    }

    /// [`Fleet::live`], for filling and taking their query slots.
    pub(crate) fn live_mut(&mut self) -> &mut [LiveUser] {
        &mut self.live
    }

    /// Number of users active in period `k` — the contention level every
    /// query of that period is scored under. Pure, so every sharing mode sees
    /// the same concurrency. A user active in `k` is live until `k` resolves.
    pub(crate) fn active_users(&self, k: u64) -> usize {
        self.live
            .iter()
            .filter(|u| self.rows[u.user].active_in(k))
            .count()
    }

    /// Rewrites `user`'s last active period. The caller
    /// ([`super::SteppedSim::retire_at`]) has already clamped it into the window.
    pub(crate) fn set_last_k(&mut self, user: usize, last_k: u64) {
        self.rows[user].last_k = last_k;
    }

    /// Drops the trajectory and profiles of every user whose last period is
    /// `k` or earlier, once period `k` has resolved. Panics when such a user
    /// still holds a standing query: every query resolves before its user.
    pub(crate) fn release_through(&mut self, k: u64) {
        let rows = &self.rows;
        self.live.retain(|u| {
            let stays = rows[u.user].last_k > k;
            assert!(
                stays || u.queries.iter().all(Option::is_none),
                "queries left unresolved"
            );
            stays
        });
    }

    /// The number of query periods of the underlying scenario.
    pub(crate) fn max_k(&self) -> u64 {
        self.max_k
    }
}

/// What a stepped run counted: every [`MultiUserOutput`] field but the
/// per-user logs and their summaries. A resident service hands each result
/// to its client and keeps no log, so this is what it ends with.
#[derive(Debug, Clone, PartialEq)]
pub struct RunCounters {
    /// Number of users admitted.
    pub users: usize,
    /// The sharing mode the run used.
    pub sharing: TreeSharing,
    /// Total query installs (see [`MultiUserOutput::installs`]).
    pub installs: u64,
    /// Trees actually built under the selected mode.
    pub trees_built: u64,
    /// Cache acquisitions served by an existing tree (0 in naive mode).
    pub shared_hits: u64,
    /// Most trees that stood at once (see
    /// [`MultiUserOutput::peak_live_trees`]).
    pub peak_live_trees: usize,
    /// Sleeping-node wake seconds paid for every tree built.
    pub node_wake_seconds: f64,
    /// Events processed by the engine (period installs plus query resolves).
    pub events_processed: u64,
    /// Backbone size of the deployment.
    pub backbone_count: usize,
    /// Deployment size.
    pub node_count: usize,
}

/// Aggregated output of one multi-user run.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiUserOutput {
    /// Number of users simulated.
    pub users: usize,
    /// The sharing mode the run used.
    pub sharing: TreeSharing,
    /// Per-user success/fidelity, in fleet order.
    pub per_user: Vec<UserSummary>,
    /// The raw per-user query logs (index = fleet index). The equivalence
    /// suite compares these byte for byte between sharing modes.
    pub logs: Vec<QueryLog>,
    /// Total query installs. Naive mode builds one tree per install that
    /// got through plus one per repair: `installs − install_failures +
    /// trees_rebuilt`, counted in the fault log.
    pub installs: u64,
    /// Trees actually built under the selected mode.
    pub trees_built: u64,
    /// Cache acquisitions served by an existing tree (0 in naive mode).
    pub shared_hits: u64,
    /// Most trees that stood at once: distinct trees in the cache plus the
    /// trees queries own (every tree in naive mode, and a shared query's
    /// fallback after its root crashed). A failed install stands none.
    pub peak_live_trees: usize,
    /// Sleeping-node wake seconds paid for every tree built under the
    /// selected mode.
    pub node_wake_seconds: f64,
    /// Events processed by the engine (period installs plus query resolves).
    pub events_processed: u64,
    /// Backbone size of the deployment.
    pub backbone_count: usize,
    /// Deployment size.
    pub node_count: usize,
}

impl MultiUserOutput {
    /// Joins a run's counters with its per-user logs (index = fleet index),
    /// summarising each log at `fidelity_threshold`.
    pub fn new(counters: RunCounters, logs: Vec<QueryLog>, fidelity_threshold: f64) -> Self {
        let RunCounters {
            users,
            sharing,
            installs,
            trees_built,
            shared_hits,
            peak_live_trees,
            node_wake_seconds,
            events_processed,
            backbone_count,
            node_count,
        } = counters;
        MultiUserOutput {
            users,
            sharing,
            per_user: summarize_users(&logs, fidelity_threshold),
            logs,
            installs,
            trees_built,
            shared_hits,
            peak_live_trees,
            node_wake_seconds,
            events_processed,
            backbone_count,
            node_count,
        }
    }

    /// Mean per-user success ratio (users that issued no query count as 0).
    pub fn mean_success_ratio(&self) -> f64 {
        if self.per_user.is_empty() {
            return 0.0;
        }
        self.per_user.iter().map(|u| u.success_ratio).sum::<f64>() / self.per_user.len() as f64
    }

    /// Worst per-user success ratio — is *every* user served, not just the
    /// average one?
    pub fn min_success_ratio(&self) -> f64 {
        self.per_user
            .iter()
            .map(|u| u.success_ratio)
            .fold(f64::INFINITY, f64::min)
            .min(1.0)
    }

    /// Mean per-user fidelity.
    pub fn mean_fidelity(&self) -> f64 {
        if self.per_user.is_empty() {
            return 0.0;
        }
        self.per_user.iter().map(|u| u.mean_fidelity).sum::<f64>() / self.per_user.len() as f64
    }

    /// Trees built per install, in `(0, 1]` without faults: 1.0 means no
    /// sharing happened, small values mean most installs joined an existing
    /// tree.
    pub fn sharing_ratio(&self) -> f64 {
        if self.installs == 0 {
            return 1.0;
        }
        self.trees_built as f64 / self.installs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::stepped::{small_scenario, stepped};

    fn run(seed: u64, users: usize, sharing: TreeSharing) -> MultiUserOutput {
        let mut sim = stepped(seed, users, sharing);
        sim.run_to_end().unwrap();
        sim.finish()
    }

    #[test]
    fn query_set_is_deterministic_and_staggered() {
        let scenario = small_scenario(3);
        let a = QuerySet::generate(&scenario, 8);
        let b = QuerySet::generate(&scenario, 8);
        assert_eq!(a, b);
        assert_eq!(a.users()[0].first_k, 1);
        assert_eq!(a.users()[0].last_k, a.max_k());
        assert!(
            a.users()[1..]
                .iter()
                .any(|u| u.first_k > 1 || u.last_k < a.max_k()),
            "later users should have staggered lifetimes"
        );
        for u in a.users() {
            assert!(u.first_k >= 1 && u.first_k <= u.last_k && u.last_k <= a.max_k());
        }
        for k in 1..=a.max_k() {
            assert!(
                a.users().iter().any(|u| u.first_k <= k && k <= u.last_k),
                "user 0 spans every period"
            );
        }
    }

    #[test]
    fn query_set_generate_survives_tiny_lifetime_windows() {
        // One- and two-period lifetimes exercise the degenerate window draw
        // (span = max(max_k / 4, 1)): every window must stay inside
        // 1..=max_k with first <= last, whatever the stream yields.
        for periods in [1u64, 2, 3] {
            let scenario = small_scenario(11).with_duration_secs(2.0 * periods as f64);
            for seed in 0..20 {
                let set = QuerySet::generate(&scenario.clone().with_seed(seed), 12);
                assert_eq!(set.max_k(), periods);
                for u in set.users() {
                    assert!(
                        u.first_k >= 1 && u.first_k <= u.last_k && u.last_k <= periods,
                        "seed {seed}, {periods} periods: user {} window [{}, {}]",
                        u.user,
                        u.first_k,
                        u.last_k
                    );
                }
                assert_eq!(set.users()[0].first_k, 1);
                assert_eq!(set.users()[0].last_k, periods);
            }
        }
    }

    #[test]
    fn from_users_validates_order_and_windows() {
        let scenario = small_scenario(8);
        let set = QuerySet::generate(&scenario, 3);
        let users = set.users().to_vec();
        let rebuilt = QuerySet::from_users(users.clone(), set.max_k()).unwrap();
        assert_eq!(rebuilt, set);

        let mut shuffled = users.clone();
        shuffled.swap(0, 2);
        assert!(
            QuerySet::from_users(shuffled, set.max_k()).is_err(),
            "fleet order must be identity"
        );
        let mut bad_window = users;
        bad_window[1].last_k = set.max_k() + 1;
        assert!(
            QuerySet::from_users(bad_window, set.max_k()).is_err(),
            "window past max_k refused"
        );
        assert!(QuerySet::from_users(vec![], 5).unwrap().is_empty());
    }

    #[test]
    fn shared_and_naive_runs_are_result_identical_per_user() {
        for seed in [1, 5, 9] {
            let shared = run(seed, 6, TreeSharing::Shared);
            let naive = run(seed, 6, TreeSharing::Naive);
            assert_eq!(shared.logs, naive.logs, "seed {seed}: per-user logs differ");
            assert_eq!(shared.per_user, naive.per_user);
            assert_eq!(shared.installs, naive.installs);
            assert_eq!(
                naive.trees_built, naive.installs,
                "naive builds per install"
            );
            assert!(shared.trees_built <= naive.trees_built);
            assert!(shared.node_wake_seconds <= naive.node_wake_seconds + 1e-9);
        }
    }

    #[test]
    fn sharing_kicks_in_with_overlapping_users() {
        // 300 m region, 150 m cells → a 2×2 lattice: 12 users must collide.
        let out = run(2, 12, TreeSharing::Shared);
        assert!(
            out.sharing_ratio() < 1.0,
            "expected tree sharing, got ratio {}",
            out.sharing_ratio()
        );
        assert!(out.shared_hits > 0);
        assert!(out.trees_built < out.installs);
        assert!(out.node_wake_seconds < run(2, 12, TreeSharing::Naive).node_wake_seconds);
    }

    #[test]
    fn identical_seeds_give_identical_outputs() {
        let a = run(7, 5, TreeSharing::Shared);
        let b = run(7, 5, TreeSharing::Shared);
        assert_eq!(a, b);
    }

    #[test]
    fn single_user_runs_and_scores_every_period() {
        let out = run(4, 1, TreeSharing::Shared);
        assert_eq!(out.users, 1);
        assert_eq!(out.logs[0].len() as u64, out.installs);
        assert_eq!(out.logs[0].len(), 20, "40 s at 2 s per period");
        assert!(out.mean_fidelity() > 0.0);
        assert!(out.backbone_count > 0);
    }

    #[test]
    fn per_user_logs_cover_each_users_window() {
        let out = run(6, 6, TreeSharing::Shared);
        let set = QuerySet::generate(&small_scenario(6), 6);
        for (log, user) in out.logs.iter().zip(set.users()) {
            assert_eq!(log.len() as u64, user.query_count());
            assert_eq!(log.records()[0].seq, user.first_k);
            assert_eq!(log.records().last().unwrap().seq, user.last_k);
        }
    }
}
